"""Query-set evaluation: explanation metrics, random baseline, motif-enhanced head."""
from __future__ import annotations

import time

import numpy as np

from .basemodel import (EVAL_CHUNK, InternalPredictor, enhanced_probs, eval_queries,
                        evaluate_ap, predict_batch, split_event_ids, train_enhanced_head)
from .explainer import ExplainerConfig, encode_chunks, explain_batch, prepare_queries
from .graph import TemporalGraph
from .metrics import (MetricReport, SPARSITY_LEVELS, acc_auc, average_precision,
                      cohesiveness, fidelity, random_baseline)
from .nn import ParameterStore, Tape


def build_eval_query_set(g: TemporalGraph, n_queries: int, seed: int):
    """Earliest test-split events with 1:1 fixed negatives, capped at n_queries."""
    _, _, test_ids = split_event_ids(g)
    pairs = eval_queries(g, test_ids, seed)
    return pairs[:n_queries]


def _views(qidx, expl, seed, levels):
    """The full view, then each level's model and random-baseline retained sets; None if empty."""
    if expl.empty or not expl.comp_ids:
        return None
    comp = set(expl.comp_ids)
    return ([None] + [set(expl.retained[lv]) for lv in levels]
            + [random_baseline(comp, lv, seed=seed * 100003 + qidx * 31 + int(lv * 50))
               for lv in levels])


def _eval_one(qidx, g, comp, views, preds, levels, coh_level):
    """One query's curve rows and cohesiveness, from its `_views` and their predictions."""
    n = len(levels)
    fids = fidelity(float(preds[0]), preds[1:])
    hits = (preds[1:] >= 0.5) == (float(preds[0]) >= 0.5)
    rows = [(qidx, lv, float(fids[j]), int(hits[j]), source)
            for k, lv in enumerate(levels) for source, j in (("model", k), ("random", n + k))]
    k = levels.index(coh_level) if coh_level in levels else None
    cohs = (None, None) if k is None else (cohesiveness(g, views[1 + k], comp),
                                           cohesiveness(g, views[1 + n + k], comp))
    return rows, cohs


def evaluate_explanations(g: TemporalGraph, base_store: ParameterStore,
                          expl_store: ParameterStore, n_queries: int = 200,
                          cfg: ExplainerConfig | None = None, seed: int = 0,
                          levels=SPARSITY_LEVELS, coh_level: float = 0.1,
                          predictor=None) -> MetricReport:
    """Fidelity/ACC curves, ACC-AUC, and cohesiveness for model and random baseline.

    One `explain_batch` call explains the query set, and one `predict_views`
    call predicts every view of every query. An external predictor (adapter)
    may replace the internal one for the metric-side predictions; the
    internal model's rows do not depend on the batch, so both agree.
    """
    if cfg is None:
        cfg = ExplainerConfig(**expl_store.meta["config"])
    predictor = predictor or InternalPredictor(base_store)
    levels = tuple(levels)
    queries = [q for q, _ in build_eval_query_set(g, n_queries, seed)]
    t0 = time.perf_counter()
    expls = explain_batch(g, base_store, expl_store, queries,
                          [seed + i for i in range(len(queries))], levels, cfg)
    elapsed = time.perf_counter() - t0
    views = [_views(i, expl, seed, levels) for i, expl in enumerate(expls)]
    todo = [i for i, v in enumerate(views) if v is not None]
    preds = predictor.predict_views(g, [queries[i] for i in todo for _ in views[i]],
                                    [v for i in todo for v in views[i]])
    per_query = np.split(preds, np.cumsum([len(views[i]) for i in todo])[:-1])
    results = [_eval_one(i, g, set(expls[i].comp_ids), views[i], p, levels, coh_level)
               for i, p in zip(todo, per_query)]
    report = MetricReport(levels=levels)
    report.n_queries = len(results)
    if not results:
        return report
    report.rows = [row for rows, _ in results for row in rows]
    for lv in levels:
        for source, acc_of, fid_of in (
                ("model", report.acc_per_level, report.mean_fidelity_per_level),
                ("random", report.baseline_acc_per_level, report.baseline_fidelity_per_level)):
            picked = [row for row in report.rows if row[1] == lv and row[4] == source]
            acc_of[lv] = float(np.mean([row[3] for row in picked]))
            fid_of[lv] = float(np.mean([row[2] for row in picked]))
    report.acc_auc = acc_auc(report.acc_per_level)
    report.baseline_acc_auc = acc_auc(report.baseline_acc_per_level)
    cohs = [c for _, (c, _) in results if c is not None]
    bl_cohs = [c for _, (_, c) in results if c is not None]
    report.mean_cohesiveness = float(np.mean(cohs)) if cohs else None
    report.baseline_cohesiveness = float(np.mean(bl_cohs)) if bl_cohs else None
    report.cohesiveness_level = coh_level
    report.explain_seconds_mean = elapsed / len(results)
    return report


def train_motif_enhanced(g: TemporalGraph, base_store: ParameterStore,
                         expl_store: ParameterStore, cfg: ExplainerConfig | None = None,
                         seed: int = 0, max_train_events: int = 400,
                         head_epochs: int = 40) -> tuple[ParameterStore, dict]:
    """Widened-head training on mean motif embeddings; reports plain vs enhanced AP.

    Representations come from one batched forward and motif embeddings from
    `prepare_queries` plus `encode_chunks`, with the frozen trunk and encoder;
    only the head trains. Held-out AP is measured on the chronological test split.
    """
    if cfg is None:
        cfg = ExplainerConfig(**expl_store.meta["config"])
    base = InternalPredictor(base_store)
    train_ids, val_ids, test_ids = split_event_ids(g)
    train_ids = train_ids[-max_train_events:]
    sets = {"train": eval_queries(g, train_ids, seed),
            "val": eval_queries(g, val_ids, seed + 1, neg_per_pos=3),
            "test": eval_queries(g, test_ids, seed + 2)}
    rows = [(split, seed + 31 * qi, q, y) for split in ("train", "val", "test")
            for qi, (q, y) in enumerate(sets[split])]
    queries = [q for _, _, q, _ in rows]
    reps = predict_batch(base_store, g, queries)[1]
    embs = np.zeros((len(rows), expl_store.meta["h"]))  # zero for a query without motifs
    for lo in range(0, len(rows), EVAL_CHUNK):  # one chunk's preps at a time bound the memory
        preps = prepare_queries(g, base, queries[lo:lo + EVAL_CHUNK], cfg,
                                [sd for _, sd, _, _ in rows[lo:lo + EVAL_CHUNK]])
        done = [k for k, prep in enumerate(preps) if prep is not None]
        scored = encode_chunks(expl_store, [preps[k] for k in done], cfg.batch)
        for k, (_, emb) in zip(done, scored):
            embs[lo + k] = emb.mean(axis=0)
    labels = np.array([y for _, _, _, y in rows])
    is_val = np.array([split == "val" for split, _, _, _ in rows])
    test_rows = np.array([i for i, r in enumerate(rows) if r[0] == "test"], dtype=np.int64)
    fit_rows = np.array([i for i, r in enumerate(rows) if r[0] != "test"], dtype=np.int64)
    enhanced, head_report = train_enhanced_head(
        base_store, reps[fit_rows], embs[fit_rows], labels[fit_rows],
        val_mask=is_val[fit_rows], lr=5e-4, epochs=head_epochs, seed=seed)
    enh_scores = enhanced_probs(Tape(enhanced), reps[test_rows], embs[test_rows]).value
    plain_ap = evaluate_ap(base_store, g, sets["test"])
    enhanced_ap = average_precision(labels[test_rows], enh_scores)
    report = {"plain_test_ap": plain_ap, "enhanced_test_ap": enhanced_ap,
              "head": head_report, "n_test": len(test_rows)}
    return enhanced, report
