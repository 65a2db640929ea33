"""Query-set evaluation: explanation metrics, random baseline, motif-enhanced head."""
from __future__ import annotations

import time

import numpy as np

from .basemodel import (EVAL_CHUNK, _head, enhanced_probs, eval_queries, predict_batch,
                        split_event_ids, train_enhanced_head)
from .config import RunConfig
from .explainer import encode_chunks, explain_batch, prepare_queries
from .graph import TemporalGraph
from .metrics import (COHESIVENESS_LEVEL, MetricReport, SPARSITY_LEVELS, acc_auc,
                      average_precision, cohesiveness, fidelity, random_baseline)
from .nn import ParameterStore, Tape, const

HEAD_TRAIN_EVENTS = 400  # the latest training events whose queries fit the enhanced head


def build_eval_query_set(g: TemporalGraph, n_queries: int, seed: int):
    """Earliest test-split events with 1:1 fixed negatives, capped at n_queries."""
    _, _, test_ids = split_event_ids(g)
    pairs = eval_queries(g, test_ids, seed)
    return pairs[:n_queries]


def _views(qidx, expl, seed):
    """The full view, then each level's model and random-baseline retained sets; None if empty."""
    if expl.empty or not expl.comp_ids:
        return None
    comp = set(expl.comp_ids)
    return ([None] + [set(expl.retained[lv]) for lv in SPARSITY_LEVELS]
            + [random_baseline(comp, lv, seed=seed * 100003 + qidx * 31 + int(lv * 50))
               for lv in SPARSITY_LEVELS])


def _eval_one(qidx, g, comp, views, preds):
    """One query's curve rows and cohesiveness, from its `_views` and their predictions."""
    n = len(SPARSITY_LEVELS)
    fids = fidelity(float(preds[0]), preds[1:])
    hits = (preds[1:] >= 0.5) == (float(preds[0]) >= 0.5)
    rows = [(qidx, lv, float(fids[j]), int(hits[j]), source)
            for k, lv in enumerate(SPARSITY_LEVELS) for source, j in (("model", k), ("random", n + k))]
    k = 1 + SPARSITY_LEVELS.index(COHESIVENESS_LEVEL)
    return rows, (cohesiveness(g, views[k], comp), cohesiveness(g, views[n + k], comp))


def evaluate_explanations(g: TemporalGraph, base_store: ParameterStore,
                          expl_store: ParameterStore, n_queries: int = 200,
                          cfg: RunConfig | None = None, seed: int = 0) -> MetricReport:
    """Fidelity/ACC curves and ACC-AUC over `SPARSITY_LEVELS`, and cohesiveness at
    `COHESIVENESS_LEVEL`, for model and random baseline.

    One `explain_batch` call explains the query set, and one `predict_batch`
    call predicts every view of every query. `cfg` defaults to the config the
    explainer was trained with.
    """
    queries = [q for q, _ in build_eval_query_set(g, n_queries, seed)]
    t0 = time.perf_counter()
    expls = explain_batch(g, base_store, expl_store, queries,
                          [seed + i for i in range(len(queries))], cfg)
    elapsed = time.perf_counter() - t0
    views = [_views(i, expl, seed) for i, expl in enumerate(expls)]
    todo = [i for i, v in enumerate(views) if v is not None]
    preds = predict_batch(base_store, g, [queries[i] for i in todo for _ in views[i]],
                          [v for i in todo for v in views[i]])[0]
    per_query = np.split(preds, np.cumsum([len(views[i]) for i in todo])[:-1])
    results = [_eval_one(i, g, set(expls[i].comp_ids), views[i], p)
               for i, p in zip(todo, per_query)]
    report = MetricReport()
    report.n_queries = len(results)
    if not results:
        return report
    report.rows = [row for rows, _ in results for row in rows]
    for lv in SPARSITY_LEVELS:
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
    report.explain_seconds_mean = elapsed / len(results)
    return report


def train_motif_enhanced(g: TemporalGraph, base_store: ParameterStore,
                         expl_store: ParameterStore, cfg: RunConfig | None = None,
                         seed: int = 0) -> tuple[ParameterStore, dict]:
    """Widened-head training on mean motif embeddings; reports plain vs enhanced AP.

    Queries come from the last HEAD_TRAIN_EVENTS training events, validation and test.
    Embeddings come from `prepare_queries` plus `encode_chunks`; only the head trains.
    The base model runs once per query: a prep's `ctx`, else one `predict_batch`. Test AP
    is the plain `_head`'s and the enhanced one's on the same representations. `cfg`
    defaults to the explainer's config.
    """
    cfg = cfg or RunConfig(**expl_store.meta["config"])
    train_ids, val_ids, test_ids = split_event_ids(g)
    train_ids = train_ids[-HEAD_TRAIN_EVENTS:]
    sets = {"train": eval_queries(g, train_ids, seed),
            "val": eval_queries(g, val_ids, seed + 1, neg_per_pos=3),
            "test": eval_queries(g, test_ids, seed + 2)}
    rows = [(split, seed + 31 * qi, q, y) for split in ("train", "val", "test")
            for qi, (q, y) in enumerate(sets[split])]
    queries = [q for _, _, q, _ in rows]
    reps = np.zeros((len(rows), 2 * base_store.meta["h"]))
    embs = np.zeros((len(rows), expl_store.meta["h"]))  # zero for a query without motifs
    prepped = np.zeros(len(rows), dtype=bool)
    for lo in range(0, len(rows), EVAL_CHUNK):  # one chunk's preps at a time bound the memory
        preps = prepare_queries(g, base_store, queries[lo:lo + EVAL_CHUNK], cfg,
                                [sd for _, sd, _, _ in rows[lo:lo + EVAL_CHUNK]])
        done = [k for k, prep in enumerate(preps) if prep is not None]
        scored = encode_chunks(expl_store, [preps[k] for k in done], cfg.batch)
        for k, (_, emb) in zip(done, scored):
            reps[lo + k], embs[lo + k], prepped[lo + k] = preps[k].ctx, emb.mean(axis=0), True
    bare = np.nonzero(~prepped)[0]
    reps[bare] = predict_batch(base_store, g, [queries[i] for i in bare])[1]
    labels = np.array([y for _, _, _, y in rows])
    is_val = np.array([split == "val" for split, _, _, _ in rows])
    test_rows = np.array([i for i, r in enumerate(rows) if r[0] == "test"], dtype=np.int64)
    fit_rows = np.array([i for i, r in enumerate(rows) if r[0] != "test"], dtype=np.int64)
    enhanced, head_report = train_enhanced_head(
        base_store, reps[fit_rows], embs[fit_rows], labels[fit_rows],
        val_mask=is_val[fit_rows], lr=5e-4, seed=seed)
    plain_scores = _head(Tape(base_store), const(reps[test_rows])).value
    enh_scores = enhanced_probs(Tape(enhanced), reps[test_rows], embs[test_rows]).value
    report = {"plain_test_ap": average_precision(labels[test_rows], plain_scores),
              "enhanced_test_ap": average_precision(labels[test_rows], enh_scores),
              "head": head_report, "n_test": len(test_rows)}
    return enhanced, report
