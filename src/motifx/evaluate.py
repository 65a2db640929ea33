"""Query-set evaluation: explanation metrics, random baseline, motif-enhanced head."""
from __future__ import annotations

import time

import numpy as np

from . import nn
from .basemodel import (InternalPredictor, _enhanced_logit, eval_queries, evaluate_ap,
                        split_event_ids, train_enhanced_head)
from .explainer import ExplainerConfig, explain, motif_embeddings
from .graph import TemporalGraph
from .metrics import (MetricReport, SPARSITY_LEVELS, acc_auc, average_precision,
                      cohesiveness, fidelity, random_baseline)
from .nn import ConstTape, ParameterStore


def build_eval_query_set(g: TemporalGraph, n_queries: int, seed: int):
    """Earliest test-split events with 1:1 fixed negatives, capped at n_queries."""
    _, _, test_ids = split_event_ids(g)
    pairs = eval_queries(g, test_ids, seed)
    return pairs[:n_queries]


def _eval_one(qidx, query, g, base_store, expl_store, cfg, seed, levels, coh_level,
              predictor):
    t0 = time.perf_counter()
    expl = explain(g, base_store, expl_store, query, levels, cfg, seed=seed + qidx)
    elapsed = time.perf_counter() - t0
    if expl.empty or not expl.comp_ids:
        return None
    comp = set(expl.comp_ids)
    kept = [set(expl.retained[lv]) for lv in levels]
    baselines = [random_baseline(comp, lv, seed=seed * 100003 + qidx * 31 + int(lv * 50))
                 for lv in levels]
    # full view, then every retained set of the model and of the baseline, in one call
    preds = predictor.predict_views(g, query, [None] + kept + baselines)
    f_full = float(preds[0])
    label = 1 if f_full >= 0.5 else 0
    rows = []
    accs, fids, bl_accs, bl_fids = {}, {}, {}, {}
    n = len(levels)
    for k, lv in enumerate(levels):
        for source, f_x, acc_of, fid_of in (("model", preds[1 + k], accs, fids),
                                            ("random", preds[1 + n + k], bl_accs, bl_fids)):
            fid_of[lv] = float(f_x - f_full if label == 1 else f_full - f_x)
            acc_of[lv] = int((1 if f_x >= 0.5 else 0) == label)
            rows.append((qidx, lv, fid_of[lv], acc_of[lv], source))
    k = levels.index(coh_level) if coh_level in levels else None
    coh = None if k is None else cohesiveness(g, kept[k], comp)
    bl_coh = None if k is None else cohesiveness(g, baselines[k], comp)
    return {"accs": accs, "fids": fids, "bl_accs": bl_accs, "bl_fids": bl_fids,
            "coh": coh, "bl_coh": bl_coh, "rows": rows, "seconds": elapsed}


def evaluate_explanations(g: TemporalGraph, base_store: ParameterStore,
                          expl_store: ParameterStore, n_queries: int = 200,
                          cfg: ExplainerConfig | None = None, seed: int = 0,
                          levels=SPARSITY_LEVELS, coh_level: float = 0.1,
                          predictor=None) -> MetricReport:
    """Fidelity/ACC curves, ACC-AUC, and cohesiveness for model and random baseline.

    An external predictor (adapter) may replace the internal one for the
    metric-side predictions. Each query's predictions are one call; the
    internal model's rows do not depend on the batch, so both agree.
    """
    if cfg is None:
        cfg = ExplainerConfig(**expl_store.meta["config"])
    predictor = predictor or InternalPredictor(base_store)
    queries = build_eval_query_set(g, n_queries, seed)
    results = [_eval_one(i, q, g, base_store, expl_store, cfg, seed, tuple(levels), coh_level,
                         predictor)
               for i, (q, _) in enumerate(queries)]
    results = [r for r in results if r is not None]
    report = MetricReport(levels=tuple(levels))
    report.n_queries = len(results)
    if not results:
        return report
    for lv in levels:
        report.acc_per_level[lv] = float(np.mean([r["accs"][lv] for r in results]))
        report.baseline_acc_per_level[lv] = float(np.mean([r["bl_accs"][lv] for r in results]))
        report.mean_fidelity_per_level[lv] = float(np.mean([r["fids"][lv] for r in results]))
        report.baseline_fidelity_per_level[lv] = float(np.mean([r["bl_fids"][lv] for r in results]))
    report.acc_auc = acc_auc(report.acc_per_level)
    report.baseline_acc_auc = acc_auc(report.baseline_acc_per_level)
    cohs = [r["coh"] for r in results if r["coh"] is not None]
    bl_cohs = [r["bl_coh"] for r in results if r["bl_coh"] is not None]
    report.mean_cohesiveness = float(np.mean(cohs)) if cohs else None
    report.baseline_cohesiveness = float(np.mean(bl_cohs)) if bl_cohs else None
    report.cohesiveness_level = coh_level
    report.explain_seconds_mean = float(np.mean([r["seconds"] for r in results]))
    for r in results:
        report.rows.extend(r["rows"])
    return report


def train_motif_enhanced(g: TemporalGraph, base_store: ParameterStore,
                         expl_store: ParameterStore, cfg: ExplainerConfig | None = None,
                         seed: int = 0, max_train_events: int = 400,
                         head_epochs: int = 40) -> tuple[ParameterStore, dict]:
    """Widened-head training on mean motif embeddings; reports plain vs enhanced AP.

    Representations and motif embeddings are computed once per query with
    the frozen trunk and encoder; only the head trains. Held-out AP is
    measured on the chronological test split.
    """
    if cfg is None:
        cfg = ExplainerConfig(**expl_store.meta["config"])
    base = InternalPredictor(base_store)
    train_ids, val_ids, test_ids = split_event_ids(g)
    train_ids = train_ids[-max_train_events:]
    sets = {"train": eval_queries(g, train_ids, seed),
            "val": eval_queries(g, val_ids, seed + 1, neg_per_pos=3),
            "test": eval_queries(g, test_ids, seed + 2)}
    reps, embs, labels, is_val, test_rows = [], [], [], [], []
    motif_dim = expl_store.meta["h"]
    row = 0
    for split in ("train", "val", "test"):
        for qi, (q, y) in enumerate(sets[split]):
            reps.append(base.query_context(g, q))
            e = motif_embeddings(g, base_store, expl_store, q, cfg, seed=seed + 31 * qi)
            embs.append(e.mean(axis=0) if len(e) else np.zeros(motif_dim))
            labels.append(y)
            is_val.append(split == "val")
            if split == "test":
                test_rows.append(row)
            row += 1
    reps = np.array(reps)
    embs = np.array(embs)
    labels = np.array(labels)
    fit_rows = np.array([i for i in range(row) if i not in set(test_rows)], dtype=np.int64)
    enhanced, head_report = train_enhanced_head(
        base_store, reps[fit_rows], embs[fit_rows], labels[fit_rows],
        val_mask=np.array(is_val)[fit_rows], lr=5e-4, epochs=head_epochs, seed=seed)
    enh_scores = nn.sigmoid(_enhanced_logit(ConstTape(enhanced), reps[test_rows],
                                            embs[test_rows])).value
    plain_ap = evaluate_ap(base_store, g, sets["test"])
    enhanced_ap = average_precision(labels[test_rows], enh_scores)
    report = {"plain_test_ap": plain_ap, "enhanced_test_ap": enhanced_ap,
              "head": head_report, "n_test": len(test_rows)}
    return enhanced, report
