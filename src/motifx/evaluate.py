"""Query-set evaluation: explanation metrics, random baseline, motif-enhanced head."""
from __future__ import annotations

import time

import numpy as np

from .basemodel import (_head, enhanced_probs, eval_queries, predict_batch, split_event_ids,
                        train_enhanced_head)
from .config import RunConfig
from .explainer import explain_batch, scored_preps
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


def evaluate_explanations(g: TemporalGraph, base_store: ParameterStore,
                          expl_store: ParameterStore, n_queries: int, cfg: RunConfig,
                          seed: int = 0) -> MetricReport:
    """Fidelity/ACC curves and ACC-AUC over `SPARSITY_LEVELS`, and cohesiveness at
    `COHESIVENESS_LEVEL`, for model and random baseline.

    One `explain_batch` call explains the query set. Each query with a non-empty
    computational graph has 1 + 2L views: the full view, then the model's retained set
    at each of the L levels, then the random baseline's. One `predict_batch` call
    predicts them all into one (Q, 1 + 2L) matrix, and every metric is read from its
    columns.
    """
    queries = [q for q, _ in build_eval_query_set(g, n_queries, seed)]
    t0 = time.perf_counter()
    expls = explain_batch(g, base_store, expl_store, queries,
                          [seed + i for i in range(len(queries))], cfg)
    report = MetricReport()
    report.explain_seconds_mean = (time.perf_counter() - t0) / len(queries) if queries else 0.0
    todo = [i for i, expl in enumerate(expls) if not expl.empty]
    n = len(SPARSITY_LEVELS)
    width = 1 + 2 * n
    views = [[None] + [set(expls[i].retained[lv]) for lv in SPARSITY_LEVELS]
             + [random_baseline(expls[i].comp_ids, lv, seed=seed * 100003 + i * 31 + int(lv * 50))
                for lv in SPARSITY_LEVELS] for i in todo]
    preds = predict_batch(base_store, g, [queries[i] for i in todo for _ in range(width)],
                          [v for row in views for v in row])[0].reshape(len(todo), width)
    report.n_queries = len(todo)
    if not todo:
        return report
    fid = fidelity(preds[:, :1], preds[:, 1:])  # (Q, 2L): model levels, then random levels
    acc = ((preds[:, 1:] >= 0.5) == (preds[:, :1] >= 0.5)).astype(np.int64)
    report.rows = [(i, lv, f[j], a[j], source) for i, f, a in zip(todo, fid.tolist(), acc.tolist())
                   for k, lv in enumerate(SPARSITY_LEVELS)
                   for source, j in (("model", k), ("random", n + k))]
    # a contiguous row per column, so each mean is np.mean's pairwise sum over the queries
    fid_mean, acc_mean = (np.ascontiguousarray(x.T).mean(axis=1).tolist() for x in (fid, acc))
    report.acc_per_level.update(zip(SPARSITY_LEVELS, acc_mean[:n]))
    report.baseline_acc_per_level.update(zip(SPARSITY_LEVELS, acc_mean[n:]))
    report.mean_fidelity_per_level.update(zip(SPARSITY_LEVELS, fid_mean[:n]))
    report.baseline_fidelity_per_level.update(zip(SPARSITY_LEVELS, fid_mean[n:]))
    report.acc_auc = acc_auc(report.acc_per_level)
    report.baseline_acc_auc = acc_auc(report.baseline_acc_per_level)
    col = 1 + SPARSITY_LEVELS.index(COHESIVENESS_LEVEL)
    for name, k in (("mean_cohesiveness", col), ("baseline_cohesiveness", col + n)):
        cohs = [c for i, row in zip(todo, views)
                if (c := cohesiveness(g, row[k], expls[i].comp_ids)) is not None]
        setattr(report, name, float(np.mean(cohs)) if cohs else None)
    return report


def train_motif_enhanced(g: TemporalGraph, base_store: ParameterStore,
                         expl_store: ParameterStore, cfg: RunConfig,
                         seed: int = 0) -> tuple[ParameterStore, dict]:
    """Widened-head training on mean motif embeddings; reports plain vs enhanced AP.

    Queries come from the last HEAD_TRAIN_EVENTS training events, validation and test;
    `split` marks each query's set (0 train, 1 val, 2 test). Embeddings come from
    `scored_preps`; only the head trains. The base model runs once per query: a prep's
    `ctx`, else one `predict_batch`. Test AP is the plain `_head`'s and the enhanced
    one's on the same representations.
    """
    train_ids, val_ids, test_ids = split_event_ids(g)
    sets = [eval_queries(g, train_ids[-HEAD_TRAIN_EVENTS:], seed),
            eval_queries(g, val_ids, seed + 1, neg_per_pos=3), eval_queries(g, test_ids, seed + 2)]
    split = np.repeat(np.arange(3), [len(s) for s in sets])
    queries = [q for s in sets for q, _ in s]
    labels = np.array([y for s in sets for _, y in s])
    reps = np.zeros((len(queries), 2 * base_store.meta["h"]))
    embs = np.zeros((len(queries), expl_store.meta["h"]))  # zero for a query without motifs
    prepped = np.zeros(len(queries), dtype=bool)
    items = scored_preps(g, base_store, expl_store, queries,
                         [seed + 31 * qi for s in sets for qi in range(len(s))], cfg)
    for i in range(len(queries)):  # no enumerate: its cached tuple would hold the last item
        item = next(items)
        if item is not None:
            reps[i], embs[i], prepped[i] = item[0].ctx, item[2].mean(axis=0), True
        del item  # a prep views its whole chunk's arrays: let go before the next chunk
    bare = np.nonzero(~prepped)[0]
    reps[bare] = predict_batch(base_store, g, [queries[i] for i in bare])[1]
    fit, test = split < 2, split == 2
    enhanced, head_report = train_enhanced_head(
        base_store, reps[fit], embs[fit], labels[fit], val_mask=split[fit] == 1, seed=seed)
    plain_scores = _head(Tape(base_store), const(reps[test])).value
    enh_scores = enhanced_probs(Tape(enhanced), reps[test], embs[test]).value
    report = {"plain_test_ap": average_precision(labels[test], plain_scores),
              "enhanced_test_ap": average_precision(labels[test], enh_scores),
              "head": head_report, "n_test": int(test.sum())}
    return enhanced, report
