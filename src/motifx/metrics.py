"""Explanation-quality metrics: fidelity, sparsity, ACC-AUC, cohesiveness, random baseline."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


SPARSITY_LEVELS = tuple(round(0.02 * k, 2) for k in range(16))  # 0.0 .. 0.3
COHESIVENESS_LEVEL = 0.1  # the sparsity level cohesiveness is measured at: SPARSITY_LEVELS[5]


def average_precision(labels, scores) -> float:
    """Mean precision at each positive, scanning scores in descending order."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return 0.0
    order = np.lexsort((np.arange(len(scores)), -scores))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


def retained_size(sparsity_level: float, comp_size: int) -> int:
    return math.ceil(sparsity_level * comp_size)


def fidelity(f_full, f_views) -> np.ndarray:
    """Signed prediction shift of each view's probability, oriented by the full-view label;
    `f_full` broadcasts against `f_views` (a float and its views, or a (Q, 1) column and
    (Q, V) rows).

    Positive-label queries reward explanations that raise the probability;
    negative-label ones reward lowering it. The full view scores exactly 0.
    """
    f_full, f_views = np.asarray(f_full, dtype=np.float64), np.asarray(f_views, dtype=np.float64)
    return np.where(f_full >= 0.5, f_views - f_full, f_full - f_views)


def trapezoid_auc(levels, values) -> float:
    """Area under values over levels, normalized by the level span."""
    levels = np.asarray(levels, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    area = np.trapezoid(values, levels)
    span = levels[-1] - levels[0]
    return float(area / span)


def acc_auc(per_level_accuracy: dict) -> float:
    """AUC (percent) of label-match accuracy across the sparsity levels."""
    levels = sorted(per_level_accuracy)
    accs = [per_level_accuracy[lv] for lv in levels]
    return 100.0 * trapezoid_auc(levels, accs)


def cohesiveness(g, retained, comp_members) -> float | None:
    """Mean over ordered event pairs of cos(|ti - tj| / span) when they share a node.

    Undefined (None) below two events. The span is the computational
    graph's time extent; a zero span counts every pair at weight one.
    """
    ids = sorted(int(e) for e in retained)
    k = len(ids)
    if k < 2:
        return None
    comp = sorted(int(e) for e in comp_members)
    times = g.t[comp]
    span = float(times.max() - times.min()) if len(comp) else 0.0
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            a, b = ids[i], ids[j]
            share = len({int(g.src[a]), int(g.dst[a])} & {int(g.src[b]), int(g.dst[b])}) > 0
            if not share:
                continue
            dt = abs(float(g.t[a]) - float(g.t[b]))
            ratio = dt / span if span > 0 else 0.0
            total += math.cos(ratio)
    return total / (k * k - k)


def random_baseline(comp_members, sparsity_level: float, seed: int) -> set:
    """Uniform retained set of ceil(s * |G(e)|) events, deterministic per seed."""
    ids = np.sort(np.fromiter(comp_members, np.int64))
    size = retained_size(sparsity_level, len(ids))
    if size >= len(ids):
        return set(ids.tolist())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xBA5E11])))
    return set(ids[rng.choice(len(ids), size=size, replace=False)].tolist())


@dataclass
class MetricReport:
    """Evaluation bundle over one query set, at SPARSITY_LEVELS."""
    acc_per_level: dict = field(default_factory=dict)
    acc_auc: float = 0.0
    baseline_acc_per_level: dict = field(default_factory=dict)
    baseline_acc_auc: float = 0.0
    mean_fidelity_per_level: dict = field(default_factory=dict)
    baseline_fidelity_per_level: dict = field(default_factory=dict)
    mean_cohesiveness: float | None = None
    baseline_cohesiveness: float | None = None
    cohesiveness_level: float = COHESIVENESS_LEVEL
    n_queries: int = 0
    explain_seconds_mean: float = 0.0
    rows: list = field(default_factory=list)  # (query idx, level, fidelity, acc, source)

    def to_dict(self) -> dict:
        fmt = lambda d: {f"{k:.2f}": v for k, v in sorted(d.items())}
        return {
            "n_queries": self.n_queries,
            "levels": [f"{lv:.2f}" for lv in SPARSITY_LEVELS],
            "acc_auc": self.acc_auc,
            "baseline_acc_auc": self.baseline_acc_auc,
            "acc_per_level": fmt(self.acc_per_level),
            "baseline_acc_per_level": fmt(self.baseline_acc_per_level),
            "mean_fidelity_per_level": fmt(self.mean_fidelity_per_level),
            "baseline_fidelity_per_level": fmt(self.baseline_fidelity_per_level),
            "mean_cohesiveness": self.mean_cohesiveness,
            "baseline_cohesiveness": self.baseline_cohesiveness,
            "cohesiveness_level": self.cohesiveness_level,
        }  # wall-clock stats stay out: artifacts must be byte-stable across reruns


def curve_csv(rows) -> str:
    """Flat (query, level, fidelity, acc, source) rows for external plotting."""
    return "query,level,fidelity,acc,source\n" + "".join(
        f"{q},{lv:.2f},{fid!r},{acc},{source}\n" for q, lv, fid, acc, source in rows)
