"""Finite-difference verification of every differentiable component.

Each check perturbs the relevant parameter store at seeded random points
and compares tape gradients against central differences of `nn.grad_check`'s
default step 1e-6 (a step of 1e-5 crosses relu kinks and fails correct
gradients). Shared by the `grad-check` CLI command and the acceptance suite.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .basemodel import build_base_store, encode_slots, soft_predict
from .config import RunConfig
from .errors import ConfigError
from .explainer import build_explainer_store, encode_and_score, prepare_queries, query_objective
from .graph import generate_synthetic, query_event
from .layers import add_gine_params, concrete_sample, gine_layer
from .motifs import null_class_probs
from .nn import ParameterStore, Tape, grad_check


def _perturb(store: ParameterStore, rng: np.random.Generator) -> None:
    for name in store.arrays:
        store.arrays[name] = store.arrays[name] + rng.uniform(-0.2, 0.2, store.arrays[name].shape)


def _check_over_points(build_loss, store: ParameterStore, points: int, seed: int,
                       perturb=_perturb) -> float:
    worst = 0.0
    for k in range(points):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC4EC, k])))
        trial = store.copy()
        perturb(trial, rng)
        worst = max(worst, grad_check(build_loss, trial, rng=rng, max_coords=4))
    return worst


def time_encoder_check(points: int = 1, seed: int = 0) -> float:
    """Four distinct ages, one of them twice and -0.0 beside 0.0, so rows share encodings."""
    store = ParameterStore()
    store.add("time_w", nn.log_spaced_freqs(100.0, 5))
    dts = np.array([0.0, 1.5, 7.0, 42.0, 7.0, -0.0])
    probe = np.random.default_rng([seed, 1]).normal(size=(len(dts), 10))

    def loss(tape: Tape):
        return nn.vsum(nn.mul(nn.time_encode(dts, tape.param("time_w")), nn.const(probe)))
    return _check_over_points(loss, store, points, seed)


def gine_check(points: int = 1, seed: int = 0) -> float:
    """The GINE layer, in its one input row and its parameters (edge, eps, h1a, h1b), on
    two stacked motifs: a triangle, and a two-event path and a padding slot."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
    store = ParameterStore()
    add_gine_params(store, "gine0", 6, 9, rng)
    store.add("x", rng.normal(size=(1, 6)))
    # node x event: a triangle (0, 1), (1, 2), (2, 0); a path (0, 1), (1, 2) and padding
    inc = np.array([[[1, 0, 1], [1, 1, 0], [0, 1, 1]], [[1, 0, 0], [1, 1, 0], [0, 1, 0]]], float)
    edge_feats = rng.normal(size=(6, 9))
    probe = rng.normal(size=(2, 3, 6))

    def loss(tape: Tape):
        out = gine_layer(tape, "gine0", tape.param("x"), inc, nn.const(edge_feats))
        return nn.vsum(nn.mul(out, nn.const(probe)))
    return _check_over_points(loss, store, points, seed)


def concrete_check(points: int = 1, seed: int = 0) -> float:
    store = ParameterStore()
    store.add("p", np.array([0.2, 0.5, 0.7, 0.9]))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 3])))
    draws = rng.uniform(0.05, 0.95, size=4)
    probe = rng.normal(size=4)

    def loss(tape: Tape):
        return nn.vsum(nn.mul(concrete_sample(tape.param("p"), draws), nn.const(probe)))

    def inside(trial: ParameterStore, rng: np.random.Generator) -> None:
        """Perturb the probabilities, keeping them inside (0, 1)."""
        trial.arrays["p"] = np.clip(trial.arrays["p"] + rng.uniform(-0.1, 0.1, 4), 0.02, 0.98)
    return _check_over_points(loss, store, points, seed, perturb=inside)


def _toy_pipeline(seed: int = 0):
    g = generate_synthetic("triadic-closure", 12, 80, seed=seed + 5)
    cfg = RunConfig(h=8, d_time_base=4, k_nb=8, c=4, c_per_node=4, d_time=4, per_hop_cap=8,
                    seed=seed)
    base_store = build_base_store(g, cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 4])))
    _perturb(base_store, rng)  # nonzero head so gradients reach every layer
    expl_store = build_explainer_store(g, base_store.meta, cfg)
    queries = [g.event(g.n_events - 1), g.event(g.n_events - 2)]
    preps = prepare_queries(g, base_store, queries, cfg, [seed, seed + 1])
    assert all(p is not None for p in preps), "toy pipeline produced no motifs"
    # a class in both queries, so the (query, class) segments of the KL are checked
    assert set(preps[0].codes) & set(preps[1].codes), "toy queries share no motif class"
    return g, base_store, expl_store, cfg, preps


def motif_encoder_check(points: int = 1, seed: int = 0) -> float:
    _, _, expl_store, _, (prep, _) = _toy_pipeline(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 6])))
    probe = rng.normal(size=(len(prep.ids), expl_store.meta["h"]))

    def loss(tape: Tape):
        _, emb, _ = encode_and_score(tape, [prep])
        return nn.vsum(nn.mul(emb, nn.const(probe)))
    return _check_over_points(loss, expl_store, points, seed)


def scorer_check(points: int = 1, seed: int = 0) -> float:
    _, _, expl_store, _, (prep, _) = _toy_pipeline(seed)

    def loss(tape: Tape):
        scores, _, _ = encode_and_score(tape, [prep])
        return nn.vsum(scores)
    return _check_over_points(loss, expl_store, points, seed)


def objective_check(points: int = 1, seed: int = 0) -> float:
    g, base_store, expl_store, cfg, preps = _toy_pipeline(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
    draws = rng.uniform(0.1, 0.9, size=sum(len(p.ids) for p in preps))
    null_probs = null_class_probs(g, cfg.n, cfg.l, cfg.c_per_node, seed=seed)

    def loss(tape: Tape):
        scores, _, _ = encode_and_score(tape, preps)
        return query_objective(base_store, preps, scores, draws, cfg, null_probs)
    return _check_over_points(loss, expl_store, points, seed)


def base_forward_check(points: int = 1, seed: int = 0) -> float:
    """The batched soft-masked base forward, in its parameters and the event mask: two
    queries with long histories, one with an empty v side (only events 0 and 1 precede
    it, all kept), one with no history; about a third of the other events dropped, the
    rest randomly weighted. So the point holds padded, masked-out and kept slots and
    kept partners shared across sides: every gather and segment of the masked half."""
    g, store, _, _, _ = _toy_pipeline(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 8])))
    fresh = min(set(range(g.node_count)) - set(g.src[:2].tolist()) - set(g.dst[:2].tolist()))
    queries = [g.event(g.n_events - 1), g.event(g.n_events - 2),
               query_event(int(g.src[0]), fresh, float(g.t[2])), query_event(0, 1, float(g.t[0]))]
    enc = encode_slots(Tape(store), store, g, queries)
    members = [np.unique(row[row >= 0]) for row in enc.ids]
    covered = [m[rng.random(len(m)) > 1 / 3] for m in members]
    covered[2] = members[2]
    kept = np.array([np.isin(ids, cov) for ids, cov in zip(enc.ids, covered)])
    assert (enc.ids < 0).any() and ((enc.ids >= 0) & ~kept).any() and kept[2].any()
    assert any(np.intersect1d(p[0][k[0]], p[1][k[1]]).size for p, k in zip(enc.partners, kept))
    store.add("event_mask", rng.uniform(0.4, 0.9, size=sum(len(c) for c in covered)))
    probe = nn.const(rng.normal(size=len(queries)))

    def loss(tape: Tape):
        return nn.vsum(nn.mul(soft_predict(tape, store, encode_slots(tape, store, g, queries),
                                           covered, tape.param("event_mask")), probe))
    return _check_over_points(loss, store, points, seed)


def substrate_grad_checks(seed: int = 0, points: int = 1) -> dict:
    """Max relative gradient error of every differentiable component over `points` >= 1 points."""
    if points < 1:
        raise ConfigError(f"points={points}: must be at least 1")
    return {
        "time_encoder": time_encoder_check(points, seed),
        "gine_layer": gine_check(points, seed),
        "concrete_sample": concrete_check(points, seed),
        "motif_encoder": motif_encoder_check(points, seed),
        "importance_scorer": scorer_check(points, seed),
        "full_objective": objective_check(points, seed),
        "base_forward": base_forward_check(points, seed),
    }
