import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifx import nn
from motifx.basemodel import _head, build_base_store
from motifx.config import RunConfig
from motifx.errors import CheckpointError, ConfigError, InvariantError, NonFiniteError
from motifx.explainer import (build_explainer_store, encode_and_score,
                              encode_chunks, explain, explain_batch, ib_loss,
                              kl_empirical, kl_uniform, prepare_queries,
                              query_objective, train_explainer)
from motifx.features import event_feature_block
from motifx.graph import TemporalGraph, generate_synthetic, query_event
from motifx.layers import PROB_EPS, gine_layer
from motifx.motifs import sample_id_block
from motifx.nn import Tape

from oracles import (kl_empirical_scalar, kl_uniform_scalar, reference_encoder_inputs,
                     reference_soft_predict)


@pytest.fixture(scope="module")
def setup():
    g = generate_synthetic("triadic-closure", 15, 150, seed=6)
    ecfg = RunConfig(h=8, d_time_base=4, k_nb=8, c=8, n=3, l=3, d_time=4, per_hop_cap=8, seed=0)
    base_store = build_base_store(g, ecfg)
    rng = np.random.default_rng(5)
    for name in base_store.arrays:
        base_store.arrays[name] = base_store.arrays[name] + rng.normal(
            0, 0.2, base_store.arrays[name].shape)
    expl_store = build_explainer_store(g, base_store.meta, ecfg)
    return g, base_store, expl_store, ecfg


def perturbed(store, seed):
    out = store.copy()
    rng = np.random.default_rng(seed)
    for name in out.arrays:
        out.arrays[name] = out.arrays[name] + rng.normal(0, 0.3, out.arrays[name].shape)
    return out


def kl_u(scores, p) -> float:
    """`kl_uniform` of one query."""
    (got,) = kl_uniform(nn.const(scores), np.zeros(len(scores), dtype=np.int64), p).value
    return float(got)


def kl_e(scores, codes, p, m) -> float:
    """`kl_empirical` of one query."""
    (got,) = kl_empirical(nn.const(scores), np.zeros(len(scores), dtype=np.int64), codes, p,
                          m).value
    return float(got)


def ib(preds, labels, kl, beta) -> float:
    return float(ib_loss(nn.const(preds), labels, nn.const(kl), beta).value)


class TestConfig:
    def test_unknown_prior_rejected(self):
        with pytest.raises(ConfigError, match="unifrom"):
            RunConfig(prior="unifrom")

    def test_missing_batch_is_a_config_error(self):
        with pytest.raises(ConfigError, match="batch"):
            RunConfig(batch=None)

    def test_p_as_text_is_a_config_error(self):
        with pytest.raises(ConfigError, match="p="):
            RunConfig(p="0.3")


class TestKLUniform:
    def test_zero_at_prior(self):
        assert kl_u(np.full(7, 0.3), 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_single_motif_value(self):
        assert kl_u(np.array([0.9]), 0.5) == pytest.approx(0.3680642071684971, abs=1e-10)

    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=20),
           st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_non_negative_and_matches_oracle(self, scores, p):
        got = kl_u(np.array(scores), p)
        assert got >= -1e-12
        assert got == pytest.approx(kl_uniform_scalar(scores, p), abs=1e-10)


class TestKLEmpirical:
    def test_zero_at_matched_point(self):
        # two classes with shares matching the null probabilities, mean score = p
        scores = np.array([0.3, 0.3, 0.3, 0.3])
        codes = ["0101", "0101", "0101", "0112"]
        m = {"0101": 0.75, "0112": 0.25}
        assert kl_e(scores, codes, 0.3, m) == pytest.approx(0.0, abs=1e-12)

    def test_single_class_at_prior(self):
        scores = np.array([0.4, 0.4])
        assert kl_e(scores, ["0101", "0101"], 0.4, {"0101": 1.0}) == \
            pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        # mean score 0.6, two equally weighted classes, null probs (0.8, 0.2)
        scores = np.array([0.6, 0.6])
        codes = ["0101", "0112"]
        m = {"0101": 0.8, "0112": 0.2}
        assert kl_e(scores, codes, 0.3, m) == pytest.approx(0.32592812395032394, abs=1e-10)

    def test_missing_class_raises(self):
        with pytest.raises(InvariantError, match="missing"):
            kl_e(np.array([0.5]), ["0112"], 0.3, {"0101": 1.0})

    @given(st.lists(st.tuples(st.floats(0.01, 0.99), st.sampled_from(["a", "b", "c"])),
                    min_size=1, max_size=20),
           st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_oracle(self, rows, p):
        scores = [r[0] for r in rows]
        codes = [r[1] for r in rows]
        m = {"a": 0.5, "b": 0.3, "c": 0.2}
        got = kl_e(np.array(scores), codes, p, m)
        assert got == pytest.approx(kl_empirical_scalar(scores, codes, p, m), abs=1e-10)


class TestBatchedKL:
    """One KL call over a minibatch equals the scalar oracles query by query."""

    @given(st.lists(st.lists(st.tuples(st.floats(0.01, 0.99),
                                       st.sampled_from(["0101", "0112", "011202"])),
                             min_size=1, max_size=12), min_size=1, max_size=8),
           st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_per_query_matches_scalar_oracles(self, per_query, p):
        scores = nn.const(np.array([s for rows in per_query for s, _ in rows]))
        query = np.repeat(np.arange(len(per_query)), [len(rows) for rows in per_query])
        codes = [c for rows in per_query for _, c in rows]
        m = {"0101": 0.5, "0112": 0.3, "011202": 0.2}
        uniform = kl_uniform(scores, query, p).value
        empirical = kl_empirical(scores, query, codes, p, m).value
        assert uniform.shape == empirical.shape == (len(per_query),)
        for b, rows in enumerate(per_query):
            sc, cs = [s for s, _ in rows], [c for _, c in rows]
            assert abs(uniform[b] - kl_uniform_scalar(sc, p)) < 1e-10
            assert abs(empirical[b] - kl_empirical_scalar(sc, cs, p, m)) < 1e-10

    def test_code_count_mismatch_raises(self):
        with pytest.raises(InvariantError, match="codes"):
            kl_empirical(nn.const(np.array([0.5, 0.5])), np.zeros(2, dtype=np.int64),
                         ["0101"], 0.3, {"0101": 1.0})


class TestIbLoss:
    def test_perfect_positive_prediction_beta_zero(self):
        assert ib([1.0], [1], [0.0], 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_beta_zero_is_pure_cross_entropy(self):
        preds, labels = [0.8, 0.8, 0.25], [1, 0, 0]
        want = [-math.log(p) if y else -math.log(1 - p) for p, y in zip(preds, labels)]
        for p, y, w in zip(preds, labels, want):
            assert ib([p], [y], [123.0], 0.0) == pytest.approx(w, abs=1e-9)
        assert ib(preds, labels, [123.0] * 3, 0.0) == pytest.approx(np.mean(want), abs=1e-9)

    def test_kl_scales_with_beta(self):
        base = ib([0.7], [1], [0.0], 0.5)
        assert ib([0.7], [1], [2.0], 0.5) == pytest.approx(base + 1.0, abs=1e-9)
        assert ib([0.7, 0.7], [1, 1], [0.0, 2.0], 0.5) == pytest.approx(base + 0.5, abs=1e-9)

    def test_non_finite_objective_raises(self):
        """An infinite KL term gives an infinite objective, and `nn.fit` refuses it before
        any step."""
        store = nn.ParameterStore()
        store.add("x", np.zeros(2))

        def batches(epoch):
            yield lambda tape: ib_loss(nn.add(tape.param("x"), nn.const([0.7, 0.4])), [1, 0],
                                       nn.const([0.0, np.inf]), 0.5)
        with pytest.raises(NonFiniteError, match="epoch 0: loss became inf"):
            nn.fit(store, 2, batches, 1e-3)
        assert np.array_equal(store.arrays["x"], np.zeros(2))


def _same(a, b) -> bool:
    """Field-by-field equality through dataclasses, with exact array equality."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f))
                                          for f in a.__dataclass_fields__)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestEncoderInputs:
    """QueryPrep's arrays, built with array ops, against the per-instance loop."""

    FIELDS = ("covered_ids", "pair_cov", "pair_motif", "node_labels", "attrs_block", "h_block",
              "dts")

    @pytest.mark.parametrize("seed", range(6))
    def test_prep_arrays_equal_oracle(self, seed):
        rng = np.random.default_rng(seed + 40)
        n_ev, n_nodes = 120, 6  # few nodes: pairs repeat within and across instances
        src = rng.integers(n_nodes, size=n_ev)
        dst = (src + rng.integers(1, n_nodes, size=n_ev)) % n_nodes
        t = rng.integers(1, 50, size=n_ev).astype(float)  # tied timestamps
        g = TemporalGraph(src, dst, t, rng.normal(size=(n_ev, 3)), n_nodes)
        n, l = [(3, 3), (4, 4), (2, 3)][seed % 3]
        cfg = RunConfig(h=8, d_time_base=4, k_nb=8, c=12, n=n, l=l, d_time=4, per_hop_cap=8,
                        delta=None if seed % 2 else 8.0, seed=0)
        base_store = build_base_store(g, cfg)
        queries = [g.event(i) for i in rng.integers(n_ev // 2, n_ev, size=5)]
        queries += [query_event(int(q.u), (int(q.u) + 1) % n_nodes, q.t, 3) for q in queries[:2]]
        queries.append(query_event(0, 1, 0.5, 3))  # no history: no prep
        seeds = [int(x) for x in rng.integers(0, 2**31, size=len(queries))]
        preps = prepare_queries(g, base_store, queries, cfg, seeds)
        assert preps[-1] is None
        truncated = repeated = 0
        for q, sd, prep in zip(queries, seeds, preps):
            if prep is None:
                continue
            # the prep's motifs: both endpoints' walkers, single events dropped
            ids, _ = sample_id_block(g, [q.u, q.v], [q.t] * 2, [sd] * 2, n, l, cfg.c, cfg.delta)
            ids = ids[(ids >= 0).sum(axis=1) >= 2]
            assert np.array_equal(prep.ids, ids)
            want = reference_encoder_inputs(g, q.t, ids, prep.comp_ids, l)
            for name in self.FIELDS:
                got = getattr(prep, name)
                assert np.array_equal(got, want[name]), name
                assert np.asarray(got).dtype == np.asarray(want[name]).dtype, name
            truncated += int(np.sum(ids[:, -1] < 0))
            repeated += int(prep.h_block.max() > 1)
            alone = prepare_queries(g, base_store, [q], cfg, [sd])[0]
            assert _same(alone, prep)
        assert truncated and repeated


class TestScorer:
    def test_zero_init_scores_half(self, setup):
        g, base_store, expl_store, ecfg = setup
        prep = prepare_queries(g, base_store, [g.event(g.n_events - 1)], ecfg, [1])[0]
        assert prep is not None
        scores, _, _ = encode_and_score(Tape(expl_store), [prep])
        assert np.allclose(scores.value, 0.5)

    def test_scores_independent_of_batch_composition(self, setup):
        g, base_store, expl_store, ecfg = setup
        store = perturbed(expl_store, 8)
        ks = range(1, 41)
        preps = prepare_queries(g, base_store, [g.event(g.n_events - k) for k in ks], ecfg,
                                list(ks))
        preps = [p for p in preps if p is not None]
        scores, embs, counts = encode_and_score(Tape(store), preps)
        cuts = np.cumsum(counts)[:-1]
        for prep, sc, emb in zip(preps, np.split(scores.value, cuts), np.split(embs.value, cuts)):
            solo, solo_emb, _ = encode_and_score(Tape(store), [prep])
            assert np.array_equal(solo.value, sc)
            assert np.array_equal(solo_emb.value, emb)

    def test_scores_clamped_interior(self, setup):
        g, base_store, expl_store, ecfg = setup
        store = expl_store.copy()
        store.arrays["score2.w"] = np.full_like(store.arrays["score2.w"], 100.0)
        prep = prepare_queries(g, base_store, [g.event(g.n_events - 1)], ecfg, [1])[0]
        scores, _, _ = encode_and_score(Tape(store), [prep])
        assert np.all(scores.value <= 1.0 - PROB_EPS)
        assert np.all(scores.value >= PROB_EPS)

    def test_importance_scores_shape(self, setup):
        g, base_store, expl_store, ecfg = setup
        preps = [prepare_queries(g, base_store, [g.event(g.n_events - k)], ecfg, [k])[0]
                 for k in (1, 2)]
        scores, _, counts = encode_and_score(Tape(expl_store), preps)
        assert counts == [len(p.ids) for p in preps]
        assert scores.value.shape == (sum(counts),)


class TestEncoder:
    def test_duplicate_instances_identical_embeddings(self, setup):
        g, base_store, expl_store, ecfg = setup
        prep = prepare_queries(g, base_store, [g.event(g.n_events - 1)], ecfg, [1])[0]
        rows = [tuple(row) for row in prep.ids.tolist()]
        dup_ix = [i for i, a in enumerate(rows) for j, b in enumerate(rows) if i < j and a == b]
        _, emb, _ = encode_and_score(Tape(expl_store), [prep])
        for i in dup_ix:
            j = next(j for j in range(len(rows)) if j != i and rows[j] == rows[i])
            assert np.allclose(emb.value[i], emb.value[j], atol=1e-12)

    def test_embedding_width(self, setup):
        g, base_store, expl_store, ecfg = setup
        prep = prepare_queries(g, base_store, [g.event(g.n_events - 1)], ecfg, [1])[0]
        _, emb, _ = encode_and_score(Tape(expl_store), [prep])
        assert emb.value.shape == (len(prep.ids), ecfg.h)

    def test_batch_equals_instance_by_instance_encoder(self, setup):
        """`encode_and_score` over several queries, bit for bit, against `gine_layer` and
        `segment_mean` over node, edge and event lists built one motif at a time: nodes
        numbered by first appearance within each motif and placed after the motifs
        before it, each event's u -> v then v -> u edges, and edges visited by target,
        then source, then listing order."""
        g, base_store, expl_store, ecfg = setup
        assert ecfg.gine_depth == 1
        store = perturbed(expl_store, 12)
        preps = prepare_queries(g, base_store,
                                [g.event(g.n_events - k) for k in range(1, 7)], ecfg, [5] * 6)
        preps = [p for p in preps if p is not None]
        assert len(preps) > 2
        src, dst, eev, seg = [], [], [], []
        for m, row in enumerate(r for p in preps for r in p.ids.tolist()):
            local, off = {}, len(seg)
            for e in row:
                if e < 0:
                    continue
                a, b = (off + local.setdefault(int(x), len(local)) for x in (g.src[e], g.dst[e]))
                src += [a, b]
                dst += [b, a]
                eev += [len(eev) // 2] * 2
            seg += [m] * len(local)
        order = sorted(range(len(src)), key=lambda k: (dst[k], src[k]))
        src, dst, eev = (np.array(xs, dtype=np.int64)[order] for xs in (src, dst, eev))
        cat = lambda name: np.concatenate([getattr(p, name) for p in preps])

        tape = Tape(store)
        feat = event_feature_block(cat("attrs_block"), cat("dts"), cat("h_block"),
                                   tape.param("time_w"))
        x = tape.affine(nn.const(np.ones((len(seg), 1))), "nodein")
        x = gine_layer(tape, "gine0", x, src, dst, nn.gather_rows(feat, eev))
        emb = nn.segment_mean(x, np.array(seg), len(cat("ids")))
        ctx = np.repeat(np.stack([p.ctx for p in preps]), [len(p.ids) for p in preps], axis=0)
        scores = nn.clip(_head(tape, nn.concat([emb, nn.const(ctx)], axis=1), "score"),
                         PROB_EPS, 1.0 - PROB_EPS)

        got_scores, got_emb, _ = encode_and_score(Tape(store), preps)
        assert np.array_equal(got_emb.value, emb.value)
        assert np.array_equal(got_scores.value, scores.value)

    def test_motif_embeddings_helper(self, setup):
        g, base_store, expl_store, ecfg = setup
        preps = prepare_queries(g, base_store, [g.event(g.n_events - k) for k in (1, 2, 3)],
                                ecfg, [3] * 3)
        scored = encode_chunks(expl_store, preps, batch=2)
        for prep, (scores, embs) in zip(preps, scored):
            assert embs.ndim == 2 and embs.shape[1] == ecfg.h
            assert scores.shape == (len(prep.ids),) == embs.shape[:1]


class TestFirstBatchLoss:
    def test_matches_independent_assembly(self, setup):
        """Fresh scorer gives p=0.5 everywhere; the objective must equal
        CE(soft prediction from alpha(0.5, u)) + beta * KL(0.5-vector)."""
        g, base_store, expl_store, ecfg = setup
        prep = prepare_queries(g, base_store, [g.event(g.n_events - 1)], ecfg, [1])[0]
        rng = np.random.default_rng(17)
        draws = rng.uniform(0.1, 0.9, size=len(prep.ids))
        tape = Tape(expl_store)
        scores, _, _ = encode_and_score(tape, [prep])
        null_probs = {c: 1.0 / 12 for c in set(prep.codes)}
        # normalize over the observed codes so the reference stays simple
        z = sum(null_probs.values())
        null_probs = {k: v / z for k, v in null_probs.items()}
        got = query_objective(base_store, g, [prep], scores, draws, ecfg, null_probs)

        # independent mask assembly: scalar Concrete at p=0.5, max per event
        alpha = 1 / (1 + np.exp(-(np.log(draws) - np.log1p(-draws)) / ecfg.lam))
        ev_mask = np.zeros(len(prep.covered_ids))
        for pos, m_idx in zip(prep.pair_cov, prep.pair_motif):
            ev_mask[pos] = max(ev_mask[pos], alpha[m_idx])
        pred = reference_soft_predict(Tape(base_store), base_store, g, prep.query,
                                      prep.covered_ids, nn.const(ev_mask))
        ce = -math.log(pred.value) if prep.label == 1 else -math.log(1 - pred.value)
        kl = kl_empirical_scalar([0.5] * len(prep.ids), prep.codes, ecfg.p, null_probs)
        assert float(got.value) == pytest.approx(ce + ecfg.beta * kl, abs=1e-9)


class TestTraining:
    def test_loss_decreases_and_deterministic(self):
        g = generate_synthetic("triadic-closure", 15, 200, seed=2)
        bcfg = RunConfig(h=8, d_time_base=4, k_nb=8, base_epochs=2, seed=0)
        from motifx.basemodel import train_base
        base, _ = train_base(g, bcfg)
        ecfg = RunConfig(c=6, c_per_node=6, n=3, l=3, d_time=4, h=8, expl_epochs=4, lr=3e-3,
                         seed=0, per_hop_cap=8)
        s1, r1 = train_explainer(g, base, ecfg)
        s2, r2 = train_explainer(g, base, ecfg)
        assert r1 == r2
        for name in s1.arrays:
            assert np.array_equal(s1.arrays[name], s2.arrays[name]), name
        assert np.mean(r1["epoch_losses"][-2:]) < np.mean(r1["epoch_losses"][:2])

    def test_default_null_model_samples_c_per_node(self):
        """Without null probabilities, the library samples the null model as the CLI does:
        cfg.c_per_node walkers per node, not cfg.c."""
        from motifx.basemodel import train_base
        from motifx.motifs import null_class_probs
        g = generate_synthetic("triadic-closure", 14, 120, seed=5)
        cfg = RunConfig(h=8, d_time_base=4, d_time=4, k_nb=6, c=12, c_per_node=5,
                        base_epochs=1, expl_epochs=2, per_hop_cap=6, seed=5)
        base, _ = train_base(g, cfg)
        null = null_class_probs(g, cfg.n, cfg.l, cfg.c_per_node, cfg.delta, cfg.seed)
        assert null != null_class_probs(g, cfg.n, cfg.l, cfg.c, cfg.delta, cfg.seed)
        got, _ = train_explainer(g, base, cfg)
        want, _ = train_explainer(g, base, cfg, null)
        for name in want.arrays:
            assert np.array_equal(got.arrays[name], want.arrays[name]), name

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("trainer", ["base", "enhanced_head", "explainer"])
    def test_non_finite_raises_in_every_trainer(self, monkeypatch, trainer):
        """One NaN in an initial parameter (base, head) or in a prep's `dts` (explainer)
        raises NonFiniteError naming the epoch, with no RuntimeWarning on the way."""
        from motifx import basemodel, explainer
        g = generate_synthetic("triadic-closure", 15, 200, seed=2)
        bcfg = RunConfig(h=8, d_time_base=4, k_nb=8, base_epochs=2, seed=0)
        base = build_base_store(g, bcfg)

        def poisoned(build, name):
            def wrapper(*a):
                store = build(*a)
                store.arrays[name][0] = np.nan
                return store
            return wrapper
        with pytest.raises(NonFiniteError, match="epoch 0"):
            if trainer == "base":
                monkeypatch.setattr(basemodel, "build_base_store",
                                    poisoned(build_base_store, "head1.b"))
                basemodel.train_base(g, bcfg)
            elif trainer == "enhanced_head":
                monkeypatch.setattr(basemodel, "build_enhanced_store",
                                    poisoned(basemodel.build_enhanced_store, "ehead1.b"))
                queries = [g.event(e) for e in range(100, 164)]
                reps = basemodel.predict_batch(base, g, queries)[1]
                embs = np.random.default_rng(0).normal(size=(len(queries), 4))
                labels = np.arange(len(queries)) % 2
                basemodel.train_enhanced_head(base, reps, embs, labels,
                                              np.arange(len(queries)) % 4 == 0, epochs=2)
            else:
                real = explainer._training_preps

                def poisoned_preps(*a):
                    preps, skipped = real(*a)
                    preps[0].dts[0] = np.nan
                    return preps, skipped
                monkeypatch.setattr(explainer, "_training_preps", poisoned_preps)
                train_explainer(g, base, RunConfig(c=6, c_per_node=6, n=3, l=3, d_time=4, h=8,
                                                   expl_epochs=2, seed=0, per_hop_cap=8))


class TestExplain:
    def test_equal_scores_rank_by_recency_then_id(self, setup):
        g, base_store, expl_store, ecfg = setup
        res = explain(g, base_store, expl_store, g.event(g.n_events - 1),
                      cfg=ecfg, seed=2)
        assert not res.empty
        covered = {e for e, s in res.event_ranking if s > 0}
        ranked_covered = [e for e, s in res.event_ranking if s > 0]
        # fresh scorer: every covered event scores exactly 0.5 -> pure recency order
        want = sorted(ranked_covered, key=lambda e: (-g.t[e], -e))
        assert ranked_covered == want

    def test_event_score_is_max_over_containing_motifs(self, setup):
        g, base_store, expl_store, ecfg = setup
        store = perturbed(expl_store, 9)
        for k in (1, 2, 3):
            res = explain(g, base_store, store, g.event(g.n_events - k), cfg=ecfg, seed=k)
            want = {e: max([m["score"] for m in res.motifs if e in m["events"]], default=0.0)
                    for e in res.comp_ids}
            assert dict(res.event_ranking) == want
            assert len(set(want.values())) > 2  # distinct scores, not only ties

    def test_uncovered_events_rank_last_with_zero(self, setup):
        g, base_store, expl_store, ecfg = setup
        res = explain(g, base_store, expl_store, g.event(g.n_events - 1),
                      cfg=ecfg, seed=2)
        scores = [s for _, s in res.event_ranking]
        zeros = [s for s in scores if s == 0.0]
        if zeros:
            assert scores[-len(zeros):] == zeros

    def test_retained_sizes(self, setup):
        g, base_store, expl_store, ecfg = setup
        res = explain(g, base_store, expl_store, g.event(g.n_events - 1),
                      cfg=ecfg, seed=2)
        n = len(res.comp_ids)
        for lv, ids in res.retained.items():
            assert len(ids) == math.ceil(lv * n)

    def test_deterministic_json(self, setup):
        g, base_store, expl_store, ecfg = setup
        a = explain(g, base_store, expl_store, g.event(g.n_events - 1), cfg=ecfg, seed=2)
        b = explain(g, base_store, expl_store, g.event(g.n_events - 1), cfg=ecfg, seed=2)
        assert a.to_json() == b.to_json()

    def test_checkpoint_without_an_array_names_it(self, setup, tmp_path):
        g, base_store, expl_store, ecfg = setup
        store = expl_store.copy()
        del store.arrays["score1.w"]
        store.save(tmp_path / "explainer.ckpt")
        loaded = nn.ParameterStore.load(tmp_path / "explainer.ckpt")
        with pytest.raises(CheckpointError, match="'score1.w'"):
            explain(g, base_store, loaded, g.event(g.n_events - 1), cfg=ecfg, seed=2)

    def test_empty_history_flagged(self, setup):
        g, base_store, expl_store, ecfg = setup
        from motifx.graph import query_event
        res = explain(g, base_store, expl_store,
                      query_event(0, 1, float(g.t[0])), cfg=ecfg, seed=2)
        assert res.empty
        assert res.event_ranking == []

    def test_export_schema(self, setup):
        g, base_store, expl_store, ecfg = setup
        res = explain(g, base_store, expl_store, g.event(g.n_events - 1), cfg=ecfg, seed=2)
        payload = json.loads(res.to_json())
        assert set(payload) == {"query", "empty", "computational_graph", "motifs",
                                "event_ranking", "retained"}
        assert all(set(m) == {"code", "events", "score", "truncated"}
                   for m in payload["motifs"])
        assert "0.30" in payload["retained"]


class TestRowInvariance:
    """Each query's explanation is byte-identical alone and inside batches of any size."""

    @pytest.fixture(scope="class")
    def batch(self, setup):
        g, base_store, expl_store, ecfg = setup
        store = perturbed(expl_store, 10)
        # two motifs per endpoint at most, so some early query keeps a single motif (a
        # lone scorer row); four queries per encoder chunk, so chunk boundaries move
        cfg = dataclasses.replace(ecfg, c=2, batch=4)
        queries = [g.event(e) for e in range(1, 13)]
        queries += [g.event(g.n_events - k) for k in range(1, 21)]
        queries.append(query_event(0, 1, float(g.t[0])))  # no history: an empty result
        seeds = [k % 2 for k in range(len(queries))]
        alone = [explain(g, base_store, store, q, cfg=cfg, seed=sd).to_json()
                 for q, sd in zip(queries, seeds)]
        return g, base_store, store, cfg, queries, seeds, alone

    def test_alone_equals_inside_batches(self, batch):
        g, base_store, store, cfg, queries, seeds, alone = batch
        n = len(queries)
        sizes = [len(json.loads(a)["motifs"]) for a in alone]
        assert 0 in sizes and 1 in sizes and max(sizes) > 1
        whole = explain_batch(g, base_store, store, queries, seeds, cfg=cfg)
        assert [r.to_json() for r in whole] == alone
        for size in (2, 3):
            for i in range(n):
                pick = [(i + j * 7) % n for j in range(size)]
                got = explain_batch(g, base_store, store, [queries[k] for k in pick],
                                    [seeds[k] for k in pick], cfg=cfg)
                assert [r.to_json() for r in got] == [alone[k] for k in pick], (size, i)

    def test_empty_query_set(self, batch):
        g, base_store, store, cfg, _, _, _ = batch
        assert explain_batch(g, base_store, store, [], [], cfg=cfg) == []
