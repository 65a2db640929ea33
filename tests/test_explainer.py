import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifx import nn
from motifx.basemodel import build_base_store
from motifx.config import RunConfig
from motifx.errors import CheckpointError, ConfigError, InvariantError, NonFiniteError
from motifx.explainer import (build_explainer_store, encode_and_score,
                              encode_chunks, explain, explain_batch, ib_loss,
                              kl_empirical, kl_uniform, prepare_queries,
                              query_objective, train_explainer)
from motifx.graph import TemporalGraph, generate_synthetic, query_event
from motifx.layers import PROB_EPS, TEMPERATURE
from motifx.motifs import sample_id_block
from motifx.nn import Tape

from oracles import (kl_empirical_scalar, kl_uniform_scalar, reference_encoder_inputs,
                     reference_evaluation, reference_motif_encoder, reference_soft_predict)


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

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="rule='nope': must be one of triadic-closure/"):
            RunConfig(rule="nope")

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
    """Field-by-field equality through dataclasses and tuples, with exact array equality."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f))
                                          for f in a.__dataclass_fields__)
    if isinstance(a, tuple):  # a SlotEncoding
        return type(a) is type(b) and all(_same(x, y) for x, y in zip(a, b, strict=True))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


class TestEncoderInputs:
    """QueryPrep's arrays, built with array ops, against the per-instance loop."""

    FIELDS = ("covered_ids", "pair_cov", "pair_motif", "inverse", "src_onehot", "attrs_block",
              "h_block", "dts")

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
        queries += [query_event(int(q.u), (int(q.u) + 1) % n_nodes, q.t) for q in queries[:2]]
        queries.append(query_event(0, 1, 0.5))  # no history: no prep
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
            want = reference_encoder_inputs(g, q.t, ids, prep.comp_ids, l, n)
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

    @pytest.mark.row_invariance
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

    @pytest.mark.row_invariance
    def test_batch_equals_instance_by_instance_encoder(self, setup):
        """`encode_and_score` over several queries, bit for bit, against each motif row
        encoded alone from the oracle's padded inputs (`reference_motif_encoder`)."""
        g, base_store, expl_store, ecfg = setup
        store = perturbed(expl_store, 12)
        preps = prepare_queries(g, base_store,
                                [g.event(g.n_events - k) for k in range(1, 7)], ecfg, [5] * 6)
        preps = [p for p in preps if p is not None]
        assert len(preps) > 2
        want = [row for p in preps for row in reference_motif_encoder(
            Tape(store), reference_encoder_inputs(g, p.query.t, p.ids, p.comp_ids, ecfg.l,
                                                  ecfg.n), p.ctx)]
        got_scores, got_emb, _ = encode_and_score(Tape(store), preps)
        assert np.array_equal(got_scores.value, np.array([sc for sc, _ in want]))
        assert np.array_equal(got_emb.value, np.stack([emb for _, emb in want]))

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
        got = query_objective(base_store, [prep], scores, draws, ecfg, null_probs)

        # independent mask assembly: scalar Concrete at p=0.5, max per event
        alpha = 1 / (1 + np.exp(-(np.log(draws) - np.log1p(-draws)) / TEMPERATURE))
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
                                    poisoned(basemodel.build_enhanced_store, "head1.b"))
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


@pytest.mark.row_invariance
class TestEvaluationOracle:
    def test_report_equals_one_query_at_a_time_oracle(self):
        """`evaluate_explanations`' rows equal the oracle's exactly and its means within
        1e-12, on a small trained pipeline."""
        from motifx.basemodel import train_base
        from motifx.evaluate import build_eval_query_set, evaluate_explanations
        g = generate_synthetic("triadic-closure", 15, 200, seed=4)
        cfg = RunConfig(h=8, d_time_base=4, k_nb=8, c=6, d_time=4, per_hop_cap=8,
                        base_epochs=2, expl_epochs=2, max_train_queries=30, seed=1)
        base, _ = train_base(g, cfg)
        expl, _ = train_explainer(g, base, cfg)
        report = evaluate_explanations(g, base, expl, n_queries=14, cfg=cfg, seed=3)
        queries = [q for q, _ in build_eval_query_set(g, 14, 3)]
        want = reference_evaluation(g, base, expl, queries, cfg, 3)
        assert report.rows == want.pop("rows")
        assert 0 < report.n_queries == want.pop("n_queries")
        assert {row[3] for row in report.rows} == {0, 1}
        assert report.mean_cohesiveness is not None
        for name, value in want.items():
            got = getattr(report, name)
            if isinstance(value, dict):
                assert list(got) == list(value)
                assert list(got.values()) == pytest.approx(list(value.values()), abs=1e-12)
            else:
                assert got == pytest.approx(value, abs=1e-12)


class TestMotifEnhanced:
    def test_base_model_runs_once_per_query(self, monkeypatch):
        """`train_motif_enhanced` encodes each query's slots at most once (a prepped query
        through its prep, the rest in one `predict_batch`), returns a head-only store, and
        its plain AP is the one a separate `predict_batch` over the test queries gives."""
        from motifx import basemodel
        from motifx.basemodel import eval_queries, predict_batch, split_event_ids
        from motifx.evaluate import HEAD_TRAIN_EVENTS, train_motif_enhanced
        from motifx.metrics import average_precision
        g = generate_synthetic("triadic-closure", 14, 200, seed=3)
        cfg = RunConfig(h=8, d_time_base=4, k_nb=6, c=6, d_time=4, per_hop_cap=6, seed=0)
        base = perturbed(build_base_store(g, cfg), 1)
        expl = build_explainer_store(g, base.meta, cfg)
        train_ids, val_ids, test_ids = split_event_ids(g)
        n_rows = 2 * len(train_ids[-HEAD_TRAIN_EVENTS:]) + 4 * len(val_ids) + 2 * len(test_ids)
        encoded, real = [], basemodel.encode_slots

        def counting(tape, store, g, queries):
            encoded.append(len(queries))
            return real(tape, store, g, queries)
        monkeypatch.setattr(basemodel, "encode_slots", counting)
        enhanced, report = train_motif_enhanced(g, base, expl, cfg, seed=0)
        assert 0 < sum(encoded) <= n_rows
        assert sorted(enhanced.arrays) == ["head1.b", "head1.w", "head2.b", "head2.w"]
        assert enhanced.meta["kind"] == "enhanced"
        monkeypatch.undo()
        test_set = eval_queries(g, test_ids, 2)
        plain = predict_batch(base, g, [q for q, _ in test_set])[0]
        assert report["plain_test_ap"] == average_precision([y for _, y in test_set], plain)


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


@pytest.mark.row_invariance
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


def one_row(prep, m):
    """The prep cut down to its motif row m alone."""
    u = prep.inverse[m]
    return dataclasses.replace(prep, ids=prep.ids[m:m + 1], codes=prep.codes[m:m + 1],
                               inverse=np.zeros(1, dtype=np.int64),
                               src_onehot=prep.src_onehot[u:u + 1],
                               attrs_block=prep.attrs_block[u:u + 1],
                               h_block=prep.h_block[u:u + 1], dts=prep.dts[u:u + 1])


@pytest.mark.row_invariance
class TestEncoderRowInvariance:
    """Each motif's score and embedding are bit-identical alone, in any batch of preps and
    across its copies, and the objective sees every copy."""

    @pytest.fixture(scope="class")
    def scored(self, setup):
        g, base_store, expl_store, ecfg = setup
        store = perturbed(expl_store, 14)
        preps = prepare_queries(g, base_store, [g.event(g.n_events - k) for k in range(1, 25)],
                                ecfg, list(range(24)))
        preps = [p for p in preps if p is not None]
        scores, embs, counts = encode_and_score(Tape(store), preps)
        cuts = np.cumsum(counts)[:-1]
        return g, base_store, store, ecfg, preps, list(zip(
            np.split(scores.value, cuts), np.split(embs.value, cuts)))

    def test_motif_alone_equals_inside_batches(self, scored):
        _, _, store, _, preps, whole = scored
        n = len(preps)
        for size in (2, 3):
            for i in range(n):
                pick = [(i + j * 5) % n for j in range(size)]
                got = encode_chunks(store, [preps[k] for k in pick], size)
                for k, (sc, emb) in zip(pick, got):
                    assert np.array_equal(sc, whole[k][0]) and np.array_equal(emb, whole[k][1])
        for prep, (sc, emb) in zip(preps[:6], whole):
            for m in range(len(prep.ids)):
                alone, alone_emb, _ = encode_and_score(Tape(store), [one_row(prep, m)])
                assert np.array_equal(alone.value, sc[m:m + 1])
                assert np.array_equal(alone_emb.value, emb[m:m + 1])

    def test_copies_share_the_row_score_and_all_count(self, scored):
        g, _, _, ecfg, preps, whole = scored
        repeated = 0
        for prep, (sc, emb) in zip(preps, whole):
            rows = [tuple(r) for r in prep.ids.tolist()]
            assert len(prep.src_onehot) == len(set(rows))
            for m, row in enumerate(rows):
                copies = [k for k, other in enumerate(rows) if other == row]
                assert all(sc[k] == sc[m] and np.array_equal(emb[k], emb[m]) for k in copies)
                # each copy adds its own event at each filled position of the row
                h = prep.h_block[prep.inverse[m]]
                filled = sum(e >= 0 for e in row)
                assert all(h[j, j] >= len(copies) for j in range(filled))
                repeated += len(copies) > 1
            want = reference_encoder_inputs(g, prep.query.t, prep.ids, prep.comp_ids, ecfg.l,
                                            ecfg.n)
            assert np.array_equal(prep.h_block, want["h_block"])
        assert repeated

    def test_objective_equals_explicitly_repeated_scores(self, scored):
        g, base_store, store, ecfg, preps, _ = scored
        draws = np.random.default_rng(3).uniform(0.1, 0.9, size=sum(len(p.ids) for p in preps))
        null_probs = {c: 1.0 for p in preps for c in p.codes}
        null_probs = {c: 1.0 / len(null_probs) for c in null_probs}
        scores, _, _ = encode_and_score(Tape(store), preps)
        got = query_objective(base_store, preps, scores, draws, ecfg, null_probs)
        repeated = []
        for prep in preps:  # each distinct row scored alone, then copied to every row
            rows = [tuple(r) for r in prep.ids.tolist()]
            firsts = {row: m for m, row in reversed(list(enumerate(rows)))}
            alone = {row: encode_and_score(Tape(store), [one_row(prep, m)])[0].value[0]
                     for row, m in firsts.items()}
            repeated += [alone[row] for row in rows]
        want = query_objective(base_store, preps, nn.const(np.array(repeated)), draws, ecfg,
                               null_probs)
        assert float(got.value) == float(want.value)

