import numpy as np
import pytest

from motifx import basemodel, nn
from motifx.basemodel import (InternalPredictor, batch_loss, build_base_store,
                              build_enhanced_store, enhanced_probs,
                              encode_slots, eval_queries, predict_slots,
                              predict_batch, soft_predict,
                              split_event_ids, split_times, train_base, train_enhanced_head)
from motifx.config import RunConfig
from motifx.errors import CheckpointError, ConfigError
from motifx.metrics import average_precision
from motifx.graph import TemporalGraph, generate_synthetic, query_event
from motifx.nn import Tape, grad_check

from oracles import (empty_context_output, reference_batch_loss, reference_dense_predict,
                     reference_enhanced_head, reference_predict, reference_soft_predict)


def members(store, g, q):
    """The sorted ids of the events in a query's full view."""
    ids = encode_slots(Tape(store), store, g, [q]).ids
    return np.unique(ids[ids >= 0])


def perturbed(store, seed, scale=0.3):
    """A copy with every parameter moved, so no layer sits at its zero init."""
    out = store.copy()
    rng = np.random.default_rng(seed)
    for name in out.arrays:
        out.arrays[name] = out.arrays[name] + rng.normal(0, scale, out.arrays[name].shape)
    return out


@pytest.fixture(scope="module")
def small_graph():
    return generate_synthetic("triadic-closure", 15, 120, seed=4)


@pytest.fixture(scope="module")
def fresh_store(small_graph):
    return build_base_store(small_graph, RunConfig(h=8, d_time_base=4, k_nb=6, seed=0))


class TestPredict:
    def test_zero_init_head_says_half(self, small_graph, fresh_store):
        model = InternalPredictor(fresh_store)
        for eid in (10, 50, 100):
            assert model.predict(small_graph, small_graph.event(eid)) == 0.5

    def test_full_equals_all_members_bit_exact(self, small_graph, fresh_store):
        store = fresh_store.copy()
        rng = np.random.default_rng(1)
        for name in store.arrays:
            store.arrays[name] = store.arrays[name] + rng.normal(0, 0.2, store.arrays[name].shape)
        model = InternalPredictor(store)
        q = small_graph.event(100)
        full = set(int(e) for e in members(store, small_graph, q))
        assert model.predict(small_graph, q) == model.predict(small_graph, q, full)

    def test_retained_is_set_semantics(self, small_graph, fresh_store):
        model = InternalPredictor(fresh_store)
        q = small_graph.event(110)
        ids = [int(e) for e in members(fresh_store, small_graph, q)][:5]
        a = model.predict(small_graph, q, set(ids))
        b = model.predict(small_graph, q, set(reversed(ids)))
        assert a == b

    def test_empty_retained_is_query_free_constant(self, small_graph, fresh_store):
        store = fresh_store.copy()
        rng = np.random.default_rng(2)
        for name in store.arrays:
            store.arrays[name] = store.arrays[name] + rng.normal(0, 0.2, store.arrays[name].shape)
        model = InternalPredictor(store)
        const = empty_context_output(store)
        for eid in (30, 70, 110):
            assert model.predict(small_graph, small_graph.event(eid), set()) == const

    def test_no_history_query_hits_constant(self, small_graph, fresh_store):
        q = query_event(0, 1, float(small_graph.t[0]))  # before everything
        model = InternalPredictor(fresh_store)
        assert model.predict(small_graph, q) == empty_context_output(fresh_store)

    def test_checkpoint_without_an_array_names_it(self, small_graph, fresh_store, tmp_path):
        store = fresh_store.copy()
        del store.arrays["head1.w"]
        store.save(tmp_path / "base.ckpt")
        model = InternalPredictor(nn.ParameterStore.load(tmp_path / "base.ckpt"))
        with pytest.raises(CheckpointError, match="'head1.w'"):
            model.predict(small_graph, small_graph.event(100))


class TestConfig:
    @pytest.mark.parametrize("k_nb", [0, -3])
    def test_k_nb_below_one_rejected(self, k_nb):
        with pytest.raises(ConfigError, match="k_nb"):
            RunConfig(k_nb=k_nb)

    def test_missing_k_nb_is_a_config_error(self):
        with pytest.raises(ConfigError, match="k_nb"):
            RunConfig(k_nb=None)


def tied_graph(rng):
    """A small random graph with tied timestamps, short histories and two attributes."""
    n_nodes = int(rng.integers(4, 9))
    n_events = int(rng.integers(6, 30))
    src = rng.integers(n_nodes, size=n_events)
    dst = (src + 1 + rng.integers(n_nodes - 1, size=n_events)) % n_nodes
    t = rng.integers(1, max(2, n_events // 3), size=n_events).astype(float)
    return TemporalGraph(src, dst, t, rng.normal(size=(n_events, 2)), n_nodes)


def mixed_queries(rng, g, n):
    """Queries at tied event times, before any event, and between nodes without history."""
    out = []
    for k in range(n):
        u = int(rng.integers(g.node_count))
        v = int((u + 1 + rng.integers(g.node_count - 1)) % g.node_count)
        t = float(g.t[0]) if k % 5 == 0 else float(rng.choice(g.t)) + (k % 2) * 0.5
        out.append(query_event(u, v, t))
    return out


@pytest.mark.row_invariance
class TestBatchedForwardOracle:
    """The batched forward against the per-query reference forward in tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(12))
    def test_hard_predictions(self, seed):
        rng = np.random.default_rng(seed + 300)
        g = tied_graph(rng)
        k_nb = int(rng.integers(1, 6))
        store = perturbed(build_base_store(g, RunConfig(h=6, d_time_base=3, k_nb=k_nb)), seed)
        views, queries = [], []
        for q in mixed_queries(rng, g, 10):
            full = [int(e) for e in members(store, g, q)]
            subset = {e for e in full if rng.random() < 0.5}
            for view in (None, set(), subset, set(full) | {10 ** 6}):
                views.append(view)
                queries.append(q)
        probs, _ = predict_batch(store, g, queries, views)
        want = [reference_predict(store, g, q, view) for q, view in zip(queries, views)]
        assert np.max(np.abs(probs - np.array(want))) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_soft_predictions_and_gradients(self, seed):
        rng = np.random.default_rng(seed + 400)
        g = tied_graph(rng)
        k_nb = int(rng.integers(1, 6))
        store = perturbed(build_base_store(g, RunConfig(h=6, d_time_base=3, k_nb=k_nb)), seed)
        queries = mixed_queries(rng, g, 7)
        covered = []
        for q in queries:
            full = members(store, g, q)
            # some kept, some dropped, plus an id no slot holds
            covered.append(np.union1d(full[rng.random(len(full)) < 0.7], [g.n_events + 5]))
        store.add("mask", rng.uniform(0.05, 1.0, size=sum(len(c) for c in covered)))
        probe = rng.normal(size=len(queries))
        offsets = np.cumsum([0] + [len(c) for c in covered])

        tape = Tape(store)
        preds = soft_predict(tape, store, encode_slots(tape, store, g, queries), covered,
                             tape.param("mask"))
        got = tape.gradients(nn.vsum(nn.mul(preds, nn.const(probe))))
        ref_tape = Tape(store)
        mask = ref_tape.param("mask")
        terms = [nn.reshape(reference_soft_predict(
                     ref_tape, store, g, q, cov, nn.gather_rows(mask, np.arange(a, b))), (1,))
                 for q, cov, a, b in zip(queries, covered, offsets[:-1], offsets[1:])]
        ref = nn.concat(terms, axis=0)
        want = ref_tape.gradients(nn.vsum(nn.mul(ref, nn.const(probe))))
        assert np.max(np.abs(preds.value - ref.value)) <= 1e-12
        for name in store.arrays:
            assert np.max(np.abs(got[name] - want[name]), initial=0.0) <= 1e-12, name

    @pytest.mark.parametrize("seed", range(8))
    def test_batch_loss_and_gradients(self, seed):
        rng = np.random.default_rng(seed + 500)
        g = tied_graph(rng)
        k_nb = int(rng.integers(1, 6))
        store = perturbed(build_base_store(g, RunConfig(h=6, d_time_base=3, k_nb=k_nb)), seed)
        pairs = [(q, int(rng.integers(2))) for q in mixed_queries(rng, g, 9)]
        tape = Tape(store)
        loss = batch_loss(tape, store, g, pairs)
        got = tape.gradients(loss)
        ref_tape = Tape(store)
        ref = reference_batch_loss(ref_tape, store, g, pairs)
        want = ref_tape.gradients(ref)
        assert abs(float(loss.value) - float(ref.value)) <= 1e-12
        for name in store.arrays:
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name

    def test_query_context_is_the_forward_representation(self, small_graph, fresh_store):
        store = perturbed(fresh_store, 8)
        model = InternalPredictor(store)
        q = small_graph.event(90)
        _, reprs = predict_batch(store, small_graph, [q])
        assert np.array_equal(model.query_context(small_graph, q), reprs[0])
        assert reprs.shape == (1, 2 * store.meta["h"])


@pytest.mark.row_invariance
class TestRowInvariance:
    """Each query's row is bit-identical alone and inside batches of any size."""

    @pytest.fixture(scope="class")
    def rows(self):
        g = generate_synthetic("triadic-closure", 20, 300, seed=12)
        store = perturbed(build_base_store(g, RunConfig(h=16, d_time_base=4, k_nb=10)), 3)
        rng = np.random.default_rng(4)
        queries, views = [], []
        for k in range(33):
            q = g.event(int(rng.integers(g.n_events))) if k % 6 else query_event(0, 1, 0.0)
            full = list(members(store, g, q))
            view = (None, set(), set(full[::2]))[k % 3]
            queries.append(q)
            views.append(view)
        return g, store, queries, views

    def test_alone_equals_inside_batches(self, rows):
        g, store, queries, views = rows
        alone = [predict_batch(store, g, [q], [v]) for q, v in zip(queries, views)]
        n = len(queries)
        for size in (2, 3, 33):
            for i in range(n):
                pick = [(i + j * 7) % n for j in range(size)]
                probs, reprs = predict_batch(store, g, [queries[k] for k in pick],
                                             [views[k] for k in pick])
                assert probs[0].tobytes() == alone[i][0][0].tobytes(), (size, i)
                assert reprs[0].tobytes() == alone[i][1][0].tobytes(), (size, i)

    def test_empty_rows_equal_the_constant(self, rows):
        g, store, queries, views = rows
        probs, _ = predict_batch(store, g, queries, [set()] * len(queries))
        assert set(probs.tolist()) == {empty_context_output(store)}

    def test_predict_views_equals_single_predicts(self, rows):
        g, store, _, _ = rows
        model = InternalPredictor(store)
        q, other = g.event(250), g.event(180)
        full = list(members(store, g, q))
        wanted = [None, set(), set(full[:3]), set(full[1::2]), None]
        queries = [q, q, other, q, other]
        batched = predict_batch(store, g, queries, wanted)[0]
        assert batched.tolist() == [model.predict(g, x, v) for x, v in zip(queries, wanted)]

    def test_chunked_batch_equals_one_forward(self, rows, monkeypatch):
        g, store, queries, views = rows
        whole = predict_batch(store, g, queries, views)
        monkeypatch.setattr(basemodel, "EVAL_CHUNK", 4)  # 8 chunks of 4, then a lone row
        chunked = predict_batch(store, g, queries, views)
        assert whole[0].tobytes() == chunked[0].tobytes()
        assert whole[1].tobytes() == chunked[1].tobytes()

    def test_empty_batch(self, rows):
        g, store, _, _ = rows
        probs, reprs = predict_batch(store, g, [])
        assert probs.shape == (0,) and reprs.shape == (0, 2 * store.meta["h"])


@pytest.mark.row_invariance
class TestSlotEncoding:
    """One slot encoding per distinct query, many masks: `predict_batch`'s dedupe and
    `soft_predict` on live and frozen encodings."""

    @pytest.fixture(scope="class")
    def setup(self):
        g = generate_synthetic("triadic-closure", 20, 300, seed=13)
        store = perturbed(build_base_store(g, RunConfig(h=8, d_time_base=4, k_nb=8)), 6)
        return g, store

    def test_evaluate_layout_rows_equal_their_rows_alone(self, setup):
        g, store = setup
        rng = np.random.default_rng(7)
        queries = [g.event(int(e)) for e in rng.integers(100, g.n_events, size=5)]
        queries.append(query_event(0, 1, 0.0))  # no history
        views = {}
        for q in queries:
            full = list(members(store, g, q))
            views[q] = [None, set()] + [{e for e in full if rng.random() < 0.5}
                                        for _ in range(32)]
        rows = [(q, views[q][k]) for k in range(34) for q in queries]  # queries interleaved
        probs, reprs = predict_batch(store, g, [q for q, _ in rows], [v for _, v in rows])
        for i, (q, view) in enumerate(rows):
            p, r = predict_batch(store, g, [q], [view])
            assert probs[i].tobytes() == p[0].tobytes(), i
            assert reprs[i].tobytes() == r[0].tobytes(), i

    def test_out_of_range_ids_alias_into_no_other_view(self, setup):
        """Under `view * n_events + id` keys, the middle view's -1 would alias the first
        view's event n_events - 1 and its n_events + e the last view's event e; the
        outer views leave those events out, so an alias would switch them back on."""
        g, store = setup
        n = g.n_events
        q = query_event(int(g.src[n - 1]), int(g.dst[n - 1]), float(g.t[n - 1]) + 1.0)
        full = {int(e) for e in members(store, g, q)}
        e = min(full)
        assert n - 1 in full and e != n - 1
        views = [full - {n - 1}, {-1, n, n + e}, full - {e}]
        probs, _ = predict_batch(store, g, [q] * 3, views)
        alone = [predict_batch(store, g, [q], [v])[0][0] for v in views]
        assert probs.tolist() == alone
        assert probs[1] == empty_context_output(store)
        assert len(set(alone + [predict_batch(store, g, [q])[0][0]])) == 4  # each view matters

    @staticmethod
    def soft_case(g, store, seed):
        """Repeated queries with their own covered ids (one no slot holds) and masks."""
        rng = np.random.default_rng(seed)
        picked = [g.event(int(e)) for e in rng.integers(150, g.n_events, size=3)]
        queries = [picked[k % 3] for k in range(7)]
        covered = [np.union1d(members(store, g, q)[rng.random(len(members(store, g, q))) < 0.6],
                              [g.n_events + 2]) for q in queries]
        store = store.copy()
        store.add("mask", rng.uniform(0.05, 1.0, size=sum(len(c) for c in covered)))
        return store, queries, covered, rng.normal(size=len(queries))

    def test_live_encoding_matches_the_oracle(self, setup):
        g, base = setup
        store, queries, covered, probe = self.soft_case(g, base, 11)
        tape = Tape(store)
        preds = soft_predict(tape, store, encode_slots(tape, store, g, queries), covered,
                             tape.param("mask"))
        got = tape.gradients(nn.vsum(nn.mul(preds, nn.const(probe))))
        ref_tape = Tape(store)
        mask = ref_tape.param("mask")
        offsets = np.cumsum([0] + [len(c) for c in covered])
        ref = nn.concat([nn.reshape(reference_soft_predict(
            ref_tape, store, g, q, cov, nn.gather_rows(mask, np.arange(a, b))), (1,))
            for q, cov, a, b in zip(queries, covered, offsets[:-1], offsets[1:])], axis=0)
        want = ref_tape.gradients(nn.vsum(nn.mul(ref, nn.const(probe))))
        assert np.max(np.abs(preds.value - ref.value)) <= 1e-12
        for name in store.arrays:
            assert np.max(np.abs(got[name] - want[name]), initial=0.0) <= 1e-12, name
            assert np.any(got[name]), name  # every array is on the live gradient path

    def test_frozen_encoding_differentiates_only_the_masked_half(self, setup):
        g, base = setup
        store, queries, covered, probe = self.soft_case(g, base, 12)
        grads, preds = [], []
        for frozen in (False, True):
            tape = Tape(store)
            enc = (predict_slots(store, g, queries, [])[2] if frozen
                   else encode_slots(tape, store, g, queries))
            p = soft_predict(tape, store, enc, covered, tape.param("mask"))
            grads.append(tape.gradients(nn.vsum(nn.mul(p, nn.const(probe)))))
            preds.append(p.value)
        live, frozen = grads
        assert preds[0].tobytes() == preds[1].tobytes()
        assert live["mask"].tobytes() == frozen["mask"].tobytes()
        encoding_half = ("node.w", "node.b", "q.w", "q.b", "time_w", "wedge_logtau")
        for name in store.arrays:
            if name in encoding_half:
                assert np.any(live[name]) and not np.any(frozen[name]), name
            else:
                assert live[name].tobytes() == frozen[name].tobytes(), name


@pytest.mark.row_invariance
class TestCompactedForward:
    """The masked half runs on the retained slots only: its probabilities and
    representations are the dense (B, 2, K) layout's bit for bit (`reference_dense_predict`,
    at widths whose BLAS rows do not depend on their place in a product) and the per-query
    forward's (`reference_predict`) to 1e-12."""

    @staticmethod
    def one_side_event(store, g, q):
        """An event id only one of the query's endpoints holds a slot for."""
        ids = encode_slots(Tape(store), store, g, [q]).ids[0]
        return int(np.setdiff1d(ids[0][ids[0] >= 0], ids[1])[0])

    @staticmethod
    def assert_matches_oracles(store, g, queries, views):
        probs, reprs = predict_batch(store, g, queries, views)
        dense_p, dense_r = reference_dense_predict(store, g, queries, views)
        assert probs.tobytes() == dense_p.tobytes()
        assert reprs.tobytes() == dense_r.tobytes()
        want = [reference_predict(store, g, q, v) for q, v in zip(queries, views)]
        assert np.max(np.abs(probs - np.array(want)), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_views_keeping_none_one_some_and_all_slots(self, seed):
        rng = np.random.default_rng(seed + 600)
        g = tied_graph(rng)
        h = (6, 8)[seed % 2]
        store = perturbed(build_base_store(g, RunConfig(h=h, d_time_base=3,
                                                        k_nb=int(rng.integers(1, 7)))), seed)
        queries, views = [], []
        for q in mixed_queries(rng, g, 8):
            full = [int(e) for e in members(store, g, q)]
            some = {e for e in full if rng.random() < 0.3}
            for view in (set(), set(full[:1]), some, set(full), None):
                queries.append(q)
                views.append(view)
        self.assert_matches_oracles(store, g, queries, views)

    def test_chunk_keeping_exactly_one_slot(self, monkeypatch):
        """A single retained slot in a whole chunk: its k/v product is run on two rows, as
        no product handed to BLAS may have one row, and it matches the slot in company."""
        g = generate_synthetic("triadic-closure", 20, 300, seed=14)
        store = perturbed(build_base_store(g, RunConfig(h=8, d_time_base=4, k_nb=8)), 9)
        q, other = g.event(250), g.event(200)
        e = self.one_side_event(store, g, q)
        queries, views = [q, other, q, other], [{e}, set(), set(members(store, g, q)), None]
        self.assert_matches_oracles(store, g, queries[:2], views[:2])
        alone = predict_batch(store, g, [q], [{e}])
        monkeypatch.setattr(basemodel, "EVAL_CHUNK", 2)  # chunks {e} + empty, then two full
        chunked = predict_batch(store, g, queries, views)
        assert chunked[0][0].tobytes() == alone[0][0].tobytes()
        assert chunked[1][0].tobytes() == alone[1][0].tobytes()
        assert alone[0][0] != empty_context_output(store)

    def test_chunk_keeping_no_slot(self, monkeypatch):
        g = generate_synthetic("triadic-closure", 20, 300, seed=15)
        store = perturbed(build_base_store(g, RunConfig(h=8, d_time_base=4, k_nb=8)), 10)
        queries = [g.event(260), g.event(240), query_event(0, 1, 0.0), g.event(260)]
        views = [set(), {-1, g.n_events + 3}, None, None]
        self.assert_matches_oracles(store, g, queries, views)
        monkeypatch.setattr(basemodel, "EVAL_CHUNK", 3)  # the first chunk keeps nothing
        probs, reprs = predict_batch(store, g, queries, views)
        assert probs[:3].tolist() == [empty_context_output(store)] * 3
        assert reprs[:3].tobytes() == reprs[2:3].repeat(3, axis=0).tobytes()
        assert probs[3].tobytes() == predict_batch(store, g, [queries[3]])[0][0].tobytes()

    def test_soft_with_padded_and_uncovered_slots(self):
        """`soft_predict` values and gradients against the per-query oracle on a batch with
        a history-free query (all padding), short histories (padding on a side), and
        covered sets keeping every event, one event, none, and some plus ids no slot holds."""
        g = generate_synthetic("triadic-closure", 20, 300, seed=16)
        store = perturbed(build_base_store(g, RunConfig(h=8, d_time_base=4, k_nb=8)), 11)
        early = query_event(int(g.src[0]), int(g.dst[3]), float(g.t[4]))
        queries = [g.event(280), g.event(280), g.event(150), early, query_event(0, 1, 0.0),
                   g.event(220)]
        full = [members(store, g, q) for q in queries]
        rng = np.random.default_rng(3)
        covered = [full[0], np.array([self.one_side_event(store, g, queries[1])]),
                   np.zeros(0, dtype=np.int64), full[3], np.array([g.n_events + 1]),
                   np.union1d(full[5][rng.random(len(full[5])) < 0.5], [-1, g.n_events])]
        store = store.copy()
        store.add("mask", rng.uniform(0.05, 1.0, size=sum(len(c) for c in covered)))
        probe = rng.normal(size=len(queries))
        tape = Tape(store)
        preds = soft_predict(tape, store, encode_slots(tape, store, g, queries), covered,
                             tape.param("mask"))
        got = tape.gradients(nn.vsum(nn.mul(preds, nn.const(probe))))
        ref_tape = Tape(store)
        mask = ref_tape.param("mask")
        offsets = np.cumsum([0] + [len(c) for c in covered])
        ref = nn.concat([nn.reshape(reference_soft_predict(
            ref_tape, store, g, q, cov, nn.gather_rows(mask, np.arange(a, b))), (1,))
            for q, cov, a, b in zip(queries, covered, offsets[:-1], offsets[1:])], axis=0)
        want = ref_tape.gradients(nn.vsum(nn.mul(ref, nn.const(probe))))
        assert np.max(np.abs(preds.value - ref.value)) <= 1e-12
        for name in store.arrays:
            assert np.max(np.abs(got[name] - want[name]), initial=0.0) <= 1e-12, name


class TestSplits:
    def test_split_points(self, small_graph):
        t_lo, t_mid = split_times(small_graph)
        span = small_graph.time_span
        assert t_lo == pytest.approx(float(small_graph.t[0]) + 0.75 * span)
        assert t_mid == pytest.approx(float(small_graph.t[0]) + 0.8 * span)

    def test_partition(self, small_graph):
        train, val, test = split_event_ids(small_graph)
        assert len(train) + len(val) + len(test) == small_graph.n_events
        assert set(train) | set(val) | set(test) == set(range(small_graph.n_events))
        assert small_graph.t[train].max() <= small_graph.t[val].min()
        assert small_graph.t[val].max() <= small_graph.t[test].min()

    def test_eval_queries_balanced(self, small_graph):
        _, _, test = split_event_ids(small_graph)
        qs = eval_queries(small_graph, test, seed=0)
        labels = [y for _, y in qs]
        assert labels.count(1) == labels.count(0) == len(test)


class TestTraining:
    def test_deterministic_checkpoints(self):
        g = generate_synthetic("triadic-closure", 12, 80, seed=9)
        cfg = RunConfig(h=8, d_time_base=4, k_nb=6, base_epochs=2, seed=7)
        s1, _ = train_base(g, cfg)
        s2, _ = train_base(g, cfg)
        for name in s1.arrays:
            assert np.array_equal(s1.arrays[name], s2.arrays[name]), name

    def test_loss_gradients_match_finite_differences(self, small_graph):
        cfg = RunConfig(h=6, d_time_base=3, k_nb=5, seed=1)
        store = build_base_store(small_graph, cfg)
        rng = np.random.default_rng(3)
        for name in store.arrays:
            store.arrays[name] = store.arrays[name] + rng.normal(0, 0.2, store.arrays[name].shape)
        batch = []
        for eid, label in ((100, 1), (101, 0), (102, 1)):
            batch.append((small_graph.event(eid), label))

        def loss(tape: Tape):
            return batch_loss(tape, store, small_graph, batch)

        assert grad_check(loss, store, eps=1e-5, rng=rng, max_coords=4) < 1e-4

    def test_empty_validation_split_returns_the_last_epoch(self):
        g = generate_synthetic("triadic-closure", 6, 8, seed=0)
        assert len(split_event_ids(g)[1]) == 0
        cfg = RunConfig(h=8, d_time_base=4, k_nb=6, base_epochs=3, patience=0, seed=0)
        store, report = train_base(g, cfg)
        assert (report["epochs_run"], report["best_epoch"], report["best_score"]) == (3, 2, None)
        initial = build_base_store(g, cfg)
        assert any(not np.array_equal(store.arrays[k], v) for k, v in initial.arrays.items())


class TestEnhancedHead:
    """The widened head: `_head` over [representation || mean motif embedding] rows."""

    @pytest.fixture(scope="class")
    def rows(self, small_graph, fresh_store):
        store = perturbed(fresh_store, 21)
        queries = eval_queries(small_graph, np.arange(60, 120), seed=2)
        probs, reps = predict_batch(store, small_graph, [q for q, _ in queries])
        embs = np.random.default_rng(5).normal(size=(len(queries), 4))
        labels = np.array([y for _, y in queries])
        return store, probs, reps, embs, labels

    @pytest.fixture
    def short_schedule(self, monkeypatch):
        """Learning rate 1e-2 and 5 epochs of 16 rows, in place of the head's fixed schedule."""
        for name, value in (("HEAD_LR", 1e-2), ("HEAD_EPOCHS", 5), ("HEAD_BATCH", 16)):
            monkeypatch.setattr(basemodel, name, value)

    def test_fresh_enhanced_head_reproduces_plain_model(self, rows):
        store, probs, reps, embs, _ = rows
        enhanced = build_enhanced_store(store, embs.shape[1])
        got = enhanced_probs(Tape(enhanced), reps, embs).value
        assert np.max(np.abs(got - probs)) <= 1e-12
        lone = enhanced_probs(Tape(enhanced), reps[3:4], embs[3:4]).value
        assert lone.shape == (1,) and abs(lone[0] - probs[3]) <= 1e-12

    def test_training_never_validates_worse(self, rows, short_schedule):
        store, _, reps, embs, _ = rows
        labels = (embs[:, 0] > 0).astype(int)  # only the motif columns can predict these
        val = np.arange(len(labels)) % 4 == 0
        trained, report = train_enhanced_head(store, reps, embs, labels, val)
        assert report["best_score"] >= report["initial_score"]
        assert report["best_epoch"] >= 0
        val_probs = enhanced_probs(Tape(trained), reps[val], embs[val]).value
        assert average_precision(labels[val], val_probs) == report["best_score"]

    def test_head_only_store_trains_as_the_full_copy_did(self, rows, short_schedule):
        """The head-only store ends with the bits and `fit` report of the earlier design: a
        full copy of the base store with `ehead*` arrays beside it, trained in place."""
        store, _, reps, embs, _ = rows
        labels = (embs[:, 0] > 0).astype(int)
        val = np.arange(len(labels)) % 4 == 0
        trained, report = train_enhanced_head(store, reps, embs, labels, val)
        ref, ref_report = reference_enhanced_head(store, reps, embs, labels, val, lr=1e-2,
                                                  epochs=5, batch=16)
        assert report["best_epoch"] >= 0  # the head moved
        assert sorted(trained.arrays) == ["head1.b", "head1.w", "head2.b", "head2.w"]
        assert trained.meta == {"kind": "enhanced", "h": store.meta["h"], "motif_dim": 4}
        for name, arr in trained.arrays.items():
            assert arr.tobytes() == ref.arrays["e" + name].tobytes(), name
        assert report == ref_report

