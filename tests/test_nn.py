import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from motifx import nn
from motifx.errors import CheckpointError, NonFiniteError, ShapeError
from motifx.nn import ParameterStore, Tape, backward, grad_check
from conftest import ckpt_data
from oracles import reference_time_encode


def rand_store(shapes, seed=0):
    rng = np.random.default_rng(seed)
    store = ParameterStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape))
    return store


class TestPrimitives:
    def test_sigmoid_of_zero(self):
        assert float(nn.sigmoid(nn.const(0.0)).value) == 0.5

    def test_relu_clamps_negatives(self):
        x = nn.relu(nn.const(np.array([-3.0, -0.1, 0.0, 2.0])))
        assert list(x.value) == [0.0, 0.0, 0.0, 2.0]

    def test_mean_of_identical_rows(self):
        row = np.array([1.5, -2.0, 0.25])
        m = nn.vmean(nn.const(np.tile(row, (4, 1))), axis=0)
        assert np.array_equal(m.value, row)

    def test_sigmoid_stable_at_extremes(self):
        v = nn.sigmoid(nn.const(np.array([-1000.0, 1000.0]))).value
        assert v[0] == 0.0 and v[1] == 1.0

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) @ \(2, 3\)"):
            nn.matmul(nn.const(np.ones((2, 3))), nn.const(np.ones((2, 3))))

    def test_bmm_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\) @ \(3, 4, 1\)"):
            nn.bmm(np.ones((2, 3, 4)), np.ones((3, 4, 1)))

    def test_bmm_items_are_their_own_products(self):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=(7, 6, 3)), rng.normal(size=(7, 3, 5))
        whole = nn.bmm(a, b).value
        for i in range(7):
            assert np.array_equal(whole[i], nn.bmm(a[i:i + 1], b[i:i + 1]).value[0])

    def test_add_shape_error(self):
        with pytest.raises(ShapeError):
            nn.add(nn.const(np.ones((2, 3))), nn.const(np.ones((4, 5))))

    def test_affine_bias_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"affine: \(2, 4\) \+ \(5,\)"):
            nn.affine(nn.const(np.ones((2, 3))), nn.const(np.ones((3, 4))), nn.const(np.ones(5)))

    def test_softmax_sums_to_one(self):
        # masked attention is the package's softmax: identity values return the weights
        from motifx.layers import masked_attention
        keys = nn.const(np.array([[1.0], [2.0], [3.0]]))
        s = masked_attention(nn.const(np.ones((3, 1))), keys, nn.const(np.eye(3)),
                             nn.const(np.ones((1, 3))), np.ones((1, 3), dtype=bool)).value[0]
        assert s.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(s) > 0)


OPS = {
    "add": (lambda a, b: nn.vsum(nn.add(a, b)), 2, (3, 4)),
    "sub": (lambda a, b: nn.vsum(nn.sub(a, b)), 2, (3, 4)),
    "mul": (lambda a, b: nn.vsum(nn.mul(a, b)), 2, (3, 4)),
    "div": (lambda a, b: nn.vsum(nn.div(a, b)), 2, (3, 4)),
    "matmul": (lambda a, b: nn.vsum(nn.matmul(a, b)), 2, (3, 3)),
    "affine": (lambda a, b, c: nn.vsum(nn.mul(nn.affine(a, b, nn.vmean(c, axis=0)),
                                              nn.const(np.arange(9.0).reshape(3, 3)))), 3, (3, 3)),
    "bmm": (lambda a: nn.vsum(nn.mul(nn.bmm(np.arange(18.0).reshape(2, 3, 3) % 5, a),
                                     nn.const(np.arange(18.0).reshape(2, 3, 3)))), 1, (2, 3, 3)),
    "relu": (lambda a: nn.vsum(nn.relu(a)), 1, (3, 4)),
    "sigmoid": (lambda a: nn.vsum(nn.sigmoid(a)), 1, (3, 4)),
    "exp": (lambda a: nn.vsum(nn.exp(a)), 1, (3, 4)),
    "mean": (lambda a: nn.vsum(nn.vmean(a, axis=0)), 1, (3, 4)),
    "concat": (lambda a, b: nn.vsum(nn.mul(nn.concat([a, b], axis=1),
                                           nn.const(np.arange(24.0).reshape(3, 8)))), 2, (3, 4)),
    "time_encode": (lambda a: nn.vsum(nn.mul(nn.time_encode([0.0, 0.7, 2.5], a),
                                             nn.const(np.arange(24.0).reshape(3, 8)))), 1, (4,)),
    "gather": (lambda a: nn.vsum(nn.gather_rows(a, np.array([0, 2, 2, 1]))), 1, (3, 4)),
    "gather_distinct": (lambda a: nn.vsum(nn.mul(nn.gather_rows(a, np.array([0, 2])),
                                                 nn.const(np.arange(8.0).reshape(2, 4)))),
                        1, (3, 4)),
    "gather_with_last": (lambda a, b: nn.vsum(nn.mul(
        nn.gather_rows_with_last(a, np.array([2, 0, 2, 1]), nn.vmean(b, axis=0)),
        nn.const(np.arange(16.0).reshape(4, 4)))), 2, (3, 4)),
    "segsum_distinct": (lambda a: nn.vsum(nn.mul(nn.segment_sum(a, np.array([0, 2, 3]), 5),
                                                 nn.const(np.arange(20.0).reshape(5, 4)))),
                        1, (3, 4)),
    "segsum": (lambda a: nn.vsum(nn.mul(nn.segment_sum(a, np.array([0, 1, 0]), 2),
                                        nn.const(np.arange(8.0).reshape(2, 4)))), 1, (3, 4)),
    "reshape": (lambda a: nn.vsum(nn.mul(nn.reshape(a, (4, 3)),
                                         nn.const(np.arange(12.0).reshape(4, 3)))), 1, (3, 4)),
    "log": (lambda a: nn.vsum(nn.log(nn.add(nn.mul(a, a), nn.const(1.0)))), 1, (3, 4)),
    "clip": (lambda a: nn.vsum(nn.clip(a, -0.9, 0.9)), 1, (3, 4)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_backward_matches_finite_differences(name):
    fn, arity, shape = OPS[name]
    shapes = {f"x{i}": shape for i in range(arity)}
    store = rand_store(shapes, seed=hash(name) % 2**31)
    if name == "div":
        store.arrays["x1"] = np.abs(store.arrays["x1"]) + 0.5

    def loss(tape: Tape):
        return fn(*[tape.param(f"x{i}") for i in range(arity)])

    assert grad_check(loss, store, eps=1e-6) < 1e-6


def test_scatter_add_sums_like_add_at():
    """Buckets sum from 0 in row order, whether seg repeats, only strictly increases (the
    plain store) or is empty."""
    rng = np.random.default_rng(2)
    for seg in ([3, 0, 3, 1], [0, 0, 2, 2, 2], [0, 2, 3, 5], [4], []):
        seg = np.array(seg, dtype=np.int64)
        for shape in ((len(seg),), (len(seg), 3)):
            rows = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
            want = np.zeros((6,) + shape[1:])
            np.add.at(want, seg, rows)
            assert np.array_equal(nn._scatter_add(rows, seg, 6), want), (seg, shape)


def test_gather_rows_with_last_is_one_copy_of_rows_and_column():
    a, last = np.arange(12.0).reshape(3, 4), np.array([-1.0, -2.0])
    out = nn.gather_rows_with_last(nn.const(a), np.array([2, 0]), nn.const(last)).value
    assert out.tolist() == [[8.0, 9.0, 10.0, -1.0], [0.0, 1.0, 2.0, -2.0]]
    assert out.flags.c_contiguous and not np.shares_memory(out, a)


def test_segment_max_forward_and_grad():
    x = nn.const(np.array([0.2, 0.9, 0.4, 0.7]))
    out = nn.segment_max(x, np.array([0, 0, 1, 1]), 3)
    assert list(out.value) == [0.9, 0.7, 0.0]  # empty bucket gets the floor
    backward(nn.vsum(out))
    assert list(x.grad) == [0.0, 1.0, 0.0, 1.0]


def test_unused_parameters_get_zero_grads():
    store = rand_store({"used": (3,), "unused": (2, 2)})
    tape = Tape(store)
    grads = tape.gradients(nn.vsum(nn.mul(tape.param("used"), tape.param("used"))))
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))
    assert np.allclose(grads["used"], 2 * store.arrays["used"])


def test_grad_accumulates_across_reuse():
    store = rand_store({"x": (3,)})
    tape = Tape(store)
    x = tape.param("x")
    loss = nn.vsum(nn.add(nn.mul(x, x), x))  # x^2 + x -> 2x + 1
    grads = tape.gradients(loss)
    assert np.allclose(grads["x"], 2 * store.arrays["x"] + 1)


def _reachable(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class TestGradientRelease:
    """Backward drops each interior gradient once its vjp has used it; leaves keep theirs."""

    def test_backward_peak_stays_near_a_few_arrays(self):
        store = rand_store({"x": (256, 512)})  # 1 MiB
        nbytes = store.arrays["x"].nbytes
        steps = [lambda v: nn.scale(v, 0.9), nn.sigmoid, nn.relu, lambda v: nn.scale(v, 1.1)]
        tracemalloc.start()
        try:
            tape = Tape(store)
            v = tape.param("x")
            for i in range(20):
                v = steps[i % len(steps)](v)
            loss = nn.vsum(v)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            grads = tape.gradients(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads["x"].shape == (256, 512)
        assert peak - before <= 4 * nbytes  # keeping interior grads holds about one per op

    def test_only_leaves_keep_gradients(self):
        store = rand_store({"w": (4, 3)}, seed=1)
        tape = Tape(store)
        w, c = tape.param("w"), nn.const(np.arange(12.0).reshape(4, 3))
        interior = [nn.mul(w, c)]
        interior.append(nn.sigmoid(interior[-1]))
        interior.append(nn.affine(interior[-1], nn.const(np.ones((3, 2))), nn.const(np.ones(2))))
        loss = nn.vsum(interior[-1])
        values = [v.value.copy() for v in interior + [loss]]
        tape.gradients(loss)
        assert all(v.grad is None for v in interior + [loss])
        assert w.grad is not None and c.grad is not None
        assert all(np.array_equal(v.value, held) for v, held in zip(interior + [loss], values))

    def test_second_backward_adds_exactly_one_copy(self):
        store = ParameterStore()
        store.add("x", np.arange(-3.0, 3.0))  # integers: every sum below is exact
        tape = Tape(store)
        x, k = tape.param("x"), nn.const(np.full(6, 2.0))
        loss = nn.vsum(nn.add(nn.mul(nn.scale(x, 3.0), k), nn.mul(x, x)))
        first = tape.gradients(loss)["x"].copy()
        k_first = k.grad.copy()
        assert np.array_equal(first, 6.0 + 2.0 * store.arrays["x"])
        assert np.array_equal(tape.gradients(loss)["x"], 2.0 * first)
        assert np.array_equal(k.grad, 2.0 * k_first)


@pytest.mark.row_invariance
@pytest.mark.parametrize("rows,k,h", [(1, 5, 3), (2, 1, 4), (7, 6, 1), (33, 12, 8)])
def test_affine_matches_add_of_matmul_bit_for_bit(rows, k, h):
    rng = np.random.default_rng(rows * 1000 + k * 10 + h)
    store = ParameterStore()
    for name, shape in (("x", (rows, k)), ("w", (k, h)), ("b", (h,))):
        store.add(name, rng.normal(size=shape))
    probe = nn.const(rng.normal(size=(rows, h)))

    def run(layer):
        tape = Tape(store)
        out = layer(tape.param("x"), tape.param("w"), tape.param("b"))
        return out.value, tape.gradients(nn.vsum(nn.mul(nn.relu(out), probe)))

    fused, fused_grads = run(nn.affine)
    split, split_grads = run(lambda x, w, b: nn.add(nn.matmul(x, w), b))
    assert np.array_equal(fused, split)
    for name in ("x", "w", "b"):
        assert np.array_equal(fused_grads[name], split_grads[name])


def test_affine_is_one_tape_node():
    store = rand_store({"x": (4, 3), "w": (3, 3), "b": (3,)})

    def nodes(layer):
        tape = Tape(store)
        v = tape.param("x")
        for _ in range(3):
            v = layer(v, tape.param("w"), tape.param("b"))
        return _reachable(nn.vsum(v))

    assert nodes(lambda x, w, b: nn.add(nn.matmul(x, w), b)) - nodes(nn.affine) == 3


ROW_COUNTS = (1, 2, 3, 7, 64)


@pytest.mark.row_invariance
@pytest.mark.parametrize("width", range(1, 41))
def test_matmul_rows_equal_alone_and_in_any_batch(width):
    """Each row of a (2048, 64) @ (64, width) product has the same bytes in the whole
    batch, in its first m rows for each of ROW_COUNTS and alone (the first 64 rows). From
    8 columns on the batch is above OpenBLAS's small-matrix size (M * N * K above 100^3),
    where unpadded gemm's row bits depend on the batch at 28 and 36 columns too."""
    rng = np.random.default_rng(width)
    x, w = rng.normal(size=(2048, 64)), nn.const(rng.normal(size=(64, width)))
    whole = nn.matmul(x, w).value
    for rows in [slice(0, m) for m in ROW_COUNTS] + [slice(i, i + 1) for i in range(64)]:
        assert nn.matmul(x[rows], w).value.tobytes() == whole[rows].tobytes(), rows


@pytest.mark.row_invariance
@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_one_column_affine_is_a_multiply_and_row_sum(rows):
    """A one-column affine's value and its x, w and b gradients have the bits of
    add(vsum(mul(x, reshape(w, (1, -1))), axis=1), b)."""
    store = rand_store({"x": (rows, 13), "w": (13, 1), "b": (1,)}, seed=rows)
    probe = nn.const(np.random.default_rng(rows).normal(size=rows))

    def run(layer):
        tape = Tape(store)
        out = layer(tape.param("x"), tape.param("w"), tape.param("b"))
        return out.value, tape.gradients(nn.vsum(nn.mul(nn.sigmoid(out), probe)))

    fused, fused_grads = run(lambda x, w, b: nn.reshape(nn.affine(x, w, b), (-1,)))
    split, split_grads = run(
        lambda x, w, b: nn.add(nn.vsum(nn.mul(x, nn.reshape(w, (1, -1))), axis=1), b))
    assert fused.tobytes() == split.tobytes()
    for name in ("x", "w", "b"):
        assert fused_grads[name].tobytes() == split_grads[name].tobytes(), name


TIME_ENCODE_SHAPES = [(0, 3), (1, 1), (1, 6), (5, 1), (12, 3), (300, 8)]
# numpy's dispatched AVX-512 targets; a child process runs cos and sin without them
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def check_time_encode_against_reference(rows, d):
    """`nn.time_encode`'s value and w gradient have the bytes of the per-row chain (bytes:
    np.array_equal counts 0.0 and -0.0 as equal) on distinct ages, all zeros, a few ages
    repeated beside 0.0 and -0.0, and only signed zeros."""
    rng = np.random.default_rng(rows * 10 + d)
    w = nn.log_spaced_freqs(1e3, d) * rng.uniform(0.5, 2.0, d)
    probe = rng.normal(size=(rows, 2 * d))
    for dts in (rng.exponential(40.0, rows) * (rng.random(rows) > 0.25), np.zeros(rows),
                np.r_[rng.exponential(40.0, 3), 0.0, -0.0][rng.integers(0, 5, rows)],
                np.where(rng.random(rows) < 0.5, 0.0, -0.0)):
        want, want_grad = reference_time_encode(dts, w, probe)
        store = ParameterStore()
        store.add("w", w)
        tape = Tape(store)
        enc = nn.time_encode(dts, tape.param("w"))
        grad = tape.gradients(nn.vsum(nn.mul(enc, nn.const(probe))))["w"]
        assert enc.value.shape == want.shape and enc.value.tobytes() == want.tobytes(), dts
        assert grad.tobytes() == want_grad.tobytes(), dts


@pytest.mark.row_invariance
@pytest.mark.parametrize("rows,d", TIME_ENCODE_SHAPES)
def test_time_encode_matches_reference_bit_for_bit(rows, d):
    check_time_encode_against_reference(rows, d)


def test_time_encode_matches_reference_without_avx512():
    """The same comparison in a child process with numpy's AVX-512 targets switched off,
    so that cos and sin take numpy's other dispatch path."""
    from numpy._core._multiarray_umath import __cpu_features__
    off = [f for f in AVX512 if __cpu_features__.get(f)]
    if not off:
        pytest.skip("this CPU runs none of numpy's AVX-512 targets")
    tests = Path(__file__).resolve().parent
    script = ("import sys\n"
              "from numpy._core._multiarray_umath import __cpu_features__ as on\n"
              "from test_nn import TIME_ENCODE_SHAPES, check_time_encode_against_reference\n"
              "assert not any(on[f] for f in sys.argv[1:])\n"
              "for shape in TIME_ENCODE_SHAPES:\n"
              "    check_time_encode_against_reference(*shape)\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    child = subprocess.run([sys.executable, "-c", script, *off], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr


def test_time_encode_is_one_tape_node():
    w = nn.const(nn.log_spaced_freqs(10.0, 3))
    assert _reachable(nn.time_encode(np.arange(4.0), w)) == _reachable(w) + 1


def test_forward_is_bit_deterministic():
    store = rand_store({"w": (8, 8), "b": (8,)}, seed=3)
    x = np.arange(40.0).reshape(5, 8)

    def run():
        tape = Tape(store)
        out = nn.vsum(nn.relu(nn.affine(nn.const(x), tape.param("w"), tape.param("b"))))
        grads = tape.gradients(out)
        return float(out.value), grads["w"].copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


class TestOptimizer:
    def test_zero_gradient_keeps_parameters(self):
        store = rand_store({"x": (4,)})
        before = store.arrays["x"].copy()
        state = nn.adam_init(store)
        nn.optimizer_step(store, {"x": np.zeros(4)}, state, lr=0.1)
        assert np.array_equal(store.arrays["x"], before)

    def test_positive_gradient_decreases_parameter(self):
        store = rand_store({"x": (1,)})
        before = float(store.arrays["x"][0])
        state = nn.adam_init(store)
        nn.optimizer_step(store, {"x": np.array([2.5])}, state, lr=0.01)
        assert float(store.arrays["x"][0]) < before

    def test_quadratic_bowl_converges(self):
        target = np.array([0.3, -1.2, 0.8])
        store = ParameterStore()
        store.add("x", np.zeros(3))
        state = nn.adam_init(store)
        for _ in range(2000):
            def loss(tape):
                d = nn.sub(tape.param("x"), nn.const(target))
                return nn.vsum(nn.mul(d, d))
            tape = Tape(store)
            grads = tape.gradients(loss(tape))
            nn.optimizer_step(store, grads, state, lr=0.01)
        assert np.max(np.abs(store.arrays["x"] - target)) < 1e-3

    def test_non_finite_gradient_aborts_with_name(self):
        store = rand_store({"w": (2,)})
        state = nn.adam_init(store)
        with pytest.raises(NonFiniteError, match="w"):
            nn.optimizer_step(store, {"w": np.array([np.nan, 1.0])}, state)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_all_nan_gradient_message_is_warning_free(self):
        store = rand_store({"w": (3,)})
        with pytest.raises(NonFiniteError, match="'w': 3 of 3 entries, first nan"):
            nn.optimizer_step(store, {"w": np.full(3, np.nan)}, nn.adam_init(store))


def bowl(epoch):
    """Two loss builders per epoch for sum((x - 1)^2)."""
    for _ in range(2):
        yield lambda tape: nn.vsum(nn.mul(*[nn.sub(tape.param("x"), nn.const(1.0))] * 2))


class TestFit:
    """`nn.fit`: one Adam step per loss builder, the non-finite rule and the best-store rule."""

    @staticmethod
    def scripted(scores, epochs, **kwargs):
        """Fit the bowl from x = 0 with `validate` reading `scores` in turn; also returns the
        x each call saw (the untrained store first, then one per epoch)."""
        store = ParameterStore()
        store.add("x", np.zeros(1))
        seen, it = [], iter(scores)

        def validate(s):
            seen.append(s.arrays["x"].copy())
            return next(it)
        return store, nn.fit(store, epochs, bowl, 0.1, validate=validate, **kwargs), seen

    def test_steps_equal_a_hand_loop_and_the_last_epoch_is_kept(self):
        store = ParameterStore()
        store.add("x", np.zeros(1))
        report = nn.fit(store, 3, bowl, 0.1)
        hand = ParameterStore()
        hand.add("x", np.zeros(1))
        state = nn.adam_init(hand)
        for epoch in range(3):
            for build in bowl(epoch):
                tape = Tape(hand)
                nn.optimizer_step(hand, tape.gradients(build(tape)), state, lr=0.1)
        assert np.array_equal(store.arrays["x"], hand.arrays["x"])
        assert (report["epochs_run"], report["best_epoch"]) == (3, 2)
        assert report["initial_score"] is None and report["best_score"] is None
        assert report["epoch_losses"][0] > report["epoch_losses"][-1]

    def test_epoch_replaces_best_only_above_min_gain(self):
        store, report, seen = self.scripted([0.5, 0.5005, 0.7, 0.7005], 3, min_gain=1e-3)
        assert (report["best_epoch"], report["best_score"], report["initial_score"]) == (1, 0.7, 0.5)
        assert report["epochs_run"] == 3
        assert np.array_equal(store.arrays["x"], seen[2])

    def test_untrained_store_counts_at_its_measured_score(self):
        store, report, _ = self.scripted([0.9, 0.5, 0.6], 2)
        assert (report["best_epoch"], report["best_score"]) == (-1, 0.9)
        assert np.array_equal(store.arrays["x"], np.zeros(1))

    def test_patience_stops_after_patience_plus_one_epochs_without_a_gain(self):
        """At patience 1, the second epoch in a row without a gain is the last."""
        store, report, seen = self.scripted([0.5, 0.6, 0.55, 0.58], 10, patience=1)
        assert (report["epochs_run"], report["best_epoch"]) == (3, 0)
        assert len(report["epoch_losses"]) == 3
        assert np.array_equal(store.arrays["x"], seen[1])

    def test_non_finite_loss_names_the_epoch(self):
        store = ParameterStore()
        store.add("x", np.zeros(1))

        def batches(epoch):
            yield lambda tape: nn.add(nn.vsum(tape.param("x")), nn.const(np.inf if epoch else 0.0))
        with pytest.raises(NonFiniteError, match="epoch 1: loss became inf"):
            nn.fit(store, 3, batches, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_gradient_names_the_epoch(self):
        store = ParameterStore()
        store.add("x", np.zeros(1))

        def batches(epoch):
            def build(tape):
                x = tape.param("x")
                return nn.Var(0.0, (x,), lambda g: setattr(x, "grad", np.full(1, np.nan)))
            yield build
        with pytest.raises(NonFiniteError, match="epoch 0: non-finite gradient for 'x'"):
            nn.fit(store, 1, batches, 0.1)
        assert np.array_equal(store.arrays["x"], np.zeros(1))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        store = rand_store({"a": (3, 2), "b": (5,)}, seed=11)
        store.add("edge", np.array([-0.0, 5e-324, 1e300, -1e-300]))
        store.meta = {"kind": "test", "nested": {"x": 1}}
        path = tmp_path / "m.ckpt"
        store.save(path)
        loaded = ParameterStore.load(path)
        assert loaded.meta == store.meta
        for name in store.arrays:  # bytes: np.array_equal counts -0.0 as 0.0
            assert loaded.arrays[name].tobytes() == store.arrays[name].tobytes()
            assert loaded.arrays[name].shape == store.arrays[name].shape
            assert loaded.arrays[name].dtype == np.float64 and loaded.arrays[name].flags.writeable
        # byte-stable on rewrite
        path2 = tmp_path / "m2.ckpt"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_saved_bytes_pinned(self, tmp_path):
        """The exact bytes of a tiny store: sorted keys, no spaces, ASCII, each array's
        data base64 of its little-endian float64 bytes."""
        store = ParameterStore()
        store.add("w", np.array([[0.1, -2.5, 1e-7], [1 / 3, 3.0, -0.0]]))
        store.add("b", np.array([1e300]))
        store.meta = {"kind": "base", "config": {"h": 2, "lr": 0.001, "delta": None},
                      "curve": [0.5, 0.25], "name": "\u00e9"}
        store.save(tmp_path / "tiny.ckpt")
        assert (tmp_path / "tiny.ckpt").read_bytes() == (
            b'{"arrays":{"b":{"data":"nHUAiDzkN34=","shape":[1]},"w":{"data":'
            b'"mpmZmZmZuT8AAAAAAAAEwEivvJry13o+VVVVVVVV1T8AAAAAAAAIQAAAAAAAAACA",'
            b'"shape":[2,3]}},"format":"motifx-ckpt/2",'
            b'"meta":{"config":{"delta":null,"h":2,"lr":0.001},"curve":[0.5,0.25],'
            b'"kind":"base","name":"\\u00e9"}}\n')

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text('{"format": "other", "meta": {}, "arrays": {}}')
        with pytest.raises(ValueError, match="format"):
            ParameterStore.load(path)

    GOOD = {"format": "motifx-ckpt/2", "meta": {"kind": "base", "k_nb": 4},
            "arrays": {"w": {"shape": [2, 3], "data": ckpt_data([0.0] * 6)}}}

    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "c.ckpt"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def test_good_base_checkpoint_loads(self, tmp_path):
        store = ParameterStore.load(self.write(tmp_path, self.GOOD))
        assert store.arrays["w"].shape == (2, 3)
        assert store.meta["k_nb"] == 4

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_data_rejected(self, tmp_path, token):
        payload = json.loads(json.dumps(self.GOOD))
        payload["arrays"]["w"]["data"] = ckpt_data([0.0] * 5 + [float(token)])
        with pytest.raises(CheckpointError, match="'w' holds non-finite values"):
            ParameterStore.load(self.write(tmp_path, payload))

    @pytest.mark.parametrize("name", ["missing.ckpt", "."], ids=["missing", "directory"])
    def test_unopenable_path(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(CheckpointError, match="cannot be read") as info:
            ParameterStore.load(path)
        assert str(path) in str(info.value)

    def test_not_json(self, tmp_path):
        with pytest.raises(CheckpointError, match="not JSON"):
            ParameterStore.load(self.write(tmp_path, '{"format": "motifx-ckpt/2", '))

    def test_nested_too_deep(self, tmp_path):
        with pytest.raises(CheckpointError, match="not JSON"):
            ParameterStore.load(self.write(tmp_path, "[" * 200_000 + "]" * 200_000))

    # the last: a whole format-1 checkpoint, its data decimal lists
    @pytest.mark.parametrize("payload", [[1, 2], {"format": "motifx-ckpt/0"}, {}, {
        "format": "motifx-ckpt/1", "meta": {"kind": "base", "k_nb": 4},
        "arrays": {"w": {"shape": [2, 3], "data": [0.0] * 6}}}])
    def test_wrong_format(self, tmp_path, payload):
        with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
            ParameterStore.load(self.write(tmp_path, payload))

    @pytest.mark.parametrize("drop", ["meta", "arrays", "shape", "data"])
    def test_missing_key(self, tmp_path, drop):
        payload = json.loads(json.dumps(self.GOOD))
        if drop in payload:
            del payload[drop]
        else:
            del payload["arrays"]["w"][drop]
        with pytest.raises(CheckpointError, match=f"missing key '{drop}'"):
            ParameterStore.load(self.write(tmp_path, payload))

    @pytest.mark.parametrize("array, key, value", [
        (False, "arrays", [1, 2]), (False, "meta", [1, 2]), (True, "data", "abc"),
        (True, "shape", None), (True, "data", [0.0] * 6), (True, "data", 0.0),
        (True, "data", None), (True, "data", "AAAA AAAA AAA="), (True, "data", "A!AAAAAAAAA="),
        (True, "data", "AAAAAAAAAAA"), (True, "data", "A" * 16)],  # 16 characters: 12 bytes
        ids=["arrays-list", "meta-list", "data-string", "shape-null", "data-list", "data-number",
             "data-null", "data-space", "data-not-base64", "data-no-padding", "data-12-bytes"])
    def test_malformed_structure(self, tmp_path, array, key, value):
        payload = json.loads(json.dumps(self.GOOD))
        (payload["arrays"]["w"] if array else payload)[key] = value
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            ParameterStore.load(self.write(tmp_path, payload))

    @pytest.mark.parametrize("shape,data", [([4, 3], [0.0] * 6), ([3, 2], [0.0] * 5),
                                            ([], [])])
    def test_data_length_differs_from_shape(self, tmp_path, shape, data):
        payload = json.loads(json.dumps(self.GOOD))
        payload["arrays"]["w"] = {"shape": shape, "data": ckpt_data(data)}
        with pytest.raises(CheckpointError, match="array 'w'"):
            ParameterStore.load(self.write(tmp_path, payload))

    @pytest.mark.parametrize("k_nb", [0, -2, None, "8"])
    def test_base_checkpoint_needs_a_slot(self, tmp_path, k_nb):
        payload = json.loads(json.dumps(self.GOOD))
        payload["meta"]["k_nb"] = k_nb
        with pytest.raises(CheckpointError, match="k_nb"):
            ParameterStore.load(self.write(tmp_path, payload))

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("x", np.zeros(2))
        with pytest.raises(ValueError):
            store.add("x", np.zeros(2))


def test_backward_requires_scalar_root():
    with pytest.raises(ShapeError):
        backward(nn.const(np.ones(3)))


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = nn.glorot_uniform(rng, 30, 50)
    lim = np.sqrt(6 / 80)
    assert w.shape == (30, 50)
    assert np.all(np.abs(w) <= lim)


def test_log_spaced_freqs_cover_range():
    w = nn.log_spaced_freqs(1000.0, 5)
    assert w[0] == pytest.approx(1e-3)
    assert w[-1] == pytest.approx(1.0)
    assert np.all(np.diff(w) > 0)
