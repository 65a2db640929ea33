import numpy as np
import pytest

from motifx import nn
from motifx.layers import (TEMPERATURE, add_gine_params, concrete_sample, gine_layer,
                           masked_attention)
from motifx.nn import ParameterStore, Tape


class TestConcrete:
    def test_logits_cancel_at_half(self):
        out = concrete_sample(nn.const(np.array([0.5])), np.array([0.5]))
        assert float(out.value[0]) == pytest.approx(0.5, abs=1e-12)

    def test_draw_at_the_one_temperature(self):
        """sigma((logit(p) + logit(u)) / 0.5): the relaxation's temperature is TEMPERATURE."""
        p, u = np.array([0.8, 0.1]), np.array([0.3, 0.9])
        logit = lambda x: np.log(x) - np.log1p(-x)
        out = concrete_sample(nn.const(p), u)
        want = 1 / (1 + np.exp(-(logit(p) + logit(u)) / 0.5))
        assert TEMPERATURE == 0.5
        assert out.value == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_mean_matches_probability(self):
        rng = np.random.default_rng(123)
        u = rng.uniform(1e-9, 1 - 1e-9, size=10_000)
        out = concrete_sample(nn.const(np.full(10_000, 0.9)), u)
        assert np.mean(out.value > 0.5) == pytest.approx(0.9, abs=0.02)

    def test_extreme_probabilities_clamped(self):
        out = concrete_sample(nn.const(np.array([0.0, 1.0])), np.array([0.5, 0.5]))
        assert np.all(np.isfinite(out.value))
        assert 0.0 < out.value[0] < out.value[1] < 1.0


def gine_store(node_dim, edge_dim, seed=0):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    add_gine_params(store, "gine0", node_dim, edge_dim, rng)
    return store


def gine(tape, x, labels, e):
    """`gine_layer` on one motif: x (n, h) node states, labels (l, 2) each event's u and v
    node, e (l, w) event features."""
    n = x.shape[0]
    src = (np.asarray(labels).reshape(1, -1, 1) == np.arange(n)).astype(float)
    out = gine_layer(tape, "gine0", nn.const(x[None]), src, nn.const(e))
    return out.value[0]


class TestGine:
    def test_isolated_node_is_pure_self_update(self):
        store = gine_store(3, 2, seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3))
        e = rng.normal(size=(1, 2))
        tape = Tape(store)
        # node 1 is isolated: the one event is a 0 -> 0 self loop
        out = gine(tape, x, [[0, 0]], e)
        # recompute the empty-sum path for node 1 by hand
        eps = store.arrays["gine0.eps"][0]
        pre = (1 + eps) * x[1]
        hid = np.maximum(pre @ store.arrays["gine0.h1a.w"] + store.arrays["gine0.h1a.b"], 0)
        want = hid @ store.arrays["gine0.h1b.w"] + store.arrays["gine0.h1b.b"]
        assert np.allclose(out[1], want, atol=1e-12)

    def test_symmetric_pair_gets_symmetric_outputs(self):
        store = gine_store(4, 3, seed=3)
        x = np.tile(np.array([[0.3, -1.0, 0.7, 0.1]]), (2, 1))
        e = np.array([[1.0, 0.5, -0.2]])
        out = gine(Tape(store), x, [[0, 1]], e)
        assert np.allclose(out[0], out[1], atol=1e-12)

    def test_padding_slot_sends_nothing(self):
        store = gine_store(4, 3, seed=5)
        rng = np.random.default_rng(6)
        x, e = rng.normal(size=(3, 4)), rng.normal(size=(2, 3))
        tape = Tape(store)
        padded = gine(tape, x, [[0, 1], [-1, -1]], e)
        e[1] = rng.normal(size=3)  # a padding slot's features never reach a node
        assert np.array_equal(gine(tape, x, [[0, 1], [-1, -1]], e), padded)

    def test_edge_width_mismatch_raises(self):
        from motifx.errors import ShapeError
        store = gine_store(4, 3, seed=4)
        tape = Tape(store)
        with pytest.raises(ShapeError):
            gine(tape, np.ones((2, 5)), [[0, 1]], np.ones((1, 3)))


class TestMaskedAttention:
    """The compacted form: one query, key and value row per valid slot of (R, K) rows."""

    @staticmethod
    def attend(q, keys, values, mask, valid):
        """One row's attention output: q repeated down its valid slots."""
        valid = np.asarray(valid, dtype=bool).reshape(1, -1)
        return masked_attention(nn.const(np.tile(q, (int(valid.sum()), 1))), nn.const(keys),
                                nn.const(values), nn.const(np.reshape(mask, (1, -1))),
                                valid).value[0]

    def test_hard_mask_equals_subset_attention(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=4)
        keys = rng.normal(size=(6, 4))
        values = rng.normal(size=(6, 4))
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        out_masked = self.attend(q, keys, values, mask, np.ones(6))
        keep = mask.astype(bool)
        out_valid = self.attend(q, keys[keep], values[keep], np.ones(6), keep)
        out_subset = self.attend(q, keys[keep], values[keep], np.ones(4), np.ones(4))
        assert np.allclose(out_masked, out_subset, atol=1e-12)
        assert out_valid.tobytes() == out_subset.tobytes()

    def test_all_ones_mask_is_plain_softmax_mixture(self):
        rng = np.random.default_rng(6)
        q = rng.normal(size=3)
        keys = rng.normal(size=(5, 3))
        values = rng.normal(size=(5, 3))
        out = self.attend(q, keys, values, np.ones(5), np.ones(5))
        scores = keys @ q / np.sqrt(3)
        w = np.exp(scores - scores.max())
        w /= w.sum()
        assert np.allclose(out, w @ values, atol=1e-12)

    def test_rows_without_a_valid_slot_return_zeros(self):
        rng = np.random.default_rng(7)
        valid = np.array([[False, False, False], [True, False, True]])
        out = masked_attention(nn.const(rng.normal(size=(2, 3))), nn.const(rng.normal(size=(2, 3))),
                               nn.const(rng.normal(size=(2, 4))), nn.const(np.ones((2, 3))),
                               valid).value
        assert out.shape == (2, 4) and not np.any(out[0]) and np.all(out[1])
