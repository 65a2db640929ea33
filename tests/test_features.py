import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifx import nn
from motifx.errors import InvariantError
from motifx.features import anonymize, event_feature_matrix, feature_width
from motifx.layers import time_encode
from motifx.motifs import MotifInstance
from motifx.nn import ParameterStore, Tape, grad_check


def inst(pairs, times, anchor=None, t0=100.0):
    anchor = anchor if anchor is not None else pairs[0][0]
    return MotifInstance(anchor=anchor, t0=t0, event_ids=tuple(range(len(pairs))),
                         pairs=tuple(pairs), times=tuple(times),
                         truncated=len(pairs) < 3)


class TestAnonymize:
    def test_two_instances_same_first_pair(self):
        a = inst([(1, 2), (2, 3), (3, 4)], [30, 20, 10])
        b = inst([(1, 2), (2, 5), (5, 6)], [31, 21, 11])
        h = anonymize([a, b], l=3)
        assert list(h[(1, 2)]) == [2, 0, 0]

    def test_missing_pair_is_all_zero_by_absence(self):
        a = inst([(1, 2), (2, 3), (3, 4)], [30, 20, 10])
        h = anonymize([a], l=3)
        assert (7, 8) not in h

    def test_positional_counts(self):
        a = inst([(1, 2), (2, 3), (1, 2)], [30, 20, 10])
        h = anonymize([a], l=3)
        assert list(h[(1, 2)]) == [1, 0, 1]
        assert list(h[(2, 3)]) == [0, 1, 0]

    def test_unordered_pairs(self):
        a = inst([(2, 1)], [30.0])
        b = inst([(1, 2)], [40.0])
        h = anonymize([a, b], l=3)
        assert list(h[(1, 2)]) == [2, 0, 0]

    def test_truncated_counts_filled_positions_only(self):
        a = inst([(1, 2), (2, 3)], [30, 20])
        h = anonymize([a], l=3)
        assert list(h[(2, 3)]) == [0, 1, 0]

    @given(st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_permutation_invariant(self, order):
        insts = [inst([(1, 2), (2, 3)], [30, 20]),
                 inst([(1, 3), (3, 4), (4, 1)], [33, 22, 11]),
                 inst([(2, 3)], [40.0]),
                 inst([(1, 2), (1, 2)], [50, 45])]
        base = anonymize(insts, l=3)
        shuffled = anonymize([insts[i] for i in order], l=3)
        assert set(base) == set(shuffled)
        assert all(np.array_equal(base[k], shuffled[k]) for k in base)


class TestTimeEncode:
    @staticmethod
    def encode(dts, d, t_max):
        w = nn.const(nn.log_spaced_freqs(t_max, d))
        return time_encode(np.asarray(dts, dtype=float), w).value

    def test_zero_interval(self):
        enc = self.encode([0.0], d=2, t_max=10.0)
        root = math.sqrt(0.5)
        assert np.allclose(enc, [[root, 0.0, root, 0.0]])

    def test_norm_bounded_by_sqrt_two(self):
        enc = self.encode(np.linspace(0, 999, 40), d=7, t_max=1000.0)
        assert np.all(np.linalg.norm(enc, axis=1) <= math.sqrt(2) + 1e-12)

    def test_output_width_is_twice_d(self):
        assert self.encode([1.0, 2.0], d=5, t_max=10.0).shape == (2, 10)

    def test_gradient_in_frequencies(self):
        store = ParameterStore()
        store.add("w", nn.log_spaced_freqs(50.0, 4))
        dts = np.array([0.5, 3.0, 12.0])
        probe = np.arange(24.0).reshape(3, 8)

        def loss(tape: Tape):
            return nn.vsum(nn.mul(time_encode(dts, tape.param("w")), nn.const(probe)))

        assert grad_check(loss, store, eps=1e-6) < 1e-5


class TestEventFeatureMatrix:
    def setup_method(self):
        self.w = nn.const(nn.log_spaced_freqs(100.0, 2))

    def test_width_without_attrs(self):
        a = inst([(1, 2), (2, 3), (3, 1)], [30, 20, 10])
        h = anonymize([a], l=3)
        m = event_feature_matrix(a, h, t0=100.0, time_w=self.w,
                                 attr_rows=np.zeros((3, 0)), l=3)
        assert m.value.shape == (3, feature_width(0, 2, 3))
        assert feature_width(0, 2, 3) == 7

    def test_intervals_increase_down_rows(self):
        a = inst([(1, 2), (2, 3), (3, 1)], [30, 20, 10])
        h = anonymize([a], l=3)
        m = event_feature_matrix(a, h, t0=100.0, time_w=self.w,
                                 attr_rows=np.zeros((3, 0)), l=3).value
        # recover dt from the slowest cosine column: strictly decaying over rows here
        assert np.all(np.diff(m[:, 0]) < 0)

    def test_identical_events_identical_rows(self):
        a = inst([(1, 2), (2, 3)], [30, 20])
        b = inst([(1, 2), (2, 3)], [30, 20])
        h = anonymize([a, b], l=3)
        ma = event_feature_matrix(a, h, 100.0, self.w, np.zeros((2, 0)), 3).value
        mb = event_feature_matrix(b, h, 100.0, self.w, np.zeros((2, 0)), 3).value
        assert np.array_equal(ma, mb)

    def test_truncated_instance_shorter_matrix(self):
        a = inst([(1, 2)], [30.0])
        h = anonymize([a], l=3)
        m = event_feature_matrix(a, h, 100.0, self.w, np.zeros((1, 0)), 3)
        assert m.value.shape[0] == 1

    def test_missing_pair_raises(self):
        a = inst([(1, 2), (2, 3)], [30, 20])
        h = anonymize([a], l=3)
        del h[(2, 3)]
        with pytest.raises(InvariantError, match="missing"):
            event_feature_matrix(a, h, 100.0, self.w, np.zeros((2, 0)), 3)

    def test_attrs_pass_through_unscaled(self):
        a = inst([(1, 2), (2, 3)], [30, 20])
        h = anonymize([a], l=3)
        attrs = np.array([[5.0, -1.0], [2.0, 0.5]])
        m = event_feature_matrix(a, h, 100.0, self.w, attrs, 3).value
        assert np.array_equal(m[:, :2], attrs)
        # h block sits at the tail, raw counts
        assert np.array_equal(m[:, -3:], np.array([[1, 0, 0], [0, 1, 0]], dtype=float))


def test_anonymize_ignores_timestamps():
    a = inst([(1, 2), (2, 3)], [30, 20])
    b = inst([(1, 2), (2, 3)], [900.0, 4.5])
    ha = anonymize([a], l=3)
    hb = anonymize([b], l=3)
    assert set(ha) == set(hb)
    assert all(np.array_equal(ha[k], hb[k]) for k in ha)
