import math

import numpy as np
from hypothesis import given, settings, strategies as st

from motifx import nn
from motifx.explainer import _encoder_inputs
from motifx.features import event_feature_block, feature_width
from motifx.graph import TemporalGraph
from motifx.layers import time_encode
from motifx.motifs import MotifInstance
from motifx.nn import ParameterStore, Tape, grad_check


def encoder_rows(instances, l=3, attrs=None, t0=100.0):
    """`_encoder_inputs` over hand-built instances, each a list of (u, v, t) events.

    Every listed event becomes its own graph event, with its row of `attrs`;
    the returned rows follow the listing order (instance by instance,
    position by position).
    """
    events = [e for events in instances for e in events]
    src, dst, t = (np.array(col) for col in zip(*events))
    attrs = np.zeros((len(events), 0)) if attrs is None else np.asarray(attrs, dtype=float)
    g = TemporalGraph(src, dst, t, attrs, int(max(src.max(), dst.max())) + 1)
    ids = np.empty(len(events), dtype=np.int64)
    ids[np.argsort(t, kind="stable")] = np.arange(len(events))  # the graph sorts by time
    insts, off = [], 0
    for events in instances:
        k = len(events)
        insts.append(MotifInstance(anchor=events[0][0], t0=t0,
                                   event_ids=tuple(int(i) for i in ids[off:off + k]),
                                   pairs=tuple((u, v) for u, v, _ in events),
                                   times=tuple(float(x) for _, _, x in events),
                                   truncated=k < l))
        off += k
    return _encoder_inputs(g, t0, insts, np.arange(len(events)), l)


def h_rows(instances, l=3):
    return encoder_rows(instances, l)["h_block"]


class TestAnonymize:
    """Structural counts h: per event, the events at each position that join its node pair."""

    def test_two_instances_same_first_pair(self):
        h = h_rows([[(1, 2, 30), (2, 3, 20), (3, 4, 10)],
                    [(1, 2, 31), (2, 5, 21), (5, 6, 11)]])
        assert h[0].tolist() == h[3].tolist() == [2, 0, 0]

    def test_missing_pair_is_all_zero_by_absence(self):
        # each pair sits at one position; no other pair adds to its counts
        h = h_rows([[(1, 2, 30), (2, 3, 20), (3, 4, 10)]])
        assert np.array_equal(h, np.eye(3))

    def test_positional_counts(self):
        h = h_rows([[(1, 2, 30), (2, 3, 20), (1, 2, 10)]])
        assert h[0].tolist() == h[2].tolist() == [1, 0, 1]
        assert h[1].tolist() == [0, 1, 0]

    def test_unordered_pairs(self):
        h = h_rows([[(2, 1, 30.0)], [(1, 2, 40.0)]])
        assert h.tolist() == [[2, 0, 0], [2, 0, 0]]

    def test_truncated_counts_filled_positions_only(self):
        h = h_rows([[(1, 2, 30), (2, 3, 20)]])
        assert h.shape == (2, 3)
        assert h[1].tolist() == [0, 1, 0]

    @given(st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_permutation_invariant(self, order):
        insts = [[(1, 2, 30), (2, 3, 20)],
                 [(1, 3, 33), (3, 4, 22), (4, 1, 11)],
                 [(2, 3, 40.0)],
                 [(1, 2, 50), (1, 2, 45)]]
        starts = np.cumsum([0] + [len(x) for x in insts])
        base = h_rows(insts)
        shuffled = h_rows([insts[i] for i in order])
        rows = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in order])
        assert np.array_equal(base[rows], shuffled)


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
    """Encoder rows attrs || T(t0 - t) || h through `event_feature_block`."""

    def setup_method(self):
        self.w = nn.const(nn.log_spaced_freqs(100.0, 2))

    def block(self, instances, attrs=None):
        rows = encoder_rows(instances, attrs=attrs)
        return event_feature_block(rows["attrs_block"], rows["dts"], rows["h_block"],
                                   self.w).value

    def test_width_without_attrs(self):
        m = self.block([[(1, 2, 30), (2, 3, 20), (3, 1, 10)]])
        assert m.shape == (3, feature_width(0, 2, 3))
        assert feature_width(0, 2, 3) == 7

    def test_intervals_increase_down_rows(self):
        rows = encoder_rows([[(1, 2, 30), (2, 3, 20), (3, 1, 10)]])
        assert rows["dts"].tolist() == [70.0, 80.0, 90.0]
        m = self.block([[(1, 2, 30), (2, 3, 20), (3, 1, 10)]])
        # recover dt from the slowest cosine column: strictly decaying over rows here
        assert np.all(np.diff(m[:, 0]) < 0)

    def test_identical_events_identical_rows(self):
        m = self.block([[(1, 2, 30), (2, 3, 20)], [(1, 2, 30), (2, 3, 20)]])
        assert np.array_equal(m[:2], m[2:])

    def test_truncated_instance_shorter_matrix(self):
        assert self.block([[(1, 2, 30.0)]]).shape[0] == 1

    def test_attrs_pass_through_unscaled(self):
        attrs = np.array([[5.0, -1.0], [2.0, 0.5]])
        m = self.block([[(1, 2, 30), (2, 3, 20)]], attrs=attrs)
        assert np.array_equal(m[:, :2], attrs)
        # h block sits at the tail, raw counts
        assert np.array_equal(m[:, -3:], np.array([[1, 0, 0], [0, 1, 0]], dtype=float))


def test_anonymize_ignores_timestamps():
    a = h_rows([[(1, 2, 30), (2, 3, 20)]])
    b = h_rows([[(1, 2, 900.0), (2, 3, 4.5)]])
    assert np.array_equal(a, b)
