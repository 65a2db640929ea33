import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motifx.graph import TemporalGraph, generate_synthetic
from motifx.metrics import (SPARSITY_LEVELS, acc_auc, average_precision,
                            cohesiveness, random_baseline, retained_size,
                            trapezoid_auc)

from oracles import (average_precision_scalar, cohesiveness_scalar,
                     reference_random_baseline, trapezoid_scalar)


class TestFidelity:
    def test_full_view_is_exactly_zero(self):
        from motifx.metrics import fidelity
        for f_full in (0.7, 0.3, 0.5):
            assert fidelity(f_full, [f_full]).tolist() == [0.0]

    def test_positive_label_direction(self):
        from motifx.metrics import fidelity
        assert fidelity(0.7, [0.9, 0.6]) == pytest.approx([0.2, -0.1])

    def test_negative_label_flips_sign(self):
        from motifx.metrics import fidelity
        assert fidelity(0.3, [0.9, 0.1]) == pytest.approx([-0.6, 0.2])

    def test_a_column_of_full_views_broadcasts_row_by_row(self):
        from motifx.metrics import fidelity
        full = np.array([[0.7], [0.3], [0.5]])
        views = np.array([[0.9, 0.6], [0.9, 0.1], [0.2, 0.5]])
        want = [fidelity(float(f), v).tolist() for f, v in zip(full[:, 0], views)]
        assert fidelity(full, views).tolist() == want


class TestSparsity:
    def test_levels_grid(self):
        assert SPARSITY_LEVELS[0] == 0.0
        assert SPARSITY_LEVELS[-1] == 0.3
        assert len(SPARSITY_LEVELS) == 16
        assert np.allclose(np.diff(SPARSITY_LEVELS), 0.02)


class TestAccAuc:
    def test_all_matched_is_hundred(self):
        acc = {lv: 1.0 for lv in SPARSITY_LEVELS}
        assert acc_auc(acc) == pytest.approx(100.0)

    def test_none_matched_is_zero(self):
        acc = {lv: 0.0 for lv in SPARSITY_LEVELS}
        assert acc_auc(acc) == 0.0

    def test_linear_rise_is_fifty(self):
        vals = np.linspace(0.0, 1.0, 16)
        acc = dict(zip(SPARSITY_LEVELS, vals))
        assert acc_auc(acc) == pytest.approx(50.0, abs=1e-9)

    @given(st.lists(st.floats(0, 1), min_size=16, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_trapezoid(self, vals):
        acc = dict(zip(SPARSITY_LEVELS, vals))
        want = 100.0 * trapezoid_scalar(list(SPARSITY_LEVELS), vals)
        assert acc_auc(acc) == pytest.approx(want, abs=1e-9)
        assert -1e-9 <= acc_auc(acc) <= 100.0 + 1e-9


def line_graph(times, edges, n):
    return TemporalGraph([e[0] for e in edges], [e[1] for e in edges],
                         times, np.zeros((len(edges), 0)), n)


class TestCohesiveness:
    def test_two_adjacent_equal_times(self):
        g = line_graph([5.0, 5.0, 9.0], [(0, 1), (1, 2), (3, 4)], 5)
        assert cohesiveness(g, {0, 1}, {0, 1, 2}) == pytest.approx(1.0)

    def test_two_disjoint_events(self):
        g = line_graph([1.0, 2.0], [(0, 1), (2, 3)], 4)
        assert cohesiveness(g, {0, 1}, {0, 1}) == 0.0

    def test_below_two_events_undefined(self):
        g = line_graph([1.0], [(0, 1)], 2)
        assert cohesiveness(g, {0}, {0}) is None
        assert cohesiveness(g, set(), {0}) is None

    def test_three_event_fixture_matches_direct_sum(self):
        # (0,1)@0, (1,2)@5, (3,4)@10 -> span 10; only the first two share node 1
        g = line_graph([0.0, 5.0, 10.0], [(0, 1), (1, 2), (3, 4)], 5)
        got = cohesiveness(g, {0, 1, 2}, {0, 1, 2})
        want = cohesiveness_scalar(
            [(0.0, {0, 1}), (5.0, {1, 2}), (10.0, {3, 4})], span=10.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(2 * math.cos(0.5) / 6, abs=1e-12)

    def test_bounded_and_relabel_invariant(self):
        g = generate_synthetic("uniform-random", 10, 40, seed=2)
        comp = set(range(20, 40))
        retained = set(range(25, 33))
        c = cohesiveness(g, retained, comp)
        assert 0.0 <= c <= 1.0
        # relabeling event ids == using a graph with identical structure
        g2 = TemporalGraph(g.src.copy(), g.dst.copy(), g.t.copy(), g.attrs.copy(),
                           g.node_count)
        assert cohesiveness(g2, retained, comp) == c


class TestRandomBaseline:
    def test_full_at_level_one(self):
        comp = set(range(9))
        assert random_baseline(comp, 1.0, seed=0) == comp

    def test_size_is_ceiling(self):
        comp = set(range(10))
        for lv in (0.02, 0.1, 0.25, 0.3):
            assert len(random_baseline(comp, lv, seed=1)) == math.ceil(lv * 10)

    def test_deterministic(self):
        comp = set(range(30))
        assert random_baseline(comp, 0.2, seed=5) == random_baseline(comp, 0.2, seed=5)
        assert random_baseline(comp, 0.2, seed=5) != random_baseline(comp, 0.2, seed=6)

    def test_subset_of_comp(self):
        comp = set(range(40, 80))
        assert random_baseline(comp, 0.15, seed=2) <= comp

    def test_same_draws_as_the_reference(self):
        """The same set as the first version over sizes 0-80 (unsorted lists, sets and
        arrays), every evaluation level plus levels at and past 1 (size >= |G(e)|), and
        evaluation-style seeds."""
        rng = np.random.default_rng(9)
        for n in (0, 1, 2, 3, 7, 20, 33, 80):
            ids = rng.choice(10 ** 6, size=n, replace=False)
            for comp in (ids.tolist(), set(ids.tolist()), ids):
                for lv in SPARSITY_LEVELS + (0.5, 0.99, 1.0, 1.5):
                    for seed in (0, 7, 3 * 100003 + 31 + int(lv * 50)):
                        got = random_baseline(comp, lv, seed)
                        assert got == reference_random_baseline(comp, lv, seed), (n, lv, seed)
                        assert all(type(e) is int for e in got)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_worst_ranking(self):
        ap = average_precision([1, 0, 0, 0], [0.1, 0.5, 0.6, 0.9])
        assert ap == pytest.approx(0.25)

    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1)), min_size=2, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_oracle(self, rows):
        labels = [r[0] for r in rows]
        scores = [r[1] for r in rows]
        assert average_precision(labels, scores) == pytest.approx(
            average_precision_scalar(labels, scores), abs=1e-12)


def test_retained_size_rounding():
    assert retained_size(0.02, 40) == 1
    assert retained_size(0.0, 40) == 0
    assert retained_size(0.3, 40) == 12
    assert retained_size(0.3, 41) == 13


def test_acc_auc_constant_curve_equals_that_accuracy():
    acc = {lv: 0.7 for lv in SPARSITY_LEVELS}
    assert acc_auc(acc) == pytest.approx(70.0, abs=1e-9)
