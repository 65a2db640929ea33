import hashlib
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from motifx import graph, motifs
from motifx.errors import MotifxError
from motifx.graph import TemporalGraph, generate_synthetic
from motifx.motifs import (_below, _count_terms, anchor_time, census, code_alphabet,
                           empirical_class_probs, endpoint_rows, first_touch, graph_census,
                           motif_codes, null_class_probs, null_model, sample_id_block,
                           total_variation)

from conftest import random_graph
from oracles import (EnumerationLimitError, admissible, anchored_equivalent,
                     brute_force_neighbor_events, enumerate_motifs, enumerate_reference,
                     reference_id_block, reference_motif_code, reference_sample_motifs,
                     trajectory_probability, validate_instance)


def paths(block) -> list:
    """The event-id tuple of each row of an id block, padding dropped."""
    return [tuple(e for e in row if e >= 0) for row in block.tolist()]


def rows(block) -> set:
    """The rows of an id block as a set of tuples, padding kept."""
    return set(map(tuple, block.tolist()))


def code(anchor, *pairs) -> str:
    """`motif_codes` of one hand-written endpoint row u_0, v_0, u_1, v_1, ..."""
    return motif_codes(np.array([[x for pair in pairs for x in pair]]), [anchor])[0]


class TestSampling:
    def test_chain_unique_trajectory(self, chain_graph):
        ids, live = sample_id_block(chain_graph, [3], [4.0], [1], n=4, l=3, c=5)
        assert ids.tolist() == [[2, 1, 0]] * 5 and live.tolist() == [0]

    def test_chain_single_event(self, chain_graph):
        ids, _ = sample_id_block(chain_graph, [3], [4.0], [1], n=4, l=1, c=5)
        assert ids.tolist() == [[2]] * 5

    def test_no_history_returns_empty(self, chain_graph):
        ids, live = sample_id_block(chain_graph, [0], [1.0], [0], n=3, l=3, c=5)
        assert ids.shape == (0, 3) and len(live) == 0

    def test_deterministic_given_seed(self):
        g = generate_synthetic("uniform-random", 10, 60, seed=2)
        a = sample_id_block(g, [3], [61.0], [9], n=3, l=3, c=50)
        b = sample_id_block(g, [3], [61.0], [9], n=3, l=3, c=50)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_delta_window_respected(self):
        g = generate_synthetic("uniform-random", 8, 50, seed=4)
        ids, _ = sample_id_block(g, [2], [51.0], [1], n=3, l=3, c=200, delta=5.0)
        for path in paths(ids):
            assert 51.0 - g.t[path[-1]] <= 5.0

    @pytest.mark.parametrize("seed", range(12))
    def test_sampled_instances_are_valid(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n_events=35)
        u0 = int(rng.integers(g.node_count))
        t0 = float(g.n_events + 1)
        delta = None if seed % 2 else float(rng.integers(5, 40))
        for row in sample_id_block(g, [u0], [t0], [seed], n=3, l=3, c=60, delta=delta)[0]:
            assert validate_instance(g, u0, row, t0, 3, 3, delta) == []


def kernel_case(seed: int) -> tuple:
    """A small random graph (tied times at even seeds) and one walker setting on it."""
    rng = np.random.default_rng(seed + 900)
    g = random_graph(rng, n_events=int(rng.integers(10, 40)), duplicate_times=seed % 2 == 0)
    n, l = [(2, 3), (3, 3), (4, 4), (3, 1), (3, 4), (4, 3)][seed % 6]
    delta = None if seed % 3 else float(rng.integers(2, 15))
    u0 = int(rng.integers(g.node_count))
    t0 = float(rng.choice(g.t)) + (0.5 if seed % 4 else 0.0)
    return g, n, l, delta, u0, t0


class TestBatchKernel:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_sampler(self, seed):
        g, n, l, delta, u0, t0 = kernel_case(seed)
        got = paths(sample_id_block(g, [u0], [t0], [seed], n, l, 40, delta)[0])
        assert got == reference_sample_motifs(g, u0, t0, n, l, 40, delta, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_per_anchor_calls(self, seed):
        rng = np.random.default_rng(seed + 950)
        g = random_graph(rng, n_events=int(rng.integers(20, 60)), duplicate_times=seed % 2 == 1)
        k = 12
        anchors = rng.integers(g.node_count, size=k)
        anchors[1] = anchors[0]  # the same anchor twice, at another time
        t0s = rng.choice(np.append(g.t, [0.0, 1e9]), size=k) + 0.25
        t0s[2] = -np.inf
        seeds = rng.integers(0, 2**32, size=k)
        delta = None if seed % 2 else 6.0
        ids, live = sample_id_block(g, anchors, t0s, seeds, n=3, l=3, c=15, delta=delta)
        by_anchor = dict(zip(live.tolist(), ids.reshape(len(live), 15, 3)))
        for i, (a, t0, sd) in enumerate(zip(anchors, t0s, seeds)):
            alone, alone_live = sample_id_block(g, [a], [t0], [sd], 3, 3, 15, delta)
            assert np.array_equal(by_anchor.get(i, np.empty((0, 3))), alone)
            assert len(alone_live) == (i in by_anchor)
        assert 2 not in by_anchor

    def test_empty_batch_and_empty_graph(self, chain_graph):
        ids, live = sample_id_block(chain_graph, [], [], [])
        assert ids.shape == (0, 3) and len(live) == 0
        empty = TemporalGraph([], [], [], np.zeros((0, 0)), 3)
        ids, live = sample_id_block(empty, [0, 1], [5.0, 5.0], [0, 0])
        assert ids.shape == (0, 3) and len(live) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_candidate_counts_match_scan(self, seed):
        """Open and closed counts below every id bound equal the definition's scan."""
        rng = np.random.default_rng(seed + 970)
        g = random_graph(rng, n_events=int(rng.integers(15, 45)), duplicate_times=True)
        n = int(rng.integers(2, 5))
        rows, los, closed, want = [], [], [], []
        for _ in range(20):
            size = int(rng.integers(1, n + 1))
            S = rng.choice(g.node_count, size=min(size, g.node_count), replace=False)
            lo = int(rng.integers(0, g.n_events + 1))
            rows.append(list(S) + [-1] * (n - len(S)))
            los.append(lo)
            closed.append(len(S) >= n)
            # the scan sees every admissible event; the counts cover ids >= lo
            ids = np.array(admissible(g, set(int(x) for x in S), np.inf, n), dtype=np.int64)
            want.append([int(np.sum(ids[ids >= lo] < m)) for m in range(g.n_events + 1)])
        terms = _count_terms(g, np.array(rows, dtype=np.int64), np.array(los),
                             np.array(closed))
        for m in range(g.n_events + 1):
            got = _below(g, terms, np.maximum(np.full(len(rows), m), los))
            assert got.tolist() == [w[max(m, lo)] for w, lo in zip(want, los)]


def tied_case(seed: int, n: int, l: int) -> tuple:
    """A small random graph with tied timestamps, every node an anchor at a random
    time (some exactly on an event's time), and a window at odd seeds."""
    rng = np.random.default_rng(seed + 990 + 10 * n + l)
    g = random_graph(rng, n_events=int(rng.integers(20, 60)), duplicate_times=True)
    anchors = np.arange(g.node_count)
    t0s = rng.choice(np.append(g.t, g.t[-1] + 1.0), size=len(anchors))
    t0s += rng.choice([0.0, 0.5], size=len(anchors))
    seeds = rng.integers(0, 2**32, size=len(anchors))
    delta = float(rng.integers(2, 15)) if seed % 2 else None
    return g, anchors, t0s, seeds, delta


def census_hubs_case() -> tuple:
    """The census-hubs benchmark graph and its census anchors at last activity."""
    g = generate_synthetic("preferential-attachment", 200, 20000, seed=7)
    t0s = [anchor_time(g, v) for v in range(g.node_count)]
    nodes = [v for v, t0 in enumerate(t0s) if math.isfinite(t0)]
    return g, nodes, [t0s[v] for v in nodes]


def census_hubs_digest(g, nodes, t0s) -> str:
    """The sha256 of the census-hubs walker block (C = 20, seed 7) and its live anchors."""
    ids, live = sample_id_block(g, nodes, t0s, [7] * len(nodes), 3, 3, 20)
    return hashlib.sha256(ids.tobytes() + live.astype(np.int64).tobytes()).hexdigest()


census_hubs = pytest.fixture(scope="module")(census_hubs_case)
# numpy's dispatched AVX-512 sort kernels; a child process runs without them
AVX512_SORT = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


class TestBracketedWalker:
    """The bracketed walker against the walker that bisects every walker over its
    whole window, and each bracket against the admissible scan's pick."""

    @pytest.mark.parametrize("delta", [None, 200.0])
    def test_census_hubs_block_matches_reference(self, census_hubs, delta, monkeypatch):
        """Also checks that some lookup here takes `search`'s ascending path, which the
        small test graphs never reach."""
        g, nodes, t0s = census_hubs
        sizes, search = [], graph.search

        def record(sorted_arr, needles):
            sizes.append(np.size(needles))
            return search(sorted_arr, needles)
        for module in (graph, motifs):
            monkeypatch.setattr(module, "search", record)
        got = sample_id_block(g, nodes, t0s, [7] * len(nodes), 3, 3, 20, delta)
        assert max(sizes) >= graph.ASCENDING_FROM
        want = reference_id_block(g, nodes, t0s, [7] * len(nodes), 3, 3, 20, delta)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_census_hubs_block_without_avx512_sort(self, census_hubs):
        """The block's bytes do not hang on numpy's sort kernel: a child process with the
        AVX-512 kernels switched off, so that `argsort` may order equal needles otherwise,
        draws the same block."""
        from numpy._core._multiarray_umath import __cpu_features__
        off = [f for f in AVX512_SORT if __cpu_features__.get(f)]
        if not off:
            pytest.skip("this CPU runs none of numpy's AVX-512 sort kernels")
        tests = Path(__file__).resolve().parent
        script = ("import sys\n"
                  "from numpy._core._multiarray_umath import __cpu_features__ as on\n"
                  "from test_motifs import census_hubs_case, census_hubs_digest\n"
                  "assert not any(on[f] for f in sys.argv[1:])\n"
                  "print(census_hubs_digest(*census_hubs_case()))\n")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        child = subprocess.run([sys.executable, "-c", script, *off], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == census_hubs_digest(*census_hubs)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n,l", [(n, l) for n in (2, 3, 4) for l in (2, 3, 4)])
    def test_tied_block_matches_reference(self, seed, n, l):
        g, anchors, t0s, seeds, delta = tied_case(seed, n, l)
        got = sample_id_block(g, anchors, t0s, seeds, n, l, 15, delta)
        want = reference_id_block(g, anchors, t0s, seeds, n, l, 15, delta)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    PIVOT_CASES = {  # (src, dst, walker seed): events at times 1, 2, ..., anchor 0
        "clip": ([1, 2, 3, 0, 2, 3, 1, 3], [0, 3, 0, 2, 0, 0, 0, 0], 49),
        "hit": ([1, 2, 0, 0, 1, 0, 1, 1, 2, 2], [2, 0, 1, 2, 2, 2, 2, 0, 0, 1], 93),
    }

    @pytest.mark.parametrize("case", sorted(PIVOT_CASES))
    def test_pivot_paths_match_reference(self, monkeypatch, case):
        """One walker (n = l = 3) whose search takes the pivot rule's two special paths.
        In `clip` the entry e of a round is the last id before high, so the pivot is
        high - 1, not e + 1. In `hit` the bracket leaves the walker undecided at
        steps 1 and 2 with low < e, and each search ends in one round: the pivot e + 1
        counts exactly `want`, so the pick is e; without that rule each takes two rounds."""
        src, dst, seed = self.PIVOT_CASES[case]
        g = TemporalGraph(src, dst, np.arange(1.0, len(src) + 1), np.zeros((len(src), 0)),
                          max(src + dst) + 1)
        rounds, pivots = [], motifs._pivots

        def record(*args):
            e, pivot = pivots(*args)
            rounds.append((int(e[0]), int(pivot[0]), int(args[5][0])))
            return e, pivot
        monkeypatch.setattr(motifs, "_pivots", record)
        got = sample_id_block(g, [0], [len(src) + 1.0], [seed], 3, 3, 1)
        want = reference_id_block(g, [0], [len(src) + 1.0], [seed], 3, 3, 1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        if case == "clip":
            assert any(pivot == high - 1 != e + 1 for e, pivot, high in rounds)
        else:
            picks = got[0][0, 1:].tolist()
            assert [(e, pivot) for e, pivot, _ in rounds] == [(k, k + 1) for k in picks]

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n,l", [(n, l) for n in (2, 3, 4) for l in (2, 3, 4)])
    def test_bracket_holds_the_scan_pick(self, monkeypatch, seed, n, l):
        """Step 0 reads the scan's pick off the anchor's row; each later step's bracket
        holds the scan's pick."""
        g, anchors, t0s, seeds, delta = tied_case(seed, n, l)
        c, brackets, bracket = 15, [], motifs._bracket

        def record(*args):  # the search narrows the bracket in place, so keep a copy
            low, high = bracket(*args)
            brackets.append((low.copy(), high.copy()))
            return low, high
        monkeypatch.setattr(motifs, "_bracket", record)
        ids, live = sample_id_block(g, anchors, t0s, seeds, n, l, c, delta)
        # one bracket per step after step 0 until no walker is left; later steps take
        # no event
        assert len(brackets) <= l - 1 and all(len(low) for low, _ in brackets)
        assert np.all(ids[:, 1 + len(brackets):] < 0) and np.all(ids[:, 0] >= 0)
        steps = [None] + brackets
        for j in range(1 + len(brackets)):
            walkers = np.flatnonzero(ids[:, j] >= 0)
            if j:
                low, high = steps[j]
                assert len(low) == len(walkers)
            for k, w in enumerate(walkers):
                a = int(anchors[live[w // c]])
                t0 = float(t0s[live[w // c]])
                draw = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                    [int(seeds[live[w // c]]), a]))).random((c, l))[w % c, j]
                S = {a} | {int(x) for i in ids[w, :j] for x in (g.src[i], g.dst[i])}
                t_prev = float(g.t[ids[w, j - 1]]) if j else t0
                cands = admissible(g, S, t_prev, n, -math.inf if delta is None else t0 - delta)
                pick = cands[int(draw * len(cands))]
                if j:
                    assert low[k] <= pick < high[k]
                else:
                    assert ids[w, 0] == pick

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_packed_terms_count_the_scan(self, seed, windowed, n):
        """Open (one node short), closed and padded walkers on a graph with tied times
        get C(n, 2) terms each, and `_below` over them equals the scan's count at every
        id bound."""
        rng = np.random.default_rng(seed + 10 * n + 1010)
        g = random_graph(rng, n_events=int(rng.integers(20, 50)), duplicate_times=True)
        rows, sets, los = [], [], []
        for size in [s for s in range(1, n + 1) for _ in range(4)]:
            S = [int(x) for x in rng.choice(g.node_count, size=size, replace=False)]
            t0 = float(rng.choice(g.t)) + float(rng.choice([0.0, 0.5]))
            t_low = t0 - float(rng.integers(1, 10)) if windowed else -math.inf
            rows.append(S + [-1] * (n - size))
            sets.append(S)
            los.append(int(g.t.searchsorted(t_low)))
        closed = np.array([len(S) == n for S in sets])
        terms = _count_terms(g, np.array(rows, dtype=np.int64), np.array(los), closed)
        assert all(a.shape == (len(rows), n * (n - 1) // 2) for a in terms)
        scans = [np.array(admissible(g, set(S), math.inf, n), dtype=np.int64) for S in sets]
        for m in range(g.n_events + 1):
            got = _below(g, terms, np.maximum(m, np.array(los)))
            assert got.tolist() == [int(np.sum((ids >= lo) & (ids < max(m, lo))))
                                    for ids, lo in zip(scans, los)]

    @staticmethod
    def skewed_walker(case: str) -> tuple:
        """A graph, one walker's node row and whether it is closed, its candidates being
        every event of the graph. `long-row`: node 0's row is long, its 2,850 events
        filling the gaps between node 1's 300, and the gaps halve as ids grow, so node
        0's candidates crowd the bottom of the id range and node 1's the top. `six-pairs`:
        the six pair lists of the closed walker {0, 1, 2, 3} take turns holding blocks of
        20, 14, 9, 6, 4, 3, 2, 1, 1 events from the bottom up, and in turn the same from
        the top down, with one event between."""
        if case == "long-row":
            src = []
            for gap in [2 ** (5 - i // 50) for i in range(300)]:
                src += [0] * (gap - 1) + [1]
            dst = list(range(2, len(src) + 2))
            return TemporalGraph(src, dst, np.arange(1.0, len(src) + 1),
                                 np.zeros((len(src), 0)), len(src) + 2), [0, 1, -1], False
        blocks = [20, 14, 9, 6, 4, 3, 2, 1, 1]
        pairs = [k % 6 for k, size in enumerate(blocks) for _ in range(size)] + [5]
        pairs += [(k + 1) % 6 for k in reversed(range(len(blocks))) for _ in range(blocks[k])]
        first, second = np.triu_indices(4, 1)
        return TemporalGraph(first[pairs], second[pairs], np.arange(1.0, len(pairs) + 1),
                             np.zeros((len(pairs), 0)), 4), [0, 1, 2, 3], True

    @pytest.mark.parametrize("case", ["long-row", "six-pairs"])
    def test_skewed_list_search_stays_within_twice_bisection(self, monkeypatch, case):
        """Over its whole window, each of the walker's goals ends on its candidate within
        2 * ceil(log2(candidates)) + 2 rounds: 26 for `long-row` (3,150 candidates; 10
        rounds, 8 by interpolation alone) and 16 for `six-pairs` (121 candidates; 14
        rounds, where interpolation alone crawls through 20 and the middle entry alone
        takes 15)."""
        g, row, closed = self.skewed_walker(case)
        total = g.n_events
        terms = _count_terms(g, np.array([row] * total), np.zeros(total, np.int64),
                             np.full(total, closed))
        rounds, pivots = [], motifs._pivots

        def record(*args):
            rounds.append(len(args[4]))
            return pivots(*args)
        monkeypatch.setattr(motifs, "_pivots", record)
        picks = motifs._search(g, terms, np.arange(1, total + 1), np.zeros(total, np.int64),
                               np.full(total, total))
        assert picks.tolist() == admissible(g, {x for x in row if x >= 0}, math.inf, 4)
        assert 0 < len(rounds) <= 2 * math.ceil(math.log2(total)) + 2

    def test_census_hubs_pivot_rounds(self, census_hubs, monkeypatch):
        """One census call's pivot walker-rounds (walkers searched, summed over rounds):
        17,936 with the middle entry on every round, 9,761 with the guarded
        interpolation."""
        g, nodes, t0s = census_hubs
        rounds, pivots = [], motifs._pivots

        def record(*args):
            rounds.append(len(args[4]))
            return pivots(*args)
        monkeypatch.setattr(motifs, "_pivots", record)
        sample_id_block(g, nodes, t0s, [7] * len(nodes), 3, 3, 20)
        assert sum(rounds) <= 9761

    def test_walker_stops_once_no_walker_is_left(self, monkeypatch):
        g = TemporalGraph([0], [1], [1.0], np.zeros((1, 0)), 2)
        counted, brackets = [], []
        count_terms, bracket = motifs._count_terms, motifs._bracket

        def record_count(*args):
            counted.append(len(args[1]))
            return count_terms(*args)

        def record_bracket(*args):
            brackets.append(len(args[3]))
            return bracket(*args)
        monkeypatch.setattr(motifs, "_count_terms", record_count)
        monkeypatch.setattr(motifs, "_bracket", record_bracket)
        ids, live = sample_id_block(g, [0], [2.0], [0], 3, 3, 4)
        # step 0 reads the one event off the anchor's row; step 1 counts no candidate
        # for any walker, so no bracket is taken and step 2 never runs
        assert counted == [4] and brackets == []
        assert np.array_equal(ids, [[0, -1, -1]] * 4) and np.array_equal(live, [0])


def _chi_square_quantile(dof: int, z: float = 3.090) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile at the normal
    quantile z (3.090 is the 0.999 quantile)."""
    k = 2.0 / (9.0 * dof)
    return dof * (1.0 - k + z * math.sqrt(k)) ** 3


class TestLaw:
    """20,000 sampled trajectories against the exact law, by a chi-square test.

    Each trajectory's exact probability is the product of 1/|candidates|
    over its steps, with candidates from a raw scan of the event list. The
    test rejects at p < 0.001; bins with an expected count below 5 are
    pooled into one.
    """

    CASES = [  # (rule or random-graph seed, nodes, events, anchor, n, l, delta, sampler seed)
        ("uniform-random", 6, 25, 1, 3, 3, None, 0),
        ("triadic-closure", 8, 40, 2, 3, 3, 20.0, 1),
        ("uniform-random", 5, 20, 0, 4, 3, None, 2),
        ("uniform-random", 6, 30, 3, 2, 3, None, 3),
        (11, 6, 22, 0, 3, 3, None, 4),   # tied timestamps
        (12, 5, 18, 1, 3, 2, 6.0, 5),    # tied timestamps and a duration window
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_chi_square_against_exact_probabilities(self, case):
        rule, nodes, events, u0, n, l, delta, seed = self.CASES[case]
        if isinstance(rule, str):
            g = generate_synthetic(rule, nodes, events, seed=case)
        else:
            g = random_graph(np.random.default_rng(rule), n_nodes=nodes, n_events=events,
                             duplicate_times=True)
        t0 = float(g.t[-1]) + 1.0
        support = paths(enumerate_motifs(g, u0, t0, n, l, delta=delta))
        probs = np.array([trajectory_probability(g, u0, t0, n, ids, delta) for ids in support])
        assert len(support) >= 3 and probs.sum() == pytest.approx(1.0, abs=1e-12)
        draws = 20_000
        counts = Counter(paths(sample_id_block(g, [u0], [t0], [seed], n, l, draws, delta)[0]))
        assert set(counts) <= set(support)
        observed = np.array([counts[ids] for ids in support], dtype=np.float64)
        expected = draws * probs
        small = expected < 5.0
        if small.any():
            observed = np.append(observed[~small], observed[small].sum())
            expected = np.append(expected[~small], expected[small].sum())
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert stat < _chi_square_quantile(len(expected) - 1), (stat, len(expected))


class TestEnumeration:
    def test_chain_exactly_one(self, chain_graph):
        assert enumerate_motifs(chain_graph, 3, 4.0, n=4, l=3).tolist() == [[2, 1, 0]]

    def test_triangle_instances(self, triangle_graph):
        # anchored at a: one full trajectory plus two dead-ended prefixes
        out = enumerate_motifs(triangle_graph, 0, 4.0, n=3, l=3)
        by_len = sorted((int((row >= 0).sum()), bool(row[-1] < 0)) for row in out)
        assert by_len == [(1, True), (2, True), (3, False)]
        assert out[out[:, -1] >= 0].tolist() == [[2, 1, 0]]

    def test_single_event_count_matches_neighborhood(self):
        g = generate_synthetic("uniform-random", 8, 40, seed=1)
        t0 = 30.5
        out = enumerate_motifs(g, 2, t0, n=3, l=1)
        assert len(out) == len(brute_force_neighbor_events(g, [2], t0))

    def test_same_support_as_sequential(self):
        g = generate_synthetic("uniform-random", 6, 25, seed=3)
        t0 = 26.0
        seq = rows(sample_id_block(g, [1], [t0], [0], n=3, l=3, c=20_000)[0])
        assert seq == rows(enumerate_motifs(g, 1, t0, n=3, l=3))

    def test_size_guard(self):
        g = generate_synthetic("uniform-random", 10, 300, seed=0)
        with pytest.raises(EnumerationLimitError):
            enumerate_motifs(g, 0, 301.0, n=3, l=3, max_events=200)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_enumeration(self, seed):
        rng = np.random.default_rng(seed + 50)
        g = random_graph(rng, n_events=20)
        u0 = int(rng.integers(g.node_count))
        t0 = float(g.n_events + 1)
        out = enumerate_motifs(g, u0, t0, n=3, l=3)
        got = set(zip(paths(out), (out[:, -1] < 0).tolist()))
        want = set(enumerate_reference(g, u0, t0, n=3, l=3))
        assert got == want

    # per case, an anchor time whose history holds 1-25 trajectories (9 to 24
    # here), so that 10,000 walkers reach every one of them
    SUPPORT_T0 = [6.5, 9.5, 9.5, 8.5, 10.5, 12.5, 17.5, 7.5]

    @pytest.mark.parametrize("seed", range(8))
    def test_sampler_support_equals_enumeration(self, seed):
        rng = np.random.default_rng(seed + 200)
        g = random_graph(rng, n_events=18)
        u0 = int(rng.integers(g.node_count))
        t0 = self.SUPPORT_T0[seed]
        enum = rows(enumerate_motifs(g, u0, t0, n=3, l=3))
        assert 1 <= len(enum) <= 25
        assert rows(sample_id_block(g, [u0], [t0], [seed], n=3, l=3, c=10_000)[0]) == enum


class TestMotifCode:
    def test_repeated_interactions(self):
        assert code(5, (5, 9), (5, 9), (9, 5)) == "010101"

    def test_two_event_path(self):
        assert code(5, (5, 9), (9, 7), (-1, -1)) == "0112"

    def test_single_event(self):
        assert code(5, (5, 9), (-1, -1), (-1, -1)) == "01"

    def test_anchor_is_label_zero(self):
        # same pair, anchored at the other endpoint: still 01
        assert code(9, (5, 9), (-1, -1)) == "01"

    def test_triangle_closure_code(self):
        assert code(1, (1, 2), (2, 3), (3, 1)) == "011202"

    def test_known_both_endpoints_smaller_label_first(self):
        assert code(1, (1, 2), (2, 3), (2, 3)) == "011212"

    @pytest.mark.parametrize("seed", range(6))
    def test_code_equality_iff_anchored_isomorphism(self, seed):
        rng = np.random.default_rng(seed + 300)
        g = random_graph(rng, n_events=14)
        blocks = [enumerate_motifs(g, u0, float(g.n_events + 1), n=3, l=3)
                  for u0 in range(g.node_count)]
        anchors = np.repeat(np.arange(g.node_count), [len(b) for b in blocks])[:40]
        ids = np.concatenate(blocks)[:40]
        codes = motif_codes(endpoint_rows(g, ids), anchors)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                same_code = codes[i] == codes[j]
                assert same_code == anchored_equivalent(g, anchors[i], ids[i], anchors[j],
                                                        ids[j]), (ids[i], ids[j])


class TestLabeller:
    """`motif_codes` over endpoint rows against the one-event-at-a-time reference."""

    @pytest.mark.parametrize("seed", range(24))
    def test_block_and_enumeration_codes_match_reference(self, seed):
        g, n, l, delta, _, _ = kernel_case(seed)
        anchors = np.arange(g.node_count)
        t0s = [anchor_time(g, a) for a in anchors.tolist()]
        seeds = [seed] * len(anchors)
        ids, live = sample_id_block(g, anchors, t0s, seeds, n, l, 40, delta)
        blocks = [enumerate_motifs(g, u0, t0, n, l, delta=delta)
                  for u0, t0 in zip(anchors.tolist(), t0s)]
        for block, row_anchors in ((ids, np.repeat(anchors[live], 40)),
                                   (np.concatenate(blocks),
                                    np.repeat(anchors, [len(b) for b in blocks]))):
            assert l == 1 or np.any(block[:, -1] < 0)
            want = [reference_motif_code(g, a, row) for a, row in zip(row_anchors, block)]
            assert motif_codes(endpoint_rows(g, block), row_anchors) == want
            for k in range(min(50, len(block))):  # each row alone gets the same code
                assert motif_codes(endpoint_rows(g, block[k:k + 1]), row_anchors[k:k + 1]) == \
                    [want[k]], block[k]

    def test_large_n_and_l_codes_match_reference(self):
        """Rows of 2l = 20 labels up to l = 10: (n + 1) ** (2l) would overflow int64."""
        rng = np.random.default_rng(77)
        g = random_graph(rng, n_nodes=40, n_events=300)
        n, l = 20, 10
        anchors = np.arange(g.node_count)
        t0s = [anchor_time(g, a) for a in anchors.tolist()]
        seeds = [3] * len(anchors)
        ids, live = sample_id_block(g, anchors, t0s, seeds, n, l, 40)
        row_anchors = np.repeat(anchors[live], 40)
        ends = endpoint_rows(g, ids)
        assert first_touch(ends).max() == l
        assert motif_codes(ends, row_anchors) == [
            reference_motif_code(g, a, row) for a, row in zip(row_anchors, ids)]

    def test_detached_event_is_a_typed_error(self):
        with pytest.raises(MotifxError, match="no earlier node"):
            code(1, (1, 2), (3, 4), (-1, -1))


class TestAlphabet:
    def test_twelve_classes_up_to_three_events(self):
        assert len(code_alphabet(3, 3)) == 12

    def test_three_classes_for_two_events(self):
        assert code_alphabet(3, 2) == ["0101", "0102", "0112"]

    def test_three_event_codes_extend_two_event_codes(self):
        a2 = set(code_alphabet(3, 2))
        a3 = set(code_alphabet(3, 3)) - a2
        assert len(a3) == 9
        assert all(code[:4] in a2 for code in a3)

    def test_four_node_alphabet_grows(self):
        assert len(code_alphabet(4, 3)) > 12


class TestCensus:
    @pytest.fixture
    def path_graph(self):
        """Event 0 is (9, 7) at t=20 and event 1 is (5, 9) at t=30."""
        return TemporalGraph([9, 5], [7, 9], [20.0, 30.0], np.zeros((2, 0)), 10)

    def test_identical_instances_single_class(self, path_graph):
        cen = census(path_graph, np.array([[1, 0, -1]] * 5), [5] * 5)
        assert cen.counts == {"0112": 5}
        assert cen.probs == {"0112": 1.0}

    def test_single_event_instances_skipped(self, path_graph):
        cen = census(path_graph, np.array([[1, -1, -1]]), [5])
        assert cen.total == 0 and cen.counts == {}
        assert cen.skipped_short == 1
        assert cen.probs == {}

    def test_graph_census_is_census_of_the_sampled_block(self):
        g = generate_synthetic("uniform-random", 8, 60, seed=0)
        nodes = np.arange(g.node_count)
        t0s = [anchor_time(g, v) for v in nodes.tolist()]
        ids, live = sample_id_block(g, nodes, t0s, [3] * len(nodes), 3, 3, 10)
        assert census(g, ids, np.repeat(nodes[live], 10)) == graph_census(g, 3, 3, 10, seed=3)

    def test_rich_graph_probs_sum_to_one(self):
        g = generate_synthetic("uniform-random", 8, 60, seed=0)
        cen = graph_census(g, 3, 3, c_per_node=10, seed=0)
        assert sum(cen.probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_census_json_round_trip(self, path_graph):
        payload = json.loads(census(path_graph, np.array([[1, 0]] * 2), [5, 5]).to_json())
        assert payload["classes"]["0112"] == {"count": 2, "prob": 1.0}


class TestNullModel:
    @pytest.mark.parametrize("seed", range(5))
    def test_preserves_spectrum_and_times(self, seed):
        g = generate_synthetic("preferential-attachment", 15, 120, seed=seed)
        shuffled = null_model(g, seed=seed)
        assert np.array_equal(np.sort(shuffled.t), np.sort(g.t))
        assert shuffled.n_events == g.n_events
        deg = lambda gr: sorted(np.bincount(np.concatenate([gr.src, gr.dst]),
                                            minlength=gr.node_count).tolist())
        assert deg(shuffled) == deg(g)

    def test_single_event_graph_unchanged(self):
        g = TemporalGraph([0], [1], [5.0], np.zeros((1, 0)), 2)
        shuffled = null_model(g, seed=3)
        assert shuffled.to_json() == g.to_json()

    def test_endpoint_multiset_kept_per_pair(self):
        g = generate_synthetic("uniform-random", 10, 60, seed=1)
        shuffled = null_model(g, seed=7)
        pairs = lambda gr: sorted((min(a, b), max(a, b)) for a, b in zip(gr.src, gr.dst))
        assert pairs(shuffled) == pairs(g)


class TestClassProbs:
    def test_smoothing_keeps_everything_positive(self):
        g = generate_synthetic("uniform-random", 10, 60, seed=2)
        probs = null_class_probs(g, 3, 3, c_per_node=5, seed=0)
        assert set(probs) == set(code_alphabet(3, 3))
        assert all(p > 0 for p in probs.values())

    def test_probs_sum_to_one(self):
        g = generate_synthetic("uniform-random", 10, 60, seed=2)
        probs = null_class_probs(g, 3, 3, c_per_node=5, seed=0)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_graph_close_to_own_null(self):
        g = generate_synthetic("uniform-random", 30, 600, seed=3)
        emp = empirical_class_probs(g, 3, 3, c_per_node=40, seed=0)
        nul = null_class_probs(g, 3, 3, c_per_node=40, seed=0)
        assert total_variation(emp, nul) < 0.1


def test_anchor_time_sees_last_event():
    g = TemporalGraph([0, 0], [1, 2], [1.0, 5.0], np.zeros((2, 0)), 3)
    t0 = anchor_time(g, 0)
    assert t0 > 5.0
    assert len(brute_force_neighbor_events(g, [0], t0)) == 2


@pytest.mark.parametrize("seed", range(12))
def test_anchor_time_is_just_after_each_last_event(seed):
    """Over every node, as one array and one node at a time: just after the node's last
    event by the raw scan, and -inf for a node with none (the extra node never interacts)."""
    rng = np.random.default_rng(seed + 1300)
    g = random_graph(rng, duplicate_times=bool(seed % 2))
    g = TemporalGraph(g.src, g.dst, g.t, g.attrs, g.node_count + 1)
    nodes = np.arange(g.node_count)
    t0s = anchor_time(g, nodes)
    assert t0s.shape == nodes.shape and t0s[-1] == -math.inf
    for w in nodes.tolist():
        history = brute_force_neighbor_events(g, [w], math.inf)
        want = float(np.nextafter(g.t[history[-1]], math.inf)) if history else -math.inf
        one = anchor_time(g, w)
        assert type(one) is float and one == t0s[w] == want
    empty = TemporalGraph([], [], [], np.zeros((0, 0)), 3)
    assert anchor_time(empty, nodes[:3]).tolist() == [-math.inf] * 3


def test_sampling_cost_scales_about_linearly_in_c():
    """Trend report only: doubling C should roughly double sampling time."""
    g = generate_synthetic("uniform-random", 20, 150, seed=1)
    t0 = float(g.n_events + 1)
    sample_id_block(g, [0], [t0], [0], n=3, l=3, c=500)  # warm up
    timings = []
    for c in (2000, 4000, 8000):
        start = time.perf_counter()
        sample_id_block(g, [0], [t0], [0], n=3, l=3, c=c)
        timings.append(time.perf_counter() - start)
    r1 = timings[1] / timings[0]
    r2 = timings[2] / timings[1]
    print(f"\nsampling time ratios for C doublings: {r1:.2f}, {r2:.2f} "
          f"(times: {['%.3fs' % t for t in timings]})")


class TestByteIdentityPin:
    """Digests recorded from the per-node-list sampler this package started with.

    Any change to the candidate order, the candidate sets or the RNG draw
    order changes at least one of them.
    """

    @pytest.fixture(scope="class")
    def hubs(self):
        return generate_synthetic("preferential-attachment", 60, 2000, seed=4)

    @staticmethod
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    def test_census_digest(self, hubs):
        assert self.digest(graph_census(hubs, c_per_node=10, seed=7).to_json()) == (
            "db830b685b2b89914d896316b92a5731519d55fc1571393c7d0cb980300e54d0")

    def test_windowed_census_digest(self, hubs):
        cen = graph_census(hubs, c_per_node=10, delta=150.0, seed=7)
        assert self.digest(cen.to_json()) == (
            "7ffd1b6f6f5af755a4398cbdc0a925694822c9009c47986e6382bdb013ea156b")

    def test_null_class_probs_digest(self, hubs):
        probs = null_class_probs(hubs, c_per_node=10, seed=7)
        assert self.digest(json.dumps(probs, sort_keys=True)) == (
            "185418ab9712813489bbee18cd54f4fb37411fd42416d39f181da915ffd70631")

    def test_sample_motifs_event_ids(self, hubs):
        # a duration window that truncates some walkers, and a third step
        # that runs with the 3-node budget full
        ids, _ = sample_id_block(hubs, [5], [anchor_time(hubs, 5)], [9], n=3, l=3, c=10,
                                 delta=200.0)
        assert paths(ids) == [
            (1888, 1836, 1802), (1859, 1803, 1801), (1802, 1796), (1989, 1833, 1831),
            (1888, 1837, 1802), (1802, 1796), (1888, 1808, 1802), (1802, 1796),
            (1828, 1805), (1888, 1882, 1802)]
