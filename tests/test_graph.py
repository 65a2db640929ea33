import json
import math
import re

import numpy as np
import pytest

from motifx.basemodel import build_base_store, encode_slots
from motifx.config import RunConfig
from motifx.errors import IngestError, SchemaError
from motifx.graph import (ASCENDING_FROM, TemporalGraph, _pick, computational_graph,
                          generate_synthetic, ingest_csv, node_base_features, query_event,
                          search)
from motifx.motifs import _below, _count_terms, null_model
from motifx.nn import Tape

from conftest import random_graph
from oracles import (_side_view, brute_force_computational_graph, brute_force_neighbor_events,
                     reference_graph_json, reference_preferential_attachment)


def write_csv(tmp_path, text, name="g.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_basic_rows(self, tmp_path):
        g, report = ingest_csv(write_csv(tmp_path, "a,b,1\nb,c,2\nc,d,3\n"))
        assert g.node_count == 4
        assert g.n_events == 3
        assert list(g.src) == [0, 1, 2]
        assert list(g.dst) == [1, 2, 3]
        assert report.rows_kept == 3

    def test_out_of_order_rows_sort_stably(self, tmp_path):
        g1, _ = ingest_csv(write_csv(tmp_path, "a,b,1\nb,c,2\nc,d,3\n", "s.csv"))
        g2, _ = ingest_csv(write_csv(tmp_path, "c,d,3\na,b,1\nb,c,2\n", "u.csv"))
        assert g1.to_json() == g2.to_json()

    def test_self_loop_skipped_with_warning(self, tmp_path):
        g, report = ingest_csv(write_csv(tmp_path, "a,b,1\na,a,5\n"))
        assert g.n_events == 1
        assert report.self_loops_skipped == 1
        assert "self-loop" in report.warnings[0]

    def test_malformed_row_names_line(self, tmp_path):
        with pytest.raises(IngestError, match="line 2"):
            ingest_csv(write_csv(tmp_path, "a,b,1\na,b,notatime\n"))

    @pytest.mark.parametrize("row, needle", [
        ("a,b", "expected at least 3 columns, got 2"), ("a,b,inf", "non-finite timestamp 'inf'"),
        ("a,b,1,x", "bad attribute in ['x']")], ids=["two-columns", "inf-time", "text-attr"])
    def test_bad_row_names_line(self, tmp_path, row, needle):
        with pytest.raises(IngestError, match=f"line 2: {re.escape(needle)}"):
            ingest_csv(write_csv(tmp_path, f"a,b,1\n{row}\n"))

    def test_error_after_a_multi_line_field_names_the_file_line(self, tmp_path):
        # the quoted label spans lines 2-3, so the bad row is record 3 on line 4
        with pytest.raises(IngestError, match="line 4: bad timestamp 'bad'"):
            ingest_csv(write_csv(tmp_path, 'a,b,1\n"x\ny",b,2\na,b,bad\n'))

    def test_header_is_the_first_record(self, tmp_path):
        text = 'u,"v\nv",t\na,b,1\na,b,bad\n'
        with pytest.raises(IngestError, match="line 4: bad timestamp"):
            ingest_csv(write_csv(tmp_path, text), has_header=True)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_attribute_names_line(self, tmp_path, bad):
        with pytest.raises(IngestError, match="line 2: non-finite attribute"):
            ingest_csv(write_csv(tmp_path, f"a,b,1,0.5\na,c,2,{bad}\n"))

    def test_attr_width_mismatch(self, tmp_path):
        with pytest.raises(SchemaError, match="line 2"):
            ingest_csv(write_csv(tmp_path, "a,b,1,0.5\na,c,2\n"))

    def test_field_over_the_csv_limit_names_line(self, tmp_path):
        text = "a,b,1\na,b,2\na,b," + "9" * 200_000 + "\n"
        with pytest.raises(IngestError, match="line 3: field larger than field limit"):
            ingest_csv(write_csv(tmp_path, text))

    def test_header_flag(self, tmp_path):
        g, _ = ingest_csv(write_csv(tmp_path, "u,v,t\na,b,1\n"), has_header=True)
        assert g.n_events == 1

    def test_attrs_round_trip_bit_exact(self, tmp_path):
        text = "a,b,1.25,0.1,0.30000000000000004\nb,c,2.5,-1e-9,3.14159\n"
        g, _ = ingest_csv(write_csv(tmp_path, text))
        blob = g.to_json()
        again = TemporalGraph.from_json(blob)
        assert again.to_json() == blob
        assert np.array_equal(again.t, g.t)
        assert np.array_equal(again.attrs, g.attrs)


def recent_union(g, nodes, before, strict=True) -> list:
    """The ids of a node set's events with t < before (t <= before if not strict): the
    union of each node's whole `recent` window, ascending."""
    cut = before if strict else float(np.nextafter(before, math.inf))
    ids = g.recent(nodes, cut, max(g.n_events, 1))[0]
    return sorted(set(ids[ids >= 0].tolist()))


class TestNeighborEvents:
    """A node set's events before t, read through `TemporalGraph.recent`."""

    def test_chain_single_incident(self, chain_graph):
        assert recent_union(chain_graph, [3], 4.0) == [2]

    def test_chain_two_nodes(self, chain_graph):
        assert recent_union(chain_graph, [1, 2], 3.0) == [0, 1]

    def test_strict_cut(self, chain_graph):
        assert recent_union(chain_graph, [0], 1.0) == []
        assert recent_union(chain_graph, [0], 1.0, strict=False) == [0]

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, duplicate_times=bool(seed % 2))
        nodes = rng.choice(g.node_count, size=int(rng.integers(1, 4)), replace=False)
        before = float(rng.uniform(0, g.n_events + 2))
        strict = bool(seed % 3)
        got = recent_union(g, nodes, before, strict)
        want = brute_force_neighbor_events(g, nodes, before, strict)
        assert got == want


class TestComputationalGraph:
    def test_chain_one_hop(self, chain_graph):
        sub, = computational_graph(chain_graph, [chain_graph.event(2)], 20)
        assert sub.tolist() == [1] and sub.dtype == np.int64

    def test_earliest_event_empty(self, chain_graph):
        sub, = computational_graph(chain_graph, [chain_graph.event(0)], 20)
        assert len(sub) == 0 and sub.dtype == np.int64

    def test_no_targets(self, chain_graph):
        assert computational_graph(chain_graph, [], 20) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_in_cap(self, seed):
        rng = np.random.default_rng(seed + 100)
        g = random_graph(rng, n_events=30)
        targets = [g.event(g.n_events - 1), g.event(g.n_events // 2)]
        prev = [set(), set()]
        for cap in (1, 2, 5, 20):
            got = [set(sub.tolist()) for sub in computational_graph(g, targets, cap)]
            assert all(p <= s for p, s in zip(prev, got))
            prev = got

    def test_cap_limits_per_node(self):
        # star: node 0 interacts with 1..6; target is a fresh (0, 7) query
        g = TemporalGraph([0] * 6, [1, 2, 3, 4, 5, 6], np.arange(1.0, 7.0),
                         np.zeros((6, 0)), 8)
        sub, = computational_graph(g, [query_event(0, 7, 10.0)], 3)
        assert sub.tolist() == [3, 4, 5]  # three most recent

    @pytest.mark.parametrize("seed", range(8))
    def test_cap_at_k_nb_is_the_base_models_view(self, seed):
        """With per_hop_cap == k_nb, each query's ids are the distinct events in the
        base model's slots."""
        rng = np.random.default_rng(seed + 150)
        g = random_graph(rng, duplicate_times=True)
        queries = [g.event(int(i)) for i in rng.integers(g.n_events, size=5)]
        queries.append(query_event(0, 1, float(g.t[-1]) + 1.0))
        for k_nb in (1, 3, 8):
            store = build_base_store(g, RunConfig(h=4, d_time_base=2, k_nb=k_nb, seed=seed))
            ids = encode_slots(Tape(store), store, g, queries).ids
            got = computational_graph(g, queries, k_nb)
            assert [sub.tolist() for sub in got] == [np.unique(row[row >= 0]).tolist()
                                                     for row in ids]


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic("uniform-random", 10, 50, seed=7)
        b = generate_synthetic("uniform-random", 10, 50, seed=7)
        assert a.to_json() == b.to_json()

    def test_triadic_wedge_fraction(self):
        g = generate_synthetic("triadic-closure", 30, 500, seed=3)
        adj: dict = {}
        closes = 0
        for i in range(g.n_events):
            u, v = int(g.src[i]), int(g.dst[i])
            if adj.get(u, set()) & adj.get(v, set()):
                closes += 1
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        assert closes / g.n_events >= 0.6

    def test_preferential_attachment_hubs(self):
        g = generate_synthetic("preferential-attachment", 30, 500, seed=3)
        deg = np.bincount(np.concatenate([g.src, g.dst]), minlength=30)
        assert deg.max() > 2 * np.median(deg)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("n_nodes, n_events",
                             [(3, 500), (14, 120), (30, 2000), (1000, 5000), (200, 20000)])
    def test_preferential_attachment_matches_choice_loop(self, n_nodes, n_events, seed):
        g = generate_synthetic("preferential-attachment", n_nodes, n_events, seed)
        src, dst = reference_preferential_attachment(n_nodes, n_events, seed)
        assert g.src.tolist() == src
        assert g.dst.tolist() == dst

    def test_float_cdf_is_choices_rule(self):
        """`choice_pick` is what Generator.choice returns for the draw it takes."""
        rng = np.random.default_rng(5)
        for seed in range(200):
            w = rng.integers(0, 50, size=int(rng.integers(2, 30)))
            w[rng.integers(len(w))] += 1
            x = np.random.Generator(np.random.PCG64(seed)).random()
            chosen = np.random.Generator(np.random.PCG64(seed)).choice(len(w), p=w / w.sum())
            assert int(chosen) == choice_pick(w, x)

    @pytest.mark.parametrize("zeroed", [False, True], ids=["all-positive", "zeroed-bucket"])
    def test_pick_matches_choice_at_every_cdf_edge(self, zeroed):
        """Draws on each float and exact CDF edge and one ulp either side of it."""
        rng = np.random.default_rng(40 + zeroed)
        near_edges = 0
        for _ in range(150):
            n = int(rng.integers(2, 40))
            w = rng.integers(1, [3, 100, 10**6, 10**12][int(rng.integers(4))], size=n)
            if zeroed:
                w[rng.integers(n)] = 0
            exact = np.cumsum(w) / w.sum()
            c = np.cumsum(w / w.sum())
            c /= c[-1]
            edges = np.concatenate([[0.0], c, exact])
            xs = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
            xs = np.unique(xs[(xs >= 0.0) & (xs < 1.0)])
            assert [_pick(w, x) for x in xs.tolist()] == [choice_pick(w, x) for x in xs.tolist()]
            near = np.abs(xs[:, None] - np.append(0.0, exact)) <= 4 * (n + 2) * 2.0 ** -53
            near_edges += int(near.any(axis=1).sum())
        assert near_edges > 0  # draws that take the float-CDF fallback

    def test_to_json_matches_scalar_formatting(self):
        rng = np.random.default_rng(3)
        attrs = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-300, 300, size=(60, 3))
        attrs[:4, 0] = [-0.0, 0.1, 5e-324, 1.0]
        t = np.round(rng.uniform(0, 50, size=60), int(rng.integers(0, 4)))
        g = TemporalGraph(rng.integers(0, 5, 60), rng.integers(5, 9, 60), t, attrs, 9)
        assert g.to_json() == reference_graph_json(g)
        bare = generate_synthetic("preferential-attachment", 10, 50, seed=2)
        assert bare.to_json() == reference_graph_json(bare)

    def test_timestamps_strictly_increasing(self):
        g = generate_synthetic("uniform-random", 5, 40, seed=0)
        assert np.all(np.diff(g.t) > 0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            generate_synthetic("small-world", 10, 10, seed=0)


def choice_pick(weights, x):
    """The index Generator.choice(len(w), p=w / w.sum()) returns for its uniform draw x:
    the right-side search of x in its CDF, cumsum(p) divided by its last entry."""
    c = np.cumsum(weights / weights.sum())
    c /= c[-1]
    return int(c.searchsorted(x, side="right"))


def degree_spectrum(g):
    """Per-node incident-event counts, sorted descending: the row lengths on the graph's key."""
    return sorted(np.diff(g.indptr).tolist(), reverse=True)


class TestDegreeSpectrum:
    def test_chain(self, chain_graph):
        assert degree_spectrum(chain_graph) == [2, 2, 1, 1]

    def test_empty(self):
        g = TemporalGraph([], [], [], np.zeros((0, 0)), 0)
        assert degree_spectrum(g) == []

    def test_null_model_preserves(self):
        g = generate_synthetic("uniform-random", 12, 80, seed=5)
        assert degree_spectrum(null_model(g, seed=1)) == degree_spectrum(g)


class TestValidation:
    def test_nan_timestamp(self):
        with pytest.raises(SchemaError, match="finite"):
            TemporalGraph([0, 1], [1, 2], [1.0, math.nan], np.zeros((2, 0)), 3)

    def test_inf_timestamp(self):
        with pytest.raises(SchemaError, match="finite"):
            TemporalGraph([0], [1], [math.inf], np.zeros((1, 0)), 2)

    def test_self_loop(self):
        with pytest.raises(SchemaError, match="self-loop"):
            TemporalGraph([0, 2], [1, 2], [1.0, 2.0], np.zeros((2, 0)), 3)

    @pytest.mark.parametrize("src,dst", [([0, 3], [1, 2]), ([0, 1], [-1, 2])])
    def test_node_id_out_of_range(self, src, dst):
        with pytest.raises(SchemaError, match="node ids"):
            TemporalGraph(src, dst, [1.0, 2.0], np.zeros((2, 0)), 3)

    def test_fractional_node_id(self):
        with pytest.raises(SchemaError, match="integers"):
            TemporalGraph([0, 1], [1.5, 2], [1.0, 2.0], np.zeros((2, 0)), 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_attribute(self, bad):
        with pytest.raises(SchemaError, match="attributes must be finite"):
            TemporalGraph([0, 1], [1, 2], [1.0, 2.0], [[bad], [1.0]], 3)

    @pytest.mark.parametrize("node_count", [2.7, 3.0, "3", np.float64(3.0)])
    def test_node_count_not_an_integer(self, node_count):
        with pytest.raises(SchemaError, match="node_count"):
            TemporalGraph([0, 1], [1, 2], [1.0, 2.0], np.zeros((2, 0)), node_count)

    def test_negative_node_count(self):
        with pytest.raises(SchemaError, match="node_count -1 is negative"):
            TemporalGraph([], [], [], np.zeros((0, 0)), -1)

    def test_bool_node_count(self):
        with pytest.raises(SchemaError, match="node_count"):
            TemporalGraph([], [], [], np.zeros((0, 0)), True)

    def test_numpy_integer_node_count(self):
        g = TemporalGraph([0, 1], [1, 2], [1.0, 2.0], np.zeros((2, 0)), np.int64(3))
        assert type(g.node_count) is int and g.node_count == 3

    def test_from_json_fractional_node_count(self):
        text = json.dumps({"node_count": 2.7, "attr_width": 0, "events": [[0, 1, 1.0, []]]})
        with pytest.raises(SchemaError, match="node_count"):
            TemporalGraph.from_json(text)

    @pytest.mark.parametrize("cols", [
        ([0, 1], [1], [1.0, 2.0], np.zeros((2, 0))),
        ([0, 1], [1, 2], [1.0], np.zeros((2, 0))),
        ([0, 1], [1, 2], [1.0, 2.0], np.zeros((3, 1))),
        ([0, 1], [1, 2], [1.0, 2.0], np.zeros(3)),
    ])
    def test_column_lengths_differ(self, cols):
        with pytest.raises(SchemaError):
            TemporalGraph(*cols, 3)

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"node_count": 3, "attr_width": 0}',
        '{"node_count": 3, "attr_width": 0, "events": [[0, 1]]}',
        '{"attr_width": 0, "events": [[0, 1, 1.0, []]]}',
    ])
    def test_from_json_malformed(self, text):
        with pytest.raises(SchemaError, match="malformed graph JSON"):
            TemporalGraph.from_json(text)

    @pytest.mark.parametrize("width,rows", [
        (5, [[0.5], [1.5]]),  # one attribute per row under a width of 5
        (2, [[], []]),  # empty rows under a width of 2
        (0, [[0.5], [1.5]]),  # one attribute per row under a width of 0
    ])
    def test_from_json_attribute_rows_must_match_attr_width(self, width, rows):
        events = [[0, 1, 1.0, rows[0]], [1, 2, 2.0, rows[1]]]
        text = json.dumps({"node_count": 3, "attr_width": width, "events": events})
        with pytest.raises(SchemaError, match="attr_width"):
            TemporalGraph.from_json(text)

    def test_from_json_nested_too_deep(self):
        with pytest.raises(SchemaError, match="malformed graph JSON: RecursionError"):
            TemporalGraph.from_json("[" * 200_000 + "]" * 200_000)

    def test_from_json_self_loop(self):
        text = json.dumps({"node_count": 2, "attr_width": 0, "events": [[1, 1, 1.0, []]]})
        with pytest.raises(SchemaError, match="self-loop"):
            TemporalGraph.from_json(text)


class TestSearch:
    """`search` against `ndarray.searchsorted`, on needle counts below ASCENDING_FROM (plain
    lookups) and from it on (ascending lookups), in the shapes the graph's reads pass."""

    @staticmethod
    def sorted_arrays():
        rng = np.random.default_rng(3)
        ints = np.sort(rng.integers(-50, 50, 400))  # ties: 400 draws from 100 values
        floats = np.sort(rng.choice(np.arange(0.0, 60.0, 0.5), 300))
        return {"int64": ints, "float64": floats, "empty": np.zeros(0, np.int64)}

    @pytest.mark.parametrize("kind", ["int64", "float64", "empty"])
    @pytest.mark.parametrize("shape", [(0,), (), (7, 1), (ASCENDING_FROM - 1,),
                                       (ASCENDING_FROM,), (ASCENDING_FROM, 1), (2, 40, 9),
                                       (3 * ASCENDING_FROM + 5,)])
    def test_positions_equal_searchsorted(self, kind, shape):
        arr = self.sorted_arrays()[kind]
        rng = np.random.default_rng(len(shape) + int(np.prod(shape)))
        # duplicates, values on and between the array's entries, and both infinities
        pool = np.concatenate([arr, arr + 0.25, [-math.inf, math.inf, -60.0, 75.0]])
        needles = rng.choice(pool, size=shape)
        got, want = search(arr, needles), arr.searchsorted(needles)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        assert np.asarray(got).dtype == np.asarray(want).dtype

    @pytest.mark.parametrize("kind", ["int64", "float64"])
    def test_integer_needles_in_sorted_order_and_reversed(self, kind):
        arr = self.sorted_arrays()[kind]
        needles = np.arange(-2 * ASCENDING_FROM, 2 * ASCENDING_FROM).reshape(2, -1, 8) // 16
        for n in (needles, needles[..., ::-1].copy()):
            assert np.array_equal(search(arr, n), arr.searchsorted(n))

    def test_scalar_needle(self):
        arr = self.sorted_arrays()["float64"]
        for x in (3.0, math.inf, np.float64(-math.inf), np.asarray(2.5)):
            assert search(arr, x) == arr.searchsorted(x)


class TestIndex:
    """The sorted key against raw scans over the event list, on graphs with tied timestamps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_are_incident_events_in_id_order(self, seed):
        g = random_graph(np.random.default_rng(seed), duplicate_times=True)
        for w in range(g.node_count):
            row = g._key[g.indptr[w]:g.indptr[w + 1]] - w * g.n_events
            want = [i for i in range(g.n_events) if w in (int(g.src[i]), int(g.dst[i]))]
            assert row.tolist() == want
        assert g.indptr[-1] == 2 * g.n_events and not g.indptr.flags.writeable

    @pytest.mark.parametrize("seed", range(5))
    def test_key_is_the_only_index(self, seed):
        """Beside the event columns, the graph holds `_key`, `indptr` and `pair_codes` and
        no other array: 8 bytes for each of 3N key entries, node_count + 1 row starts and
        P pairs."""
        empty = TemporalGraph([], [], [], np.zeros((0, 0)), 3)
        for g in (random_graph(np.random.default_rng(seed + 1700), duplicate_times=True), empty):
            arrays = {name: getattr(g, name) for name in TemporalGraph.__slots__
                      if isinstance(getattr(g, name), np.ndarray)}
            index = set(arrays) - {"src", "dst", "t", "attrs"}
            assert index == {"_key", "indptr", "pair_codes"}
            assert sum(arrays[name].nbytes for name in index) == 8 * (
                3 * g.n_events + g.node_count + 1 + len(g.pair_codes))

    @pytest.mark.parametrize("seed", range(15))
    def test_recent_equals_brute_force_history(self, seed):
        """`recent` against the oracle's last-k history scan, on tied timestamps, with
        `before` at event times (a strict cut) and past the end, a node without events,
        k below and above the history lengths, and one time per node or for all."""
        rng = np.random.default_rng(seed + 1300)
        g0 = random_graph(rng, duplicate_times=True)
        g = TemporalGraph(g0.src, g0.dst, g0.t, g0.attrs, g0.node_count + 1)  # last node idle
        nodes = rng.integers(g.node_count, size=(12, 2))
        nodes[0, 1] = g.node_count - 1
        before = np.append(rng.choice(g.t, size=11), g.t[-1] + 1.0)
        for k in (1, 2, 5, 50):
            ids, other = g.recent(nodes, before[:, None], k)
            assert ids.shape == other.shape == (12, 2, k)
            for b, s in np.ndindex(12, 2):
                view = _side_view(g, int(nodes[b, s]), -1, float(before[b]), k)
                pad = [-1] * (k - len(view["ids"]))
                assert ids[b, s].tolist() == view["ids"] + pad
                assert other[b, s].tolist() == view["partners"] + pad
            shared, _ = g.recent(nodes[:, 0], float(before[3]), k)
            for w, row in zip(nodes[:, 0], shared.tolist()):
                view = _side_view(g, int(w), -1, float(before[3]), k)["ids"]
                assert row == view + [-1] * (k - len(view))

    def test_recent_on_an_empty_graph(self):
        g = TemporalGraph([], [], [], np.zeros((0, 0)), 3)
        ids, other = g.recent([[0, 1], [2, 0]], [[5.0], [-1.0]], 4)
        assert ids.tolist() == other.tolist() == [[[-1] * 4] * 2] * 2

    @pytest.mark.parametrize("seed", range(-1, 8))
    def test_highest_node_reads_no_pair_entry(self, triangle_graph, seed):
        """At before = inf the highest node id's row cut is where the pair entries of
        the index start, so `recent` and `node_base_features` read that node's events
        and nothing else. The triangle's first pair entry is event 0, whose key equals
        that cut; seeds >= 0 are random graphs with tied timestamps."""
        g = triangle_graph if seed < 0 else random_graph(np.random.default_rng(seed + 1500),
                                                         duplicate_times=True)
        top, k = g.node_count - 1, 2 * g.n_events + 2
        own = [i for i in range(g.n_events) if top in (int(g.src[i]), int(g.dst[i]))]
        pad = [-1] * (k - len(own))
        ids, other = g.recent([top], math.inf, k)
        assert ids[0].tolist() == own + pad
        assert other[0].tolist() == [int(g.src[i] + g.dst[i]) - top for i in own] + pad
        assert node_base_features(g, [top], math.inf)[0, 1] == math.log1p(len(own))

    @pytest.mark.parametrize("seed", range(40))
    def test_windowed_neighbor_events(self, seed):
        """The motif sampler's count of a node set's events with since <= t < before
        (t <= before if not strict), incident to it or, closed, inside it: time cuts
        become id cuts, tied timestamps included, and the index terms count the scan."""
        rng = np.random.default_rng(seed + 500)
        g = random_graph(rng, duplicate_times=True)
        nodes = rng.choice(g.node_count, size=int(rng.integers(1, 4)), replace=False)
        # integer bounds hit the tied timestamps exactly
        before = float(rng.integers(0, g.n_events // 2 + 3))
        since = -math.inf if seed % 2 else float(rng.integers(0, g.n_events // 2 + 2))
        strict = bool(seed % 3)
        closed = seed % 5 == 0
        lo = g.t.searchsorted([since])
        stop = g.t.searchsorted([before], side="left" if strict else "right")
        # an open set leaves one column of its row empty, as the walker's rows do
        row = nodes if closed else np.append(nodes, -1)
        terms = _count_terms(g, row[None, :], lo, np.array([closed]))
        got = int(_below(g, terms, np.maximum(stop, lo))[0])
        want = brute_force_neighbor_events(g, nodes, before, strict, since=since, closed=closed)
        assert got == len(want)

    @pytest.mark.parametrize("seed", range(15))
    def test_incident_degree_and_node_features(self, seed):
        rng = np.random.default_rng(seed + 700)
        g = random_graph(rng, duplicate_times=True)
        before = float(rng.integers(0, g.n_events // 2 + 3))
        nodes = rng.integers(g.node_count, size=6)
        degrees = [len(brute_force_neighbor_events(g, [w], before)) for w in nodes]
        feats = node_base_features(g, nodes, before)
        assert feats[:, 0].tolist() == [1.0] * 6
        assert feats[:, 1].tolist() == [math.log1p(d) for d in degrees]

    @pytest.mark.parametrize("seed", range(15))
    def test_computational_graph_membership(self, seed):
        """One call over many queries, each against the raw scan, for several caps."""
        rng = np.random.default_rng(seed + 900)
        g = random_graph(rng, duplicate_times=True)
        targets = [g.event(int(i)) for i in rng.integers(g.n_events, size=6)]
        unseen = [query_event(q.u, q.v, float(g.t[0])) for q in targets[:2]]  # nothing before
        fresh = query_event(*rng.choice(g.node_count, size=2, replace=False).tolist(),
                            float(rng.uniform(0, g.n_events + 2)))
        queries = targets + unseen + [fresh]
        for cap in (1, 2, 3, 20):
            got = computational_graph(g, queries, cap)
            assert len(got) == len(queries)
            for query, sub in zip(queries, got):
                want = brute_force_computational_graph(g, query.u, query.v, query.t, cap)
                assert sub.tolist() == sorted(want) and sub.dtype == np.int64
            assert [len(sub) for sub in got[6:8]] == [0, 0]

    @pytest.mark.parametrize("seed", range(15))
    def test_pair_index_counts(self, seed):
        """Events between a and b with since <= t < before, by two searches on the pair
        segment of the index, equal the closed scan of {a, b}; pairs that never interact
        rank -1."""
        rng = np.random.default_rng(seed + 1100)
        g = random_graph(rng, duplicate_times=True)
        n_ev = g.n_events
        pairs = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(g.src, g.dst)}
        assert g.pair_codes.tolist() == sorted(a * g.node_count + b for a, b in pairs)
        assert not g._key.flags.writeable and len(g._key) == 3 * n_ev
        pair_key = g._key[2 * n_ev:]
        assert np.all(pair_key >= g.node_count * n_ev) and np.all(np.diff(g._key) > 0)
        empty = TemporalGraph([], [], [], np.zeros((0, 0)), 3)
        assert empty.pair_ranks([-1, 0], [2, 1]).tolist() == [-1, -1]
        for a in range(-1, g.node_count):
            for b in range(g.node_count):
                rank = int(g.pair_ranks([a], [b])[0])
                if a < 0 or a == b or (min(a, b), max(a, b)) not in pairs:
                    assert rank == -1
                    continue
                assert rank == int(g.pair_ranks([b], [a])[0])
                since = float(rng.integers(0, n_ev // 2 + 2))
                before = float(rng.integers(0, n_ev // 2 + 3))
                lo, hi = g.t.searchsorted(since), g.t.searchsorted(before)
                base = (g.node_count + rank) * n_ev
                got = (int(pair_key.searchsorted(base + max(hi, lo)))
                       - int(pair_key.searchsorted(base + lo)))
                want = brute_force_neighbor_events(g, [a, b], before, since=since, closed=True)
                assert got == len(want)
