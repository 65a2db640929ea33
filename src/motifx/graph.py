"""Event-stream data model: ingestion, temporal indexing, neighborhood extraction, synthesis.

Timestamps are float64 and may repeat; wherever an order over events is
needed, ties are broken by event id (lower id = earlier). Event ids are
dense 0..N-1, assigned in non-decreasing timestamp order, so a time cut
is an id cut: the events with t < before are exactly the ids below
``searchsorted(t, before)``.

Every history lookup reads one sorted int64 key, ``_key``. Its first 2N
entries (N events) are the node rows: each event once in each endpoint's
row, as ``node * N + id``, so a row holds a node's incident events in id
order and starts at ``indptr[node]``. Within a row, id order is (t, id)
order, so every time window is one contiguous slice of the key, and ties
come out ordered by id exactly as they do over the whole stream. An entry
decodes as ``id = key - node * N``, and the event's other endpoint is
``src[id] + dst[id] - node``. `TemporalGraph.recent` is the one history
read: the last k entries of many nodes' windows at once, padded with -1.

Beside the rows sits a pair index: ``pair_codes`` lists each distinct
unordered pair {a, b} (a < b) once as ``a * node_count + b``, ascending,
and a pair's position there is its rank. The key's last N entries list
each event once as ``(node_count + rank) * N + id``. Row keys stay below
``node_count * N``, so any row or pair window is one slice of the key and
one search sizes a neighborhood window without building it.
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestError, SchemaError, read_text


@dataclass(frozen=True, eq=False)
class Event:
    id: int
    u: int
    v: int
    t: float
    attrs: np.ndarray


def query_event(u: int, v: int, t: float, attr_width: int = 0) -> Event:
    """A synthetic target event (e.g. a negative link) that is not part of the graph."""
    return Event(id=-1, u=u, v=v, t=t, attrs=np.zeros(attr_width))


def _node_ids(column) -> np.ndarray:
    raw = np.asarray(column).reshape(-1)
    with np.errstate(invalid="ignore"):  # NaN and inf are rejected just below
        ids = raw.astype(np.int64)
    if not np.array_equal(ids, raw):
        raise SchemaError("node ids must be integers")
    return ids


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class TemporalGraph:
    """Immutable store of undirected timestamped interaction events.

    Construction checks the columns (finite timestamps and attributes, an integer
    ``node_count``, integer node ids in ``[0, node_count)``, no self-loops, equal
    lengths), stable-sorts the events by timestamp and builds, with vectorised numpy,
    the sorted key ``_key`` of the module docstring (the 2N row entries, then the N
    pair entries), ``indptr`` (node_count + 1 row starts on it) and ``pair_codes``.
    These and the event columns are the graph's only arrays, and all are read-only.
    """

    __slots__ = ("src", "dst", "t", "attrs", "node_count", "attr_width",
                 "indptr", "pair_codes", "_key")

    def __init__(self, src, dst, t, attrs, node_count: int):
        try:
            src, dst = _node_ids(src), _node_ids(dst)
            t = np.asarray(t, dtype=np.float64).reshape(-1)
            attrs = np.asarray(attrs, dtype=np.float64)
            if attrs.ndim != 2:
                attrs = attrs.reshape(len(src), -1) if len(src) else attrs.reshape(0, 0)
            if isinstance(node_count, bool) or not isinstance(node_count, (int, np.integer)):
                raise TypeError(f"node_count {node_count!r} is not an integer")
            node_count = int(node_count)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad event columns: {exc}") from exc
        n = len(src)
        if not len(dst) == len(t) == len(attrs) == n:
            raise SchemaError(f"column lengths differ: src {n}, dst {len(dst)}, "
                              f"t {len(t)}, attrs {len(attrs)}")
        if node_count < 0:
            raise SchemaError(f"node_count {node_count} is negative")
        if not (np.isfinite(t).all() and np.isfinite(attrs).all()):
            raise SchemaError("timestamps and attributes must be finite")
        if n and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= node_count):
            raise SchemaError(f"node ids must lie in [0, {node_count})")
        if np.any(src == dst):
            raise SchemaError(f"self-loop at node {int(src[np.argmax(src == dst)])}")
        order = np.argsort(t, kind="stable")
        self.src = _frozen(src[order])
        self.dst = _frozen(dst[order])
        self.t = _frozen(t[order])
        self.attrs = _frozen(attrs[order])
        self.node_count = node_count
        self.attr_width = int(self.attrs.shape[1])

        codes = np.minimum(self.src, self.dst) * node_count + np.maximum(self.src, self.dst)
        pair_codes, rank = np.unique(codes, return_inverse=True)
        self.pair_codes = _frozen(pair_codes)
        ids = np.arange(n, dtype=np.int64)
        self._key = _frozen(np.concatenate([
            np.sort(np.concatenate([self.src, self.dst]) * n + np.tile(ids, 2)),
            np.sort((node_count + rank) * n + ids)]))
        self.indptr = _frozen(self._key.searchsorted(np.arange(node_count + 1) * n))

    def pair_ranks(self, a, b) -> np.ndarray:
        """Pair-index rank of each pair (a[i], b[i]); -1 if they never interact or one is < 0."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        low = np.minimum(a, b)
        codes = low * self.node_count + np.maximum(a, b)
        rank = self.pair_codes.searchsorted(codes)
        known = np.append(self.pair_codes, -1)[rank] == codes
        return np.where(known & (low >= 0), rank, -1)

    @property
    def n_events(self) -> int:
        return len(self.src)

    @property
    def time_span(self) -> float:
        return float(self.t[-1] - self.t[0]) if self.n_events else 0.0

    def event(self, i: int) -> Event:
        return Event(id=int(i), u=int(self.src[i]), v=int(self.dst[i]),
                     t=float(self.t[i]), attrs=self.attrs[i])

    def row_window(self, nodes, before, since=None) -> tuple[np.ndarray, np.ndarray]:
        """Where the row window of each of the int64 `nodes` lies on `_key`: its start, at
        id cut `since` (the row's start if None), and its stop, at its cut t < before.
        `since` and `before` broadcast against `nodes`."""
        row = nodes * self.n_events
        stop = self._key.searchsorted(row + self.t.searchsorted(before))
        return (self.indptr[nodes] if since is None
                else self._key.searchsorted(row + since)), stop

    def recent(self, nodes, before, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each node's k most recent events with t < before, oldest first, padded with
        -1 at the end: their ids and their other endpoints, two nodes.shape + (k,)
        arrays. `before` broadcasts against `nodes`."""
        nodes = np.asarray(nodes, dtype=np.int64)
        start, stop = self.row_window(nodes, before)
        pos = np.maximum(start, stop - k)[..., None] + np.arange(k)
        held, nodes = pos < stop[..., None], nodes[..., None]
        if not self.n_events:  # nothing is held, and the key is empty
            return tuple(np.full((2,) + held.shape, -1, dtype=np.int64))
        ids = np.where(held, self._key.take(pos, mode="clip") - nodes * self.n_events, -1)
        return ids, np.where(held, self.src[ids] + self.dst[ids] - nodes, -1)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        events = list(map(list, zip(self.src.tolist(), self.dst.tolist(), self.t.tolist(),
                                     self.attrs.tolist())))
        payload = {"node_count": self.node_count, "attr_width": self.attr_width,
                   "events": events}
        return json.dumps(payload, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "TemporalGraph":
        try:
            payload = json.loads(text)
            ev, width, node_count = payload["events"], payload["attr_width"], payload["node_count"]
            src = [e[0] for e in ev]
            dst = [e[1] for e in ev]
            t = [e[2] for e in ev]
            rows = [e[3] for e in ev]
            wrong = set(map(len, rows)) - {width}
            if wrong:
                raise SchemaError(f"attribute rows of length {sorted(wrong)} under "
                                  f"attr_width {width!r}")
            attrs = (np.array(rows, dtype=np.float64).reshape(len(ev), width) if width
                     else np.zeros((len(ev), 0)))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            # ValueError covers json.JSONDecodeError and non-numeric attributes
            raise SchemaError(f"malformed graph JSON: {exc!r}") from exc
        return cls(src, dst, t, attrs, node_count)


@dataclass
class IngestReport:
    rows_total: int = 0
    rows_kept: int = 0
    self_loops_skipped: int = 0
    warnings: list = field(default_factory=list)


def ingest_csv(path, has_header: bool = False) -> tuple[TemporalGraph, IngestReport]:
    """Load `u,v,t[,a_1..a_k]` rows into a TemporalGraph.

    Node labels are arbitrary strings and get remapped to dense ids in
    order of first appearance after time-sorting. Self-loop rows are
    skipped with a counted warning; malformed rows abort with the line
    number; an inconsistent attribute width is a schema error.
    """
    report = IngestReport()
    rows = []
    attr_width = None
    lines = io.StringIO(read_text(path, IngestError), newline="")
    for lineno, row in enumerate(csv.reader(lines), start=1):
        if lineno == 1 and has_header:
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        report.rows_total += 1
        if len(row) < 3:
            raise IngestError(f"line {lineno}: expected at least 3 columns, got {len(row)}")
        u_raw, v_raw = row[0].strip(), row[1].strip()
        try:
            t = float(row[2])
        except ValueError as exc:
            raise IngestError(f"line {lineno}: bad timestamp {row[2]!r}") from exc
        if not math.isfinite(t):
            raise IngestError(f"line {lineno}: non-finite timestamp {row[2]!r}")
        try:
            attrs = [float(x) for x in row[3:]]
        except ValueError as exc:
            raise IngestError(f"line {lineno}: bad attribute in {row[3:]!r}") from exc
        if not all(map(math.isfinite, attrs)):
            raise IngestError(f"line {lineno}: non-finite attribute in {row[3:]!r}")
        if attr_width is None:
            attr_width = len(attrs)
        elif len(attrs) != attr_width:
            raise SchemaError(
                f"line {lineno}: attribute width {len(attrs)} != {attr_width} seen earlier")
        if u_raw == v_raw:
            report.self_loops_skipped += 1
            report.warnings.append(f"line {lineno}: self-loop {u_raw!r} skipped")
            continue
        rows.append((t, u_raw, v_raw, attrs))
    rows.sort(key=lambda r: r[0])  # stable: ties keep file order
    node_ids: dict[str, int] = {}
    src, dst, ts, attr_rows = [], [], [], []
    for t, u_raw, v_raw, attrs in rows:
        for name in (u_raw, v_raw):
            if name not in node_ids:
                node_ids[name] = len(node_ids)
        src.append(node_ids[u_raw])
        dst.append(node_ids[v_raw])
        ts.append(t)
        attr_rows.append(attrs)
    report.rows_kept = len(rows)
    width = attr_width or 0
    attrs_arr = np.array(attr_rows, dtype=np.float64) if attr_rows else np.zeros((0, width))
    g = TemporalGraph(src, dst, ts, attrs_arr.reshape(len(rows), width), len(node_ids))
    return g, report


def computational_graph(g: TemporalGraph, targets: list, per_hop_cap: int) -> list[np.ndarray]:
    """Per target, the sorted int64 ids of the events a predictor can see for it: each
    endpoint's `per_hop_cap` most recent events strictly earlier than the target time,
    for all targets by one `recent` call. A target with no history gets an empty array."""
    ends = np.array([(q.u, q.v) for q in targets], dtype=np.int64).reshape(-1, 2)
    ids, _ = g.recent(ends, np.array([q.t for q in targets], dtype=float)[:, None], per_hop_cap)
    return [np.unique(row[row >= 0]) for row in ids]


def node_base_features(g: TemporalGraph, nodes, before) -> np.ndarray:
    """Inductive node inputs for the link predictor: [1.0, log1p(degree before t)],
    with `before` one time for all nodes or one per node."""
    start, stop = g.row_window(np.asarray(nodes, dtype=np.int64), before)
    degrees, where = np.unique(stop - start, return_inverse=True)
    out = np.ones((len(stop), 2))
    out[:, 1] = np.array([math.log1p(d) for d in degrees.tolist()])[where]
    return out


# -- synthetic generators ----------------------------------------------------

RULES = ("triadic-closure", "preferential-attachment", "uniform-random")
TRIADIC_WINDOW = 15  # events considered "recent" when looking for open wedges
TRIADIC_WEDGE_PROB = 0.8


def _pick(weights: np.ndarray, x: float) -> int:
    """The index ``rng.choice(len(weights), p=weights / weights.sum())`` returns for its
    uniform draw x, picked from the exact cumulative sums of int64 `weights` (the
    rule and its exactness bound are in `generate_synthetic`'s docstring)."""
    cum = weights.cumsum()
    total = int(cum[-1])
    at = x * total
    k = min(int(cum.searchsorted(at, side="right")), len(cum) - 1)  # `at` may round up to S
    tol = 4 * (len(cum) + 2) * 2.0 ** -53 * total
    if at - (int(cum[k - 1]) if k else 0) > tol and int(cum[k]) - at > tol:
        return k
    c = np.cumsum(weights / total)
    c /= c[-1]
    return int(c.searchsorted(x, side="right"))


def generate_synthetic(rule: str, n_nodes: int, n_events: int, seed: int) -> TemporalGraph:
    """Planted-rule event streams with strictly increasing integer timestamps.

    triadic-closure: with probability 0.8 the next event closes an open
    wedge among recent events (nodes u,v sharing a recent partner w and
    not recently linked themselves), else a uniform pair. The wedge pool
    is drawn from a sliding window of recent events so the rule stays
    active on small node sets instead of saturating once every pair has
    interacted.

    preferential-attachment: both endpoints drawn proportional to
    (degree + 1), the second with the first's weight set to 0. The 2E
    uniforms come from one ``rng.random((E, 2))`` call: the stream that 2E
    ``rng.choice(n, p=w / w.sum())`` calls read, one double each. `_pick`
    takes the first k with cum[k] > x * S, over the exact int64 cumulative
    weights cum with total S; a zero weight is an empty bucket and never
    picked. choice searches x in its float CDF, cumsum(w / S) over its last
    entry, which lies within (2n + 3) * 2**-53 of cum / S. So a draw farther
    than 4 * (n + 2) * 2**-53 from both edges of its exact bucket gets
    choice's index, and a nearer one is searched in choice's own float CDF:
    the graph is byte for byte the one the choice calls build.

    uniform-random: uniform distinct pairs.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
    if n_nodes < 3 or n_events < 1:
        raise ValueError("need n_nodes >= 3 and n_events >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC0FFEE])))
    src, dst = [], []

    def uniform_pair():
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes - 1))
        if v >= u:
            v += 1
        return u, v

    if rule == "uniform-random":
        for _ in range(n_events):
            u, v = uniform_pair()
            src.append(u)
            dst.append(v)
    elif rule == "preferential-attachment":
        deg = np.ones(n_nodes, dtype=np.int64)
        for x, y in rng.random((n_events, 2)).tolist():
            u = _pick(deg, x)
            rest = deg.copy()
            rest[u] = 0
            v = _pick(rest, y)
            src.append(u)
            dst.append(v)
            deg[u] += 1
            deg[v] += 1
    else:  # triadic-closure
        window: deque[tuple[int, int]] = deque(maxlen=TRIADIC_WINDOW)
        for _ in range(n_events):
            pair = None
            if window and rng.random() < TRIADIC_WEDGE_PROB:
                partners: dict[int, set[int]] = {}
                recent_pairs = set()
                for a, b in window:
                    partners.setdefault(a, set()).add(b)
                    partners.setdefault(b, set()).add(a)
                    recent_pairs.add((min(a, b), max(a, b)))
                wedges = set()
                for w, nbrs in partners.items():
                    for a in nbrs:
                        for b in nbrs:
                            if a < b and (a, b) not in recent_pairs:
                                wedges.add((a, b))
                if wedges:
                    cand = sorted(wedges)
                    pair = cand[int(rng.integers(len(cand)))]
            if pair is None:
                pair = uniform_pair()
            src.append(pair[0])
            dst.append(pair[1])
            window.append(pair)
    ts = np.arange(1, n_events + 1, dtype=np.float64)
    return TemporalGraph(src, dst, ts, np.zeros((n_events, 0)), n_nodes)
