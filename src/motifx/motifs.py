"""Retrospective temporal motif sampling, exhaustive enumeration, canonical coding, censuses.

A motif is a reverse-time-ordered event sequence anchored at a node: each
step picks an event strictly earlier than the previous one, incident to
the node set collected so far, keeping at most n nodes and staying within
a duration window. It is held as one row of an (M, l) event-id block,
padded with -1: a trajectory that dead-ends before l events is kept, and
its row is truncated (row[-1] < 0).

`sample_id_block` is the one sampler. It advances every walker of
every anchor together, one step at a time, and never builds a candidate
set. Anchor u0 with seed s draws one (C, l) block from
SeedSequence([s, u0]); walker w uses row w, so the stream is that of C
calls of rng.random(l). At step j a walker with node set S has the id
window [cut(t0 - delta), cut(t_prev)), t_prev being t0 at step 0, and
counts its candidates below any id m without listing them:
  open (|S| < n):    sum_{v in S} row(v) - sum_{a<b in S} pair(a, b)
  closed (|S| = n):  sum_{a<b in S} pair(a, b)
with row and pair counts from two searches each on the graph's node and
pair indexes (an event between two members of S sits in both rows). Its
pick is candidate k = floor(draw_j * count): the largest id with k
candidates below it. The searches for the count at the window's end also
size the windowed lists that together hold every candidate in id order:
the rows of S while open, its pairs once closed. With want = k + 1, each
list L bounds the pick by direct reads: from above by L[want - 1] + 1,
from below by L[want - count + |L| - 1], as at most count - |L| of the
first `want` candidates lie outside L. Over the r non-empty lists, the
least L[ceil(want / r) - 1] is a lower bound too: one holds that many.
At step 0 the bounds meet and no search runs; later steps bisect on ids
only the walkers whose bracket is still wider than one id, one
`searchsorted` per round. Candidates are in id order, so the law and the
bytes are those of taking cands[k] from the ascending candidate list.

`enumerate_motifs`, the exact oracle, returns the same block layout. A
canonical code labels the nodes of the row's endpoints
u_0, v_0, u_1, ... by first touch, event 0 turned anchor first, and writes
each event's (min, max) label pair: the anchor is 0, the first pair is "01",
and equal codes mean the same topology with events in the same order.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, InvariantError
from .graph import TemporalGraph, neighbor_events

DEFAULT_N = 3
DEFAULT_L = 3
ENUM_GUARD = 200
SMOOTHING = 1e-6


def _params_ok(n: int, l: int, c: int | None = None) -> None:
    if l < 1 or n < 2:
        raise ValueError("need l >= 1 and n >= 2")
    if c is not None and c < 1:
        raise ValueError("need C >= 1")


def _count_terms(g: TemporalGraph, nodes: np.ndarray, lo: np.ndarray, closed) -> tuple:
    """Per walker (a row of `nodes`, padded with -1), the index keys, weights and
    window starts of its open or closed count (see the module docstring)."""
    first, second = np.triu_indices(nodes.shape[1], 1)
    ranks = g.pair_ranks(nodes[:, first], nodes[:, second])
    row_base = np.maximum(nodes, 0) * g.n_events
    pair_base = np.maximum(ranks, 0) * g.n_events
    return (row_base, (nodes >= 0) & ~closed[:, None],
            g._inc_key.searchsorted(row_base + lo[:, None]),
            pair_base, (ranks >= 0) * np.where(closed, 1, -1)[:, None],
            g._pair_key.searchsorted(pair_base + lo[:, None]))


def _sizes(g: TemporalGraph, terms: tuple, m: np.ndarray) -> tuple:
    """Per walker, the sizes of its row and pair lists over ids [window start, m[w])."""
    return (g._inc_key.searchsorted(terms[0] + m[:, None]) - terms[2],
            g._pair_key.searchsorted(terms[3] + m[:, None]) - terms[5])


def _below(g: TemporalGraph, terms: tuple, m: np.ndarray, sizes=None) -> np.ndarray:
    """Per walker, the number of its candidates with id < m[w]; `sizes` are `_sizes` at m."""
    rows, pairs = _sizes(g, terms, m) if sizes is None else sizes
    return (rows * terms[1]).sum(axis=1) + (pairs * terms[4]).sum(axis=1)


def _bracket(g: TemporalGraph, terms: tuple, sizes: tuple, want, total, low, high) -> tuple:
    """Per walker, ids [low, high) around its pick, read off its candidate lists at the
    ranks of the module docstring: the rows of S while open, the pairs of S once closed."""
    row_base, row_weight, row_lo, pair_base, pair_weight, pair_lo = terms
    lists = [(g._inc_key, row_base, row_lo, sizes[0] * row_weight),
             (g._pair_key, pair_base, pair_lo, sizes[1] * (pair_weight > 0))]
    share = -(-want // sum((size > 0).sum(axis=1) for *_, size in lists)) - 1
    # each bound's rank: the upper, the one-list lower (negated, so that every
    # bound is the least read over the lists) and the all-lists lower
    first = np.array([want - 1, want - total - 1, share])[:, :, None]
    grow, sign = np.array([0, 1, 0])[:, None, None], np.array([1, -1, 1])[:, None, None]
    least = g.n_events
    for key, base, start, size in lists:
        rank = first + grow * size
        ok = (rank >= 0) & (rank < size)
        read = np.where(ok, sign * (key[np.where(ok, start + rank, 0)] - base), g.n_events)
        least = np.minimum(least, read.min(axis=2, initial=g.n_events))
    return np.maximum.reduce([low, -least[1], least[2]]), np.minimum(high, least[0] + 1)


def sample_id_block(g: TemporalGraph, anchors, t0s, seeds, n: int = DEFAULT_N,
                    l: int = DEFAULT_L, c: int = 1,
                    delta: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The walker (see the module docstring): the (W, l) event-id block, padded with -1,
    and the ascending indexes `live` of the anchors with admissible history; rows
    k*C .. (k+1)*C - 1 walk back from anchor live[k]."""
    _params_ok(n, l, c)
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
    t0s = np.broadcast_to(np.asarray(t0s, dtype=np.float64), anchors.shape)
    lo = np.zeros(len(anchors), np.int64) if delta is None else g.t.searchsorted(t0s - delta)
    high = g.t.searchsorted(t0s)
    alone = _count_terms(g, anchors[:, None], lo, np.zeros(len(anchors), bool))
    live = np.flatnonzero(_below(g, alone, high) > 0)
    draws = np.concatenate([np.empty((0, l))] + [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seeds[i]), int(anchors[i])]))).random((c, l))
        for i in live.tolist()])
    walker_anchor = np.repeat(live, c)
    lo, high = lo[walker_anchor], high[walker_anchor]
    ids = np.full((len(walker_anchor), l), -1, dtype=np.int64)
    nodes = np.full((len(walker_anchor), n), -1, dtype=np.int64)
    nodes[:, 0] = anchors[walker_anchor]
    walkers = np.arange(len(walker_anchor))
    for j in range(l):
        held = nodes[walkers, :min(n, j + 1)]  # after j events, at most j + 1 nodes
        size = (held >= 0).sum(axis=1)
        terms = _count_terms(g, held, lo[walkers], size >= n)
        sizes = _sizes(g, terms, high)
        total = _below(g, terms, high, sizes)
        keep = total > 0
        walkers, low, high, total = walkers[keep], lo[walkers][keep], high[keep], total[keep]
        if not len(walkers):
            break
        terms, sizes = tuple(a[keep] for a in terms), tuple(a[keep] for a in sizes)
        size = size[keep]
        # the pick is candidate k: the largest id with k candidates below it
        want = (draws[walkers, j] * total).astype(np.int64) + 1
        low, high = _bracket(g, terms, sizes, want, total, low, high)
        rest = np.flatnonzero(high - low > 1)  # bisect only the undecided walkers
        terms = tuple(a[rest] for a in terms)
        while len(rest):
            mid = (low[rest] + high[rest]) // 2
            past = _below(g, terms, mid) >= want[rest]
            high[rest[past]], low[rest[~past]] = mid[past], mid[~past]
            still = high[rest] - low[rest] > 1
            rest, terms = rest[still], tuple(a[still] for a in terms)
        ids[walkers, j] = low
        # the event adds whichever endpoint is not yet collected, if any
        held, src, dst = nodes[walkers], g.src[low], g.dst[low]
        new = np.where((held == src[:, None]).any(axis=1), dst, src)
        grow = ~(held == new[:, None]).any(axis=1)
        nodes[walkers[grow], size[grow]] = new[grow]
        high = g.t.searchsorted(g.t[low])  # strictly before the event just taken
    return ids, live


def enumerate_motifs(g: TemporalGraph, u0: int, t0: float, n: int = DEFAULT_N,
                     l: int = DEFAULT_L, delta: float | None = None,
                     max_events: int = ENUM_GUARD) -> np.ndarray:
    """Exhaustive depth-first expansion of every trajectory the sampler can emit.

    Returns the (M, l) event-id block, padded with -1, of each full-length
    trajectory exactly once plus every dead-ended (truncated) one. Refuses
    graphs whose history before t0 exceeds `max_events`. Candidate sets
    come from `neighbor_events`, independently of the sampler's counting.
    """
    _params_ok(n, l)
    history = g.id_cut(t0)
    if history > max_events:
        raise EnumerationLimitError(
            f"{history} events before t0 exceeds the enumeration guard ({max_events})")
    since = -math.inf if delta is None else t0 - delta
    rows: list[list[int]] = []

    def rec(ids: list, nodes: frozenset, t_prev: float):
        if len(ids) == l:
            rows.append(ids)
            return
        # with the node budget full, both endpoints must already be collected
        cands = neighbor_events(g, nodes, t_prev, strict=True, since=since,
                                closed=len(nodes) >= n)
        if len(cands) == 0:
            if ids:
                rows.append(ids + [-1] * (l - len(ids)))
            return
        for pick in cands.tolist():
            rec(ids + [pick], nodes | {int(g.src[pick]), int(g.dst[pick])}, float(g.t[pick]))

    rec([], frozenset([u0]), t0)
    return np.array(rows, dtype=np.int64).reshape(len(rows), l)


# -- canonical coding ---------------------------------------------------------

def endpoint_rows(g: TemporalGraph, ids: np.ndarray) -> np.ndarray:
    """The (M, 2l) rows u_0, v_0, u_1, v_1, ... of an (M, l) event-id block, -1 on padding."""
    ends = np.where((ids >= 0)[:, :, None], np.stack([g.src[ids], g.dst[ids]], axis=2), -1)
    return ends.reshape(len(ids), 2 * ids.shape[1])


def first_touch(ends: np.ndarray) -> np.ndarray:
    """Per slot of (M, k) node rows padded with -1, its node's label within the row:
    nodes are numbered 0, 1, 2, ... in order of first appearance; -1 on padding."""
    first = (ends[:, :, None] == ends[:, None, :]).argmax(axis=2)  # first slot with that node
    fresh = (first == np.arange(ends.shape[1])) & (ends >= 0)
    labels = np.take_along_axis(np.cumsum(fresh, axis=1) - 1, first, axis=1)
    return np.where(ends >= 0, labels, -1)


def motif_codes(ends: np.ndarray, anchors) -> list[str]:
    """The canonical code (see the module docstring) of each (M, 2l) endpoint row
    anchored at anchors[i]; the strings are built once per distinct row."""
    ends = ends.copy()
    flip = ends[:, 0] != np.asarray(anchors)
    ends[flip, :2] = ends[flip, 1::-1]
    labels = first_touch(ends)
    pairs = np.sort(labels.reshape(-1, 2), axis=1).reshape(ends.shape)
    # both labels of a detached event exceed every label before it
    detached = pairs[:, 2::2] > np.maximum.accumulate(labels, axis=1)[:, 1:-1:2]
    if detached.any():
        raise InvariantError(f"motif row {np.argmax(detached.any(axis=1))}: an event after "
                             "the first touches no earlier node")
    # group equal rows: sort them lexicographically, then open a group at each change
    order = np.lexsort(pairs.T[::-1])
    ranked = pairs[order]
    opens = np.ones(len(ranked), dtype=bool)
    opens[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(ranked), dtype=np.int64)
    inverse[order] = np.cumsum(opens) - 1
    text = ["".join(f"{a}{b}" for a, b in zip(r[0::2], r[1::2]) if a >= 0)
            for r in ranked[opens].tolist()]
    return [text[i] for i in inverse.tolist()]


def code_alphabet(n: int = DEFAULT_N, l: int = DEFAULT_L) -> list[str]:
    """Every code reachable with at most n nodes and 2..l events, sorted.

    Codes grow by appending either a pair of already-known labels or
    (label, next-new-label); single events carry no order information and
    are not part of the class vocabulary.
    """
    _params_ok(n, l)
    out: list[str] = []
    frontier = [("01", 2)]
    for length in range(2, l + 1):
        nxt = []
        for code, m in frontier:
            pairs = [f"{i}{j}" for i in range(m) for j in range(i + 1, m)]
            if m < n:
                pairs += [f"{i}{m}" for i in range(m)]
            for p in sorted(pairs):
                grown = code + p
                new_m = m + 1 if int(p[1]) == m else m
                nxt.append((grown, new_m))
        out.extend(code for code, _ in nxt)
        frontier = nxt
    return sorted(out)


# -- census and null model ----------------------------------------------------

@dataclass
class MotifCensus:
    counts: dict
    total: int
    skipped_short: int = 0

    @property
    def probs(self) -> dict:
        if self.total == 0:
            return {}
        return {code: c / self.total for code, c in self.counts.items()}

    def to_json(self) -> str:
        probs = self.probs
        payload = {code: {"count": self.counts[code], "prob": probs.get(code, 0.0)}
                   for code in sorted(self.counts)}
        return json.dumps({"total": self.total, "skipped_short": self.skipped_short,
                           "classes": payload}, separators=(",", ":"), sort_keys=True) + "\n"


def census(g: TemporalGraph, ids: np.ndarray, anchors) -> MotifCensus:
    """Count equivalence classes over the rows of an (M, l) event-id block, row i
    anchored at anchors[i]. A truncated row counts under its shorter code; a
    single-event row is skipped (it has no event order to classify)."""
    kept = (ids >= 0).sum(axis=1) >= 2
    codes = motif_codes(endpoint_rows(g, ids[kept]), np.asarray(anchors)[kept])
    return MotifCensus(counts=dict(sorted(Counter(codes).items())), total=len(codes),
                       skipped_short=int((~kept).sum()))


def null_model(g: TemporalGraph, seed: int = 0) -> TemporalGraph:
    """Timestamps permuted uniformly at random; endpoints and attributes untouched."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    perm = rng.permutation(g.n_events)
    return TemporalGraph(g.src.copy(), g.dst.copy(), g.t[perm], g.attrs.copy(), g.node_count)


def anchor_time(g: TemporalGraph, node: int) -> float:
    """Just after the node's last activity, so its whole history is visible."""
    ids = g.history(node, math.inf)[0]
    if len(ids) == 0:
        return -math.inf
    return float(np.nextafter(g.t[ids[-1]], math.inf))


def graph_census(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                 c_per_node: int = 20, delta: float | None = None,
                 seed: int = 0) -> MotifCensus:
    """Pooled census of C motifs sampled around every node at its last-activity time."""
    t0s = [anchor_time(g, node) for node in range(g.node_count)]
    nodes = [node for node, t0 in enumerate(t0s) if math.isfinite(t0)]
    ids, live = sample_id_block(g, nodes, [t0s[v] for v in nodes], [seed] * len(nodes),
                                n, l, c_per_node, delta)
    return census(g, ids, np.repeat(np.asarray(nodes, dtype=np.int64)[live], c_per_node))


def _smooth(cen: MotifCensus, n: int, l: int, smoothing: float) -> dict:
    alphabet = code_alphabet(n, l)
    denom = cen.total + smoothing * len(alphabet)
    return {code: (cen.counts.get(code, 0) + smoothing) / denom for code in alphabet}


def empirical_class_probs(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                          c_per_node: int = 20, delta: float | None = None,
                          seed: int = 0, smoothing: float = SMOOTHING) -> dict:
    """Smoothed class probabilities of the graph itself over the closed code alphabet."""
    return _smooth(graph_census(g, n, l, c_per_node, delta, seed), n, l, smoothing)


def null_class_probs(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                     c_per_node: int = 20, delta: float | None = None,
                     seed: int = 0, smoothing: float = SMOOTHING) -> dict:
    """Smoothed class probabilities of the time-shuffled null model.

    Additive smoothing over the whole (n, l) alphabet keeps every class
    probability positive, which the empirical-prior loss divides by.
    """
    shuffled = null_model(g, seed)
    return _smooth(graph_census(shuffled, n, l, c_per_node, delta, seed + 1), n, l, smoothing)


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
