"""Retrospective temporal motif sampling, canonical coding, censuses.

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
with row and pair counts from one search on the graph's single sorted
index `_key` (an event between two members of S sits in both rows). Its
pick is candidate k = floor(draw_j * count): the largest id with k
candidates below it.

Step 0 searches nothing: S is the anchor alone, whose row window on `_key`
holds its candidates in id order, so the pick is the window's entry k.
Each later step lays out a walker's count as C(w, 2) terms over its first
w = min(n, j + 2) node columns, of which an open walker fills at most
w - 1: a closed walker's pairs, or an open walker's rows and pairs of its
first w - 1 nodes ((w - 1) + C(w - 1, 2) = C(w, 2)). Only a pair that
never interacts, or one that holds padding, has weight 0. The search for
the count at the window's end also sizes the windowed lists that together
hold every candidate in id order: the rows of S while open, its pairs
once closed. With want = k + 1, each list L bounds the pick by direct
reads: from above by L[want - 1] + 1, from below by
L[want - count + |L| - 1], as at most count - |L| of the first `want`
candidates lie outside L. Over the r non-empty lists, the least
L[ceil(want / r) - 1] is a lower bound too: one holds that many.

Then only the walkers whose bracket [low, high) is wider than one id are
searched, on their own candidates. A walker keeps its lists' positions
and its counts at low and high, takes an entry e in [low, high) of its
longest list and pivots at e + 1 (high - 1 if e = high - 1): one `graph.search`
per round, all walkers' terms in ascending order once they are many. e is
the goal's share of that list: of its `width` entries in [low, high), entry
(want - count(low) - 1) * width // (count(high) - count(low))
(interpolation search, Perl, Itai & Avni 1978), so a list that holds
every candidate ends in one round. After the first three rounds, every
other round takes the list's middle entry instead: such a round halves
the longest list (rounding up), and no round lengthens a list, so the
rounds stay within about twice those of the middle entry alone. A pivot counting
exactly want ends the walker at e, as each candidate is counted once. Any
pivot in (low, high) keeps count(low) < want <= count(high), and
candidates are in id order, so the law and the bytes are those of taking
cands[k] from the ascending candidate list.

The exact enumeration oracle (tests/oracles.py) returns the same block
layout. A canonical code labels the nodes of the row's endpoints
u_0, v_0, u_1, ... by first touch, event 0 turned anchor first, and writes
each event's (min, max) label pair: the anchor is 0, the first pair is "01",
and equal codes mean the same topology with events in the same order.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .graph import TemporalGraph, search

DEFAULT_N = 3
DEFAULT_L = 3
SMOOTHING = 1e-6
_pairs = functools.cache(lambda width: np.triu_indices(width, 1))  # column pairs a < b


def _params_ok(n: int, l: int, c: int | None = None) -> None:
    if l < 1 or n < 2:
        raise ValueError("need l >= 1 and n >= 2")
    if c is not None and c < 1:
        raise ValueError("need C >= 1")


def _count_terms(g: TemporalGraph, nodes: np.ndarray, lo: np.ndarray, closed) -> tuple:
    """Per walker (a row of the (W, w) `nodes`, padded with -1; an open walker holds at
    most w - 1 nodes, a closed one w), the bases, weights and window starts on the
    graph's `_key` of the C(w, 2) terms of its count (see the module docstring): a closed
    walker's pairs, weight 1; an open walker's rows of its first w - 1 nodes, weight 1,
    then their pairs, weight -1."""
    first, second = _pairs(nodes.shape[1])
    ranks = g.pair_ranks(nodes[:, first], nodes[:, second])
    inner = ranks[:, second < nodes.shape[1] - 1]  # the pairs of the first w - 1 nodes
    rows = nodes[:, :-1]
    closed = closed[:, None]
    base = np.where(closed, g.node_count + np.maximum(ranks, 0), np.concatenate(
        [np.maximum(rows, 0), g.node_count + np.maximum(inner, 0)], axis=1)) * g.n_events
    weight = np.where(closed, ranks >= 0, np.concatenate([rows >= 0, (inner >= 0) * -1], axis=1))
    return base, weight, search(g._key, base + lo[:, None])


def _stops(g: TemporalGraph, terms: tuple, m: np.ndarray) -> np.ndarray:
    """Per walker and term, the position on `_key` where its list stops at id m[w]."""
    return search(g._key, terms[0] + m[:, None])


def _below(g: TemporalGraph, terms: tuple, m: np.ndarray, stops=None) -> np.ndarray:
    """Per walker, the number of its candidates with id < m[w]; `stops` are `_stops` at m."""
    if stops is None:
        stops = _stops(g, terms, m)
    return ((stops - terms[2]) * terms[1]).sum(axis=1)


def _bracket(g: TemporalGraph, terms: tuple, sizes, want, total, low, high) -> tuple:
    """Per walker, ids [low, high) around its pick, read off its candidate lists (its
    terms of positive weight: the rows of S while open, the pairs of S once closed) at
    the ranks of the module docstring; `sizes` are the terms' sizes over the window."""
    base, weight, start = terms
    sizes = sizes * (weight > 0)
    share = -(-want // (sizes > 0).sum(axis=1)) - 1
    # each bound's rank: the upper, the one-list lower (negated, so that every
    # bound is the least read over the lists) and the all-lists lower
    grow, sign = np.array([0, 1, 0])[:, None, None], np.array([1, -1, 1])[:, None, None]
    rank = np.array([want - 1, want - total - 1, share])[:, :, None] + grow * sizes
    ok = (rank >= 0) & (rank < sizes)
    read = np.where(ok, sign * (g._key[np.where(ok, start + rank, 0)] - base), g.n_events)
    least = read.min(axis=2)
    return np.maximum.reduce([low, -least[1], least[2]]), np.minimum(high, least[0] + 1)


def _pivots(g: TemporalGraph, terms: tuple, ends: np.ndarray, counts: np.ndarray, goal,
            high, middle: bool) -> tuple:
    """Per undecided walker, an entry e of its longest list between its positions at low
    and at high (`ends`, stacked), and the next pivot: e + 1, or high - 1 if e is the
    last id before high. e is the goal's share of the list, its entry
    (goal - count(low) - 1) * width // (count(high) - count(low)) with the counts
    stacked in `counts`, or on `middle` rounds its middle entry. As count(low) < goal
    <= count(high), either entry lies in [low, high), so the pivot lies in (low, high)
    and keeps that invariant (see the module docstring)."""
    width = (ends[1] - ends[0]) * (terms[1] > 0)
    longest = width.argmax(axis=1)
    walker = np.arange(len(longest))
    width = width[walker, longest]
    offset = ((width - 1) // 2 if middle
              else (goal - counts[0] - 1) * width // (counts[1] - counts[0]))
    e = g._key[ends[0][walker, longest] + offset] - terms[0][walker, longest]
    return e, np.minimum(e + 1, high - 1)


def _search(g: TemporalGraph, terms: tuple, want, low, high) -> np.ndarray:
    """Per walker, its pick within the bracket [low, high): `low` once the search has
    narrowed each undecided walker's bracket, in place, to one id (see the module
    docstring)."""
    rest = np.flatnonzero(high - low > 1)  # search only the undecided walkers
    terms, goal = tuple(a[rest] for a in terms), want[rest]
    # each term's positions at low and at high, and the walker's counts there;
    # a pivot's stops and count replace one of each
    ends = search(g._key, terms[0] + np.stack([low[rest], high[rest]])[..., None])
    counts = ((ends - terms[2]) * terms[1]).sum(axis=2)
    r = 0
    while len(rest):
        e, pivot = _pivots(g, terms, ends, counts, goal, high[rest], r > 2 and r % 2 == 1)
        at = _stops(g, terms, pivot)
        count = _below(g, terms, pivot, at)
        past = count >= goal
        high[rest[past]], low[rest[~past]] = pivot[past], pivot[~past]
        hit = (count == goal) & (pivot > e)  # e is counted once, so it is the pick
        low[rest[hit]] = e[hit]
        side, walker = past * 1, np.arange(len(rest))
        ends[side, walker], counts[side, walker] = at, count
        still = high[rest] - low[rest] > 1
        rest, goal, ends, counts = rest[still], goal[still], ends[:, still], counts[:, still]
        terms = tuple(a[still] for a in terms)
        r += 1
    return low


def sample_id_block(g: TemporalGraph, anchors, t0s, seeds, n: int = DEFAULT_N,
                    l: int = DEFAULT_L, c: int = 1,
                    delta: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The walker (see the module docstring): the (W, l) event-id block, padded with -1,
    and the ascending indexes `live` of the anchors with admissible history; rows
    k*C .. (k+1)*C - 1 walk back from anchor live[k]."""
    _params_ok(n, l, c)
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
    t0s = np.broadcast_to(np.asarray(t0s, dtype=np.float64), anchors.shape)
    lo = np.zeros(len(anchors), np.int64) if delta is None else search(g.t, t0s - delta)
    start, stop = g.row_window(anchors, t0s, lo)  # each anchor's row window [lo, t0)
    count = stop - start
    live = np.flatnonzero(count > 0)
    draws = np.concatenate([np.empty((0, l))] + [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seeds[i]), int(anchors[i])]))).random((c, l))
        for i in live.tolist()])
    walker_anchor = np.repeat(live, c)
    lo = lo[walker_anchor]
    ids = np.full((len(walker_anchor), l), -1, dtype=np.int64)
    nodes = np.full((len(walker_anchor), n), -1, dtype=np.int64)
    nodes[:, 0] = anchors[walker_anchor]
    walkers = np.arange(len(walker_anchor))
    # step 0 reads its candidate k straight off the anchor's row window
    k = (draws[:, 0] * count[walker_anchor]).astype(np.int64)
    low = g._key[start[walker_anchor] + k] - nodes[:, 0] * g.n_events
    for j in range(l):
        if j:
            held = nodes[walkers, :min(n, j + 2)]  # after j events, at most j + 1 nodes
            terms = _count_terms(g, held, lo[walkers], held[:, -1] >= 0)  # a full row is closed
            stops = _stops(g, terms, high)
            total = _below(g, terms, high, stops)
            keep = total > 0
            walkers, low, high, total = walkers[keep], lo[walkers][keep], high[keep], total[keep]
            if not len(walkers):
                break
            terms, stops = tuple(a[keep] for a in terms), stops[keep]
            # the pick is candidate k: the largest id with k candidates below it
            want = (draws[walkers, j] * total).astype(np.int64) + 1
            low, high = _bracket(g, terms, stops - terms[2], want, total, low, high)
            low = _search(g, terms, want, low, high)
        ids[walkers, j] = low
        # the event adds whichever endpoint is not yet collected, if any
        held, src, dst = nodes[walkers], g.src[low], g.dst[low]
        new = np.where((held == src[:, None]).any(axis=1), dst, src)
        grow = ~(held == new[:, None]).any(axis=1)
        nodes[walkers[grow], (held[grow] >= 0).sum(axis=1)] = new[grow]
        high = search(g.t, g.t[low])  # strictly before the event just taken
    return ids, live


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
    first, inverse = group_rows(pairs)
    text = ["".join(f"{a}{b}" for a, b in zip(r[0::2], r[1::2]) if a >= 0)
            for r in pairs[first].tolist()]
    return [text[i] for i in inverse.tolist()]


def group_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal rows of a 2-d integer block, grouped in lexicographic row order: the index
    of each group's first row, and each row's group."""
    # sort the rows lexicographically, then open a group at each change
    order = np.lexsort(block.T[::-1])
    ranked = block[order]
    opens = np.ones(len(ranked), dtype=bool)
    opens[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(ranked), dtype=np.int64)
    inverse[order] = np.cumsum(opens) - 1
    return order[opens], inverse


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


def anchor_time(g: TemporalGraph, nodes):
    """Just after each node's last activity, so its whole history is visible; -inf for a
    node with none. A float for one node, an array for an array of nodes."""
    last = g.recent(nodes, math.inf, 1)[0][..., 0]  # -1 for a node with no events
    t0 = np.append(np.nextafter(g.t, math.inf), -math.inf)[last]
    return t0 if t0.ndim else float(t0)


def graph_census(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                 c_per_node: int = 20, delta: float | None = None,
                 seed: int = 0) -> MotifCensus:
    """Pooled census of C motifs sampled around every node at its last-activity time."""
    t0s = anchor_time(g, np.arange(g.node_count))
    nodes = np.flatnonzero(np.isfinite(t0s))
    ids, live = sample_id_block(g, nodes, t0s[nodes], [seed] * len(nodes), n, l, c_per_node, delta)
    return census(g, ids, np.repeat(nodes[live], c_per_node))


def _smooth(cen: MotifCensus, n: int, l: int) -> dict:
    alphabet = code_alphabet(n, l)
    denom = cen.total + SMOOTHING * len(alphabet)
    return {code: (cen.counts.get(code, 0) + SMOOTHING) / denom for code in alphabet}


def empirical_class_probs(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                          c_per_node: int = 20, delta: float | None = None,
                          seed: int = 0) -> dict:
    """Class probabilities of the graph itself over the code alphabet, smoothed by SMOOTHING."""
    return _smooth(graph_census(g, n, l, c_per_node, delta, seed), n, l)


def null_class_probs(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                     c_per_node: int = 20, delta: float | None = None,
                     seed: int = 0) -> dict:
    """Smoothed class probabilities of the time-shuffled null model.

    Additive smoothing by SMOOTHING over the whole (n, l) alphabet keeps every
    class probability positive, which the objective's KL divides by.
    """
    shuffled = null_model(g, seed)
    return _smooth(graph_census(shuffled, n, l, c_per_node, delta, seed + 1), n, l)


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
