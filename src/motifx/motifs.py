"""Retrospective temporal motif sampling, exhaustive enumeration, canonical coding, censuses.

A motif instance is a reverse-time-ordered event sequence anchored at a
node: each step picks an event strictly earlier than the previous one,
incident to the node set collected so far, keeping at most n nodes and
staying within a duration window. Trajectories that dead-end before
reaching the requested length are kept and flagged as truncated.

Canonical codes label nodes 0,1,2,... in first-touch order with the
anchor fixed to 0, and emit one digit pair per event; equal codes mean
the instances have the same topology with events in the same order.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError
from .graph import TemporalGraph, neighbor_events

DEFAULT_N = 3
DEFAULT_L = 3
ENUM_GUARD = 200
SMOOTHING = 1e-6


@dataclass(frozen=True)
class MotifInstance:
    anchor: int
    t0: float
    event_ids: tuple
    pairs: tuple          # (u, v) per event as stored in the graph
    times: tuple
    truncated: bool

    def __len__(self) -> int:
        return len(self.event_ids)

    @property
    def node_set(self) -> frozenset:
        return frozenset(n for p in self.pairs for n in p)


def _make_instance(g: TemporalGraph, anchor: int, t0: float, ids: list, l: int) -> MotifInstance:
    return MotifInstance(
        anchor=anchor, t0=t0,
        event_ids=tuple(int(i) for i in ids),
        pairs=tuple((int(g.src[i]), int(g.dst[i])) for i in ids),
        times=tuple(float(g.t[i]) for i in ids),
        truncated=len(ids) < l)


class _CandidateCache:
    """Admissible-event lookups keyed by (node set, previous event).

    The candidate set at a step depends only on the collected nodes and
    the previous event's timestamp, so repeated trajectories through the
    same state share one lookup.
    """

    def __init__(self, g: TemporalGraph, t0: float, n: int, delta: float | None):
        self.g = g
        self.t0 = t0
        self.n = n
        self.t_low = -math.inf if delta is None else t0 - delta
        self._cache: dict = {}

    def get(self, nodes: frozenset, t_prev: float, key) -> np.ndarray:
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        # with the node budget full, both endpoints must already be collected
        ids = neighbor_events(self.g, nodes, t_prev, strict=True, since=self.t_low,
                              closed=len(nodes) >= self.n)
        self._cache[key] = ids
        return ids


def _params_ok(n: int, l: int, c: int | None = None) -> None:
    if l < 1 or n < 2:
        raise ValueError("need l >= 1 and n >= 2")
    if c is not None and c < 1:
        raise ValueError("need C >= 1")


def sample_motifs(g: TemporalGraph, u0: int, t0: float, n: int = DEFAULT_N,
                  l: int = DEFAULT_L, c: int = 1, delta: float | None = None,
                  seed: int = 0) -> list[MotifInstance]:
    """Draw C trajectories of up to l events by sequential uniform sampling.

    Each step picks uniformly among events strictly earlier than the
    previous one, incident to the collected node set, inside the duration
    window and the n-node budget. Dead ends yield truncated instances.
    An anchor with no admissible history returns an empty list.
    """
    _params_ok(n, l, c)
    cache = _CandidateCache(g, t0, n, delta)
    first = cache.get(frozenset([u0]), t0, (u0,))
    if len(first) == 0:
        return []
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, int(u0)])))
    out = []
    for _ in range(c):
        draws = rng.random(l)
        nodes = frozenset([u0])
        key = (u0,)
        ids: list[int] = []
        t_prev = t0
        for j in range(l):
            cands = cache.get(nodes, t_prev, key)
            if len(cands) == 0:
                break
            pick = int(cands[int(draws[j] * len(cands))])
            ids.append(pick)
            nodes = nodes | {int(g.src[pick]), int(g.dst[pick])}
            t_prev = float(g.t[pick])
            key = (nodes, pick)
        out.append(_make_instance(g, u0, t0, ids, l))
    return out


def sample_motifs_tree(g: TemporalGraph, u0: int, t0: float, n: int, l: int,
                       fanout, delta: float | None = None, seed: int = 0) -> list[MotifInstance]:
    """Tree-structured sampling: level i extends every live trajectory k_i ways.

    The configuration has l entries when n >= l + 1, else n - 1 entries
    followed by single-child completion steps up to l events. The leaf
    count is the product of the fanouts; a trajectory that dead-ends is
    emitted once as truncated instead of being replicated.
    """
    _params_ok(n, l)
    fanout = [int(k) for k in fanout]
    want = l if n >= l + 1 else n - 1
    if len(fanout) != want or any(k < 1 for k in fanout):
        raise ValueError(f"fanout must have {want} positive entries for n={n}, l={l}")
    cache = _CandidateCache(g, t0, n, delta)
    if len(cache.get(frozenset([u0]), t0, (u0,))) == 0:
        return []
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, int(u0), 7919])))

    State = tuple  # (ids list, nodes frozenset, t_prev, key)
    live: list[State] = [([], frozenset([u0]), t0, (u0,))]
    done: list[list[int]] = []

    def extend(state: State):
        ids, nodes, t_prev, key = state
        cands = cache.get(nodes, t_prev, key)
        if len(cands) == 0:
            return None
        pick = int(cands[int(rng.random() * len(cands))])
        new_nodes = nodes | {int(g.src[pick]), int(g.dst[pick])}
        return (ids + [pick], new_nodes, float(g.t[pick]), (new_nodes, pick))

    for k in fanout:
        nxt: list[State] = []
        for state in live:
            grew = False
            for _ in range(k):
                child = extend(state)
                if child is None:
                    break
                grew = True
                nxt.append(child)
            if not grew:
                done.append(state[0])
        live = nxt
    for _ in range(l - want):
        nxt = []
        for state in live:
            child = extend(state)
            if child is None:
                done.append(state[0])
            else:
                nxt.append(child)
        live = nxt
    done.extend(state[0] for state in live)
    return [_make_instance(g, u0, t0, ids, l) for ids in done if ids]


def enumerate_motifs(g: TemporalGraph, u0: int, t0: float, n: int = DEFAULT_N,
                     l: int = DEFAULT_L, delta: float | None = None,
                     max_events: int = ENUM_GUARD) -> list[MotifInstance]:
    """Exhaustive depth-first expansion of every trajectory the sampler can emit.

    Returns each full-length instance exactly once plus every dead-ended
    (truncated) trajectory. Refuses graphs whose history before t0
    exceeds `max_events`.
    """
    _params_ok(n, l)
    history = g.id_cut(t0)
    if history > max_events:
        raise EnumerationLimitError(
            f"{history} events before t0 exceeds the enumeration guard ({max_events})")
    cache = _CandidateCache(g, t0, n, delta)
    out: list[MotifInstance] = []

    def rec(ids: list, nodes: frozenset, t_prev: float, key):
        if len(ids) == l:
            out.append(_make_instance(g, u0, t0, ids, l))
            return
        cands = cache.get(nodes, t_prev, key)
        if len(cands) == 0:
            if ids:
                out.append(_make_instance(g, u0, t0, ids, l))
            return
        for pick in cands:
            pick = int(pick)
            rec(ids + [pick],
                nodes | {int(g.src[pick]), int(g.dst[pick])},
                float(g.t[pick]), (nodes | {int(g.src[pick]), int(g.dst[pick])}, pick))

    rec([], frozenset([u0]), t0, (u0,))
    return out


# -- canonical coding ---------------------------------------------------------

def motif_code(inst: MotifInstance) -> str:
    """The 2l-digit equivalence label of an instance.

    Nodes are labelled by first touch with the anchor fixed to 0, so the
    first pair is always "01". When one endpoint of an event is new, the
    known endpoint's label comes first; when both are known, the smaller
    label comes first.
    """
    labels: dict[int, int] = {}
    digits = []
    for k, (a, b) in enumerate(inst.pairs):
        if k == 0:
            first, second = (a, b) if a == inst.anchor else (b, a)
            labels[first] = 0
            labels[second] = 1
            digits.append("01")
            continue
        known = [x for x in (a, b) if x in labels]
        if len(known) == 2:
            la, lb = sorted((labels[a], labels[b]))
            digits.append(f"{la}{lb}")
        else:
            old = known[0]
            new = b if old == a else a
            labels[new] = len(labels)
            digits.append(f"{labels[old]}{labels[new]}")
    return "".join(digits)


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
    def is_empty(self) -> bool:
        return self.total == 0

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


def census(instances) -> MotifCensus:
    """Count equivalence classes over instances of two or more events.

    Truncated instances are counted under their shorter code; single-event
    instances are skipped (they have no event order to classify).
    """
    counts: Counter = Counter()
    skipped = 0
    for inst in instances:
        if len(inst) < 2:
            skipped += 1
            continue
        counts[motif_code(inst)] += 1
    ordered = {code: counts[code] for code in sorted(counts)}
    return MotifCensus(counts=ordered, total=sum(counts.values()), skipped_short=skipped)


def null_model(g: TemporalGraph, seed: int = 0) -> TemporalGraph:
    """Timestamps permuted uniformly at random; endpoints and attributes untouched."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5EED])))
    perm = rng.permutation(g.n_events)
    return TemporalGraph(g.src.copy(), g.dst.copy(), g.t[perm], g.attrs.copy(), g.node_count)


def anchor_time(g: TemporalGraph, node: int) -> float:
    """Just after the node's last activity, so its whole history is visible."""
    ids = g.incident_before(node, math.inf)
    if len(ids) == 0:
        return -math.inf
    return float(np.nextafter(g.t[ids[-1]], math.inf))


def graph_census(g: TemporalGraph, n: int = DEFAULT_N, l: int = DEFAULT_L,
                 c_per_node: int = 20, delta: float | None = None,
                 seed: int = 0) -> MotifCensus:
    """Pooled census of C motifs sampled around every node at its last-activity time."""
    instances = []
    for node in range(g.node_count):
        t0 = anchor_time(g, node)
        if not math.isfinite(t0):
            continue
        instances.extend(sample_motifs(g, node, t0, n, l, c_per_node, delta, seed))
    return census(instances)


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
