"""Independent reference implementations used to verify the package.

Everything here is deliberately brute force and shares no code with the
package internals: plain loops over the raw event list, math.log scalar
arithmetic, permutation search for equivalence.
"""
from __future__ import annotations

import itertools
import math


def brute_force_neighbor_events(g, nodes, before, strict=True, since=-math.inf, closed=False):
    """Linear scan over the whole event list.

    `since` is an inclusive lower time bound; `closed` keeps only events
    with both endpoints in `nodes`.
    """
    nodes = set(int(n) for n in nodes)
    out = []
    for i in range(g.n_events):
        t = float(g.t[i])
        ok_t = (t < before if strict else t <= before) and t >= since
        a, b = int(g.src[i]), int(g.dst[i])
        ok_nodes = (a in nodes and b in nodes) if closed else (a in nodes or b in nodes)
        if ok_t and ok_nodes:
            out.append(i)
    return out


def brute_force_computational_graph(g, u, v, t, hops, per_hop_cap):
    """Hop-by-hop expansion from raw scans; returns {event id: first hop}."""
    hop_of = {}
    visited = {u, v}
    frontier = sorted(visited)
    for hop in range(1, hops + 1):
        reached = set()
        for w in frontier:
            history = [i for i in range(g.n_events)
                       if float(g.t[i]) < t and w in (int(g.src[i]), int(g.dst[i]))]
            for i in history[len(history) - min(per_hop_cap, len(history)):]:
                hop_of.setdefault(i, hop)
                other = int(g.dst[i]) if int(g.src[i]) == w else int(g.src[i])
                if other not in visited:
                    reached.add(other)
        visited |= reached
        frontier = sorted(reached)
    return hop_of


def validate_instance(g, inst, u0, t0, n, l, delta=None):
    """Every contract a sampled/enumerated instance must satisfy; returns problems."""
    problems = []
    k = len(inst.event_ids)
    if inst.anchor != u0:
        problems.append("anchor mismatch")
    if k == 0 or k > l:
        problems.append(f"bad length {k}")
        return problems
    if inst.truncated != (k < l):
        problems.append("truncated flag inconsistent with length")
    for eid, pair, t in zip(inst.event_ids, inst.pairs, inst.times):
        if {int(g.src[eid]), int(g.dst[eid])} != set(pair) or float(g.t[eid]) != t:
            problems.append(f"event {eid} does not match the graph")
    if u0 not in inst.pairs[0]:
        problems.append("first event not incident to the anchor")
    times = [t0] + list(inst.times)
    for a, b in zip(times, times[1:]):
        if not b < a:
            problems.append("times not strictly decreasing")
            break
    if delta is not None and t0 - inst.times[-1] > delta:
        problems.append("outside the duration window")
    nodes = set()
    for j, pair in enumerate(inst.pairs):
        touched = {u0} | nodes
        if not (pair[0] in touched or pair[1] in touched):
            problems.append(f"event {j} not incident to the collected node set")
        nodes |= set(pair)
    if len(nodes) > n:
        problems.append(f"{len(nodes)} nodes exceeds n={n}")
    if inst.truncated:
        # a truncated instance must genuinely have no admissible extension
        S = {u0} | nodes
        t_prev = inst.times[-1]
        t_low = -math.inf if delta is None else t0 - delta
        for i in range(g.n_events):
            t = float(g.t[i])
            if not (t_low <= t < t_prev):
                continue
            a, b = int(g.src[i]), int(g.dst[i])
            if a not in S and b not in S:
                continue
            if len(S | {a, b}) <= n:
                problems.append(f"truncated but event {i} could extend it")
                break
    return problems


def anchored_equivalent(i1, i2) -> bool:
    """Definition-level equivalence: some anchor-preserving node bijection maps
    the event sequence of one instance onto the other, position by position."""
    if len(i1.event_ids) != len(i2.event_ids):
        return False
    nodes1 = sorted(i1.node_set)
    nodes2 = sorted(i2.node_set)
    if len(nodes1) != len(nodes2):
        return False
    for perm in itertools.permutations(nodes2):
        phi = dict(zip(nodes1, perm))
        if phi.get(i1.anchor) != i2.anchor:
            continue
        if all({phi[a], phi[b]} == set(p2) for (a, b), p2 in zip(i1.pairs, i2.pairs)):
            return True
    return False


def enumerate_reference(g, u0, t0, n, l, delta=None):
    """Recursive trajectory enumeration straight from the definition,
    using only raw event scans. Returns (event-id tuple, truncated) pairs."""
    t_low = -math.inf if delta is None else t0 - delta
    out = []

    def admissible(S, t_prev):
        found = []
        for i in range(g.n_events):
            t = float(g.t[i])
            if not (t_low <= t < t_prev):
                continue
            a, b = int(g.src[i]), int(g.dst[i])
            if a not in S and b not in S:
                continue
            if len(S | {a, b}) <= n:
                found.append(i)
        return found

    def rec(ids, S, t_prev):
        if len(ids) == l:
            out.append((tuple(ids), False))
            return
        cands = admissible(S, t_prev)
        if not cands:
            if ids:
                out.append((tuple(ids), True))
            return
        for i in cands:
            rec(ids + [i], S | {int(g.src[i]), int(g.dst[i])}, float(g.t[i]))

    rec([], {u0}, t0)
    return out


def kl_uniform_scalar(scores, p) -> float:
    total = 0.0
    for s in scores:
        total += s * math.log(s / p) + (1.0 - s) * math.log((1.0 - s) / (1.0 - p))
    return total


def kl_empirical_scalar(scores, codes, p, m_probs) -> float:
    n = len(scores)
    s = sum(scores) / n
    total = (1.0 - s) * math.log((1.0 - s) / (1.0 - p))
    by_code = {}
    for sc, code in zip(scores, codes):
        by_code.setdefault(code, []).append(sc)
    z = sum(scores)
    for code, vals in by_code.items():
        q = sum(vals) / z
        total += s * q * math.log(s * q / (p * m_probs[code]))
    return total


def trapezoid_scalar(levels, values) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(zip(levels, values), zip(levels[1:], values[1:])):
        area += 0.5 * (y0 + y1) * (x1 - x0)
    return area / (levels[-1] - levels[0])


def cohesiveness_scalar(events, span) -> float:
    """events: list of (t, endpoint set). Direct double summation."""
    k = len(events)
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            ti, si = events[i]
            tj, sj = events[j]
            if si & sj:
                ratio = abs(ti - tj) / span if span > 0 else 0.0
                total += math.cos(ratio)
    return total / (k * k - k)


def average_precision_scalar(labels, scores) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    n_pos = sum(labels)
    return total / n_pos if n_pos else 0.0
