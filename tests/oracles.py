"""Independent reference implementations used to verify the package.

Everything here is deliberately brute force and shares no code with the
package internals: plain loops over the raw event list, math.log scalar
arithmetic, permutation search for equivalence. The package's sampler is
checked against `enumerate_motifs`, the exact enumeration oracle, which
lists each step's candidates with a numpy mask over the raw src/dst/t
columns rather than the graph's sorted key. There are exceptions:
the walker that bisects every walker over its whole id window
(`reference_id_block`), which counts with the package's index terms;
the per-motif encoder (`reference_motif_encoder`, through the two-direction
GINE layer `reference_gine_layer` on the tape and the package's score head)
and the per-query base-model forward,
which run on the nn tape; the dense masked half
(`reference_dense_predict`), on the package's slot encoding and head;
the evaluation report
(`reference_evaluation`), which calls the package's `explain`,
`predict_batch` and random baseline one query and one view at a time;
and the motif-enhanced head at the end (`reference_enhanced_head`),
which trains the package's head code with `nn.fit`.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from motifx import nn
from motifx.basemodel import _head as _base_head
from motifx.features import event_feature_block
from motifx.errors import ShapeError
from motifx.layers import PROB_EPS
from motifx.motifs import _below, _count_terms, _params_ok
from motifx.nn import Tape


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


def brute_force_computational_graph(g, u, v, t, per_hop_cap):
    """Each endpoint's per_hop_cap latest events before t, from raw scans; returns the set
    of their ids."""
    members = set()
    for w in (u, v):
        history = [i for i in range(g.n_events)
                   if float(g.t[i]) < t and w in (int(g.src[i]), int(g.dst[i]))]
        members.update(history[len(history) - min(per_hop_cap, len(history)):])
    return members


def reference_preferential_attachment(n_nodes, n_events, seed):
    """Preferential-attachment endpoints (src, dst) from one `Generator.choice` call per
    endpoint, the second endpoint's draw with the first's weight zeroed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xC0FFEE])))
    src, dst = [], []
    deg = np.ones(n_nodes)
    for _ in range(n_events):
        p = deg / deg.sum()
        u = int(rng.choice(n_nodes, p=p))
        q = deg.copy()
        q[u] = 0.0
        q /= q.sum()
        v = int(rng.choice(n_nodes, p=q))
        src.append(u)
        dst.append(v)
        deg[u] += 1
        deg[v] += 1
    return src, dst


def reference_graph_json(g) -> str:
    """The graph JSON built one numpy scalar at a time."""
    events = [[int(u), int(v), float(tt), [float(a) for a in row]]
              for u, v, tt, row in zip(g.src, g.dst, g.t, g.attrs)]
    payload = {"node_count": g.node_count, "attr_width": g.attr_width, "events": events}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _events(g, row):
    """The row's events, padding dropped, as (id, (u, v), t) read from the raw columns."""
    return [(int(i), (int(g.src[i]), int(g.dst[i])), float(g.t[i])) for i in row if i >= 0]


def validate_instance(g, anchor, row, t0, n, l, delta=None):
    """Every contract a sampled/enumerated id-block row anchored at `anchor` must
    satisfy; returns problems."""
    problems = []
    row = [int(i) for i in row]
    k = sum(i >= 0 for i in row)
    if len(row) != l:
        problems.append(f"row of {len(row)} slots for l={l}")
    if k == 0 or k > l:
        problems.append(f"bad length {k}")
        return problems
    if any(i < 0 for i in row[:k]) or any(i >= 0 for i in row[k:]):
        problems.append("padding is not a suffix, so truncation is not row[-1] < 0")
    if any(i >= g.n_events for i in row):
        problems.append("event id outside the graph")
        return problems
    events = _events(g, row)
    pairs = [pair for _, pair, _ in events]
    times = [t for _, _, t in events]
    if anchor not in pairs[0]:
        problems.append("first event not incident to the anchor")
    for a, b in zip([t0] + times, times):
        if not b < a:
            problems.append("times not strictly decreasing")
            break
    if delta is not None and t0 - times[-1] > delta:
        problems.append("outside the duration window")
    nodes = set()
    for j, pair in enumerate(pairs):
        touched = {anchor} | nodes
        if not (pair[0] in touched or pair[1] in touched):
            problems.append(f"event {j} not incident to the collected node set")
        nodes |= set(pair)
    if len(nodes) > n:
        problems.append(f"{len(nodes)} nodes exceeds n={n}")
    if k < l:
        # a truncated row must genuinely have no admissible extension
        S = {anchor} | nodes
        t_prev = times[-1]
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


def anchored_equivalent(g, anchor1, row1, anchor2, row2) -> bool:
    """Definition-level equivalence: some anchor-preserving node bijection maps
    the event sequence of one row onto the other, position by position."""
    pairs1 = [pair for _, pair, _ in _events(g, row1)]
    pairs2 = [pair for _, pair, _ in _events(g, row2)]
    if len(pairs1) != len(pairs2):
        return False
    nodes1 = sorted({x for pair in pairs1 for x in pair})
    nodes2 = sorted({x for pair in pairs2 for x in pair})
    if len(nodes1) != len(nodes2):
        return False
    for perm in itertools.permutations(nodes2):
        phi = dict(zip(nodes1, perm))
        if phi.get(anchor1) != anchor2:
            continue
        if all({phi[a], phi[b]} == set(p2) for (a, b), p2 in zip(pairs1, pairs2)):
            return True
    return False


def reference_motif_code(g, anchor, row) -> str:
    """The canonical code one event at a time: nodes labelled by first touch with
    the anchor fixed to 0; a known endpoint's label comes before a new one's, and
    an event between two known nodes lists the smaller label first."""
    labels = {}
    digits = []
    for k, (_, (a, b), _) in enumerate(_events(g, row)):
        if k == 0:
            first, second = (a, b) if a == anchor else (b, a)
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


def admissible(g, S, t_prev, n, t_low=-math.inf):
    """The events a walker holding node set S may take after time t_prev,
    ascending id: t_low <= t < t_prev, incident to S, within the n-node budget."""
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


def enumerate_reference(g, u0, t0, n, l, delta=None):
    """Recursive trajectory enumeration straight from the definition,
    using only raw event scans. Returns (event-id tuple, truncated) pairs."""
    t_low = -math.inf if delta is None else t0 - delta
    out = []

    def rec(ids, S, t_prev):
        if len(ids) == l:
            out.append((tuple(ids), False))
            return
        cands = admissible(g, S, t_prev, n, t_low)
        if not cands:
            if ids:
                out.append((tuple(ids), True))
            return
        for i in cands:
            rec(ids + [i], S | {int(g.src[i]), int(g.dst[i])}, float(g.t[i]))

    rec([], {u0}, t0)
    return out


ENUM_GUARD = 200


class EnumerationLimitError(Exception):
    """Exhaustive enumeration refused: history larger than the size guard."""


def enumerate_motifs(g, u0, t0, n=3, l=3, delta=None, max_events=ENUM_GUARD):
    """Exhaustive depth-first expansion of every trajectory the sampler can emit.

    Returns the (M, l) event-id block, padded with -1, of each full-length
    trajectory exactly once plus every dead-ended (truncated) one, in
    depth-first id order. Refuses graphs whose history before t0 exceeds
    `max_events`. Each step's candidates are a numpy mask over the raw
    src/dst/t columns: t_low <= t < t_prev, incident to the node set, and
    with the n-node budget full, both endpoints already collected.
    """
    if l < 1 or n < 2:
        raise ValueError("need l >= 1 and n >= 2")
    history = int(np.count_nonzero(g.t < t0))
    if history > max_events:
        raise EnumerationLimitError(
            f"{history} events before t0 exceeds the enumeration guard ({max_events})")
    in_window = g.t >= (-math.inf if delta is None else t0 - delta)
    rows = []

    def rec(ids, nodes, t_prev):
        if len(ids) == l:
            rows.append(ids)
            return
        at_src, at_dst = np.isin(g.src, list(nodes)), np.isin(g.dst, list(nodes))
        touch = (at_src & at_dst) if len(nodes) >= n else (at_src | at_dst)
        cands = np.flatnonzero(touch & in_window & (g.t < t_prev))
        if len(cands) == 0:
            if ids:
                rows.append(ids + [-1] * (l - len(ids)))
            return
        for pick in cands.tolist():
            rec(ids + [pick], nodes | {int(g.src[pick]), int(g.dst[pick])}, float(g.t[pick]))

    rec([], frozenset([u0]), t0)
    return np.array(rows, dtype=np.int64).reshape(len(rows), l)


def reference_sample_motifs(g, u0, t0, n, l, c, delta=None, seed=0):
    """The sampler's law one walker and one step at a time: walker k draws
    rng.random(l) from SeedSequence([seed, u0]) and step j takes candidate
    floor(draw_j * count) of the admissible scan. Returns event-id tuples."""
    t_low = -math.inf if delta is None else t0 - delta
    if not admissible(g, {u0}, t0, n, t_low):
        return []
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, int(u0)])))
    out = []
    for _ in range(c):
        draws = rng.random(l)
        ids, S, t_prev = [], {u0}, t0
        for j in range(l):
            cands = admissible(g, S, t_prev, n, t_low)
            if not cands:
                break
            pick = cands[int(draws[j] * len(cands))]
            ids.append(pick)
            S = S | {int(g.src[pick]), int(g.dst[pick])}
            t_prev = float(g.t[pick])
        out.append(tuple(ids))
    return out


def reference_id_block(g, anchors, t0s, seeds, n=3, l=3, c=1, delta=None):
    """`motifs.sample_id_block` without the bracket or the candidate pivots: at every
    step, every walker bisects on event-id midpoints over its whole window, one
    `_below` per round."""
    _params_ok(n, l, c)
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
    t0s = np.broadcast_to(np.asarray(t0s, dtype=np.float64), anchors.shape)
    lo = np.zeros(len(anchors), np.int64) if delta is None else g.t.searchsorted(t0s - delta)
    high = g.t.searchsorted(t0s)
    alone = _count_terms(g, np.stack([anchors, np.full_like(anchors, -1)], axis=1), lo,
                         np.zeros(len(anchors), bool))
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
        held = nodes[walkers, :min(n, j + 2)]  # after j events, at most j + 1 nodes
        size = (held >= 0).sum(axis=1)
        terms = _count_terms(g, held, lo[walkers], size >= n)
        total = _below(g, terms, high)
        keep = total > 0
        walkers, low, high, total = walkers[keep], lo[walkers][keep], high[keep], total[keep]
        terms, size = tuple(a[keep] for a in terms), size[keep]
        # the pick is candidate k: the largest id with k candidates below it
        want = (draws[walkers, j] * total).astype(np.int64) + 1
        while np.any(high - low > 1):
            mid = (low + high) // 2
            past = _below(g, terms, mid) >= want
            high, low = np.where(past, mid, high), np.where(past, low, mid)
        ids[walkers, j] = low
        # the event adds whichever endpoint is not yet collected, if any
        held, src, dst = nodes[walkers], g.src[low], g.dst[low]
        new = np.where((held == src[:, None]).any(axis=1), dst, src)
        grow = ~(held == new[:, None]).any(axis=1)
        nodes[walkers[grow], size[grow]] = new[grow]
        high = g.t.searchsorted(g.t[low])  # strictly before the event just taken
    return ids, live


def trajectory_probability(g, u0, t0, n, ids, delta=None):
    """Exact probability that one walker emits the trajectory `ids`: the product
    over its steps of 1/|admissible| (a dead end stops with probability 1)."""
    t_low = -math.inf if delta is None else t0 - delta
    prob, S, t_prev = 1.0, {u0}, t0
    for i in ids:
        prob /= len(admissible(g, S, t_prev, n, t_low))
        S = S | {int(g.src[i]), int(g.dst[i])}
        t_prev = float(g.t[i])
    return prob


def reference_encoder_inputs(g, t, rows, comp_ids, l, n):
    """The motif-encoder inputs of one query, built one row and one event at a time
    from the raw columns, as a dict of QueryPrep's array fields and "src_onehot", the
    input of `reference_gine_layer`. The distinct rows, sorted as tuples, give one
    padded item each; a row numbers its nodes in order of first appearance over u_0,
    v_0, u_1, v_1, ..., edge slot 2j (2j + 1) has event j's u (v) as its source, and
    event j adds one to the incidence of each of its endpoints. Structural counts
    include every copy of a row."""
    rows = [tuple(int(i) for i in row) for row in rows]
    motifs = [_events(g, row) for row in rows]
    struct = {}
    for events in motifs:
        for j, (_, (a, b), _) in enumerate(events):
            struct.setdefault((min(a, b), max(a, b)), [0] * l)[j] += 1
    distinct = sorted(set(rows))
    onehot = np.zeros((len(distinct), 2 * l, n))
    incidence = np.zeros((len(distinct), n, l))
    attrs = np.zeros((len(distinct), l, g.attr_width))
    h_rows = np.zeros((len(distinct), l, l))
    dts = np.zeros((len(distinct), l))
    for u, row in enumerate(distinct):
        local = {}
        for j, (eid, (a, b), te) in enumerate(_events(g, row)):
            for side, x in enumerate((a, b)):
                onehot[u, 2 * j + side, local.setdefault(x, len(local))] = 1.0
                incidence[u, local[x], j] += 1.0
            attrs[u, j] = g.attrs[eid]
            h_rows[u, j] = struct[(min(a, b), max(a, b))]
            dts[u, j] = t - te
    comp = set(int(e) for e in comp_ids)
    covered = sorted({eid for events in motifs for eid, _, _ in events if eid in comp})
    cov_pos = {e: i for i, e in enumerate(covered)}
    pair_cov, pair_motif = [], []
    for m_idx, events in enumerate(motifs):
        for eid, _, _ in events:
            if eid in cov_pos:
                pair_cov.append(cov_pos[eid])
                pair_motif.append(m_idx)
    ints = lambda xs: np.array(xs, dtype=np.int64)
    return {"covered_ids": ints(covered), "pair_cov": ints(pair_cov),
            "pair_motif": ints(pair_motif), "inverse": ints([distinct.index(r) for r in rows]),
            "incidence": incidence, "src_onehot": onehot, "attrs_block": attrs,
            "h_block": h_rows, "dts": dts}


def reference_time_encode(delta_t, w, g_out):
    """The time encoding's value and w gradient under upstream gradient `g_out`, in plain
    numpy as a chain of five steps: angles = dt @ w, then cos and sin of the angles, woven
    as [cos0, sin0, cos1, ...], then scaled by sqrt(1/d). The vjps run in reverse, cos's
    before sin's, each step's product in the same order, so the bits are the chain's."""
    w = np.asarray(w, dtype=np.float64)
    d, c = w.shape[0], math.sqrt(1.0 / w.shape[0])
    dt = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    angles = dt @ w.reshape(1, d)
    woven = np.empty((len(dt), 2 * d))
    woven[:, 0::2], woven[:, 1::2] = np.cos(angles), np.sin(angles)
    g = np.asarray(g_out, dtype=np.float64) * c
    g_angles = -g[:, 0::2] * np.sin(angles)
    g_angles = g_angles + g[:, 1::2] * np.cos(angles)
    return woven * c, (dt.T @ g_angles).reshape(d)


def reference_gine_layer(tape, prefix: str, x, src: np.ndarray, edge_feats):
    """The GINE layer on any (S, n, h) node states, one message per directed edge slot.

    x'_i = h1((1 + eps) * x_i + sum_j ReLU(x_j + h2(E_ji))) where h2
    projects edge features to the node width and h1 is a two-layer MLP.
    edge_feats is (S * l, w), one row per event slot. Directed edge slot k of a
    motif is event k // 2, read u -> v for even k and v -> u for odd k, so its
    target is the source of slot k ^ 1; src (S, 2l, n) is the 0/1 matrix of each
    slot's source node, zero for a padding slot. The gather and the target sum
    are stacked products, each motif its own.
    """
    s, n, h = x.value.shape
    proj = tape.affine(edge_feats, f"{prefix}.edge")
    if proj.value.shape[1] != h:
        raise ShapeError(f"gine: edge projection {proj.value.shape} vs nodes {x.value.shape}")
    slots = src.shape[1]
    dst = src[:, np.arange(slots) ^ 1].transpose(0, 2, 1)
    # both directions of an event add its one projection; its vjp sums the two
    gathered = nn.reshape(nn.bmm(src, x), (s, slots // 2, 2, h))
    msgs = nn.relu(nn.add(gathered, nn.reshape(proj, (s, slots // 2, 1, h))))
    agg = nn.bmm(dst, nn.reshape(msgs, (s, slots, h)))
    eps = tape.param(f"{prefix}.eps")
    pre = nn.reshape(nn.add(nn.mul(x, nn.add(nn.const(1.0), eps)), agg), (s * n, h))
    hid = nn.relu(tape.affine(pre, f"{prefix}.h1a"))
    return nn.reshape(tape.affine(hid, f"{prefix}.h1b"), (s, n, h))


def reference_motif_encoder(tape, inputs, ctx):
    """Per motif row, its (score, embedding) from one query's `reference_encoder_inputs`,
    each row encoded alone as a stack of one padded item: n copies of the `nodein`
    row pass `reference_gine_layer`; the embedding is the mean over the nodes that
    some edge slot touches; the score is the clamped score head on [embedding, ctx]."""
    out = []
    for u in inputs["inverse"]:
        src = inputs["src_onehot"][u:u + 1]
        n = src.shape[2]
        feat = event_feature_block(inputs["attrs_block"][u], inputs["dts"][u],
                                   inputs["h_block"][u], tape.param("time_w"))
        x = tape.affine(nn.const(np.ones((n, 1))), "nodein")
        x = nn.reshape(x, (1, n, x.value.shape[1]))
        x = reference_gine_layer(tape, "gine0", x, src, feat)
        nodes = np.flatnonzero(src[0].any(axis=0))
        rows = nn.gather_rows(nn.reshape(x, (n, x.value.shape[2])), nodes)
        emb = nn.scale(nn.vsum(rows, axis=0, keepdims=True), 1.0 / len(nodes))
        score = _base_head(tape, nn.concat([emb, nn.const(ctx[None, :])], axis=1), "score")
        out.append((float(nn.clip(score, PROB_EPS, 1.0 - PROB_EPS).value[0]), emb.value[0]))
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


def reference_random_baseline(comp_members, sparsity_level, seed) -> set:
    """`metrics.random_baseline` as it was first written: sorted Python ints, the same
    generator and draw, and a set built id by id."""
    ids = np.array(sorted(int(e) for e in comp_members), dtype=np.int64)
    size = math.ceil(sparsity_level * len(ids))
    if size >= len(ids):
        return set(int(e) for e in ids)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xBA5E11])))
    pick = rng.choice(len(ids), size=size, replace=False)
    return set(int(ids[i]) for i in pick)


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


# -- the base model's forward, one query at a time ------------------------------
#
# The predictor's forward as it was before batching: per endpoint, the kept
# events of its K most recent ones, common-partner matches from a double
# loop, attention as a (1 x K) matrix product, and an explicit branch for
# the entirely empty view. Only the nn tape primitives and the time
# encoding are shared with the package.

def _side_view(g, node, other, t, k_nb):
    """Brute-force history of `node` before t: its last k_nb events, oldest first."""
    ids = [i for i in range(g.n_events)
           if float(g.t[i]) < t and node in (int(g.src[i]), int(g.dst[i]))][-k_nb:]
    partners = [int(g.dst[i]) if int(g.src[i]) == node else int(g.src[i]) for i in ids]
    return {"ids": ids, "partners": partners,
            "dts": np.array([t - float(g.t[i]) for i in ids]),
            "attrs": np.array([g.attrs[i] for i in ids]).reshape(len(ids), g.attr_width),
            "direct": np.array([1.0 if p == other else 0.0 for p in partners])}


def _node_feats(g, nodes, t):
    rows = []
    for w in nodes:
        deg = sum(1 for i in range(g.n_events)
                  if float(g.t[i]) < t and w in (int(g.src[i]), int(g.dst[i])))
        rows.append([1.0, math.log1p(deg)])
    return np.array(rows, dtype=np.float64).reshape(len(rows), 2)


def _attention(query, keys, values, mask):
    dim = keys.value.shape[1]
    scores = nn.scale(nn.matmul(keys, nn.reshape(query, (dim, 1))), 1.0 / math.sqrt(dim))
    scores = nn.reshape(scores, (-1,))
    shifted = nn.exp(nn.sub(scores, nn.const(float(np.max(scores.value)))))
    weighted = nn.mul(nn.reshape(mask, (-1,)), shifted)
    w = nn.div(weighted, nn.vsum(weighted))
    return nn.reshape(nn.matmul(nn.reshape(w, (1, -1)), values), (-1,))


def _build_matches(side, keep, other, other_keep):
    """(slot, other-index) pairs where a kept event's partner is also the partner
    of one of the other side's kept events."""
    slots, other_idx = [], []
    other_partners = [other["partners"][i] for i in other_keep]
    for slot, i in enumerate(keep):
        for j, op in enumerate(other_partners):
            if op == side["partners"][i]:
                slots.append(slot)
                other_idx.append(j)
    return np.array(slots, dtype=np.int64), np.array(other_idx, dtype=np.int64)


def _sides(views, keeps, mask_of):
    """Per side: kept slots, their mask, and the cross-side matches with their ages and masks."""
    sides = {}
    for name, other_name in (("u", "v"), ("v", "u")):
        side, other = views[name], views[other_name]
        slots, other_idx = _build_matches(side, keeps[name], other, keeps[other_name])
        other_keep = np.array(keeps[other_name], dtype=np.int64)
        sides[name] = {
            "keep": keeps[name], "mask": mask_of(name, keeps[name]),
            "match_slot": slots,
            "match_dt": other["dts"][other_keep[other_idx]] if len(slots) else np.zeros(0),
            "match_mask": mask_of(other_name, list(other_keep[other_idx]))}
    return sides


def _head(tape, reprs):
    logit = tape.affine(nn.relu(tape.affine(nn.concat(reprs, axis=1), "head1")), "head2")
    return nn.sigmoid(nn.reshape(logit, ()))


def _forward(tape, store, g, query, views, sides):
    h = store.meta["h"]
    if all(len(sides[s]["keep"]) == 0 for s in ("u", "v")):
        x_t = nn.relu(tape.affine(nn.const(np.zeros((1, 2 * h))), "out"))
        return _head(tape, [x_t, x_t])
    inv_tau = nn.exp(nn.scale(tape.param("wedge_logtau"), -1.0))
    reprs = []
    for name, node in (("u", query.u), ("v", query.v)):
        side, pack = views[name], sides[name]
        x_self = tape.affine(nn.const(_node_feats(g, [node], query.t)), "node")
        keep = np.array(pack["keep"], dtype=np.int64)
        if len(keep) == 0:
            ctx = nn.const(np.zeros((1, h)))
        else:
            if len(pack["match_slot"]):
                decay = nn.exp(nn.mul(nn.const(-pack["match_dt"]), inv_tau))
                vals = nn.mul(pack["match_mask"], decay)
                c_common = nn.segment_max(vals, pack["match_slot"], len(keep))
            else:
                c_common = nn.const(np.zeros(len(keep)))
            partners = [side["partners"][i] for i in keep]
            x_nbr = tape.affine(nn.const(_node_feats(g, partners, query.t)), "node")
            t_enc = nn.time_encode(side["dts"][keep], tape.param("time_w"))
            key_in = nn.concat([x_nbr, nn.const(side["attrs"][keep]), t_enc,
                                nn.const(side["direct"][keep].reshape(-1, 1)),
                                nn.reshape(c_common, (-1, 1))], axis=1)
            q_vec = nn.reshape(tape.affine(x_self, "q"), (-1,))
            ctx = nn.reshape(_attention(q_vec, tape.affine(key_in, "k"),
                                        tape.affine(key_in, "v"), pack["mask"]), (1, -1))
        reprs.append(nn.relu(tape.affine(nn.concat([x_self, ctx], axis=1), "out")))
    return _head(tape, reprs)


def empty_context_output(store) -> float:
    """The constant the package's model outputs on an entirely empty view: its head on
    ``relu(out(0))`` for both sides, duplicated to two rows as the package does."""
    h = store.meta["h"]
    tape = Tape(store)
    x_t = nn.relu(tape.affine(nn.const(np.zeros((2, 2 * h))), "out"))
    return float(_base_head(tape, nn.reshape(x_t, (1, 2 * h))).value[0])


def _views(store, g, query):
    k_nb = store.meta["k_nb"]
    return {"u": _side_view(g, query.u, query.v, query.t, k_nb),
            "v": _side_view(g, query.v, query.u, query.t, k_nb)}


def reference_predict(store, g, query, retained=None) -> float:
    """Hard-masked prediction: all-ones masks over the retained events of each side."""
    views = _views(store, g, query)
    keeps = {name: [i for i, e in enumerate(view["ids"]) if retained is None or e in retained]
             for name, view in views.items()}
    sides = _sides(views, keeps, lambda name, keep: nn.const(np.ones(len(keep))))
    return float(_forward(Tape(store), store, g, query, views, sides).value)


def reference_soft_predict(tape, store, g, query, covered_ids, event_mask):
    """Differentiable prediction keeping the covered events, weighted by event_mask."""
    views = _views(store, g, query)
    pos_of = {int(e): i for i, e in enumerate(covered_ids)}
    keeps = {name: [i for i, e in enumerate(view["ids"]) if e in pos_of]
             for name, view in views.items()}

    def mask_of(name, keep):
        idx = np.array([pos_of[views[name]["ids"][i]] for i in keep], dtype=np.int64)
        return nn.gather_rows(event_mask, idx) if len(idx) else nn.const(np.zeros(0))
    return _forward(tape, store, g, query, views, _sides(views, keeps, mask_of))


def reference_batch_loss(tape, store, g, batch):
    """Mean binary cross-entropy over (query, label) pairs, one forward each."""
    terms = []
    for query, label in batch:
        views = _views(store, g, query)
        keeps = {name: list(range(len(view["ids"]))) for name, view in views.items()}
        sides = _sides(views, keeps, lambda name, keep: nn.const(np.ones(len(keep))))
        p = nn.clip(_forward(tape, store, g, query, views, sides), 1e-7, 1.0 - 1e-7)
        term = nn.scale(nn.log(p) if label == 1 else nn.log(nn.sub(nn.const(1.0), p)), -1.0)
        terms.append(nn.reshape(term, (1,)))
    return nn.vmean(nn.concat(terms, axis=0))


# -- the masked half in its dense (B, 2, K) layout -----------------------------
#
# The hard-masked forward as the package ran it before the masked half was
# compacted to the retained slots: partner matches from a (B, 2, K, K)
# equality tensor, and the key projections, scores and weighted value sums
# over every slot of every view, padding included (shifted by its own
# score). It runs on the package's slot encoding and head, so the compacted
# forward must give its probabilities and representations bit for bit.

def reference_dense_predict(store, g, queries, retained):
    """Probabilities (B,) and representations (B, 2h) of query b under retained[b], the
    set of event ids it keeps (None: its full view)."""
    from motifx.basemodel import _head, encode_slots
    tape = Tape(store)
    enc = encode_slots(tape, store, g, queries)
    (n_q, _, k), h, partners = enc.ids.shape, store.meta["h"], enc.partners
    valid = np.array([(ids >= 0) & (True if view is None else np.isin(ids, sorted(view)))
                      for ids, view in zip(enc.ids, retained)], dtype=bool).reshape(enc.ids.shape)
    hard = nn.const(valid.astype(np.float64))
    vals = nn.mul(hard, enc.decay)
    match = (valid[:, :, :, None] & valid[:, ::-1, None, :]
             & (partners[:, :, :, None] == partners[:, ::-1, None, :]))
    b, s, i, j = np.nonzero(match)
    c_common = nn.segment_max(nn.gather_rows(nn.reshape(vals, (-1,)), (b * 2 + 1 - s) * k + j),
                              (b * 2 + s) * k + i, 2 * n_q * k)
    cached = enc.key_cols.value.reshape(2 * n_q * k, -1)[:, :-1]  # less the c_common place
    key_in = nn.concat([nn.const(cached), nn.reshape(c_common, (-1, 1))], axis=1)
    keys = nn.reshape(tape.affine(key_in, "k"), (n_q, 2, k, h))
    values = nn.reshape(tape.affine(key_in, "v"), (n_q, 2, k, h))
    q = nn.reshape(enc.q_vec, (n_q, 2, 1, h))
    scores = nn.scale(nn.vsum(nn.mul(keys, q), axis=-1), 1.0 / math.sqrt(h))
    top = np.where(valid, scores.value, -np.inf).max(axis=-1, keepdims=True, initial=-np.inf)
    weighted = nn.mul(nn.mul(hard, hard),
                      nn.exp(nn.sub(scores, nn.const(np.where(valid, top, scores.value)))))
    denom = nn.add(nn.vsum(weighted, axis=-1, keepdims=True),
                   nn.const((~valid.any(axis=-1, keepdims=True)).astype(np.float64)))
    w = nn.div(weighted, denom)
    ctx = nn.vsum(nn.mul(nn.reshape(w, (n_q, 2, k, 1)), values), axis=-2)
    nonempty = np.repeat(valid.any(axis=(1, 2)), 2).astype(np.float64).reshape(-1, 1)
    x = nn.mul(nn.concat([nn.reshape(enc.x_self, (2 * n_q, h)), nn.reshape(ctx, (2 * n_q, h))],
                         axis=1), nn.const(nonempty))
    reprs = nn.reshape(nn.relu(tape.affine(x, "out")), (n_q, 2 * h))
    return _head(tape, reprs).value, reprs.value


# -- the evaluation report, one query at a time ---------------------------------
#
# `evaluate_explanations` as a loop: `explain` per query, `predict_batch` on
# each view alone, and the fidelity, hit and cohesiveness formulas written
# out on Python floats. The random baseline's draw is the package's
# `random_baseline`, so both sides score the same views.

def reference_evaluation(g, base, expl, queries, cfg, seed):
    """The rows and means of `evaluate_explanations` over `queries` (query i explained
    with seed + i): a dict of `MetricReport` fields."""
    from motifx.basemodel import predict_batch
    from motifx.explainer import explain
    from motifx.metrics import COHESIVENESS_LEVEL, SPARSITY_LEVELS, random_baseline

    def predict(query, view):
        return float(predict_batch(base, g, [query], [view])[0][0])

    rows, cohs = [], {"model": [], "random": []}
    for i, query in enumerate(queries):
        res = explain(g, base, expl, query, cfg=cfg, seed=seed + i)
        if res.empty or not res.comp_ids:
            continue
        full = predict(query, None)
        times = [float(g.t[e]) for e in res.comp_ids]
        for lv in SPARSITY_LEVELS:
            views = (("model", set(res.retained[lv])),
                     ("random", random_baseline(res.comp_ids, lv,
                                                seed=seed * 100003 + i * 31 + int(lv * 50))))
            for source, view in views:
                p = predict(query, view)
                fid = p - full if full >= 0.5 else full - p
                rows.append((i, lv, fid, 1 if (p >= 0.5) == (full >= 0.5) else 0, source))
                if lv == COHESIVENESS_LEVEL and len(view) >= 2:
                    events = [(float(g.t[e]), {int(g.src[e]), int(g.dst[e])}) for e in view]
                    cohs[source].append(cohesiveness_scalar(events, max(times) - min(times)))
    out = {"rows": rows, "n_queries": len({r[0] for r in rows})}
    for source, prefix in (("model", ""), ("random", "baseline_")):
        picked = {lv: [r for r in rows if r[1] == lv and r[4] == source] for lv in SPARSITY_LEVELS}
        if rows:
            acc = {lv: sum(r[3] for r in rs) / len(rs) for lv, rs in picked.items()}
            out[f"{prefix}acc_per_level"] = acc
            out[f"{prefix}acc_auc"] = 100.0 * trapezoid_scalar(list(acc), list(acc.values()))
            out[("baseline_" if prefix else "mean_") + "fidelity_per_level"] = {
                lv: sum(r[2] for r in rs) / len(rs) for lv, rs in picked.items()}
        name = "baseline_cohesiveness" if prefix else "mean_cohesiveness"
        out[name] = sum(cohs[source]) / len(cohs[source]) if cohs[source] else None
    return out


# -- the motif-enhanced head as a full copy of the base store -------------------
#
# The earlier design: the whole base store copied, `ehead*` arrays added beside
# its head, and the copy trained in place, so every base array takes an
# exact-zero Adam step each batch and the `fit` snapshots hold all of them.

def reference_enhanced_head(base, reps, embs, labels, val_mask, lr, epochs, batch, seed=0):
    """The trained full copy and its `nn.fit` report."""
    from motifx.basemodel import _bce
    from motifx.metrics import average_precision
    store = base.copy()
    h = store.meta["h"]
    w = np.zeros((2 * h + embs.shape[1], h))
    w[:2 * h] = store.arrays["head1.w"]
    store.add("ehead1.w", w)
    for name in ("1.b", "2.w", "2.b"):
        store.add(f"ehead{name}", store.arrays[f"head{name}"].copy())
    train_idx, val_idx = np.nonzero(~val_mask)[0], np.nonzero(val_mask)[0]

    def probs(tape, rows):
        return _base_head(tape, nn.const(np.concatenate([reps[rows], embs[rows]], axis=1)),
                          "ehead")

    def batches(epoch):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE11, epoch])))
        order = rng.permutation(len(train_idx))
        for lo in range(0, len(order), batch):
            sel = train_idx[order[lo:lo + batch]]
            yield lambda tape, sel=sel: nn.vmean(_bce(probs(tape, sel), labels[sel]))

    report = nn.fit(store, epochs, batches, lr, min_gain=1e-3,
                    validate=lambda s: average_precision(labels[val_idx],
                                                         probs(Tape(s), val_idx).value))
    return store, report
