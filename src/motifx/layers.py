"""Differentiable building blocks: edge-aware message passing, Concrete masks, masked attention."""
from __future__ import annotations

import math

import numpy as np

from . import nn
from .nn import Var

PROB_EPS = 1e-6
TEMPERATURE = 0.5  # lambda, the temperature of the Concrete relaxation


def gine_layer(tape, prefix: str, x: Var, inc: np.ndarray, edge_feats: Var) -> Var:
    """One edge-featured GIN convolution over S stacked motifs whose nodes all enter with
    the one (1, h) row x: x'_i = h1((1 + eps) * x + sum_e inc_ie ReLU(x + h2(E_e))), with
    h2 a projection of the (S * l, w) event slot features and h1 a two-layer MLP; inc
    (S, n, l) is 1 where node i is an endpoint of event slot e (the graph has no
    self-loops), else 0. Each event's message, the same both ways, is formed once, and
    one stacked product sums each node's, each motif its own. -> (S, n, h)"""
    s, n, l = inc.shape
    proj = tape.affine(edge_feats, f"{prefix}.edge")  # a width other than x's raises ShapeError
    agg = nn.bmm(inc, nn.reshape(nn.relu(nn.add(proj, x)), (s, l, -1)))
    eps = tape.param(f"{prefix}.eps")
    pre = nn.reshape(nn.add(nn.mul(x, nn.add(nn.const(1.0), eps)), agg), (s * n, -1))
    hid = nn.relu(tape.affine(pre, f"{prefix}.h1a"))
    return nn.reshape(tape.affine(hid, f"{prefix}.h1b"), (s, n, -1))


def add_gine_params(store, prefix: str, node_dim: int, edge_dim: int,
                    rng: np.random.Generator) -> None:
    store.add_affine(f"{prefix}.edge", edge_dim, node_dim, rng)
    store.add(f"{prefix}.eps", np.zeros(1))
    store.add_affine(f"{prefix}.h1a", node_dim, node_dim, rng)
    store.add_affine(f"{prefix}.h1b", node_dim, node_dim, rng)


def concrete_sample(p, u) -> Var:
    """Relaxed Bernoulli draw sigma((logit(p) + logit(u)) / TEMPERATURE); p is clamped to
    [1e-6, 1-1e-6] before the logit, and u is a fixed uniform draw, so the output is
    differentiable in p only."""
    p = nn.clip(nn._v(p), PROB_EPS, 1.0 - PROB_EPS)
    uu = np.asarray(u, dtype=np.float64)
    noise = np.log(uu) - np.log1p(-uu)
    logit = nn.sub(nn.log(p), nn.log(nn.sub(nn.const(1.0), p)))
    return nn.sigmoid(nn.scale(nn.add(logit, nn.const(noise)), 1.0 / TEMPERATURE))


def masked_attention(query: Var, keys: Var, values: Var, mask: Var, valid: np.ndarray) -> Var:
    """Dot-product attention where weights renormalize over masked-in keys only.

    Compacted form: query, keys (n, d) and values (n, dv) hold one row per slot
    that `valid` (R, K) marks, in C order (each slot's row carries its own
    query); mask (R, K) weighs the slots. -> (R, dv): weights_i = mask_i *
    exp(s_i) / sum_j mask_j * exp(s_j) over the row's valid slots. With a hard
    0/1 mask this equals attention restricted to the retained keys; a row with
    no valid slot returns zeros. Per-slot work (scores, weighted values) runs on
    the n valid slots only; the softmax scalars stay dense (R, K), zero off the
    valid slots, so their K-axis sums and (for dv > 1) the slot-order value
    sums keep the bits of the dense layout. Products are multiplies and row sums, so a row's
    bits do not depend on the rows beside it.
    """
    n_rows, k = valid.shape
    pos = np.flatnonzero(valid)
    scores = nn.scale(nn.vsum(nn.mul(keys, query), axis=-1), 1.0 / math.sqrt(keys.value.shape[-1]))
    scores = nn.reshape(nn.segment_sum(scores, pos, n_rows * k), (n_rows, k))
    # shift by the row max over valid slots; a slot off them scores 0 and is not shifted
    top = np.where(valid, scores.value, -np.inf).max(axis=-1, keepdims=True, initial=-np.inf)
    weighted = nn.mul(nn.mul(mask, nn.const(valid.astype(np.float64))),
                      nn.exp(nn.sub(scores, nn.const(np.where(valid, top, 0.0)))))
    denom = nn.add(nn.vsum(weighted, axis=-1, keepdims=True),
                   nn.const((~valid.any(axis=-1, keepdims=True)).astype(np.float64)))
    w = nn.gather_rows(nn.reshape(nn.div(weighted, denom), (-1,)), pos)
    return nn.segment_sum(nn.mul(nn.reshape(w, (-1, 1)), values), pos // k, n_rows)
