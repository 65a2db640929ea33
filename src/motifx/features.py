"""Structural event features and per-event feature assembly for the motif encoder."""
from __future__ import annotations

import numpy as np

from . import nn
from .errors import InvariantError
from .layers import time_encode
from .motifs import MotifInstance
from .nn import Var

DEFAULT_TIME_DIM = 50  # half-dimension d; encodings are 2d wide


def _pair_key(a: int, b: int) -> tuple:
    return (a, b) if a <= b else (b, a)


def anonymize(instances, l: int) -> dict:
    """Position-indexed occurrence counts per unordered node pair.

    h[(a, b)][j] is the number of instances whose j-th event connects a
    and b, irrespective of timestamps. Truncated instances contribute to
    the positions they actually fill. Invariant under permutations of the
    input list.
    """
    out: dict[tuple, np.ndarray] = {}
    for inst in instances:
        for j, (a, b) in enumerate(inst.pairs):
            key = _pair_key(a, b)
            h = out.get(key)
            if h is None:
                h = np.zeros(l, dtype=np.int64)
                out[key] = h
            h[j] += 1
    return out


def event_feature_block(attr_rows: np.ndarray, dts: np.ndarray, h_rows: np.ndarray,
                        time_w) -> Var:
    """attrs || T(dt) || h for a batch of event rows (the motif-encoder input layout)."""
    return nn.concat([nn.const(attr_rows),
                      time_encode(np.asarray(dts, dtype=np.float64), time_w),
                      nn.const(np.asarray(h_rows, dtype=np.float64))], axis=1)


def event_feature_matrix(inst: MotifInstance, struct_map: dict, t0: float,
                         time_w, attr_rows: np.ndarray, l: int) -> Var:
    """Rows of attrs || T(t0 - t_j) || h(pair_j) for one instance.

    Differentiable in the time-encoder frequencies; everything else is
    constant. Truncated instances produce only the rows they have. The
    struct map must come from the same instance set the encoder runs on.
    """
    dts = [t0 - t for t in inst.times]
    h_rows = []
    for a, b in inst.pairs:
        h = struct_map.get(_pair_key(a, b))
        if h is None:
            raise InvariantError(
                f"pair {(a, b)} missing from structural-feature map; "
                "anonymize() was run on a different instance set")
        h_rows.append(h)
    return event_feature_block(attr_rows, np.array(dts), np.array(h_rows), time_w)


def feature_width(attr_width: int, d: int, l: int) -> int:
    return attr_width + 2 * d + l

