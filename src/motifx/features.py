"""The motif encoder's per-event-slot input rows: attributes || time encoding || structural counts.

`explainer._encoder_inputs` builds the padded attribute, time-gap and
structural-count blocks of each distinct motif row's l event slots;
`event_feature_block` lays them out as one differentiable block.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .nn import Var


def event_feature_block(attrs: np.ndarray, dts: np.ndarray, h: np.ndarray, time_w) -> Var:
    """attrs || T(dt) || h, one row per event slot (the motif-encoder input layout), from
    (..., attr_width), (...) and (..., l) blocks over the same slots."""
    dts = np.asarray(dts, dtype=np.float64).reshape(-1)
    return nn.concat([nn.const(attrs.reshape(len(dts), attrs.shape[-1])),
                      nn.time_encode(dts, time_w),
                      nn.const(np.asarray(h, dtype=np.float64).reshape(len(dts), h.shape[-1]))],
                     axis=1)


def feature_width(attr_width: int, d: int, l: int) -> int:
    return attr_width + 2 * d + l
