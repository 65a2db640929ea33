"""Per-event input rows, attributes || time encoding || extra columns: the one event-feature
path of both models. `explainer.encode_and_score` passes each motif event slot's attributes,
age and structural counts; `basemodel.encode_slots` passes each history slot's attributes,
age and `direct` flag, and puts the block after the partner's `node` projection."""
from __future__ import annotations

import numpy as np

from . import nn
from .nn import Var


def event_feature_block(attrs: np.ndarray, dts: np.ndarray, h: np.ndarray, time_w) -> Var:
    """attrs || T(dt) || h, one row per event slot, from (..., attr_width), (...) and
    (..., width) blocks over the same slots."""
    dts = np.asarray(dts, dtype=np.float64).reshape(-1)
    return nn.concat([nn.const(attrs.reshape(len(dts), attrs.shape[-1])),
                      nn.time_encode(dts, time_w),
                      nn.const(np.asarray(h, dtype=np.float64).reshape(len(dts), h.shape[-1]))],
                     axis=1)


def feature_width(attr_width: int, d: int, l: int) -> int:
    return attr_width + 2 * d + l
