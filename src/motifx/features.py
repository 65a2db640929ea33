"""The motif encoder's per-event input rows: attributes || time encoding || structural counts.

`explainer._encoder_inputs` builds the attribute rows, the time gaps and
the structural counts h of every event of a query's motifs;
`event_feature_block` lays them out as one differentiable block.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .layers import time_encode
from .nn import Var


def event_feature_block(attr_rows: np.ndarray, dts: np.ndarray, h_rows: np.ndarray,
                        time_w) -> Var:
    """attrs || T(dt) || h for a batch of event rows (the motif-encoder input layout)."""
    return nn.concat([nn.const(attr_rows),
                      time_encode(np.asarray(dts, dtype=np.float64), time_w),
                      nn.const(np.asarray(h_rows, dtype=np.float64))], axis=1)


def feature_width(attr_width: int, d: int, l: int) -> int:
    return attr_width + 2 * d + l
