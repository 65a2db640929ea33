import base64
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from motifx.graph import TemporalGraph


def ckpt_data(values) -> str:
    """A checkpoint array's "data" text: base64 of the values' little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def ckpt_values(text: str) -> np.ndarray:
    """The float64 values that a checkpoint array's "data" text holds, flat."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8")


@pytest.fixture
def chain_graph():
    """(a,b,1), (b,c,2), (c,d,3) with a=0, b=1, c=2, d=3."""
    return TemporalGraph([0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0], np.zeros((3, 0)), 4)


@pytest.fixture
def triangle_graph():
    """(a,b,1), (b,c,2), (a,c,3) with a=0, b=1, c=2."""
    return TemporalGraph([0, 1, 0], [1, 2, 2], [1.0, 2.0, 3.0], np.zeros((3, 0)), 3)


def random_graph(rng, n_nodes=None, n_events=None, duplicate_times=False):
    """Small random graph for property tests."""
    n_nodes = n_nodes or int(rng.integers(3, 9))
    n_events = n_events or int(rng.integers(1, 40))
    src, dst = [], []
    for _ in range(n_events):
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes - 1))
        if v >= u:
            v += 1
        src.append(u)
        dst.append(v)
    if duplicate_times:
        t = rng.integers(1, max(2, n_events // 2), size=n_events).astype(float)
    else:
        t = np.arange(1, n_events + 1, dtype=float)
    return TemporalGraph(src, dst, t, np.zeros((n_events, 0)), n_nodes)
