"""Minimal dense reverse-mode differentiation over numpy arrays, and its checkpoints.

One Var per intermediate value; the backward pass walks the recorded graph once in
reverse topological order. Summation orders are fixed so repeated runs are
bit-identical. Each row of a `matmul` value has the bits it has alone, in any batch:
numpy sends a lone row or a one-column product to gemv, and OpenBLAS's gemm keeps a
row's bits only at widths that are multiples of 8, so a lone row runs as two, other
widths get zero columns up to one, and a one-column product is a multiply and a row sum.
The input gradient g @ w.T takes the same path, but gemm's rows of a product with the
transposed view w.T can still depend on the batch. Each interior Var drops its gradient
once its vjp has passed it on: after a backward only leaves (params and consts, the Vars
without a vjp) hold gradients, and another backward adds one copy. `affine` and
`time_encode` are one node each, with the bits of the primitives they stand for;
`time_encode` encodes each distinct age once. A checkpoint is one JSON line; its arrays
are base64 float64 bytes.
"""
from __future__ import annotations

import base64
import json
import math
from typing import Callable

import numpy as np

from .errors import CheckpointError, NonFiniteError, ShapeError, read_json, write_text

CKPT_FORMAT = "motifx-ckpt/2"


class Var:
    """A node in the computation graph: value, accumulated grad, backward closure."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"


def const(x) -> Var:
    return Var(x)


def _v(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _acc(p: Var, g: np.ndarray) -> None:
    # never mutate in place: g may alias a child's grad buffer
    p.grad = g if p.grad is None else p.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(root: Var) -> None:
    """Seed the root with 1 and accumulate grads into the leaves; interior grads are freed."""
    if root.value.ndim != 0 and root.value.size != 1:
        raise ShapeError(f"backward needs a scalar root, got shape {root.value.shape}")
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)
            node.grad = None


# -- primitives ---------------------------------------------------------------

def add(a, b) -> Var:
    a, b = _v(a), _v(b)
    try:
        val = a.value + b.value
    except ValueError as exc:
        raise ShapeError(f"add: {a.value.shape} vs {b.value.shape}") from exc

    def vjp(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(g, b.value.shape))
    return Var(val, (a, b), vjp)


def sub(a, b) -> Var:
    a, b = _v(a), _v(b)
    val = a.value - b.value

    def vjp(g):
        _acc(a, _unbroadcast(g, a.value.shape))
        _acc(b, _unbroadcast(-g, b.value.shape))
    return Var(val, (a, b), vjp)


def mul(a, b) -> Var:
    a, b = _v(a), _v(b)
    try:
        val = a.value * b.value
    except ValueError as exc:
        raise ShapeError(f"mul: {a.value.shape} vs {b.value.shape}") from exc

    def vjp(g):
        _acc(a, _unbroadcast(g * b.value, a.value.shape))
        _acc(b, _unbroadcast(g * a.value, b.value.shape))
    return Var(val, (a, b), vjp)


def div(a, b) -> Var:
    a, b = _v(a), _v(b)
    val = a.value / b.value

    def vjp(g):
        _acc(a, _unbroadcast(g / b.value, a.value.shape))
        _acc(b, _unbroadcast(-g * a.value / (b.value ** 2), b.value.shape))
    return Var(val, (a, b), vjp)


def scale(a, c: float) -> Var:
    a = _v(a)

    def vjp(g):
        _acc(a, g * c)
    return Var(a.value * c, (a,), vjp)


def _rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w under the module's row rule: a lone row runs as two, w is padded to a
    multiple of 8 columns."""
    pad = -w.shape[1] % 8
    if pad:
        return _rows(x, np.pad(w, ((0, 0), (0, pad))))[:, :w.shape[1]]
    return (x[[0, 0]] @ w)[:1] if len(x) == 1 else x @ w


def matmul(a, b) -> Var:
    a, b = _v(a), _v(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: {a.value.shape} @ {b.value.shape}")
    if b.value.shape[1] == 1:  # row-wise dot products, kept out of BLAS
        def vjp(g):
            _acc(a, g * b.value.T)
            _acc(b, (a.value * g).sum(axis=0, keepdims=True).T)
        return Var((a.value * b.value.T).sum(axis=1, keepdims=True), (a, b), vjp)

    def vjp(g):
        _acc(a, _rows(g, b.value.T))
        _acc(b, a.value.T @ g)
    return Var(_rows(a.value, b.value), (a, b), vjp)


def bmm(a: np.ndarray, b) -> Var:
    """Stacked products a[i] @ b[i] of a constant (S, m, k) block and an (S, k, n) one.
    numpy forms each item as its own product, so its bytes do not depend on the stack."""
    b = _v(b)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or b.value.ndim != 3 or a.shape[::2] != b.value.shape[:2]:
        raise ShapeError(f"bmm: {a.shape} @ {b.value.shape}")

    def vjp(g):
        _acc(b, a.transpose(0, 2, 1) @ g)
    return Var(a @ b.value, (b,), vjp)


def relu(a) -> Var:
    a = _v(a)
    mask = a.value > 0

    def vjp(g):
        _acc(a, g * mask)
    return Var(a.value * mask, (a,), vjp)


def sigmoid(a) -> Var:
    a = _v(a)
    x = a.value
    # piecewise form avoids overflow in exp for large |x|
    pos = 1.0 / (1.0 + np.exp(-np.where(x >= 0, x, 0.0)))
    ex = np.exp(np.where(x < 0, x, 0.0))
    s = np.where(x >= 0, pos, ex / (1.0 + ex))

    def vjp(g):
        _acc(a, g * s * (1.0 - s))
    return Var(s, (a,), vjp)


def exp(a) -> Var:
    a = _v(a)
    val = np.exp(a.value)

    def vjp(g):
        _acc(a, g * val)
    return Var(val, (a,), vjp)


def log(a) -> Var:
    a = _v(a)

    def vjp(g):
        _acc(a, g / a.value)
    return Var(np.log(a.value), (a,), vjp)


def clip(a, lo: float, hi: float) -> Var:
    """Hard clamp with pass-through gradient strictly inside the range."""
    a = _v(a)
    val = np.clip(a.value, lo, hi)
    inside = (a.value > lo) & (a.value < hi)

    def vjp(g):
        _acc(a, g * inside)
    return Var(val, (a,), vjp)


def vsum(a, axis=None, keepdims: bool = False) -> Var:
    a = _v(a)
    val = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _acc(a, np.broadcast_to(gg, a.value.shape))
    return Var(val, (a,), vjp)


def vmean(a, axis=None) -> Var:
    a = _v(a)
    val = a.value.mean(axis=axis)
    n = a.value.size if axis is None else a.value.shape[axis]

    def vjp(g):
        gg = g / n
        if axis is not None:
            gg = np.expand_dims(gg, axis)
        _acc(a, np.broadcast_to(gg, a.value.shape))
    return Var(val, (a,), vjp)


def reshape(a, shape) -> Var:
    a = _v(a)

    def vjp(g):
        _acc(a, g.reshape(a.value.shape))
    return Var(a.value.reshape(shape), (a,), vjp)


def concat(parts, axis: int = 0) -> Var:
    parts = [_v(p) for p in parts]
    val = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.value.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _acc(p, g[tuple(sl)])
    return Var(val, tuple(parts), vjp)


def _scatter_add(rows: np.ndarray, seg: np.ndarray, num: int) -> np.ndarray:
    """Rows summed into `num` buckets by seg, each bucket from 0 in row order (the sums
    `np.add.at` forms): a store when seg strictly increases (no bucket repeats; only a
    zero's sign can differ), else one bincount over (bucket, column) keys."""
    if len(seg) < 2 or (seg[1:] > seg[:-1]).all():
        out = np.zeros((num,) + rows.shape[1:])
        out[seg] = rows
        return out
    width = math.prod(rows.shape[1:])
    keys = (seg[:, None] * width + np.arange(width)).reshape(-1)
    out = np.bincount(keys, weights=rows.reshape(-1), minlength=num * width)
    return out.reshape((num,) + rows.shape[1:])


def gather_rows(a, idx) -> Var:
    a = _v(a)
    idx = np.asarray(idx, dtype=np.int64)
    val = a.value[idx]

    def vjp(g):
        rows = g.reshape((idx.size,) + a.value.shape[1:])
        _acc(a, _scatter_add(rows, idx.reshape(-1), a.value.shape[0]))
    return Var(val, (a,), vjp)


def gather_rows_with_last(a, idx, last) -> Var:
    """Rows a[idx] of a 2-d `a` with their last column replaced by the (n,) `last`, as one
    node: one take into the output, then the column written in place."""
    a, last = _v(a), _v(last)
    idx = np.asarray(idx, dtype=np.int64)
    val = a.value.take(idx, axis=0)
    val[:, -1] = last.value

    def vjp(g):
        ga = _scatter_add(g, idx, a.value.shape[0])
        ga[:, -1] = 0.0  # the replaced column gets none
        _acc(a, ga)
        _acc(last, g[:, -1])
    return Var(val, (a, last), vjp)


def segment_sum(a, seg, num: int) -> Var:
    """Row-wise scatter-add of a into `num` buckets given by seg (deterministic order)."""
    a = _v(a)
    seg = np.asarray(seg, dtype=np.int64)

    def vjp(g):
        _acc(a, g[seg])
    return Var(_scatter_add(a.value, seg, num), (a,), vjp)


def segment_max(a, seg, num: int) -> Var:
    """Per-bucket max of a 1-d vector and an implicit floor of 0: an empty bucket is 0.

    Gradient flows to the first element attaining each bucket's max
    (none if the floor wins), which keeps backward deterministic.
    """
    a = _v(a)
    if a.value.ndim != 1:
        raise ShapeError(f"segment_max expects 1-d input, got {a.value.shape}")
    seg = np.asarray(seg, dtype=np.int64)
    out = np.zeros(num)
    np.maximum.at(out, seg, a.value)
    sentinel = len(seg)
    winner = np.full(num, sentinel, dtype=np.int64)
    hits = np.nonzero(a.value == out[seg])[0]
    np.minimum.at(winner, seg[hits], hits)

    def vjp(g):
        full = np.zeros_like(a.value)
        ok = winner < sentinel
        full[winner[ok]] = g[ok]  # one winner per bucket, each a different element
        _acc(a, full)
    return Var(out, (a,), vjp)


def affine(x, w, b) -> Var:
    """x @ w + b as one node: `matmul`'s product, b added in place (the bits of `add`)."""
    b, prod = _v(b), matmul(x, w)
    try:
        prod.value += b.value
    except ValueError as exc:
        raise ShapeError(f"affine: {prod.value.shape} + {b.value.shape}") from exc

    def vjp(g):
        prod._vjp(g)
        _acc(b, _unbroadcast(g, b.value.shape))
    return Var(prod.value, prod._parents + (b,), vjp)


def time_encode(delta_t, w) -> Var:
    """sqrt(1/d) * [cos(w0 dt), sin(w0 dt), cos(w1 dt), ...] of the (K,) intervals as one
    (K, 2d) node, differentiable in the (d,) frequencies w; an interval of zero encodes to
    sqrt(1/d) * [1, 0, 1, 0, ...]. Angles, cos and sin are formed once per distinct float64
    bit pattern (0.0 and -0.0 stay apart) and gathered back: each angle is one product and
    cos and sin are element-wise, so every row keeps the bits it has alone. The vjp runs on
    all K rows with the gathered cos and sin, so w's gradient has the per-row chain's bits."""
    w = _v(w)
    d = w.value.shape[0]
    c = math.sqrt(1.0 / d)
    dt = np.asarray(delta_t, dtype=np.float64).reshape(-1, 1)
    key = dt.reshape(-1).view(np.int64)
    order = key.argsort()
    first = np.ones(len(key), dtype=bool)  # sorted row i starts a new age
    first[1:] = key[order[1:]] != key[order[:-1]]
    at = np.empty(len(key), dtype=np.int64)
    at[order] = first.cumsum() - 1
    angles = dt[order[first]] @ w.value.reshape(1, d)
    cos, sin = np.cos(angles), np.sin(angles)
    block = (np.stack((cos, sin), axis=2) * c).reshape(-1, 2 * d)  # [cos0, sin0, cos1, ...]

    def vjp(g):
        g = g * c
        ga = -g[:, 0::2] * sin.take(at, axis=0) + g[:, 1::2] * cos.take(at, axis=0)
        _acc(w, (dt.T @ ga).reshape(d))
    return Var(block.take(at, axis=0), (w,), vjp)


# -- parameters, tape, optimizer ----------------------------------------------

def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


def log_spaced_freqs(t_max: float, d: int) -> np.ndarray:
    """Frequencies log-spaced in [1/t_max, 1], covering slow to fast dynamics."""
    t_max = max(float(t_max), 1.0)
    return np.logspace(-math.log10(t_max), 0.0, d)


class ParameterStore:
    """Named float64 arrays with frozen shapes plus free-form metadata."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}
        self.meta: dict = {}

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self.arrays:
            raise ValueError(f"parameter {name!r} already exists")
        arr = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"parameter {name!r} initialized with non-finite values")
        self.arrays[name] = arr

    def add_affine(self, name: str, fan_in: int, fan_out: int,
                   rng: np.random.Generator, zero: bool = False) -> None:
        self.add(f"{name}.w", np.zeros((fan_in, fan_out)) if zero
                 else glorot_uniform(rng, fan_in, fan_out))
        self.add(f"{name}.b", np.zeros(fan_out))

    def copy(self) -> "ParameterStore":
        dup = ParameterStore()
        dup.arrays = {k: v.copy() for k, v in self.arrays.items()}
        dup.meta = json.loads(json.dumps(self.meta))
        return dup

    def save(self, path) -> None:
        """One ASCII JSON line, keys sorted; each array's data is base64 of its "<f8" bytes."""
        payload = {"format": CKPT_FORMAT, "meta": self.meta, "arrays": {
            k: {"shape": list(v.shape), "data": base64.b64encode(np.asarray(v, "<f8").tobytes())
                .decode("ascii")} for k, v in sorted(self.arrays.items())}}
        write_text(path, json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n",
                   CheckpointError)

    @classmethod
    def load(cls, path) -> "ParameterStore":
        """Read a format-2 checkpoint; anything but a well-formed one raises CheckpointError."""
        store = cls()
        try:
            payload = read_json(path, CheckpointError)
            fmt = payload.get("format") if isinstance(payload, dict) else None
            if fmt != CKPT_FORMAT:
                raise CheckpointError(f"{path}: unsupported checkpoint format {fmt!r}")
            store.meta = payload["meta"]
            for name, spec in payload["arrays"].items():
                raw = base64.b64decode(spec["data"], validate=True)
                data, shape = np.frombuffer(raw, "<f8").astype(np.float64), list(spec["shape"])
                if data.size != math.prod(shape):
                    raise CheckpointError(f"{path}: array {name!r} has {data.size} values "
                                          f"for shape {shape}")
                if not np.isfinite(data).all():
                    raise CheckpointError(f"{path}: array {name!r} holds non-finite values")
                store.arrays[name] = data.reshape(shape)
            k_nb = store.meta.get("k_nb") if store.meta.get("kind") == "base" else 1
        except CheckpointError:
            raise
        except KeyError as exc:
            raise CheckpointError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint ({exc})") from exc
        if not isinstance(k_nb, int) or k_nb < 1:
            raise CheckpointError(f"{path}: base checkpoint has k_nb={k_nb!r}; "
                                  "each endpoint needs at least one slot")
        return store


class Tape:
    """One forward pass against a ParameterStore; gradients of unused parameters are zero.

    Inference uses the same tape and never calls `gradients`.
    """

    def __init__(self, store: ParameterStore):
        self.store = store
        self._leaves: dict[str, Var] = {}

    def param(self, name: str) -> Var:
        leaf = self._leaves.get(name)
        if leaf is None:
            if name not in self.store.arrays:
                raise CheckpointError(f"parameter store has no array {name!r}")
            leaf = self._leaves[name] = Var(self.store.arrays[name])
        return leaf

    def affine(self, x, name: str) -> Var:
        return affine(x, self.param(f"{name}.w"), self.param(f"{name}.b"))

    def gradients(self, loss: Var) -> dict[str, np.ndarray]:
        """Each parameter's gradient of `loss` (zero if unused); a second call adds one copy."""
        backward(loss)
        held = {n: leaf.grad for n, leaf in self._leaves.items() if leaf.grad is not None}
        return {n: held[n] if n in held else np.zeros_like(a) for n, a in self.store.arrays.items()}


def adam_init(store: ParameterStore) -> dict:
    return {"step": 0,
            "m": {k: np.zeros_like(v) for k, v in store.arrays.items()},
            "v": {k: np.zeros_like(v) for k, v in store.arrays.items()}}


def optimizer_step(store: ParameterStore, grads: dict, state: dict, lr: float = 1e-3) -> dict:
    """In-place Adam update with fixed moment decays and eps; refuses non-finite gradients."""
    b1, b2, eps = 0.9, 0.999, 1e-8  # moment decays and denominator floor
    for name, g in grads.items():
        bad = ~np.isfinite(g)
        if bad.any():
            raise NonFiniteError(f"non-finite gradient for {name!r}: {int(bad.sum())} of "
                                 f"{g.size} entries, first {float(g[bad][0])!r}")
    state["step"] += 1
    t = state["step"]
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, g in grads.items():
        m, v = state["m"][name], state["v"][name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        store.arrays[name] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return state


def fit(store: ParameterStore, epochs: int, batches: Callable, lr: float,
        validate: Callable | None = None, patience: int | None = None,
        min_gain: float = 0.0) -> dict:
    """Train `store` in place with Adam, one step per loss builder `f(tape) -> Var` that
    `batches(epoch)` yields. A non-finite loss or gradient raises NonFiniteError naming
    the epoch. With `validate(store) -> score`, the untrained store counts at its measured
    score, an epoch replaces the best only when it beats it by more than `min_gain`,
    training stops once `patience` + 1 epochs in a row have not, and the best arrays are
    restored; without it the last epoch's store is kept. Returns the per-epoch mean
    losses, `epochs_run`, `best_epoch` (-1: untrained), and the initial and best scores
    (None without `validate`).
    """
    state = adam_init(store)
    best_score = None if validate is None else validate(store)
    report = {"epoch_losses": [], "epochs_run": 0, "best_epoch": -1, "initial_score": best_score}
    best = {k: v.copy() for k, v in store.arrays.items()}
    for epoch in range(epochs):
        total, n_batches = 0.0, 0
        for build in batches(epoch):
            tape = Tape(store)
            try:
                loss = build(tape)
                if not np.isfinite(loss.value):
                    raise NonFiniteError(f"loss became {loss.value.item()!r}")
                optimizer_step(store, tape.gradients(loss), state, lr=lr)
            except NonFiniteError as exc:
                raise NonFiniteError(f"epoch {epoch}: {exc}") from exc
            total += float(loss.value)
            n_batches += 1
        report["epoch_losses"].append(total / max(n_batches, 1))
        report["epochs_run"] = epoch + 1
        if validate is None:
            report["best_epoch"] = epoch
            continue
        score = validate(store)
        if score > best_score + min_gain:
            best_score, report["best_epoch"] = score, epoch
            best = {k: v.copy() for k, v in store.arrays.items()}
        elif patience is not None and epoch - report["best_epoch"] > patience:
            break
    if validate is not None:
        store.arrays.update(best)
    report["best_score"] = best_score
    return report


def grad_check(build_loss: Callable[[Tape], Var], store: ParameterStore,
               eps: float = 1e-6, rng: np.random.Generator | None = None,
               max_coords: int = 8) -> float:
    """Max relative error between tape gradients and central differences.

    Arrays larger than `max_coords` are spot-checked at random coordinates.
    The relative error is |ad - fd| / max(1, |ad|, |fd|) so tiny gradients
    are compared absolutely.
    """
    rng = rng or np.random.default_rng(0)
    tape = Tape(store)
    grads = tape.gradients(build_loss(tape))
    worst = 0.0
    for name, arr in store.arrays.items():
        flat = arr.reshape(-1)
        coords = np.arange(flat.size) if flat.size <= max_coords else \
            rng.choice(flat.size, size=max_coords, replace=False)
        gflat = grads[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build_loss(Tape(store)).value)
            flat[i] = orig - eps
            f_minus = float(build_loss(Tape(store)).value)
            flat[i] = orig
            ad, fd = float(gflat[i]), (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(ad - fd) / max(1.0, abs(ad), abs(fd)))
    return worst
