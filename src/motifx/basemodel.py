"""Reference temporal link predictor: one attention layer over recent neighbor events.

The model embeds each query endpoint from its most recent K events
(time-encoded, attribute-carrying, plus two inductive relative features:
"partner is the other query node" and a recency-decayed "partner recently
interacted with the other query node"), then scores the pair with a small
MLP head.

One padded, batched, masked forward serves training, the explainer
objective and every prediction, each on a list of query `Event`s. A batch
of B queries is read as one (B, 2, K) block of slot event ids, K = k_nb
(`slot_ids`, one `TemporalGraph.recent` call): each endpoint's K most
recent events before the query time, oldest first, -1 on padding. The
forward derives the rest from the block and the queries: a slot's
partner, age and attributes (zero on padding), `direct` flag, validity
flag (it holds a retained event) and event-mask weight (1 under a hard
mask). Attention renormalizes over valid slots;
the common-partner feature is a max over a (B, 2, K, K) partner-equality
tensor. A query with no valid slot has its [x_self, ctx] input zeroed:
an empty view gives a checkpoint-level constant, whatever the nodes.

Rows are bit-identical alone or in any batch: slots pad to the fixed K,
and no product handed to BLAS has one row or one column (numpy sends
those to gemv, whose bits depend on the row count), so the 1-wide output
projection is a multiply plus a row sum and a lone query is duplicated.
`_head` does both; the explainer's motif scorer is its second user.

`build_base_store` and `train_base` take the one `config.RunConfig`.
"""
from __future__ import annotations

import contextlib
import json
import math
import subprocess
import sys
import threading
import queue
from collections import deque

import numpy as np

from . import nn
from .config import RunConfig
from .errors import AdapterProtocolError, ShapeError
from .graph import Event, TemporalGraph, node_base_features, query_event
from .layers import masked_attention, time_encode
from .metrics import average_precision
from .nn import ParameterStore, Tape, Var

ADAPTER_PROTOCOL = "tempme-adapter/1"
PRED_EPS = 1e-7
EVAL_CHUNK = 256  # queries per forward in predict_batch; rows do not depend on it
STDERR_TAIL = 20  # last lines of an adapter's stderr that its protocol errors carry


def build_base_store(g: TemporalGraph, cfg: RunConfig) -> ParameterStore:
    """A fresh base model of width cfg.h with cfg.d_time_base time frequencies over the
    cfg.k_nb most recent events of each endpoint."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xBA5E])))
    h, dt = cfg.h, cfg.d_time_base
    key_width = h + g.attr_width + 2 * dt + 2
    store = ParameterStore()
    store.add("time_w", nn.log_spaced_freqs(max(g.time_span, 1.0), dt))
    store.add("wedge_logtau", np.array([math.log(max(g.time_span / 40.0, 1.0))]))
    store.add_affine("node", 2, h, rng)
    store.add_affine("q", h, h, rng)
    store.add_affine("k", key_width, h, rng)
    store.add_affine("v", key_width, h, rng)
    store.add_affine("out", 2 * h, h, rng)
    store.add_affine("head1", 2 * h, h, rng)
    store.add_affine("head2", h, 1, rng, zero=True)  # fresh model predicts 0.5 everywhere
    store.meta = {"kind": "base", "h": h, "d_time": dt, "k_nb": cfg.k_nb,
                  "attr_width": g.attr_width, "config": cfg.to_dict()}
    return store


def slot_ids(store: ParameterStore, g: TemporalGraph, queries: list) -> np.ndarray:
    """The (B, 2, K) slot block of the queries: row 0 is u's, row 1 is v's."""
    ends = np.array([(q.u, q.v) for q in queries], dtype=np.int64).reshape(-1, 2)
    times = np.array([q.t for q in queries], dtype=np.float64)
    return g.recent(ends, times[:, None], store.meta["k_nb"])[0]


def _head(tape, x: Var, name: str = "head") -> Var:
    """Probabilities of (B, width) rows through `{name}1` and `{name}2` (see the
    row-invariance rules)."""
    lone = x.value.shape[0] == 1
    if lone:
        x = nn.gather_rows(x, [0, 0])
    hid = nn.relu(tape.affine(x, f"{name}1"))
    w2 = nn.reshape(tape.param(f"{name}2.w"), (1, -1))
    p = nn.sigmoid(nn.add(nn.vsum(nn.mul(hid, w2), axis=1), tape.param(f"{name}2.b")))
    return nn.gather_rows(p, [0]) if lone else p


def empty_context_output(store: ParameterStore) -> float:
    """The documented constant the model outputs on an entirely empty view."""
    h = store.meta["h"]
    tape = Tape(store)
    x_t = nn.relu(tape.affine(nn.const(np.zeros((2, 2 * h))), "out"))
    return float(_head(tape, nn.reshape(x_t, (1, 2 * h))).value[0])


def _forward(tape, store: ParameterStore, g: TemporalGraph, queries: list, ids: np.ndarray,
             valid: np.ndarray, weight: Var | None = None) -> tuple[Var, Var]:
    """Probabilities (B,) and endpoint representations (B, 2h) of the queries.

    `ids` is their slot block, `valid` (B, 2, K) marks the retained slots and
    `weight` (B, 2, K) is the event mask on them (default: a hard mask). A
    slot's common-partner feature is max_j weight_j * exp(-dt_j / tau) over the
    other side's matching events, with a learnable timescale, so only recently
    shared partners light up.
    """
    h = store.meta["h"]
    n_q, _, k = ids.shape
    weight = nn.const(valid.astype(np.float64)) if weight is None else weight
    ends = np.array([(q.u, q.v) for q in queries], dtype=np.int64).reshape(-1, 2)
    times = np.array([q.t for q in queries], dtype=np.float64)
    at = np.nonzero(ids >= 0)
    held = ids[at]
    partners = np.full(ids.shape, -1, dtype=np.int64)
    partners[at] = np.where(g.src[held] == ends[at[:2]], g.dst[held], g.src[held])
    dts, attrs = np.zeros(ids.shape), np.zeros(ids.shape + (g.attr_width,))
    dts[at], attrs[at] = times[at[0]] - g.t[held], g.attrs[held]
    direct = partners == ends[:, ::-1, None]

    feats = node_base_features(
        g, np.concatenate([ends.reshape(-1), np.maximum(partners, 0).reshape(-1)]),
        np.concatenate([np.repeat(times, 2), np.repeat(times, 2 * k)]))
    x_self = tape.affine(nn.const(feats[:2 * n_q]), "node")
    x_nbr = tape.affine(nn.const(feats[2 * n_q:]), "node")

    inv_tau = nn.exp(nn.neg(tape.param("wedge_logtau")))
    vals = nn.mul(weight, nn.exp(nn.mul(nn.const(-dts), inv_tau)))
    # match[b, s, i, j]: slot i's partner is slot j's on the other side, both valid;
    # the max over j runs over its nonzeros in C order, so ties go to the first j
    match = (valid[:, :, :, None] & valid[:, ::-1, None, :]
             & (partners[:, :, :, None] == partners[:, ::-1, None, :]))
    b, s, i, j = np.nonzero(match)
    c_common = nn.segment_max(nn.gather_rows(nn.reshape(vals, (-1,)), (b * 2 + 1 - s) * k + j),
                              (b * 2 + s) * k + i, 2 * n_q * k, floor=0.0)

    t_enc = time_encode(dts.reshape(-1), tape.param("time_w"))
    key_in = nn.concat([x_nbr, nn.const(attrs.reshape(2 * n_q * k, -1)), t_enc,
                        nn.const(direct.reshape(-1, 1).astype(np.float64)),
                        nn.reshape(c_common, (-1, 1))], axis=1)
    keys = nn.reshape(tape.affine(key_in, "k"), (n_q, 2, k, h))
    values = nn.reshape(tape.affine(key_in, "v"), (n_q, 2, k, h))
    q_vec = nn.reshape(tape.affine(x_self, "q"), (n_q, 2, h))
    ctx = nn.reshape(masked_attention(q_vec, keys, values, weight, valid), (2 * n_q, h))
    nonempty = np.repeat(valid.any(axis=(1, 2)), 2).astype(np.float64).reshape(-1, 1)
    x = nn.mul(nn.concat([x_self, ctx], axis=1), nn.const(nonempty))
    reprs = nn.reshape(nn.relu(tape.affine(x, "out")), (n_q, 2 * h))
    return _head(tape, reprs), reprs


def _retained_slots(ids: np.ndarray, retained: list) -> np.ndarray:
    valid = ids >= 0
    for b, keep in enumerate(retained):
        if keep is not None:
            valid[b] &= np.isin(ids[b], np.fromiter(keep, dtype=np.int64, count=len(keep)))
    return valid


def predict_batch(store: ParameterStore, g: TemporalGraph, queries: list,
                  retained: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hard-masked forward of a batch: probabilities (B,) and representations (B, 2h).

    retained[b] is None for query b's full view, or the set of event ids it
    keeps; an empty set is the empty view. Runs EVAL_CHUNK queries per forward.
    """
    retained = retained or [None] * len(queries)
    tape = Tape(store)
    probs, reprs = [np.zeros(0)], [np.zeros((0, 2 * store.meta["h"]))]
    for lo in range(0, len(queries), EVAL_CHUNK):
        chunk = queries[lo:lo + EVAL_CHUNK]
        ids = slot_ids(store, g, chunk)
        p, r = _forward(tape, store, g, chunk, ids,
                        _retained_slots(ids, retained[lo:lo + EVAL_CHUNK]))
        probs.append(p.value)
        reprs.append(r.value)
    return np.concatenate(probs), np.concatenate(reprs)


class InternalPredictor:
    """Frozen-parameter inference wrapper satisfying the predictor interface."""

    def __init__(self, store: ParameterStore):
        self.store = store

    def predict(self, g: TemporalGraph, query: Event, retained: set | None = None) -> float:
        return float(self.predict_views(g, [query], [retained])[0])

    def predict_views(self, g: TemporalGraph, queries: list, views: list) -> np.ndarray:
        """queries[i] under views[i] (None = full, a set = retained ids): one
        `predict_batch` call."""
        return predict_batch(self.store, g, list(queries), list(views))[0]

    def label(self, g: TemporalGraph, query: Event) -> int:
        return 1 if self.predict(g, query) >= 0.5 else 0

    def query_context(self, g: TemporalGraph, query: Event) -> np.ndarray:
        """Concatenated time-aware endpoint representations on the full view."""
        return predict_batch(self.store, g, [query])[1][0]


def soft_predict(tape, store: ParameterStore, g: TemporalGraph, queries: list,
                 covered: list, event_mask: Var) -> Var:
    """Differentiable masked predictions (B,) of a batch.

    Query b keeps the events of covered[b] (sorted ids), weighted by its
    entries of `event_mask`, which concatenates the per-query masks in
    batch order; its other slots are dropped.
    """
    ids = slot_ids(store, g, queries)
    total = sum(len(cov) for cov in covered)
    idx = np.full(ids.shape, total, dtype=np.int64)  # dropped slots read an appended zero
    off = 0
    for b, cov in enumerate(covered):
        hit = np.isin(ids[b], cov)  # padding ids are -1, never covered
        idx[b][hit] = off + np.searchsorted(cov, ids[b][hit])
        off += len(cov)
    mask = nn.concat([nn.reshape(event_mask, (-1,)), nn.const(np.zeros(1))], axis=0)
    return _forward(tape, store, g, queries, ids, idx < total, nn.gather_rows(mask, idx))[0]


# -- training -----------------------------------------------------------------

def split_times(g: TemporalGraph) -> tuple[float, float]:
    """Chronological split points at 0.75 and 0.8 of the time span."""
    lo = float(g.t[0])
    span = g.time_span
    return lo + 0.75 * span, lo + 0.8 * span


def split_event_ids(g: TemporalGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    t_lo, t_mid = split_times(g)
    ids = np.arange(g.n_events)
    train = ids[g.t <= t_lo]
    val = ids[(g.t > t_lo) & (g.t <= t_mid)]
    test = ids[g.t > t_mid]
    return train, val, test


def negative_partner(rng: np.random.Generator, n_nodes: int, u: int) -> int:
    x = int(rng.integers(n_nodes - 1))
    return x + 1 if x >= u else x


def labelled_queries(g: TemporalGraph, event_ids, rng: np.random.Generator,
                     neg_per_pos: int = 1) -> list[tuple[Event, int]]:
    """Each event (label 1), then neg_per_pos queries from its source at its time to
    uniform negative partners drawn from `rng` in order (label 0)."""
    out = []
    for eid in event_ids:
        ev = g.event(int(eid))
        out.append((ev, 1))
        out += [(query_event(ev.u, negative_partner(rng, g.node_count, ev.u), ev.t,
                             g.attr_width), 0) for _ in range(neg_per_pos)]
    return out


def eval_queries(g: TemporalGraph, event_ids: np.ndarray, seed: int,
                 neg_per_pos: int = 1) -> list[tuple[Event, int]]:
    """Positive events plus fixed uniform negatives (label second)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE7A1])))
    return labelled_queries(g, event_ids, rng, neg_per_pos)


def evaluate_ap(store: ParameterStore, g: TemporalGraph,
                queries: list[tuple[Event, int]]) -> float:
    labels = np.array([y for _, y in queries])
    return average_precision(labels, predict_batch(store, g, [q for q, _ in queries])[0])


def _bce(pred: Var, label) -> Var:
    """Binary cross-entropy, elementwise over pred and 0/1 labels of the same shape."""
    p = nn.clip(pred, PRED_EPS, 1.0 - PRED_EPS)
    y = np.asarray(label, dtype=np.float64)
    picked = nn.add(nn.mul(p, nn.const(y)), nn.mul(nn.sub(nn.const(1.0), p), nn.const(1.0 - y)))
    return nn.neg(nn.log(picked))


def batch_loss(tape: Tape, store: ParameterStore, g: TemporalGraph,
               batch: list[tuple[Event, int]]) -> Var:
    queries = [q for q, _ in batch]
    ids = slot_ids(store, g, queries)
    probs, _ = _forward(tape, store, g, queries, ids, ids >= 0)
    return nn.vmean(_bce(probs, [label for _, label in batch]))


def train_base(g: TemporalGraph, cfg: RunConfig) -> tuple[ParameterStore, dict]:
    """Binary classification of real events against uniform negative partners.

    Chronological 75/5/20 split, up to cfg.base_epochs epochs with fresh negatives each,
    deterministic given cfg.seed.
    `nn.fit` trains it: a non-finite loss or gradient raises NonFiniteError naming the
    epoch; the best by validation AP of the untrained store and each epoch is returned
    (stop after cfg.patience epochs without a gain), or with an empty validation split
    the last epoch. The report is `nn.fit`'s.
    """
    store = build_base_store(g, cfg)
    train_ids, val_ids, _ = split_event_ids(g)
    val_set = eval_queries(g, val_ids, cfg.seed)

    def batches(epoch):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xE60C, epoch])))
        samples = labelled_queries(g, train_ids[rng.permutation(len(train_ids))], rng)
        for lo in range(0, len(samples), cfg.batch):
            yield lambda tape, chunk=samples[lo:lo + cfg.batch]: batch_loss(tape, store, g, chunk)

    report = nn.fit(store, cfg.base_epochs, batches, cfg.lr, patience=cfg.patience,
                    validate=(lambda s: evaluate_ap(s, g, val_set)) if val_set else None)
    store.meta["train_report"] = {"epochs_run": report["epochs_run"],
                                  "best_epoch": report["best_epoch"],
                                  "best_val_ap": report["best_score"]}
    return store, report


# -- motif-enhanced head --------------------------------------------------------

def build_enhanced_store(base: ParameterStore, motif_dim: int) -> ParameterStore:
    """Widen the output head with motif-embedding columns initialized to zero.

    At initialization the enhanced head reproduces the plain model exactly,
    so head training only moves away from it when that helps validation.
    """
    store = base.copy()
    h = store.meta["h"]
    w = np.zeros((2 * h + motif_dim, h))
    w[:2 * h] = store.arrays["head1.w"]
    store.add("ehead1.w", w)
    store.add("ehead1.b", store.arrays["head1.b"].copy())
    store.add("ehead2.w", store.arrays["head2.w"].copy())
    store.add("ehead2.b", store.arrays["head2.b"].copy())
    store.meta["motif_dim"] = motif_dim
    return store


def enhanced_probs(tape, reps: np.ndarray, embs: np.ndarray) -> Var:
    """Probabilities (n,) of the widened head on rows [representation || mean motif embedding]."""
    x = nn.const(np.concatenate([np.atleast_2d(reps), np.atleast_2d(embs)], axis=1))
    return _head(tape, x, "ehead")


def motif_enhanced_predict(store: ParameterStore, g: TemporalGraph, query: Event,
                           motif_embeddings: np.ndarray) -> float:
    """Head on node representations concatenated with the mean motif embedding."""
    if "ehead1.w" not in store.arrays:
        raise ShapeError("store has no enhanced head; train one first")
    motif_dim = store.meta["motif_dim"]
    embs = np.asarray(motif_embeddings, dtype=np.float64)
    if embs.size == 0:
        mean_emb = np.zeros(motif_dim)
    else:
        embs = embs.reshape(-1, embs.shape[-1])
        if embs.shape[1] != motif_dim:
            raise ShapeError(f"motif embeddings width {embs.shape[1]} != {motif_dim}")
        mean_emb = embs.mean(axis=0)
    rep = InternalPredictor(store).query_context(g, query)
    return float(enhanced_probs(Tape(store), rep, mean_emb).value[0])


def train_enhanced_head(base: ParameterStore, reps: np.ndarray, embs: np.ndarray,
                        labels: np.ndarray, val_mask: np.ndarray,
                        lr: float = 1e-3, epochs: int = 40, batch: int = 64,
                        seed: int = 0) -> tuple[ParameterStore, dict]:
    """Train only the widened head on precomputed representations and embeddings.

    `nn.fit` selects by validation AP with the untouched initial head
    competing, and leaves it only for a gain above 1e-3, so the result never
    validates worse than the plain model. The report is `nn.fit`'s.
    """
    store = build_enhanced_store(base, embs.shape[1])
    head = ParameterStore()
    for name in ("ehead1.w", "ehead1.b", "ehead2.w", "ehead2.b"):
        head.arrays[name] = store.arrays[name].copy()
    train_idx = np.nonzero(~val_mask)[0]
    val_idx = np.nonzero(val_mask)[0]

    def batches(epoch):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE11, epoch])))
        order = rng.permutation(len(train_idx))
        for lo in range(0, len(order), batch):
            sel = train_idx[order[lo:lo + batch]]
            yield lambda tape, sel=sel: nn.vmean(_bce(enhanced_probs(tape, reps[sel], embs[sel]),
                                                      labels[sel]))

    def validate(src):
        return average_precision(labels[val_idx], enhanced_probs(Tape(src), reps[val_idx],
                                                                 embs[val_idx]).value)

    report = nn.fit(head, epochs, batches, lr, validate=validate if len(val_idx) else None,
                    min_gain=1e-3)  # only leave the plain head for a real validation gain
    store.arrays.update(head.arrays)
    return store, report


# -- external adapter -----------------------------------------------------------

class ExternalAdapter:
    """Client for a child process speaking newline-delimited JSON on stdio.

    Handshake line {"protocol": "tempme-adapter/1"}, then request/response:
    {"id", "u", "v", "t", "retained"} -> {"id", "p"}, or {"id", "error"} for a
    request the server cannot answer. A null retained list means the full
    history; an empty list means an empty view. Calls are serialized; a
    slow, malformed, refusing or dead peer raises AdapterProtocolError,
    which ends with the last STDERR_TAIL lines the child wrote to stderr.
    """

    def __init__(self, cmd, timeout: float = 5.0):
        self.timeout = timeout
        self._next_id = 0
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, bufsize=1)
        self._lines: queue.Queue = queue.Queue()
        self._stderr: deque = deque(maxlen=STDERR_TAIL)
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._err_reader = threading.Thread(target=self._stderr.extend, args=(self._proc.stderr,),
                                            daemon=True)
        self._reader.start()
        self._err_reader.start()
        try:
            self._handshake()
        except AdapterProtocolError:
            self.close()
            raise

    def _handshake(self):
        hello = self._read_line()
        try:
            proto = json.loads(hello).get("protocol")
        except (json.JSONDecodeError, AttributeError) as exc:
            raise self._error(f"bad handshake line: {hello!r}") from exc
        if proto != ADAPTER_PROTOCOL:
            raise self._error(f"unsupported protocol {proto!r}")

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # end of output

    def _error(self, message: str, gone: bool = False) -> AdapterProtocolError:
        """The error plus the adapter's stderr tail (all of it, for a process that is gone)."""
        if gone:
            self._err_reader.join(timeout=self.timeout)
        tail = "".join(self._stderr.copy()).rstrip()
        return AdapterProtocolError(f"{message}\nadapter stderr:\n{tail}" if tail else message)

    def _read_line(self) -> str:
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise self._error(f"adapter timed out after {self.timeout}s") from None
        if line is None:
            self._lines.put(None)  # later reads end here too
            raise self._error("adapter process is gone (its output ended)", gone=True)
        return line

    def predict(self, g: TemporalGraph, query: Event, retained: set | None = None) -> float:
        self._next_id += 1
        req = {"id": self._next_id, "u": int(query.u), "v": int(query.v),
               "t": float(query.t),
               "retained": sorted(int(e) for e in retained) if retained is not None else None}
        try:
            self._proc.stdin.write(json.dumps(req, separators=(",", ":")) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise self._error("adapter process is gone", gone=True) from exc
        line = self._read_line()
        try:
            resp = json.loads(line)
            error = resp.get("error")
            if error is None:
                rid, p = int(resp["id"]), float(resp["p"])
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise self._error(f"malformed response: {line!r}") from exc
        if error is not None:
            raise self._error(f"adapter refused request {self._next_id}: {error}")
        if rid != self._next_id:
            raise self._error(f"response id {rid} != request id {self._next_id}")
        if not (0.0 <= p <= 1.0):
            raise self._error(f"probability {p} outside [0, 1]")
        return p

    def predict_views(self, g: TemporalGraph, queries: list, views: list) -> np.ndarray:
        """One request per (query, view) pair: the wire protocol carries one prediction
        at a time."""
        return np.array([self.predict(g, q, view) for q, view in zip(queries, views)])

    def label(self, g: TemporalGraph, query: Event) -> int:
        return 1 if self.predict(g, query) >= 0.5 else 0

    def close(self):
        """End the child and close its three pipes; a read pipe is closed once its
        reader thread has seen the end of it. Closing twice is harmless."""
        with contextlib.suppress(OSError):  # a dead child may leave a write unflushed
            self._proc.stdin.close()
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for reader, pipe in ((self._reader, self._proc.stdout),
                             (self._err_reader, self._proc.stderr)):
            reader.join(timeout=self.timeout)
            if not reader.is_alive():
                pipe.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_adapter(store: ParameterStore, g: TemporalGraph,
                  stdin=None, stdout=None) -> None:
    """Expose an internal checkpoint over the adapter wire protocol. A malformed line, a
    missing key or an out-of-range node gets an {"id", "error"} reply; serving goes on."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    model = InternalPredictor(store)
    stdout.write(json.dumps({"protocol": ADAPTER_PROTOCOL}) + "\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        rid = None
        try:
            req = json.loads(line)
            rid = req.get("id") if isinstance(req, dict) else None
            q, retained = _parse_request(req, g)
            reply = {"id": rid, "p": model.predict(g, q, retained)}
        except (AdapterProtocolError, KeyError, TypeError, ValueError) as exc:
            # ValueError covers json.JSONDecodeError; the server stays up
            reply = {"id": rid, "error": f"{type(exc).__name__}: {exc}"}
        stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        stdout.flush()


def _parse_request(req, g: TemporalGraph) -> tuple[Event, set | None]:
    u, v, t = int(req["u"]), int(req["v"]), float(req["t"])
    for node in (u, v):
        if not 0 <= node < g.node_count:
            raise AdapterProtocolError(f"node {node} outside [0, {g.node_count})")
    if not math.isfinite(t):
        raise AdapterProtocolError(f"t={t!r} is not finite")
    raw = req.get("retained")
    retained = None if raw is None else {int(x) for x in raw}
    return query_event(u, v, t, g.attr_width), retained
