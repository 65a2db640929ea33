"""Reference temporal link predictor: one attention layer over recent neighbor events.

The model embeds each query endpoint from its most recent K events
(time-encoded, attribute-carrying, plus two inductive relative features:
"partner is the other query node" and a recency-decayed "partner recently
interacted with the other query node"), then scores the pair with a small
MLP head. Masked prediction renormalizes attention over the retained
events only; an entirely empty view yields a checkpoint-level constant
computed on zero inputs, independent of the query nodes.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import queue
from dataclasses import dataclass, asdict, field

import numpy as np

from . import nn
from .errors import AdapterProtocolError, NonFiniteError, ShapeError
from .graph import Event, TemporalGraph, node_base_features, query_event
from .layers import masked_attention, time_encode
from .metrics import average_precision
from .nn import ConstTape, ParameterStore, Tape, Var

ADAPTER_PROTOCOL = "tempme-adapter/1"
PRED_EPS = 1e-7


@dataclass
class BaseConfig:
    h: int = 64
    d_time: int = 16
    k_nb: int = 20
    lr: float = 1e-3
    epochs: int = 30
    batch: int = 64
    patience: int = 3
    seed: int = 0


def build_base_store(g: TemporalGraph, cfg: BaseConfig) -> ParameterStore:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xBA5E])))
    h, dt = cfg.h, cfg.d_time
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
                  "attr_width": g.attr_width, "config": asdict(cfg)}
    return store


@dataclass
class SideView:
    """One endpoint's visible recent events, most recent last."""
    node: int
    event_ids: np.ndarray
    partners: np.ndarray
    dts: np.ndarray
    attrs: np.ndarray
    direct: np.ndarray     # partner == the other query endpoint

    def __len__(self) -> int:
        return len(self.event_ids)


@dataclass
class QueryCache:
    u: int
    v: int
    t: float
    side_u: SideView
    side_v: SideView
    node_feats: np.ndarray  # rows for (u, v)

    @property
    def member_ids(self) -> np.ndarray:
        return np.unique(np.concatenate([self.side_u.event_ids, self.side_v.event_ids]))


def _side_view(g: TemporalGraph, node: int, other: int, t: float, k_nb: int) -> SideView:
    ids, partners = g.history(node, t, strict=True)
    ids, partners = ids[-k_nb:], partners[-k_nb:]
    return SideView(
        node=node, event_ids=ids, partners=partners,
        dts=t - g.t[ids], attrs=g.attrs[ids],
        direct=(partners == other).astype(np.float64))


def build_query_cache(g: TemporalGraph, query: Event, k_nb: int) -> QueryCache:
    return QueryCache(
        u=query.u, v=query.v, t=query.t,
        side_u=_side_view(g, query.u, query.v, query.t, k_nb),
        side_v=_side_view(g, query.v, query.u, query.t, k_nb),
        node_feats=node_base_features(g, [query.u, query.v], query.t))


def empty_context_output(store: ParameterStore) -> float:
    """The documented constant the model outputs on an entirely empty view."""
    h = store.meta["h"]
    tape = ConstTape(store)
    x_t = nn.relu(tape.affine(nn.const(np.zeros((1, 2 * h))), "out"))
    return float(_head(tape, [x_t, x_t]).value)


@dataclass
class SidePack:
    """Masked inputs for one endpoint: kept slots plus cross-side partner matches."""
    keep: np.ndarray
    mask: Var
    match_slot: np.ndarray   # kept-slot index each match belongs to
    match_dt: np.ndarray     # age of the matching other-side event
    match_mask: Var          # that event's mask weight


def _build_matches(side: SideView, keep: np.ndarray, other: SideView,
                   other_keep: np.ndarray):
    """(slot, other-index) pairs where a kept event's partner also appears
    as a partner among the other side's kept events."""
    slots, other_idx = [], []
    other_partners = other.partners[other_keep]
    for slot, i in enumerate(keep):
        p = side.partners[i]
        for j, op in enumerate(other_partners):
            if op == p:
                slots.append(slot)
                other_idx.append(j)
    return np.array(slots, dtype=np.int64), np.array(other_idx, dtype=np.int64)


def _representations(tape, store: ParameterStore, g: TemporalGraph, qc: QueryCache,
                     sides: dict) -> list:
    """Per-endpoint time-aware representations (1 x h rows, u then v).

    The common-partner feature of a kept event decays with the age of the
    matching other-side event, max_j mask_j * exp(-dt_j / tau) with a
    learnable timescale, so only recently shared partners light up.
    """
    h = store.meta["h"]
    inv_tau = nn.exp(nn.neg(tape.param("wedge_logtau")))
    reprs = []
    for name, side, row in (("u", qc.side_u, 0), ("v", qc.side_v, 1)):
        pack = sides[name]
        x_self = tape.affine(nn.const(qc.node_feats[row:row + 1]), "node")
        keep = pack.keep
        if len(keep) == 0:
            ctx = nn.const(np.zeros((1, h)))
        else:
            if len(pack.match_slot):
                decay = nn.exp(nn.mul(nn.const(-pack.match_dt), inv_tau))
                vals = nn.mul(pack.match_mask, decay)
                c_common = nn.segment_max(vals, pack.match_slot, len(keep), floor=0.0)
            else:
                c_common = nn.const(np.zeros(len(keep)))
            partner_feats = node_base_features(g, side.partners[keep], qc.t)
            x_nbr = tape.affine(nn.const(partner_feats), "node")
            t_enc = time_encode(side.dts[keep], tape.param("time_w"))
            key_in = nn.concat([x_nbr, nn.const(side.attrs[keep]), t_enc,
                                nn.const(side.direct[keep].reshape(-1, 1)),
                                nn.reshape(c_common, (-1, 1))], axis=1)
            keys = tape.affine(key_in, "k")
            values = tape.affine(key_in, "v")
            q_vec = nn.reshape(tape.affine(x_self, "q"), (-1,))
            ctx = nn.reshape(masked_attention(q_vec, keys, values, pack.mask), (1, -1))
        reprs.append(nn.relu(tape.affine(nn.concat([x_self, ctx], axis=1), "out")))
    return reprs


def _head(tape, reprs: list) -> Var:
    both = nn.concat(reprs, axis=1)
    logit = tape.affine(nn.relu(tape.affine(both, "head1")), "head2")
    return nn.sigmoid(nn.reshape(logit, ()))


def _forward(tape, store: ParameterStore, g: TemporalGraph, qc: QueryCache,
             sides: dict) -> Var:
    if all(len(sides[s].keep) == 0 for s in ("u", "v")):
        h = store.meta["h"]
        x_t = nn.relu(tape.affine(nn.const(np.zeros((1, 2 * h))), "out"))
        return _head(tape, [x_t, x_t])
    return _head(tape, _representations(tape, store, g, qc, sides))


def _hard_sides(qc: QueryCache, retained: set | None) -> dict:
    """All-ones masks over the retained slots of each side."""
    views = {"u": qc.side_u, "v": qc.side_v}
    keeps = {}
    for name, side in views.items():
        if retained is None:
            keeps[name] = np.arange(len(side.event_ids))
        else:
            wanted = np.array(sorted(retained), dtype=np.int64)
            keeps[name] = np.nonzero(np.isin(side.event_ids, wanted))[0]
    sides = {}
    for name, side in views.items():
        other_name = "v" if name == "u" else "u"
        other = views[other_name]
        slots, other_idx = _build_matches(side, keeps[name], other, keeps[other_name])
        sides[name] = SidePack(
            keep=keeps[name], mask=nn.const(np.ones(len(keeps[name]))),
            match_slot=slots,
            match_dt=other.dts[keeps[other_name]][other_idx] if len(other_idx)
            else np.zeros(0),
            match_mask=nn.const(np.ones(len(slots))))
    return sides


class InternalPredictor:
    """Frozen-parameter inference wrapper satisfying the predictor interface."""

    def __init__(self, store: ParameterStore):
        self.store = store
        self.k_nb = store.meta["k_nb"]

    def predict(self, g: TemporalGraph, query: Event, retained: set | None = None) -> float:
        qc = build_query_cache(g, query, self.k_nb)
        if retained is not None and len(retained) == 0:
            return empty_context_output(self.store)
        sides = _hard_sides(qc, retained)
        out = _forward(ConstTape(self.store), self.store, g, qc, sides)
        return float(out.value)

    def label(self, g: TemporalGraph, query: Event) -> int:
        return 1 if self.predict(g, query) >= 0.5 else 0

    def empty_output(self) -> float:
        return empty_context_output(self.store)

    def query_context(self, g: TemporalGraph, query: Event) -> np.ndarray:
        """Concatenated time-aware endpoint representations on the full view."""
        qc = build_query_cache(g, query, self.k_nb)
        tape = ConstTape(self.store)
        reprs = _representations(tape, self.store, g, qc, _hard_sides(qc, None))
        return np.concatenate([r.value.reshape(-1) for r in reprs])


def predict(store: ParameterStore, g: TemporalGraph, query: Event,
            retained: set | None = None) -> float:
    return InternalPredictor(store).predict(g, query, retained)


def soft_predict(tape, store: ParameterStore, g: TemporalGraph, qc: QueryCache,
                 covered_ids: np.ndarray, event_mask: Var) -> Var:
    """Differentiable masked prediction: events outside `covered_ids` are dropped,
    the rest weighted by the matching entries of `event_mask`."""
    pos_of = {int(e): i for i, e in enumerate(covered_ids)}
    views = {"u": qc.side_u, "v": qc.side_v}
    keeps, mask_idx = {}, {}
    for name, side in views.items():
        keep = np.array([i for i, e in enumerate(side.event_ids) if int(e) in pos_of],
                        dtype=np.int64)
        keeps[name] = keep
        mask_idx[name] = np.array([pos_of[int(side.event_ids[i])] for i in keep],
                                  dtype=np.int64)
    sides = {}
    for name, side in views.items():
        other_name = "v" if name == "u" else "u"
        other = views[other_name]
        slots, other_idx = _build_matches(side, keeps[name], other, keeps[other_name])
        mask = nn.gather_rows(event_mask, mask_idx[name]) if len(keeps[name]) \
            else nn.const(np.zeros(0))
        if len(slots):
            match_mask = nn.gather_rows(event_mask, mask_idx[other_name][other_idx])
            match_dt = other.dts[keeps[other_name]][other_idx]
        else:
            match_mask = nn.const(np.ones(0))
            match_dt = np.zeros(0)
        sides[name] = SidePack(keep=keeps[name], mask=mask, match_slot=slots,
                               match_dt=match_dt, match_mask=match_mask)
    return _forward(tape, store, g, qc, sides)


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


def eval_queries(g: TemporalGraph, event_ids: np.ndarray, seed: int,
                 neg_per_pos: int = 1) -> list[tuple[Event, int]]:
    """Positive events plus fixed uniform negatives (label second)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE7A1])))
    out = []
    for eid in event_ids:
        ev = g.event(int(eid))
        out.append((ev, 1))
        for _ in range(neg_per_pos):
            x = negative_partner(rng, g.node_count, ev.u)
            out.append((query_event(ev.u, x, ev.t, g.attr_width), 0))
    return out


def evaluate_ap(store: ParameterStore, g: TemporalGraph,
                queries: list[tuple[Event, int]]) -> float:
    model = InternalPredictor(store)
    scores = np.array([model.predict(g, q) for q, _ in queries])
    labels = np.array([y for _, y in queries])
    return average_precision(labels, scores)


def _bce(pred: Var, label: int) -> Var:
    p = nn.clip(pred, PRED_EPS, 1.0 - PRED_EPS)
    if label == 1:
        return nn.neg(nn.log(p))
    return nn.neg(nn.log(nn.sub(nn.const(1.0), p)))


def batch_loss(tape: Tape, store: ParameterStore, g: TemporalGraph,
               batch: list[tuple[QueryCache, int]]) -> Var:
    terms = []
    for qc, label in batch:
        pred = _forward(tape, store, g, qc, _hard_sides(qc, None))
        terms.append(_bce(pred, label))
    stacked = nn.concat([nn.reshape(t, (1,)) for t in terms], axis=0)
    return nn.vmean(stacked)


@dataclass
class TrainReport:
    epochs_run: int = 0
    best_epoch: int = -1
    best_val_ap: float = 0.0
    losses: list = field(default_factory=list)
    aborted_non_finite: bool = False


def train_base(g: TemporalGraph, cfg: BaseConfig) -> tuple[ParameterStore, TrainReport]:
    """Binary classification of real events against uniform negative partners.

    Chronological 75/5/20 split, fresh negatives per epoch, early stopping
    on validation average precision, best checkpoint restored.
    Deterministic given cfg.seed.
    """
    store = build_base_store(g, cfg)
    train_ids, val_ids, _ = split_event_ids(g)
    val_set = eval_queries(g, val_ids, cfg.seed)
    pos_caches = {int(e): build_query_cache(g, g.event(int(e)), cfg.k_nb) for e in train_ids}
    state = nn.adam_init(store)
    report = TrainReport()
    best = store.copy()
    since_best = 0
    for epoch in range(cfg.epochs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xE60C, epoch])))
        order = rng.permutation(len(train_ids))
        samples: list[tuple[QueryCache, int]] = []
        for k in order:
            eid = int(train_ids[k])
            ev = g.event(eid)
            samples.append((pos_caches[eid], 1))
            x = negative_partner(rng, g.node_count, ev.u)
            samples.append((build_query_cache(g, query_event(ev.u, x, ev.t, g.attr_width),
                                              cfg.k_nb), 0))
        epoch_loss = 0.0
        n_batches = 0
        try:
            for lo in range(0, len(samples), cfg.batch):
                chunk = samples[lo:lo + cfg.batch]
                tape = Tape(store)
                loss = batch_loss(tape, store, g, chunk)
                if not np.isfinite(loss.value):
                    raise NonFiniteError(f"training loss became {loss.value!r}")
                grads = tape.gradients(loss)
                nn.optimizer_step(store, grads, state, lr=cfg.lr)
                epoch_loss += float(loss.value)
                n_batches += 1
        except NonFiniteError:
            report.aborted_non_finite = True
            break
        report.losses.append(epoch_loss / max(n_batches, 1))
        report.epochs_run = epoch + 1
        val_ap = evaluate_ap(store, g, val_set) if val_set else 0.0
        if val_ap > report.best_val_ap:
            report.best_val_ap = val_ap
            report.best_epoch = epoch
            best = store.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    best.meta["train_report"] = {"epochs_run": report.epochs_run,
                                 "best_epoch": report.best_epoch,
                                 "best_val_ap": report.best_val_ap}
    return best, report


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


def _enhanced_logit(tape, rep: np.ndarray, emb: np.ndarray) -> Var:
    x = nn.const(np.concatenate([rep, emb]).reshape(1, -1))
    return nn.reshape(tape.affine(nn.relu(tape.affine(x, "ehead1")), "ehead2"), ())


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
    logit = _enhanced_logit(ConstTape(store), rep, mean_emb)
    return float(nn.sigmoid(logit).value)


def train_enhanced_head(base: ParameterStore, reps: np.ndarray, embs: np.ndarray,
                        labels: np.ndarray, val_mask: np.ndarray,
                        lr: float = 1e-3, epochs: int = 40, batch: int = 64,
                        seed: int = 0) -> tuple[ParameterStore, dict]:
    """Train only the widened head on precomputed representations and embeddings.

    Selection by validation AP including the untouched initial head, so
    the result never validates worse than the plain model.
    """
    store = build_enhanced_store(base, embs.shape[1])
    head = ParameterStore()
    for name in ("ehead1.w", "ehead1.b", "ehead2.w", "ehead2.b"):
        head.arrays[name] = store.arrays[name].copy()
    train_idx = np.nonzero(~val_mask)[0]
    val_idx = np.nonzero(val_mask)[0]

    def scores_for(param_src, idx):
        tape = ConstTape(param_src)
        return np.array([float(nn.sigmoid(_enhanced_logit(tape, reps[i], embs[i])).value)
                         for i in idx])

    best = {name: head.arrays[name].copy() for name in head.arrays}
    best_ap = average_precision(labels[val_idx], scores_for(head, val_idx)) if len(val_idx) else 0.0
    report = {"initial_val_ap": best_ap, "best_epoch": -1}
    state = nn.adam_init(head)
    min_gain = 1e-3  # only leave the plain head for a real validation improvement
    for epoch in range(epochs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xE11, epoch])))
        order = rng.permutation(len(train_idx))
        for lo in range(0, len(order), batch):
            sel = train_idx[order[lo:lo + batch]]
            tape = Tape(head)
            terms = []
            for i in sel:
                pred = nn.sigmoid(_enhanced_logit(tape, reps[i], embs[i]))
                terms.append(_bce(pred, int(labels[i])))
            loss = nn.vmean(nn.concat([nn.reshape(tt, (1,)) for tt in terms], axis=0))
            nn.optimizer_step(head, tape.gradients(loss), state, lr=lr)
        val_ap = average_precision(labels[val_idx], scores_for(head, val_idx)) if len(val_idx) else 0.0
        if val_ap > best_ap + min_gain:
            best_ap = val_ap
            best = {name: head.arrays[name].copy() for name in head.arrays}
            report["best_epoch"] = epoch
    for name, arr in best.items():
        store.arrays[name] = arr
    report["best_val_ap"] = best_ap
    return store, report


# -- external adapter -----------------------------------------------------------

class ExternalAdapter:
    """Client for a child process speaking newline-delimited JSON on stdio.

    Handshake line {"protocol": "tempme-adapter/1"}, then request/response:
    {"id", "u", "v", "t", "retained"} -> {"id", "p"}. A null retained list
    means the full history; an empty list means an empty view. Calls are
    serialized; a slow or malformed peer raises AdapterProtocolError.
    """

    def __init__(self, cmd, timeout: float = 5.0):
        self.timeout = timeout
        self._next_id = 0
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        hello = self._read_line()
        try:
            proto = json.loads(hello).get("protocol")
        except (json.JSONDecodeError, AttributeError) as exc:
            raise AdapterProtocolError(f"bad handshake line: {hello!r}") from exc
        if proto != ADAPTER_PROTOCOL:
            raise AdapterProtocolError(f"unsupported protocol {proto!r}")

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line)

    def _read_line(self) -> str:
        try:
            return self._lines.get(timeout=self.timeout)
        except queue.Empty:
            raise AdapterProtocolError(f"adapter timed out after {self.timeout}s") from None

    def predict(self, g: TemporalGraph, query: Event, retained: set | None = None) -> float:
        self._next_id += 1
        req = {"id": self._next_id, "u": int(query.u), "v": int(query.v),
               "t": float(query.t),
               "retained": sorted(int(e) for e in retained) if retained is not None else None}
        try:
            self._proc.stdin.write(json.dumps(req, separators=(",", ":")) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise AdapterProtocolError("adapter process is gone") from exc
        line = self._read_line()
        try:
            resp = json.loads(line)
            rid, p = int(resp["id"]), float(resp["p"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise AdapterProtocolError(f"malformed response: {line!r}") from exc
        if rid != self._next_id:
            raise AdapterProtocolError(f"response id {rid} != request id {self._next_id}")
        if not (0.0 <= p <= 1.0):
            raise AdapterProtocolError(f"probability {p} outside [0, 1]")
        return p

    def label(self, g: TemporalGraph, query: Event) -> int:
        return 1 if self.predict(g, query) >= 0.5 else 0

    def close(self):
        if self._proc.poll() is None:
            self._proc.stdin.close()
            self._proc.terminate()
            self._proc.wait(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve_adapter(store: ParameterStore, g: TemporalGraph,
                  stdin=None, stdout=None) -> None:
    """Expose an internal checkpoint over the adapter wire protocol."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    model = InternalPredictor(store)
    stdout.write(json.dumps({"protocol": ADAPTER_PROTOCOL}) + "\n")
    stdout.flush()
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        raw = req.get("retained")
        retained = None if raw is None else set(int(x) for x in raw)
        q = query_event(int(req["u"]), int(req["v"]), float(req["t"]), g.attr_width)
        p = model.predict(g, q, retained)
        stdout.write(json.dumps({"id": req["id"], "p": p}, separators=(",", ":")) + "\n")
        stdout.flush()
