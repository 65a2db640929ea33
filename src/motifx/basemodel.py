"""Reference temporal link predictor: one attention layer over recent neighbor events.

The model embeds each query endpoint from its most recent K events
(time-encoded, attribute-carrying, plus two inductive relative features:
"partner is the other query node" and a recency-decayed "partner recently
interacted with the other query node"), then scores the pair with a small
MLP head.

One padded, batched, masked forward serves training, the explainer
objective and every prediction, each on a list of query `Event`s. A batch
of B queries is read as one (B, 2, K) block of slot event ids, K = k_nb
(one `TemporalGraph.recent` call): each endpoint's K most recent events
before the query time, oldest first, -1 on padding. `encode_slots` is the
half no mask changes: slot partners, ages, attributes (zero on padding)
and `direct` flags, node features, the time encoding and the `node` and
`q` projections. `_masked_forward` takes each slot's validity flag and
event-mask weight (1 under a hard mask) and does its per-slot work on the
valid slots only: it matches common partners among them, gathers their key
rows straight from the encoding (views of one query share its encoded
row), and runs the `k`/`v` projections, the scores and the weighted value
sums on those rows, so a hard-masked view costs what it keeps. The softmax
scalars stay in the dense (B, 2, K) layout, so each value has the bits of
the dense forward. Then `out` and the head; a query with no valid slot has
its [x_self, ctx] input zeroed, so an empty view gives a checkpoint constant.
`predict_batch` encodes each distinct (u, v, t) once for all its views;
explainer preps keep theirs frozen: no objective gradient reaches that half.

Rows are bit-identical alone or in any batch: slots pad to the fixed K,
and no product handed to BLAS has one row or one column (numpy sends
those to gemv, whose bits depend on the row count), so the 1-wide output
projection is a multiply plus a row sum and a lone row is run as two.
`_no_lone_row` does that for the `k`/`v` projections and for `_head`, which
is also the explainer's motif scorer. It also needs a product row's bits not
to depend on where the row sits, which OpenBLAS's kernels give at widths
h % 8 in {0, 4, 5, 6, 7} (every default, benchmark and test width) but not
at 1 to 3, where a product's last rows can differ in their last bits.

`build_base_store` and `train_base` take the one `config.RunConfig`.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from . import nn
from .config import RunConfig
from .features import event_feature_block
from .graph import Event, TemporalGraph, node_base_features, query_event
from .layers import masked_attention
from .metrics import average_precision
from .nn import ParameterStore, Tape, Var

PRED_EPS = 1e-7
EVAL_CHUNK = 256  # queries per predict_batch forward and scored_preps chunk; no row depends on it


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


def _no_lone_row(f, x: Var) -> Var:
    """f(x) over the rows of x, a lone row run as two (see the row-invariance rules)."""
    if x.value.shape[0] != 1:
        return f(x)
    return nn.gather_rows(f(nn.gather_rows(x, [0, 0])), [0])


def _head(tape, x: Var, name: str = "head") -> Var:
    """Probabilities of (B, width) rows through `{name}1` and `{name}2`."""
    def probs(x):
        hid = nn.relu(tape.affine(x, f"{name}1"))
        w2 = nn.reshape(tape.param(f"{name}2.w"), (1, -1))
        return nn.sigmoid(nn.add(nn.vsum(nn.mul(hid, w2), axis=1), tape.param(f"{name}2.b")))
    return _no_lone_row(probs, x)


# B queries' (B, 2, K) slot ids, partners and decays exp(-dt / tau), (B, 2, h) x_self and q_vec
# and (B, 2, K, w) key columns [x_nbr, attrs, t_enc, direct, 0], the last one the place of the
# common-partner column: Vars on a tape, or frozen arrays
SlotEncoding = namedtuple("SlotEncoding", "ids partners decay x_self q_vec key_cols")


def cat_slots(parts) -> SlotEncoding:
    """One frozen encoding of the rows of `parts` in order; a Var gives its value."""
    return SlotEncoding(*(np.concatenate([getattr(f, "value", f) for f in fields])
                          for fields in zip(*parts)))


def encode_slots(tape, store: ParameterStore, g: TemporalGraph, queries: list) -> SlotEncoding:
    """The mask-independent half of the forward of the queries, on `tape`."""
    ends = np.array([(q.u, q.v) for q in queries], dtype=np.int64).reshape(-1, 2)
    times = np.array([q.t for q in queries], dtype=np.float64)
    ids, partners = g.recent(ends, times[:, None], store.meta["k_nb"])
    (n_q, _, k), h = ids.shape, store.meta["h"]
    at = np.nonzero(ids >= 0)
    dts, attrs = np.zeros(ids.shape), np.zeros(ids.shape + (g.attr_width,))
    dts[at], attrs[at] = times[at[0]] - g.t[ids[at]], g.attrs[ids[at]]
    direct = partners == ends[:, ::-1, None]
    feats = node_base_features(
        g, np.concatenate([ends.reshape(-1), np.maximum(partners, 0).reshape(-1)]),
        np.concatenate([np.repeat(times, 2), np.repeat(times, 2 * k)]))
    x_self = tape.affine(nn.const(feats[:2 * n_q]), "node")
    cols = nn.concat([tape.affine(nn.const(feats[2 * n_q:]), "node"),
                      event_feature_block(attrs, dts, direct[..., None], tape.param("time_w")),
                      nn.const(np.zeros((2 * n_q * k, 1)))], axis=1)
    decay = nn.exp(nn.mul(nn.const(-dts), nn.exp(nn.scale(tape.param("wedge_logtau"), -1.0))))
    return SlotEncoding(ids, partners, decay, nn.reshape(x_self, (n_q, 2, h)),
                        nn.reshape(tape.affine(x_self, "q"), (n_q, 2, h)),
                        nn.reshape(cols, (n_q, 2, k, cols.value.shape[1])))


def _masked_forward(tape, store: ParameterStore, enc: SlotEncoding, valid: np.ndarray,
                    weight: Var | None = None, rows: np.ndarray | None = None) -> tuple[Var, Var]:
    """Probabilities (B,) and endpoint representations (B, 2h) of a batch whose query b is
    row rows[b] of `enc` (default: row b) and keeps the slots `valid` (B, 2, K) marks,
    under event mask `weight` (default: hard). Per-slot work reads the valid slots straight
    from `enc` and runs on them only. A slot's common-partner feature is
    max_j weight_j * exp(-dt_j / tau) over the other side's matching events, so only
    recently shared partners light up."""
    (n_q, _, k), h = valid.shape, store.meta["h"]
    rows = np.arange(n_q) if rows is None else rows
    pos = np.flatnonzero(valid)  # the valid slots in C order
    side = pos // k  # each one's (query, side) row
    at = (rows[side // 2] * 2 + side % 2) * k + pos % k  # and its slot in enc
    # group the valid slots by (query, partner, side): a slot's matches are the group with
    # its side bit flipped, in slot order, so the max's ties go to the first as when dense
    part = enc.partners.reshape(-1)[at]
    group = (side // 2 * (part.max(initial=0) + 1) + part) * 2 + side % 2
    order = np.argsort(group, kind="stable")
    lo, hi = (np.searchsorted(group[order], group ^ 1, end) for end in ("left", "right"))
    count = hi - lo
    tgt = np.repeat(np.arange(len(pos)), count)
    src = order[np.arange(len(tgt)) + np.repeat(lo - np.cumsum(count) + count, count)]
    weight = nn.const(valid.astype(np.float64)) if weight is None else weight
    vals = nn.mul(nn.gather_rows(nn.reshape(weight, (-1,)), pos[src]),
                  nn.gather_rows(nn.reshape(enc.decay, (-1,)), at[src]))
    key_in = nn.gather_rows_with_last(nn.reshape(enc.key_cols, (-1, enc.key_cols.shape[-1])), at,
                                      nn.segment_max(vals, tgt, len(pos)))
    keys, values = (_no_lone_row(lambda x, name=name: tape.affine(x, name), key_in)
                    for name in "kv")
    ctx = masked_attention(nn.gather_rows(nn.reshape(enc.q_vec, (-1, h)), at // k), keys, values,
                           nn.reshape(weight, (2 * n_q, k)), valid.reshape(2 * n_q, k))
    x_self = nn.gather_rows(nn.reshape(enc.x_self, (-1, h)), (rows[:, None] * 2 + [0, 1]).ravel())
    nonempty = np.repeat(valid.any(axis=(1, 2)), 2).astype(np.float64).reshape(-1, 1)
    x = nn.mul(nn.concat([x_self, ctx], axis=1), nn.const(nonempty))
    reprs = nn.reshape(nn.relu(tape.affine(x, "out")), (n_q, 2 * h))
    return _head(tape, reprs), reprs


def _slot_positions(ids: np.ndarray, members: list) -> np.ndarray:
    """Per slot of a (B, 2, K) block, its event's position in the concatenated members (row b's
    sorted list or set members[b]), else their count; ids clip to [-1, max + 1], so none aliases."""
    sizes = [len(m) for m in members]
    span = int(ids.max(initial=-1)) + 3
    flat = np.fromiter(itertools.chain.from_iterable(members), np.int64, sum(sizes))
    keys = np.repeat(np.arange(len(members)) * span, sizes) + np.clip(flat, -1, span - 2) + 1
    keys = np.append(np.sort(keys), len(members) * span)  # a sentinel above every key
    want = np.arange(len(members))[:, None, None] * span + ids + 1
    pos = np.searchsorted(keys, want)
    return np.where((ids >= 0) & (keys[pos] == want), pos, len(flat))


def predict_slots(store: ParameterStore, g: TemporalGraph, queries: list, rows: np.ndarray,
                  retained: list | None = None) -> tuple[np.ndarray, np.ndarray, SlotEncoding]:
    """`predict_batch` of queries[rows[i]] under retained[i], and the queries' frozen encoding."""
    tape, retained = Tape(store), retained or [None] * len(rows)
    enc = cat_slots(cat_slots([encode_slots(tape, store, g, queries[lo:lo + EVAL_CHUNK])])
                    for lo in range(0, max(len(queries), 1), EVAL_CHUNK))  # frozen one by one
    probs, reprs = np.zeros(len(rows)), np.zeros((len(rows), 2 * store.meta["h"]))
    for lo in range(0, len(rows), EVAL_CHUNK):
        at = rows[lo:lo + EVAL_CHUNK]
        ids = enc.ids[at]
        kept = [row.ravel() if view is None else view  # a full view keeps its own slots
                for row, view in zip(ids, retained[lo:lo + EVAL_CHUNK])]
        valid = _slot_positions(ids, kept) < sum(map(len, kept))
        p, r = _masked_forward(tape, store, enc, valid, rows=at)
        probs[lo:lo + EVAL_CHUNK], reprs[lo:lo + EVAL_CHUNK] = p.value, r.value
    return probs, reprs, enc


def predict_batch(store: ParameterStore, g: TemporalGraph, queries: list,
                  retained: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hard-masked forward of a batch: probabilities (B,) and representations (B, 2h).

    retained[b] is None for query b's full view, or the set of event ids it
    keeps; an empty set is the empty view. Each distinct (u, v, t) is encoded once.
    """
    index: dict = {}
    rows = np.array([index.setdefault((q.u, q.v, q.t), len(index)) for q in queries],
                    dtype=np.int64)
    distinct = [queries[i] for i in np.unique(rows, return_index=True)[1]]
    return predict_slots(store, g, distinct, rows, retained)[:2]


class InternalPredictor:
    """One query at a time through `predict_batch`, on a frozen base store.

    Nothing in the package calls it: it stays because `bench/tracing.py` wraps
    `predict`, `label` and `query_context` by name, and `bench/run.py --smoke` fails
    without them. It goes with the next change to the benchmark.
    """

    def __init__(self, store: ParameterStore):
        self.store = store

    def predict(self, g: TemporalGraph, query: Event, retained: set | None = None) -> float:
        return float(predict_batch(self.store, g, [query], [retained])[0][0])

    def label(self, g: TemporalGraph, query: Event) -> int:
        return 1 if self.predict(g, query) >= 0.5 else 0

    def query_context(self, g: TemporalGraph, query: Event) -> np.ndarray:
        """Concatenated time-aware endpoint representations on the full view."""
        return predict_batch(self.store, g, [query])[1][0]


def soft_predict(tape, store: ParameterStore, enc: SlotEncoding, covered: list,
                 event_mask: Var) -> Var:
    """Differentiable masked predictions (B,) of an encoded batch: query b keeps the
    events of covered[b] (sorted ids), weighted by its entries of `event_mask`, which
    concatenates the per-query masks in batch order. Gradients reach every base array
    from an encoding on `tape`, only the masked half's from a frozen one."""
    idx = _slot_positions(enc.ids, covered)
    total = sum(len(cov) for cov in covered)
    mask = nn.concat([nn.reshape(event_mask, (-1,)), nn.const(np.zeros(1))], axis=0)
    return _masked_forward(tape, store, enc, idx < total, nn.gather_rows(mask, idx))[0]


# -- training -----------------------------------------------------------------

def split_times(g: TemporalGraph) -> tuple[float, float]:
    """Chronological split points at 0.75 and 0.8 of the time span (zero-event graph: 0)."""
    lo = float(g.t[0]) if g.n_events else 0.0
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
        out += [(query_event(ev.u, negative_partner(rng, g.node_count, ev.u), ev.t), 0)
                for _ in range(neg_per_pos)]
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
    return nn.scale(nn.log(picked), -1.0)


def batch_loss(tape: Tape, store: ParameterStore, g: TemporalGraph,
               batch: list[tuple[Event, int]]) -> Var:
    enc = encode_slots(tape, store, g, [q for q, _ in batch])
    probs, _ = _masked_forward(tape, store, enc, enc.ids >= 0)
    return nn.vmean(_bce(probs, [label for _, label in batch]))


def train_base(g: TemporalGraph, cfg: RunConfig) -> tuple[ParameterStore, dict]:
    """Binary classification of real events against uniform negative partners.

    Chronological 75/5/20 split, up to cfg.base_epochs epochs with fresh negatives each,
    deterministic given cfg.seed.
    `nn.fit` trains it: a non-finite loss or gradient raises NonFiniteError naming the
    epoch; the best by validation AP of the untrained store and each epoch is returned
    (stop after cfg.patience + 1 epochs in a row without a gain), or with an empty
    validation split the last epoch. The report is `nn.fit`'s.
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
    """The base model's head alone, its `head1.w` widened by `motif_dim` zero rows.

    The arrays keep the head's names, so `_head` scores the store, and at
    initialization it reproduces the plain model exactly: head training only
    moves away from it when that helps validation.
    """
    h = base.meta["h"]
    store = ParameterStore()
    store.add("head1.w", np.concatenate([base.arrays["head1.w"], np.zeros((motif_dim, h))]))
    for name in ("head1.b", "head2.w", "head2.b"):
        store.add(name, base.arrays[name].copy())
    store.meta = {"kind": "enhanced", "h": h, "motif_dim": motif_dim}
    return store


def enhanced_probs(tape, reps: np.ndarray, embs: np.ndarray) -> Var:
    """Probabilities (n,) of the widened head on rows [representation || mean motif embedding]."""
    return _head(tape, nn.const(np.concatenate([reps, embs], axis=1)))


def train_enhanced_head(base: ParameterStore, reps: np.ndarray, embs: np.ndarray,
                        labels: np.ndarray, val_mask: np.ndarray,
                        lr: float = 1e-3, epochs: int = 40, batch: int = 64,
                        seed: int = 0) -> tuple[ParameterStore, dict]:
    """Train a fresh `build_enhanced_store` head on precomputed representations and
    embeddings.

    `nn.fit` selects by validation AP with the untouched initial head competing, and
    leaves it only for a gain above 1e-3, so the result never validates worse than the
    plain model. The report is `nn.fit`'s.
    """
    store = build_enhanced_store(base, embs.shape[1])
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

    report = nn.fit(store, epochs, batches, lr, validate=validate if len(val_idx) else None,
                    min_gain=1e-3)  # only leave the plain head for a real validation gain
    return store, report

