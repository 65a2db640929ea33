"""Motif-level explanation generator trained with an information-bottleneck objective.

For each query the generator samples retrospective motifs around both
endpoints, embeds them with one edge-featured graph convolution layer,
scores each instance in [0, 1], and is trained so that soft-masking the base
model's visible events by those scores preserves the original prediction
(cross-entropy term) while the score distribution stays close to a prior
(KL term, referenced to the null model's class frequencies).

A query's motifs are rows of the walker's event-id block; their codes and
the encoder's node labels both come from `motifs.first_touch`. A minibatch's
objective is one soft-masked base forward and one segment-summed KL call.

The encoder's padded layout makes each distinct motif row of a query one
stacked item: n node slots, all entering with the one `nodein` row, and an
(n, l) incidence block through which each event's one message reaches its two
endpoints in an `nn.bmm` product; the embedding is the mean over the item's
nodes. `QueryPrep.inverse` maps each of the M rows to its item, so all that
follows the encoder sees every copy of a row.

The scorer is the base model's `_head` with the prefix "score". Each item is
its own product, so each motif's embedding and score are bit-identical alone,
in any batch and across its copies, and `explain_batch` gives each query of
a set the bytes it gets alone.

Every stage takes the one `config.RunConfig`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import nn
from .basemodel import (EVAL_CHUNK, SlotEncoding, _bce, _head, cat_slots, labelled_queries,
                        predict_slots, soft_predict, split_event_ids)
from .config import RunConfig
from .errors import InvariantError
from .features import event_feature_block, feature_width
from .graph import Event, TemporalGraph, computational_graph
from .layers import PROB_EPS, add_gine_params, concrete_sample, gine_layer
from .metrics import SPARSITY_LEVELS, retained_size
from .motifs import (endpoint_rows, first_touch, group_rows, motif_codes, null_class_probs,
                     sample_id_block)
from .nn import ParameterStore, Tape, Var

ExplainerConfig = RunConfig  # bench/child.py builds explain-eval's config by this name


def build_explainer_store(g: TemporalGraph, base_meta: dict, cfg: RunConfig) -> ParameterStore:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xEC5])))
    edge_width = feature_width(g.attr_width, cfg.d_time, cfg.l)
    ctx_dim = 2 * base_meta["h"]
    store = ParameterStore()
    store.add("time_w", nn.log_spaced_freqs(max(g.time_span, 1.0), cfg.d_time))
    store.add_affine("nodein", 1, cfg.h, rng)
    add_gine_params(store, "gine0", cfg.h, edge_width, rng)
    store.add_affine("score1", cfg.h + ctx_dim, cfg.h, rng)
    store.add_affine("score2", cfg.h, 1, rng, zero=True)  # fresh scorer says 0.5 for everything
    store.meta = {"kind": "explainer", "h": cfg.h, "d_time": cfg.d_time,
                  "n": cfg.n, "l": cfg.l, "edge_width": edge_width, "ctx_dim": ctx_dim,
                  "attr_width": g.attr_width, "config": cfg.to_dict()}
    return store


def query_seed(seed: int, qidx: int) -> int:
    return int(np.random.SeedSequence([seed, 0x51, qidx]).generate_state(1)[0])


@dataclass
class QueryPrep:
    """Everything reusable across epochs for one training/eval query: its M motifs as the
    rows of an (M, l) event-id block padded with -1 and their M codes, (covered event,
    motif row) pairs, and the encoder's padded blocks: one item per distinct row, in
    lexicographic order, with `inverse` (M,) giving each row's item. Per item,
    `incidence` (n, l) marks each event slot's two endpoint nodes (see
    `layers.gine_layer`), and `attrs_block` (l, attr_width), `dts` (l,) and `h_block`
    (l, l) are each event slot's attributes, age and structural counts, 0 on padding.
    `slots` is the query's row of the base model's frozen `SlotEncoding`."""
    query: Event
    label: int
    comp_ids: np.ndarray
    ids: np.ndarray
    codes: list
    ctx: np.ndarray
    covered_ids: np.ndarray
    pair_cov: np.ndarray      # aligned (covered-event slot, motif index) pairs
    pair_motif: np.ndarray
    inverse: np.ndarray
    incidence: np.ndarray
    attrs_block: np.ndarray
    h_block: np.ndarray
    dts: np.ndarray
    slots: SlotEncoding


def _encoder_inputs(g: TemporalGraph, times: np.ndarray, row_query: np.ndarray,
                    ids: np.ndarray, comps: list, n: int) -> list[dict]:
    """QueryPrep's coverage and padded encoder fields of queries 0..Q-1, in one pass over
    their rows of one (M, l) event-id block: query q's rows are the contiguous m with
    row_query[m] == q, its time times[q] and its computational graph comps[q]; items
    have n node slots. An event's h row counts, per position j < l, the events at
    position j of any of its query's rows, copies included, that join the same
    unordered node pair; a truncated row counts only at the positions it fills."""
    l, n_events = ids.shape[1], g.n_events
    rows, pos = np.nonzero(ids >= 0)
    flat, q = ids[rows, pos], row_query[rows]
    rank = g.pair_ranks(g.src[flat], g.dst[flat])  # the events' unordered node pairs
    pairs, pair = np.unique(q * len(g.pair_codes) + rank, return_inverse=True)
    counts = np.bincount(pair * l + pos, minlength=len(pairs) * l).reshape(len(pairs), l)
    h = np.zeros(ids.shape + (l,))
    h[rows, pos] = counts[pair]
    first, inverse = group_rows(np.column_stack([row_query, ids]))
    uniq = ids[first]
    ends = first_touch(endpoint_rows(g, uniq)).reshape(len(uniq), 1, l, 2)
    incidence = (ends == np.arange(n)[:, None, None]).sum(axis=3).astype(float)
    valid = (uniq >= 0)[:, :, None]
    attrs = np.where(valid, g.attrs[uniq], 0.0)
    dts = np.where(valid[:, :, 0], times[row_query[first]][:, None] - g.t[uniq], 0.0)
    keys = q * n_events + flat
    in_comp = np.isin(keys, np.concatenate([k * n_events + c for k, c in enumerate(comps)]))
    covered, pair_cov = np.unique(keys[in_comp], return_inverse=True)
    pair_motif, h = rows[in_comp], h[first]
    # per query, where its rows, distinct rows, coverage pairs and covered events start
    r, u, p, c = (np.searchsorted(of, np.arange(len(comps) + 1)) for of in
                  (row_query, row_query[first], q[in_comp], covered // n_events))
    return [dict(covered_ids=covered[c[k]:c[k + 1]] - k * n_events,
                 pair_cov=pair_cov[p[k]:p[k + 1]] - c[k],
                 pair_motif=pair_motif[p[k]:p[k + 1]] - r[k],
                 inverse=inverse[r[k]:r[k + 1]] - u[k], incidence=incidence[u[k]:u[k + 1]],
                 attrs_block=attrs[u[k]:u[k + 1]], h_block=h[u[k]:u[k + 1]],
                 dts=dts[u[k]:u[k + 1]])
            for k in range(len(comps))]


def prepare_queries(g: TemporalGraph, base_store: ParameterStore, queries: list,
                    cfg: RunConfig, seeds: list) -> list[QueryPrep | None]:
    """Per query, its prep, or None without computational graph or motifs. One walker
    call samples C motifs around each endpoint (query i's seed drives both) and drops
    single-event ones: they carry no order information and sit outside the class
    vocabulary. `_encoder_inputs` builds every prep's blocks in one pass. Each prep
    equals the one made alone."""
    comps = computational_graph(g, queries, cfg.per_hop_cap)
    todo = [i for i, comp in enumerate(comps) if len(comp)]
    if not todo:
        return [None] * len(queries)
    anchors = np.array([x for i in todo for x in (queries[i].u, queries[i].v)], dtype=np.int64)
    ids, live = sample_id_block(g, anchors, [queries[i].t for i in todo for _ in range(2)],
                                [seeds[i] for i in todo for _ in range(2)],
                                cfg.n, cfg.l, cfg.c, cfg.delta)
    kept = (ids >= 0).sum(axis=1) >= 2
    ids, row_anchor = ids[kept], np.repeat(live, cfg.c)[kept]
    codes = motif_codes(endpoint_rows(g, ids), anchors[row_anchor])
    blocks = _encoder_inputs(g, np.array([queries[i].t for i in todo]), row_anchor // 2, ids,
                             [comps[i] for i in todo], cfg.n)
    cuts = np.searchsorted(row_anchor // 2, np.arange(len(todo) + 1))  # rows per todo query
    todo = [(i, lo, hi, b) for i, lo, hi, b in zip(todo, cuts[:-1], cuts[1:], blocks) if hi > lo]
    probs, ctxs, enc = predict_slots(base_store, g, [queries[i] for i, _, _, _ in todo],
                                     np.arange(len(todo)))  # full view
    out: list[QueryPrep | None] = [None] * len(queries)
    for k, ((i, lo, hi, block), prob, ctx) in enumerate(zip(todo, probs, ctxs)):
        out[i] = QueryPrep(query=queries[i], label=1 if prob >= 0.5 else 0, comp_ids=comps[i],
                           ids=ids[lo:hi], codes=codes[lo:hi], ctx=ctx,
                           slots=SlotEncoding(*(f[k:k + 1] for f in enc)), **block)
    return out


def encode_and_score(tape, preps: list[QueryPrep]) -> tuple[Var, Var, list[int]]:
    """Batched motif embeddings and importance scores for several queries.

    Returns (scores, embeddings, per-query motif counts) over every motif row in batch
    order; scores are `_head` probabilities clamped away from 0 and 1. Each item of the
    padded layout is encoded once, from the one `nodein` row, and gathered back to its
    rows through `inverse`.
    """
    cat = lambda name: np.concatenate([getattr(p, name) for p in preps])
    inc = cat("incidence")
    feat = event_feature_block(cat("attrs_block"), cat("dts"), cat("h_block"),
                               tape.param("time_w"))
    x = gine_layer(tape, "gine0", tape.affine(nn.const(np.ones((1, 1))), "nodein"), inc, feat)
    nodes = inc.any(axis=2)  # every node of a motif is some event's endpoint
    emb = nn.mul(nn.vsum(nn.mul(x, nn.const(nodes[:, :, None])), axis=1),
                 nn.const(1.0 / nodes.sum(axis=1, keepdims=True)))
    distinct = [len(p.incidence) for p in preps]
    ctx = np.repeat(np.stack([p.ctx for p in preps]), distinct, axis=0)
    scores = nn.clip(_head(tape, nn.concat([emb, nn.const(ctx)], axis=1), "score"),
                     PROB_EPS, 1.0 - PROB_EPS)
    inverse = np.concatenate([p.inverse + off for p, off in
                              zip(preps, np.cumsum(distinct) - distinct)])
    counts = [len(p.ids) for p in preps]
    return nn.gather_rows(scores, inverse), nn.gather_rows(emb, inverse), counts


def encode_chunks(expl_store: ParameterStore, preps: list[QueryPrep],
                  batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per prep, its motif scores (M,) and embeddings (M, h), from `encode_and_score`
    over chunks of `batch` preps; no gradients."""
    tape = Tape(expl_store)
    out = []
    for lo in range(0, len(preps), batch):
        scores, emb, counts = encode_and_score(tape, preps[lo:lo + batch])
        cuts = np.cumsum(counts)[:-1]
        out += zip(np.split(scores.value, cuts), np.split(emb.value, cuts))
    return out


def scored_preps(g: TemporalGraph, base_store: ParameterStore, expl_store: ParameterStore,
                 queries: list, seeds: list, cfg: RunConfig):
    """Per query in order, (prep, motif scores (M,), motif embeddings (M, h)), or None
    without a prep: `prepare_queries` (query i with seeds[i]) and `encode_chunks` over
    EVAL_CHUNK queries at a time, which bounds the preps held. Each item equals the one
    made alone."""
    for lo in range(0, len(queries), EVAL_CHUNK):
        preps = prepare_queries(g, base_store, queries[lo:lo + EVAL_CHUNK], cfg,
                                seeds[lo:lo + EVAL_CHUNK])
        scored = iter(encode_chunks(expl_store, [p for p in preps if p is not None], cfg.batch))
        yield from (None if prep is None else (prep, *next(scored)) for prep in preps)


# -- losses ---------------------------------------------------------------------

def kl_uniform(scores: Var, query: np.ndarray, prior_p: float) -> Var:
    """Per query, the KL of its motifs' independent Bernoulli scores against a shared prior.

    Motif i belongs to query query[i] of 0..B-1. Query b gets the sum over its motifs
    of p_I log(p_I / p) + (1 - p_I) log((1 - p_I) / (1 - p)): zero when every score
    equals the prior, never negative. Returns a (B,) Var. The objective's KL is
    `kl_empirical`; this one stays because acceptance criterion 5 checks its algebra.
    """
    one = nn.const(1.0)
    pos = nn.mul(scores, nn.log(nn.scale(scores, 1.0 / prior_p)))
    neg = nn.mul(nn.sub(one, scores),
                 nn.log(nn.scale(nn.sub(one, scores), 1.0 / (1.0 - prior_p))))
    return nn.segment_sum(nn.add(pos, neg), query, int(np.max(query)) + 1)


def kl_empirical(scores: Var, query: np.ndarray, codes, prior_p: float,
                 null_probs: dict) -> Var:
    """Per query, the closed-form KL of its motifs against the null-model reference.

    (1 - s) log((1 - s)/(1 - p)) + s * sum_i q_i log(s q_i / (p m_i)),
    where s is the query's mean score, q_i its score-weighted class shares and
    m_i the null model's class probabilities (all positive after smoothing).
    Classes absent from a query contribute nothing to it. Motif j belongs to
    query query[j] of 0..B-1 and class codes[j]; the sums run over query and
    (query, class) segments. Returns a (B,) Var.
    """
    query = np.asarray(query, dtype=np.int64)
    if len(codes) != len(query):
        raise InvariantError(f"{len(codes)} codes for {len(query)} scores")
    classes, cls = np.unique(np.asarray(codes, dtype=str), return_inverse=True)
    missing = set(classes.tolist()) - set(null_probs)
    if missing:
        raise InvariantError(f"class {min(missing)!r} missing from the null probabilities")
    keys, key = np.unique(query * len(classes) + cls.reshape(-1), return_inverse=True)
    key_query, key_class = keys // len(classes), keys % len(classes)
    inv_size = 1.0 / np.bincount(query)  # per query, one over its motif count
    s = nn.mul(nn.segment_sum(scores, query, len(inv_size)), nn.const(inv_size))
    one = nn.const(1.0)
    out = nn.mul(nn.sub(one, s), nn.log(nn.scale(nn.sub(one, s), 1.0 / (1.0 - prior_p))))
    # s * q_i reduces to (sum of the class's scores) / |M| of its query
    r = nn.mul(nn.segment_sum(scores, key.reshape(-1), len(keys)), nn.const(inv_size[key_query]))
    m = np.array([null_probs[code] for code in classes.tolist()])[key_class]
    terms = nn.mul(r, nn.log(nn.mul(r, nn.const(1.0 / (prior_p * m)))))
    return nn.add(out, nn.segment_sum(terms, key_query, len(inv_size)))


def ib_loss(preds: Var, labels, kl: Var, beta: float) -> Var:
    """Mean over a batch of queries of the cross-entropy of each masked prediction
    against its unmasked label, plus beta times its KL; preds, labels and kl are (B,)."""
    return nn.vmean(nn.add(_bce(preds, labels), nn.scale(kl, beta)))


def query_objective(base_store: ParameterStore, preps: list[QueryPrep], scores: Var,
                    draws: np.ndarray, cfg: RunConfig, null_probs: dict) -> Var:
    """Mean relaxed-mask objective of a batch of queries, with one soft-masked base forward.

    `scores` and `draws` cover the motifs of every query in batch order, as
    `encode_and_score` lays them out; the base forward runs on the preps' frozen `slots`.
    The KL is `kl_empirical` against the null model's class probabilities `null_probs`.
    """
    counts = [len(p.ids) for p in preps]
    m_off = np.cumsum([0] + counts)
    c_off = np.cumsum([0] + [len(p.covered_ids) for p in preps])
    pair_motif = np.concatenate([p.pair_motif + a for p, a in zip(preps, m_off)])
    pair_cov = np.concatenate([p.pair_cov + a for p, a in zip(preps, c_off)])
    alpha = concrete_sample(scores, draws)
    ev_mask = nn.segment_max(nn.gather_rows(alpha, pair_motif), pair_cov, int(c_off[-1]))
    preds = soft_predict(Tape(base_store), base_store, cat_slots(p.slots for p in preps),
                         [p.covered_ids for p in preps], ev_mask)
    query = np.repeat(np.arange(len(preps)), counts)
    kl = kl_empirical(scores, query, [c for p in preps for c in p.codes], cfg.p, null_probs)
    return ib_loss(preds, [p.label for p in preps], kl, cfg.beta)


def _training_preps(g: TemporalGraph, base_store: ParameterStore, cfg: RunConfig,
                    train_ids: np.ndarray) -> tuple[list[QueryPrep], int]:
    """Preps of the training events and one negative each; the i-th query's seed is
    query_seed(cfg.seed, i). Also returns how many queries had no prep."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0x9E6])))
    ids = list(int(e) for e in train_ids)
    if cfg.max_train_queries is not None and len(ids) > cfg.max_train_queries:
        pick = rng.choice(len(ids), size=cfg.max_train_queries, replace=False)
        ids = [ids[i] for i in sorted(pick)]
    queries = [q for q, _ in labelled_queries(g, ids, rng)]
    seeds = [query_seed(cfg.seed, i) for i in range(len(queries))]
    preps = [p for p in prepare_queries(g, base_store, queries, cfg, seeds) if p is not None]
    return preps, len(queries) - len(preps)


def train_explainer(g: TemporalGraph, base_store: ParameterStore, cfg: RunConfig,
                    null_probs: dict | None = None) -> tuple[ParameterStore, dict]:
    """Fit the generator on the training split (events and 1:1 negatives).

    Motif samples, structural features and base-model contexts are
    prepared once per query and reused across epochs; only the mask draws
    are resampled, for cfg.expl_epochs epochs. Without `null_probs`, it
    samples the null model with cfg.c_per_node walkers per node, as `motifx null-census`
    does. Deterministic given cfg.seed. `nn.fit` trains it with no validation:
    a non-finite loss or gradient raises NonFiniteError naming the epoch, and the last
    epoch is returned. The report is `nn.fit`'s plus `n_queries`, `n_skipped` and
    `mean_score`, the mean trained score over the training queries.
    """
    store = build_explainer_store(g, base_store.meta, cfg)
    if null_probs is None:
        null_probs = null_class_probs(g, cfg.n, cfg.l, cfg.c_per_node, cfg.delta, cfg.seed)
    train_ids, _, _ = split_event_ids(g)
    preps, skipped = _training_preps(g, base_store, cfg, train_ids)
    extras = {"n_queries": len(preps), "n_skipped": skipped, "mean_score": 0.0}
    if not preps:
        return store, {"epoch_losses": [], **extras}

    def loss(tape, chunk, rng):
        scores, _, counts = encode_and_score(tape, chunk)
        draws = np.concatenate([rng.uniform(1e-9, 1.0 - 1e-9, size=m) for m in counts])
        return query_objective(base_store, chunk, scores, draws, cfg, null_probs)

    def batches(epoch):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xD4A5, epoch])))
        order = rng.permutation(len(preps))
        for lo in range(0, len(order), cfg.batch):
            chunk = [preps[i] for i in order[lo:lo + cfg.batch]]
            yield lambda tape, chunk=chunk: loss(tape, chunk, rng)

    report = nn.fit(store, cfg.expl_epochs, batches, cfg.lr)
    extras["mean_score"] = float(np.concatenate([sc for sc, _ in encode_chunks(
        store, preps, cfg.batch)]).mean())
    store.meta["train_report"] = {"epoch_losses": report["epoch_losses"], **extras}
    return store, {**report, **extras}


# -- explanation ----------------------------------------------------------------

@dataclass
class ExplanationResult:
    query: dict
    empty: bool
    motifs: list            # {code, events, score}
    event_ranking: list     # (event id, score) best first
    retained: dict          # level -> sorted event ids
    comp_ids: list

    def to_json(self) -> str:
        payload = {"query": self.query, "empty": self.empty,
                   "computational_graph": [int(e) for e in self.comp_ids],
                   "motifs": self.motifs,
                   "event_ranking": [[int(e), float(s)] for e, s in self.event_ranking],
                   "retained": {f"{lv:.2f}": [int(e) for e in ids]
                                for lv, ids in sorted(self.retained.items())}}
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def explain_batch(g: TemporalGraph, base_store: ParameterStore, expl_store: ParameterStore,
                  queries: list, seeds: list, cfg: RunConfig) -> list[ExplanationResult]:
    """Per query, hard importance scores, event ranking, and retained sets per SPARSITY_LEVELS.

    Motifs and scores come from `scored_preps` (query i with seeds[i]). An
    event's score is the maximum score over the sampled motifs that contain it
    (zero if none do), the rule `query_objective` applies to the relaxed masks;
    ties rank more recent events first, then higher ids.
    """
    out = []
    for query, item in zip(queries, scored_preps(g, base_store, expl_store, queries, seeds, cfg)):
        qdict = {"u": int(query.u), "v": int(query.v), "t": float(query.t), "id": int(query.id)}
        if item is None:
            comp = computational_graph(g, [query], cfg.per_hop_cap)[0]
            out.append(ExplanationResult(qdict, True, [], [], {lv: [] for lv in SPARSITY_LEVELS},
                                         [int(e) for e in comp]))
            continue
        prep, sc, _ = item
        ev_score = np.zeros(len(prep.comp_ids))
        ev_score[np.searchsorted(prep.comp_ids, prep.covered_ids)] = nn.segment_max(
            nn.const(sc[prep.pair_motif]), prep.pair_cov, len(prep.covered_ids)).value
        order = np.lexsort((-prep.comp_ids, -g.t[prep.comp_ids], -ev_score))
        ranking = [(int(prep.comp_ids[i]), float(ev_score[i])) for i in order]
        retained = {lv: sorted(e for e, _ in ranking[:retained_size(lv, len(prep.comp_ids))])
                    for lv in SPARSITY_LEVELS}
        motifs = [{"code": code, "events": [e for e in row if e >= 0],
                   "score": float(s), "truncated": row[-1] < 0}
                  for row, code, s in zip(prep.ids.tolist(), prep.codes, sc)]
        out.append(ExplanationResult(query=qdict, empty=False, motifs=motifs,
                                     event_ranking=ranking, retained=retained,
                                     comp_ids=[int(e) for e in prep.comp_ids]))
    return out


def explain(g: TemporalGraph, base_store: ParameterStore, expl_store: ParameterStore,
            query: Event, cfg: RunConfig, seed: int = 0) -> ExplanationResult:
    """`explain_batch` for one query."""
    return explain_batch(g, base_store, expl_store, [query], [seed], cfg)[0]
