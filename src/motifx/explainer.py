"""Motif-level explanation generator trained with an information-bottleneck objective.

For each query the generator samples retrospective motifs around both
endpoints, embeds them with an edge-featured graph convolution, scores
each instance in [0, 1], and is trained so that soft-masking the base
model's visible events by those scores preserves the original prediction
(cross-entropy term) while the score distribution stays close to a prior
(KL term, either uniform or referenced to the null model's class
frequencies).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict, field

import numpy as np

from . import nn
from .basemodel import (InternalPredictor, QueryCache, _bce, build_query_cache,
                        negative_partner, predict_batch, soft_predict, split_event_ids)
from .errors import InvariantError, NonFiniteError
from .features import event_feature_block, feature_width
from .graph import Event, TemporalGraph, computational_graph, query_event
from .layers import PROB_EPS, add_gine_params, concrete_sample, gine_layer
from .metrics import SPARSITY_LEVELS, retained_size
from .motifs import MotifInstance, motif_code, null_class_probs, sample_motif_batch
from .nn import ParameterStore, Tape, Var


@dataclass
class ExplainerConfig:
    c: int = 40              # motifs sampled per endpoint
    n: int = 3
    l: int = 3
    delta: float | None = None
    d_time: int = 50
    h: int = 64              # motif embedding width
    gine_depth: int = 1
    prior: str = "empirical"
    p: float = 0.3
    beta: float = 0.5
    lam: float = 0.5
    lr: float = 1e-3
    epochs: int = 10
    batch: int = 64
    hops: int = 1
    per_hop_cap: int = 20
    seed: int = 0
    smoothing: float = 1e-6
    max_train_queries: int | None = None


def build_explainer_store(g: TemporalGraph, base_meta: dict, cfg: ExplainerConfig) -> ParameterStore:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xEC5])))
    edge_width = feature_width(g.attr_width, cfg.d_time, cfg.l)
    ctx_dim = 2 * base_meta["h"]
    store = ParameterStore()
    store.add("time_w", nn.log_spaced_freqs(max(g.time_span, 1.0), cfg.d_time))
    store.add_affine("nodein", 1, cfg.h, rng)
    for depth in range(cfg.gine_depth):
        add_gine_params(store, f"gine{depth}", cfg.h, edge_width, rng)
    store.add_affine("score1", cfg.h + ctx_dim, cfg.h, rng)
    store.add_affine("score2", cfg.h, 1, rng, zero=True)  # fresh scorer says 0.5 for everything
    store.meta = {"kind": "explainer", "h": cfg.h, "d_time": cfg.d_time,
                  "n": cfg.n, "l": cfg.l, "gine_depth": cfg.gine_depth,
                  "edge_width": edge_width, "ctx_dim": ctx_dim,
                  "attr_width": g.attr_width, "config": asdict(cfg)}
    return store


def query_seed(seed: int, qidx: int) -> int:
    return int(np.random.SeedSequence([seed, 0x51, qidx]).generate_state(1)[0])


def sample_query_motifs(g: TemporalGraph, queries: list, cfg: ExplainerConfig,
                        seeds: list) -> list[list[MotifInstance]]:
    """C motifs around each endpoint of each query (query i's seed drives both
    endpoints), from one kernel call. Single-event trajectories are dropped
    (they carry no order information and sit outside the class vocabulary)."""
    per_anchor = sample_motif_batch(g, [x for q in queries for x in (q.u, q.v)],
                                    [q.t for q in queries for _ in range(2)],
                                    [s for s in seeds for _ in range(2)],
                                    cfg.n, cfg.l, cfg.c, cfg.delta)
    return [[inst for inst in per_anchor[2 * i] + per_anchor[2 * i + 1] if len(inst) >= 2]
            for i in range(len(queries))]


@dataclass
class QueryPrep:
    """Everything reusable across epochs for one training/eval query."""
    query: Event
    label: int
    qc: QueryCache
    comp_ids: np.ndarray
    instances: list
    codes: list
    ctx: np.ndarray
    covered_ids: np.ndarray
    pair_cov: np.ndarray      # aligned (covered-event slot, motif index) pairs
    pair_motif: np.ndarray
    # flattened encoder inputs
    node_seg: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_event: np.ndarray
    attrs_block: np.ndarray
    h_block: np.ndarray
    dts: np.ndarray
    n_nodes: int
    n_events: int


def _encoder_inputs(g: TemporalGraph, t: float, instances: list, comp_ids: np.ndarray,
                    l: int) -> dict:
    """QueryPrep's encoder arrays, from the instances' (M, l) event-id block padded with -1.

    Each instance numbers its nodes by first touch over u_0, v_0, u_1, v_1, ...;
    an event gives edges u -> v and v -> u. An event's h row counts, for each
    position j < l, the events at position j of any instance that join the
    same unordered node pair: timestamps and instance order do not enter, and
    a truncated instance counts only at the positions it fills.
    """
    lens = np.array([len(inst) for inst in instances], dtype=np.int64)
    valid = np.arange(l) < lens[:, None]
    ids = np.full(valid.shape, -1, dtype=np.int64)
    ids[valid] = [e for inst in instances for e in inst.event_ids]
    flat = ids[valid]
    ends = np.where(valid[:, :, None], np.stack([g.src[ids], g.dst[ids]], axis=2), -1)
    ends = ends.reshape(len(instances), 2 * l)
    first = (ends[:, :, None] == ends[:, None, :]).argmax(axis=2)  # first slot with that node
    fresh = (first == np.arange(2 * l)) & (ends >= 0)
    nodes_per = fresh.sum(axis=1)
    local = np.take_along_axis(np.cumsum(fresh, axis=1) - 1, first, axis=1)
    local += (np.cumsum(nodes_per) - nodes_per)[:, None]
    ia, ib = local[:, 0::2][valid], local[:, 1::2][valid]
    src, dst = g.src[flat], g.dst[flat]
    _, pair = np.unique(np.minimum(src, dst) * g.node_count + np.maximum(src, dst),
                        return_inverse=True)
    h = np.zeros((len(flat), l))
    np.add.at(h, (pair, np.nonzero(valid)[1]), 1.0)
    in_comp = np.isin(flat, comp_ids)
    covered, pair_cov = np.unique(flat[in_comp], return_inverse=True)
    return dict(covered_ids=covered, pair_cov=pair_cov,
                pair_motif=np.repeat(np.arange(len(instances)), lens)[in_comp],
                node_seg=np.repeat(np.arange(len(instances)), nodes_per),
                edge_src=np.stack([ia, ib], axis=1).reshape(-1),
                edge_dst=np.stack([ib, ia], axis=1).reshape(-1),
                edge_event=np.repeat(np.arange(len(flat)), 2),
                attrs_block=g.attrs[flat], h_block=h[pair], dts=t - g.t[flat],
                n_nodes=int(nodes_per.sum()), n_events=len(flat))


def prepare_queries(g: TemporalGraph, base: InternalPredictor, queries: list,
                    cfg: ExplainerConfig, seeds: list) -> list[QueryPrep | None]:
    """Per query, its prep, or None without computational graph or motifs. One kernel
    call samples every query's motifs; each prep equals the one made alone."""
    comps = [computational_graph(g, q, cfg.hops, cfg.per_hop_cap) for q in queries]
    todo = [i for i, comp in enumerate(comps) if len(comp)]
    found = sample_query_motifs(g, [queries[i] for i in todo], cfg, [seeds[i] for i in todo])
    todo = [(i, insts) for i, insts in zip(todo, found) if insts]
    caches = [build_query_cache(g, queries[i], base.k_nb) for i, _ in todo]
    probs, ctxs = predict_batch(base.store, g, caches)  # labels and contexts: the full view
    out: list[QueryPrep | None] = [None] * len(queries)
    for (i, insts), qc, prob, ctx in zip(todo, caches, probs, ctxs):
        query, comp_ids = queries[i], comps[i].member_ids
        out[i] = QueryPrep(query=query, label=1 if prob >= 0.5 else 0, qc=qc, comp_ids=comp_ids,
                           instances=insts, codes=[motif_code(inst) for inst in insts], ctx=ctx,
                           **_encoder_inputs(g, query.t, insts, comp_ids, cfg.l))
    return out


def prepare_query(g: TemporalGraph, base: InternalPredictor, query: Event, cfg: ExplainerConfig,
                  seed: int) -> QueryPrep | None:
    return prepare_queries(g, base, [query], cfg, [seed])[0]


def encode_and_score(tape, preps: list[QueryPrep]) -> tuple[Var, Var, list[int]]:
    """Batched motif embeddings and importance scores for several queries.

    Returns (scores, embeddings, per-query motif counts); scores are
    sigmoid outputs clamped away from 0 and 1.
    """
    node_seg, src, dst, eev = [], [], [], []
    attrs, hb, dts, ctx_rows = [], [], [], []
    n_off = e_off = m_off = 0
    counts = []
    for prep in preps:
        node_seg.append(prep.node_seg + m_off)
        src.append(prep.edge_src + n_off)
        dst.append(prep.edge_dst + n_off)
        eev.append(prep.edge_event + e_off)
        attrs.append(prep.attrs_block)
        hb.append(prep.h_block)
        dts.append(prep.dts)
        m = len(prep.instances)
        ctx_rows.append(np.repeat(prep.ctx.reshape(1, -1), m, axis=0))
        counts.append(m)
        n_off += prep.n_nodes
        e_off += prep.n_events
        m_off += m
    node_seg = np.concatenate(node_seg)
    src = np.concatenate(src)
    dst = np.concatenate(dst)
    eev = np.concatenate(eev)
    order = np.lexsort((src, dst))  # fixed aggregation order: by target then source
    src, dst, eev = src[order], dst[order], eev[order]

    feat = event_feature_block(np.concatenate(attrs, axis=0), np.concatenate(dts),
                               np.concatenate(hb, axis=0), tape.param("time_w"))
    x = tape.affine(nn.const(np.ones((n_off, 1))), "nodein")
    depth = 0
    while f"gine{depth}.eps" in tape.store.arrays:
        x = gine_layer(tape, f"gine{depth}", x, src, dst, nn.gather_rows(feat, eev))
        depth += 1
    emb = nn.segment_mean(x, node_seg, m_off)
    score_in = nn.concat([emb, nn.const(np.concatenate(ctx_rows, axis=0))], axis=1)
    hidden = nn.relu(tape.affine(score_in, "score1"))
    raw = nn.sigmoid(nn.reshape(tape.affine(hidden, "score2"), (-1,)))
    scores = nn.clip(raw, PROB_EPS, 1.0 - PROB_EPS)
    return scores, emb, counts


# -- losses ---------------------------------------------------------------------

def kl_uniform(scores: Var, prior_p: float) -> Var:
    """KL of independent Bernoulli scores against a shared prior probability.

    Sum over motifs of p_I log(p_I / p) + (1 - p_I) log((1 - p_I) / (1 - p)).
    Zero when every score equals the prior; never negative.
    """
    one = nn.const(1.0)
    pos = nn.mul(scores, nn.log(nn.scale(scores, 1.0 / prior_p)))
    neg = nn.mul(nn.sub(one, scores),
                 nn.log(nn.scale(nn.sub(one, scores), 1.0 / (1.0 - prior_p))))
    return nn.vsum(nn.add(pos, neg))


def kl_empirical(scores: Var, codes, prior_p: float, null_probs: dict) -> Var:
    """Closed-form KL against the null-model reference.

    (1 - s) log((1 - s)/(1 - p)) + s * sum_i q_i log(s q_i / (p m_i)),
    where s is the mean score, q_i the score-weighted class shares and
    m_i the null model's class probabilities (all positive after
    smoothing). Classes absent from the sample contribute nothing.
    """
    m_count = scores.value.shape[0]
    if len(codes) != m_count:
        raise InvariantError(f"{len(codes)} codes for {m_count} scores")
    groups: dict[str, list] = {}
    for i, code in enumerate(codes):
        groups.setdefault(code, []).append(i)
    s = nn.vmean(scores)
    one = nn.const(1.0)
    out = nn.mul(nn.sub(one, s), nn.log(nn.scale(nn.sub(one, s), 1.0 / (1.0 - prior_p))))
    for code in sorted(groups):
        m_i = null_probs.get(code)
        if m_i is None:
            raise InvariantError(f"class {code!r} missing from the null probabilities")
        # s * q_i reduces to (sum of class scores) / |M|
        r = nn.scale(nn.vsum(nn.gather_rows(scores, np.array(groups[code]))), 1.0 / m_count)
        out = nn.add(out, nn.mul(r, nn.log(nn.scale(r, 1.0 / (prior_p * m_i)))))
    return out


def ib_loss(preds: Var, labels, kl: Var, beta: float) -> Var:
    """Mean over a batch of queries of the cross-entropy of each masked prediction
    against its unmasked label, plus beta times its KL; preds, labels and kl are (B,)."""
    out = nn.vmean(nn.add(_bce(preds, labels), nn.scale(kl, beta)))
    if not np.isfinite(out.value):
        raise NonFiniteError(f"objective became {out.value!r}")
    return out


def _kl_term(scores_q: Var, prep: QueryPrep, cfg: ExplainerConfig, null_probs: dict | None) -> Var:
    if cfg.prior == "uniform":
        return kl_uniform(scores_q, cfg.p)
    if null_probs is None:
        raise InvariantError("empirical prior needs null-model class probabilities")
    return kl_empirical(scores_q, prep.codes, cfg.p, null_probs)


def query_objective(base_store: ParameterStore, g: TemporalGraph, preps: list[QueryPrep],
                    scores: Var, draws: np.ndarray, cfg: ExplainerConfig,
                    null_probs: dict | None) -> Var:
    """Mean relaxed-mask objective of a batch of queries, with one soft-masked base forward.

    `scores` and `draws` cover the motifs of every query in batch order,
    as `encode_and_score` lays them out.
    """
    m_off = np.cumsum([0] + [len(p.instances) for p in preps])
    c_off = np.cumsum([0] + [len(p.covered_ids) for p in preps])
    pair_motif = np.concatenate([p.pair_motif + a for p, a in zip(preps, m_off)])
    pair_cov = np.concatenate([p.pair_cov + a for p, a in zip(preps, c_off)])
    alpha = concrete_sample(scores, cfg.lam, draws)
    ev_mask = nn.segment_max(nn.gather_rows(alpha, pair_motif), pair_cov, int(c_off[-1]),
                             floor=0.0)
    preds = soft_predict(Tape(base_store), base_store, g, [p.qc for p in preps],
                         [p.covered_ids for p in preps], ev_mask)
    kl = [nn.reshape(_kl_term(nn.gather_rows(scores, np.arange(m_off[i], m_off[i + 1])),
                              prep, cfg, null_probs), (1,))
          for i, prep in enumerate(preps)]
    return ib_loss(preds, [p.label for p in preps], nn.concat(kl, axis=0), cfg.beta)


@dataclass
class ExplainerReport:
    epoch_losses: list = field(default_factory=list)
    n_queries: int = 0
    n_skipped: int = 0
    mean_score: float = 0.0


def _training_preps(g: TemporalGraph, base: InternalPredictor, cfg: ExplainerConfig,
                    train_ids: np.ndarray) -> tuple[list[QueryPrep], int]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0x9E6])))
    ids = list(int(e) for e in train_ids)
    if cfg.max_train_queries is not None and len(ids) > cfg.max_train_queries:
        pick = rng.choice(len(ids), size=cfg.max_train_queries, replace=False)
        ids = [ids[i] for i in sorted(pick)]
    queries, seeds = [], []
    for qidx, eid in enumerate(ids):
        ev = g.event(eid)
        queries += [ev, query_event(ev.u, negative_partner(rng, g.node_count, ev.u), ev.t,
                                    g.attr_width)]
        seeds += [query_seed(cfg.seed, 2 * qidx), query_seed(cfg.seed, 2 * qidx + 1)]
    preps = [p for p in prepare_queries(g, base, queries, cfg, seeds) if p is not None]
    return preps, len(queries) - len(preps)


def train_explainer(g: TemporalGraph, base_store: ParameterStore, cfg: ExplainerConfig,
                    null_probs: dict | None = None) -> tuple[ParameterStore, ExplainerReport]:
    """Fit the generator on the training split (events and 1:1 negatives).

    Motif samples, structural features and base-model contexts are
    prepared once per query and reused across epochs; only the mask draws
    are resampled. Deterministic given cfg.seed.
    """
    base = InternalPredictor(base_store)
    store = build_explainer_store(g, base_store.meta, cfg)
    if cfg.prior == "empirical" and null_probs is None:
        null_probs = null_class_probs(g, cfg.n, cfg.l, c_per_node=cfg.c,
                                      delta=cfg.delta, seed=cfg.seed,
                                      smoothing=cfg.smoothing)
    train_ids, _, _ = split_event_ids(g)
    preps, skipped = _training_preps(g, base, cfg, train_ids)
    report = ExplainerReport(n_queries=len(preps), n_skipped=skipped)
    if not preps:
        return store, report
    state = nn.adam_init(store)
    for epoch in range(cfg.epochs):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0xD4A5, epoch])))
        order = rng.permutation(len(preps))
        total = 0.0
        n_batches = 0
        for lo in range(0, len(order), cfg.batch):
            chunk = [preps[i] for i in order[lo:lo + cfg.batch]]
            tape = Tape(store)
            scores, _, counts = encode_and_score(tape, chunk)
            draws = np.concatenate([rng.uniform(1e-9, 1.0 - 1e-9, size=m) for m in counts])
            loss = query_objective(base_store, g, chunk, scores, draws, cfg, null_probs)
            grads = tape.gradients(loss)
            nn.optimizer_step(store, grads, state, lr=cfg.lr)
            total += float(loss.value)
            n_batches += 1
        report.epoch_losses.append(total / n_batches)
    # mean trained score over the training queries, for the prior-drift report
    tape = Tape(store)
    all_scores = []
    for lo in range(0, len(preps), cfg.batch):
        sc, _, _ = encode_and_score(tape, preps[lo:lo + cfg.batch])
        all_scores.append(sc.value)
    report.mean_score = float(np.concatenate(all_scores).mean())
    store.meta["train_report"] = {"epoch_losses": report.epoch_losses,
                                  "mean_score": report.mean_score,
                                  "n_queries": report.n_queries,
                                  "n_skipped": report.n_skipped}
    return store, report


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


def explain(g: TemporalGraph, base_store: ParameterStore, expl_store: ParameterStore,
            query: Event, levels=SPARSITY_LEVELS, cfg: ExplainerConfig | None = None,
            seed: int = 0) -> ExplanationResult:
    """Hard importance scores, event ranking, and retained sets per sparsity level.

    An event's score is the maximum score over the sampled motifs that
    contain it (zero if none do), the rule `query_objective` applies to the
    relaxed masks; ties rank more recent events first,
    then higher ids. Deterministic given the seed and parameters.
    """
    if cfg is None:
        cfg = ExplainerConfig(**expl_store.meta["config"])
    base = InternalPredictor(base_store)
    qdict = {"u": int(query.u), "v": int(query.v), "t": float(query.t), "id": int(query.id)}
    prep = prepare_query(g, base, query, cfg, seed)
    if prep is None:
        comp = computational_graph(g, query, cfg.hops, cfg.per_hop_cap)
        return ExplanationResult(query=qdict, empty=True, motifs=[], event_ranking=[],
                                 retained={lv: [] for lv in levels},
                                 comp_ids=[int(e) for e in comp.member_ids])
    scores, _, _ = encode_and_score(Tape(expl_store), [prep])
    sc = scores.value
    ev_score = np.zeros(len(prep.comp_ids))
    ev_score[np.searchsorted(prep.comp_ids, prep.covered_ids)] = nn.segment_max(
        nn.gather_rows(scores, prep.pair_motif), prep.pair_cov, len(prep.covered_ids)).value
    order = np.lexsort((-prep.comp_ids, -g.t[prep.comp_ids], -ev_score))
    ranking = [(int(prep.comp_ids[i]), float(ev_score[i])) for i in order]
    retained = {}
    for lv in levels:
        size = retained_size(lv, len(prep.comp_ids))
        retained[lv] = sorted(e for e, _ in ranking[:size])
    motifs = [{"code": code, "events": [int(e) for e in inst.event_ids],
               "score": float(s), "truncated": inst.truncated}
              for inst, code, s in zip(prep.instances, prep.codes, sc)]
    return ExplanationResult(query=qdict, empty=False, motifs=motifs,
                             event_ranking=ranking, retained=retained,
                             comp_ids=[int(e) for e in prep.comp_ids])


def motif_embeddings(g: TemporalGraph, base_store: ParameterStore,
                     expl_store: ParameterStore, query: Event,
                     cfg: ExplainerConfig | None = None, seed: int = 0) -> np.ndarray:
    """Frozen-encoder embeddings of the motifs around one query (possibly empty)."""
    if cfg is None:
        cfg = ExplainerConfig(**expl_store.meta["config"])
    base = InternalPredictor(base_store)
    prep = prepare_query(g, base, query, cfg, seed)
    if prep is None:
        return np.zeros((0, expl_store.meta["h"]))
    _, emb, _ = encode_and_score(Tape(expl_store), [prep])
    return emb.value
