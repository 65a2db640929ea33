"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The planted-rule pipeline (criteria 7-9) is trained once per session at a
pinned seed; everything it produces is deterministic, so the printed
numbers are stable across runs.
"""
import dataclasses
import json
import math
import time
from collections import defaultdict

import numpy as np
import pytest

from motifx import nn
from motifx.basemodel import (InternalPredictor, encode_slots, eval_queries, evaluate_ap,
                              split_event_ids, train_base)
from motifx.checks import substrate_grad_checks
from motifx.cli import main as cli_main
from motifx.config import RunConfig
from motifx.evaluate import evaluate_explanations, train_motif_enhanced
from motifx.explainer import (encode_and_score, kl_empirical, kl_uniform, prepare_queries,
                              train_explainer)
from motifx.graph import TemporalGraph, generate_synthetic, query_event
from motifx.metrics import acc_auc, cohesiveness, fidelity
from motifx.motifs import (anchor_time, census, code_alphabet, empirical_class_probs,
                           null_class_probs, null_model, sample_id_block, total_variation)
from motifx.nn import Tape

from conftest import random_graph
from oracles import (cohesiveness_scalar, enumerate_motifs, kl_empirical_scalar,
                     kl_uniform_scalar, trapezoid_scalar, validate_instance)

BASE_CFG = RunConfig(h=32, d_time_base=8, k_nb=20, base_epochs=12, patience=4, lr=3e-3, seed=0)
EXPL_CFG = RunConfig(c=40, c_per_node=40, n=3, l=3, d_time=16, h=32, expl_epochs=16, lr=3e-3,
                     beta=0.2, delta=200.0, seed=0, per_hop_cap=20, max_train_queries=700)
N_EVAL_QUERIES = 240


def emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def triadic():
    """The pinned planted-rule pipeline: synth -> train-base -> train-explainer -> evaluate."""
    t0 = time.perf_counter()
    g = generate_synthetic("triadic-closure", 30, 2000, seed=1)
    base, base_report = train_base(g, BASE_CFG)
    expl, expl_report = train_explainer(g, base, EXPL_CFG)
    report = evaluate_explanations(g, base, expl, n_queries=N_EVAL_QUERIES,
                                   cfg=EXPL_CFG, seed=0)
    elapsed = time.perf_counter() - t0
    _, _, test_ids = split_event_ids(g)
    test_ap = evaluate_ap(base, g, eval_queries(g, test_ids, seed=99))
    return {"g": g, "base": base, "expl": expl, "report": report,
            "expl_report": expl_report, "base_report": base_report,
            "test_ap": test_ap, "elapsed": elapsed, "test_ids": test_ids}


def test_criterion_1_motif_algebra():
    start = time.perf_counter()
    graphs_checked = supports_compared = instances_validated = 0
    rng = np.random.default_rng(0xACCE)
    for k in range(100):
        if k % 3 == 0:
            g = random_graph(np.random.default_rng(k), n_events=int(rng.integers(8, 50)),
                             duplicate_times=True)
        else:
            g = generate_synthetic("uniform-random", int(rng.integers(5, 11)),
                                   int(rng.integers(8, 51)), seed=k)
        u0 = int(rng.integers(g.node_count))
        t0 = float(np.nextafter(g.t[-1], math.inf))
        enum = enumerate_motifs(g, u0, t0, n=3, l=3, max_events=60)
        for row in enum:
            assert validate_instance(g, u0, row, t0, 3, 3) == [], row
            instances_validated += 1
        graphs_checked += 1
        if 0 < len(enum) <= 25:
            sampled = sample_id_block(g, [u0], [t0], [k], n=3, l=3, c=10_000)[0]
            assert set(map(tuple, sampled.tolist())) == set(map(tuple, enum.tolist()))
            supports_compared += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0 and graphs_checked == 100 and supports_compared > 10
    emit("1 motif algebra", ok,
         f"{graphs_checked} graphs, {instances_validated} instances validated, "
         f"{supports_compared} supports matched exhaustively, {elapsed:.1f}s")
    assert ok


def test_criterion_2_equivalence_classes():
    g = generate_synthetic("uniform-random", 8, 60, seed=0)

    def pooled_census(l):
        blocks = [enumerate_motifs(g, node, anchor_time(g, node), n=3, l=l, max_events=200)
                  for node in range(g.node_count)]
        anchors = np.repeat(np.arange(g.node_count), [len(b) for b in blocks])
        return census(g, np.concatenate(blocks), anchors)

    c3 = pooled_census(3)
    c2 = pooled_census(2)
    ok3 = set(c3.counts) == set(code_alphabet(3, 3)) and len(c3.counts) == 12
    ok2 = set(c2.counts) == set(code_alphabet(3, 2)) and len(c2.counts) == 3
    emit("2 equivalence classes", ok3 and ok2,
         f"(n=3,l=3) -> {len(c3.counts)} codes, (n=3,l=2) -> {len(c2.counts)} codes")
    assert ok3 and ok2


def test_criterion_3_null_model():
    g = generate_synthetic("preferential-attachment", 20, 300, seed=2)
    spectrum = lambda gr: sorted(np.bincount(np.concatenate([gr.src, gr.dst]),
                                             minlength=gr.node_count).tolist())
    base_spec = spectrum(g)
    base_times = np.sort(g.t)
    for seed in range(100):
        shuffled = null_model(g, seed)
        assert spectrum(shuffled) == base_spec
        assert np.array_equal(np.sort(shuffled.t), base_times)
        assert shuffled.n_events == g.n_events
    gu = generate_synthetic("uniform-random", 30, 600, seed=3)
    tv = total_variation(empirical_class_probs(gu, 3, 3, c_per_node=40, seed=0),
                         null_class_probs(gu, 3, 3, c_per_node=40, seed=0))
    ok = tv < 0.1
    emit("3 null model", ok, f"100 seeds exact; TV(empirical, null) = {tv:.4f} < 0.1")
    assert ok


def test_criterion_4_differentiability():
    start = time.perf_counter()
    errs = substrate_grad_checks(seed=0, points=10)
    elapsed = time.perf_counter() - start
    ok = all(v < 1e-4 for v in errs.values()) and elapsed < 120.0
    emit("4 differentiability", ok,
         f"max rel errs {({k: f'{v:.1e}' for k, v in errs.items()})}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_loss_algebra():
    rng = np.random.default_rng(55)
    one = lambda k: np.zeros(k, dtype=np.int64)  # every motif in one query
    assert kl_uniform(nn.const(np.full(9, 0.37)), one(9), 0.37).value[0] == \
        pytest.approx(0.0, abs=1e-10)
    scores0 = np.array([0.3, 0.3, 0.3, 0.3])
    codes0 = ["0101", "0101", "0101", "0112"]
    m0 = {"0101": 0.75, "0112": 0.25}
    assert kl_empirical(nn.const(scores0), one(4), codes0, 0.3, m0).value[0] == \
        pytest.approx(0.0, abs=1e-10)
    worst = 0.0
    alphabet = code_alphabet(3, 3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        scores = rng.uniform(0.02, 0.98, size=n)
        p = float(rng.uniform(0.1, 0.9))
        codes = [alphabet[i] for i in rng.integers(0, len(alphabet), size=n)]
        m_raw = rng.uniform(0.05, 1.0, size=len(alphabet))
        m = {c: float(v / m_raw.sum()) for c, v in zip(alphabet, m_raw)}
        worst = max(worst, abs(kl_uniform(nn.const(scores), one(n), p).value[0]
                               - kl_uniform_scalar(scores, p)))
        worst = max(worst, abs(kl_empirical(nn.const(scores), one(n), codes, p, m).value[0]
                               - kl_empirical_scalar(list(scores), codes, p, m)))
    ok = worst < 1e-10
    emit("5 loss algebra", ok, f"matched points exact; max oracle gap {worst:.2e}")
    assert ok


def test_criterion_6_metric_algebra(triadic):
    g, base = triadic["g"], triadic["base"]
    model = InternalPredictor(base)
    worst_fid = 0.0
    n_fid = 0
    for q, _ in eval_queries(g, triadic["test_ids"], seed=12)[:N_EVAL_QUERIES]:
        ids = encode_slots(Tape(base), base, g, [q]).ids
        members = set(int(e) for e in ids[ids >= 0])
        f_full, f_members = model.predict(g, q), model.predict(g, q, members)
        worst_fid = max(worst_fid, abs(float(fidelity(f_full, [f_members])[0])))
        n_fid += 1
    fixture = TemporalGraph([0, 1, 3], [1, 2, 4], [0.0, 5.0, 10.0], np.zeros((3, 0)), 5)
    got = cohesiveness(fixture, {0, 1, 2}, {0, 1, 2})
    want = cohesiveness_scalar([(0.0, {0, 1}), (5.0, {1, 2}), (10.0, {3, 4})], 10.0)
    coh_ok = abs(got - want) < 1e-9 and abs(got - 2 * math.cos(0.5) / 6) < 1e-9
    accs = triadic["report"].acc_per_level
    auc_gap = abs(acc_auc(accs) - 100.0 * trapezoid_scalar(
        sorted(accs), [accs[lv] for lv in sorted(accs)]))
    ok = worst_fid == 0.0 and coh_ok and auc_gap < 1e-9
    emit("6 metric algebra", ok,
         f"fidelity(full) == 0 bit-exact over {n_fid} queries; "
         f"cohesiveness fixture ok={coh_ok}; acc-auc vs trapezoid oracle gap {auc_gap:.2e}")
    assert ok


def wedge_class_margin(setup) -> tuple:
    """Per-class mean importance scores, split by wedge topology (codes with a
    neighbor-neighbor pair), over the earliest test queries."""
    g, base, expl = setup["g"], setup["base"], setup["expl"]
    per_class = defaultdict(list)
    for q, _ in eval_queries(g, setup["test_ids"], seed=7)[:120]:
        prep = prepare_queries(g, base, [q], EXPL_CFG, [11])[0]
        if prep is None:
            continue
        scores, _, _ = encode_and_score(Tape(expl), [prep])
        for code, s in zip(prep.codes, scores.value):
            per_class[code].append(float(s))
    is_wedge = lambda code: any("0" not in code[i:i + 2] for i in range(0, len(code), 2))
    wedge = [np.mean(v) for c, v in per_class.items() if is_wedge(c)]
    other = [np.mean(v) for c, v in per_class.items() if not is_wedge(c)]
    return float(np.mean(wedge)), float(np.mean(other)), per_class


def test_criterion_7_planted_rule(triadic):
    report = triadic["report"]
    gap = report.acc_auc - report.baseline_acc_auc
    wedge_mean, other_mean, _ = wedge_class_margin(triadic)
    ok = (triadic["test_ap"] >= 0.75 and gap >= 10.0 and wedge_mean > other_mean
          and triadic["elapsed"] < 900.0)
    emit("7 planted rule", ok,
         f"base test AP {triadic['test_ap']:.3f} (>=0.75); "
         f"ACC-AUC {report.acc_auc:.2f} vs random {report.baseline_acc_auc:.2f} "
         f"(gap {gap:+.2f} >= 10); wedge-class mean {wedge_mean:.3f} > "
         f"other {other_mean:.3f}; pipeline {triadic['elapsed']:.0f}s < 900s")
    # report-only drift check: trained mean score should sit near the prior belief
    mean_score = triadic["expl_report"]["mean_score"]
    print(f"[report] mean importance score {mean_score:.3f} vs prior p={EXPL_CFG.p} "
          f"(band {EXPL_CFG.p - 0.2:.2f}..{EXPL_CFG.p + 0.2:.2f})")
    acc = report.acc_per_level
    print(f"[report] ACC monotonicity: acc(0.30)={acc[0.3]:.3f} vs acc(0.02)={acc[0.02]:.3f}")
    assert acc[0.3] >= acc[0.02] - 0.05
    assert ok


def test_criterion_7b_wedge_removal_decreases_probability(triadic):
    """A planted example: dropping the wedge pair must strictly lower the score."""
    base = triadic["base"]
    src = [5, 6, 7, 8, 1, 2, 3, 0]
    dst = [6, 7, 8, 9, 5, 6, 0, 1]
    ts = [10.0, 20.0, 30.0, 40.0, 50.0, 51.0, 96.0, 97.0]
    # events 6 and 7 form the wedge u=3 - w=0 - v=1; 4 and 5 are distractors
    g = TemporalGraph(src, dst, ts, np.zeros((8, 0)), 10)
    model = InternalPredictor(base)
    q = query_event(3, 1, 98.0)
    ids = encode_slots(Tape(base), base, g, [q]).ids
    members = set(int(e) for e in ids[ids >= 0])
    assert {6, 7} <= members
    p_full = model.predict(g, q)
    p_cut = model.predict(g, q, members - {6, 7})
    ok = p_cut < p_full
    emit("7b wedge removal", ok, f"p(full)={p_full:.4f} > p(minus wedge)={p_cut:.4f}")
    assert ok


def test_criterion_8_cohesiveness_dominance(triadic):
    report = triadic["report"]
    ok = (report.n_queries >= 200 and report.mean_cohesiveness is not None
          and report.mean_cohesiveness > report.baseline_cohesiveness)
    emit("8 cohesiveness", ok,
         f"{report.n_queries} queries at sparsity {report.cohesiveness_level}: "
         f"model {report.mean_cohesiveness:.4f} > random {report.baseline_cohesiveness:.4f}")
    assert ok


@pytest.fixture(scope="module")
def pa_pipeline():
    g = generate_synthetic("preferential-attachment", 30, 2000, seed=1)
    base, _ = train_base(g, BASE_CFG)
    cfg = dataclasses.replace(EXPL_CFG, expl_epochs=8, max_train_queries=500)
    expl, _ = train_explainer(g, base, cfg)
    _, rep = train_motif_enhanced(g, base, expl, cfg, seed=0)
    return {"g": g, "report": rep, "expl": expl, "cfg": cfg}


def test_criterion_9_motif_enhanced(triadic, pa_pipeline):
    cfg = EXPL_CFG
    _, tri_rep = train_motif_enhanced(triadic["g"], triadic["base"], triadic["expl"], cfg,
                                      seed=0)
    pa_rep = pa_pipeline["report"]
    deltas = {"triadic-closure": tri_rep["enhanced_test_ap"] - tri_rep["plain_test_ap"],
              "preferential-attachment": pa_rep["enhanced_test_ap"] - pa_rep["plain_test_ap"]}
    ok = (tri_rep["enhanced_test_ap"] >= tri_rep["plain_test_ap"] - 0.01
          and pa_rep["enhanced_test_ap"] >= pa_rep["plain_test_ap"] - 0.01
          and max(deltas.values()) > 0.0)
    emit("9 motif-enhanced prediction", ok,
         f"triadic {tri_rep['plain_test_ap']:.4f} -> {tri_rep['enhanced_test_ap']:.4f} "
         f"({deltas['triadic-closure']:+.4f}); "
         f"pref-attach {pa_rep['plain_test_ap']:.4f} -> {pa_rep['enhanced_test_ap']:.4f} "
         f"({deltas['preferential-attachment']:+.4f})")
    assert ok


def test_criterion_10_determinism(tmp_path):
    tiny = ["--nodes", "14", "--events", "120", "--seed", "5", "--h", "8",
            "--d-time-base", "4", "--d-time", "4", "--k-nb", "6", "--c", "6",
            "--c-per-node", "5", "--base-epochs", "2", "--expl-epochs", "2",
            "--n-queries", "6", "--per-hop-cap", "6", "--beta", "0.2"]
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        args = ["--run-dir", str(d)] + tiny
        for cmd in (["synth"], ["census"], ["null-census"], ["train-base"],
                    ["train-explainer"], ["explain"], ["evaluate"]):
            assert cli_main(cmd + args) == 0
    artifacts = ["graph.json", "census.json", "null_census.json", "base.ckpt",
                 "explainer.ckpt", "explanations.json", "report.json", "curve.csv"]
    same = {a: (dirs[0] / a).read_bytes() == (dirs[1] / a).read_bytes()
            for a in artifacts}
    ok = all(same.values())
    emit("10 determinism", ok, f"byte-identical artifacts: {sorted(k for k, v in same.items() if v)}")
    assert ok
