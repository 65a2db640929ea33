"""The motifx benchmark: one named workload per call, in fresh child processes.

    python3 bench/run.py --workload pipeline-triadic --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Untraced (``--trace 0``) the last stdout line holds the end-to-end
metrics; traced (``--trace 1``) it holds the per-layer metrics, which
need an untraced run of the same seed as well (for the tracing overhead
and the byte-identity check), so a traced call makes both. ``--smoke``
runs every workload at criterion-10 scale, traced, and fails unless every
metric named in BENCHMARK.json is emitted and no check fails.

Child processes run one at a time, with BLAS pinned to one thread in
their environment only. Times are stated at the reference speed: a
measured time times REFERENCE_S over the time the reference loop
(child.reference) took around it. Metric names and units come
from BENCHMARK.json at the repository root; bench/README.md explains
each one.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_run"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-ups per run for the setup_s median: the measuring child plus children
# that only set up. explain-eval's set-up trains two checkpoints.
SETUPS = {"pipeline-triadic": 5, "census-hubs": 5, "explain-eval": 3}
# The reference loop's time at the reference speed. This host's speed
# wanders by up to 2x in phases of seconds to minutes, for the program and
# the reference loop alike (README.md has the measurements).
REFERENCE_S = 0.008
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from child import Ops  # noqa: E402
from tracing import nearest_rank  # noqa: E402


class RunFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, scale: str, tag: str,
          deadline: float) -> dict:
    """Run one child to completion; its setup_s runs from spawn to its first measured call."""
    workdir = OUT / "work" / workload / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "mode": mode,
            "scale": scale, "workdir": str(workdir), "out": str(out)}
    env = dict(os.environ, **BLAS_PIN)
    with open(workdir / "child.log", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{workload} {mode} child passed the run's time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0 or not out.exists():
        tail = (workdir / "child.log").read_text(errors="replace")[-2000:]
        raise RunFailed(f"{workload} {mode} child exited {rc}:\n{tail}")
    res = json.loads(out.read_text())
    res["setup_raw_s"] = res["first_call"] - t_spawn
    res["setup_s"] = res["setup_raw_s"] * REFERENCE_S / res["setup_ref_s"]
    return res


def code_digest() -> str:
    """Hash of the program and benchmark sources: runs of the same code share it."""
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_hashes(ops: Ops, iterations: list, key: str) -> dict:
    """Artifacts byte-identical across the run's iterations and across runs of the same code."""
    first = iterations[0]["hashes"]
    for k, it in enumerate(iterations[1:], start=1):
        for name, digest in it["hashes"].items():
            ops.check(digest == first[name], f"{name} of iteration {k} differs from iteration 0")
    registry = OUT / "hashes" / code_digest() / f"{key}.json"
    if registry.exists():
        earlier = json.loads(registry.read_text())
        for name, digest in first.items():
            ops.check(earlier.get(name) == digest, f"{name} differs from an earlier run")
    else:
        registry.parent.mkdir(parents=True, exist_ok=True)
        registry.write_text(json.dumps(first, sort_keys=True))
    return first


def at_reference_speed(iteration: dict) -> list:
    """(stage, seconds) per program call, scaled by the reference samples before and after it."""
    steps = iteration["steps"]
    refs = [ref for _, _, ref in steps] + [iteration["ref_after"]]
    return [(stage, seconds * 2 * REFERENCE_S / (refs[j] + refs[j + 1]))
            for j, (stage, seconds, _) in enumerate(steps)]


def median_steps(iterations: list) -> list:
    """(stage, seconds) per program call of an iteration: its median over the iterations."""
    scaled = [at_reference_speed(it) for it in iterations]
    return [(stage, statistics.median(calls[j][1] for calls in scaled))
            for j, (stage, _) in enumerate(scaled[0])]


def stage_metrics(iterations: list) -> dict:
    """Untraced stage times and explain() call latencies, at the reference speed."""
    steps = median_steps(iterations)

    def total(*stages):
        return sum(t for stage, t in steps if stage in stages)
    lat = sorted(t for it in iterations for stage, t in at_reference_speed(it)
                 if stage == "explain-call")
    return {"stage.census_s": total("census", "null-census"),
            "stage.train_base_s": total("train-base"),
            "stage.train_explainer_s": total("train-explainer"),
            "stage.explain_s": total("explain", "explain-call"),
            "stage.evaluate_s": total("evaluate"),
            "stage.explain_p50_ms": 1e3 * nearest_rank(lat, 0.5),
            "stage.explain_p95_ms": 1e3 * nearest_rank(lat, 0.95),
            "stage.explain_samples": len(lat)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = Ops()
    load_before = os.getloadavg()[0]
    children = [spawn(workload, seed, seconds, "measure", scale, "measure", deadline)]
    iters = children[0]["iterations"]
    while len(children) < SETUPS[workload]:
        children.append(spawn(workload, seed, seconds, "setup", scale,
                              f"setup{len(children)}", deadline))
    for child in children:
        ops.merge(child)
    hashes = check_hashes(ops, iters, f"{workload}-{scale}-seed{seed}")
    wall = sum(t for _, t in median_steps(iters))
    e2e = {"setup_s": statistics.median(c["setup_s"] for c in children), "wall_s": wall,
           "peak_rss_mb": children[0]["peak_rss_mb"]}
    stages = stage_metrics(iters)
    layers = {}
    if trace:
        t = spawn(workload, seed, seconds, "trace", scale, "trace", deadline)
        ops.merge(t)
        for name, digest in t["iterations"][0]["hashes"].items():
            ops.check(digest == hashes[name], f"{name} differs between traced and untraced runs")
        layers = dict(t["layers"])
        for name in ("graph.from_json.s", "nn.checkpoint.save_s", "nn.checkpoint.load_s",
                     "nn.checkpoint.bytes"):
            layers["setup." + name] = t["setup_layers"][name]
        layers["cli.artifact_bytes"] = t["iterations"][0]["artifact_bytes"]
        traced_wall = sum(sec for _, sec in at_reference_speed(t["iterations"][0]))
        layers["trace.overhead_s"] = traced_wall - wall
        layers.update(stages)
    facts = {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), **children[0]["facts"], "blas_env_pin": BLAS_PIN,
             "load_1min_before": load_before, "load_1min_after": os.getloadavg()[0]}
    return {"workload": workload, "seed": seed, "seconds": seconds, "scale": scale,
            "trace": trace, "facts": facts, "attempted": ops.attempted, "failed": ops.failed,
            "failures": ops.failures, "end_to_end": e2e, "stages": stages,
            "per_layer": layers, "iterations": len(iters),
            "setups_s": [c["setup_s"] for c in children],
            "setups_raw_s": [c["setup_raw_s"] for c in children],
            "setup_ref_s": [c["setup_ref_s"] for c in children],
            "wall_raw_s": statistics.median(it["wall_s"] for it in iters),
            "iteration_wall_raw_s": [it["wall_s"] for it in iters],
            "ref_median_s": statistics.median(step[2] for it in iters for step in it["steps"]),
            "hashes": hashes}


def emit(record: dict, defs: list) -> dict:
    """The result line: every metric of `defs`, with its unit."""
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    missing = [d["name"] for d in defs if d["name"] not in values]
    if missing:
        raise RunFailed(f"metrics not produced: {missing}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in defs}}


def report(record: dict) -> None:
    """Human-readable summary on stderr, and the full record under .bench_run/records."""
    out = OUT / "records" / (f"{record['workload']}-{record['scale']}-seed{record['seed']}"
                             f"-trace{int(record['trace'])}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    f = record["facts"]
    print(f"# {record['workload']} seed {record['seed']}: {record['iterations']} iteration(s), "
          f"{record['attempted']} operations, {record['failed']} failed; "
          f"{f['cpus_usable']}/{f['cpu_count']} CPUs, Python {f['python']}, numpy {f['numpy']}, "
          f"{f['blas']} {f['blas_version']} pinned to 1 thread, load "
          f"{f['load_1min_before']:.2f} -> {f['load_1min_after']:.2f}", file=sys.stderr)
    for group in ("end_to_end", "stages", "per_layer"):
        for name, value in record[group].items():
            print(f"#   {name} = {value}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"# FAILED: {failure}", file=sys.stderr)
    print(f"# record: {out}", file=sys.stderr)


def smoke(spec: dict) -> int:
    """Every workload at criterion-10 scale, traced: all metrics emitted, no check fails."""
    ok = True
    for wl in spec["workloads"]:
        record = run_workload(wl["name"], 0, 0.2, True, "smoke")
        report(record)
        for key, defs in (("end_to_end", spec["end_to_end"]), ("per_layer", spec["per_layer"])):
            line = emit(dict(record, trace=key == "per_layer"), defs)
            units = all(m["unit"] for m in line["metrics"].values())
            ok = ok and line["correct"] and units
        print(f"smoke {wl['name']}: {record['attempted']} operations, "
              f"{record['failed']} failed", flush=True)
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so `spawn` reaps its child
    if not (ROOT / "src" / "motifx" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} holds no motifx sources (src/motifx) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    try:
        if args.smoke:
            return smoke(spec)
        if args.workload not in SETUPS or args.seed < 0 or args.seconds <= 0:
            parser.error(f"need --workload in {sorted(SETUPS)}, --seed >= 0, --seconds > 0")
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
        report(record)
        line = emit(record, spec["per_layer"] if args.trace else spec["end_to_end"])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
