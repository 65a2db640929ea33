"""One workload process: set-up, a closed loop of measured iterations, output checks.

Started by run.py with one JSON argument. Writes its result as JSON to
the path given in that argument. Modes:

- ``setup``: set up, note the time of the first measured call, time the
  reference loop, exit.
- ``measure``: set up, time the reference loop, then run iterations back
  to back (closed loop, one caller) until the next one would overrun
  ``seconds``.
- ``trace``: install the span tracer, set up, run exactly one iteration.

The reference loop is a fixed mix of interpreter, small-array and matmul
work that runs no motifx code. It is timed right before every timed
program call and at the end of every iteration, so run.py can state
each call's time at one reference speed (see README.md).

Every CLI command and every output check is one operation; a failed
one is counted and the loop goes on. An exception from the program ends
the child, and run.py reports the run as failed.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Acceptance hyperparameters for the 30-node triadic-closure graph, and
# the criterion-10 widths for the smoke scale.
SCALES = {
    "full": {
        "triadic": ["--rule", "triadic-closure", "--nodes", "30", "--events", "600"],
        "hp": ["--h", "32", "--d-time-base", "8", "--k-nb", "20", "--patience", "4",
               "--lr", "0.003", "--c", "40", "--d-time", "16", "--beta", "0.2",
               "--delta", "200", "--per-hop-cap", "20"],
        "pipeline": ["--base-epochs", "1", "--expl-epochs", "1",
                     "--max-train-queries", "30", "--n-queries", "20"],
        "hubs": ["--rule", "preferential-attachment", "--nodes", "200", "--events", "20000",
                 "--c-per-node", "20"],
        "checkpoints": ["--base-epochs", "1", "--expl-epochs", "1", "--max-train-queries", "30"],
        "explain_queries": 60,
        "eval_queries": 20,
    },
    "smoke": {
        "triadic": ["--rule", "triadic-closure", "--nodes", "14", "--events", "120"],
        "hp": ["--h", "8", "--d-time-base", "4", "--d-time", "4", "--k-nb", "6", "--c", "6",
               "--c-per-node", "5", "--per-hop-cap", "6", "--beta", "0.2"],
        "pipeline": ["--base-epochs", "2", "--expl-epochs", "2", "--n-queries", "6"],
        "hubs": ["--rule", "preferential-attachment", "--nodes", "14", "--events", "120",
                 "--c-per-node", "5"],
        "checkpoints": ["--base-epochs", "1", "--expl-epochs", "1"],
        "explain_queries": 6,
        "eval_queries": 6,
    },
}
PIPELINE = ("synth", "census", "null-census", "train-base", "train-explainer", "explain",
            "evaluate")
# the artifacts criterion 10 requires to be byte-identical across reruns
ARTIFACTS = ("graph.json", "census.json", "null_census.json", "base.ckpt", "explainer.ckpt",
             "explanations.json", "report.json", "curve.csv")


# Reference-loop samples taken right after set-up.
SETUP_REFS = 5
_REF_INTS = [np.random.default_rng(k).integers(0, 500, 400) for k in range(8)]
_REF_ROWS = np.random.default_rng(8).standard_normal((8, 1, 64))
_REF_W = np.random.default_rng(9).standard_normal((64, 32))
_REF_BATCHES = np.random.default_rng(10).standard_normal((8, 16, 64))


def reference() -> float:
    """Seconds one fixed pass of reference work takes (about 8 ms).

    Two parts: sampler-like (dict updates, small ``np.unique``/``np.isin``,
    a row-vector matmul) and tape-like (small matmuls and elementwise ops
    on fresh arrays, linked into a chain of nodes).
    """
    t0 = time.monotonic()
    for k in range(40):
        x = _REF_INTS[k % 8]
        np.unique(x[:100 + k])
        np.isin(x[:50], x[50:150])
        _REF_ROWS[k % 8] @ _REF_W
        d: dict = {}
        for j in range(200):
            d[j % 17] = d.get(j % 17, 0) + j * j
    node = None
    for k in range(120):
        a = _REF_BATCHES[k % 8]
        b = np.tanh(a @ _REF_W) * 0.5 + a[:, :32]
        node = (np.exp(-np.concatenate([b, b], axis=1)).sum(axis=0), node)
    return time.monotonic() - t0


class Ops:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures = (self.failures + [what])[:20]

    def merge(self, res: dict) -> None:
        """Add the operations a child process reported."""
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.failures = (self.failures + res["failures"])[:20]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.iterdir())


# -- output invariants ------------------------------------------------------------

def check_census(ops: Ops, text: str, alphabet: set) -> None:
    codes = set(json.loads(text)["classes"])
    ops.check(codes <= alphabet, f"census codes outside the alphabet: {sorted(codes - alphabet)}")


def check_null(ops: Ops, text: str, alphabet: set) -> None:
    probs = json.loads(text)
    ok = (set(probs) <= alphabet and all(p > 0 for p in probs.values())
          and abs(math.fsum(probs.values()) - 1.0) <= 1e-12)
    ops.check(ok, "null probabilities not positive, outside the alphabet, or not summing to 1")


def check_explanation(ops: Ops, expl: dict) -> None:
    """Retained sets nested across levels, of size ceil(s * |G(e)|), inside G(e).

    An empty explanation (no motif around the query) retains nothing.
    """
    comp = set(expl["computational_graph"])
    prev: set = set()
    ok = True
    for key in sorted(expl["retained"], key=float):
        ids = expl["retained"][key]
        cur = set(ids)
        want = 0 if expl["empty"] else math.ceil(float(key) * len(comp))
        ok = ok and len(ids) == len(cur) == want and cur <= comp and prev <= cur
        prev = cur
    ops.check(ok, f"explanation of query {expl['query']} breaks a retained-set invariant")


def check_report(ops: Ops, report: dict) -> None:
    accs = list(report["acc_per_level"].values()) + list(report["baseline_acc_per_level"].values())
    ok = (report["n_queries"] >= 1 and len(report["acc_per_level"]) == len(report["levels"])
          and all(0.0 <= a <= 1.0 for a in accs) and 0.0 <= report["acc_auc"] <= 100.0)
    ops.check(ok, "evaluation report out of range")


# -- workloads --------------------------------------------------------------------

class Workload:
    """Set-up once, then ``iteration`` is the unit of measured work.

    ``iteration`` appends (stage, seconds, reference seconds) for each
    program call to ``steps``, in call order (see ``timed``), and returns
    the output files to check and hash, and the bytes the CLI wrote
    (artifacts plus manifests).
    """

    def __init__(self, scale: dict, seed: int, workdir: Path, ops: Ops, alphabet: set):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        self.alphabet = alphabet

    @staticmethod
    def timed(stage: str, steps: list, fn, *args, **kwargs):
        """Time the reference loop, then ``fn``; append (stage, seconds, reference seconds)."""
        ref = reference()
        t0 = time.monotonic()
        out = fn(*args, **kwargs)
        steps.append((stage, time.monotonic() - t0, ref))
        return out

    def cli(self, cmd: str, run_dir: Path, flags: list, steps: list) -> None:
        from motifx import cli
        argv = [cmd, "--run-dir", str(run_dir), "--seed", str(self.seed)] + flags
        rc = self.timed(cmd, steps, cli.main, argv)
        self.ops.check(rc == 0, f"motifx {cmd} exited {rc}")

    def setup(self) -> None:
        pass


class PipelineTriadic(Workload):
    """The criterion-10 command sequence, end to end, in a fresh run directory."""

    def iteration(self, i: int, steps: list) -> tuple[dict, int]:
        run_dir = self.workdir / f"iter{i}"
        flags = self.scale["triadic"] + self.scale["hp"] + self.scale["pipeline"]
        for cmd in PIPELINE:
            self.cli(cmd, run_dir, flags, steps)
        return {name: run_dir / name for name in ARTIFACTS}, dir_bytes(run_dir)

    def check(self, files: dict) -> None:
        check_census(self.ops, files["census.json"].read_text(), self.alphabet)
        check_null(self.ops, files["null_census.json"].read_text(), self.alphabet)
        for expl in json.loads(files["explanations.json"].read_text()):
            check_explanation(self.ops, expl)
        check_report(self.ops, json.loads(files["report.json"].read_text()))


class CensusHubs(Workload):
    """Census and null census on a preferential-attachment graph with hubs."""

    def setup(self) -> None:
        self.graph_dir = self.workdir / "graph"
        self.cli("synth", self.graph_dir, self.scale["hubs"], [])

    def iteration(self, i: int, steps: list) -> tuple[dict, int]:
        run_dir = self.workdir / f"iter{i}"
        run_dir.mkdir(parents=True)
        shutil.copyfile(self.graph_dir / "graph.json", run_dir / "graph.json")
        for cmd in ("census", "null-census"):
            self.cli(cmd, run_dir, self.scale["hubs"], steps)
        files = {name: run_dir / name for name in ("census.json", "null_census.json")}
        return files, dir_bytes(run_dir) - (run_dir / "graph.json").stat().st_size

    def check(self, files: dict) -> None:
        check_census(self.ops, files["census.json"].read_text(), self.alphabet)
        check_null(self.ops, files["null_census.json"].read_text(), self.alphabet)


class ExplainEval(Workload):
    """Inference only: a closed loop of explain() calls, then evaluate_explanations()."""

    def setup(self) -> None:
        from motifx import evaluate, explainer, graph, nn
        run_dir = self.workdir / "ckpt"
        flags = self.scale["triadic"] + self.scale["hp"] + self.scale["checkpoints"]
        for cmd in ("synth", "null-census", "train-base", "train-explainer"):
            self.cli(cmd, run_dir, flags, [])
        self.g = graph.TemporalGraph.from_json((run_dir / "graph.json").read_text())
        self.base = nn.ParameterStore.load(run_dir / "base.ckpt")
        self.expl = nn.ParameterStore.load(run_dir / "explainer.ckpt")
        self.cfg = explainer.ExplainerConfig(**self.expl.meta["config"])
        self.queries = [q for q, _ in evaluate.build_eval_query_set(
            self.g, self.scale["explain_queries"], self.seed)]

    def iteration(self, i: int, steps: list) -> tuple[dict, int]:
        from motifx import evaluate, explainer
        results = [self.timed("explain-call", steps, explainer.explain, self.g, self.base,
                              self.expl, query, cfg=self.cfg, seed=self.seed + k)
                   for k, query in enumerate(self.queries)]
        report = self.timed("evaluate", steps, evaluate.evaluate_explanations, self.g, self.base,
                            self.expl, n_queries=self.scale["eval_queries"], cfg=self.cfg,
                            seed=self.seed)
        out = self.workdir / f"iter{i}"
        out.mkdir(parents=True, exist_ok=True)
        (out / "explanations.json").write_text("[" + ",".join(r.to_json() for r in results) + "]\n")
        (out / "report.json").write_text(json.dumps(report.to_dict(), separators=(",", ":"),
                                                    sort_keys=True) + "\n")
        files = {"explanations.json": out / "explanations.json", "report.json": out / "report.json"}
        return files, 0

    def check(self, files: dict) -> None:
        explanations = json.loads(files["explanations.json"].read_text())
        self.ops.check(len(explanations) == len(self.queries), "explain() calls missing")
        for expl in explanations:
            check_explanation(self.ops, expl)
        check_report(self.ops, json.loads(files["report.json"].read_text()))


WORKLOADS = {"pipeline-triadic": PipelineTriadic, "census-hubs": CensusHubs,
             "explain-eval": ExplainEval}


def blas_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):  # older numpy: no dict mode
        name = version = None
    return {"numpy": np.__version__, "blas": name, "blas_version": version}


def main() -> int:
    spec = json.loads(sys.argv[1])
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    from motifx import motifs
    alphabet = set(motifs.code_alphabet())
    tracer = None
    if spec["mode"] == "trace":
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    ops = Ops()
    wl = WORKLOADS[spec["workload"]](SCALES[spec["scale"]], spec["seed"], workdir, ops, alphabet)
    wl.setup()
    result = {"first_call": time.monotonic(), "facts": blas_facts()}
    result["setup_ref_s"] = statistics.median(reference() for _ in range(SETUP_REFS))
    if spec["mode"] == "setup":
        result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures)
        Path(spec["out"]).write_text(json.dumps(result))
        return 0
    if tracer is not None:
        setup_end, setup_counts = tracer.end_phase()
    iterations = []
    start = time.monotonic()
    while True:
        steps: list = []
        files, cli_bytes = wl.iteration(len(iterations), steps)
        if tracer is not None:
            tracer.active = False
        ref_after = reference()
        wl.check(files)
        iterations.append({"wall_s": sum(t for _, t, _ in steps), "steps": steps,
                           "ref_after": ref_after,
                           "hashes": {n: sha256(p.read_bytes()) for n, p in files.items()},
                           "artifact_bytes": cli_bytes})
        if len(iterations) > 1:  # keep only the latest iteration's outputs on disk
            shutil.rmtree(workdir / f"iter{len(iterations) - 2}", ignore_errors=True)
        done = time.monotonic() - start
        if tracer is not None or done + done / len(iterations) > spec["seconds"]:
            break
    result.update(iterations=iterations, attempted=ops.attempted, failed=ops.failed,
                  failures=ops.failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        end, counts = tracer.end_phase()
        result["layers"] = layer_metrics(tracer.summarize(setup_end, end), counts)
        result["setup_layers"] = layer_metrics(tracer.summarize(0, setup_end), setup_counts)
        tracer.dump(workdir / "spans.jsonl")
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
