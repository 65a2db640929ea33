"""Command-line pipeline: synth/ingest -> censuses -> train -> explain -> evaluate.

One `RunConfig`, from the flags and an optional JSON file, drives every command
(`explain` and `evaluate` take the explainer's sampling fields). Every command writes
its artifact under --run-dir with a fixed filename plus a `<artifact>.manifest.json`
sidecar (full config, config hash, package version); `report.json`'s also covers the
`curve.csv` that `evaluate` writes with it from the same config. Reruns with the same
manifest are byte-identical. Failures print machine-readable JSON on stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, nn
from .basemodel import build_base_store, train_base
from .config import RunConfig, config_file_values, manifest_text
from .errors import (CheckpointError, ConfigError, DependencyError, MotifxError, SchemaError,
                     read_json, read_text, write_text)
from .evaluate import build_eval_query_set, evaluate_explanations
from .explainer import build_explainer_store, explain_batch, train_explainer
from .graph import TemporalGraph, generate_synthetic, ingest_csv
from .metrics import curve_csv
from .motifs import code_alphabet, graph_census, null_class_probs

FILES = {
    "graph": "graph.json",
    "census": "census.json",
    "null_census": "null_census.json",
    "base": "base.ckpt",
    "explainer": "explainer.ckpt",
    "explanations": "explanations.json",
    "report": "report.json",
    "curve": "curve.csv",
}


def _run_dir(args) -> Path:
    d = Path(args.run_dir)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--run-dir {d} is not a directory ({exc.strerror})") from exc
    return d


def _need(run_dir: Path, key: str) -> Path:
    path = run_dir / FILES[key]
    if not path.exists():
        raise DependencyError(f"missing {path}; run the command that produces it first")
    return path


def _publish(run_dir: Path, command: str, cfg: RunConfig, **artifacts) -> Path:
    """Write a command's artifacts (FILES keys to texts or stores) and the first one's
    manifest all or nothing; return the first path. Each goes to a temporary file beside
    its path; they replace their paths once all are written and no path is a directory.
    On a failure a ConfigError (CheckpointError for a checkpoint) names the path, no path
    has changed and no temporary is left."""
    items = {run_dir / FILES[key]: item for key, item in artifacts.items()}
    out = next(iter(items))
    items[out.with_name(out.name + ".manifest.json")] = manifest_text(command, cfg)
    temps = {path: path.with_name(f".{path.name}.tmp") for path in items}
    try:
        for path, item in items.items():
            if isinstance(item, str):
                write_text(temps[path], item, ConfigError)
            else:
                item.save(temps[path])
        for path, item in items.items():
            if path.is_dir():
                raise (ConfigError if isinstance(item, str) else CheckpointError)(
                    f"{path}: cannot be written (it is a directory)")
        for path, temp in temps.items():
            temp.replace(path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
    return out


def _load_graph(run_dir: Path) -> TemporalGraph:
    return TemporalGraph.from_json(read_text(_need(run_dir, "graph"), SchemaError))


def _load_store(run_dir: Path, g: TemporalGraph,
                base: nn.ParameterStore | None = None) -> nn.ParameterStore:
    """The base checkpoint or, given its base, the explainer's, checked against the store
    that its own meta["config"], read as a RunConfig, builds on `g`: the same kind, meta
    values, array names and shapes."""
    kind = "base" if base is None else "explainer"
    path = _need(run_dir, kind)
    store = nn.ParameterStore.load(path)
    if store.meta.get("kind") != kind:
        raise CheckpointError(f"{path}: a {store.meta.get('kind')!r} checkpoint, not {kind!r}")
    try:
        cfg = RunConfig(**store.meta["config"])
        ref = (build_base_store(g, cfg) if base is None
               else build_explainer_store(g, base.meta, cfg))
    except (KeyError, TypeError, MotifxError) as exc:
        raise CheckpointError(f"{path}: its config builds no model ({exc!r})") from exc
    for key, want in ref.meta.items():
        if store.meta.get(key) != want:
            raise CheckpointError(f"{path}: meta {key!r} is {store.meta.get(key, 'missing')!r}; "
                                  f"its config builds {want!r}")
    shapes, wants = ({k: v.shape for k, v in st.arrays.items()} for st in (store, ref))
    for name in sorted(shapes.keys() | wants.keys()):
        if shapes.get(name) != wants.get(name):
            raise CheckpointError(f"{path}: array {name!r} has shape {shapes.get(name)}; "
                                  f"its config builds {wants.get(name)}")
    return store


def _load_models(run_dir: Path, g: TemporalGraph, cfg: RunConfig, given: set):
    """The checkpoints, and `cfg` with the explainer's sampling fields; none `given` may differ."""
    base = _load_store(run_dir, g)
    expl = _load_store(run_dir, g, base)
    trained = RunConfig(**expl.meta["config"])
    for key in ("n", "l", "c", "delta", "per_hop_cap"):
        if key in given and getattr(cfg, key) != getattr(trained, key):
            raise ConfigError(f"{key}={getattr(cfg, key)} differs from the explainer "
                              f"checkpoint's {key}={getattr(trained, key)}")
        cfg = dataclasses.replace(cfg, **{key: getattr(trained, key)})
    return base, expl, cfg


def _emit_warnings(cfg: RunConfig) -> None:
    for w in cfg.warnings():
        print(f"warning: {w}", file=sys.stderr)


# -- commands -------------------------------------------------------------------

def cmd_synth(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    g = generate_synthetic(cfg.rule, cfg.nodes, cfg.events, cfg.seed)
    out = _publish(run_dir, "synth", cfg, graph=g.to_json())
    print(f"wrote {out} ({g.n_events} events, {g.node_count} nodes)")
    return 0


def cmd_ingest(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    if not cfg.csv:
        raise DependencyError("ingest needs --csv")
    g, report = ingest_csv(cfg.csv, cfg.has_header)
    out = _publish(run_dir, "ingest", cfg, graph=g.to_json())
    print(f"wrote {out} ({g.n_events} events, {g.node_count} nodes, "
          f"{report.self_loops_skipped} self-loops skipped)")
    return 0


def cmd_census(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    g = _load_graph(run_dir)
    cen = graph_census(g, cfg.n, cfg.l, cfg.c_per_node, cfg.delta, cfg.seed)
    out = _publish(run_dir, "census", cfg, census=cen.to_json())
    print(f"wrote {out} ({len(cen.counts)} classes over {cen.total} instances)")
    return 0


def _write_null_census(run_dir: Path, g: TemporalGraph, cfg: RunConfig) -> dict:
    """The null model's class probabilities, written with their manifest."""
    probs = null_class_probs(g, cfg.n, cfg.l, cfg.c_per_node, cfg.delta, cfg.seed)
    _publish(run_dir, "null-census", cfg,
             null_census=json.dumps(probs, separators=(",", ":"), sort_keys=True) + "\n")
    return probs


def _read_null_census(path: Path, cfg: RunConfig) -> dict:
    """The class probabilities in `path`: a JSON object whose keys are exactly
    code_alphabet(cfg.n, cfg.l) and whose values are numbers in (0, 1]."""
    fix = "; run motifx null-census again"
    try:
        probs = read_json(path, DependencyError)
    except DependencyError as exc:
        raise DependencyError(f"{exc}{fix}") from exc
    if not isinstance(probs, dict) or sorted(probs) != code_alphabet(cfg.n, cfg.l):
        raise DependencyError(f"{path}: its classes are not those of n={cfg.n}, l={cfg.l}{fix}")
    for code, p in probs.items():
        if type(p) not in (int, float) or not 0 < p <= 1:
            raise DependencyError(f"{path}: class {code!r} has probability {p!r}, "
                                  f"not a number in (0, 1]{fix}")
    return probs


def cmd_null_census(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    probs = _write_null_census(run_dir, _load_graph(run_dir), cfg)
    print(f"wrote {run_dir / FILES['null_census']} ({len(probs)} classes)")
    return 0


def cmd_train_base(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    g = _load_graph(run_dir)
    store, report = train_base(g, cfg)
    out = _publish(run_dir, "train-base", cfg, base=store)
    ap = "none" if report["best_score"] is None else f"{report['best_score']:.4f}"
    print(f"wrote {out} (best val AP {ap} at epoch {report['best_epoch']})")
    return 0


def cmd_train_explainer(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    g = _load_graph(run_dir)
    base = _load_store(run_dir, g)
    null_path = run_dir / FILES["null_census"]
    null_probs = (_read_null_census(null_path, cfg) if null_path.exists()
                  else _write_null_census(run_dir, g, cfg))
    store, report = train_explainer(g, base, cfg, null_probs)
    out = _publish(run_dir, "train-explainer", cfg, explainer=store)
    losses = ", ".join(f"{x:.4f}" for x in report["epoch_losses"][-3:])
    print(f"wrote {out} ({report['n_queries']} queries, last losses [{losses}])")
    return 0


def cmd_explain(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    g = _load_graph(run_dir)
    base, expl, cfg = _load_models(run_dir, g, cfg, args.given)
    if args.event_id is not None:
        if not (0 <= args.event_id < g.n_events):
            raise DependencyError(f"event id {args.event_id} outside 0..{g.n_events - 1}")
        queries = [g.event(args.event_id)]
    else:
        queries = [q for q, _ in build_eval_query_set(g, cfg.n_queries, cfg.seed)]
    results = explain_batch(g, base, expl, queries, [cfg.seed + i for i in range(len(queries))],
                            cfg=cfg)
    out = _publish(run_dir, "explain", cfg,
                   explanations="[" + ",".join(r.to_json() for r in results) + "]\n")
    print(f"wrote {out} ({len(results)} explanations)")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    run_dir = _run_dir(args)
    g = _load_graph(run_dir)
    base, expl, cfg = _load_models(run_dir, g, cfg, args.given)
    report = evaluate_explanations(g, base, expl, n_queries=cfg.n_queries, cfg=cfg,
                                   seed=cfg.seed)
    text = json.dumps(report.to_dict(), separators=(",", ":"), sort_keys=True) + "\n"
    out = _publish(run_dir, "evaluate", cfg, report=text, curve=curve_csv(report.rows))
    print(f"wrote {out} (ACC-AUC {report.acc_auc:.2f} vs random {report.baseline_acc_auc:.2f}, "
          f"{report.explain_seconds_mean * 1000:.1f} ms/explanation)")
    return 0


def cmd_grad_check(args, cfg: RunConfig) -> int:
    from .checks import substrate_grad_checks
    errs = substrate_grad_checks(seed=cfg.seed, points=args.points)
    print(json.dumps(errs, sort_keys=True))
    return 0 if all(v < 1e-4 for v in errs.values()) else 1


COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "census": cmd_census,
    "null-census": cmd_null_census,
    "train-base": cmd_train_base,
    "train-explainer": cmd_train_explainer,
    "explain": cmd_explain,
    "evaluate": cmd_evaluate,
    "grad-check": cmd_grad_check,
}


def _config_flags() -> argparse.ArgumentParser:
    """A help-less parent parser holding --config and one flag per RunConfig field."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", default=None, help="JSON config file")
    for f in dataclasses.fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        kind = f.type.split(" | ")[0]  # the annotation, without "| None"
        if kind == "bool":
            parser.add_argument(flag, action="store_true", default=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, type={"int": int, "float": float, "str": str}[kind],
                                default=argparse.SUPPRESS)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="motifx", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    config = [_config_flags()]
    for name in COMMANDS:
        p = sub.add_parser(name, parents=config)
        if name != "grad-check":  # the one command that reads and writes no run directory
            p.add_argument("--run-dir", required=True)
        if name == "explain":
            p.add_argument("--event-id", type=int, default=None)
        if name == "grad-check":
            p.add_argument("--points", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    try:
        values = {**config_file_values(args.config), **flags}  # flags win over the file
        args.given = set(values)
        cfg = RunConfig(**values)
        _emit_warnings(cfg)
        return COMMANDS[args.command](args, cfg)
    except MotifxError as exc:
        code = 2 if isinstance(exc, DependencyError) else 1
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return code
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
