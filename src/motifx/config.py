"""The one run configuration, hyperparameter-range warnings, and output manifests.

`RunConfig` drives every stage, from the CLI and the library alike. Each
stage reads only its own fields: the base model `h`, `d_time_base`,
`k_nb`, `base_epochs` and `patience`; the explainer `h`, `d_time`,
`expl_epochs` and the motif, objective and neighborhood fields; both
`lr`, `batch` and `seed`. A caller who wants a shared field to differ
between the two stages passes two configs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from . import __version__, graph
from .errors import ConfigError, read_json

# ranges the published sweeps explored; values outside them still run, with a warning
EXPLORED = {"c": (20, 100), "beta": (0.2, 1.0), "p": (0.1, 0.8)}
PRIORS = ("uniform", "empirical")
# the values each field can run with
RULES = {**dict.fromkeys(("batch", "h", "d_time", "d_time_base", "k_nb", "l", "c", "c_per_node",
                          "per_hop_cap", "events", "max_train_queries"),
                         (lambda v: v >= 1, "at least 1")),
         **dict.fromkeys(("base_epochs", "expl_epochs", "patience", "n_queries", "seed"),
                         (lambda v: v >= 0, "at least 0")),
         **dict.fromkeys(("lr", "delta"),
                         (lambda v: 0.0 < v < math.inf, "finite and above 0")),
         "n": (lambda v: v >= 2, "at least 2"), "nodes": (lambda v: v >= 3, "at least 3"),
         "beta": (lambda v: 0.0 <= v < math.inf, "finite and at least 0"),
         "p": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
         "prior": (lambda v: v in PRIORS, f"one of {'/'.join(PRIORS)}"),
         "rule": (lambda v: v in graph.RULES, f"one of {'/'.join(graph.RULES)}")}
# JSON value types each annotation accepts; a bool is never an int or a float
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


@dataclass
class RunConfig:
    # dataset: either a CSV to ingest or a synthetic rule
    csv: str | None = None
    has_header: bool = False
    rule: str = "triadic-closure"
    nodes: int = 30
    events: int = 2000
    # motif scale
    n: int = 3
    l: int = 3
    c: int = 40
    delta: float | None = None
    c_per_node: int = 20
    # prior / objective
    prior: str = "empirical"
    p: float = 0.3
    beta: float = 0.5
    # base model
    h: int = 64
    d_time_base: int = 16
    k_nb: int = 20
    base_epochs: int = 30
    patience: int = 3
    # explainer
    d_time: int = 50
    expl_epochs: int = 10
    max_train_queries: int | None = None
    # shared optimization
    lr: float = 1e-3
    batch: int = 64
    seed: int = 0
    # neighborhood / evaluation
    per_hop_cap: int = 20
    n_queries: int = 200

    def __post_init__(self):
        """Raise ConfigError at the first field whose value is not of its annotated type
        or breaks its rule; store an int given for a float field as a float, so the same
        config has the same manifest hash."""
        for f in dataclasses.fields(self):
            value, kinds = getattr(self, f.name), f.type.split(" | ")
            if value is None and "None" in kinds:
                continue
            ok = any(isinstance(value, _JSON_TYPES[k]) for k in kinds if k != "None")
            if not ok or (isinstance(value, bool) and "bool" not in kinds):
                raise ConfigError(f"{f.name}={value!r}: expected {f.type}")
            if f.name in RULES and not RULES[f.name][0](value):
                raise ConfigError(f"{f.name}={value!r}: must be {RULES[f.name][1]}")
            if "float" in kinds and type(value) is int:
                setattr(self, f.name, float(value))

    def warnings(self) -> list[str]:
        return [f"{name}={getattr(self, name)} outside the explored range {(lo, hi)}"
                for name, (lo, hi) in EXPLORED.items() if not lo <= getattr(self, name) <= hi]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_file_values(file_path: str | None) -> dict:
    """The fields a config file, one JSON object of field names, sets; none without one."""
    if not file_path:
        return {}
    loaded = read_json(file_path, ConfigError)
    if not isinstance(loaded, dict):
        raise ConfigError(f"{file_path}: expected a JSON object, got {type(loaded).__name__}")
    unknown = set(loaded) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return loaded


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, command: str, cfg: RunConfig) -> None:
    """Sidecar recording everything needed to reproduce the artifact byte-for-byte."""
    payload = {"command": command, "config": cfg.to_dict(),
               "config_sha256": config_hash(cfg), "package_version": __version__,
               "warnings": cfg.warnings()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")
