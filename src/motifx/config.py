"""Run configuration, hyperparameter-range warnings, and output manifests."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from . import __version__
from .errors import ConfigError

# ranges the published sweeps explored; values outside them still run, with a warning
EXPLORED = {"c": (20, 100), "beta": (0.2, 1.0), "p": (0.1, 0.8)}
PRIORS = ("uniform", "empirical")
# the values each field can run with, in every config that has the field
RULES = {**dict.fromkeys(("batch", "h", "d_time", "d_time_base", "k_nb"),
                         (lambda v: v >= 1, "at least 1")),
         "n_queries": (lambda v: v >= 0, "at least 0"),
         "p": (lambda v: 0.0 < v < 1.0, "strictly between 0 and 1"),
         "prior": (lambda v: v in PRIORS, f"one of {'/'.join(PRIORS)}")}
# JSON value types each annotation accepts; a bool is never an int or a float
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


def check_ranges(cfg) -> None:
    """Raise ConfigError for the first field of the dataclass `cfg` that breaks its rule."""
    for name in [f.name for f in dataclasses.fields(cfg) if f.name in RULES]:
        ok, need = RULES[name]
        if not ok(getattr(cfg, name)):
            raise ConfigError(f"{name}={getattr(cfg, name)!r}: must be {need}")


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
    lam: float = 0.5
    # base model
    h: int = 64
    d_time_base: int = 16
    k_nb: int = 20
    base_epochs: int = 30
    patience: int = 3
    # explainer
    d_time: int = 50
    expl_epochs: int = 10
    gine_depth: int = 1
    max_train_queries: int | None = None
    # shared optimization
    lr: float = 1e-3
    batch: int = 64
    seed: int = 0
    # neighborhood / evaluation
    hops: int = 1
    per_hop_cap: int = 20
    n_queries: int = 200

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, kinds = getattr(self, f.name), f.type.split(" | ")
            if value is None and "None" in kinds:
                continue
            ok = any(isinstance(value, _JSON_TYPES[k]) for k in kinds if k != "None")
            if not ok or (isinstance(value, bool) and "bool" not in kinds):
                raise ConfigError(f"{f.name}={value!r}: expected {f.type}")
            if "float" in kinds and type(value) is int:  # same config, same manifest hash
                setattr(self, f.name, float(value))
        check_ranges(self)

    def warnings(self) -> list[str]:
        return [f"{name}={getattr(self, name)} outside the explored range {(lo, hi)}"
                for name, (lo, hi) in EXPLORED.items() if not lo <= getattr(self, name) <= hi]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_sources(cls, file_path: str | None, overrides: dict) -> "RunConfig":
        """Precedence: explicit flags > config file > defaults. The file must be one JSON
        object whose keys are field names."""
        values = {}
        if file_path:
            with open(file_path, encoding="utf-8") as fh:
                try:
                    loaded = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{file_path}: not JSON ({exc})") from exc
            if not isinstance(loaded, dict):
                raise ConfigError(f"{file_path}: expected a JSON object, got "
                                  f"{type(loaded).__name__}")
            unknown = set(loaded) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        values.update(overrides)
        return cls(**values)


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, command: str, cfg: RunConfig) -> None:
    """Sidecar recording everything needed to reproduce the artifact byte-for-byte."""
    payload = {"command": command, "config": cfg.to_dict(),
               "config_sha256": config_hash(cfg), "package_version": __version__,
               "warnings": cfg.warnings()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
