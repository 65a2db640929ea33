"""Run configuration, hyperparameter-range warnings, and output manifests."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from . import __version__
from .errors import ConfigError

# ranges the published sweeps explored; values outside them still run, with a warning
C_RANGE = (20, 100)
BETA_RANGE = (0.2, 1.0)
P_RANGE = (0.1, 0.8)


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
        if self.k_nb < 1:
            raise ConfigError(f"k_nb={self.k_nb}: each endpoint needs at least one slot")

    def warnings(self) -> list[str]:
        out = []
        if not (C_RANGE[0] <= self.c <= C_RANGE[1]):
            out.append(f"c={self.c} outside the explored range {C_RANGE}")
        if not (BETA_RANGE[0] <= self.beta <= BETA_RANGE[1]):
            out.append(f"beta={self.beta} outside the explored range {BETA_RANGE}")
        if not (P_RANGE[0] <= self.p <= P_RANGE[1]):
            out.append(f"p={self.p} outside the explored range {P_RANGE}")
        if self.prior not in ("uniform", "empirical"):
            out.append(f"prior={self.prior!r} is not one of uniform/empirical")
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_sources(cls, file_path: str | None, overrides: dict) -> "RunConfig":
        """Precedence: explicit flags > config file > defaults."""
        values = {}
        if file_path:
            with open(file_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = set(loaded) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
