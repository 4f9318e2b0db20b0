"""Scenario configuration: what to fault, where to seed, how to simulate."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a partitioning run needs besides the case file itself.

    ``initial_islands`` holds the seed node sets in label order (island 1
    first). ``freq_epsilon`` is the frequency-agreement threshold used by
    the decentralized staleness check, in per-unit.
    """

    case_path: Path
    generator_set: tuple[int, ...]
    initial_islands: tuple[tuple[int, ...], ...]
    fault_branches: tuple[tuple[int, int], ...]
    n_mu: int
    seed: int
    ensemble_size: int
    t_max: float
    dt: float
    rho_threshold: float
    freq_epsilon: float
    algorithm: str = "centralized"
    mode: str = "analytic"
    max_stalled_rounds: int = 3

    def __post_init__(self):
        object.__setattr__(self, "case_path", Path(self.case_path))
        object.__setattr__(self, "generator_set",
                           tuple(int(b) for b in self.generator_set))
        object.__setattr__(self, "initial_islands", tuple(
            tuple(int(n) for n in isl) for isl in self.initial_islands))
        object.__setattr__(self, "fault_branches", tuple(
            (int(a), int(b)) for a, b in self.fault_branches))
        _validate(self)


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.n_mu != len(cfg.initial_islands):
        raise ConfigError(f"n_mu is {cfg.n_mu} but {len(cfg.initial_islands)} "
                          f"initial islands were given")
    if cfg.n_mu < 2:
        raise ConfigError("at least two initial islands are required")
    if any(len(isl) == 0 for isl in cfg.initial_islands):
        raise ConfigError("initial islands must be non-empty")
    if not cfg.generator_set:
        raise ConfigError("generator set is empty")
    if cfg.dt <= 0 or cfg.t_max <= 0 or cfg.dt >= cfg.t_max:
        raise ConfigError("need 0 < dt < t_max")
    if not 0.0 < cfg.rho_threshold < 1.0:
        raise ConfigError("rho_threshold must lie in (0, 1)")
    if cfg.freq_epsilon <= 0:
        raise ConfigError("freq_epsilon must be positive")
    if cfg.ensemble_size < 1:
        raise ConfigError("ensemble_size must be at least 1")
    if cfg.algorithm not in ("centralized", "decentralized"):
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
    # "analytic" is the only engine; the key stays for existing files
    if cfg.mode != "analytic":
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.max_stalled_rounds < 1:
        raise ConfigError("max_stalled_rounds must be at least 1")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "case_path": str(cfg.case_path),
        "generator_set": list(cfg.generator_set),
        "initial_islands": [list(isl) for isl in cfg.initial_islands],
        "fault_branches": [list(pair) for pair in cfg.fault_branches],
        "n_mu": cfg.n_mu,
        "seed": cfg.seed,
        "ensemble_size": cfg.ensemble_size,
        "t_max": cfg.t_max,
        "dt": cfg.dt,
        "rho_threshold": cfg.rho_threshold,
        "freq_epsilon": cfg.freq_epsilon,
        "algorithm": cfg.algorithm,
        "mode": cfg.mode,
        "max_stalled_rounds": cfg.max_stalled_rounds,
    }


_REQUIRED_KEYS = ("case_path", "generator_set", "initial_islands",
                  "fault_branches", "n_mu", "seed", "ensemble_size",
                  "t_max", "dt", "rho_threshold", "freq_epsilon")


def scenario_from_dict(data: dict, base_dir: Path | None = None
                       ) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario config must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported scenario schema_version {version}")
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ConfigError(f"scenario config missing keys: {missing}")
    case_path = Path(data["case_path"])
    if base_dir is not None and not case_path.is_absolute():
        case_path = base_dir / case_path
    try:
        return ScenarioConfig(
            case_path=case_path,
            generator_set=tuple(data["generator_set"]),
            initial_islands=tuple(tuple(isl)
                                  for isl in data["initial_islands"]),
            fault_branches=tuple(tuple(pair)
                                 for pair in data["fault_branches"]),
            n_mu=int(data["n_mu"]),
            seed=int(data["seed"]),
            ensemble_size=int(data["ensemble_size"]),
            t_max=float(data["t_max"]),
            dt=float(data["dt"]),
            rho_threshold=float(data["rho_threshold"]),
            freq_epsilon=float(data["freq_epsilon"]),
            algorithm=data.get("algorithm", "centralized"),
            mode=data.get("mode", "analytic"),
            max_stalled_rounds=int(data.get("max_stalled_rounds", 3)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario config: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario JSON file; case_path resolves relative to it."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return scenario_from_dict(data, base_dir=path.parent)


def with_overrides(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """Return a copy with selected fields replaced (re-validated)."""
    return replace(cfg, **changes)
