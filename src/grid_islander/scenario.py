"""Scenario configuration: what to fault, where to seed, how to simulate."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, integer

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a partitioning run needs besides the case file itself.

    ``initial_islands`` holds the seed node sets in label order (island 1
    first); ``n_mu`` is their number. ``scenario_hash`` is the hex sha256
    of the bytes ``load_scenario`` parsed, for the run manifest; a config
    built any other way has none, and equality ignores it.
    """

    case_path: Path
    generator_set: tuple[int, ...]
    initial_islands: tuple[tuple[int, ...], ...]
    fault_branches: tuple[tuple[int, int], ...]
    seed: int
    ensemble_size: int
    t_max: float
    dt: float
    rho_threshold: float
    algorithm: str = "centralized"
    scenario_hash: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "case_path", Path(self.case_path))
        object.__setattr__(self, "generator_set",
                           _ids("generator_set", self.generator_set))
        object.__setattr__(self, "initial_islands", tuple(
            _ids("initial_islands", isl) for isl in self.initial_islands))
        object.__setattr__(self, "fault_branches", tuple(
            _ids("fault_branches", (a, b)) for a, b in self.fault_branches))
        _validate(self)

    @property
    def n_mu(self) -> int:
        return len(self.initial_islands)


def _ids(name: str, values) -> tuple[int, ...]:
    return tuple(integer(f"bus id in {name}", value, ConfigError)
                 for value in values)


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.n_mu < 2:
        raise ConfigError("at least two initial islands are required")
    if any(len(isl) == 0 for isl in cfg.initial_islands):
        raise ConfigError("initial islands must be non-empty")
    if not cfg.generator_set:
        raise ConfigError("generator set is empty")
    for name in ("dt", "t_max"):
        if not math.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite")
    if cfg.dt <= 0 or cfg.t_max <= 0 or cfg.dt >= cfg.t_max:
        raise ConfigError("need 0 < dt < t_max")
    if not 0.0 < cfg.rho_threshold < 1.0:
        raise ConfigError("rho_threshold must lie in (0, 1)")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.ensemble_size < 1:
        raise ConfigError("ensemble_size must be at least 1")
    if cfg.algorithm not in ("centralized", "decentralized"):
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")


_REQUIRED_KEYS = ("case_path", "generator_set", "initial_islands",
                  "fault_branches", "seed", "ensemble_size",
                  "t_max", "dt", "rho_threshold")
# max_stalled_rounds and freq_epsilon are retired: files that carry them
# still load, and their values, whatever they are, are ignored.
_KEYS = frozenset(_REQUIRED_KEYS + ("schema_version", "n_mu", "algorithm",
                                    "mode", "max_stalled_rounds",
                                    "freq_epsilon"))


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
    unknown = sorted(set(data) - _KEYS)
    if unknown:    # a misspelt optional key would silently take its default
        raise ConfigError(f"unknown scenario config keys: {unknown}")
    if data.get("mode", "analytic") != "analytic":   # the one engine
        raise ConfigError(f"unknown mode {data['mode']!r}")
    case_path = Path(data["case_path"])
    if base_dir is not None and not case_path.is_absolute():
        case_path = base_dir / case_path
    try:
        if "n_mu" in data:    # optional; it can only repeat the count
            n_mu = integer("n_mu", data["n_mu"], ConfigError)
            if n_mu != len(data["initial_islands"]):
                raise ConfigError(
                    f"n_mu is {n_mu} but {len(data['initial_islands'])} "
                    f"initial islands were given")
        return ScenarioConfig(
            case_path=case_path,
            generator_set=tuple(data["generator_set"]),
            initial_islands=tuple(tuple(isl)
                                  for isl in data["initial_islands"]),
            fault_branches=tuple(tuple(pair)
                                 for pair in data["fault_branches"]),
            seed=integer("seed", data["seed"], ConfigError),
            ensemble_size=integer("ensemble_size", data["ensemble_size"],
                                  ConfigError),
            t_max=float(data["t_max"]),
            dt=float(data["dt"]),
            rho_threshold=float(data["rho_threshold"]),
            algorithm=data.get("algorithm", "centralized"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario config: {exc}") from None


def _sha256_hex(data: bytes) -> str:
    """Hex sha256 of ``data`` from CPython's built-in module, as the
    stdlib's ``random`` imports its seed hash, so that no run maps
    OpenSSL; hashlib only where the interpreter was built without it."""
    try:
        from _sha2 import sha256        # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def load_scenario(path) -> ScenarioConfig:
    """Load a scenario JSON file; case_path resolves relative to it.

    The file is read once: the config carries the sha256 of the bytes it
    was parsed from, so a pipe or a file rewritten mid-run is hashed as
    parsed."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    cfg = scenario_from_dict(data, base_dir=path.parent)
    return replace(cfg, scenario_hash=_sha256_hex(raw))

