"""Command-line interface.

Subcommands (parse, simulate, sync-times, partition, metrics, run-all)
are built from one staged pipeline: scenario and network, sync table
(detected inside the RK4 loop), partition, metrics. run-all solves the
whole-network power flow behind J4, which no partition changes, right
after the seed check and before any artifact or growth, while the
network alone is in memory, and hands the solution to metrics; otherwise
metrics solves it after the islands' flows, per component if split. Every
artifact is JSON or CSV; a run manifest ties the outputs of one
invocation together. Exit codes: 0 success, 2 input error, 3 numerical
failure, 4 validation failure. Verbosity follows the GRID_ISLANDER_LOG
environment variable (error, warn, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, metrics
from .centralized import centralized_partition
from .decentralized import run_decentralized
from .errors import (ConfigError, DegenerateBranch, DegenerateEstimate,
                     EmptyLayer, GridIslanderError, InitialIslandsOverlap,
                     MissingSection, NoGenerator, NotConverged, NotFound,
                     NumericalDivergence, ParseError, SchemaError,
                     SingularSystem, Stalled, UndefinedSize)
# ensemble_integrate and sync_times, the stored-trajectory pair, are no
# stage here; they stay importable from this module for tracers that wrap
# its names (perfbench/spans.py).
from .kuramoto import (_Kernel, build_layer, derivative, ensemble_integrate,
                       ensemble_sync_times, integrate,
                       sample_initial_conditions, sync_times)
from .matpower import build_network, load_case
from .metrics import compute_metrics, metrics_to_dict
from .network import (Island, Partition, PowerNetwork, apply_fault,
                      check_initial_islands, island_imbalance,
                      validate_partition)
from .scenario import ScenarioConfig, load_scenario
from .serialize import (network_to_dict, partition_from_dict,
                        partition_to_dict, save_csv, save_json,
                        sync_table_from_dict, sync_table_to_dict)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class _ValidationFailure(GridIslanderError):
    """Raised internally when a produced partition fails its checks."""


# Checked in this order; a malformed JSON file is a ValueError.
_VALIDATION_ERRORS = (_ValidationFailure, InitialIslandsOverlap, Stalled,
                      NoGenerator)
_NUMERICAL_ERRORS = (NotConverged, NumericalDivergence, SingularSystem,
                     DegenerateBranch, DegenerateEstimate, UndefinedSize)
_INPUT_ERRORS = (ConfigError, ParseError, MissingSection, SchemaError,
                 NotFound, EmptyLayer, FileNotFoundError, IsADirectoryError,
                 PermissionError, ValueError)


def _configure_logging() -> None:
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("GRID_ISLANDER_LOG", "warn").lower()
    logging.basicConfig(level=levels.get(name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _emit_error(exc: BaseException, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


# Pipeline stages. Each is written once and every subcommand is built
# from them. They reach the library only through this module's globals,
# so a caller that patches ``grid_islander.cli.<name>`` sees every call.

def _scenario(args) -> tuple[ScenarioConfig, PowerNetwork]:
    """Scenario config with CLI overrides, and its post-fault network."""
    cfg = load_scenario(args.config)
    overrides = {key: value for key, value in vars(args).items()
                 if key in ("algorithm", "seed") and value is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    network = build_network(load_case(cfg.case_path), cfg.generator_set)
    if cfg.fault_branches:
        network = apply_fault(network, *cfg.fault_branches)
    return cfg, network


def _seeds(cfg: ScenarioConfig, network: PowerNetwork) -> list[Island]:
    """The scenario's seed islands, checked against its faulted network
    before any artifact is written or any ensemble integrated."""
    initial = [Island(label=k + 1, node_set=frozenset(nodes))
               for k, nodes in enumerate(cfg.initial_islands)]
    try:
        check_initial_islands(network, initial)
    except ConfigError as exc:
        if not cfg.fault_branches:
            raise
        raise ConfigError(f"{exc} after fault "
                          f"{json.dumps(cfg.fault_branches)}") from None
    return initial


def _grid_layer(network: PowerNetwork):
    """The whole-grid oscillator layer."""
    return build_layer(network, network.node_ids())


def _sync_table(cfg: ScenarioConfig, network: PowerNetwork):
    """Ensemble sync time of every network edge (each a layer edge: an
    in-service branch has x != 0), scanned inside the RK4 loop."""
    return ensemble_sync_times(_grid_layer(network), cfg.ensemble_size,
                               cfg.seed, threshold=cfg.rho_threshold,
                               t_max=cfg.t_max, dt=cfg.dt)


def _reused_sync_table(path: str, cfg: ScenarioConfig,
                       network: PowerNetwork):
    """The sync table at ``path``, refused unless the growth is
    centralized and the table holds exactly the network's edges."""
    if cfg.algorithm != "centralized":
        raise ConfigError("--sync-table is for the centralized algorithm, "
                          f"not {cfg.algorithm}")
    table = sync_table_from_dict(_read_json(path))
    edges = network.edge_set()
    odd = min(edges ^ table.entries.keys(), default=None)
    if odd is not None:
        raise ConfigError(f"sync table {path} " + (
            "lacks in-service edge {}-{}" if odd in edges else
            "holds edge {}-{}, which is not in service").format(*odd))
    return table


def _partition(cfg: ScenarioConfig, network: PowerNetwork,
               initial: list[Island], sync_table=None
               ) -> tuple[Partition, str, dict]:
    """Grow and validate a partition from the seeds ``initial``; returns
    (partition, log name, log).

    The centralized growth computes the sync table unless given one.
    """
    if cfg.algorithm == "centralized":
        if sync_table is None:
            sync_table = _sync_table(cfg, network)
        result = centralized_partition(network, initial, sync_table)
        log_name, log = "steps", {"steps": [
            {"step": s.step, "island": s.island_label, "node": s.node,
             "sync_time": ("inf" if s.sync_time == float("inf")
                           else s.sync_time),
             "imbalances": {str(k): v for k, v in s.imbalances.items()}}
            for s in result.steps]}
    else:
        result = run_decentralized(network, initial)
        log_name, log = "events", {
            "rounds": result.rounds,
            "layer_evaluations": list(result.layer_evaluations),
            "evaluation_bound": result.evaluation_bound,
            "fallback_nodes": list(result.fallback_nodes),
            "events": list(result.events)}
    _validate_or_fail(network, result.partition)
    return result.partition, log_name, log


def _validate_or_fail(network: PowerNetwork, partition: Partition) -> None:
    report = validate_partition(network, partition)
    if not report.all_ok:
        raise _ValidationFailure("; ".join(report.issues))


class _ArtifactDir:
    """An output directory that records its JSON artifacts, in write
    order, for the run manifest."""

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.artifacts: dict[str, str] = {}

    def write(self, key: str, payload: dict) -> None:
        save_json(payload, self.path / f"{key}.json")
        self.artifacts[key] = f"{key}.json"

    def write_partition(self, partition: Partition, log_name: str,
                        log: dict) -> None:
        self.write("partition", partition_to_dict(partition))
        self.write(log_name, log)

    def write_manifest(self, config_path: str, cfg: ScenarioConfig) -> None:
        # imported here, their only user, so that parse never loads
        # OpenSSL
        import hashlib
        from datetime import datetime, timezone
        manifest = {
            "schema_version": 1,
            "tool_version": __version__,
            "scenario_hash": hashlib.sha256(
                Path(config_path).read_bytes()).hexdigest(),
            "seed": cfg.seed,
            "algorithm": cfg.algorithm,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "artifacts": self.artifacts,
        }
        save_json(manifest, self.path / "run_manifest.json")


def _read_json(path: str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _print_scores(report) -> None:
    print(f"J1={report.j1:.1f} MW  J2={report.j2:.4f}  "
          f"J3={report.j3:.1f} MW  J4={report.j4:.1f} MW")


def cmd_parse(args) -> int:
    case = load_case(args.case)
    gens = ([int(tok) for tok in args.generator_set.split(",")]
            if args.generator_set else None)
    network = build_network(case, gens)
    print(f"{case.n_buses} buses, {case.n_branches} branches, "
          f"{case.n_gens} generators, base {case.base_mva:g} MVA")
    if args.out:
        save_json(network_to_dict(network), args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, network = _scenario(args)
    run = args.run
    if not 0 <= run < cfg.ensemble_size:
        raise ConfigError(f"run index {run} out of range "
                          f"(ensemble has {cfg.ensemble_size})")
    layer = _grid_layer(network)
    times, phases = integrate(
        layer, sample_initial_conditions(layer.size, [cfg.seed, run]),
        t_max=cfg.t_max, dt=cfg.dt)
    final_freq = derivative(layer, phases[-1])
    print(f"simulated 1 of {cfg.ensemble_size} runs x "
          f"{len(times) - 1} steps on {layer.size} nodes")
    print(f"run {run}: final frequency spread "
          f"{final_freq.max() - final_freq.min():.3e} pu around mean "
          f"{final_freq.mean():.6f} pu")
    if args.out:
        # frequencies a sample at a time, not over the whole trajectory,
        # from one kernel: derivative(layer, row)'s bits; one string of
        # rows per sample
        rhs = _Kernel(layer, 1).rhs
        save_csv(["t", "node_id", "phase", "frequency"], (
            "".join(f"{t!r},{node},{phase!r},{freq!r}\r\n"
                    for node, phase, freq in zip(
                        layer.node_ids, row.tolist(),
                        rhs(row[:, None]).ravel().tolist()))
            for t, row in zip(times.tolist(), phases)), args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_sync_times(args) -> int:
    cfg, network = _scenario(args)
    table = _sync_table(cfg, network)
    finite = [t for _, t in table.items() if t != float("inf")]
    print(f"{len(table.entries)} edges: {len(finite)} synchronized, "
          f"{len(table.entries) - len(finite)} never")
    if args.out:
        save_json(sync_table_to_dict(table), args.out)
        print(f"wrote {args.out}")
    if args.csv:
        save_csv(["i", "j", "t_sync"], (
            f"{a},{b},{t!r}\r\n" for (a, b), t in table.items()), args.csv)
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg, network = _scenario(args)
    initial = _seeds(cfg, network)
    sync_table = (_reused_sync_table(args.sync_table, cfg, network)
                  if args.sync_table else None)
    partition, log_name, log = _partition(cfg, network, initial, sync_table)
    for isl in partition.islands:
        imbalance = island_imbalance(network, isl) * network.base_mva
        print(f"island {isl.label}: {isl.size} nodes, "
              f"imbalance {imbalance:+.1f} MW")
    print(f"cut set: {len(partition.cut_set)} edges")
    out = _ArtifactDir(args.out_dir)
    out.write_partition(partition, log_name, log)
    out.write_manifest(args.config, cfg)
    print(f"wrote {out.path}/partition.json")
    return EXIT_OK


def cmd_metrics(args) -> int:
    cfg, network = _scenario(args)
    partition = partition_from_dict(_read_json(args.partition))
    _validate_or_fail(network, partition)
    report = compute_metrics(network, partition)
    _print_scores(report)
    if args.out:
        save_json(metrics_to_dict(report), args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_run_all(args) -> int:
    cfg, network = _scenario(args)
    initial = _seeds(cfg, network)
    # a split network has one flow per component instead, which metrics
    # solves after the growth, so a stalled growth still exits 4
    pre = metrics.pre_partition_flow(network) if network.connected else None
    out = _ArtifactDir(args.out_dir)
    out.write("network", network_to_dict(network))
    sync_table = None
    if cfg.algorithm == "centralized":
        sync_table = _sync_table(cfg, network)
        out.write("sync_times", sync_table_to_dict(sync_table))
    partition, log_name, log = _partition(cfg, network, initial, sync_table)
    out.write_partition(partition, log_name, log)
    report = compute_metrics(network, partition, pre)
    out.write("metrics", metrics_to_dict(report))
    out.write_manifest(args.config, cfg)
    sizes = ", ".join(f"{isl.label}:{isl.size}" for isl in partition.islands)
    print(f"partition ({cfg.algorithm}): islands {sizes}, "
          f"{len(partition.cut_set)} cut edges")
    _print_scores(report)
    print(f"wrote artifacts to {out.path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grid-islander",
        description="Partition a transmission grid into self-sufficient "
                    "microgrids via oscillator synchronization.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by the scenario-driven subcommands
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="scenario JSON file")
    config.add_argument("--seed", type=int, help="override the scenario seed")
    growth = argparse.ArgumentParser(add_help=False, parents=[config])
    growth.add_argument("--algorithm",
                        choices=["centralized", "decentralized"])
    # one engine; the flag sets nothing, so old command lines still work
    growth.add_argument("--mode", choices=["analytic"])
    growth.add_argument("--out-dir", default=".", help="artifact directory")

    p = sub.add_parser("parse", help="parse a MATPOWER case file")
    p.add_argument("case", help="path to the .m case file")
    p.add_argument("--generator-set",
                   help="comma-separated generator bus ids")
    p.add_argument("--out", help="write network JSON here")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("simulate", parents=[config],
                       help="integrate the post-fault oscillator ensemble")
    p.add_argument("--run", type=int, default=0,
                   help="which run's trajectory to export (default 0)")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sync-times", parents=[config],
                       help="compute internode synchronization times")
    p.add_argument("--out", help="sync table JSON path")
    p.add_argument("--csv", help="per-edge CSV path")
    p.set_defaults(func=cmd_sync_times)

    p = sub.add_parser("partition", parents=[growth],
                       help="grow a partition")
    p.add_argument("--sync-table",
                   help="reuse a sync table JSON (centralized only)")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("metrics", parents=[config],
                       help="score an existing partition")
    p.add_argument("--partition", required=True,
                   help="partition JSON to score")
    p.add_argument("--out", help="metrics report JSON path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("run-all", parents=[growth],
                       help="full pipeline, all artifacts")
    p.set_defaults(func=cmd_run_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        return _emit_error(exc, EXIT_VALIDATION)
    except _NUMERICAL_ERRORS as exc:
        return _emit_error(exc, EXIT_NUMERICAL)
    except _INPUT_ERRORS as exc:
        return _emit_error(exc, EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
