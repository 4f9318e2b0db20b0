"""Workload inputs: a MATPOWER case file and a scenario JSON per workload.

Every input is a pure function of the workload name and seed, written
into a directory the program then reads. Only ``ieee118-central`` uses
the seed, as its ensemble seed; the other two workloads are the same
for every seed.
The shipped IEEE 118-bus case and scenario are read from the checkout's
package data with a parser of our own, so a change to the program's
parser cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "grid_islander" / "data"
SHIPPED_CASE = DATA / "case118.m"
SHIPPED_SCENARIO = DATA / "scenario_ieee118.json"

# BENCHMARK.json lists only ieee118-central and tiled8-decentral; the
# run.py docstring says why ieee118-decentral is left to hand runs.
WORKLOADS = ("ieee118-central", "ieee118-decentral", "tiled8-decentral")

# RK4's stability interval on the negative real axis is [-2.785, 0].
RK4_REAL_LIMIT = 2.785
CENTRAL_DT = 0.0035
CENTRAL_T_MAX = 35.0        # 10,000 steps
CENTRAL_ENSEMBLE = 20

TILES = 8
TIE_LINES_PER_PAIR = 3
# The tiled workload always uses this tie-line seed, so every run measures
# the same 944-bus system. Drawn from workload seeds 1 to 10 instead, the
# tie lines gave J1 from 204 to 301 MW and run-all times from 6.3 to 9.9 s,
# a spread wider than the bounds the benchmark can hold.
TILING_SEED = 0
TILE_ID_OFFSET = 1000
# r, x, b of a tie line, in per unit.
TIE_LINE_RX_B = (0.005, 0.05, 0.01)


def read_case(path: Path) -> tuple[float, dict[str, np.ndarray]]:
    """baseMVA and the bus, gen and branch tables of a MATPOWER file."""
    base_mva = None
    tables: dict[str, list[list[float]]] = {}
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("%", 1)[0].strip()
        if current is not None:
            body, closed = line.split("]", 1)[0], "]" in line
            tables[current] += [[float(tok) for tok in row.split()]
                                for row in body.split(";") if row.strip()]
            if closed:
                current = None
        elif line.startswith("mpc.baseMVA"):
            base_mva = float(line.split("=", 1)[1].rstrip(";"))
        elif line.split("=", 1)[0].strip() in (
                "mpc.bus", "mpc.gen", "mpc.branch") and line.endswith("["):
            current = line.split("=", 1)[0].strip()[4:]
            tables[current] = []
    if base_mva is None or set(tables) != {"bus", "gen", "branch"}:
        raise ValueError(f"{path}: not a MATPOWER case with bus, gen and "
                         f"branch tables")
    return base_mva, {name: np.array(rows) for name, rows in tables.items()}


def _format_table(name: str, table: np.ndarray) -> str:
    rows = "\n".join("\t" + "\t".join(f"{v:.17g}" for v in row) + ";"
                     for row in table)
    return f"mpc.{name} = [\n{rows}\n];\n"


def write_case(path: Path, name: str, base_mva: float,
               tables: dict[str, np.ndarray]) -> None:
    text = (f"function mpc = {name}\nmpc.version = '2';\n"
            f"mpc.baseMVA = {base_mva:.17g};\n"
            + "".join(_format_table(t, tables[t])
                      for t in ("bus", "gen", "branch")))
    path.write_text(text, encoding="utf-8")


def tile_case(base_mva: float, tables: dict[str, np.ndarray], tiles: int,
              seed: int) -> dict[str, np.ndarray]:
    """``tiles`` copies of a case, bus ids offset by 1000 per copy, joined
    in a ring by seeded tie lines between adjacent copies."""
    bus_ids = tables["bus"][:, 0].astype(int)
    if bus_ids.max() >= TILE_ID_OFFSET:
        raise ValueError("bus ids must stay below the tile offset")
    out = {}
    for name, cols in (("bus", [0]), ("gen", [0]), ("branch", [0, 1])):
        copies = []
        for k in range(tiles):
            copy = tables[name].copy()
            copy[:, cols] += k * TILE_ID_OFFSET
            copies.append(copy)
        out[name] = np.vstack(copies)
    if tiles > 1:
        rng = np.random.default_rng(seed)
        ties = []
        template = np.zeros(tables["branch"].shape[1])
        template[2:5] = TIE_LINE_RX_B
        template[10:13] = (1, -360, 360)    # status, angmin, angmax
        for k in range(tiles):
            nxt = (k + 1) % tiles
            for _ in range(TIE_LINES_PER_PAIR):
                row = template.copy()
                row[0] = rng.choice(bus_ids) + k * TILE_ID_OFFSET
                row[1] = rng.choice(bus_ids) + nxt * TILE_ID_OFFSET
                ties.append(row)
        out["branch"] = np.vstack([out["branch"], np.array(ties)])
    return out


def tile_scenario(shipped: dict, case_name: str, tiles: int) -> dict:
    """The shipped scenario repeated per tile: generator set, seed islands
    and fault of every copy, with ids offset like the case."""
    def shift(ids, k):
        return [int(b) + k * TILE_ID_OFFSET for b in ids]

    scenario = dict(shipped)
    scenario["case_path"] = case_name
    scenario["generator_set"] = [b for k in range(tiles)
                                 for b in shift(shipped["generator_set"], k)]
    scenario["initial_islands"] = [shift(isl, k) for k in range(tiles)
                                   for isl in shipped["initial_islands"]]
    scenario["fault_branches"] = [shift(pair, k) for k in range(tiles)
                                  for pair in shipped["fault_branches"]]
    scenario["n_mu"] = len(scenario["initial_islands"])
    return scenario


def write_tiled(directory: Path, tiles: int, seed: int) -> Path:
    """Write a tiled case and its decentralized scenario; return the
    scenario path."""
    base_mva, tables = read_case(SHIPPED_CASE)
    shipped = json.loads(SHIPPED_SCENARIO.read_text(encoding="utf-8"))
    directory.mkdir(parents=True, exist_ok=True)
    case_name = f"tiled{tiles}.m"
    write_case(directory / case_name, f"tiled{tiles}", base_mva,
               tile_case(base_mva, tables, tiles, seed))
    scenario = tile_scenario(shipped, case_name, tiles)
    scenario["algorithm"] = "decentralized"
    scenario["mode"] = "analytic"
    return _write_scenario(directory, scenario)


def _write_scenario(directory: Path, scenario: dict) -> Path:
    path = directory / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    return path


def stability_ratios(network, dt: float) -> tuple[float, float]:
    """dt * lambda_max of the whole-network layer's Laplacian, exact
    (eigvalsh) and the Gershgorin bound (2 * max weighted degree)."""
    from grid_islander.kuramoto import build_layer

    coupling = build_layer(network, network.node_ids()).coupling
    degree = coupling.sum(axis=1)
    laplacian = np.diag(degree) - coupling
    lam_max = float(np.linalg.eigvalsh(laplacian)[-1])
    return dt * lam_max, dt * 2.0 * float(degree.max())


def scenario_network(scenario_path: Path):
    """The post-fault network a scenario describes, built by the program's
    own parser, as the run sees it."""
    from grid_islander.matpower import build_network, load_case
    from grid_islander.network import apply_fault
    from grid_islander.scenario import load_scenario

    cfg = load_scenario(scenario_path)
    network = build_network(load_case(cfg.case_path), cfg.generator_set)
    for pair in cfg.fault_branches:
        network = apply_fault(network, pair)
    return cfg, network


def prepare(workload: str, seed: int, directory: Path) -> dict:
    """Write one workload's inputs into ``directory``.

    Returns the run-all arguments and the facts the checks need. Refuses
    (ValueError) an ``ieee118-central`` step outside RK4's stability
    interval.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    stability = 0.0
    if workload == "tiled8-decentral":
        scenario_path = write_tiled(directory, TILES, TILING_SEED)
        algorithm = "decentralized"
    else:
        shutil.copyfile(SHIPPED_CASE, directory / SHIPPED_CASE.name)
        if workload == "ieee118-decentral":
            scenario_path = directory / "scenario.json"
            shutil.copyfile(SHIPPED_SCENARIO, scenario_path)
            algorithm = "decentralized"
        else:
            scenario = json.loads(SHIPPED_SCENARIO.read_text("utf-8"))
            scenario.update(seed=seed, ensemble_size=CENTRAL_ENSEMBLE,
                            dt=CENTRAL_DT, t_max=CENTRAL_T_MAX,
                            algorithm="centralized")
            scenario_path = _write_scenario(directory, scenario)
            algorithm = "centralized"
    cfg, network = scenario_network(scenario_path)
    if algorithm == "centralized":
        exact, gershgorin = stability_ratios(network, cfg.dt)
        if max(exact, gershgorin) > RK4_REAL_LIMIT:
            raise ValueError(
                f"dt={cfg.dt} is outside RK4's stability interval: "
                f"dt*lambda_max={exact:.3f}, Gershgorin {gershgorin:.3f}, "
                f"limit {RK4_REAL_LIMIT}")
        stability = exact
    return {
        "workload": workload,
        "seed": seed,
        "scenario": scenario_path,
        "argv": ["run-all", "--config", str(scenario_path),
                 "--algorithm", algorithm, "--mode", "analytic"],
        "algorithm": algorithm,
        "case": cfg.case_path,
        "n_mu": cfg.n_mu,
        "network": network,
        "stability_ratio": stability,
    }
