"""
Islanding the IEEE 118-bus system, centrally
============================================

Runs the full centralized pipeline on the shipped scenario: parse the
case, trip the faulted line, time pairwise synchronization on the
oscillator layer, grow the seed islands, and score the result.
"""

import math
from pathlib import Path

import grid_islander
from grid_islander import (Island, build_layer, build_network,
                           centralized_partition, compute_metrics,
                           ensemble_sync_times, apply_fault, load_case,
                           load_scenario, validate_partition)

DATA = Path(grid_islander.__file__).parent / "data"

cfg = load_scenario(DATA / "scenario_ieee118.json")
net = build_network(load_case(cfg.case_path), cfg.generator_set)
for pair in cfg.fault_branches:
    net = apply_fault(net, pair)
print(f"{len(net.buses)} buses, fault on {cfg.fault_branches}")

# ensemble of oscillator runs; every layer edge, which is every
# in-service edge, gets a sync time, detected as the runs are integrated
# (no trajectory is stored)
layer = build_layer(net, net.node_ids())
table = ensemble_sync_times(layer, cfg.ensemble_size, cfg.seed,
                            cfg.rho_threshold, t_max=cfg.t_max, dt=cfg.dt)
finite = sum(1 for _, t in table.items() if math.isfinite(t))
print(f"sync times: {finite} finite, "
      f"{len(net.edge_set()) - finite} never synchronized")

# grow the two seed islands until they cover the grid
seeds = [Island(label=k + 1, node_set=frozenset(nodes))
         for k, nodes in enumerate(cfg.initial_islands)]
result = centralized_partition(net, seeds, table)
print(f"growth finished in {len(result.steps)} steps")
for isl in result.partition.islands:
    print(f"island {isl.label}: {isl.size} buses")
print(f"cut set: {len(result.partition.cut_set)} lines")

# sanity checks and the four quality scores
print("valid:", validate_partition(net, result.partition).all_ok)
report = compute_metrics(net, result.partition)
print(f"J1 ={report.j1:7.1f} MW   mean absolute imbalance")
print(f"J2 ={report.j2:7.4f}      mean voltage spread")
print(f"J3 ={report.j3:7.1f} MW   total losses")
print(f"J4 ={report.j4:7.1f} MW   mean flow on cut lines")
