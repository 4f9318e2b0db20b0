"""
Letting the buses organize themselves
=====================================

The decentralized run gives every unassigned bus an agent that watches
the islands next to it, estimates their power balance from two locked
frequencies, and joins the one that suits its own injection. Loads
chase surplus; everything else joins the least loaded island. A layer
locks to its mean natural frequency, so both frequencies are mean
injections read from a table: no oscillator is integrated.
"""

from pathlib import Path

import grid_islander
from grid_islander import (Island, apply_fault, build_network,
                           compute_metrics, load_case, load_scenario,
                           run_decentralized, validate_partition)

DATA = Path(grid_islander.__file__).parent / "data"

cfg = load_scenario(DATA / "scenario_ieee118.json")
net = build_network(load_case(cfg.case_path), cfg.generator_set)
for pair in cfg.fault_branches:
    net = apply_fault(net, pair)

seeds = [Island(label=k + 1, node_set=frozenset(nodes))
         for k, nodes in enumerate(cfg.initial_islands)]
result = run_decentralized(net, seeds, epsilon=cfg.freq_epsilon,
                           max_stalled_rounds=cfg.max_stalled_rounds)

print(f"finished in {result.rounds} rounds")
print(f"evaluations per round: max {max(result.layer_evaluations)}, "
      f"bound {result.evaluation_bound}")
if result.fallback_nodes:
    print(f"direct attachment used for {result.fallback_nodes}")

# how the agents decided, tallied by action
tally: dict[str, int] = {}
for event in result.events:
    tally[event["action"]] = tally.get(event["action"], 0) + 1
for action in sorted(tally):
    print(f"  {action:10s} {tally[action]}")

for isl in result.partition.islands:
    print(f"island {isl.label}: {isl.size} buses")
print("valid:", validate_partition(net, result.partition).all_ok)

report = compute_metrics(net, result.partition)
print(f"J1 ={report.j1:7.1f} MW   J2 ={report.j2:7.4f}   "
      f"J3 ={report.j3:7.1f} MW   J4 ={report.j4:7.1f} MW")
print("island solvers:", report.provenance["island_solver"])
