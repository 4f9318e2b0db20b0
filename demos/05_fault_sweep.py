"""
Every single-branch fault, decentralized
========================================

The shipped scenario trips branch 14-15. This sweep trips each of
case118's branch pairs in turn, as the only fault, and grows the
decentralized partition on what is left. A fault that cuts a seed
island is refused (ConfigError, exit 2 from the CLI); one that strands
a bus where no island can reach it stalls (Stalled, exit 4). Every other
fault gives a partition, scored here by J1: 67.7 MW on 144 of the 147,
at most 134.7 MW. Nothing is integrated, so the whole sweep takes a few
seconds.
"""

import logging
import statistics
from collections import Counter
from pathlib import Path

import grid_islander
from grid_islander import (ConfigError, Island, Stalled, apply_fault,
                           build_network, load_case, load_scenario,
                           metric_j1, run_decentralized, validate_partition)

DATA = Path(grid_islander.__file__).parent / "data"


def sweep(scenario=DATA / "scenario_ieee118.json"):
    """One ``(pair, outcome, network, partition)`` per in-service branch
    pair of the scenario's case, in ascending pair order, with the
    scenario's own faults replaced by that pair. ``outcome`` is "ok", or
    the name of the error that refused the fault; ``partition`` is None
    unless the outcome is "ok"."""
    cfg = load_scenario(scenario)
    base = build_network(load_case(cfg.case_path), cfg.generator_set)
    seeds = [Island(label=k + 1, node_set=frozenset(nodes))
             for k, nodes in enumerate(cfg.initial_islands)]
    records = []
    for pair in sorted(base.edge_set()):
        network = apply_fault(base, pair)
        try:
            partition = run_decentralized(network, seeds).partition
        except (ConfigError, Stalled) as exc:
            records.append((pair, type(exc).__name__, network, None))
            continue
        outcome = ("ok" if validate_partition(network, partition).all_ok
                   else "invalid")
        records.append((pair, outcome, network, partition))
    return records


if __name__ == "__main__":
    # a fault that splits the grid, and every stalled growth, logs a warning
    logging.getLogger("grid_islander").setLevel(logging.ERROR)
    records = sweep()
    counts = Counter(outcome for _, outcome, _, _ in records)
    print(f"{len(records)} single-branch faults:",
          ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
    for refused in sorted(counts.keys() - {"ok"}):
        print(f"  {refused}:", ", ".join(
            f"{a}-{b}" for (a, b), outcome, _, _ in records
            if outcome == refused))

    j1 = sorted((metric_j1(network, partition), pair)
                for pair, outcome, network, partition in records
                if outcome == "ok")
    quartiles = statistics.quantiles([value for value, _ in j1], n=4)
    print(f"J1 over {len(j1)} partitions: min {j1[0][0]:.1f} MW "
          f"(fault {j1[0][1][0]}-{j1[0][1][1]}), quartiles "
          + " / ".join(f"{q:.1f}" for q in quartiles)
          + f" MW, max {j1[-1][0]:.1f} MW "
          f"(fault {j1[-1][1][0]}-{j1[-1][1][1]})")
