"""Partition quality metrics.

Four numbers summarize a partition:

* J1: mean absolute island power imbalance, MW;
* J2: mean island voltage spread, 1 - Vmin/Vmax per island;
* J3: total active losses over intra-island branches, MW;
* J4: mean apparent exchange over the cut set, MW, from the post-fault
  solution before splitting.

J2 and J3 need per-island power flows; J4 needs one whole-network flow.
``compute_metrics`` orchestrates all solves, falling back from AC to DC
where Newton fails and recording every such decision in provenance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NoGenerator, NotConverged
from .network import Partition, PowerNetwork, island_imbalance
from .powerflow import PowerFlowSolution, ac_power_flow, dc_power_flow

logger = logging.getLogger("grid_islander.metrics")


@dataclass(frozen=True)
class IslandMetrics:
    label: int
    size: int
    imbalance_mw: float
    vmin: float
    vmax: float
    losses_mw: float
    solver: str


@dataclass(frozen=True)
class MetricsReport:
    j1: float
    j2: float
    j3: float
    j4: float
    islands: tuple[IslandMetrics, ...]
    provenance: dict


def j1_from_imbalances(imbalances_mw) -> float:
    """Mean absolute imbalance of a sequence already expressed in MW."""
    values = [abs(float(v)) for v in imbalances_mw]
    if not values:
        raise ValueError("no islands")
    return sum(values) / len(values)


def metric_j1(network: PowerNetwork, partition: Partition) -> float:
    """Mean absolute island imbalance in MW."""
    return j1_from_imbalances(
        island_imbalance(network, isl) * network.base_mva
        for isl in partition.islands)


def metric_j2(solutions: Mapping[int, PowerFlowSolution]) -> float:
    """Mean over islands of 1 - Vmin/Vmax."""
    if not solutions:
        raise ValueError("no island solutions")
    spreads = []
    for sol in solutions.values():
        vmax = float(np.max(sol.vm))
        vmin = float(np.min(sol.vm))
        spreads.append(1.0 - vmin / vmax)
    return sum(spreads) / len(spreads)


def metric_j3(solutions: Mapping[int, PowerFlowSolution]) -> float:
    """Total active losses in MW over intra-island branches.

    Island solutions only contain intra-island branches, so summing
    their per-branch losses is exactly the intra-island total.
    """
    return float(sum(np.sum(sol.p_loss) for sol in solutions.values()))


def metric_j4(pre_solution: PowerFlowSolution, partition: Partition
              ) -> float:
    """Mean apparent exchange over the cut, MW, from the pre-split flow.

    Every branch of the pre-partition solution whose endpoints fall in
    different islands contributes (|P_from| + |P_to|) / 2.
    """
    owner: dict[int, int] = {}
    for isl in partition.islands:
        for node in isl.node_set:
            owner[node] = isl.label
    total = 0.0
    count = 0
    for k, (a, b) in enumerate(pre_solution.branch_ends):
        la, lb = owner.get(a), owner.get(b)
        if la is not None and lb is not None and la != lb:
            total += 0.5 * (abs(float(pre_solution.p_from[k]))
                            + abs(float(pre_solution.p_to[k])))
            count += 1
    return total / count if count else 0.0


def _solve_with_fallback(network: PowerNetwork, nodes, what: str
                         ) -> PowerFlowSolution:
    try:
        return ac_power_flow(network, nodes)
    except NotConverged as exc:
        logger.warning("%s: AC flow did not converge (%s); using DC",
                       what, exc)
        return dc_power_flow(network, nodes)


def compute_metrics(network: PowerNetwork, partition: Partition
                    ) -> MetricsReport:
    """Solve island and pre-partition flows, then evaluate J1 to J4.

    Islands without a generator bus cannot be solved (no slack) and are
    reported with NaN voltage spread and zero losses; any AC failure
    falls back to DC. Both conditions are recorded in provenance.
    """
    solutions: dict[int, PowerFlowSolution] = {}
    island_rows: list[IslandMetrics] = []
    solver_used: dict[str, str] = {}
    for isl in sorted(partition.islands, key=lambda i: i.label):
        imbalance_mw = island_imbalance(network, isl) * network.base_mva
        try:
            sol = _solve_with_fallback(network, isl.node_set,
                                       f"island {isl.label}")
        except NoGenerator:
            logger.warning("island %d has no generator; voltage metrics "
                           "unavailable", isl.label)
            solver_used[str(isl.label)] = "none"
            island_rows.append(IslandMetrics(
                label=isl.label, size=isl.size, imbalance_mw=imbalance_mw,
                vmin=math.nan, vmax=math.nan, losses_mw=0.0, solver="none"))
            continue
        solutions[isl.label] = sol
        solver_used[str(isl.label)] = sol.method
        island_rows.append(IslandMetrics(
            label=isl.label, size=isl.size, imbalance_mw=imbalance_mw,
            vmin=float(np.min(sol.vm)), vmax=float(np.max(sol.vm)),
            losses_mw=float(np.sum(sol.p_loss)), solver=sol.method))

    pre = _solve_with_fallback(network, None, "pre-partition network")

    report = MetricsReport(
        j1=metric_j1(network, partition),
        j2=metric_j2(solutions) if solutions else math.nan,
        j3=metric_j3(solutions) if solutions else math.nan,
        j4=metric_j4(pre, partition),
        islands=tuple(island_rows),
        provenance={
            "island_solver": solver_used,
            "pre_partition_solver": pre.method,
            "dispatch": "scheduled generation from the case file",
            "q_limits_enforced": False,
            "voltage_spread_note": (
                "DC solutions carry flat voltages; islands reported with "
                "solver 'dc' contribute zero spread to J2"),
        })
    return report


def metrics_to_dict(report: MetricsReport) -> dict:
    def _num(x: float):
        return None if isinstance(x, float) and math.isnan(x) else x

    return {
        "J1": report.j1,
        "J2": _num(report.j2),
        "J3": _num(report.j3),
        "J4": report.j4,
        "islands": [
            {
                "label": row.label,
                "size": row.size,
                "imbalance_mw": row.imbalance_mw,
                "vmin": _num(row.vmin),
                "vmax": _num(row.vmax),
                "losses_mw": row.losses_mw,
                "solver": row.solver,
            }
            for row in report.islands
        ],
        "provenance": report.provenance,
    }
