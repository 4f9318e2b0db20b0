"""Partition quality metrics.

Four numbers summarize a partition:

* J1: mean absolute island power imbalance, MW;
* J2: mean island voltage spread, 1 - Vmin/Vmax per island;
* J3: total active losses over intra-island branches, MW;
* J4: mean apparent exchange over the cut set, MW, from the post-fault
  solution before splitting.

J2 and J3 need per-island power flows; J4 needs the whole network's
flow (one per component of a split grid), which no partition changes:
``pre_partition_flow`` solves it, and a caller that solved it earlier
(the CLI does, before the growth) hands it to ``compute_metrics``, which
otherwise solves it after the islands. Every solve falls back from AC to
DC where Newton fails, and provenance records each such decision.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NoGenerator, NotConverged
from .network import Partition, PowerNetwork, crossing, island_imbalance
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


def metric_j4(pre_solutions: Sequence[PowerFlowSolution],
              partition: Partition) -> float:
    """Mean apparent exchange over the cut, MW, from the pre-split flows.

    Every branch of a pre-partition solution whose endpoints fall in
    different islands contributes (|P_from| + |P_to|) / 2.
    """
    cut = [(sol, k) for sol in pre_solutions
           for k in crossing(partition.islands, sol.branch_ends)]
    total = 0.0
    for sol, k in cut:
        total += 0.5 * (abs(float(sol.p_from[k])) + abs(float(sol.p_to[k])))
    return total / len(cut) if cut else 0.0


def _solve_with_fallback(network: PowerNetwork, nodes, what: str
                         ) -> PowerFlowSolution:
    try:
        return ac_power_flow(network, nodes)
    except NotConverged as exc:
        logger.warning("%s: AC flow did not converge (%s); using DC",
                       what, exc)
        return dc_power_flow(network, nodes)


def pre_partition_flow(network: PowerNetwork) -> list[PowerFlowSolution]:
    """The flows J4 reads, each AC or, where Newton fails, DC: the whole
    network's, or one per connected component of a split network."""
    if network.connected:
        return [_solve_with_fallback(network, None, "pre-partition network")]
    return [_solve_with_fallback(network, nodes,
                                 f"pre-partition component {k}")
            for k, nodes in enumerate(network.components(), 1)]


def compute_metrics(network: PowerNetwork, partition: Partition,
                    pre: Sequence[PowerFlowSolution] | None = None
                    ) -> MetricsReport:
    """Solve island and pre-partition flows, then evaluate J1 to J4.

    Islands without a generator bus cannot be solved (no slack) and are
    reported with NaN voltage spread and zero losses; any AC failure
    falls back to DC. Both conditions are recorded in provenance.

    ``pre``, if given, is ``pre_partition_flow(network)``, solved by the
    caller; otherwise it is solved here, after the islands.
    """
    solutions: dict[int, PowerFlowSolution] = {}
    island_rows: list[IslandMetrics] = []
    solver_used: dict[str, str] = {}
    for isl in sorted(partition.islands, key=lambda i: i.label):
        row = dict(label=isl.label, size=isl.size, imbalance_mw=(
            island_imbalance(network, isl) * network.base_mva))
        try:
            sol = _solve_with_fallback(network, isl.node_set,
                                       f"island {isl.label}")
        except NoGenerator:
            logger.warning("island %d has no generator; voltage metrics "
                           "unavailable", isl.label)
            row.update(vmin=math.nan, vmax=math.nan, losses_mw=0.0,
                       solver="none")
        else:
            solutions[isl.label] = sol
            row.update(vmin=float(np.min(sol.vm)), vmax=float(np.max(sol.vm)),
                       losses_mw=float(np.sum(sol.p_loss)), solver=sol.method)
        island_rows.append(IslandMetrics(**row))
        solver_used[str(isl.label)] = row["solver"]

    if pre is None:
        pre = pre_partition_flow(network)

    report = MetricsReport(
        j1=metric_j1(network, partition),
        j2=metric_j2(solutions) if solutions else math.nan,
        j3=metric_j3(solutions) if solutions else math.nan,
        j4=metric_j4(pre, partition),
        islands=tuple(island_rows),
        provenance={
            "island_solver": solver_used,
            "pre_partition_solver": ("dc" if any(
                sol.method == "dc" for sol in pre) else "ac"),
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
