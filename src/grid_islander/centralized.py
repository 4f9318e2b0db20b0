"""Centralized partition growth driven by internode synchronization times.

Starting from disjoint connected seed islands, the island with the
largest power imbalance repeatedly absorbs the unassigned neighbor whose
connecting edge synchronized earliest, until every node is assigned.
All tie-breaks are deterministic and documented on the operation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (ConfigError, InitialIslandsOverlap, NoGenerator,
                     Stalled)
from .kuramoto import SyncTimeTable
from .network import (Island, Partition, PowerNetwork, make_partition,
                      net_injection)

logger = logging.getLogger("grid_islander.centralized")


@dataclass(frozen=True)
class AttachStep:
    """One growth step: which island took which node, and why."""

    step: int
    island_label: int
    node: int
    sync_time: float
    imbalances: dict[int, float]


@dataclass(frozen=True)
class CentralizedResult:
    partition: Partition
    steps: tuple[AttachStep, ...]


def check_initial_islands(network: PowerNetwork,
                          islands: Sequence[Island]) -> None:
    """Validate seed islands: disjoint, connected, each with a generator."""
    seen: set[int] = set()
    for isl in islands:
        overlap = seen & isl.node_set
        if overlap:
            raise InitialIslandsOverlap(
                f"island {isl.label} shares nodes {sorted(overlap)} "
                f"with an earlier island")
        seen |= isl.node_set
        for node in isl.node_set:
            network.bus(node)
        if not network.subgraph_connected(isl.node_set):
            raise ConfigError(
                f"initial island {isl.label} is not connected")
        if not isl.node_set & network.generator_set:
            raise NoGenerator(f"initial island {isl.label} has no generator")


def centralized_partition(network: PowerNetwork,
                          initial_islands: Sequence[Island],
                          times: SyncTimeTable) -> CentralizedResult:
    """Grow the seed islands until they cover the network.

    Each step picks the island with the largest imbalance (ties: lowest
    label) that still has an unassigned neighbor; islands without one
    yield to the next largest. The chosen island absorbs the unassigned
    neighbor minimizing the sync time over edges into the island, with
    +infinity eligible but losing to any finite time and remaining ties
    broken by lowest node id. Raises Stalled if nodes remain but no
    island can reach any of them.
    """
    check_initial_islands(network, initial_islands)
    members: dict[int, set[int]] = {
        isl.label: set(isl.node_set) for isl in initial_islands}
    labels = sorted(members)
    assigned: set[int] = set().union(*members.values())
    injection = {node: net_injection(network, node)
                 for node in network.node_ids()}
    imbalance = {lbl: sum(injection[n] for n in members[lbl])
                 for lbl in labels}
    all_nodes = set(network.node_ids())
    steps: list[AttachStep] = []

    while assigned != all_nodes:
        chosen_label = None
        candidates: list[int] = []
        for lbl in sorted(labels, key=lambda l: (-imbalance[l], l)):
            frontier = sorted({peer
                               for node in members[lbl]
                               for peer in network.neighbors(node)
                               if peer not in assigned})
            if frontier:
                chosen_label = lbl
                candidates = frontier
                break
        if chosen_label is None:
            raise Stalled(
                "no island has an unassigned neighbor but "
                f"{len(all_nodes - assigned)} nodes remain",
                blocked=tuple(sorted(all_nodes - assigned)))

        island_nodes = members[chosen_label]
        best_node = None
        best_time = math.inf
        for node in candidates:
            t = min((times.get(node, peer)
                     for peer in network.neighbors(node)
                     if peer in island_nodes),
                    default=math.inf)
            if best_node is None or t < best_time:
                best_node, best_time = node, t
        # candidates is ascending, so the first minimum wins id ties.

        members[chosen_label].add(best_node)
        assigned.add(best_node)
        imbalance[chosen_label] += injection[best_node]
        steps.append(AttachStep(
            step=len(steps) + 1, island_label=chosen_label, node=best_node,
            sync_time=best_time, imbalances=dict(imbalance)))
        logger.debug("step %d: island %d takes node %d (t=%s)",
                     len(steps), chosen_label, best_node, best_time)

    islands = tuple(Island(label=lbl, node_set=frozenset(members[lbl]))
                    for lbl in labels)
    return CentralizedResult(partition=make_partition(network, islands),
                             steps=tuple(steps))
