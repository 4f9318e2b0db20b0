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

from .errors import Stalled
from .kuramoto import SyncTimeTable
from .network import Island, IslandRegistry, Partition, PowerNetwork

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
    registry = IslandRegistry.seeded(network, initial_islands)
    members, imbalance = registry.islands, registry.total
    assigned = registry.owner.keys()    # live: grows with every join
    labels = sorted(members)
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

        registry.join(best_node, chosen_label)
        steps.append(AttachStep(
            step=len(steps) + 1, island_label=chosen_label, node=best_node,
            sync_time=best_time,
            imbalances={lbl: imbalance[lbl] for lbl in labels}))
        logger.debug("step %d: island %d takes node %d (t=%s)",
                     len(steps), chosen_label, best_node, best_time)

    return CentralizedResult(partition=registry.partition(network),
                             steps=tuple(steps))
