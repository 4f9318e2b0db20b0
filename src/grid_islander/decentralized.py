"""Decentralized partition growth by local frequency estimation.

Each unassigned node adjacent to at least one island acts as an agent.
From the island's synchronized frequency and the frequency the island
would settle at with the agent attached, the agent recovers the island's
power imbalance and size without any global data, then decides to join
or wait:

* enclosure first: if every neighbor lies in one island, join it;
* loads (negative injection) join the adjacent island with the largest
  estimated imbalance, provided it is positive, else wait;
* other nodes join the adjacent island with the smallest estimate;
* ties go to the lowest label.

Agents act one at a time (an asynchronous, Gauss-Seidel update). A round
visits the nodes on the frontier at its start in ascending node-id order;
each reads its adjacent islands from the registry as they stand at its
turn, so it sees the joins of the agents before it, and its own join
commits at once. A round with no join leaves the registry as it was, so
another round would only repeat it: the first such quiet round ends
instead with a fallback that applies the same rule to the islands'
totals.
Each evaluation emits one ``estimate`` event, ``{"islands": {label:
frequency read}, "estimates": {label: estimate or null}}``, then a
``wait`` or a ``join``.

Both frequencies are locked frequencies, and a Kuramoto layer locks to
its mean natural frequency. So the registry keeps one running injection
sum per island, ``total``; the island's frequency is ``total / size``
and an agent's augmented frequency ``(total + own) / (size + 1)``. No
oscillator layer is built or integrated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateEstimate, Stalled, UndefinedSize
# build_layer is no stage here; it stays importable from this module for
# tracers that wrap its name (perfbench/spans.py).
from .kuramoto import build_layer
from .network import Island, IslandRegistry, Partition, PowerNetwork

logger = logging.getLogger("grid_islander.decentralized")


def _imbalance(island_freq: float, augmented_freq: float,
               injection: float) -> float | None:
    """The estimated power imbalance (``estimate_island_power`` states the
    formula): None when the two frequencies coincide to a relative 1e-9,
    and 0.0 when the island frequency is zero."""
    scale = max(1.0, abs(island_freq), abs(augmented_freq))
    if abs(island_freq - augmented_freq) <= 1e-9 * scale:
        return None
    if island_freq == 0.0:
        return 0.0
    return island_freq * (augmented_freq - injection) \
        / (island_freq - augmented_freq)


def estimate_island_power(island_freq: float, augmented_freq: float,
                          injection: float) -> tuple[float, float]:
    """Recover an island's power imbalance and size from two frequencies.

    ``island_freq`` is the frequency the island locks to on its own,
    ``augmented_freq`` the frequency with the observing node attached,
    and ``injection`` that node's own per-unit power. Solving the two
    mean-frequency relations gives

        power = island_freq * (augmented_freq - injection)
                / (island_freq - augmented_freq)
        size  = power / island_freq

    Raises DegenerateEstimate when the two frequencies coincide to a
    relative 1e-9 (the node's injection equals the island mean, so the
    attachment reveals nothing) and UndefinedSize when the island
    frequency is zero (the imbalance is zero but the size drops out).
    """
    power = _imbalance(island_freq, augmented_freq, injection)
    if power is None:
        raise DegenerateEstimate(
            f"island and augmented frequencies coincide "
            f"({island_freq:.6g} vs {augmented_freq:.6g})")
    if island_freq == 0.0:
        raise UndefinedSize("island frequency is zero; size unrecoverable")
    return power, power / island_freq


@dataclass(frozen=True)
class DecentralizedResult:
    partition: Partition
    events: tuple[dict, ...]
    rounds: int
    layer_evaluations: tuple[int, ...]   # per round
    evaluation_bound: int                # n_mu + n_mu * (n - n_mu)
    fallback_nodes: tuple[int, ...]


def _preferred(injection: float, values: dict[int, float]) -> int:
    """The join rule: a load (negative injection) takes the island with
    the largest value, any other node the smallest; ties go to the lowest
    label."""
    if injection < 0.0:
        return min(values, key=lambda lbl: (-values[lbl], lbl))
    return min(values, key=lambda lbl: (values[lbl], lbl))


def agent_decide(injection: float, estimates: dict[int, float | None],
                 enclosing: int | None = None) -> tuple[int | None, str]:
    """Apply the join rules to one agent's estimates.

    ``estimates`` maps every adjacent island label to its estimated
    imbalance, or None when the estimate was degenerate. ``enclosing``
    names the island containing all of the agent's neighbors, if any.
    Returns the label to join, or None to wait, and the reason. Loads
    consider only islands with a positive estimate.
    """
    if enclosing is not None:
        return enclosing, "enclosure"
    usable = {lbl: est for lbl, est in estimates.items() if est is not None}
    if injection < 0.0:
        usable = {lbl: est for lbl, est in usable.items() if est > 0.0}
        if not usable:
            return None, "no positive island"
        return _preferred(injection, usable), "largest imbalance"
    if not usable:
        return None, "no usable estimate"
    return _preferred(injection, usable), "smallest imbalance"


def _evaluate(network: PowerNetwork, registry: IslandRegistry, node: int
              ) -> tuple[dict[int, float], tuple[int | None, str], dict]:
    """One agent's evaluation from registry data restricted to its own
    neighborhood: the snapshot it read (watched label -> published
    frequency), its decision, and its ``estimate`` event payload.

    An agent reads only its injection, its neighbor list, its neighbors'
    island labels, and the size, total and frequency of islands actually
    adjacent to it; islands elsewhere in the grid cannot influence its
    outcome.
    """
    owner = registry.owner
    neighbors = network.neighbors(node)
    watched = sorted({owner[p] for p in neighbors if p in owner})
    # Islands are disjoint: every neighbor lies in one island exactly
    # when every neighbor is assigned and they all share one label.
    enclosing = None
    if len(watched) == 1 and all(p in owner for p in neighbors):
        enclosing = watched[0]
    own = registry.injection[node]
    snapshot = {lbl: registry.island_freq[lbl] for lbl in watched}
    read = {lbl: _imbalance(snapshot[lbl], registry.augmented_freq(lbl, own),
                            own)
            for lbl in watched}
    info = {"islands": {str(lbl): snapshot[lbl] for lbl in watched},
            "estimates": {str(lbl): read[lbl] for lbl in watched}}
    return snapshot, agent_decide(own, read, enclosing), info


def run_decentralized(network: PowerNetwork,
                      initial_islands: Sequence[Island]
                      ) -> DecentralizedResult:
    """Run the round-based multi-agent growth to completion.

    After the first round with no join, remaining island-adjacent nodes
    are attached by a logged fallback in that round. Raises Stalled if
    unassigned nodes remain that no island can reach.
    """
    registry = IslandRegistry.seeded(network, initial_islands)

    n_total = network.n_buses
    n_mu = len(registry.islands)
    bound = n_mu + n_mu * (n_total - n_mu)
    all_nodes = set(network.node_ids())
    assigned = registry.owner.keys()    # live: grows with every join
    events: list[dict] = []
    eval_counts: list[int] = []
    fallback_nodes: list[int] = []
    round_index = 0

    def emit(node: int | None, action: str, payload: dict) -> None:
        events.append({"round": round_index, "node": node,
                       "action": action, "payload": payload})

    while assigned != all_nodes:
        round_index += 1
        active = _frontier(network, registry, all_nodes)
        if not active:
            raise Stalled(
                f"{len(all_nodes - assigned)} nodes are unreachable from "
                f"every island", round_index=round_index,
                blocked=tuple(sorted(all_nodes - assigned)))

        evaluations = n_mu
        progress = False
        for node in active:
            snapshot, (label, reason), info = _evaluate(network, registry,
                                                        node)
            evaluations += len(snapshot)
            emit(node, "estimate", info)
            if label is None:
                emit(node, "wait", {"reason": reason})
                continue
            registry.join(node, label)
            progress = True
            emit(node, "join", {"island": label, "reason": reason,
                                "island_freq": registry.island_freq[label]})
        eval_counts.append(evaluations)

        if not progress:
            fallback_nodes.extend(
                _fallback_attach(network, registry, all_nodes, emit))
            if assigned != all_nodes:
                raise Stalled(
                    "growth deadlocked and fallback could not reach "
                    f"{sorted(all_nodes - assigned)}",
                    round_index=round_index,
                    blocked=tuple(sorted(all_nodes - assigned)))

    return DecentralizedResult(
        partition=registry.partition(network),
        events=tuple(events), rounds=round_index,
        layer_evaluations=tuple(eval_counts), evaluation_bound=bound,
        fallback_nodes=tuple(fallback_nodes))


def _frontier(network: PowerNetwork, registry: IslandRegistry,
              all_nodes: set[int]) -> list[int]:
    """Unassigned nodes with an assigned neighbor, in ascending order."""
    owner = registry.owner
    return sorted(node for node in all_nodes - owner.keys()
                  if any(p in owner for p in network.neighbors(node)))


def _fallback_attach(network: PowerNetwork, registry: IslandRegistry,
                     all_nodes: set[int], emit) -> list[int]:
    """Deadlock fallback: attach whatever the islands can still reach.

    Each node joins the adjacent island the join rule prefers over the
    islands' injection totals, in ascending node-id sweeps until nothing
    island-adjacent remains.
    """
    attached: list[int] = []
    owner = registry.owner
    logger.warning("growth stalled; falling back to direct attachment")
    while frontier := _frontier(network, registry, all_nodes):
        for node in frontier:
            imbalance = {lbl: registry.total[lbl]
                         for lbl in {owner[p] for p in network.neighbors(node)
                                     if p in owner}}
            best = _preferred(registry.injection[node], imbalance)
            registry.join(node, best)
            attached.append(node)
            emit(node, "join", {"island": best, "reason": "fallback",
                                "island_freq": registry.island_freq[best]})
    return attached
