"""Decentralized partition growth by local frequency estimation.

Each unassigned node adjacent to at least one island acts as an agent.
From the island's synchronized frequency and the frequency the island
would settle at with the agent attached, the agent recovers the island's
power imbalance and size without any global data, then decides to join
or wait:

* enclosure first: if every neighbor lies in one island, join it;
* loads (negative injection) join the adjacent island with the largest
  estimated imbalance, provided it is positive, else wait;
* other nodes join the adjacent island with the smallest estimate.

Rounds are synchronous and deterministic. All agents evaluate against
the round-start registry; joins commit at round end in ascending node-id
order, and a commit invalidates later joiners that watched the island it
changed (they see a stale snapshot and retry next round). Enclosure
joins skip the staleness check since they use no frequency data.

Both frequencies are locked frequencies, and a Kuramoto layer locks to
its mean natural frequency. So the registry publishes each island's
mean injection, and an agent reads its augmented frequency from the
run's {node: injection} table; no oscillator layer is built or
integrated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .centralized import check_initial_islands
from .errors import DegenerateEstimate, Stalled, UndefinedSize
# build_layer is no stage here; it stays importable from this module for
# tracers that wrap its name (perfbench/spans.py).
from .kuramoto import build_layer
from .network import (Island, Partition, PowerNetwork, make_partition,
                      net_injection)

logger = logging.getLogger("grid_islander.decentralized")

DEFAULT_EPSILON = 1e-3
DEFAULT_MAX_STALLED_ROUNDS = 3


def estimate_island_power(island_freq: float, augmented_freq: float,
                          injection: float,
                          tol: float = 1e-9) -> tuple[float, float]:
    """Recover an island's power imbalance and size from two frequencies.

    ``island_freq`` is the frequency the island locks to on its own,
    ``augmented_freq`` the frequency with the observing node attached,
    and ``injection`` that node's own per-unit power. Solving the two
    mean-frequency relations gives

        power = island_freq * (augmented_freq - injection)
                / (island_freq - augmented_freq)
        size  = power / island_freq

    Raises DegenerateEstimate when the two frequencies coincide to
    within ``tol`` (the node's injection equals the island mean, so the
    attachment reveals nothing) and UndefinedSize when the island
    frequency is zero (the imbalance is zero but the size drops out).
    """
    scale = max(1.0, abs(island_freq), abs(augmented_freq))
    if abs(island_freq - augmented_freq) <= tol * scale:
        raise DegenerateEstimate(
            f"island and augmented frequencies coincide "
            f"({island_freq:.6g} vs {augmented_freq:.6g})")
    if island_freq == 0.0:
        raise UndefinedSize("island frequency is zero; size unrecoverable")
    power = island_freq * (augmented_freq - injection) \
        / (island_freq - augmented_freq)
    return power, power / island_freq


@dataclass(frozen=True)
class Decision:
    """What an agent chose to do this round."""

    action: str                 # "join" or "wait"
    label: int | None = None
    reason: str = ""


@dataclass
class NodeAgent:
    """One unassigned node's view of its adjacent islands.

    ``snapshot_freqs`` maps each watched island's label to the published
    frequency the agent's estimate used.
    """

    node_id: int
    injection: float
    neighbor_islands: frozenset[int]
    snapshot_freqs: dict[int, float]
    decision: Decision | None = None


@dataclass
class IslandRegistry:
    """Shared bulletin board: membership and published frequencies.

    ``owner`` maps every assigned node to its island's label; it is built
    from ``islands`` and kept in step by ``join``.
    """

    islands: dict[int, set[int]]
    island_freq: dict[int, float]
    round_index: int = 0
    owner: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.owner = {node: lbl for lbl, members in self.islands.items()
                      for node in members}

    def join(self, node: int, label: int) -> None:
        """Commit ``node`` to island ``label``."""
        self.islands[label].add(node)
        self.owner[node] = label


@dataclass(frozen=True)
class DecentralizedResult:
    partition: Partition
    events: tuple[dict, ...]
    rounds: int
    layer_evaluations: tuple[int, ...]   # per round
    evaluation_bound: int                # n_mu + n_mu * (n - n_mu)
    fallback_nodes: tuple[int, ...]


def agent_decide(agent: NodeAgent, estimates: dict[int, float | None],
                 enclosing: int | None = None) -> Decision:
    """Apply the join rules to one agent's estimates.

    ``estimates`` maps every adjacent island label to its estimated
    imbalance, or None when the estimate was degenerate. ``enclosing``
    names the island containing all of the agent's neighbors, if any.
    Ties break toward the lowest label.
    """
    if enclosing is not None:
        return Decision(action="join", label=enclosing, reason="enclosure")
    usable = {lbl: est for lbl, est in estimates.items() if est is not None}
    if agent.injection < 0.0:
        positive = {lbl: est for lbl, est in usable.items() if est > 0.0}
        if not positive:
            return Decision(action="wait", reason="no positive island")
        best = min(positive, key=lambda lbl: (-positive[lbl], lbl))
        return Decision(action="join", label=best, reason="largest imbalance")
    if not usable:
        return Decision(action="wait", reason="no usable estimate")
    best = min(usable, key=lambda lbl: (usable[lbl], lbl))
    return Decision(action="join", label=best, reason="smallest imbalance")


def staleness_check(agent: NodeAgent, registry: IslandRegistry,
                    epsilon: float = DEFAULT_EPSILON) -> str:
    """"fresh" if every watched island frequency still matches the
    agent's snapshot to within epsilon, else "stale"."""
    for lbl, island_freq in agent.snapshot_freqs.items():
        if abs(registry.island_freq[lbl] - island_freq) >= epsilon:
            return "stale"
    return "fresh"


def _mean_injection(injection: dict[int, float],
                    nodes: Iterable[int]) -> float:
    """Locked frequency of the layer over ``nodes``, bit for bit
    ``sync_frequency(build_layer(network, nodes))``: the same values in
    the same order under the same numpy mean."""
    return float(np.mean(np.array([injection[n] for n in sorted(nodes)])))


def _evaluate_agent(network: PowerNetwork, registry: IslandRegistry,
                    node: int, injection: dict[int, float]
                    ) -> tuple[NodeAgent, dict[int, float | None], dict]:
    """Build one agent from registry data restricted to its own
    neighborhood and run its estimates.

    Everything here reads only the agent's injection, its neighbor list,
    its neighbors' island labels, and the membership and frequencies of
    islands actually adjacent to it; islands elsewhere in the grid cannot
    influence the outcome.
    """
    own = injection[node]
    neighbors = network.neighbors(node)
    owner = registry.owner
    watched = sorted({owner[p] for p in neighbors if p in owner})
    # Islands are disjoint: every neighbor lies in one island exactly when
    # every neighbor is assigned and they all share one label.
    enclosing = None
    if len(watched) == 1 and all(p in owner for p in neighbors):
        enclosing = watched[0]

    snapshot = {lbl: registry.island_freq[lbl] for lbl in watched}
    estimates: dict[int, float | None] = {}
    for lbl, island_freq in snapshot.items():
        aug_freq = _mean_injection(injection, registry.islands[lbl] | {node})
        try:
            estimates[lbl], _ = estimate_island_power(
                island_freq, aug_freq, own)
        except DegenerateEstimate:
            estimates[lbl] = None
        except UndefinedSize:
            estimates[lbl] = 0.0
    agent = NodeAgent(node_id=node, injection=own,
                      neighbor_islands=frozenset(watched),
                      snapshot_freqs=snapshot)
    agent.decision = agent_decide(agent, estimates, enclosing)
    # A locked frequency is known at once, so every watched island agrees
    # at t = 0; the two time fields stay in events.json for its readers.
    info = {
        "estimates": {str(lbl): estimates[lbl] for lbl in watched},
        "agreement_times": {str(lbl): 0.0 for lbl in watched},
        "ready_time": 0.0,
    }
    return agent, estimates, info


def _publish(registry: IslandRegistry, injection: dict[int, float],
             label: int) -> None:
    members = registry.islands[label]
    total = sum(injection[n] for n in members)
    registry.island_freq[label] = total / len(members)


def run_decentralized(network: PowerNetwork,
                      initial_islands: Sequence[Island], *,
                      epsilon: float = DEFAULT_EPSILON,
                      max_stalled_rounds: int = DEFAULT_MAX_STALLED_ROUNDS,
                      commit_order_seed: int | None = None
                      ) -> DecentralizedResult:
    """Run the round-based multi-agent growth to completion.

    Commits default to ascending node id; ``commit_order_seed`` shuffles
    them per round to probe order sensitivity.

    If ``max_stalled_rounds`` consecutive rounds pass with no commit,
    remaining island-adjacent nodes are attached by a logged fallback
    (loads to the largest-imbalance adjacent island, others to the
    smallest). Raises Stalled if unassigned nodes remain that no island
    can reach.
    """
    check_initial_islands(network, initial_islands)
    injection = {n: net_injection(network, n) for n in network.node_ids()}
    registry = IslandRegistry(
        islands={isl.label: set(isl.node_set) for isl in initial_islands},
        island_freq={})
    for lbl in registry.islands:
        _publish(registry, injection, lbl)

    n_total = network.n_buses
    n_mu = len(registry.islands)
    bound = n_mu + n_mu * (n_total - n_mu)
    all_nodes = set(network.node_ids())
    assigned = registry.owner.keys()    # live: grows with every join
    events: list[dict] = []
    eval_counts: list[int] = []
    fallback_nodes: list[int] = []
    rng = (np.random.default_rng(commit_order_seed)
           if commit_order_seed is not None else None)
    stalled_rounds = 0
    round_index = 0

    def emit(node: int | None, action: str, payload: dict) -> None:
        events.append({"round": round_index, "node": node,
                       "action": action, "payload": payload})

    while assigned != all_nodes:
        round_index += 1
        registry.round_index = round_index
        active = sorted(
            node for node in all_nodes - assigned
            if any(p in assigned for p in network.neighbors(node)))
        if not active:
            raise Stalled(
                f"{len(all_nodes - assigned)} nodes are unreachable from "
                f"every island", round_index=round_index,
                blocked=tuple(sorted(all_nodes - assigned)))

        evaluations = n_mu
        joiners: list[NodeAgent] = []
        for node in active:
            agent, estimates, info = _evaluate_agent(
                network, registry, node, injection)
            evaluations += len(agent.neighbor_islands)
            emit(node, "snapshot", {
                "islands": {str(lbl): freq
                            for lbl, freq in agent.snapshot_freqs.items()}})
            emit(node, "estimate", info)
            if agent.decision.action == "join":
                joiners.append(agent)
            else:
                emit(node, "wait", {"reason": agent.decision.reason})
        eval_counts.append(evaluations)

        if rng is not None:
            order = list(joiners)
            rng.shuffle(order)
        else:
            order = sorted(joiners, key=lambda a: a.node_id)

        progress = False
        for agent in order:
            decision = agent.decision
            if decision.reason != "enclosure":
                if staleness_check(agent, registry, epsilon) == "stale":
                    emit(agent.node_id, "stale", {
                        "island": decision.label,
                        "snapshot": {str(lbl): freq for lbl, freq
                                     in agent.snapshot_freqs.items()},
                        "current": {str(lbl): registry.island_freq[lbl]
                                    for lbl in agent.snapshot_freqs}})
                    continue
            registry.join(agent.node_id, decision.label)
            _publish(registry, injection, decision.label)
            progress = True
            emit(agent.node_id, "join", {
                "island": decision.label, "reason": decision.reason,
                "island_freq": registry.island_freq[decision.label]})

        stalled_rounds = 0 if progress else stalled_rounds + 1
        if not progress and stalled_rounds >= max_stalled_rounds:
            attached = _fallback_attach(network, registry, injection,
                                        all_nodes, emit)
            fallback_nodes.extend(attached)
            if assigned != all_nodes:
                raise Stalled(
                    "growth deadlocked and fallback could not reach "
                    f"{sorted(all_nodes - assigned)}",
                    round_index=round_index,
                    blocked=tuple(sorted(all_nodes - assigned)))

    islands = tuple(Island(label=lbl, node_set=frozenset(members))
                    for lbl, members in sorted(registry.islands.items()))
    return DecentralizedResult(
        partition=make_partition(network, islands),
        events=tuple(events), rounds=round_index,
        layer_evaluations=tuple(eval_counts), evaluation_bound=bound,
        fallback_nodes=tuple(fallback_nodes))


def _fallback_attach(network: PowerNetwork, registry: IslandRegistry,
                     injection: dict[int, float], all_nodes: set[int],
                     emit) -> list[int]:
    """Deadlock fallback: attach whatever the islands can still reach.

    Loads go to the adjacent island with the largest imbalance, other
    nodes to the smallest, in ascending node-id sweeps until nothing
    island-adjacent remains.
    """
    attached: list[int] = []
    owner = registry.owner
    logger.warning("growth stalled; falling back to direct attachment")
    while True:
        frontier = sorted(
            node for node in all_nodes - owner.keys()
            if any(p in owner for p in network.neighbors(node)))
        if not frontier:
            return attached
        for node in frontier:
            adjacent = sorted({owner[p] for p in network.neighbors(node)
                               if p in owner})
            imbalance = {lbl: sum(injection[n] for n in registry.islands[lbl])
                         for lbl in adjacent}
            if injection[node] < 0.0:
                best = min(adjacent, key=lambda l: (-imbalance[l], l))
            else:
                best = min(adjacent, key=lambda l: (imbalance[l], l))
            registry.join(node, best)
            _publish(registry, injection, best)
            attached.append(node)
            emit(node, "join", {"island": best, "reason": "fallback",
                                "island_freq": registry.island_freq[best]})
