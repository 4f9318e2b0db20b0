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

The registry's published island frequency is always the analytic mean
injection (the quantity the dynamics lock to). Analytic mode reads the
augmented frequency from a per-run injection table and builds no
oscillator layer. Only simulated mode builds and integrates layers:
agents measure island and augmented frequencies from integrated
trajectories and use the measurements for their estimates; measurement
error is far below the staleness threshold, so the two sources
interoperate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .centralized import check_initial_islands
from .errors import (DegenerateEstimate, NotSynchronized, Stalled,
                     UndefinedSize)
from .kuramoto import (build_layer, integrate, measure_sync_frequency,
                       settling_time)
from .network import (Island, Partition, PowerNetwork, make_partition,
                      net_injection)

logger = logging.getLogger("grid_islander.decentralized")

DEFAULT_EPSILON = 1e-3
DEFAULT_SYNC_TOLERANCE = 1e-4
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
    """One unassigned node's view of its adjacent islands."""

    node_id: int
    injection: float
    neighbor_islands: frozenset[int]
    snapshot_freqs: dict[int, tuple[float, float]]
    decision: Decision | None = None


@dataclass
class IslandRegistry:
    """Shared bulletin board: membership and published frequencies."""

    islands: dict[int, set[int]]
    island_freq: dict[int, float]
    round_index: int = 0


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
    for lbl, (island_freq, _) in agent.snapshot_freqs.items():
        if abs(registry.island_freq[lbl] - island_freq) >= epsilon:
            return "stale"
    return "fresh"


class _LayerCache:
    """Per-run frequency source for the agents.

    Analytic mode reads island means from the injection table and builds
    no layer. Simulated mode builds each layer on demand and memoizes the
    measured frequency by exact node set.
    """

    def __init__(self, network: PowerNetwork, mode: str, t_max: float,
                 dt: float, sync_tolerance: float):
        self.network = network
        self.mode = mode
        self.t_max = t_max
        self.dt = dt
        self.sync_tolerance = sync_tolerance
        self.injection = {n: net_injection(network, n)
                          for n in network.node_ids()}
        self._measured: dict[frozenset, float] = {}

    def mean_injection(self, nodes: Iterable[int]) -> float:
        """Locked frequency of the layer over ``nodes``, bit for bit
        ``sync_frequency(build_layer(network, nodes))``: the same values
        in the same order under the same numpy mean."""
        return float(np.mean(np.array([self.injection[n]
                                       for n in sorted(nodes)])))

    def measured(self, nodes: frozenset) -> float:
        """Locked frequency measured by integrating the layer over
        ``nodes``. Raises NotSynchronized when it never settles within
        tolerance."""
        if nodes not in self._measured:
            self._measured[nodes] = measure_sync_frequency(
                build_layer(self.network, nodes), t_max=self.t_max,
                dt=self.dt, tolerance=self.sync_tolerance)
        return self._measured[nodes]


def _agreement_time(network: PowerNetwork, node: int, island_nodes: set[int],
                    t_max: float, dt: float, epsilon: float) -> float:
    """Earliest sample time from which the node's frequency stays within
    epsilon of every in-island neighbor's, through the horizon end."""
    layer = build_layer(network, island_nodes | {node})
    traj = integrate(layer, np.zeros(layer.size), t_max=t_max, dt=dt)
    j = layer.index(node)
    watch = [layer.index(p) for p in network.neighbors(node)
             if p in island_nodes]
    diffs = np.abs(traj.frequencies[:, watch]
                   - traj.frequencies[:, [j]])
    bad = np.flatnonzero(np.any(diffs > epsilon, axis=1))
    return settling_time(traj.times, int(bad[-1]) if bad.size else -1)


def _evaluate_agent(network: PowerNetwork, registry: IslandRegistry,
                    node: int, cache: _LayerCache, epsilon: float
                    ) -> tuple[NodeAgent, dict[int, float | None], dict]:
    """Build one agent from registry data restricted to its own
    neighborhood and run its estimates.

    Everything here reads only the agent's injection, its neighbor list,
    and the membership and frequencies of islands actually adjacent to
    it; islands elsewhere in the grid cannot influence the outcome.
    """
    injection = cache.injection[node]
    neighbors = network.neighbors(node)
    watched = sorted({lbl for lbl, members in registry.islands.items()
                      if any(p in members for p in neighbors)})
    # A neighbor's island is by construction one of the watched ones, so
    # the enclosure test needs no data beyond them.
    assigned_neighbors = {p for p in neighbors
                          if any(p in registry.islands[lbl]
                                 for lbl in watched)}
    enclosing = None
    if len(assigned_neighbors) == len(neighbors):
        for lbl in watched:
            if set(neighbors) <= registry.islands[lbl]:
                enclosing = lbl
                break

    snapshot: dict[int, tuple[float, float]] = {}
    estimates: dict[int, float | None] = {}
    agree_times: dict[int, float] = {}
    for lbl in watched:
        members = frozenset(registry.islands[lbl])
        augmented = members | {node}
        island_freq = registry.island_freq[lbl]
        try:
            if cache.mode == "analytic":
                aug_freq = cache.mean_injection(augmented)
                agree_times[lbl] = 0.0
            else:
                island_freq = cache.measured(members)
                aug_freq = cache.measured(augmented)
                agree_times[lbl] = _agreement_time(
                    network, node, registry.islands[lbl],
                    cache.t_max, cache.dt, epsilon)
        except NotSynchronized:
            snapshot[lbl] = (island_freq, math.nan)
            estimates[lbl] = None
            continue
        snapshot[lbl] = (island_freq, aug_freq)
        try:
            estimates[lbl], _ = estimate_island_power(
                island_freq, aug_freq, injection)
        except DegenerateEstimate:
            estimates[lbl] = None
        except UndefinedSize:
            estimates[lbl] = 0.0
    agent = NodeAgent(node_id=node, injection=injection,
                      neighbor_islands=frozenset(watched),
                      snapshot_freqs=snapshot)
    agent.decision = agent_decide(agent, estimates, enclosing)
    info = {
        "estimates": {str(lbl): estimates[lbl] for lbl in watched},
        "agreement_times": {str(lbl): ("inf" if math.isinf(t) else t)
                            for lbl, t in agree_times.items()},
        "ready_time": ("inf" if any(math.isinf(t)
                                    for t in agree_times.values())
                       else max(agree_times.values(), default=0.0)),
    }
    return agent, estimates, info


def _publish(registry: IslandRegistry, network: PowerNetwork,
             label: int) -> None:
    members = registry.islands[label]
    total = sum(net_injection(network, n) for n in members)
    registry.island_freq[label] = total / len(members)


def run_decentralized(network: PowerNetwork,
                      initial_islands: Sequence[Island], *,
                      mode: str = "analytic",
                      epsilon: float = DEFAULT_EPSILON,
                      t_max: float = 100.0, dt: float = 0.01,
                      sync_tolerance: float = DEFAULT_SYNC_TOLERANCE,
                      max_stalled_rounds: int = DEFAULT_MAX_STALLED_ROUNDS,
                      commit_order_seed: int | None = None
                      ) -> DecentralizedResult:
    """Run the round-based multi-agent growth to completion.

    ``mode`` selects how frequencies are obtained: "analytic" uses the
    mean-injection closed form, "simulated" measures them from
    integrated trajectories (same decisions, much slower). Commits
    default to ascending node id; ``commit_order_seed`` shuffles them
    per round to probe order sensitivity.

    If ``max_stalled_rounds`` consecutive rounds pass with no commit,
    remaining island-adjacent nodes are attached by a logged fallback
    (loads to the largest-imbalance adjacent island, others to the
    smallest). Raises Stalled if unassigned nodes remain that no island
    can reach.
    """
    if mode not in ("analytic", "simulated"):
        raise ValueError(f"unknown mode {mode!r}")
    check_initial_islands(network, initial_islands)
    registry = IslandRegistry(
        islands={isl.label: set(isl.node_set) for isl in initial_islands},
        island_freq={})
    for lbl in registry.islands:
        _publish(registry, network, lbl)

    n_total = network.n_buses
    n_mu = len(registry.islands)
    bound = n_mu + n_mu * (n_total - n_mu)
    all_nodes = set(network.node_ids())
    assigned = set().union(*registry.islands.values())
    cache = _LayerCache(network, mode, t_max, dt, sync_tolerance)
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
                network, registry, node, cache, epsilon)
            evaluations += len(agent.neighbor_islands)
            emit(node, "snapshot", {
                "islands": {str(lbl): freqs[0]
                            for lbl, freqs in agent.snapshot_freqs.items()}})
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
                        "snapshot": {str(lbl): freqs[0] for lbl, freqs
                                     in agent.snapshot_freqs.items()},
                        "current": {str(lbl): registry.island_freq[lbl]
                                    for lbl in agent.snapshot_freqs}})
                    continue
            registry.islands[decision.label].add(agent.node_id)
            _publish(registry, network, decision.label)
            assigned.add(agent.node_id)
            progress = True
            emit(agent.node_id, "join", {
                "island": decision.label, "reason": decision.reason,
                "island_freq": registry.island_freq[decision.label]})

        stalled_rounds = 0 if progress else stalled_rounds + 1
        if not progress and stalled_rounds >= max_stalled_rounds:
            attached = _fallback_attach(network, registry, assigned,
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
                     assigned: set[int], all_nodes: set[int],
                     emit) -> list[int]:
    """Deadlock fallback: attach whatever the islands can still reach.

    Loads go to the adjacent island with the largest imbalance, other
    nodes to the smallest, in ascending node-id sweeps until nothing
    island-adjacent remains.
    """
    attached: list[int] = []
    logger.warning("growth stalled; falling back to direct attachment")
    while True:
        frontier = sorted(
            node for node in all_nodes - assigned
            if any(p in assigned for p in network.neighbors(node)))
        if not frontier:
            return attached
        for node in frontier:
            injection = net_injection(network, node)
            adjacent = sorted({
                lbl for lbl, members in registry.islands.items()
                if any(p in members for p in network.neighbors(node))})
            imbalance = {
                lbl: sum(net_injection(network, n)
                         for n in registry.islands[lbl])
                for lbl in adjacent}
            if injection < 0.0:
                best = min(adjacent, key=lambda l: (-imbalance[l], l))
            else:
                best = min(adjacent, key=lambda l: (imbalance[l], l))
            registry.islands[best].add(node)
            _publish(registry, network, best)
            assigned.add(node)
            attached.append(node)
            emit(node, "join", {"island": best, "reason": "fallback",
                                "island_freq": registry.island_freq[best]})
