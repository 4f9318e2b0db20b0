"""Static grid model: buses, branches, islands, and graph queries.

All graph operations work on the in-service branch set only. Bus ids are
arbitrary positive integers; nothing assumes they are contiguous.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DegenerateBranch, NotFound, Unreachable

logger = logging.getLogger("grid_islander.network")


@dataclass(frozen=True)
class Bus:
    """One bus of the physical grid.

    Powers are in MW / MVAr at system base voltage. ``kind`` is
    ``"generator"`` exactly when the bus belongs to the network's
    generator set, ``"load"`` otherwise. ``voltage_setpoint`` is the
    per-unit magnitude held by a regulating machine, or None.
    """

    id: int
    kind: str
    p_demand: float
    q_demand: float
    p_gen_scheduled: float
    base_kv: float
    voltage_setpoint: float | None = None


@dataclass(frozen=True)
class Branch:
    """One transmission line or transformer.

    ``resistance``, ``reactance`` and ``charging`` are per-unit on the
    system base. ``tap_ratio`` is 1.0 for plain lines.
    """

    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    charging: float = 0.0
    tap_ratio: float = 1.0
    status: bool = True


@dataclass(frozen=True)
class Island:
    """A labelled set of bus ids."""

    label: int
    node_set: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "node_set", frozenset(self.node_set))
        if not self.node_set:
            raise ValueError(f"island {self.label} has no nodes")

    @property
    def size(self) -> int:
        return len(self.node_set)


@dataclass(frozen=True)
class Partition:
    """A family of islands together with the branch pairs they cut."""

    islands: tuple[Island, ...]
    cut_set: tuple[tuple[int, int], ...]

    @property
    def n_islands(self) -> int:
        return len(self.islands)

    def island(self, label: int) -> Island:
        for isl in self.islands:
            if isl.label == label:
                return isl
        raise NotFound(f"no island labelled {label}")

    def label_of(self, node: int) -> int:
        for isl in self.islands:
            if node in isl.node_set:
                return isl.label
        raise NotFound(f"node {node} is not assigned to any island")


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the partition checks, one flag per requirement."""

    cover_ok: bool
    disjoint_ok: bool
    connectivity_ok: dict[int, bool]
    generator_ok: dict[int, bool]
    cut_set: tuple[tuple[int, int], ...]
    issues: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        return (self.cover_ok and self.disjoint_ok
                and all(self.connectivity_ok.values())
                and all(self.generator_ok.values()))


class PowerNetwork:
    """Immutable snapshot of a grid: buses, branches, base power, V_gen.

    Construction validates model invariants (unique ids, known endpoints,
    nonzero reactance on in-service branches, demand sign, kind
    consistency). Connectivity of the in-service graph is computed and
    logged but deliberately not enforced, because faulted networks may
    legitimately split.
    """

    def __init__(self, buses: Sequence[Bus], branches: Sequence[Branch],
                 base_mva: float, generator_set: Iterable[int]):
        self.buses: tuple[Bus, ...] = tuple(buses)
        self.branches: tuple[Branch, ...] = tuple(branches)
        self.base_mva = float(base_mva)
        self.generator_set: frozenset[int] = frozenset(generator_set)
        if self.base_mva <= 0:
            raise ValueError("base_mva must be positive")

        self._by_id: dict[int, Bus] = {}
        for bus in self.buses:
            if bus.id in self._by_id:
                raise ValueError(f"duplicate bus id {bus.id}")
            if bus.p_demand < 0:
                raise ValueError(f"bus {bus.id}: negative demand")
            expected = "generator" if bus.id in self.generator_set else "load"
            if bus.kind != expected:
                raise ValueError(
                    f"bus {bus.id}: kind {bus.kind!r} inconsistent with "
                    f"generator set")
            self._by_id[bus.id] = bus
        missing = self.generator_set - set(self._by_id)
        if missing:
            raise ValueError(f"generator set references unknown buses: "
                             f"{sorted(missing)}")

        for br in self.branches:
            if br.from_bus == br.to_bus:
                raise ValueError(f"branch {br.from_bus}-{br.to_bus} is a loop")
            if br.from_bus not in self._by_id or br.to_bus not in self._by_id:
                raise ValueError(
                    f"branch {br.from_bus}-{br.to_bus}: unknown endpoint")
            if br.status and br.reactance == 0.0:
                raise ValueError(
                    f"branch {br.from_bus}-{br.to_bus}: zero reactance")

        adj: dict[int, set[int]] = {bus.id: set() for bus in self.buses}
        for br in self.branches:
            if br.status:
                adj[br.from_bus].add(br.to_bus)
                adj[br.to_bus].add(br.from_bus)
        self._adjacency: dict[int, tuple[int, ...]] = {
            node: tuple(sorted(peers)) for node, peers in adj.items()}

        self.connected = self._check_connected()
        if not self.connected:
            logger.warning("in-service branch graph is disconnected")

    def _check_connected(self) -> bool:
        if not self.buses:
            return True
        seen = {self.buses[0].id}
        queue = deque(seen)
        while queue:
            node = queue.popleft()
            for peer in self._adjacency[node]:
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        return len(seen) == len(self.buses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerNetwork):
            return NotImplemented
        return (self.buses == other.buses
                and self.branches == other.branches
                and self.base_mva == other.base_mva
                and self.generator_set == other.generator_set)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_id))

    def bus(self, bus_id: int) -> Bus:
        try:
            return self._by_id[bus_id]
        except KeyError:
            raise NotFound(f"no bus with id {bus_id}") from None

    def has_bus(self, bus_id: int) -> bool:
        return bus_id in self._by_id

    def neighbors(self, bus_id: int) -> tuple[int, ...]:
        if bus_id not in self._adjacency:
            raise NotFound(f"no bus with id {bus_id}")
        return self._adjacency[bus_id]

    def in_service_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.status)

    def edge_set(self) -> set[tuple[int, int]]:
        """Distinct in-service edges as (low id, high id) pairs.

        Parallel circuits collapse to a single pair here; anything that
        needs per-circuit data must walk ``branches`` directly.
        """
        edges = set()
        for br in self.branches:
            if br.status:
                a, b = br.from_bus, br.to_bus
                edges.add((a, b) if a < b else (b, a))
        return edges

    def subgraph_connected(self, nodes: Iterable[int]) -> bool:
        """True if the induced in-service subgraph on ``nodes`` is connected."""
        node_set = set(nodes)
        for node in node_set:
            if node not in self._by_id:
                raise NotFound(f"no bus with id {node}")
        if not node_set:
            return True
        start = next(iter(node_set))
        seen = {start}
        queue = deque(seen)
        while queue:
            node = queue.popleft()
            for peer in self._adjacency[node]:
                if peer in node_set and peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        return len(seen) == len(node_set)


def net_injection(network: PowerNetwork, bus_id: int) -> float:
    """Per-unit net active injection: (scheduled generation - demand) / base."""
    bus = network.bus(bus_id)
    return (bus.p_gen_scheduled - bus.p_demand) / network.base_mva


def coupling_susceptance(branch: Branch) -> float:
    """Series susceptance magnitude x / (r^2 + x^2) of one branch.

    This is the imaginary part of the series admittance, sign dropped.
    Shunt charging and transformer taps are intentionally ignored; the
    oscillator layer couples through the series path only.
    """
    r, x = branch.resistance, branch.reactance
    denom = r * r + x * x
    if denom == 0.0:
        raise DegenerateBranch(
            f"branch {branch.from_bus}-{branch.to_bus} has zero impedance")
    return abs(x) / denom


def shortest_path(network: PowerNetwork, source: int,
                  target: int) -> tuple[int, ...]:
    """Minimum-hop path from source to target over in-service branches.

    Among equal-length paths the lexicographically smallest node-id
    sequence is returned, so results are reproducible across runs.
    """
    network.bus(source)
    network.bus(target)
    if source == target:
        return (source,)
    dist = _bfs_distances(network, target)
    if source not in dist:
        raise Unreachable(f"no path from {source} to {target}")
    path = [source]
    node = source
    while node != target:
        remaining = dist[node]
        # Greedy descent toward the target, smallest id first, yields the
        # lexicographically smallest among all minimum-hop paths.
        node = min(p for p in network.neighbors(node)
                   if dist.get(p, -1) == remaining - 1)
        path.append(node)
    return tuple(path)


def _bfs_distances(network: PowerNetwork, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for peer in network.neighbors(node):
            if peer not in dist:
                dist[peer] = dist[node] + 1
                queue.append(peer)
    return dist


def complete_island(network: PowerNetwork, seed_nodes: Iterable[int],
                    label: int = 0) -> Island:
    """Connect a seed set by adding shortest-path nodes where needed.

    If the induced subgraph on the seeds is already connected the seeds
    are returned unchanged, which makes the operation idempotent. When
    it is not, every seed pair (taken in ascending id order) contributes
    its minimum-hop path, and the union of seeds and path nodes is
    returned; that union always induces a connected subgraph.
    """
    seeds = sorted(set(seed_nodes))
    if not seeds:
        raise ValueError("seed set is empty")
    for node in seeds:
        network.bus(node)
    if network.subgraph_connected(seeds):
        return Island(label=label, node_set=frozenset(seeds))
    members = set(seeds)
    for i, a in enumerate(seeds):
        for b in seeds[i + 1:]:
            members.update(shortest_path(network, a, b))
    return Island(label=label, node_set=frozenset(members))


def apply_fault(network: PowerNetwork,
                branch_pair: tuple[int, int]) -> PowerNetwork:
    """Return a copy of the network with one branch tripped.

    The first in-service branch joining the pair (either orientation) is
    set out of service; everything else is untouched. Parallel circuits
    on the same corridor need one call each.
    """
    a, b = branch_pair
    new_branches = []
    tripped = False
    for br in network.branches:
        if (not tripped and br.status
                and {br.from_bus, br.to_bus} == {a, b}):
            new_branches.append(Branch(
                from_bus=br.from_bus, to_bus=br.to_bus,
                resistance=br.resistance, reactance=br.reactance,
                charging=br.charging, tap_ratio=br.tap_ratio, status=False))
            tripped = True
        else:
            new_branches.append(br)
    if not tripped:
        raise NotFound(f"no in-service branch between {a} and {b}")
    return PowerNetwork(network.buses, new_branches, network.base_mva,
                        network.generator_set)


def compute_cut_set(network: PowerNetwork,
                    islands: Sequence[Island]) -> tuple[tuple[int, int], ...]:
    """Distinct in-service edges whose endpoints sit in different islands."""
    owner: dict[int, int] = {}
    for isl in islands:
        for node in isl.node_set:
            owner[node] = isl.label
    cut = set()
    for a, b in sorted(network.edge_set()):
        la, lb = owner.get(a), owner.get(b)
        if la is not None and lb is not None and la != lb:
            cut.add((a, b))
    return tuple(sorted(cut))


def make_partition(network: PowerNetwork,
                   islands: Sequence[Island]) -> Partition:
    """Bundle islands into a Partition with its cut set computed."""
    ordered = tuple(sorted(islands, key=lambda isl: isl.label))
    return Partition(islands=ordered,
                     cut_set=compute_cut_set(network, ordered))


def validate_partition(network: PowerNetwork,
                       partition: Partition) -> ValidityReport:
    """Check cover, disjointness, island connectivity, generator presence.

    Returns a report rather than raising, so callers can surface every
    violated requirement at once. The cut set is recomputed here and
    included in the report.
    """
    issues: list[str] = []
    all_nodes = set(network.node_ids())
    seen: set[int] = set()
    disjoint = True
    for isl in partition.islands:
        overlap = seen & isl.node_set
        if overlap:
            disjoint = False
            issues.append(f"island {isl.label} overlaps earlier islands "
                          f"on {sorted(overlap)}")
        seen |= isl.node_set
    cover = seen == all_nodes
    if not cover:
        missing = sorted(all_nodes - seen)
        extra = sorted(seen - all_nodes)
        if missing:
            issues.append(f"uncovered nodes: {missing}")
        if extra:
            issues.append(f"unknown nodes: {extra}")

    connectivity: dict[int, bool] = {}
    generator: dict[int, bool] = {}
    for isl in partition.islands:
        known = {n for n in isl.node_set if network.has_bus(n)}
        ok = bool(known) and network.subgraph_connected(known)
        connectivity[isl.label] = ok
        if not ok:
            issues.append(f"island {isl.label} is not connected")
        has_gen = bool(known & network.generator_set)
        generator[isl.label] = has_gen
        if not has_gen:
            issues.append(f"island {isl.label} has no generator")

    cut = compute_cut_set(network, partition.islands)
    return ValidityReport(cover_ok=cover, disjoint_ok=disjoint,
                          connectivity_ok=connectivity,
                          generator_ok=generator,
                          cut_set=cut, issues=tuple(issues))


def island_imbalance(network: PowerNetwork, island: Island) -> float:
    """Total per-unit net injection of an island (its power imbalance)."""
    return sum(net_injection(network, node) for node in island.node_set)
