"""Static grid model: buses, branches, islands, and graph queries.

All graph operations work on the in-service branch set only. Bus ids are
arbitrary positive integers; nothing assumes they are contiguous.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .errors import (ConfigError, DegenerateBranch, InitialIslandsOverlap,
                     NoGenerator, NotFound)

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


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the partition checks: one message per violation."""

    issues: tuple[str, ...]

    @property
    def all_ok(self) -> bool:
        """True exactly when no check raised an issue."""
        return not self.issues


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

        self.connected = self.subgraph_connected(self._by_id)
        if not self.connected:
            logger.warning("in-service branch graph is disconnected")

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

    def _reach(self, start: int, node_set: set[int]) -> set[int]:
        """Nodes of ``node_set`` joined to ``start`` by paths inside it."""
        seen = {start}
        queue = deque(seen)
        while queue:
            for peer in self._adjacency[queue.popleft()]:
                if peer in node_set and peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
        return seen

    def subgraph_connected(self, nodes: Iterable[int]) -> bool:
        """True if the induced in-service subgraph on ``nodes`` is connected."""
        node_set = set(nodes)
        for node in node_set:
            if node not in self._by_id:
                raise NotFound(f"no bus with id {node}")
        return not node_set or len(
            self._reach(next(iter(node_set)), node_set)) == len(node_set)

    def components(self) -> list[tuple[int, ...]]:
        """Connected components, each sorted, in order of lowest id."""
        left, parts = set(self._by_id), []
        while left:
            parts.append(tuple(sorted(self._reach(min(left), left))))
            left.difference_update(parts[-1])
        return parts


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


def apply_fault(network: PowerNetwork,
                *branch_pairs: tuple[int, int]) -> PowerNetwork:
    """Return a copy of the network with one branch tripped per pair.

    For each pair in turn, the first branch joining it (either
    orientation) that is still in service is set out of service;
    everything else is untouched. Parallel circuits on the same corridor
    need the pair once each. The copy is built once, and equals
    tripping the pairs by one call each.
    """
    branches = list(network.branches)
    for a, b in branch_pairs:
        for k, br in enumerate(branches):
            if br.status and {br.from_bus, br.to_bus} == {a, b}:
                branches[k] = replace(br, status=False)
                break
        else:
            raise NotFound(f"no in-service branch between {a} and {b}")
    return PowerNetwork(network.buses, branches, network.base_mva,
                        network.generator_set)


def crossing(islands: Sequence[Island],
             edges: Sequence[tuple[int, int]]) -> list[int]:
    """Positions in ``edges`` of the edges whose endpoints sit in two
    different entries of ``islands``."""
    owner = {node: position for position, isl in enumerate(islands)
             for node in isl.node_set}
    return [k for k, (a, b) in enumerate(edges)
            if a in owner and b in owner and owner[a] != owner[b]]


def compute_cut_set(network: PowerNetwork,
                    islands: Sequence[Island]) -> tuple[tuple[int, int], ...]:
    """Distinct in-service edges whose endpoints sit in different islands."""
    edges = sorted(network.edge_set())
    return tuple(edges[k] for k in crossing(islands, edges))


def make_partition(network: PowerNetwork,
                   islands: Sequence[Island]) -> Partition:
    """Bundle islands into a Partition with its cut set computed."""
    ordered = tuple(sorted(islands, key=lambda isl: isl.label))
    return Partition(islands=ordered,
                     cut_set=compute_cut_set(network, ordered))


def validate_partition(network: PowerNetwork,
                       partition: Partition) -> ValidityReport:
    """Check cover, disjointness, label uniqueness, island connectivity,
    generator presence.

    Returns a report rather than raising, so callers can surface every
    violated requirement at once.
    """
    issues: list[str] = []
    all_nodes = set(network.node_ids())
    seen: set[int] = set()
    for isl in partition.islands:
        overlap = seen & isl.node_set
        if overlap:
            issues.append(f"island {isl.label} overlaps earlier islands "
                          f"on {sorted(overlap)}")
        seen |= isl.node_set
    missing = sorted(all_nodes - seen)
    extra = sorted(seen - all_nodes)
    if missing:
        issues.append(f"uncovered nodes: {missing}")
    if extra:
        issues.append(f"unknown nodes: {extra}")

    labels: set[int] = set()
    for isl in partition.islands:
        if isl.label in labels:
            issues.append(f"island label {isl.label} is used more than once")
        labels.add(isl.label)
        known = {n for n in isl.node_set if network.has_bus(n)}
        if not (known and network.subgraph_connected(known)):
            issues.append(f"island {isl.label} is not connected")
        if not known & network.generator_set:
            issues.append(f"island {isl.label} has no generator")
    return ValidityReport(issues=tuple(issues))


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


@dataclass
class IslandRegistry:
    """Growing islands over the run's {node: injection} table.

    ``owner`` maps every assigned node to its island's label, ``total``
    holds each island's running injection sum (its power imbalance), and
    ``island_freq`` publishes ``total / size``, the frequency an
    oscillator layer over the island locks to. All three are built from
    ``islands`` (``total`` as each member set's exact, correctly rounded
    sum, so equal sets start at equal totals whatever their iteration
    order) and kept in step by ``join``.
    """

    islands: dict[int, set[int]]
    injection: dict[int, float]
    total: dict[int, float] = field(init=False)
    island_freq: dict[int, float] = field(init=False)
    owner: dict[int, int] = field(init=False, repr=False)

    @classmethod
    def seeded(cls, network: PowerNetwork,
               initial_islands: Sequence[Island]) -> IslandRegistry:
        """Check the seed islands, then start a registry on them over the
        network's per-unit net injections."""
        check_initial_islands(network, initial_islands)
        return cls(
            islands={isl.label: set(isl.node_set) for isl in initial_islands},
            injection={node: net_injection(network, node)
                       for node in network.node_ids()})

    def __post_init__(self) -> None:
        self.owner = {node: lbl for lbl, members in self.islands.items()
                      for node in members}
        self.total = {lbl: math.fsum(self.injection[n] for n in members)
                      for lbl, members in self.islands.items()}
        self.island_freq = {lbl: self.total[lbl] / len(members)
                            for lbl, members in self.islands.items()}

    def join(self, node: int, label: int) -> None:
        """Commit ``node`` to island ``label``, add its injection to the
        island's total and republish the island's frequency."""
        members = self.islands[label]
        members.add(node)
        self.owner[node] = label
        self.total[label] += self.injection[node]
        self.island_freq[label] = self.total[label] / len(members)

    def augmented_freq(self, label: int, injection: float) -> float:
        """The frequency island ``label`` locks to with one more node of
        per-unit ``injection`` attached."""
        size = len(self.islands[label])
        return (self.total[label] + injection) / (size + 1)

    def partition(self, network: PowerNetwork) -> Partition:
        """The islands as they stand, as a partition of ``network``."""
        return make_partition(network, tuple(
            Island(label=lbl, node_set=frozenset(members))
            for lbl, members in sorted(self.islands.items())))


def island_imbalance(network: PowerNetwork, island: Island) -> float:
    """Total per-unit net injection of an island (its power imbalance),
    correctly rounded, so it does not depend on the set's order."""
    return math.fsum(net_injection(network, node) for node in island.node_set)
