"""Sync-time-driven island growth, checked against a plain re-coding."""

import math
import random

import pytest

from grid_islander import (ConfigError, Island, InitialIslandsOverlap,
                           NoGenerator, Stalled, SyncTimeTable,
                           centralized_partition, check_initial_islands,
                           net_injection, validate_partition)
from conftest import make_network


def five_cycle():
    return make_network({1: 1.0, 2: -0.4, 3: -0.6, 4: 0.5, 5: -0.5},
                        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
                        generator_set={1, 4})


FIVE_CYCLE_TIMES = SyncTimeTable(entries={
    (1, 2): 1.0, (2, 3): 1.0, (3, 4): 3.0, (4, 5): 1.0, (1, 5): 2.0})


def seeds(*node_sets):
    return [Island(label=k + 1, node_set=frozenset(ns))
            for k, ns in enumerate(node_sets)]


def test_five_cycle_hand_trace():
    net = five_cycle()
    result = centralized_partition(net, seeds({1}, {4}), FIVE_CYCLE_TIMES)
    trace = [(s.island_label, s.node, s.sync_time) for s in result.steps]
    # island 1 (surplus 1.0) takes 2 then 3; island 2 then takes 5
    assert trace == [(1, 2, 1.0), (1, 3, 1.0), (2, 5, 1.0)]
    part = result.partition
    assert part.island(1).node_set == frozenset({1, 2, 3})
    assert part.island(2).node_set == frozenset({4, 5})
    assert part.cut_set == ((1, 5), (3, 4))
    assert validate_partition(net, part).all_ok


def test_step_log_reports_running_imbalances():
    net = five_cycle()
    result = centralized_partition(net, seeds({1}, {4}), FIVE_CYCLE_TIMES)
    first = result.steps[0]
    assert first.step == 1
    # after node 2 joins island 1: 1.0 - 0.4
    assert first.imbalances[1] == pytest.approx(0.6)
    assert first.imbalances[2] == pytest.approx(0.5)
    last = result.steps[-1]
    assert last.imbalances[1] == pytest.approx(0.0, abs=1e-15)
    assert last.imbalances[2] == pytest.approx(0.0, abs=1e-15)


def test_imbalance_tie_breaks_to_lower_label():
    # both islands at +0.5; island 1 must move first
    net = make_network({1: 0.5, 2: -0.5, 3: -0.5, 4: 0.5},
                       [(1, 2), (2, 3), (3, 4)], generator_set={1, 4})
    times = SyncTimeTable(entries={(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0})
    result = centralized_partition(net, seeds({1}, {4}), times)
    assert result.steps[0].island_label == 1
    assert result.steps[0].node == 2


def test_finite_time_beats_infinite():
    # node 2 syncs never, node 5 late: the island still prefers 5
    net = make_network({1: 1.0, 2: -0.2, 5: -0.3, 9: 0.2, 10: -0.7},
                       [(1, 2), (1, 5), (5, 9), (2, 9), (9, 10)],
                       generator_set={1, 9})
    times = SyncTimeTable(entries={(1, 2): math.inf, (1, 5): 80.0,
                                   (5, 9): 1.0, (2, 9): math.inf,
                                   (9, 10): 1.0})
    result = centralized_partition(net, seeds({1}, {9}), times)
    first_island1 = next(s for s in result.steps if s.island_label == 1)
    assert first_island1.node == 5
    assert first_island1.sync_time == pytest.approx(80.0)


def test_unsynchronized_node_still_absorbed():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2)], generator_set={1})
    times = SyncTimeTable(entries={(1, 2): math.inf})
    result = centralized_partition(net, seeds({1}), times)
    assert result.steps[0].node == 2
    assert result.steps[0].sync_time == math.inf
    assert result.partition.island(1).size == 2


def test_node_id_tie_break():
    # nodes 3 and 4 reach island 1 with identical times: 3 wins
    net = make_network({1: 1.0, 3: -0.4, 4: -0.6},
                       [(1, 3), (1, 4)], generator_set={1})
    times = SyncTimeTable(entries={(1, 3): 2.0, (1, 4): 2.0})
    result = centralized_partition(net, seeds({1}), times)
    assert [s.node for s in result.steps] == [3, 4]


def test_enclosed_island_yields():
    # island 1 has the larger surplus but no unassigned neighbors
    net = make_network({1: 2.0, 2: -0.5, 3: 0.4, 4: -0.9},
                       [(1, 2), (2, 3), (3, 4)], generator_set={1, 3})
    times = SyncTimeTable(entries={(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0})
    result = centralized_partition(net, seeds({1, 2}, {3}), times)
    assert [(s.island_label, s.node) for s in result.steps] == [(2, 4)]


def test_multiway_growth_three_islands():
    net = make_network(
        {1: 1.0, 2: 0.8, 3: 0.6, 4: -0.8, 5: -0.7, 6: -0.9},
        [(1, 4), (2, 5), (3, 6), (4, 5), (5, 6)],
        generator_set={1, 2, 3})
    times = SyncTimeTable(entries={(1, 4): 1.0, (2, 5): 1.0, (3, 6): 1.0,
                                   (4, 5): 9.0, (5, 6): 9.0})
    result = centralized_partition(net, seeds({1}, {2}, {3}), times)
    part = result.partition
    assert part.island(1).node_set == frozenset({1, 4})
    assert part.island(2).node_set == frozenset({2, 5})
    assert part.island(3).node_set == frozenset({3, 6})
    assert validate_partition(net, part).all_ok


def test_stalled_when_nodes_unreachable():
    net = make_network({1: 1.0, 2: -1.0, 3: 0.5, 4: -0.5},
                       [(1, 2), (3, 4)], generator_set={1, 3})
    times = SyncTimeTable(entries={(1, 2): 1.0, (3, 4): 1.0})
    with pytest.raises(Stalled) as err:
        centralized_partition(net, seeds({1, 2}), times)
    assert err.value.blocked == (3, 4)


def test_seed_validation():
    net = five_cycle()
    with pytest.raises(InitialIslandsOverlap):
        check_initial_islands(net, seeds({1, 2}, {2, 3}))
    with pytest.raises(ConfigError, match="initial island 1 is not connected"):
        check_initial_islands(net, seeds({1, 3}, {4}))   # 1-3 not an edge
    with pytest.raises(NoGenerator):
        check_initial_islands(net, seeds({1}, {5}))


def _reference_growth(network, seed_islands, table):
    """Separately coded growth rule, used as an oracle.

    Loops are written as directly as possible: recompute imbalances from
    scratch, scan islands in imbalance-then-label order, scan candidate
    nodes in id order, track the best (time, id) pair explicitly.
    """
    members = {isl.label: set(isl.node_set) for isl in seed_islands}
    assigned = set()
    for nodes in members.values():
        assigned |= nodes
    sequence = []
    while assigned != set(network.node_ids()):
        imbalance = {}
        for lbl, nodes in members.items():
            imbalance[lbl] = sum(net_injection(network, n) for n in nodes)
        progressed = False
        for lbl in sorted(members, key=lambda l: (-imbalance[l], l)):
            frontier = set()
            for node in members[lbl]:
                for peer in network.neighbors(node):
                    if peer not in assigned:
                        frontier.add(peer)
            if not frontier:
                continue
            best_node, best_time = None, None
            for cand in sorted(frontier):
                t = min(table.get(cand, peer)
                        for peer in network.neighbors(cand)
                        if peer in members[lbl])
                if best_node is None or t < best_time:
                    best_node, best_time = cand, t
            members[lbl].add(best_node)
            assigned.add(best_node)
            sequence.append((lbl, best_node))
            progressed = True
            break
        if not progressed:
            return sequence, members, False
    return sequence, members, True


def random_instance(rng):
    n = rng.randint(4, 10)
    nodes = list(range(1, n + 1))
    edges = {(i, i + 1) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        edges.add((min(a, b), max(a, b)))
    g1, g2 = rng.sample(nodes, 2)
    injections = {}
    for node in nodes:
        if node in (g1, g2):
            injections[node] = rng.uniform(0.5, 2.0)
        else:
            injections[node] = rng.uniform(-1.0, 0.5)
    net = make_network(injections, sorted(edges), generator_set={g1, g2})
    entries = {}
    for a, b in edges:
        entries[(a, b)] = (math.inf if rng.random() < 0.15
                           else round(rng.uniform(0.1, 30.0), 3))
    return net, seeds({g1}, {g2}), SyncTimeTable(entries=entries)


def test_matches_reference_growth_on_random_instances():
    rng = random.Random(1234)
    for trial in range(40):
        net, initial, table = random_instance(rng)
        want_seq, want_members, finished = _reference_growth(
            net, initial, table)
        assert finished   # connected graphs always finish
        result = centralized_partition(net, initial, table)
        got_seq = [(s.island_label, s.node) for s in result.steps]
        assert got_seq == want_seq, f"trial {trial}"
        for isl in result.partition.islands:
            assert isl.node_set == frozenset(want_members[isl.label])
        assert validate_partition(net, result.partition).all_ok


def test_growth_is_deterministic():
    rng = random.Random(77)
    net, initial, table = random_instance(rng)
    a = centralized_partition(net, initial, table)
    b = centralized_partition(net, initial, table)
    assert a.steps == b.steps
    assert a.partition == b.partition
