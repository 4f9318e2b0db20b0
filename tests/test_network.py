"""Network model, graph utilities, faults, and partition validation."""

import itertools
import math
import random

import numpy as np
import pytest

from grid_islander import (Branch, Bus, DegenerateBranch,
                           InitialIslandsOverlap, Island, NotFound,
                           Partition, PowerNetwork, apply_fault,
                           compute_cut_set, coupling_susceptance,
                           island_imbalance, make_partition, net_injection,
                           validate_partition)
from conftest import make_network


def test_bus_and_branch_are_frozen():
    bus = Bus(id=1, kind="load", p_demand=10.0, q_demand=2.0,
              p_gen_scheduled=0.0, base_kv=138.0)
    with pytest.raises(AttributeError):
        bus.p_demand = 5.0
    branch = Branch(from_bus=1, to_bus=2, resistance=0.01, reactance=0.05)
    with pytest.raises(AttributeError):
        branch.status = False


def test_construction_rejects_bad_input():
    gen = Bus(id=1, kind="generator", p_demand=0.0, q_demand=0.0,
              p_gen_scheduled=100.0, base_kv=138.0, voltage_setpoint=1.0)
    load = Bus(id=2, kind="load", p_demand=50.0, q_demand=0.0,
               p_gen_scheduled=0.0, base_kv=138.0)
    line = Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=0.1)
    with pytest.raises(ValueError):
        PowerNetwork([gen, gen], [line], 100.0, {1})
    with pytest.raises(ValueError):
        PowerNetwork([gen, load],
                     [Branch(from_bus=1, to_bus=3, resistance=0, reactance=1)],
                     100.0, {1})
    with pytest.raises(ValueError):
        PowerNetwork([gen, load],
                     [Branch(from_bus=1, to_bus=2, resistance=0, reactance=0)],
                     100.0, {1})
    with pytest.raises(ValueError):
        # kind says load but the id is in the generator set
        PowerNetwork([gen, load], [line], 100.0, {1, 2})
    with pytest.raises(ValueError):
        PowerNetwork([gen, load], [line], -100.0, {1})
    # demand must be nonnegative
    bad = Bus(id=2, kind="load", p_demand=-5.0, q_demand=0.0,
              p_gen_scheduled=0.0, base_kv=138.0)
    with pytest.raises(ValueError):
        PowerNetwork([gen, bad], [line], 100.0, {1})


def test_lookup_and_adjacency(five_path):
    assert five_path.node_ids() == (1, 2, 3, 4, 5)
    assert five_path.neighbors(3) == (2, 4)
    assert five_path.bus(4).p_gen_scheduled == 50.0
    assert five_path.has_bus(5) and not five_path.has_bus(6)
    with pytest.raises(NotFound):
        five_path.bus(99)
    with pytest.raises(NotFound):
        five_path.neighbors(99)


def test_net_injection_per_unit(five_path):
    assert net_injection(five_path, 1) == pytest.approx(1.0)
    assert net_injection(five_path, 2) == pytest.approx(-0.4)
    total = sum(net_injection(five_path, n) for n in five_path.node_ids())
    assert total == pytest.approx(0.0, abs=1e-15)


def test_coupling_susceptance_against_admittance():
    # oracle: magnitude of the imaginary part of 1/(r + jx)
    rng = random.Random(7)
    for _ in range(100):
        r = rng.uniform(0.0, 0.3)
        x = rng.uniform(0.01, 1.0) * rng.choice([1.0, -1.0])
        br = Branch(from_bus=1, to_bus=2, resistance=r, reactance=x)
        expected = abs((1.0 / complex(r, x)).imag)
        assert coupling_susceptance(br) == pytest.approx(expected, rel=1e-12)


def test_coupling_susceptance_degenerate():
    br = Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=0.0,
                status=False)
    with pytest.raises(DegenerateBranch):
        coupling_susceptance(br)


def test_apply_fault_trips_one_circuit():
    # parallel circuits 1-2: only the first in-service one trips
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2, 0.1), (1, 2, 0.2)],
                       generator_set={1})
    faulted = apply_fault(net, (1, 2))
    statuses = [br.status for br in faulted.branches]
    assert statuses == [False, True]
    assert faulted.edge_set() == {(1, 2)}
    twice = apply_fault(faulted, (2, 1))
    assert [br.status for br in twice.branches] == [False, False]
    assert twice.edge_set() == set()


def test_apply_fault_many_pairs_equals_one_call_each():
    # corridor 1-2 has two circuits: the pair given twice trips both
    net = make_network({1: 1.0, 2: -0.4, 3: -0.6, 4: 0.5},
                       [(1, 2, 0.1), (2, 3, 0.2), (1, 2, 0.3), (3, 4, 0.1),
                        (2, 4, 0.2)], generator_set={1, 4})
    for pairs in ([(1, 2), (2, 1)], [(3, 4), (1, 2), (4, 2)],
                  [(2, 3)], []):
        folded = net
        for pair in pairs:
            folded = apply_fault(folded, pair)
        at_once = apply_fault(net, *pairs)
        assert at_once.branches == folded.branches
        assert at_once.edge_set() == folded.edge_set()
        assert at_once.buses == net.buses
        assert at_once.generator_set == net.generator_set
    assert [br.status for br in apply_fault(net, (1, 2), (2, 1)).branches] \
        == [False, True, False, True, True]


def test_apply_fault_names_first_pair_left_without_branch():
    net = make_network({1: 1.0, 2: -0.4, 3: -0.6},
                       [(1, 2, 0.1), (1, 2, 0.3), (2, 3, 0.1)],
                       generator_set={1})
    # the third 1-2 trip finds both circuits out; 1-3 never existed
    with pytest.raises(NotFound,
                       match="^no in-service branch between 2 and 1$"):
        apply_fault(net, (1, 2), (2, 3), (2, 1), (2, 1), (1, 3))
    with pytest.raises(NotFound,
                       match="^no in-service branch between 1 and 3$"):
        apply_fault(net, (1, 2), (1, 3), (1, 2), (1, 2))


def test_apply_fault_unknown_edge(five_path):
    with pytest.raises(NotFound):
        apply_fault(five_path, (1, 5))


def test_apply_fault_leaves_original(five_path):
    faulted = apply_fault(five_path, (2, 3))
    assert all(br.status for br in five_path.branches)
    assert sum(br.status for br in faulted.branches) == 3


def test_cut_set_and_partition(five_path):
    islands = [Island(label=1, node_set=frozenset({1, 2, 3})),
               Island(label=2, node_set=frozenset({4, 5}))]
    cut = compute_cut_set(five_path, islands)
    assert cut == ((3, 4),)
    part = make_partition(five_path, islands)
    assert part.n_islands == 2
    assert 2 in part.island(1).node_set and 5 in part.island(2).node_set
    assert part.island(2).size == 2
    with pytest.raises(NotFound):
        part.island(3)


def test_cut_set_separates_islands_that_share_a_label(five_path):
    islands = [Island(label=1, node_set=frozenset({1, 3})),
               Island(label=1, node_set=frozenset({2})),
               Island(label=2, node_set=frozenset({4, 5}))]
    assert compute_cut_set(five_path, islands) == ((1, 2), (2, 3), (3, 4))


def test_validate_partition_good(five_path):
    part = make_partition(five_path,
                          [Island(label=1, node_set=frozenset({1, 2, 3})),
                           Island(label=2, node_set=frozenset({4, 5}))])
    report = validate_partition(five_path, part)
    assert report.all_ok
    assert report.issues == ()


def test_validate_partition_flags_problems(five_path):
    # missing node 5, and island 2 has no generator
    part = Partition(
        islands=(Island(label=1, node_set=frozenset({1, 2, 4})),
                 Island(label=2, node_set=frozenset({3}))),
        cut_set=frozenset())
    report = validate_partition(five_path, part)
    assert not report.all_ok
    assert report.issues == ("uncovered nodes: [5]",
                             "island 1 is not connected",   # gap at 3
                             "island 2 has no generator")


def test_validate_partition_overlap(five_path):
    part = Partition(
        islands=(Island(label=1, node_set=frozenset({1, 2, 3})),
                 Island(label=2, node_set=frozenset({3, 4, 5}))),
        cut_set=frozenset())
    report = validate_partition(five_path, part)
    assert report.issues == ("island 2 overlaps earlier islands on [3]",)


def test_validate_partition_duplicate_label_hides_nothing():
    # island 1:{1,3} is disconnected; a second island 1:{2} that passes
    # every check must not overwrite that result
    net = make_network({1: 1.0, 2: 0.2, 3: -0.6, 4: 0.5, 5: -0.5},
                       [(1, 2), (2, 3), (3, 4), (4, 5)],
                       generator_set={1, 2, 4})
    part = Partition(
        islands=(Island(label=1, node_set=frozenset({1, 3})),
                 Island(label=1, node_set=frozenset({2})),
                 Island(label=2, node_set=frozenset({4, 5}))),
        cut_set=())
    report = validate_partition(net, part)
    assert report.issues == ("island 1 is not connected",
                             "island label 1 is used more than once")
    assert not report.all_ok


def test_validate_partition_lists_every_issue_in_order(five_path):
    # overlaps, then cover, then per island its repeated label,
    # connectivity and generator; island 4 has no known bus at all
    part = Partition(
        islands=(Island(label=1, node_set=frozenset({1, 2})),
                 Island(label=2, node_set=frozenset({2, 3, 9})),
                 Island(label=2, node_set=frozenset({5})),
                 Island(label=3, node_set=frozenset({1, 3})),
                 Island(label=4, node_set=frozenset({8}))),
        cut_set=())
    assert validate_partition(five_path, part).issues == (
        "island 2 overlaps earlier islands on [2]",
        "island 3 overlaps earlier islands on [1, 3]",
        "uncovered nodes: [4]",
        "unknown nodes: [8, 9]",
        "island 2 has no generator",
        "island label 2 is used more than once",
        "island 2 has no generator",
        "island 3 is not connected",
        "island 4 is not connected",
        "island 4 has no generator")


def test_island_imbalance(five_path):
    isl = Island(label=1, node_set=frozenset({1, 2}))
    # +1.0 - 0.4 pu on a 100 MVA base
    assert island_imbalance(five_path, isl) == pytest.approx(0.6)


def test_island_imbalance_does_not_depend_on_set_order():
    # ids 1024 apart share a hash slot, so a set's iteration order is the
    # order its members were added in; plain summation in that order
    # gives four different totals over these six injections
    ids = [1024 * k + 1 for k in range(6)]
    net = make_network(dict(zip(ids, (0.1, 0.2, 0.3, -0.7, 1e-3, 0.4))),
                       list(zip(ids, ids[1:])))
    imbalances = {island_imbalance(net, Island(label=1,
                                               node_set=frozenset(order)))
                  for order in itertools.permutations(ids)}
    assert imbalances == {math.fsum(net_injection(net, n) for n in ids)}


def test_island_requires_nonempty():
    with pytest.raises(ValueError):
        Island(label=1, node_set=frozenset())


def test_disconnected_network_flagged_not_rejected():
    net = make_network({1: 1.0, 2: -1.0, 3: 0.5, 4: -0.5},
                       [(1, 2), (3, 4)], generator_set={1, 3})
    assert not net.connected
    assert net.subgraph_connected({1, 2})
    assert not net.subgraph_connected({2, 3})


def test_components_in_order_of_lowest_id(five_path):
    net = make_network({1: 1.0, 2: 0.5, 3: -0.5, 4: 0.2, 5: -0.6, 6: -0.6},
                       [(5, 1), (3, 6), (6, 2)])
    assert net.components() == [(1, 5), (2, 3, 6), (4,)]
    assert five_path.components() == [five_path.node_ids()]


def test_ieee118_shape(net118, net118_faulted):
    assert net118.n_buses == 118
    assert len(net118.branches) == 186
    assert net118.connected
    assert len(net118.edge_set()) == 179
    # the fault removes one circuit but keeps the branch count
    assert len(net118_faulted.branches) == 186
    assert sum(br.status for br in net118_faulted.branches) == 185
    assert len(net118_faulted.edge_set()) == 178
    assert net118_faulted.connected


def test_ieee118_power_totals(net118):
    demand = sum(b.p_demand for b in net118.buses)
    gen = sum(b.p_gen_scheduled for b in net118.buses)
    assert demand == pytest.approx(4242.0)
    assert gen == pytest.approx(4377.4)
    surplus = sum(net_injection(net118, n) for n in net118.node_ids())
    assert surplus == pytest.approx(1.354, rel=1e-12)
