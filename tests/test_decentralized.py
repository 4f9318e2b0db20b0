"""Self-organizing growth, one agent at a time, and its frequency
estimator."""

import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from grid_islander import (ConfigError, DegenerateEstimate, Island,
                           IslandRegistry, Stalled, UndefinedSize,
                           agent_decide, apply_fault, build_layer,
                           estimate_island_power, net_injection,
                           run_decentralized, sync_frequency,
                           validate_partition)
from grid_islander import decentralized
from grid_islander.decentralized import _evaluate, _frontier
from conftest import make_network


def seeds(*node_sets):
    return [Island(label=k + 1, node_set=frozenset(ns))
            for k, ns in enumerate(node_sets)]


def injection_table(net):
    return {n: net_injection(net, n) for n in net.node_ids()}


# ---------------------------------------------------------------- estimator

def test_estimator_worked_examples():
    # island at mean 1.0 that slows to 0.75 when a 0.25 pu node attaches
    power, size = estimate_island_power(1.0, 0.75, 0.25)
    assert power == pytest.approx(2.0)
    assert size == pytest.approx(2.0)
    # surplus island observed by a load
    power, size = estimate_island_power(0.5, 1.0 / 6.0, -0.5)
    assert power == pytest.approx(1.0)
    assert size == pytest.approx(2.0)


def test_estimator_recovers_island_from_mean_frequencies():
    # oracle: the two mean-frequency relations as a 2x2 linear system
    rng = random.Random(42)
    done = 0
    while done < 100:
        m = rng.randint(2, 12)
        island = [rng.uniform(-2, 2) for _ in range(m)]
        p = rng.uniform(-2, 2)
        total = sum(island)
        w_island = total / m
        w_aug = (total + p) / (m + 1)
        if abs(w_island - w_aug) < 1e-6 or w_island == 0.0:
            continue
        a = np.array([[1.0, -w_island], [1.0, -w_aug]])
        b = np.array([0.0, w_aug - p])
        power_ref, size_ref = np.linalg.solve(a, b)
        power, size = estimate_island_power(w_island, w_aug, p)
        assert power == pytest.approx(power_ref, rel=1e-9)
        assert size == pytest.approx(size_ref, rel=1e-9)
        assert power == pytest.approx(total, rel=1e-9)
        assert size == pytest.approx(m, rel=1e-9)
        done += 1


def test_estimator_degenerate_when_node_matches_mean():
    # attaching a node at exactly the island mean shifts nothing
    with pytest.raises(DegenerateEstimate):
        estimate_island_power(0.5, 0.5, 0.5)
    with pytest.raises(DegenerateEstimate):
        estimate_island_power(1.0, 1.0 + 1e-12, 1.0)


def test_estimator_undefined_size_for_balanced_island():
    with pytest.raises(UndefinedSize):
        estimate_island_power(0.0, 0.25, 0.5)


# --------------------------------------------------------------- join rules

def test_load_joins_largest_positive_island():
    assert agent_decide(-0.5, {1: 2.0, 2: 3.0}) == (2, "largest imbalance")
    # ties break to the lowest label
    label, _ = agent_decide(-0.5, {1: 2.0, 2: 2.0})
    assert label == 1
    # zero or negative islands cannot feed a load
    label, _ = agent_decide(-0.5, {1: 0.0, 2: -1.0})
    assert label is None
    # degenerate estimates are ignored
    label, _ = agent_decide(-0.5, {1: None, 2: 1.5})
    assert label == 2


def test_generator_joins_smallest_island():
    assert agent_decide(0.5, {1: 2.0, 2: -1.0}) == (2, "smallest imbalance")
    label, _ = agent_decide(0.5, {1: 1.0, 2: 1.0})
    assert label == 1
    label, _ = agent_decide(0.0, {1: None, 2: None})
    assert label is None


def test_enclosure_beats_estimates():
    assert agent_decide(-0.5, {1: 3.0, 2: 1.0}, enclosing=2) == \
        (2, "enclosure")
    # even with nothing usable
    label, _ = agent_decide(0.5, {}, enclosing=1)
    assert label == 1


# ------------------------------------------------------------------- engine

def figure_instance():
    """Two seeded islands and one undecided load in the middle."""
    net = make_network({1: 2.0, 2: 1.0, 3: 0.5, 4: -0.5, 5: 0.2},
                       [(1, 3), (3, 4), (4, 5), (2, 5)],
                       generator_set={1, 2})
    return net, seeds({1, 3}, {2, 5})


def test_load_picks_strongest_island():
    net, initial = figure_instance()
    result = run_decentralized(net, initial)
    assert result.rounds == 1
    part = result.partition
    assert part.island(1).node_set == frozenset({1, 3, 4})
    assert part.island(2).node_set == frozenset({2, 5})
    assert validate_partition(net, part).all_ok
    estimate = next(e for e in result.events
                    if e["node"] == 4 and e["action"] == "estimate")
    assert estimate["payload"]["estimates"]["1"] == pytest.approx(2.5)
    assert estimate["payload"]["estimates"]["2"] == pytest.approx(1.2)
    join = next(e for e in result.events if e["action"] == "join")
    assert join["node"] == 4
    assert join["payload"]["island"] == 1


def test_later_agent_reads_earlier_join_in_its_round():
    # nodes 2 and 3 both border island 1; node 2 joins first, and node 3,
    # later in the same round, reads the island with node 2 in it
    net = make_network({1: 1.0, 2: -0.3, 3: -0.4, 4: -0.8, 9: 0.5},
                       [(1, 2), (1, 3), (3, 4), (4, 9)],
                       generator_set={1, 9})
    result = run_decentralized(net, seeds({1}, {9}))
    assert result.rounds == 1
    assert [(e["node"], e["action"]) for e in result.events[:4]] == [
        (2, "estimate"), (2, "join"), (3, "estimate"), (3, "join")]
    join2, estimate3 = result.events[1], result.events[2]
    assert join2["payload"]["island_freq"] == pytest.approx(0.35)
    assert estimate3["payload"]["islands"] == \
        {"1": join2["payload"]["island_freq"]}
    # the estimate is island 1's total with node 2 in it, 1.0 - 0.3
    assert estimate3["payload"]["estimates"]["1"] == pytest.approx(0.7)
    assert validate_partition(net, result.partition).all_ok


def test_enclosed_node_commits_despite_stale_registry():
    net = make_network(
        {0: -0.2, 1: 1.0, 2: -0.1, 3: -0.3, 4: -0.4, 9: 0.6},
        [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 9)],
        generator_set={1, 9})
    result = run_decentralized(net, seeds({1, 2}, {9}))
    join3 = next(e for e in result.events
                 if e["action"] == "join" and e["node"] == 3)
    assert join3["round"] == 1
    assert join3["payload"]["reason"] == "enclosure"
    # node 0 joined first in the same round, so the registry had already
    # moved; enclosure reads no frequency and joins anyway
    join0 = next(e for e in result.events
                 if e["action"] == "join" and e["node"] == 0)
    assert join0["round"] == 1
    assert validate_partition(net, result.partition).all_ok


def test_fallback_after_deadlock(caplog):
    # both islands run a deficit, so the load between them waits forever
    net = make_network({1: -0.5, 5: -0.2, 9: -0.3},
                       [(1, 5), (5, 9)], generator_set={1, 9})
    with caplog.at_level(logging.WARNING,
                         logger="grid_islander.decentralized"):
        result = run_decentralized(net, seeds({1}, {9}))
    assert result.fallback_nodes == (5,)
    assert result.rounds == 1   # the first quiet round falls back
    # the load goes to the least-negative adjacent island
    assert 5 in result.partition.island(2).node_set
    fallback = next(e for e in result.events
                    if e["action"] == "join" and e["node"] == 5)
    assert fallback["payload"]["reason"] == "fallback"
    assert any("stalled" in rec.message for rec in caplog.records)


def test_fallback_sends_other_nodes_to_smallest_island():
    # node 5 sits at both islands' mean, so neither estimate is usable
    # and it waits; the fallback then weighs the exact island sums
    net = make_network({1: 0.2, 2: 0.2, 5: 0.2, 9: 0.2},
                       [(1, 2), (2, 5), (5, 9)], generator_set={1, 9})
    result = run_decentralized(net, seeds({1, 2}, {9}))
    waits = [e for e in result.events if e["action"] == "wait"]
    assert {e["payload"]["reason"] for e in waits} == {"no usable estimate"}
    assert result.fallback_nodes == (5,)
    # 0.2 beats 0.4: the smaller sum, not the larger or the lower label
    assert 5 in result.partition.island(2).node_set


@pytest.mark.parametrize("injection", [-0.2, 0.2])
def test_fallback_tie_goes_to_lowest_label(injection):
    # equal islands on both sides: a load finds no surplus and a
    # generator no usable estimate, so both wait for the fallback
    side = -0.3 if injection < 0 else injection
    net = make_network({1: side, 5: injection, 9: side},
                       [(1, 5), (5, 9)], generator_set={1, 9})
    result = run_decentralized(net, seeds({1}, {9}))
    assert result.fallback_nodes == (5,)
    assert 5 in result.partition.island(1).node_set


def test_stalled_when_unreachable():
    net = make_network({1: 1.0, 2: 0.4, 7: 0.5, 8: -0.5},
                       [(1, 2), (7, 8)], generator_set={1, 2, 7})
    with pytest.raises(Stalled) as err:
        run_decentralized(net, seeds({1}, {2}))
    assert err.value.blocked == (7, 8)
    assert err.value.round_index == 1


def test_wait_events_logged():
    net = make_network({1: -0.5, 5: -0.2, 9: -0.3},
                       [(1, 5), (5, 9)], generator_set={1, 9})
    result = run_decentralized(net, seeds({1}, {9}))
    waits = [e for e in result.events if e["action"] == "wait"]
    assert len(waits) == 1   # one quiet round, then the fallback
    assert waits[0]["node"] == 5
    assert waits[0]["payload"]["reason"] == "no positive island"


def random_instance(rng, n_islands=2):
    n = rng.randint(5, 12)
    nodes = list(range(1, n + 1))
    edges = {(i, i + 1) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(nodes, 2)
        edges.add((min(a, b), max(a, b)))
    gens = rng.sample(nodes, n_islands)
    injections = {}
    for node in nodes:
        if node in gens:
            injections[node] = rng.uniform(1.0, 2.5)
        else:
            injections[node] = rng.uniform(-0.6, 0.1)
    net = make_network(injections, sorted(edges), generator_set=set(gens))
    return net, seeds(*({g} for g in sorted(gens)))


def test_random_instances_valid_and_within_budget():
    rng = random.Random(2024)
    for trial in range(25):
        net, initial = random_instance(rng, n_islands=rng.choice([2, 3]))
        result = run_decentralized(net, initial)
        assert validate_partition(net, result.partition).all_ok, \
            f"trial {trial}"
        assert len(result.layer_evaluations) == result.rounds
        for count in result.layer_evaluations:
            assert count <= result.evaluation_bound


def test_runs_are_deterministic():
    rng = random.Random(15)
    net, initial = random_instance(rng)
    a = run_decentralized(net, initial)
    b = run_decentralized(net, initial)
    assert a.partition == b.partition
    assert a.events == b.events
    assert a.rounds == b.rounds


def _registry_state(registry):
    return ({lbl: set(members) for lbl, members in registry.islands.items()},
            dict(registry.total), dict(registry.island_freq),
            dict(registry.owner))


def test_quiet_round_is_a_fixed_point(monkeypatch, scenario118, net118):
    """A round with no join leaves the registry as it read it, so the
    next round would evaluate every agent the same way again; the
    fallback therefore joins in the first quiet round."""
    evaluate = decentralized._evaluate
    fallback = decentralized._fallback_attach
    calls, at_fallback = [], []

    def observe(network, registry, node):
        evaluation = evaluate(network, registry, node)
        calls.append((_registry_state(registry), node, evaluation))
        return evaluation

    def observe_fallback(network, registry, all_nodes, emit):
        state = _registry_state(registry)
        at_fallback.append([(state, node, evaluate(network, registry, node))
                            for node in _frontier(network, registry,
                                                  all_nodes)])
        return fallback(network, registry, all_nodes, emit)

    monkeypatch.setattr(decentralized, "_evaluate", observe)
    monkeypatch.setattr(decentralized, "_fallback_attach", observe_fallback)

    def check(net, initial):
        calls.clear()
        at_fallback.clear()
        result = run_decentralized(net, initial)
        committed = {e["round"] for e in result.events
                     if e["action"] == "join"
                     and e["payload"]["reason"] != "fallback"}
        quiet = [r for r in range(1, result.rounds + 1)
                 if r not in committed]
        if not result.fallback_nodes:
            assert quiet == [] and at_fallback == []
            return False
        assert quiet == [result.rounds]
        # every agent of the quiet round read the registry the fallback
        # starts from, and the agents it would visit next evaluate
        # identically
        rounds = [e["round"] for e in result.events
                  if e["action"] == "estimate"]
        assert len(rounds) == len(calls)
        assert at_fallback == [[call for call, r in zip(calls, rounds)
                                if r == quiet[0]]]
        first = next(e for e in result.events
                     if e["payload"].get("reason") == "fallback")
        assert first["round"] == quiet[0]
        return True

    rng = random.Random(27)
    deadlock = make_network({1: -0.5, 5: -0.2, 9: -0.3},
                            [(1, 5), (5, 9)], generator_set={1, 9})
    instances = [(deadlock, seeds({1}, {9}))] + [
        random_instance(rng, n_islands=rng.choice([2, 3]))
        for _ in range(40)]
    assert sum(check(net, initial) for net, initial in instances) >= 2

    # the shipped seeds under every single-branch fault the sweep of
    # demos/05 grows, the shipped fault 14-15 among them; only fault
    # 44-45 falls back
    initial = seeds(*scenario118.initial_islands)
    fell_back, grown = [], 0
    for pair in sorted(net118.edge_set()):
        try:
            if check(apply_fault(net118, pair), initial):
                fell_back.append(pair)
        except (ConfigError, Stalled):
            continue
        grown += 1
    assert (grown, fell_back) == (147, [(44, 45)])


def _random_connected(rng, net, size):
    """A random connected node set of ``size`` nodes of ``net``."""
    nodes = {rng.choice(net.node_ids())}
    while len(nodes) < size:
        frontier = sorted({p for n in nodes for p in net.neighbors(n)}
                          - nodes)
        nodes.add(rng.choice(frontier))
    assert net.subgraph_connected(nodes)
    return frozenset(nodes)


def _grid_network(rng, side):
    """A side x side lattice with random injections, ids 1..side**2."""
    ids = range(1, side * side + 1)
    edges = [(n, n + 1) for n in ids if n % side] + \
        [(n, n + side) for n in ids if n + side <= side * side]
    return make_network({n: rng.uniform(-0.6, 0.8) for n in ids}, edges)


def test_estimates_come_from_running_totals(net118):
    # the registry's total is the seed set's exact sum plus each joiner
    # in commit order; every estimate reads it, and the augmented mean stays
    # within summation rounding of the agent's own layer mean (the
    # lattice's islands pass numpy's pairwise block of 128 values)
    rng = random.Random(118)
    lattice = _grid_network(rng, 15)
    cases = [(net118, rng.randint(1, 117)) for _ in range(40)] + \
        [(lattice, rng.randint(129, 200)) for _ in range(3)]
    eps = np.finfo(float).eps
    for net, size in cases:
        injection = injection_table(net)
        island = _random_connected(rng, net, size)
        joiners = sorted(island)
        rng.shuffle(joiners)
        start = set(joiners[:rng.randint(1, size)])
        registry = IslandRegistry(islands={1: start}, injection=injection)
        total = math.fsum(injection[n] for n in start)
        for node in joiners:
            if node not in start:
                registry.join(node, 1)
                total += injection[node]
        assert registry.total == {1: total}
        assert registry.island_freq == {1: total / size}

        agents = sorted({p for n in island for p in net.neighbors(n)}
                        - island)
        for agent in agents:
            snapshot, _, info = _evaluate(net, registry, agent)
            p = injection[agent]
            augmented = registry.augmented_freq(1, p)
            assert augmented == (total + p) / (size + 1)
            try:
                expected, _ = estimate_island_power(total / size, augmented,
                                                    p)
            except DegenerateEstimate:
                expected = None
            except UndefinedSize:
                expected = 0.0
            assert snapshot == {1: total / size}
            assert info["estimates"] == {"1": expected}
            layer_mean = sync_frequency(build_layer(net, island | {agent}))
            assert abs(augmented - layer_mean) <= eps * sum(
                abs(injection[n]) for n in island | {agent})


def test_each_agent_reads_the_registry_at_its_turn(scenario118,
                                                  net118_faulted):
    # replaying the shipped run's joins in event order, every estimate
    # and decision is the agent's own evaluation of the registry as it
    # stood at that event
    net = net118_faulted
    initial = seeds(*scenario118.initial_islands)
    result = run_decentralized(net, initial)
    registry = IslandRegistry.seeded(net, initial)
    replayed = 0
    for event in result.events:
        payload = event["payload"]
        if event["action"] == "estimate":
            _, decision, info = _evaluate(net, registry, event["node"])
            assert info == payload
            replayed += 1
        elif event["action"] == "wait":
            assert decision == (None, payload["reason"])
        else:
            assert decision == (payload["island"], payload["reason"])
            registry.join(event["node"], payload["island"])
            assert payload["island_freq"] == \
                registry.island_freq[payload["island"]]
    assert replayed == 85
    assert registry.partition(net) == result.partition


def test_shipped_run_builds_no_layer(scenario118, net118_faulted,
                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decentralized run built an oscillator "
                             "layer")

    monkeypatch.setattr("grid_islander.decentralized.build_layer", refuse)
    islands = [Island(label=k + 1, node_set=frozenset(nodes))
               for k, nodes in enumerate(scenario118.initial_islands)]
    result = run_decentralized(net118_faulted, islands)
    assert result.rounds == 4
    assert result.fallback_nodes == ()
    actions = Counter(e["action"] for e in result.events)
    assert actions == {"estimate": 85, "join": 85}


def test_watched_islands_follow_membership():
    """The registry's owner map gives each agent the watched islands and
    the enclosing island a scan of every island's members gives, as
    joins commit one by one."""
    rng = random.Random(77)
    enclosed = 0
    for trial in range(20):
        net, initial = random_instance(rng, n_islands=3)
        registry = IslandRegistry(
            islands={isl.label: set(isl.node_set) for isl in initial},
            injection=injection_table(net))
        free = sorted(set(net.node_ids()) - set(registry.owner))
        rng.shuffle(free)
        for joiner in free:
            for node in sorted(set(net.node_ids()) - set(registry.owner)):
                neighbors = net.neighbors(node)
                watched = {lbl for lbl, members in registry.islands.items()
                           if any(p in members for p in neighbors)}
                if not watched:
                    continue
                enclosing = [lbl for lbl in watched
                             if set(neighbors) <= registry.islands[lbl]]
                snapshot, (label, reason), _ = _evaluate(net, registry,
                                                         node)
                assert set(snapshot) == watched, f"trial {trial}"
                if enclosing:
                    enclosed += 1
                    assert (label, reason) == (enclosing[0], "enclosure")
                else:
                    assert reason != "enclosure"
            registry.join(joiner, rng.choice(sorted(registry.islands)))
            assert registry.owner == {node: lbl for lbl, members
                                      in registry.islands.items()
                                      for node in members}
            # join republishes the island's mean injection
            assert registry.island_freq == pytest.approx(
                {lbl: np.mean([registry.injection[n] for n in members])
                 for lbl, members in registry.islands.items()})
    assert enclosed > 0


# ----------------------------------------------------------------- locality

def _perturb_far_islands(registry, watched, far_node):
    """Copy the registry, then distort every island the agent ignores."""
    clone = IslandRegistry(
        islands={lbl: set(m) for lbl, m in registry.islands.items()},
        injection=registry.injection)
    clone.total = dict(registry.total)
    clone.island_freq = dict(registry.island_freq)
    for lbl in clone.islands:
        if lbl not in watched:
            clone.total[lbl] += 1.9
            clone.island_freq[lbl] += 0.37
            clone.islands[lbl].add(far_node)
    return clone


def test_agent_decisions_ignore_far_islands():
    rng = random.Random(404)
    for trial in range(15):
        net, initial = random_instance(rng, n_islands=3)
        registry = IslandRegistry(
            islands={isl.label: set(isl.node_set) for isl in initial},
            injection=injection_table(net))
        assigned = set().union(*(isl.node_set for isl in initial))
        far_node = max(net.node_ids()) + 100
        for node in sorted(set(net.node_ids()) - assigned):
            if not any(p in assigned for p in net.neighbors(node)):
                continue
            snapshot, decision, info = _evaluate(net, registry, node)
            if len(snapshot) == len(initial):
                continue   # node sees every island; nothing is far
            twisted = _perturb_far_islands(registry, snapshot, far_node)
            snapshot2, decision2, info2 = _evaluate(net, twisted, node)
            assert decision2 == decision
            assert info2["estimates"] == info["estimates"]
            assert snapshot2 == snapshot
