"""Round-based self-organizing growth and its frequency estimator."""

import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from grid_islander import (Decision, DegenerateEstimate, Island,
                           IslandRegistry, NodeAgent, Stalled, UndefinedSize,
                           agent_decide, build_layer, estimate_island_power,
                           net_injection, run_decentralized, staleness_check,
                           sync_frequency, validate_partition)
from grid_islander.decentralized import _evaluate_agent, _mean_injection
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

def _agent(injection, watched=(1, 2)):
    return NodeAgent(node_id=7, injection=injection,
                     neighbor_islands=frozenset(watched),
                     snapshot_freqs={})


def test_load_joins_largest_positive_island():
    d = agent_decide(_agent(-0.5), {1: 2.0, 2: 3.0})
    assert d == Decision(action="join", label=2, reason="largest imbalance")
    # ties break to the lowest label
    d = agent_decide(_agent(-0.5), {1: 2.0, 2: 2.0})
    assert d.label == 1
    # zero or negative islands cannot feed a load
    d = agent_decide(_agent(-0.5), {1: 0.0, 2: -1.0})
    assert d.action == "wait"
    # degenerate estimates are ignored
    d = agent_decide(_agent(-0.5), {1: None, 2: 1.5})
    assert d.label == 2


def test_generator_joins_smallest_island():
    d = agent_decide(_agent(0.5), {1: 2.0, 2: -1.0})
    assert d == Decision(action="join", label=2, reason="smallest imbalance")
    d = agent_decide(_agent(0.5), {1: 1.0, 2: 1.0})
    assert d.label == 1
    d = agent_decide(_agent(0.0), {1: None, 2: None})
    assert d.action == "wait"


def test_enclosure_beats_estimates():
    d = agent_decide(_agent(-0.5), {1: 3.0, 2: 1.0}, enclosing=2)
    assert d == Decision(action="join", label=2, reason="enclosure")
    # even with nothing usable
    d = agent_decide(_agent(0.5), {}, enclosing=1)
    assert d.label == 1


def test_staleness_threshold():
    agent = NodeAgent(node_id=3, injection=-0.2,
                      neighbor_islands=frozenset({1}),
                      snapshot_freqs={1: 0.5})
    registry = IslandRegistry(islands={1: {1, 2}}, island_freq={1: 0.5})
    assert staleness_check(agent, registry, epsilon=1e-3) == "fresh"
    registry.island_freq[1] = 0.5 + 2e-3
    assert staleness_check(agent, registry, epsilon=1e-3) == "stale"
    # drift exactly at epsilon already counts as stale
    registry.island_freq[1] = 0.5 + 1e-3
    assert staleness_check(agent, registry, epsilon=1e-3) == "stale"


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


def test_second_joiner_aborts_on_stale_snapshot():
    net = make_network({1: 1.0, 2: -0.3, 3: -0.4, 4: -0.8, 9: 0.5},
                       [(1, 2), (1, 3), (3, 4), (4, 9)],
                       generator_set={1, 9})
    result = run_decentralized(net, seeds({1}, {9}))
    stale = [e for e in result.events if e["action"] == "stale"]
    assert [e["node"] for e in stale] == [3]
    assert stale[0]["round"] == 1
    # node 3 retries and lands in the next round
    join3 = next(e for e in result.events
                 if e["action"] == "join" and e["node"] == 3)
    assert join3["round"] == 2
    assert result.rounds >= 2
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
    # node 0 committed first in the same round, so the registry had
    # already moved; enclosure joins anyway
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
        result = run_decentralized(net, seeds({1}, {9}),
                                   max_stalled_rounds=3)
    assert result.fallback_nodes == (5,)
    assert result.rounds == 3
    # the load goes to the least-negative adjacent island
    assert result.partition.label_of(5) == 2
    fallback = next(e for e in result.events
                    if e["action"] == "join" and e["node"] == 5)
    assert fallback["payload"]["reason"] == "fallback"
    assert any("stalled" in rec.message for rec in caplog.records)


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
    result = run_decentralized(net, seeds({1}, {9}), max_stalled_rounds=2)
    waits = [e for e in result.events if e["action"] == "wait"]
    assert len(waits) == 2   # one per stalled round
    assert all(e["node"] == 5 for e in waits)
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


def test_commit_order_shuffle_still_valid():
    rng = random.Random(31)
    for trial in range(5):
        net, initial = random_instance(rng)
        shuffled = run_decentralized(net, initial, commit_order_seed=trial)
        assert validate_partition(net, shuffled.partition).all_ok


def test_max_stalled_rounds_sets_fallback_round():
    net = make_network({1: -0.5, 5: -0.2, 9: -0.3},
                       [(1, 5), (5, 9)], generator_set={1, 9})
    result = run_decentralized(net, seeds({1}, {9}), max_stalled_rounds=1)
    assert result.rounds == 1   # fallback fires after a single quiet round
    assert result.fallback_nodes == (5,)


def test_mean_injection_is_bit_identical_to_layer_mean(net118):
    # the analytic augmented frequency must equal the layer's mean
    # exactly, or estimates and events.json would move
    rng = random.Random(118)
    injection = injection_table(net118)
    ids = net118.node_ids()
    for _ in range(50):
        nodes = {rng.choice(ids)}
        target = rng.randint(2, len(ids))
        while len(nodes) < target:
            frontier = sorted({p for n in nodes for p in net118.neighbors(n)}
                              - nodes)
            nodes.add(rng.choice(frontier))
        assert net118.subgraph_connected(nodes)
        nodes = frozenset(nodes)
        assert _mean_injection(injection, nodes) == \
            sync_frequency(build_layer(net118, nodes))


def test_shipped_run_builds_no_layer(scenario118, net118_faulted,
                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decentralized run built an oscillator "
                             "layer")

    monkeypatch.setattr("grid_islander.decentralized.build_layer", refuse)
    islands = [Island(label=k + 1, node_set=frozenset(nodes))
               for k, nodes in enumerate(scenario118.initial_islands)]
    result = run_decentralized(
        net118_faulted, islands, epsilon=scenario118.freq_epsilon,
        max_stalled_rounds=scenario118.max_stalled_rounds)
    assert result.rounds == 45
    assert result.fallback_nodes == (105, 106, 109, 107, 108)
    actions = Counter(e["action"] for e in result.events)
    assert actions == {"snapshot": 1038, "estimate": 1038, "stale": 949,
                       "join": 85, "wait": 9}


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
            island_freq={isl.label: net_injection(net, min(isl.node_set))
                         for isl in initial})
        injection = injection_table(net)
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
                agent, _, _ = _evaluate_agent(net, registry, node,
                                              injection)
                assert agent.neighbor_islands == watched, f"trial {trial}"
                if enclosing:
                    enclosed += 1
                    assert agent.decision == Decision(
                        action="join", label=enclosing[0],
                        reason="enclosure")
                else:
                    assert agent.decision.reason != "enclosure"
            registry.join(joiner, rng.choice(sorted(registry.islands)))
            assert registry.owner == {node: lbl for lbl, members
                                      in registry.islands.items()
                                      for node in members}
    assert enclosed > 0


# ----------------------------------------------------------------- locality

def _perturb_far_islands(registry, watched, far_node):
    """Copy the registry, then distort every island the agent ignores."""
    clone = IslandRegistry(
        islands={lbl: set(m) for lbl, m in registry.islands.items()},
        island_freq=dict(registry.island_freq),
        round_index=registry.round_index)
    for lbl in clone.islands:
        if lbl not in watched:
            clone.island_freq[lbl] += 0.37
            clone.islands[lbl].add(far_node)
    return clone


def test_agent_decisions_ignore_far_islands():
    rng = random.Random(404)
    for trial in range(15):
        net, initial = random_instance(rng, n_islands=3)
        registry = IslandRegistry(
            islands={isl.label: set(isl.node_set) for isl in initial},
            island_freq={})
        for isl in initial:
            total = sum(net_injection(net, n) for n in isl.node_set)
            registry.island_freq[isl.label] = total / isl.size
        injection = injection_table(net)
        assigned = set().union(*(isl.node_set for isl in initial))
        far_node = max(net.node_ids()) + 100
        for node in sorted(set(net.node_ids()) - assigned):
            if not any(p in assigned for p in net.neighbors(node)):
                continue
            agent, estimates, _ = _evaluate_agent(
                net, registry, node, injection)
            if len(agent.neighbor_islands) == len(initial):
                continue   # node sees every island; nothing is far
            twisted = _perturb_far_islands(registry,
                                           agent.neighbor_islands, far_node)
            again, estimates2, _ = _evaluate_agent(
                net, twisted, node, injection)
            assert again.decision == agent.decision
            assert estimates2 == estimates
            assert again.snapshot_freqs == agent.snapshot_freqs
