"""Oscillator layer: construction, integration, coherence, sync times."""

import dataclasses
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from grid_islander import (CyberLayer, EmptyLayer, EnsembleResult, GridError,
                           NotFound, NumericalDivergence, build_layer,
                           coupling_susceptance, derivative,
                           ensemble_integrate, ensemble_run,
                           ensemble_sync_times, integrate, net_injection,
                           order_parameter, order_parameter_series,
                           sample_initial_conditions, sync_frequency,
                           sync_times)
from conftest import make_network

# Stable on the faulted 118-bus layer: dt * 2 * max weighted degree is
# 2.68, inside RK4's real-axis limit 2.785.
STABLE_DT = 0.0035


def two_node_layer(p1, p2, b=1.0):
    return CyberLayer(node_ids=(1, 2),
                      natural_frequency=np.array([p1, p2]),
                      coupling=np.array([[0.0, b], [b, 0.0]]))


def random_layer(rng, n):
    coupling = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w = rng.uniform(0.2, 2.0)
                coupling[i, j] = coupling[j, i] = w
    freqs = np.array([rng.uniform(-2, 2) for _ in range(n)])
    return CyberLayer(node_ids=tuple(range(1, n + 1)),
                      natural_frequency=freqs, coupling=coupling)


def test_layer_rejects_bad_coupling():
    with pytest.raises(ValueError):
        CyberLayer(node_ids=(1, 2), natural_frequency=np.zeros(2),
                   coupling=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        CyberLayer(node_ids=(1, 2), natural_frequency=np.zeros(2),
                   coupling=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError):
        CyberLayer(node_ids=(1, 2), natural_frequency=np.zeros(2),
                   coupling=np.array([[0.5, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        CyberLayer(node_ids=(1, 2), natural_frequency=np.zeros(3),
                   coupling=np.zeros((2, 2)))


def test_layer_index_lookup():
    layer = two_node_layer(0.1, -0.1)
    assert layer.size == 2
    assert layer.index(2) == 1
    with pytest.raises(NotFound):
        layer.index(9)


def test_build_layer_couplings_match_branches(five_path):
    layer = build_layer(five_path, five_path.node_ids())
    assert layer.node_ids == (1, 2, 3, 4, 5)
    for br in five_path.in_service_branches():
        a = layer.index(br.from_bus)
        b = layer.index(br.to_bus)
        expected = coupling_susceptance(br)
        assert layer.coupling[a, b] == pytest.approx(expected, rel=1e-12)
    for node in five_path.node_ids():
        k = layer.index(node)
        assert layer.natural_frequency[k] == pytest.approx(
            net_injection(five_path, node))


def test_build_layer_sums_parallel_circuits():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2, 0.1), (1, 2, 0.2)],
                       generator_set={1})
    layer = build_layer(net, [1, 2])
    assert layer.coupling[0, 1] == pytest.approx(10.0 + 5.0)


def test_build_layer_subset_keeps_internal_edges_only(five_path):
    layer = build_layer(five_path, [2, 3, 5])
    a, b, c = layer.index(2), layer.index(3), layer.index(5)
    assert layer.coupling[a, b] > 0.0       # branch 2-3 is internal
    assert layer.coupling[a, c] == 0.0
    assert layer.coupling[b, c] == 0.0      # 5 connects only through 4


def test_build_layer_empty():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2)], generator_set={1})
    with pytest.raises(EmptyLayer):
        build_layer(net, [])


def test_derivative_matches_elementwise_oracle():
    rng = random.Random(5)
    for _ in range(20):
        layer = random_layer(rng, rng.randint(2, 9))
        phases = np.array([rng.uniform(-3, 3) for _ in range(layer.size)])
        got = derivative(layer, phases)
        for i in range(layer.size):
            manual = layer.natural_frequency[i] + sum(
                layer.coupling[i, j] * math.sin(phases[j] - phases[i])
                for j in range(layer.size))
            assert got[i] == pytest.approx(manual, abs=1e-12)


def test_mean_frequency_is_conserved():
    # antisymmetric coupling terms cancel in the average
    rng = random.Random(9)
    for _ in range(10):
        layer = random_layer(rng, rng.randint(2, 12))
        initial = sample_initial_conditions(layer.size, rng.randint(0, 999))
        _, phases = integrate(layer, initial, t_max=2.0, dt=0.05)
        mean_p = float(np.mean(layer.natural_frequency))
        drift = np.abs(derivative(layer, phases).mean(axis=1) - mean_p)
        assert drift.max() < 1e-12


def test_single_node_linear_phase():
    layer = CyberLayer(node_ids=(7,), natural_frequency=np.array([0.5]),
                       coupling=np.zeros((1, 1)))
    times, phases = integrate(layer, [0.0], t_max=2.0, dt=0.01)
    assert phases[-1, 0] == pytest.approx(1.0, abs=1e-12)
    assert times[-1] == pytest.approx(2.0)
    assert len(times) == 201


def test_integration_grid_and_states():
    layer = two_node_layer(0.1, -0.1)
    times, phases = integrate(layer, [0.0, 0.0], t_max=1.0, dt=0.1)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    assert times[3] == pytest.approx(0.3)
    assert phases[3].shape == (2,)
    assert derivative(layer, phases)[3].shape == (2,)


def test_rk4_fourth_order_convergence():
    layer = two_node_layer(0.1, -0.1)
    initial = [0.3, -0.2]
    ref = integrate(layer, initial, t_max=4.0, dt=0.0125)[1][-1]
    coarse = integrate(layer, initial, t_max=4.0, dt=0.2)[1][-1]
    fine = integrate(layer, initial, t_max=4.0, dt=0.1)[1][-1]
    e_coarse = np.abs(coarse - ref).max()
    e_fine = np.abs(fine - ref).max()
    assert e_fine > 0
    ratio = e_coarse / e_fine
    # halving dt should shrink the error by about 2**4
    assert 8.0 < ratio < 32.0


def test_rotational_invariance():
    rng = random.Random(3)
    layer = random_layer(rng, 6)
    initial = sample_initial_conditions(6, 11)
    shift = 1.234
    _, a = integrate(layer, initial, t_max=1.0, dt=0.02)
    _, b = integrate(layer, initial + shift, t_max=1.0, dt=0.02)
    assert np.abs((b - a) - shift).max() < 1e-9


def test_two_node_locks_at_analytic_lag():
    # fixed point: sin(lag) = (p1 - p2) / (2 b)
    layer = two_node_layer(0.1, -0.1, b=1.0)
    _, phases = integrate(layer, [0.0, 0.0], t_max=50.0, dt=0.01)
    lag = phases[-1, 0] - phases[-1, 1]
    assert lag == pytest.approx(math.asin(0.1), abs=1e-6)
    assert derivative(layer, phases)[-1] == pytest.approx([0.0, 0.0],
                                                           abs=1e-9)


def test_two_node_drifts_when_imbalance_exceeds_coupling():
    layer = two_node_layer(1.5, -1.5, b=1.0)
    _, phases = integrate(layer, [0.0, 0.0], t_max=20.0, dt=0.01)
    lag = phases[-1, 0] - phases[-1, 1]
    assert abs(lag) > 2 * math.pi   # phases keep separating


def test_divergence_detected():
    layer = CyberLayer(node_ids=(1,),
                       natural_frequency=np.array([1e308]),
                       coupling=np.zeros((1, 1)))
    with pytest.raises(NumericalDivergence) as err:
        integrate(layer, [0.0], t_max=5.0, dt=0.01)
    assert 0.0 < err.value.t <= 5.0


def test_initial_conditions_range_and_reproducibility():
    for seed in range(20):
        draw = sample_initial_conditions(40, seed)
        assert draw.shape == (40,)
        assert np.all(draw > -math.pi / 2)
        assert np.all(draw <= math.pi / 2)
    assert np.array_equal(sample_initial_conditions(10, 4),
                          sample_initial_conditions(10, 4))
    assert not np.array_equal(sample_initial_conditions(10, 4),
                              sample_initial_conditions(10, 5))


def test_ensemble_matches_single_runs():
    layer = two_node_layer(0.3, -0.3, b=2.0)
    ens = ensemble_integrate(layer, 5, seed=17, t_max=1.0, dt=0.05)
    assert ens.phases.shape == (5, 21, 2)
    assert ens.n_runs == 5
    for run in range(5):
        initial = sample_initial_conditions(2, [17, run])
        _, solo = integrate(layer, initial, t_max=1.0, dt=0.05)
        assert np.abs(ens.phases[run] - solo).max() < 1e-10


def test_ensemble_reproducible():
    layer = two_node_layer(0.3, -0.3)
    a = ensemble_integrate(layer, 4, seed=99, t_max=0.5, dt=0.05)
    b = ensemble_integrate(layer, 4, seed=99, t_max=0.5, dt=0.05)
    c = ensemble_integrate(layer, 4, seed=100, t_max=0.5, dt=0.05)
    assert np.array_equal(a.phases, b.phases)
    assert not np.array_equal(a.phases, c.phases)


def test_order_parameter_basics():
    layer = two_node_layer(0.0, 0.0)
    times = np.array([0.0, 0.1, 0.2])
    phases = np.zeros((3, 3, 2))
    phases[:, :, 0] = 1.3          # equal phases: coherence is exactly 1
    phases[:, :, 1] = 1.3
    ens = EnsembleResult(layer=layer, times=times, phases=phases, seed=0)
    assert order_parameter(ens, 1, 2, 0.1) == pytest.approx(1.0)
    series = order_parameter_series(ens, 1, 2)
    assert series.shape == (3,)
    with pytest.raises(GridError):
        order_parameter(ens, 1, 2, 0.05)
    with pytest.raises(GridError):
        order_parameter(ens, 1, 2, 0.3)


def test_order_parameter_averages_over_runs():
    layer = two_node_layer(0.0, 0.0)
    times = np.array([0.0, 0.1])
    phases = np.zeros((2, 2, 2))
    phases[0, :, 0] = 0.0          # run 0: lag 0
    phases[1, :, 0] = math.pi / 2  # run 1: lag pi/2
    ens = EnsembleResult(layer=layer, times=times, phases=phases, seed=0)
    assert order_parameter(ens, 1, 2, 0.0) == pytest.approx(0.5)


def _scan_fixture(lags):
    """One-run ensemble whose pair lag follows the given sequence."""
    layer = two_node_layer(0.0, 0.0)
    m = len(lags)
    times = np.arange(m) * 0.1
    phases = np.zeros((1, m, 2))
    phases[0, :, 0] = np.asarray(lags)
    return EnsembleResult(layer=layer, times=times, phases=phases, seed=0)


def test_sync_time_scan_semantics():
    big, small = 1.0, 0.01           # cos: 0.54 vs 0.99995
    ens = _scan_fixture([big, big, small, small, small])
    table = sync_times(ens, [(1, 2)], threshold=0.99)
    assert table.get(1, 2) == pytest.approx(0.2)

    ens = _scan_fixture([small] * 4)
    assert sync_times(ens, [(1, 2)], 0.99).get(1, 2) == 0.0

    ens = _scan_fixture([small, small, big])
    assert sync_times(ens, [(1, 2)], 0.99).get(1, 2) == math.inf

    # a dip back below the threshold pushes the sync time past it
    ens = _scan_fixture([small, big, small, small])
    assert sync_times(ens, [(1, 2)], 0.99).get(1, 2) == pytest.approx(0.2)


def test_sync_time_threshold_is_strict():
    # coherence exactly at the threshold does not count as synchronized
    edge = math.acos(0.99)
    ens = _scan_fixture([edge, 0.01, 0.01])
    table = sync_times(ens, [(1, 2)], threshold=0.99)
    assert table.get(1, 2) == pytest.approx(0.1)


def test_sync_times_on_real_dynamics():
    locking = two_node_layer(0.1, -0.1, b=1.0)
    ens = ensemble_integrate(locking, 10, seed=2, t_max=50.0, dt=0.01)
    t_lock = sync_times(ens, [(1, 2)]).get(1, 2)
    assert math.isfinite(t_lock)
    assert 0.0 <= t_lock < 50.0

    drifting = two_node_layer(0.5, -0.5, b=1.0)
    ens = ensemble_integrate(drifting, 10, seed=2, t_max=50.0, dt=0.01)
    assert sync_times(ens, [(1, 2)]).get(1, 2) == math.inf


def test_sync_frequency_analytic_and_measured():
    layer = two_node_layer(0.4, -0.2, b=3.0)
    assert sync_frequency(layer) == pytest.approx(0.1)
    # measured as the median frequency at the end of an integrated run
    _, phases = integrate(layer, [0.0, 0.0], t_max=60.0, dt=0.01)
    measured = float(np.median(derivative(layer, phases[-1])))
    assert measured == pytest.approx(0.1, abs=1e-6)


def test_sync_table_lookup_orderless():
    layer = two_node_layer(0.1, -0.1)
    ens = ensemble_integrate(layer, 3, seed=1, t_max=10.0, dt=0.01)
    table = sync_times(ens, [(2, 1)])
    assert table.get(1, 2) == table.get(2, 1)
    assert list(table.items()) == [((1, 2), table.get(1, 2))]


def _reference_sync_times(ens, edges, threshold):
    """The detection rule written out edge by edge on the stored series:
    the sample after the last one at or below the threshold."""
    entries = {}
    for a, b in edges:
        key = (a, b) if a < b else (b, a)
        bad = np.flatnonzero(order_parameter_series(ens, *key) <= threshold)
        if bad.size == 0:
            entries[key] = float(ens.times[0])
        elif bad[-1] == len(ens.times) - 1:
            entries[key] = math.inf
        else:
            entries[key] = float(ens.times[bad[-1] + 1])
    return entries


@pytest.mark.parametrize("seed", [2, 7])
def test_streamed_sync_times_are_exact(net118_faulted, seed):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    edges = sorted(net118_faulted.edge_set())
    runs, t_max = 12, 300 * STABLE_DT
    ens = ensemble_integrate(layer, runs, seed, t_max=t_max, dt=STABLE_DT)
    # Thresholds at order-parameter values the ensemble attains, and one
    # ulp below them: a rounding change in any mean flips a comparison.
    # One ulp below an edge's minimum, that edge is synced from the start.
    attained = [order_parameter_series(ens, *e)[-1] for e in edges[:8]]
    attained.append(order_parameter_series(ens, *edges[0]).min())
    thresholds = [0.99, *attained,
                  *(np.nextafter(v, -np.inf) for v in attained)]
    kinds = set()
    for threshold in thresholds:
        expected = _reference_sync_times(ens, edges, threshold)
        streamed = ensemble_sync_times(layer, runs, seed, edges, threshold,
                                       t_max=t_max, dt=STABLE_DT)
        assert streamed.entries == expected
        assert sync_times(ens, edges, threshold).entries == expected
        kinds |= {"start" if t == ens.times[0] else
                  "never" if math.isinf(t) else "settled"
                  for t in expected.values()}
    assert kinds == {"start", "never", "settled"}


def test_streamed_sync_times_edge_forms(net118_faulted):
    # Branch 1-3 with x = 0, r > 0 couples with zero weight, so 1-3 is no
    # layer edge. PowerNetwork refuses such a branch; the layer is edited.
    [branch] = [br for br in net118_faulted.branches
                if (br.from_bus, br.to_bus) == (1, 3)]
    assert coupling_susceptance(
        dataclasses.replace(branch, resistance=0.01, reactance=0.0)) == 0.0
    grid = build_layer(net118_faulted, net118_faulted.node_ids())
    coupling = grid.coupling.copy()
    a, b = grid.index(1), grid.index(3)
    coupling[a, b] = coupling[b, a] = 0.0
    layer = CyberLayer(grid.node_ids, grid.natural_frequency, coupling)
    iu, jv, _ = layer._edges
    assert (a, b) not in set(zip(iu, jv))
    edges = [(3, 1), (1, 3), (5, 4), (4, 5), (4, 5), (1, 2)]
    ens = ensemble_integrate(layer, 9, 3, t_max=200 * STABLE_DT,
                             dt=STABLE_DT)
    expected = _reference_sync_times(ens, edges, 0.9)
    streamed = ensemble_sync_times(layer, 9, 3, edges, 0.9,
                                   t_max=200 * STABLE_DT, dt=STABLE_DT)
    assert list(streamed.entries) == [(1, 3), (4, 5), (1, 2)]
    assert streamed.entries == expected
    assert sync_times(ens, edges, 0.9).entries == expected
    with pytest.raises(NotFound):
        ensemble_sync_times(layer, 9, 3, [(1, 999)], t_max=1.0,
                            dt=STABLE_DT)


def test_streamed_sync_memory_does_not_grow_with_steps(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    edges = sorted(net118_faulted.edge_set())

    def peak_bytes(steps):
        tracemalloc.start()
        try:
            ensemble_sync_times(layer, 4, 0, edges, t_max=steps * STABLE_DT,
                                dt=STABLE_DT)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    steps = 250
    # a stored trajectory would add 3 * 250 * 4 runs * 118 nodes * 8 bytes
    # = 2.8 MB here
    assert peak_bytes(4 * steps) - peak_bytes(steps) < 1e6


def test_stability_warning_follows_gershgorin_bound(net118_faulted, caplog):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    bound = 2.0 * layer.coupling.sum(axis=1).max()
    assert STABLE_DT * bound < 2.785 < 0.01 * bound
    with caplog.at_level(logging.WARNING, logger="grid_islander.kuramoto"):
        ensemble_sync_times(layer, 2, 0, [(1, 2)], t_max=10 * STABLE_DT,
                            dt=STABLE_DT)
        assert caplog.records == []
        ensemble_sync_times(layer, 2, 0, [(1, 2)], t_max=0.1, dt=0.01)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "integration artifacts" in record.getMessage()


def test_ensemble_run_is_the_stored_run(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    ens = ensemble_integrate(layer, 5, 3, t_max=100 * STABLE_DT,
                             dt=STABLE_DT)
    for run in (0, 4):
        times, phases = ensemble_run(layer, 5, 3, run,
                                     t_max=100 * STABLE_DT, dt=STABLE_DT)
        assert np.array_equal(times, ens.times)
        assert np.array_equal(phases, ens.phases[run])
        assert np.array_equal(derivative(layer, phases),
                              derivative(layer, ens.phases[run]))
    with pytest.raises(ValueError):
        ensemble_run(layer, 5, 3, 5, t_max=1.0, dt=STABLE_DT)
