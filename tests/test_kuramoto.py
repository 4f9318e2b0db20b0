"""Oscillator layer: construction, integration, coherence, sync times."""

import dataclasses
import errno
import logging
import math
import mmap
import os
import random
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grid_islander import (CyberLayer, EmptyLayer, NotFound,
                           NumericalDivergence, build_layer,
                           coupling_susceptance, derivative,
                           ensemble_integrate, ensemble_sync_times,
                           integrate, locked_state, net_injection,
                           sample_initial_conditions, sync_frequency,
                           sync_times)
from grid_islander import _certificate, kuramoto
from conftest import make_network

ROOT = Path(__file__).resolve().parents[1]

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


def test_build_layer_couplings_match_branches(five_path):
    layer = build_layer(five_path, five_path.node_ids())
    assert layer.node_ids == (1, 2, 3, 4, 5)
    for br in five_path.branches:
        a = layer.node_ids.index(br.from_bus)
        b = layer.node_ids.index(br.to_bus)
        expected = coupling_susceptance(br)
        assert layer.coupling[a, b] == pytest.approx(expected, rel=1e-12)
    for node in five_path.node_ids():
        k = layer.node_ids.index(node)
        assert layer.natural_frequency[k] == pytest.approx(
            net_injection(five_path, node))


def test_build_layer_sums_parallel_circuits():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2, 0.1), (1, 2, 0.2)],
                       generator_set={1})
    layer = build_layer(net, [1, 2])
    assert layer.coupling[0, 1] == pytest.approx(10.0 + 5.0)


def test_build_layer_subset_keeps_internal_edges_only(five_path):
    layer = build_layer(five_path, [2, 3, 5])
    a, b, c = (layer.node_ids.index(node) for node in (2, 3, 5))
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


def _numpy_phases(n, entropy):
    # the package draws NumPy's PCG64 bits itself; NumPy's own generator,
    # seeded the same way, is the reference
    generator = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy)))
    return 0.5 * math.pi - generator.uniform(0.0, math.pi, n)


def _assert_same_bits(n, seed):
    draw = sample_initial_conditions(n, seed)
    assert draw.dtype == np.float64 and draw.shape == (n,)
    assert draw.tobytes() == _numpy_phases(n, seed).tobytes(), seed


@pytest.mark.parametrize("n", [0, 1, 118, 944])
def test_initial_conditions_are_numpy_pcg64_bits(n):
    # single integers across the 32-bit word boundaries, per-run pairs,
    # no entropy at all, more words than SeedSequence's four-word pool,
    # and a NumPy integer
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100, [],
             [5, 6, 7, 2**32 - 1, 0, 11], np.int64(9)]
    seeds += [[seed, run] for seed in (1, 2**40) for run in range(25)]
    for seed in seeds:
        _assert_same_bits(n, seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.lists(st.integers(0, 2**70 - 1), max_size=6),
       n=st.integers(0, 64))
def test_initial_conditions_match_numpy_on_any_entropy(seed, n):
    _assert_same_bits(n, seed)


@pytest.mark.parametrize("n, seed, error", [(3, -1, ValueError),
                                             (-1, 3, ValueError),
                                             (3, 1.5, TypeError)])
def test_initial_conditions_refuse_what_numpy_refuses(n, seed, error):
    with pytest.raises(error):
        _numpy_phases(n, seed)
    with pytest.raises(error):
        sample_initial_conditions(n, seed)


def test_initial_conditions_refuse_an_unrepeatable_seed():
    # NumPy reads None as fresh OS entropy; an ensemble's phases must be
    # repeatable
    with pytest.raises(TypeError):
        sample_initial_conditions(3, None)


def test_ensemble_matches_single_runs():
    layer = two_node_layer(0.3, -0.3, b=2.0)
    ens = ensemble_integrate(layer, 5, seed=17, t_max=1.0, dt=0.05)
    assert ens.phases.shape == (21, 5, 2)
    for run in range(5):
        initial = sample_initial_conditions(2, [17, run])
        _, solo = integrate(layer, initial, t_max=1.0, dt=0.05)
        assert np.abs(ens.phases[:, run] - solo).max() < 1e-10


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
    phases = np.full((3, 3, 2), 1.3)   # equal phases: coherence is exactly 1
    below_one = np.nextafter(1.0, 0.0)
    assert sync_times(layer, times, phases, below_one).get(1, 2) == 0.0
    # at the threshold counts as not synchronized, up to the last sample
    assert sync_times(layer, times, phases, 1.0).get(1, 2) == math.inf


def test_order_parameter_averages_over_runs():
    layer = two_node_layer(0.0, 0.0)
    times = np.array([0.0, 0.1])
    phases = np.zeros((2, 2, 2))
    phases[:, 1, 0] = math.pi / 2  # run 0: lag 0, run 1: lag pi/2
    # order parameter (cos 0 + cos(pi/2)) / 2, which rounds to 0.5
    assert sync_times(layer, times, phases,
                      np.nextafter(0.5, 0.0)).get(1, 2) == 0.0
    assert sync_times(layer, times, phases, 0.5).get(1, 2) == math.inf


def _scan_fixture(lags):
    """Layer, times and one-run phases whose pair lag follows the given
    sequence."""
    layer = two_node_layer(0.0, 0.0)
    m = len(lags)
    times = np.arange(m) * 0.1
    phases = np.zeros((m, 1, 2))
    phases[:, 0, 0] = np.asarray(lags)
    return layer, times, phases


def test_sync_time_scan_semantics():
    big, small = 1.0, 0.01           # cos: 0.54 vs 0.99995
    ens = _scan_fixture([big, big, small, small, small])
    table = sync_times(*ens, threshold=0.99)
    assert table.get(1, 2) == pytest.approx(0.2)

    ens = _scan_fixture([small] * 4)
    assert sync_times(*ens, 0.99).get(1, 2) == 0.0

    ens = _scan_fixture([small, small, big])
    assert sync_times(*ens, 0.99).get(1, 2) == math.inf

    # a dip back below the threshold pushes the sync time past it
    ens = _scan_fixture([small, big, small, small])
    assert sync_times(*ens, 0.99).get(1, 2) == pytest.approx(0.2)


def test_sync_time_threshold_is_strict():
    # coherence exactly at the threshold does not count as synchronized
    edge = math.acos(0.99)
    ens = _scan_fixture([edge, 0.01, 0.01])
    table = sync_times(*ens, threshold=0.99)
    assert table.get(1, 2) == pytest.approx(0.1)


def test_sync_times_on_real_dynamics():
    locking = two_node_layer(0.1, -0.1, b=1.0)
    ens = ensemble_integrate(locking, 10, seed=2, t_max=50.0, dt=0.01)
    t_lock = sync_times(locking, *ens).get(1, 2)
    assert math.isfinite(t_lock)
    assert 0.0 <= t_lock < 50.0

    drifting = two_node_layer(0.5, -0.5, b=1.0)
    ens = ensemble_integrate(drifting, 10, seed=2, t_max=50.0, dt=0.01)
    assert sync_times(drifting, *ens).get(1, 2) == math.inf


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
    table = sync_times(layer, *ens)
    assert table.get(1, 2) == table.get(2, 1)
    assert list(table.items()) == [((1, 2), table.get(1, 2))]


def _use_cpus(monkeypatch, cpus):
    """Make ensemble_sync_times see ``cpus`` usable CPUs: with 2 it forks
    a child for the upper half of the runs, with 1 it forks none."""
    monkeypatch.setattr(kuramoto, "_usable_cpus", lambda: cpus)


def _count_forks(monkeypatch):
    """Pids of the forked halves started from now on."""
    started = []

    class Counted(kuramoto._ForkedHalf):
        def __init__(self, work):
            super().__init__(work)
            started.append(self.pid)

    monkeypatch.setattr(kuramoto, "_ForkedHalf", Counted)
    return started


@pytest.mark.parametrize("seed", [2, 7])
def test_streamed_sync_times_are_exact(net118_faulted, seed, monkeypatch):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    edges = sorted(net118_faulted.edge_set())
    t_max = 300 * STABLE_DT
    forks = _count_forks(monkeypatch)
    # With two CPUs 12 runs split 6 + 6 and 3 runs split 2 + 1: the child
    # integrates its one run as a one-row batch.
    for runs in (3, 12):
        ens = ensemble_integrate(layer, runs, seed, t_max=t_max,
                                 dt=STABLE_DT)

        def rho(i, j):
            """The order parameter of pair i-j at every sample."""
            a, b = layer.node_ids.index(i), layer.node_ids.index(j)
            return np.mean(np.cos(ens.phases[:, :, a] - ens.phases[:, :, b]),
                           axis=1)

        # Thresholds at order-parameter values the ensemble attains, and
        # one ulp below them: a rounding change in any mean flips a
        # comparison. One ulp below an edge's minimum, that edge is
        # synced from the start.
        attained = [rho(*e)[-1] for e in edges[:8]]
        attained.append(rho(*edges[0]).min())
        thresholds = [0.99, *attained,
                      *(np.nextafter(v, -np.inf) for v in attained)]
        forks.clear()
        kinds = set()
        for threshold in thresholds:
            expected = sync_times(layer, *ens, threshold).entries
            for cpus in (1, 2):
                _use_cpus(monkeypatch, cpus)
                streamed = ensemble_sync_times(layer, runs, seed,
                                               threshold, t_max=t_max,
                                               dt=STABLE_DT)
                assert streamed.entries == expected
            kinds |= {"start" if t == ens.times[0] else
                      "never" if math.isinf(t) else "settled"
                      for t in expected.values()}
        assert kinds == {"start", "never", "settled"}
        assert len(forks) == len(thresholds)


def test_rhs_rows_keep_their_bits_in_any_split(net118_faulted):
    # The halves of an ensemble are integrated apart, and simulate
    # integrates one run as a bare (n,) vector. They reproduce the whole
    # batch only because each row of the right-hand side has the same
    # bits in any batch, a single row included.
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    phases = np.stack([sample_initial_conditions(layer.size, [5, r])
                       for r in range(20)])
    whole = derivative(layer, phases)
    for split in range(1, 20):
        assert np.array_equal(derivative(layer, phases[:split]),
                              whole[:split]), split
        assert np.array_equal(derivative(layer, phases[split:]),
                              whole[split:]), split
    for row, expected in zip(phases, whole):
        assert np.array_equal(derivative(layer, row), expected)
    assert np.array_equal(
        derivative(layer, phases.reshape(4, 5, -1)).reshape(20, -1), whole)
    for shape in ((layer.size - 1,), (layer.size, 2)):
        with pytest.raises(ValueError):
            derivative(layer, np.zeros(shape))


def _overflowing_layer():
    """Three oscillators coupled so strongly that RK4 at dt = 1 overflows
    after a number of steps that differs from run to run."""
    coupling = np.full((3, 3), 2e307)
    np.fill_diagonal(coupling, 0.0)
    return CyberLayer((1, 2, 3), np.zeros(3), coupling)


def _divergence_time(call):
    with pytest.raises(NumericalDivergence) as err:
        call()
    return err.value.t


def test_divergence_time_is_the_same_in_both_modes(monkeypatch):
    layer = _overflowing_layer()
    grid = dict(t_max=50.0, dt=1.0)
    earlier, quiet = set(), 0
    for seed in (0, 1, 3):
        initial = kuramoto._ensemble_initial(layer, 8, seed)
        # with two CPUs ensemble_sync_times integrates runs [:4] here and
        # runs [4:] in a forked child
        lower, upper = (_divergence_time(
            lambda: integrate(layer, initial[rows], **grid))
            for rows in (slice(0, 4), slice(4, 8)))
        whole = _divergence_time(
            lambda: ensemble_integrate(layer, 8, seed, **grid))
        assert whole == min(lower, upper)
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            assert _divergence_time(lambda: ensemble_sync_times(
                layer, 8, seed, **grid)) == whole
        earlier.add("lower" if lower < upper else "upper")
        # a run integrated alone raises only when it diverges itself
        own = []
        for run in range(8):
            try:
                integrate(layer, initial[run], **grid)
            except NumericalDivergence as exc:
                own.append(exc.t)
        assert min(own) == whole
        quiet += 8 - len(own)
    assert earlier == {"lower", "upper"}
    assert quiet > 0


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _hook_steps(monkeypatch, hook):
    """Call ``hook(upper, sample)`` at each RK4 step of an ensemble half,
    ``upper`` being whether the forked half takes it and ``sample`` the
    sample it makes; the step gives the state ``hook`` returns, if any."""
    parent = os.getpid()
    step = kuramoto._Kernel.step

    def hooked(self, state, k1, dt):
        self.steps = getattr(self, "steps", 0) + 1
        replaced = hook(os.getpid() != parent, self.steps)
        return step(self, state, k1, dt) if replaced is None else replaced

    monkeypatch.setattr(kuramoto._Kernel, "step", hooked)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="lists open fds through /proc")
def test_no_child_or_pipe_outlives_the_scan(monkeypatch):
    _use_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    fds = _open_fds()

    def leaves_nothing():
        assert _open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    layer = _overflowing_layer()
    # seed 11 first diverges at t = 17; seed 1 at t = 8 in the lower
    # half, which this process integrates, and seed 0 at t = 4 in the
    # forked upper half
    ensemble_sync_times(layer, 8, 11, t_max=16.0, dt=1.0)
    leaves_nothing()
    for seed in (1, 0):
        with pytest.raises(NumericalDivergence):
            ensemble_sync_times(layer, 8, seed, t_max=50.0, dt=1.0)
        leaves_nothing()

    # an exception in either half's steps
    pair = two_node_layer(0.1, -0.1)
    for failing, error in ((False, ValueError), (True, RuntimeError)):
        def fail(upper, sample, failing=failing):
            if upper == failing and sample == 30:
                raise ValueError("half failed")

        with monkeypatch.context() as patch:
            _hook_steps(patch, fail)
            with pytest.raises(error, match="half failed"):
                ensemble_sync_times(pair, 8, 2, 0.99, t_max=1.0, dt=0.01)
        leaves_nothing()
    assert len(forks) == 5


def test_forked_half_reports_package_errors_as_crashes(monkeypatch):
    # the forked half sends values only: a package error raised there
    # arrives as RuntimeError with the child's traceback
    _use_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    pair = two_node_layer(0.1, -0.1)

    def fail(upper, sample):
        if upper and sample == 30:
            raise NotFound("node 9 is not in this layer")

    _hook_steps(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"(?s)forked child failed:\n"
                       r"Traceback.*NotFound: node 9 is not in this layer"):
        ensemble_sync_times(pair, 8, 2, 0.99, t_max=1.0, dt=0.01)
    assert len(forks) == 1


def test_streamed_sync_times_edge_forms(net118_faulted, monkeypatch):
    # A table holds every layer edge and nothing else, keyed (low id,
    # high id) in any node order. Branch 1-3 with x = 0, r > 0 couples
    # with zero weight, so 1-3 is no layer edge. PowerNetwork refuses such
    # a branch; the layer is edited, and lists its nodes in descending
    # order.
    [branch] = [br for br in net118_faulted.branches
                if (br.from_bus, br.to_bus) == (1, 3)]
    assert coupling_susceptance(
        dataclasses.replace(branch, resistance=0.01, reactance=0.0)) == 0.0
    grid = build_layer(net118_faulted, net118_faulted.node_ids())
    coupling = grid.coupling.copy()
    a, b = grid.node_ids.index(1), grid.node_ids.index(3)
    coupling[a, b] = coupling[b, a] = 0.0
    order = np.arange(grid.size)[::-1]
    layer = CyberLayer(grid.node_ids[::-1], grid.natural_frequency[order],
                       coupling[np.ix_(order, order)])
    ens = ensemble_integrate(layer, 9, 3, t_max=200 * STABLE_DT,
                             dt=STABLE_DT)
    expected = sync_times(layer, *ens, 0.9).entries
    assert set(expected) == net118_faulted.edge_set() - {(1, 3)}
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        streamed = ensemble_sync_times(layer, 9, 3, 0.9,
                                       t_max=200 * STABLE_DT, dt=STABLE_DT)
        assert list(streamed.entries) == list(expected)
        assert streamed.entries == expected
    with pytest.raises(NotFound):
        streamed.get(1, 3)


def test_grid_layer_edges_are_the_network_edges(net118_faulted, tmp_path,
                                                monkeypatch):
    # An in-service branch has x != 0, so it couples with positive weight:
    # the whole-grid layer's edges, which a sync table holds, are the
    # network's, the edges the centralized growth looks up.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    _, tiled = workloads.scenario_network(
        workloads.write_tiled(tmp_path, 2, workloads.TILING_SEED))
    for network in (net118_faulted, tiled):
        layer = build_layer(network, network.node_ids())
        iu, jv, _ = layer._edges
        ids = np.array(layer.node_ids)
        edges = set(zip(ids[iu].tolist(), ids[jv].tolist()))
        assert len(edges) == iu.size
        assert edges == network.edge_set()


def test_streamed_sync_memory_does_not_grow_with_steps(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())

    def peak_bytes(steps):
        tracemalloc.start()
        try:
            ensemble_sync_times(layer, 4, 0, t_max=steps * STABLE_DT,
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
        ensemble_sync_times(layer, 2, 0, t_max=10 * STABLE_DT,
                            dt=STABLE_DT)
        integrate(layer, np.zeros(layer.size), t_max=10 * STABLE_DT,
                  dt=STABLE_DT)
        assert caplog.records == []
        ensemble_sync_times(layer, 2, 0, t_max=0.1, dt=0.01)
        integrate(layer, np.zeros(layer.size), t_max=0.1, dt=0.01)
    assert len(caplog.records) == 2
    for record in caplog.records:
        assert record.levelno == logging.WARNING
        assert "integration artifacts" in record.getMessage()


def test_a_run_integrated_alone_is_the_stored_run(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    grid = dict(t_max=100 * STABLE_DT, dt=STABLE_DT)
    for n_runs, runs in ((5, (0, 4)), (2, (1,)), (1, (0,))):
        ens = ensemble_integrate(layer, n_runs, 3, **grid)
        for run in runs:
            initial = sample_initial_conditions(layer.size, [3, run])
            times, phases = integrate(layer, initial, **grid)
            assert np.array_equal(times, ens.times)
            assert np.array_equal(phases, ens.phases[:, run])
            assert np.array_equal(derivative(layer, phases),
                                  derivative(layer, ens.phases[:, run]))
    for shape in ((layer.size - 1,), (2, 3, layer.size)):
        with pytest.raises(ValueError):
            integrate(layer, np.zeros(shape), **grid)
    with pytest.raises(ValueError):
        ensemble_integrate(layer, 0, 3, **grid)


def test_locked_state_of_a_pair_and_past_its_limit():
    lock = locked_state(two_node_layer(0.1, -0.1))
    assert lock.phases[0] - lock.phases[1] == pytest.approx(math.asin(0.1),
                                                            abs=1e-14)
    assert lock.phases.sum() == pytest.approx(0.0, abs=1e-15)
    assert lock.lambda2 == pytest.approx(2.0 * math.cos(math.asin(0.1)))
    # half the frequency gap beyond the coupling: no phase lag balances it
    assert locked_state(two_node_layer(1.5, -1.5)) is None
    assert locked_state(CyberLayer((1,), np.zeros(1), np.zeros((1, 1)))) \
        is None


def test_locked_state_of_the_faulted_grid(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    lock = locked_state(layer)
    assert np.abs(kuramoto._mismatch(layer, lock.phases)).max() < 1e-12
    assert lock.lambda2 == pytest.approx(0.2918, abs=1e-4)


def test_rk4_polynomial_facts_the_certificate_uses():
    z = np.linspace(0.0, kuramoto.RK4_REAL_LIMIT, 100001)
    p = 1.0 - z / 2.0 + z ** 2 / 6.0 - z ** 3 / 24.0
    m = _certificate._rk4_decrease_factor(z)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.abs(1.0 - z * p) <= 1.0)
    assert np.all(np.diff(m) < 0.0) and m[0] == 2.0 and m[-1] > 0.0
    # R = 1 - _rk4_shrink falls, then rises, and stays positive, so its
    # largest value on an interval is at one of the ends
    r = 1.0 - _certificate._rk4_shrink(z)
    assert np.all(r > 0.0) and np.count_nonzero(np.diff(np.sign(
        np.diff(r)))) == 1


def _never_certified(monkeypatch):
    """Keep every certificate check failing, so scans run the full
    horizon."""
    monkeypatch.setattr(_certificate.LockCertificate, "proves",
                        lambda self, levels: False)


def _stop_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if "certified" in r.getMessage()]


# 2, 3 and 7 were used while the certificate was written, 4, 5 and 8
# while its last-sample verdict was; 13 and 29 were not.
@pytest.mark.parametrize("seed", [2, 3, 4, 5, 7, 8, 13, 29])
def test_certified_stop_keeps_the_table_bits(net118_faulted, seed,
                                             monkeypatch, caplog):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    grid = dict(t_max=35.0, dt=STABLE_DT)
    caplog.set_level(logging.INFO, logger="grid_islander.kuramoto")
    stopped = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        caplog.clear()
        stopped.append((ensemble_sync_times(layer, 20, seed, **grid),
                        _stop_messages(caplog)))
    _never_certified(monkeypatch)
    caplog.clear()
    full = ensemble_sync_times(layer, 20, seed, **grid)
    assert _stop_messages(caplog) == [
        "lock not certified within the horizon: integrated all 10000 steps"]
    for table, messages in stopped:
        assert table.entries == full.entries
        [message] = messages
        steps = int(re.search(r"integrated (\d+) of 10000", message)[1])
        # seeds 3 and 7's 1,791 steps and one check more
        assert steps <= 1791 + kuramoto._CHECK_BLOCKS * kuramoto._BLOCK_SAMPLES
    # one process and two stop at the same sample
    assert stopped[0][1] == stopped[1][1]


def test_below_edges_are_proven_at_the_last_sample_only(net118_faulted,
                                                       monkeypatch):
    # At the stop an edge locked below the threshold is proven only at the
    # horizon's last sample: its every-later-sample verdict would fail.
    # At the check before, some run's level is still above c_max: on this
    # seed the level cap, not a pair margin, holds the stop back.
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    checks = []
    proves = _certificate.LockCertificate.proves

    def spy(self, levels):
        checks.append((self, levels, proves(self, levels)))
        return checks[-1][2]

    monkeypatch.setattr(_certificate.LockCertificate, "proves", spy)
    ensemble_sync_times(layer, 20, 2, t_max=35.0, dt=STABLE_DT)
    assert len(checks) >= 2
    certificate, levels, proven = checks[-1]
    assert proven and np.all(levels[:, 0] <= certificate.c_max)
    assert not np.all(checks[-2][1][:, 0] <= certificate.c_max)
    later, last = certificate.drifts(levels)
    room = certificate.margin - certificate.rho_rounding
    assert np.all(last[certificate.below] < room[certificate.below])
    assert np.any(later[certificate.below] >= room[certificate.below])
    assert np.all(later[~certificate.below] < room[~certificate.below])


def test_scan_declines_without_stable_step_or_lock(net118_faulted, caplog):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    drifting = two_node_layer(1.5, -1.5)
    locking = two_node_layer(0.1, -0.1)
    lag = locked_state(locking).phases
    caplog.set_level(logging.INFO, logger="grid_islander.kuramoto")
    for scan_layer, threshold, grid, reason in (
            (layer, 0.99, dict(t_max=0.5, dt=0.01), "dt * Gershgorin bound"),
            (drifting, 0.99, dict(t_max=50.0, dt=0.01),
             "no stable locked state"),
            # the order parameter settles exactly on the threshold
            (locking, float(np.cos(lag[0] - lag[1])),
             dict(t_max=50.0, dt=0.01), "locks at the threshold")):
        caplog.clear()
        ensemble_sync_times(scan_layer, 4, 0, threshold, **grid)
        [message] = [r.getMessage() for r in caplog.records
                     if r.levelno == logging.INFO]
        assert message.startswith("no lock certificate, integrating the "
                                  "full horizon") and reason in message
    caplog.clear()
    ensemble_sync_times(locking, 4, 0, t_max=50.0, dt=0.01)
    [message] = _stop_messages(caplog)
    assert message.startswith("lock certified at t = ")


@st.composite
def _locking_layers(draw):
    """A connected layer of 2 to 6 nodes whose injections are small
    against its couplings, a step with 1 <= dt * Gershgorin <= 2.7, and a
    threshold at least 0.01 from every locked cosine."""
    n = draw(st.integers(2, 6))
    weight = st.floats(0.5, 2.0)
    coupling = np.zeros((n, n))
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        coupling[i, j] = coupling[j, i] = draw(weight)
    for i in range(n):
        for j in range(i + 1, n):
            if coupling[i, j] == 0.0 and draw(st.booleans()):
                coupling[i, j] = coupling[j, i] = draw(weight)
    p = np.array(draw(st.lists(st.floats(-0.4, 0.4), min_size=n,
                               max_size=n)))
    layer = CyberLayer(tuple(range(1, n + 1)), p, coupling)
    dt = draw(st.floats(1.0, 2.7)) / kuramoto._gershgorin(layer)
    lock = locked_state(layer)
    iu, jv, _ = layer._edges
    cos = np.cos(lock.phases[iu] - lock.phases[jv])
    threshold = draw(st.floats(0.5, 0.999).filter(
        lambda t: np.abs(cos - t).min() >= 0.01))
    return layer, dt, threshold


def _first_proof(layer, dt, threshold, seed):
    """The stored ensemble of 4 runs over 200 s, its certificate, the
    first sample whose check proves the table final, and the levels
    there."""
    times, phases = ensemble_integrate(layer, 4, seed, t_max=200.0, dt=dt)
    certificate = _certificate.lock_certificate(layer, times, threshold, 4)
    for k in range(7, len(times), 8):
        levels = certificate.levels(phases[k], derivative(layer, phases[k]),
                                    times[k])
        if certificate.proves(levels):
            return times, phases, certificate, k, levels
    raise AssertionError("no sample certified")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_locking_layers(), seed=st.integers(0, 1000))
def test_certified_level_bounds_the_rest_of_the_horizon(case, seed):
    layer, dt, threshold = case
    times, phases, certificate, k, levels = _first_proof(layer, dt,
                                                         threshold, seed)
    u, size, _, _ = certificate.excess(phases[k + 1:])
    rounding = (layer.size + layer._edges[2].size + 16) * kuramoto._EPS * size
    assert np.all(u - rounding <= levels[:, 0])
    # the stop leaves the table as the full scan gives it
    assert ensemble_sync_times(layer, 4, seed, threshold,
                               t_max=200.0, dt=dt).entries \
        == sync_times(layer, times, phases, threshold).entries


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_locking_layers(), seed=st.integers(0, 1000))
def test_certified_spread_bounds_the_rest_of_the_horizon(case, seed):
    layer, dt, threshold = case
    _, phases, certificate, k, levels = _first_proof(layer, dt, threshold,
                                                     seed)
    frequencies = derivative(layer, phases[k:])
    spread = np.linalg.norm(
        frequencies - frequencies.mean(axis=-1, keepdims=True), axis=-1)
    gamma = levels[:, 2]
    assert np.all(np.isfinite(gamma))
    assert np.all(spread * (1.0 - 4.0 * layer.size * kuramoto._EPS)
                  - certificate.gamma_rounding <= gamma)


def _last_sample_bounds_hold(layer, threshold, certificate, times, k,
                             ahead):
    """With the horizon ending j samples after the proving check k, for
    each (j, phases there) in ``ahead``: each run's spread at that last
    sample is within its last-sample bound, and each edge locked below the
    threshold has its order parameter within its bound of cos*."""
    iu, jv, _ = layer._edges
    theta = certificate.theta
    cos = np.cos(theta[iu] - theta[jv])
    below = certificate.below
    for j, phases in ahead:
        ending = _certificate.LockCertificate(
            layer, theta, certificate.dt, float(times[k + j]), threshold,
            len(phases))
        levels = ending.levels(ahead[0][1], derivative(layer, ahead[0][1]),
                               float(times[k]))
        assert np.all(levels[:, 0] <= ending.c_max)
        assert np.all(np.isfinite(levels[:, 5]))
        frequencies = derivative(layer, phases)
        spread = np.linalg.norm(
            frequencies - frequencies.mean(axis=-1, keepdims=True), axis=-1)
        assert np.all(spread * (1.0 - 4.0 * layer.size * kuramoto._EPS)
                      - ending.gamma_rounding <= levels[:, 5])
        rho = np.mean(np.cos(phases[:, iu] - phases[:, jv]), axis=0)
        _, last = ending.drifts(levels)
        assert np.all(np.abs(rho - cos)[below]
                      <= last[below] + ending.rho_rounding)


def _offsets(remaining):
    """Samples after the proving check to end the horizon at: the check
    itself, where the last-sample bound is the spread bound, a few later,
    and the horizon's last."""
    return sorted({0, 1, 64, remaining} & set(range(remaining + 1)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_locking_layers(), seed=st.integers(0, 1000))
def test_last_sample_bounds_hold_at_the_horizon(case, seed):
    layer, dt, threshold = case
    times, phases, certificate, k, _ = _first_proof(layer, dt, threshold,
                                                    seed)
    _last_sample_bounds_hold(
        layer, threshold, certificate, times, k,
        [(j, phases[k + j]) for j in _offsets(len(times) - 1 - k)])


def test_last_sample_bounds_hold_on_the_faulted_grid(net118_faulted,
                                                     monkeypatch):
    # The scan's own proving check, its last in one process, then the runs
    # stepped on alone to the horizon's last sample.
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    grid = dict(t_max=35.0, dt=STABLE_DT)
    _use_cpus(monkeypatch, 1)
    checks = []
    levels = _certificate.LockCertificate.levels

    def spy(self, phases, frequencies, t):
        checks.append((self, phases, t, levels(self, phases, frequencies, t)))
        return checks[-1][3]

    monkeypatch.setattr(_certificate.LockCertificate, "levels", spy)
    ensemble_sync_times(layer, 20, 2, **grid)
    certificate, at_check, t, found = checks[-1]
    assert certificate.proves(found) and not certificate.proves(checks[-2][3])
    times = kuramoto._time_grid(grid["t_max"], grid["dt"])
    k = int(np.flatnonzero(times == t)[0])
    offsets = _offsets(len(times) - 1 - k)
    kernel = kuramoto._Kernel(layer, len(at_check))
    state = np.ascontiguousarray(at_check.T)
    ahead = [(0, at_check)]
    for j in range(1, offsets[-1] + 1):
        state = kernel.step(state, kernel.rhs(state), grid["dt"])
        if j in offsets:
            ahead.append((j, state.T.copy()))
    _last_sample_bounds_hold(layer, kuramoto.DEFAULT_RHO_THRESHOLD,
                             certificate, times, k, ahead)


def _hessian_within_region_bound(layer, dt, threshold, rng):
    """At points x of the certificate's region Q, |b_e.(x - theta*)| <=
    d_e on every edge, H(x)'s top eigenvalue is within LamQ <= Lam."""
    iu, jv, _ = layer._edges
    theta = locked_state(layer).phases
    certificate = _certificate.LockCertificate(layer, theta, dt, 1.0,
                                               threshold, 4)
    assert certificate.lam_q <= certificate.lam
    # -theta* turns every edge toward zero lag, raising all its cosines
    for y in [-theta] + [rng.standard_normal(layer.size) for _ in range(50)]:
        reach = (np.abs(y[iu] - y[jv]) / certificate.d_e).max()
        if reach == 0.0:
            continue
        for scale in (1.0, rng.uniform()):
            x = theta + scale * y / reach
            hessian = kuramoto._laplacian(layer, np.cos(x[iu] - x[jv]))
            assert np.linalg.eigvalsh(hessian)[-1] <= certificate.lam_q


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_locking_layers(), seed=st.integers(0, 1000))
def test_region_bound_holds_on_small_locking_layers(case, seed):
    _hessian_within_region_bound(*case, np.random.default_rng(seed))


def test_region_bound_holds_on_the_faulted_grid(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    _hessian_within_region_bound(layer, STABLE_DT,
                                 kuramoto.DEFAULT_RHO_THRESHOLD,
                                 np.random.default_rng(0))


def _hessian_lipschitz_within_reach(layer, dt, threshold, rng):
    """||H(a) - H(b)|| <= L_c ||a - b|| at points a, b with
    |b_e.(x - theta*)| <= reach on every edge, L_c being
    ``hessian_lipschitz(reach)``."""
    iu, jv, _ = layer._edges
    theta = locked_state(layer).phases
    certificate = _certificate.LockCertificate(layer, theta, dt, 1.0,
                                               threshold, 4)
    assert certificate.hessian_lipschitz(0.0) <= certificate.hessian_lipschitz(
        0.1) <= certificate.hessian_lipschitz(1.0) <= 2.0 * certificate.lam

    def within(reach):
        y = rng.standard_normal(layer.size)
        return theta + rng.uniform() * reach * y / np.abs(y[iu] - y[jv]).max()

    for reach in (0.0, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0):
        bound = certificate.hessian_lipschitz(reach)
        for _ in range(20):
            a, b = within(reach), within(reach)
            if np.array_equal(a, b):
                continue
            change = (kuramoto._laplacian(layer, np.cos(a[iu] - a[jv]))
                      - kuramoto._laplacian(layer, np.cos(b[iu] - b[jv])))
            assert (np.abs(np.linalg.eigvalsh(change)).max()
                    <= bound * np.linalg.norm(a - b))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=_locking_layers(), seed=st.integers(0, 1000))
def test_lipschitz_bound_holds_on_small_locking_layers(case, seed):
    _hessian_lipschitz_within_reach(*case, np.random.default_rng(seed))


def test_lipschitz_bound_holds_on_the_faulted_grid(net118_faulted):
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    _hessian_lipschitz_within_reach(layer, STABLE_DT,
                                    kuramoto.DEFAULT_RHO_THRESHOLD,
                                    np.random.default_rng(0))


def test_certified_stop_kills_a_stalled_child(monkeypatch):
    # The forked half reads nothing from this process. Its stream stalls
    # for a minute after the certified block, so only a kill ends it in
    # time.
    _use_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    pair = two_node_layer(0.1, -0.1)
    ens = ensemble_integrate(pair, 8, 2, t_max=1.0, dt=0.01)
    # the first sample after the first checked block
    after = kuramoto._CHECK_BLOCKS * kuramoto._BLOCK_SAMPLES

    def stall(upper, sample):
        if upper and sample == after:
            time.sleep(60)

    class Stops:
        below = np.array([False])
        residual, lambda2, lam_q = 0.0, 2.0, 2.0

        def levels(self, phases, frequencies, t):
            return np.zeros((len(phases), 6))

        def proves(self, levels):
            return True

    monkeypatch.setattr(_certificate, "lock_certificate",
                        lambda *args: Stops())
    _hook_steps(monkeypatch, stall)
    started = time.monotonic()
    table = ensemble_sync_times(pair, 8, 2, 0.7, t_max=1.0, dt=0.01)
    assert time.monotonic() - started < 30.0
    # synced before the stop, so the stop leaves the full scan's table
    expected = sync_times(pair, *ens, 0.7).entries
    assert ens.times[0] < expected[(1, 2)] < ens.times[after]
    assert table.entries == expected
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forks[0], os.WNOHANG)


def test_divergence_of_a_child_that_ended_is_raised(monkeypatch):
    # The forked half diverges a block ahead and ends before the parent
    # reads that block's report: the parent must raise the divergence.
    _use_cpus(monkeypatch, 2)
    pair = two_node_layer(0.1, -0.1)
    ens = ensemble_integrate(pair, 8, 2, t_max=1.0, dt=0.01)
    block = kuramoto._BLOCK_SAMPLES
    first_check = kuramoto._CHECK_BLOCKS - 1
    diverging = (first_check + 1) * block + 2
    ended = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
    ended[0] = 0

    def overflow(upper, sample):
        if upper and sample == diverging:
            ended[0] = 1
            return np.full((2, 4), np.inf)

    class Waits:
        below = np.array([False])

        def levels(self, phases, frequencies, t):
            return np.zeros((len(phases), 6))

        def proves(self, levels):
            deadline = time.monotonic() + 30.0
            while not ended[0]:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            time.sleep(0.2)   # for the child to send its report and exit
            return False

    monkeypatch.setattr(_certificate, "lock_certificate",
                        lambda *args: Waits())
    _hook_steps(monkeypatch, overflow)
    with pytest.raises(NumericalDivergence) as err:
        ensemble_sync_times(pair, 8, 2, 0.99, t_max=1.0, dt=0.01)
    assert err.value.t == ens.times[diverging]


def test_failed_fork_integrates_every_run_here(net118_faulted, monkeypatch):
    # At a process limit os.fork raises EAGAIN; the scan then integrates
    # the upper half in this process too, with the table's bits.
    layer = build_layer(net118_faulted, net118_faulted.node_ids())
    grid = dict(t_max=300 * STABLE_DT, dt=STABLE_DT)
    _use_cpus(monkeypatch, 1)
    expected = ensemble_sync_times(layer, 12, 5, **grid)
    attempts = []

    def eagain():
        attempts.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", eagain)
    _use_cpus(monkeypatch, 2)
    assert ensemble_sync_times(layer, 12, 5,
                               **grid).entries == expected.entries
    assert len(attempts) == 1
