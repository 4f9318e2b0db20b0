"""AC Newton-Raphson and DC linear power flow."""

import math
import tracemalloc

import numpy as np
import pytest

from grid_islander import (Branch, Island, NoGenerator, NotConverged,
                           NotFound, SingularSystem, ac_power_flow,
                           build_layer, build_ybus, centralized_partition,
                           compute_metrics, dc_power_flow, default_slack,
                           ensemble_sync_times, run_decentralized)
from grid_islander import powerflow
from grid_islander.powerflow import _JacobianAssembler
from conftest import make_network


def test_ac_two_bus_matches_closed_form(two_bus_ac):
    sol = ac_power_flow(two_bus_ac)
    assert sol.converged
    assert sol.method == "ac"
    assert sol.slack == 1
    assert sol.iterations <= 6
    # lossless line: V2 = cos(delta), sin(2 delta) = -P x / ... = -0.1
    delta = -0.5 * math.asin(0.1)
    vm2, va2 = sol.voltage(2)
    assert va2 == pytest.approx(delta, abs=1e-9)
    assert vm2 == pytest.approx(math.cos(delta), abs=1e-9)
    vm1, va1 = sol.voltage(1)
    assert vm1 == pytest.approx(1.0) and va1 == 0.0
    assert np.abs(sol.p_loss).max() < 1e-6
    # the line carries the full load from bus 1 to bus 2
    assert sol.p_from[0] == pytest.approx(50.0, abs=1e-4)
    assert sol.p_to[0] == pytest.approx(-50.0, abs=1e-4)


def test_ac_converges_quadratically(two_bus_ac):
    sol = ac_power_flow(two_bus_ac)
    h = sol.mismatch_history
    assert len(h) == sol.iterations + 1
    assert h[-1] < 1e-8
    # each Newton step roughly squares the error
    for before, after in zip(h[1:-1], h[2:]):
        assert after < before ** 1.5


def test_ac_flat_case_converges_immediately():
    net = make_network({1: 0.0, 2: 0.0}, [(1, 2, 0.1)], generator_set={1})
    sol = ac_power_flow(net)
    assert sol.converged
    assert sol.iterations == 0
    assert np.allclose(sol.vm, 1.0)
    assert np.allclose(sol.va, 0.0)


def test_ac_holds_pv_setpoints():
    net = make_network({1: 1.0, 2: 0.5, 3: -1.5},
                       [(1, 2, 0.1), (2, 3, 0.1), (1, 3, 0.08)],
                       generator_set={1, 2},
                       setpoints={1: 1.02, 2: 0.99})
    sol = ac_power_flow(net)
    assert sol.converged
    assert sol.voltage(1)[0] == pytest.approx(1.02)
    assert sol.voltage(2)[0] == pytest.approx(0.99)
    # the load bus voltage is solved, not pinned
    assert sol.voltage(3)[0] != pytest.approx(1.0, abs=1e-6)


def test_ac_respects_losses():
    net = make_network({1: 1.0, 2: -0.8}, [(1, 2, 0.02, 0.1)],
                       generator_set={1})
    sol = ac_power_flow(net)
    assert sol.converged
    assert sol.p_loss[0] > 0.0
    # slack generation covers load plus loss
    assert sol.p_from[0] == pytest.approx(80.0 + sol.p_loss[0], abs=1e-6)


def test_ac_not_converged_raises():
    # a 10 pu load across one 0.1 pu line has no solution
    net = make_network({1: 1.0, 2: -10.0}, [(1, 2, 0.1)],
                       generator_set={1})
    with pytest.raises(NotConverged) as err:
        ac_power_flow(net)
    assert err.value.iterations == 20
    assert err.value.mismatch > 0


def test_ac_q_demand_included():
    net = make_network({1: 1.0, 2: -0.5}, [(1, 2, 0.1)],
                       generator_set={1}, q_demands={2: 0.2})
    sol = ac_power_flow(net)
    assert sol.converged
    assert sol.q_to[0] == pytest.approx(-20.0, abs=1e-4)
    # reactive draw pulls the load voltage below the P-only solution
    p_only = ac_power_flow(make_network({1: 1.0, 2: -0.5}, [(1, 2, 0.1)],
                                        generator_set={1}))
    assert sol.voltage(2)[0] < p_only.voltage(2)[0]


def test_dc_triangle_exact(triangle_dc):
    sol = dc_power_flow(triangle_dc)
    assert sol.method == "dc"
    assert sol.slack == 1
    assert sol.converged and sol.iterations == 0
    # 2x2 susceptance solve gives these angles exactly
    want = {1: 0.0, 2: -0.04, 3: -0.05}
    for node, angle in want.items():
        assert sol.voltage(node)[1] == pytest.approx(angle, abs=1e-12)
    flows = dict(zip(sol.branch_ends, sol.p_from))
    assert flows[(1, 2)] == pytest.approx(40.0, abs=1e-9)
    assert flows[(1, 3)] == pytest.approx(50.0, abs=1e-9)
    assert flows[(2, 3)] == pytest.approx(10.0, abs=1e-9)
    assert np.all(sol.vm == 1.0)
    assert np.abs(sol.p_loss).max() == 0.0
    assert np.abs(sol.q_from).max() == 0.0


def test_dc_two_bus():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2, 0.1)], generator_set={1})
    sol = dc_power_flow(net)
    assert sol.voltage(2)[1] == pytest.approx(-0.1, abs=1e-15)
    assert sol.p_from[0] == pytest.approx(100.0)


def test_dc_island_subset(five_path):
    sol = dc_power_flow(five_path, nodes=[4, 5])
    assert sol.node_ids == (4, 5)
    assert sol.slack == 4
    assert sol.branch_ends == ((4, 5),)
    # only the internal branch is solved; flow covers the island load
    assert sol.p_from[0] == pytest.approx(50.0)


def test_dc_explicit_slack(triangle_dc):
    sol = dc_power_flow(triangle_dc, slack=1)
    assert sol.slack == 1
    with pytest.raises(NotFound):
        dc_power_flow(triangle_dc, nodes=[1, 2], slack=3)


def test_disconnected_subset_rejected(five_path):
    with pytest.raises(SingularSystem):
        dc_power_flow(five_path, nodes=[1, 2, 4, 5])
    with pytest.raises(SingularSystem):
        ac_power_flow(five_path, nodes=[1, 5])


def test_default_slack_rules(five_path):
    # bus 1 schedules 100 MW, bus 4 schedules 50: bus 1 wins
    assert default_slack(five_path) == 1
    assert default_slack(five_path, [3, 4, 5]) == 4
    with pytest.raises(NoGenerator):
        default_slack(five_path, [2, 3])


def test_default_slack_tie_prefers_low_id():
    net = make_network({2: 1.0, 7: 1.0, 4: -2.0},
                       [(2, 4), (4, 7)], generator_set={2, 7})
    assert default_slack(net) == 2


def test_ybus_tap_and_charging():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2)], generator_set={1})
    branch = Branch(from_bus=1, to_bus=2, resistance=0.01, reactance=0.1,
                    charging=0.04, tap_ratio=1.05)
    net = type(net)(net.buses, [branch], net.base_mva, net.generator_set)
    ybus, branches = build_ybus(net, (1, 2))
    assert len(branches) == 1
    ys = 1.0 / complex(0.01, 0.1)
    shunt = 0.5j * 0.04
    assert ybus[0, 0] == pytest.approx((ys + shunt) / 1.05 ** 2)
    assert ybus[1, 1] == pytest.approx(ys + shunt)
    assert ybus[0, 1] == pytest.approx(-ys / 1.05)
    assert ybus[1, 0] == pytest.approx(-ys / 1.05)


def test_dc_uses_tap_in_susceptance():
    net = make_network({1: 1.0, 2: -1.0}, [(1, 2)], generator_set={1})
    branch = Branch(from_bus=1, to_bus=2, resistance=0.0, reactance=0.1,
                    tap_ratio=2.0)
    net = type(net)(net.buses, [branch], net.base_mva, net.generator_set)
    sol = dc_power_flow(net)
    # susceptance halves, so the angle doubles
    assert sol.voltage(2)[1] == pytest.approx(-0.2)


def test_ac_full_ieee118(net118_faulted):
    sol = ac_power_flow(net118_faulted)
    assert sol.converged
    assert sol.slack == 89        # largest scheduled machine
    assert sol.iterations <= 8
    assert sol.mismatch < 1e-8
    assert 0.90 < sol.vm.min() < sol.vm.max() < 1.10
    losses = sol.p_loss.sum()
    assert 0.0 < losses < 300.0   # plausible for a 4.2 GW system
    # every in-service branch between solved nodes is accounted for
    assert len(sol.branch_ends) == 185


def test_dc_full_ieee118(net118_faulted):
    sol = dc_power_flow(net118_faulted)
    assert sol.converged
    assert np.abs(sol.p_loss).max() < 1e-9
    # angles stay within a sane operating range
    assert np.abs(sol.va).max() < 1.5


def _unknown_indices(network, nodes=None):
    """(pvpq, pq) index arrays over ``nodes`` (default: every node), by
    the rule ``ac_power_flow`` uses: setpoint buses other than the slack
    are PV."""
    nodes = network.node_ids() if nodes is None else tuple(sorted(nodes))
    slack = default_slack(network, nodes)
    pv = [k for k, n in enumerate(nodes)
          if n != slack and network.bus(n).voltage_setpoint is not None]
    pq = [k for k, n in enumerate(nodes)
          if n != slack and network.bus(n).voltage_setpoint is None]
    return np.array(pv + pq), np.array(pq)


def _dense_jacobian(ybus, voltage, current, pvpq, pq):
    """Reference: every dS entry of the n x n matrices, by row and column
    scaling of ybus, then the four blocks cut out and stacked."""
    diagonal = np.diag_indices(voltage.size)
    unit = voltage / np.abs(voltage)
    ds_dva = -1j * voltage[:, None] * np.conj(ybus * voltage)
    ds_dva[diagonal] += 1j * voltage * np.conj(current)
    ds_dvm = voltage[:, None] * np.conj(ybus * unit)
    ds_dvm[diagonal] += np.conj(current) * unit
    return np.block([[ds_dva[np.ix_(pvpq, pvpq)].real,
                      ds_dvm[np.ix_(pvpq, pq)].real],
                     [ds_dva[np.ix_(pq, pvpq)].imag,
                      ds_dvm[np.ix_(pq, pq)].imag]])


def _diag_product_jacobian(ybus, voltage, pvpq, pq):
    """Reference: the Jacobian as products with dense diagonal matrices."""
    current = ybus @ voltage
    diag_v = np.diag(voltage)
    diag_i = np.diag(current)
    diag_e = np.diag(voltage / np.abs(voltage))
    ds_dva = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_e) + np.conj(diag_i) @ diag_e
    return np.block([[ds_dva[np.ix_(pvpq, pvpq)].real,
                      ds_dvm[np.ix_(pvpq, pq)].real],
                     [ds_dva[np.ix_(pq, pvpq)].imag,
                      ds_dvm[np.ix_(pq, pq)].imag]])


def _random_voltage(size, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.9, 1.1, size)
            * np.exp(1j * rng.uniform(-0.5, 0.5, size)))


def test_jacobian_matches_differences_and_diagonal_products(net118_faulted):
    net = net118_faulted
    ybus, _ = build_ybus(net, net.node_ids())
    pvpq, pq = _unknown_indices(net)
    rng = np.random.default_rng(118)
    vm = rng.uniform(0.9, 1.1, ybus.shape[0])
    va = rng.uniform(-0.5, 0.5, ybus.shape[0])

    def injections(x):
        """Calculated P at pvpq and Q at pq, with the unknowns set to x."""
        a, m = va.copy(), vm.copy()
        a[pvpq] = x[:pvpq.size]
        m[pq] = x[pvpq.size:]
        v = m * np.exp(1j * a)
        s = v * np.conj(ybus @ v)
        return np.concatenate([s.real[pvpq], s.imag[pq]])

    voltage = vm * np.exp(1j * va)
    jac = _JacobianAssembler(ybus, pvpq, pq)(voltage, ybus @ voltage)
    size = pvpq.size + pq.size
    assert jac.shape == (size, size)
    scale = np.abs(jac).max()

    x = np.concatenate([va[pvpq], vm[pq]])
    step = 1e-6
    differences = np.empty((size, size))
    for k in range(size):
        dx = np.zeros(size)
        dx[k] = step
        differences[:, k] = (injections(x + dx)
                             - injections(x - dx)) / (2 * step)
    assert np.abs(jac - differences).max() <= 1e-6 * scale

    reference = _diag_product_jacobian(ybus, voltage, pvpq, pq)
    assert np.abs(jac - reference).max() <= 1e-12 * scale


@pytest.mark.parametrize("nodes", [None, range(1, 40)],
                         ids=["whole", "island"])
def test_jacobian_equals_dense_reference(net118_faulted, nodes):
    """Bit for bit (up to the sign of zero) the dense O(n^2) Jacobian,
    at every call of one reused assembler."""
    net = net118_faulted
    chosen = net.node_ids() if nodes is None else tuple(nodes)
    ybus, _ = build_ybus(net, chosen)
    pvpq, pq = _unknown_indices(net, chosen)
    assert 0 < pq.size < pvpq.size < len(chosen)   # PV, PQ and a slack
    assembler = _JacobianAssembler(ybus, pvpq, pq)
    for seed in range(3):
        voltage = _random_voltage(len(chosen), seed)
        current = ybus @ voltage
        assert np.array_equal(
            assembler(voltage, current),
            _dense_jacobian(ybus, voltage, current, pvpq, pq))


def test_whole_network_newton_steps_unchanged(net118_faulted, monkeypatch):
    """The same mismatch at every iteration and the same voltages as
    Newton-Raphson with the dense reference Jacobian."""
    solution = ac_power_flow(net118_faulted)

    class Dense:
        def __init__(self, ybus, pvpq, pq):
            self.args = ybus, pvpq, pq

        def __call__(self, voltage, current):
            ybus, pvpq, pq = self.args
            return _dense_jacobian(ybus, voltage, current, pvpq, pq)

    monkeypatch.setattr(powerflow, "_JacobianAssembler", Dense)
    reference = ac_power_flow(net118_faulted)
    assert solution.mismatch_history == reference.mismatch_history
    assert len(solution.mismatch_history) == 5
    assert np.array_equal(solution.vm, reference.vm)
    assert np.array_equal(solution.va, reference.va)


def test_jacobian_assembly_allocates_about_one_matrix(net118_faulted):
    net = net118_faulted
    ybus, _ = build_ybus(net, net.node_ids())
    pvpq, pq = _unknown_indices(net)
    voltage = _random_voltage(ybus.shape[0], 0)
    current = ybus @ voltage
    tracemalloc.start()
    try:
        jac = _JacobianAssembler(ybus, pvpq, pq)(voltage, current)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense path held several complex n x n matrices at once
    assert peak < 2 * jac.nbytes


def _island_solves(network, partition):
    """(label, size, solver, AC iterations) per island: "ac" when
    Newton-Raphson converges, else "dc" with the iterations it spent."""
    rows = []
    for isl in sorted(partition.islands, key=lambda i: i.label):
        try:
            sol = ac_power_flow(network, isl.node_set)
            rows.append((isl.label, isl.size, "ac", sol.iterations))
        except NotConverged as err:
            assert err.mismatch > 1e6    # diverged, not merely slow
            rows.append((isl.label, isl.size, "dc", err.iterations))
    return rows


def test_ieee118_solver_decisions_are_pinned(scenario118, net118_faulted):
    """Every converge/diverge decision and AC iteration count on the
    shipped scenario, as measured with the diagonal-product Jacobian:
    a last-ulp change to the Jacobian must not move any of them."""
    net, cfg = net118_faulted, scenario118
    assert ac_power_flow(net).iterations == 4
    islands = [Island(label=k + 1, node_set=frozenset(nodes))
               for k, nodes in enumerate(cfg.initial_islands)]
    table = ensemble_sync_times(
        build_layer(net, net.node_ids(), label="grid"), cfg.ensemble_size,
        cfg.seed, net.edge_set(), threshold=cfg.rho_threshold,
        t_max=cfg.t_max, dt=cfg.dt)
    central = centralized_partition(net, islands, table).partition
    assert _island_solves(net, central) == [(1, 35, "ac", 4),
                                            (2, 83, "ac", 4)]
    dec = run_decentralized(
        net, islands, epsilon=cfg.freq_epsilon,
        max_stalled_rounds=cfg.max_stalled_rounds).partition
    # island 2's Newton-Raphson diverges (mismatch 0.70 -> about 1e8 pu)
    assert _island_solves(net, dec) == [(1, 35, "ac", 4),
                                        (2, 83, "dc", 20)]
    assert [row.solver for row in compute_metrics(net, dec).islands] \
        == ["ac", "dc"]
