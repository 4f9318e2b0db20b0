"""AC Newton-Raphson and DC linear power flow."""

import logging
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from grid_islander import (Branch, Island, NoGenerator, NotConverged,
                           SingularSystem, ac_power_flow, build_layer,
                           build_ybus, centralized_partition,
                           compute_metrics, dc_power_flow, default_slack,
                           ensemble_sync_times, make_partition,
                           run_decentralized)
from grid_islander import powerflow
from grid_islander.powerflow import _JacobianAssembler
from conftest import make_network


def test_ac_two_bus_matches_closed_form(two_bus_ac):
    sol = ac_power_flow(two_bus_ac)
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
    assert sol.iterations == 0
    assert np.allclose(sol.vm, 1.0)
    assert np.allclose(sol.va, 0.0)


def test_ac_holds_pv_setpoints():
    net = make_network({1: 1.0, 2: 0.5, 3: -1.5},
                       [(1, 2, 0.1), (2, 3, 0.1), (1, 3, 0.08)],
                       generator_set={1, 2},
                       setpoints={1: 1.02, 2: 0.99})
    sol = ac_power_flow(net)
    assert sol.voltage(1)[0] == pytest.approx(1.02)
    assert sol.voltage(2)[0] == pytest.approx(0.99)
    # the load bus voltage is solved, not pinned
    assert sol.voltage(3)[0] != pytest.approx(1.0, abs=1e-6)


def test_ac_respects_losses():
    net = make_network({1: 1.0, 2: -0.8}, [(1, 2, 0.02, 0.1)],
                       generator_set={1})
    sol = ac_power_flow(net)
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
    assert sol.q_to[0] == pytest.approx(-20.0, abs=1e-4)
    # reactive draw pulls the load voltage below the P-only solution
    p_only = ac_power_flow(make_network({1: 1.0, 2: -0.5}, [(1, 2, 0.1)],
                                        generator_set={1}))
    assert sol.voltage(2)[0] < p_only.voltage(2)[0]


def test_dc_triangle_exact(triangle_dc):
    sol = dc_power_flow(triangle_dc)
    assert sol.method == "dc"
    assert sol.slack == 1
    assert sol.iterations == 0
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
    ybus = _dense(ybus)
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
    assert np.abs(sol.p_loss).max() < 1e-9
    # angles stay within a sane operating range
    assert np.abs(sol.va).max() < 1.5


def _dense(ybus):
    """Reference: the dense matrix the admittance triplets make up."""
    size = np.count_nonzero(ybus.rows == ybus.cols)
    matrix = np.zeros((size, size), dtype=complex)
    matrix[ybus.rows, ybus.cols] = ybus.values
    return matrix


@pytest.mark.parametrize("network, nodes", [
    ("net118_faulted", None), ("net118_faulted", range(1, 40)),
    ("tiled8", None)], ids=["whole", "island", "tiled8"])
def test_ybus_triplets_are_the_dense_loop(request, network, nodes):
    """The triplets are, bit for bit, the nonzeros and the diagonal, row
    by row, of a dense matrix summed branch by branch with ``+=``; the
    product with a voltage agrees with the dense one to rounding."""
    net = (request.getfixturevalue("tiled")[8] if network == "tiled8"
           else request.getfixturevalue(network))
    chosen = net.node_ids() if nodes is None else tuple(nodes)
    ybus, branches = build_ybus(net, chosen)
    index = {node: k for k, node in enumerate(chosen)}
    dense = np.zeros((len(chosen), len(chosen)), dtype=complex)
    for br in branches:
        f, t = index[br.from_bus], index[br.to_bus]
        y_ff, y_tt, y_ft = powerflow._pi_section(br)
        dense[f, f] += y_ff
        dense[t, t] += y_tt
        dense[f, t] += y_ft
        dense[t, f] += y_ft
    pattern = dense != 0
    np.fill_diagonal(pattern, True)
    rows, cols = np.nonzero(pattern)
    assert np.array_equal(ybus.rows, rows)
    assert np.array_equal(ybus.cols, cols)
    assert ybus.values.tobytes() == dense[rows, cols].tobytes()
    voltage = _random_voltage(len(chosen), 0)
    assert np.abs(ybus @ voltage - dense @ voltage).max() <= 1e-12


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


def _from_blocks(assembler, blocks, size):
    """The dense matrix the blocks make up, zero outside them. Only
    adjacent blocks couple, and the blocks' unknowns are each unknown
    once."""
    assert np.array_equal(np.sort(np.concatenate(assembler.unknowns)),
                          np.arange(size))
    jac = np.zeros((size, size))
    for (i, j), (matrix, rows, cols) in blocks.items():
        assert abs(i - j) <= 1
        jac[np.ix_(assembler.unknowns[i][rows],
                   assembler.unknowns[j][cols])] = matrix
    return jac


class _Dense:
    """Reference for ``_JacobianAssembler``: the dense Jacobian as one
    block and ``np.linalg.solve`` as the step."""

    def __init__(self, ybus, pvpq, pq):
        self.args = _dense(ybus), pvpq, pq
        self.unknowns = [np.arange(pvpq.size + pq.size)]

    def __call__(self, voltage, current):
        self.matrix = _dense_jacobian(self.args[0], voltage, current,
                                      *self.args[1:])

    def solve(self, f):
        return np.linalg.solve(self.matrix, f)


def test_jacobian_matches_differences_and_diagonal_products(net118_faulted,
                                                           monkeypatch):
    """In one block (the shipped size) and in five (blocks of 24)."""
    net = net118_faulted
    ybus, _ = build_ybus(net, net.node_ids())
    dense = _dense(ybus)
    pvpq, pq = _unknown_indices(net)
    rng = np.random.default_rng(118)
    vm = rng.uniform(0.9, 1.1, dense.shape[0])
    va = rng.uniform(-0.5, 0.5, dense.shape[0])

    def injections(x):
        """Calculated P at pvpq and Q at pq, with the unknowns set to x."""
        a, m = va.copy(), vm.copy()
        a[pvpq] = x[:pvpq.size]
        m[pq] = x[pvpq.size:]
        v = m * np.exp(1j * a)
        s = v * np.conj(dense @ v)
        return np.concatenate([s.real[pvpq], s.imag[pq]])

    voltage = vm * np.exp(1j * va)
    size = pvpq.size + pq.size
    x = np.concatenate([va[pvpq], vm[pq]])
    step = 1e-6
    differences = np.empty((size, size))
    for k in range(size):
        dx = np.zeros(size)
        dx[k] = step
        differences[:, k] = (injections(x + dx)
                             - injections(x - dx)) / (2 * step)
    reference = _diag_product_jacobian(dense, voltage, pvpq, pq)

    for min_block, blocks in ((256, 1), (24, 5)):
        monkeypatch.setattr(powerflow, "_MIN_BLOCK", min_block)
        assembler = _JacobianAssembler(ybus, pvpq, pq)
        assert len(assembler.unknowns) == blocks
        jac = _from_blocks(assembler, assembler(voltage, ybus @ voltage),
                           size)
        scale = np.abs(jac).max()
        assert np.abs(jac - differences).max() <= 1e-6 * scale
        assert np.abs(jac - reference).max() <= 1e-12 * scale


@pytest.mark.parametrize("nodes", [None, range(1, 40)],
                         ids=["whole", "island"])
def test_jacobian_equals_dense_reference(net118_faulted, monkeypatch,
                                         nodes):
    """Every block is bit for bit (up to the sign of zero) its sub-block
    of the dense O(n^2) Jacobian, which is zero outside the blocks, at
    every call of one reused assembler, also after a step has left
    Schur complements in its blocks; in one block (the shipped size)
    and in several (blocks of 24). The step is the dense solve's, to
    the bit in one block."""
    net = net118_faulted
    chosen = net.node_ids() if nodes is None else tuple(nodes)
    ybus, _ = build_ybus(net, chosen)
    pvpq, pq = _unknown_indices(net, chosen)
    assert 0 < pq.size < pvpq.size < len(chosen)   # PV, PQ and a slack
    size = pvpq.size + pq.size
    f = np.random.default_rng(7).uniform(-1.0, 1.0, size)
    for min_block in (256, 24):
        monkeypatch.setattr(powerflow, "_MIN_BLOCK", min_block)
        assembler = _JacobianAssembler(ybus, pvpq, pq)
        assert (len(assembler.unknowns) > 1) == (min_block == 24)
        for seed in range(3):
            voltage = _random_voltage(len(chosen), seed)
            current = ybus @ voltage
            dense = _dense_jacobian(_dense(ybus), voltage, current, pvpq,
                                    pq)
            assert np.array_equal(
                _from_blocks(assembler, assembler(voltage, current), size),
                dense)
            step, reference = assembler.solve(f), np.linalg.solve(dense, f)
            if min_block == 256:
                assert np.array_equal(step, reference)
            else:
                assert np.allclose(step, reference, rtol=1e-9, atol=0.0)


def test_whole_network_newton_steps_unchanged(net118_faulted, monkeypatch):
    """The same mismatch at every iteration and the same voltages as
    Newton-Raphson with the dense reference Jacobian and solve: the
    whole 118-bus network is one block."""
    net = net118_faulted
    ybus, _ = build_ybus(net, net.node_ids())
    assert len(_JacobianAssembler(ybus, *_unknown_indices(net)).unknowns) \
        == 1
    solution = ac_power_flow(net)
    monkeypatch.setattr(powerflow, "_JacobianAssembler", _Dense)
    reference = ac_power_flow(net)
    assert solution.mismatch_history == reference.mismatch_history
    assert len(solution.mismatch_history) == 5
    assert np.array_equal(solution.vm, reference.vm)
    assert np.array_equal(solution.va, reference.va)


@pytest.fixture(scope="module")
def tiled(tmp_path_factory):
    """perfbench's post-fault tiled networks by tile count (2 and 8)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                  / "perfbench"))
        import workloads

        return {tiles: workloads.scenario_network(workloads.write_tiled(
                    tmp_path_factory.mktemp(f"tiled{tiles}"), tiles,
                    workloads.TILING_SEED))[1]
                for tiles in (2, 8)}


@pytest.mark.parametrize("tiles, blocks, iterations", [(2, 1, 4), (8, 5, 5)])
def test_tiled_whole_network_steps_match_dense(tiled, monkeypatch, tiles,
                                               blocks, iterations):
    """At the shipped block size, the whole tiled network takes as many
    Newton steps as with the dense Jacobian and solve, and lands within
    1e-12 of its voltages."""
    net = tiled[tiles]
    ybus, _ = build_ybus(net, net.node_ids())
    assert len(_JacobianAssembler(ybus, *_unknown_indices(net)).unknowns) \
        == blocks
    solution = ac_power_flow(net)
    monkeypatch.setattr(powerflow, "_JacobianAssembler", _Dense)
    reference = ac_power_flow(net)
    assert solution.iterations == reference.iterations == iterations
    assert np.abs(solution.vm - reference.vm).max() <= 1e-12
    assert np.abs(solution.va - reference.va).max() <= 1e-12


def test_jacobian_assembly_allocates_about_one_matrix(net118_faulted):
    net = net118_faulted
    ybus, _ = build_ybus(net, net.node_ids())
    pvpq, pq = _unknown_indices(net)
    voltage = _random_voltage(len(net.node_ids()), 0)
    current = ybus @ voltage
    tracemalloc.start()
    try:
        blocks = _JacobianAssembler(ybus, pvpq, pq)(voltage, current)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (matrix, _, _), = blocks.values()       # one block
    # the dense path held several complex n x n matrices at once
    assert peak < 2 * matrix.nbytes


def test_block_step_allocates_a_fraction_of_one_dense_matrix(tiled,
                                                            monkeypatch):
    """Assembly and one step in blocks of at least 64 unknowns on the
    944-bus network (14 blocks) peak below a quarter of one dense
    Jacobian; the dense step held the matrix and LAPACK's copy of it."""
    monkeypatch.setattr(powerflow, "_MIN_BLOCK", 64)
    net = tiled[8]
    ybus, _ = build_ybus(net, net.node_ids())
    pvpq, pq = _unknown_indices(net)
    size = pvpq.size + pq.size
    voltage = _random_voltage(len(net.node_ids()), 0)
    current = ybus @ voltage
    f = np.ones(size)
    tracemalloc.start()
    try:
        assembler = _JacobianAssembler(ybus, pvpq, pq)
        assembler(voltage, current)
        assembler.solve(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(assembler.unknowns) == 14
    assert peak < size * size * 8 / 4


def test_ac_flow_allocates_under_half_a_dense_ybus(tiled):
    """The 944-bus flow, setup to branch flows, peaks (traced) below half
    of one dense complex n x n matrix: it forms no n x n array."""
    net = tiled[8]
    size = len(net.node_ids())
    tracemalloc.start()
    try:
        ac_power_flow(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * size * 16 / 2


def test_singular_block_raises_singular_system(net118_faulted, monkeypatch):
    """A singular Schur block ends the flow as a singular Jacobian does."""
    monkeypatch.setattr(powerflow, "_MIN_BLOCK", 24)
    fill = _JacobianAssembler.__call__

    def last_block_zero(self, voltage, current):
        blocks = fill(self, voltage, current)
        last = len(self.unknowns) - 1
        blocks[last, last][0][:] = 0.0
        return blocks

    monkeypatch.setattr(_JacobianAssembler, "__call__", last_block_zero)
    with pytest.raises(SingularSystem, match="Jacobian is singular"):
        ac_power_flow(net118_faulted)


def test_each_ac_flow_logs_its_blocks(net118_faulted, caplog):
    net = make_network({1: 1.0, 2: -10.0}, [(1, 2, 0.1)],
                       generator_set={1})
    with caplog.at_level(logging.DEBUG, logger="grid_islander.powerflow"):
        ac_power_flow(net118_faulted)
        with pytest.raises(NotConverged):
            ac_power_flow(net)
    lines = [record.getMessage() for record in caplog.records
             if record.name == "grid_islander.powerflow"]
    assert len(lines) == 2
    assert lines[0].startswith("AC flow: 118 buses, 181 unknowns in 1 "
                               "blocks (largest 181), 4 iterations, "
                               "mismatch ")
    assert float(lines[0].rsplit(" ", 1)[1]) < 1e-8
    assert lines[1].startswith("AC flow: 2 buses, 2 unknowns in 1 blocks "
                               "(largest 2), 20 iterations, mismatch ")


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


# The shipped case's decentralized island 2 as grown while every agent
# read the round-start registry: 83 buses at -173.6 MW with no AC
# solution. The partition grown now has none such, so it is kept here.
DIVERGING_ISLAND = frozenset({15, *range(18, 22), *range(33, 38),
                              *range(39, 71), *range(74, 113), 116, 118})


def test_ieee118_solver_decisions_are_pinned(scenario118, net118_faulted,
                                             monkeypatch):
    """Every converge/diverge decision and AC iteration count on the
    shipped scenario, as measured with the diagonal-product Jacobian:
    a last-ulp change to the Jacobian must not move any of them. Blocks
    of 24 unknowns keep them all, with each converged flow's voltages
    within 1e-12 of the one-block solve."""
    net, cfg = net118_faulted, scenario118
    islands = [Island(label=k + 1, node_set=frozenset(nodes))
               for k, nodes in enumerate(cfg.initial_islands)]
    table = ensemble_sync_times(
        build_layer(net, net.node_ids()), cfg.ensemble_size,
        cfg.seed, threshold=cfg.rho_threshold,
        t_max=cfg.t_max, dt=cfg.dt)
    central = centralized_partition(net, islands, table).partition
    dec = run_decentralized(net, islands).partition
    diverging = make_partition(net, (
        Island(label=1, node_set=set(net.node_ids()) - DIVERGING_ISLAND),
        Island(label=2, node_set=DIVERGING_ISLAND)))
    converged = [None, *(isl.node_set for isl in central.islands),
                 *(isl.node_set for isl in dec.islands),
                 diverging.island(1).node_set]
    one_block = [ac_power_flow(net, nodes) for nodes in converged]
    for min_block in (256, 24):
        monkeypatch.setattr(powerflow, "_MIN_BLOCK", min_block)
        assert ac_power_flow(net).iterations == 4
        assert _island_solves(net, central) == [(1, 35, "ac", 4),
                                                (2, 83, "ac", 4)]
        assert _island_solves(net, dec) == [(1, 39, "ac", 4),
                                            (2, 79, "ac", 6)]
        # island 2's Newton-Raphson diverges (mismatch 0.70 -> about 1e8)
        assert _island_solves(net, diverging) == [(1, 35, "ac", 4),
                                                  (2, 83, "dc", 20)]
        assert [row.solver for row in
                compute_metrics(net, diverging).islands] == ["ac", "dc"]
        for nodes, reference in zip(converged, one_block):
            solution = ac_power_flow(net, nodes)
            assert np.abs(solution.vm - reference.vm).max() <= 1e-12
            assert np.abs(solution.va - reference.va).max() <= 1e-12
