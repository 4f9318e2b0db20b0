"""AC (Newton-Raphson) and DC power flow on a network or island subset.

Dense numpy implementation sized for study networks. The Newton-Raphson
Jacobian is assembled in O(nnz) over the admittance matrix's nonzero
pattern, with the sparse ``dSbus_dV`` formulas of MATPOWER (Zimmerman et
al., IEEE Trans. Power Syst. 2011), into one dense matrix reused by every
iteration; the dense LU solve of each step is still O(n^3).
Branch model is the standard pi section with off-nominal tap on
the from side. Buses holding a voltage setpoint are PV, the rest PQ;
reactive limits are not enforced. The slack bus defaults to the
generator-set bus with the largest scheduled output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NoGenerator, NotConverged, NotFound, SingularSystem
from .network import Branch, PowerNetwork

logger = logging.getLogger("grid_islander.powerflow")

AC_TOLERANCE = 1e-8
AC_MAX_ITERATIONS = 20


@dataclass(frozen=True)
class PowerFlowSolution:
    """Bus voltages and branch flows of one solved case.

    ``branch_ends`` lists the (from, to) pair of every solved branch, in
    the same order as the flow arrays. Flows are in MW / MVAr, positive
    into the branch at each end, so ``p_from + p_to`` is the branch's
    active loss.
    """

    method: str                     # "ac" or "dc"
    node_ids: tuple[int, ...]
    vm: np.ndarray                  # per-unit magnitudes
    va: np.ndarray                  # radians
    branch_ends: tuple[tuple[int, int], ...]
    p_from: np.ndarray
    p_to: np.ndarray
    q_from: np.ndarray
    q_to: np.ndarray
    converged: bool
    iterations: int
    mismatch: float
    mismatch_history: tuple[float, ...]
    slack: int

    @property
    def p_loss(self) -> np.ndarray:
        return self.p_from + self.p_to

    def voltage(self, node: int) -> tuple[float, float]:
        try:
            k = self.node_ids.index(node)
        except ValueError:
            raise NotFound(f"node {node} not in solution") from None
        return float(self.vm[k]), float(self.va[k])


def _select_nodes(network: PowerNetwork,
                  nodes: Iterable[int] | None) -> tuple[int, ...]:
    if nodes is None:
        return network.node_ids()
    chosen = tuple(sorted(set(int(n) for n in nodes)))
    for n in chosen:
        network.bus(n)
    if not chosen:
        raise ValueError("empty node set")
    return chosen


def _island_branches(network: PowerNetwork,
                     nodes: Sequence[int]) -> list[Branch]:
    inside = set(nodes)
    return [br for br in network.branches
            if br.status and br.from_bus in inside and br.to_bus in inside]


def default_slack(network: PowerNetwork,
                  nodes: Iterable[int] | None = None) -> int:
    """Generator-set bus with the largest scheduled output (ties: lowest
    id) among ``nodes``, or over the whole network."""
    chosen = _select_nodes(network, nodes)
    gens = [n for n in chosen if n in network.generator_set]
    if not gens:
        raise NoGenerator("no generator bus available for slack")
    return min(gens, key=lambda n: (-network.bus(n).p_gen_scheduled, n))


def _solve_setup(network: PowerNetwork, nodes: Iterable[int] | None,
                 slack: int | None
                 ) -> tuple[tuple[int, ...], int, dict[int, int]]:
    """Sorted connected node set, its slack bus, and each node's index."""
    chosen = _select_nodes(network, nodes)
    if not network.subgraph_connected(chosen):
        raise SingularSystem("node set is not connected; flow equations "
                             "are singular")
    if slack is None:
        slack = default_slack(network, chosen)
    elif slack not in chosen:
        raise NotFound(f"slack bus {slack} not in node set")
    return chosen, slack, {n: k for k, n in enumerate(chosen)}


def dc_power_flow(network: PowerNetwork,
                  nodes: Iterable[int] | None = None,
                  slack: int | None = None) -> PowerFlowSolution:
    """Lossless linear power flow: B theta = P with flat voltages.

    Branch susceptance is 1/(x * tap); the slack angle is zero.
    """
    chosen, slack, index = _solve_setup(network, nodes, slack)
    n = len(chosen)
    branches = _island_branches(network, chosen)

    b_matrix = np.zeros((n, n))
    for br in branches:
        f, t = index[br.from_bus], index[br.to_bus]
        b = 1.0 / (br.reactance * br.tap_ratio)
        b_matrix[f, f] += b
        b_matrix[t, t] += b
        b_matrix[f, t] -= b
        b_matrix[t, f] -= b

    injections = np.array([
        (network.bus(node).p_gen_scheduled - network.bus(node).p_demand)
        / network.base_mva for node in chosen])
    keep = [k for k in range(n) if k != index[slack]]
    theta = np.zeros(n)
    if keep:
        try:
            theta[keep] = np.linalg.solve(b_matrix[np.ix_(keep, keep)],
                                          injections[keep])
        except np.linalg.LinAlgError:
            raise SingularSystem("susceptance matrix is singular") from None

    p_from = np.empty(len(branches))
    for k, br in enumerate(branches):
        b = 1.0 / (br.reactance * br.tap_ratio)
        p_from[k] = b * (theta[index[br.from_bus]] - theta[index[br.to_bus]])
    p_from *= network.base_mva
    zeros = np.zeros(len(branches))
    return PowerFlowSolution(
        method="dc", node_ids=chosen, vm=np.ones(n), va=theta,
        branch_ends=tuple((br.from_bus, br.to_bus) for br in branches),
        p_from=p_from, p_to=-p_from, q_from=zeros, q_to=zeros.copy(),
        converged=True, iterations=0, mismatch=0.0,
        mismatch_history=(), slack=slack)


def build_ybus(network: PowerNetwork, nodes: Sequence[int]
               ) -> tuple[np.ndarray, list[Branch]]:
    """Bus admittance matrix over ``nodes`` plus the branches included."""
    index = {n: k for k, n in enumerate(nodes)}
    branches = _island_branches(network, nodes)
    ybus = np.zeros((len(nodes), len(nodes)), dtype=complex)
    for br in branches:
        f, t = index[br.from_bus], index[br.to_bus]
        ys = 1.0 / complex(br.resistance, br.reactance)
        shunt = 0.5j * br.charging
        tap = br.tap_ratio
        ybus[f, f] += (ys + shunt) / (tap * tap)
        ybus[t, t] += ys + shunt
        ybus[f, t] += -ys / tap
        ybus[t, f] += -ys / tap
    return ybus, branches


class _JacobianAssembler:
    """Polar Jacobian [[dP/dVa, dP/dVm], [dQ/dVa, dQ/dVm]], angles at
    ``pvpq``, magnitudes at ``pq``, evaluated only at ybus's nonzeros
    and diagonal. Each call fills the same dense matrix: the entries of
    the pattern are overwritten, every other entry stays zero."""

    def __init__(self, ybus: np.ndarray, pvpq: np.ndarray, pq: np.ndarray):
        n = ybus.shape[0]
        pattern = ybus != 0
        np.fill_diagonal(pattern, True)
        self._rows, self._cols = np.nonzero(pattern)
        self._ybus = ybus[self._rows, self._cols]
        self._diagonal = np.flatnonzero(self._rows == self._cols)
        # each bus's P row and angle column, and its Q row and magnitude
        # column, in the Jacobian; -1 where the bus has none
        angle = np.full(n, -1)
        angle[pvpq] = np.arange(pvpq.size)
        magnitude = np.full(n, -1)
        magnitude[pq] = pvpq.size + np.arange(pq.size)
        size = pvpq.size + pq.size
        self._matrix = np.zeros((size, size))
        # (flat position in the matrix, pattern entry) of the four blocks
        self._blocks = []
        for row_of, col_of in ((angle, angle), (angle, magnitude),
                               (magnitude, angle), (magnitude, magnitude)):
            row, col = row_of[self._rows], col_of[self._cols]
            entry = np.flatnonzero((row >= 0) & (col >= 0))
            self._blocks.append((row[entry] * size + col[entry], entry))

    def __call__(self, voltage: np.ndarray,
                 current: np.ndarray) -> np.ndarray:
        """The Jacobian at ``voltage`` (``current`` is ``ybus @ voltage``)."""
        unit = voltage / np.abs(voltage)
        v_row = voltage[self._rows]
        ds_dva = -1j * v_row * np.conj(self._ybus * voltage[self._cols])
        ds_dva[self._diagonal] += 1j * voltage * np.conj(current)
        ds_dvm = v_row * np.conj(self._ybus * unit[self._cols])
        ds_dvm[self._diagonal] += np.conj(current) * unit
        flat = self._matrix.reshape(-1)
        for (position, entry), values in zip(
                self._blocks,
                (ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag)):
            flat[position] = values[entry]
        return self._matrix


def ac_power_flow(network: PowerNetwork,
                  nodes: Iterable[int] | None = None,
                  slack: int | None = None,
                  tol: float = AC_TOLERANCE,
                  max_iterations: int = AC_MAX_ITERATIONS
                  ) -> PowerFlowSolution:
    """Full Newton-Raphson power flow in polar form, flat start.

    Converges when the largest active or reactive mismatch falls below
    ``tol`` (per unit). Raises NotConverged with the iteration count and
    final mismatch if the limit is hit first.
    """
    chosen, slack, index = _solve_setup(network, nodes, slack)
    n = len(chosen)
    ybus, branches = build_ybus(network, chosen)

    base = network.base_mva
    p_spec = np.zeros(n)
    q_spec = np.zeros(n)
    vm = np.ones(n)
    va = np.zeros(n)
    is_pv = np.zeros(n, dtype=bool)
    for node in chosen:
        k = index[node]
        bus = network.bus(node)
        p_spec[k] = (bus.p_gen_scheduled - bus.p_demand) / base
        q_spec[k] = -bus.q_demand / base
        if bus.voltage_setpoint is not None:
            is_pv[k] = True
            vm[k] = bus.voltage_setpoint
    slack_k = index[slack]
    is_pv[slack_k] = False

    pv = np.flatnonzero(is_pv)
    pq = np.flatnonzero(~is_pv & (np.arange(n) != slack_k))
    pvpq = np.concatenate([pv, pq])
    jacobian = _JacobianAssembler(ybus, pvpq, pq)

    history: list[float] = []
    iterations = 0
    while True:
        voltage = vm * np.exp(1j * va)
        current = ybus @ voltage
        s_calc = voltage * np.conj(current)
        dp = p_spec - s_calc.real
        dq = q_spec - s_calc.imag
        f = np.concatenate([dp[pvpq], dq[pq]])
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        history.append(mismatch)
        if mismatch < tol:
            break
        if iterations >= max_iterations:
            raise NotConverged(iterations, mismatch)
        iterations += 1
        try:
            dx = np.linalg.solve(jacobian(voltage, current), f)
        except np.linalg.LinAlgError:
            raise SingularSystem("power-flow Jacobian is singular") from None
        va[pvpq] += dx[:pvpq.size]
        vm[pq] += dx[pvpq.size:]

    voltage = vm * np.exp(1j * va)
    n_br = len(branches)
    p_from = np.empty(n_br)
    p_to = np.empty(n_br)
    q_from = np.empty(n_br)
    q_to = np.empty(n_br)
    for k, br in enumerate(branches):
        f_idx, t_idx = index[br.from_bus], index[br.to_bus]
        ys = 1.0 / complex(br.resistance, br.reactance)
        shunt = 0.5j * br.charging
        tap = br.tap_ratio
        vf, vt = voltage[f_idx], voltage[t_idx]
        i_from = (ys + shunt) / (tap * tap) * vf - ys / tap * vt
        i_to = (ys + shunt) * vt - ys / tap * vf
        s_from = vf * np.conj(i_from) * base
        s_to = vt * np.conj(i_to) * base
        p_from[k], q_from[k] = s_from.real, s_from.imag
        p_to[k], q_to[k] = s_to.real, s_to.imag

    return PowerFlowSolution(
        method="ac", node_ids=chosen, vm=vm, va=va,
        branch_ends=tuple((br.from_bus, br.to_bus) for br in branches),
        p_from=p_from, p_to=p_to, q_from=q_from, q_to=q_to,
        converged=True, iterations=iterations, mismatch=mismatch,
        mismatch_history=tuple(history), slack=slack)
