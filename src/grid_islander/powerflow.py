"""AC (Newton-Raphson) and DC power flow on a network or island subset.

The AC flow keeps the admittance matrix as row-major triplets of its
nonzeros and diagonal, never as an n x n array; the DC flow's
susceptance matrix is still dense. The Newton-Raphson Jacobian is
assembled in O(nnz) over the triplets with MATPOWER's sparse
``dSbus_dV`` formulas (Zimmerman et al., IEEE Trans. Power Syst. 2011)
into dense blocks over the bus graph's breadth-first levels, and each
step eliminates them block-tridiagonally (no O(n^3) LU).
Branch model is the standard pi section with off-nominal tap on
the from side. Buses holding a voltage setpoint are PV, the rest PQ;
reactive limits are not enforced. The slack bus defaults to the
generator-set bus with the largest scheduled output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import NoGenerator, NotConverged, NotFound, SingularSystem
from .network import Branch, PowerNetwork, net_injection

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


def _solve_setup(network: PowerNetwork, nodes: Iterable[int] | None
                 ) -> tuple[tuple[int, ...], int, dict[int, int]]:
    """Sorted connected node set, its slack bus, and each node's index."""
    chosen = _select_nodes(network, nodes)
    if not network.subgraph_connected(chosen):
        raise SingularSystem("node set is not connected; flow equations "
                             "are singular")
    slack = default_slack(network, chosen)
    return chosen, slack, {n: k for k, n in enumerate(chosen)}


def dc_power_flow(network: PowerNetwork,
                  nodes: Iterable[int] | None = None) -> PowerFlowSolution:
    """Lossless linear power flow: B theta = P with flat voltages.

    Branch susceptance is 1/(x * tap); the slack angle is zero.
    """
    chosen, slack, index = _solve_setup(network, nodes)
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

    injections = np.array([net_injection(network, node) for node in chosen])
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
        iterations=0, mismatch=0.0,
        mismatch_history=(), slack=slack)


def _pi_section(br: Branch) -> tuple[complex, complex, complex]:
    """Admittances (y_ff, y_tt, y_ft = y_tf) of a branch's pi section."""
    ys = 1.0 / complex(br.resistance, br.reactance)
    shunt = 0.5j * br.charging
    tap = br.tap_ratio
    return (ys + shunt) / (tap * tap), ys + shunt, -ys / tap


class Admittance(NamedTuple):
    """Bus admittance matrix over a node set as row-major triplets: its
    nonzeros and its whole diagonal, entry k at ``rows[k]``,
    ``cols[k]``. ``ends`` and ``pi`` hold each branch it sums: the
    (from, to) indices, and the pi section's (y_ff, y_tt, y_ft)."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    ends: np.ndarray                # (branches, 2)
    pi: np.ndarray                  # (branches, 3)

    def __matmul__(self, voltage: np.ndarray) -> np.ndarray:
        """Bus currents ``ybus @ voltage``, summed along each row."""
        term = self.values * voltage[self.cols]
        return (np.bincount(self.rows, term.real, voltage.size)
                + 1j * np.bincount(self.rows, term.imag, voltage.size))


def build_ybus(network: PowerNetwork, nodes: Sequence[int]
               ) -> tuple[Admittance, list[Branch]]:
    """Bus admittance matrix over ``nodes`` plus the branches included.

    Each entry adds its branches' pi-section terms with ``np.add.at`` in
    branch order, which gives the bits of a dense ``+=`` loop; entries
    off the diagonal that sum to exactly zero are dropped."""
    n = len(nodes)
    index = {node: k for k, node in enumerate(nodes)}
    branches = _island_branches(network, nodes)
    ends = np.array([(index[br.from_bus], index[br.to_bus])
                     for br in branches], dtype=int).reshape(-1, 2)
    pi = np.array([_pi_section(br) for br in branches],
                  dtype=complex).reshape(-1, 3)
    # a zero on every diagonal entry, then each branch's ff, tt, ft and
    # tf terms; a stable sort by entry keeps each entry's terms in that
    # order for np.add.at (np.unique can import numpy.ma, about 1 MB of
    # RSS)
    diagonal = np.arange(n)
    rows = np.concatenate([diagonal, ends[:, [0, 1, 0, 1]].ravel()])
    cols = np.concatenate([diagonal, ends[:, [0, 1, 1, 0]].ravel()])
    terms = np.concatenate([np.zeros(n), pi[:, [0, 1, 2, 2]].ravel()])
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    first = np.diff(keys[order], prepend=-1) != 0
    values = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(values, np.cumsum(first) - 1, terms[order])
    rows, cols = rows[order][first], cols[order][first]
    keep = (values != 0) | (rows == cols)
    return Admittance(rows[keep], cols[keep], values[keep], ends, pi), branches


# Fewest unknowns in a block of the Newton step; a flow with no more is
# one block, the whole Jacobian solved at once.
_MIN_BLOCK = 256


class _JacobianAssembler:
    """Polar Jacobian [[dP/dVa, dP/dVm], [dQ/dVa, dQ/dVm]], angles at
    ``pvpq``, magnitudes at ``pq``, evaluated only at ybus's nonzeros
    and diagonal, in blocks of at least ``_MIN_BLOCK`` unknowns over runs
    of breadth-first levels of the bus graph (Cuthill and McKee), which
    make it block-tridiagonal. ``unknowns[i]`` holds block i's indices,
    ascending; ``blocks[i, j]`` is ``(matrix, rows, cols)``, the Jacobian
    at ``unknowns[i][rows]`` by ``unknowns[j][cols]``, the rows and
    columns the pattern reaches. Each call zeroes and refills them."""

    def __init__(self, ybus: Admittance, pvpq: np.ndarray, pq: np.ndarray):
        self._rows, self._cols, self._ybus = ybus.rows, ybus.cols, ybus.values
        self._diagonal = np.flatnonzero(self._rows == self._cols)
        n = self._diagonal.size
        # BFS levels from bus 0, then from the lowest id it reached last
        # (a pseudo-peripheral bus); buses it cannot reach share level n
        start = 0
        for _ in range(2):
            level = np.full(n, n)
            level[start] = depth = 0
            while (reached := self._cols[(level[self._rows] == depth)
                                         & (level[self._cols] == n)]).size:
                depth += 1
                level[reached] = depth
            start = int(np.argmax(level))
        level = level[np.concatenate([pvpq, pq])]      # of each unknown
        counts = np.bincount(level)
        first, held = [0], 0                  # first level of each block
        for k, count in enumerate(counts):
            if held >= _MIN_BLOCK and counts[k:].sum() >= _MIN_BLOCK:
                first, held = first + [k], 0
            held += count
        block = np.searchsorted(first, level, side="right") - 1
        self.unknowns = [np.flatnonzero(block == i) for i in range(len(first))]
        # each bus's P row and angle column, and its Q row and magnitude
        # column, in the Jacobian; -1 where the bus has none
        angle, magnitude = np.full((2, n), -1)
        angle[pvpq] = np.arange(pvpq.size)
        magnitude[pq] = pvpq.size + np.arange(pq.size)
        # the Jacobian row and column of each entry of the stacked dS
        # values (P by angle, P by magnitude, Q by angle, Q by magnitude)
        # and the entries that have both
        row = np.concatenate([angle[self._rows]] * 2
                             + [magnitude[self._rows]] * 2)
        col = np.tile(np.concatenate([angle[self._cols],
                                      magnitude[self._cols]]), 2)
        self._source = np.flatnonzero((row >= 0) & (col >= 0))
        row, col = row[self._source], col[self._source]
        # a dense block per adjacent pair of blocks, over the rows and
        # columns the pattern reaches there, all in one buffer (sorted by
        # bincount: np.unique would import numpy.ma, about 1 MB of RSS)
        self._position = np.empty(row.size, dtype=int)
        shapes, end = {}, 0
        for i in range(len(first)):
            for j in range(max(i - 1, 0), min(i + 2, len(first))):
                inside = (block[row] == i) & (block[col] == j)
                rows, cols = (np.flatnonzero(np.bincount(
                    x[inside], minlength=block.size)) for x in (row, col))
                self._position[inside] = (
                    end + cols.size * np.searchsorted(rows, row[inside])
                    + np.searchsorted(cols, col[inside]))
                shapes[i, j] = (end, np.searchsorted(self.unknowns[i], rows),
                                np.searchsorted(self.unknowns[j], cols))
                end += rows.size * cols.size
        self._buffer = np.zeros(end)
        self.blocks = {pair: (self._buffer[start:start + r.size * c.size]
                              .reshape(r.size, c.size), r, c)
                       for pair, (start, r, c) in shapes.items()}

    def __call__(self, voltage: np.ndarray, current: np.ndarray) -> dict:
        """The blocks at ``voltage`` (``current`` is ``ybus @ voltage``)."""
        unit = voltage / np.abs(voltage)
        v_row = voltage[self._rows]
        ds_dva = -1j * v_row * np.conj(self._ybus * voltage[self._cols])
        ds_dva[self._diagonal] += 1j * voltage * np.conj(current)
        ds_dvm = v_row * np.conj(self._ybus * unit[self._cols])
        ds_dvm[self._diagonal] += np.conj(current) * unit
        values = np.concatenate([ds_dva.real, ds_dvm.real,
                                 ds_dva.imag, ds_dvm.imag])
        self._buffer.fill(0.0)
        self._buffer[self._position] = values[self._source]
        return self.blocks

    def solve(self, f: np.ndarray) -> np.ndarray:
        """Newton step J dx = f: block-tridiagonal elimination of the last
        call's blocks, which leaves Schur complements on the diagonal.
        Each diagonal solve takes only the next coupling block's columns."""
        last = len(self.unknowns) - 1
        eliminated = []
        rhs = f[self.unknowns[0]]
        for k in range(last):
            upper, rows, cols = self.blocks[k, k + 1]
            stacked = np.zeros((rhs.size, cols.size + 1))
            stacked[rows, :-1], stacked[:, -1] = upper, rhs
            solved = np.linalg.solve(self.blocks[k, k][0], stacked)
            eliminated.append((solved, cols))
            lower, rows, inner = self.blocks[k + 1, k]
            schur = lower @ solved[inner]
            self.blocks[k + 1, k + 1][0][np.ix_(rows, cols)] -= schur[:, :-1]
            rhs = f[self.unknowns[k + 1]]
            rhs[rows] -= schur[:, -1]
        dx = np.empty(f.size)
        x = dx[self.unknowns[last]] = np.linalg.solve(
            self.blocks[last, last][0], rhs)
        for k in reversed(range(last)):
            solved, cols = eliminated[k]
            x = dx[self.unknowns[k]] = solved[:, -1] - solved[:, :-1] @ x[cols]
        return dx


def ac_power_flow(network: PowerNetwork,
                  nodes: Iterable[int] | None = None) -> PowerFlowSolution:
    """Full Newton-Raphson power flow in polar form, flat start.

    Converges when the largest active or reactive mismatch falls below
    ``AC_TOLERANCE`` (per unit). Raises NotConverged with the iteration
    count and final mismatch if ``AC_MAX_ITERATIONS`` is hit first.
    """
    chosen, slack, index = _solve_setup(network, nodes)
    n = len(chosen)
    ybus, branches = build_ybus(network, chosen)

    base = network.base_mva
    p_spec, q_spec = np.zeros((2, n))
    vm = np.ones(n)
    va = np.zeros(n)
    is_pv = np.zeros(n, dtype=bool)
    for node in chosen:
        k = index[node]
        bus = network.bus(node)
        p_spec[k] = net_injection(network, node)
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
        f = np.concatenate([(p_spec - s_calc.real)[pvpq],
                            (q_spec - s_calc.imag)[pq]])
        mismatch = float(np.max(np.abs(f))) if f.size else 0.0
        history.append(mismatch)
        if mismatch < AC_TOLERANCE or iterations >= AC_MAX_ITERATIONS:
            break
        iterations += 1
        jacobian(voltage, current)
        try:
            dx = jacobian.solve(f)
        except np.linalg.LinAlgError:
            raise SingularSystem("power-flow Jacobian is singular") from None
        va[pvpq] += dx[:pvpq.size]
        vm[pq] += dx[pvpq.size:]
    sizes = [block.size for block in jacobian.unknowns]
    logger.debug("AC flow: %d buses, %d unknowns in %d blocks (largest %d), "
                 "%d iterations, mismatch %.3g", n, sum(sizes), len(sizes),
                 max(sizes), iterations, mismatch)
    if not mismatch < AC_TOLERANCE:
        raise NotConverged(iterations, mismatch)

    voltage = vm * np.exp(1j * va)
    y_ff, y_tt, y_ft = ybus.pi.T
    vf, vt = voltage[ybus.ends.T]
    s_from = vf * np.conj(y_ff * vf + y_ft * vt) * base
    s_to = vt * np.conj(y_tt * vt + y_ft * vf) * base

    return PowerFlowSolution(
        method="ac", node_ids=chosen, vm=vm, va=va,
        branch_ends=tuple((br.from_bus, br.to_bus) for br in branches),
        p_from=s_from.real, p_to=s_to.real,
        q_from=s_from.imag, q_to=s_to.imag,
        iterations=iterations, mismatch=mismatch,
        mismatch_history=tuple(history), slack=slack)
