"""Kuramoto cyberlayer: construction, integration, and sync detection.

Each node carries phase theta_i with dynamics

    dtheta_i/dt = p_i + sum_j w_ij sin(theta_j - theta_i)

where p_i is the per-unit net injection of the bus and w_ij the series
susceptance of the connecting branch (parallel circuits summed). The
right-hand side is antisymmetric in each edge, so the mean frequency
equals the mean natural frequency at all times; tests pin that down to
rounding error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (EmptyLayer, GridError, NotFound, NotSynchronized,
                     NumericalDivergence)
from .network import PowerNetwork, coupling_susceptance, net_injection

logger = logging.getLogger("grid_islander.kuramoto")

DEFAULT_DT = 0.01
DEFAULT_T_MAX = 100.0
DEFAULT_RHO_THRESHOLD = 0.99
DEFAULT_FREQ_TOLERANCE = 1e-4


@dataclass
class CyberLayer:
    """Oscillator layer over a node set.

    ``natural_frequency`` has one entry per node (order of ``node_ids``);
    ``coupling`` is the symmetric nonnegative weight matrix with zero
    diagonal. ``label`` is free-form and only used in logs.
    """

    node_ids: tuple[int, ...]
    natural_frequency: np.ndarray
    coupling: np.ndarray
    label: str = ""
    _index: dict[int, int] = field(init=False, repr=False)
    _edges: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False)

    def __post_init__(self):
        self.node_ids = tuple(int(n) for n in self.node_ids)
        n = len(self.node_ids)
        if n == 0:
            raise EmptyLayer("cyberlayer over an empty node set")
        if len(set(self.node_ids)) != n:
            raise ValueError("duplicate node ids in layer")
        self.natural_frequency = np.asarray(self.natural_frequency,
                                            dtype=float)
        self.coupling = np.asarray(self.coupling, dtype=float)
        if self.natural_frequency.shape != (n,):
            raise ValueError("natural_frequency shape mismatch")
        if self.coupling.shape != (n, n):
            raise ValueError("coupling shape mismatch")
        if not np.array_equal(self.coupling, self.coupling.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(self.coupling) != 0.0):
            raise ValueError("coupling diagonal must be zero")
        if np.any(self.coupling < 0.0):
            raise ValueError("coupling weights must be nonnegative")
        self._index = {node: k for k, node in enumerate(self.node_ids)}
        iu, jv = np.nonzero(np.triu(self.coupling))
        self._edges = (iu, jv, self.coupling[iu, jv])

    @property
    def size(self) -> int:
        return len(self.node_ids)

    def index(self, node_id: int) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise NotFound(f"node {node_id} is not in this layer") from None


@dataclass(frozen=True)
class PhaseState:
    """Phases and instantaneous frequencies at one sample time."""

    time: float
    phases: np.ndarray
    frequencies: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """One integration run sampled at every step."""

    layer: CyberLayer
    times: np.ndarray          # (m+1,)
    phases: np.ndarray         # (m+1, n)
    frequencies: np.ndarray    # (m+1, n)

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, k: int) -> PhaseState:
        return PhaseState(time=float(self.times[k]),
                          phases=self.phases[k],
                          frequencies=self.frequencies[k])

    @property
    def final(self) -> PhaseState:
        return self.state(len(self) - 1)


@dataclass(frozen=True)
class EnsembleResult:
    """Phase trajectories of all runs on a shared time grid."""

    layer: CyberLayer
    times: np.ndarray          # (m+1,)
    phases: np.ndarray         # (runs, m+1, n)
    seed: int

    @property
    def n_runs(self) -> int:
        return self.phases.shape[0]


@dataclass
class SyncTimeTable:
    """Internode synchronization times, +inf when never achieved.

    Keys are normalized (low id, high id) pairs; lookups accept either
    orientation.
    """

    entries: dict[tuple[int, int], float]

    def get(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        try:
            return self.entries[key]
        except KeyError:
            raise NotFound(f"no sync time recorded for edge {i}-{j}") \
                from None

    def __contains__(self, pair) -> bool:
        i, j = pair
        return ((i, j) if i < j else (j, i)) in self.entries

    def items(self):
        return sorted(self.entries.items())


def build_layer(network: PowerNetwork, nodes: Iterable[int],
                label: str = "") -> CyberLayer:
    """Cyberlayer over ``nodes``: injections as natural frequencies,
    series susceptances of induced in-service branches as couplings.

    Parallel circuits between the same pair contribute the sum of their
    susceptances, as parallel admittances do.
    """
    node_ids = tuple(sorted(set(int(n) for n in nodes)))
    if not node_ids:
        raise EmptyLayer("cannot build a layer over an empty node set")
    index = {node: k for k, node in enumerate(node_ids)}
    freq = np.array([net_injection(network, n) for n in node_ids])
    coupling = np.zeros((len(node_ids), len(node_ids)))
    for br in network.branches:
        if not br.status:
            continue
        a, b = index.get(br.from_bus), index.get(br.to_bus)
        if a is None or b is None:
            continue
        w = coupling_susceptance(br)
        coupling[a, b] += w
        coupling[b, a] += w
    return CyberLayer(node_ids=node_ids, natural_frequency=freq,
                      coupling=coupling, label=label)


def _make_rhs(layer: CyberLayer) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized right-hand side accepting (..., n) phase arrays."""
    p = layer.natural_frequency
    iu, jv, w = layer._edges
    if iu.size == 0:
        def rhs(phases: np.ndarray) -> np.ndarray:
            return np.broadcast_to(p, phases.shape).copy()
        return rhs
    # Signed, weighted incidence: edge e adds +w_e sin(theta_jv - theta_iu)
    # at node iu and the negative at node jv.
    incidence = np.zeros((iu.size, layer.size))
    rows = np.arange(iu.size)
    incidence[rows, iu] = w
    incidence[rows, jv] = -w

    def rhs(phases: np.ndarray) -> np.ndarray:
        s = np.sin(phases[..., jv] - phases[..., iu])
        return p + s @ incidence

    return rhs


def derivative(layer: CyberLayer, phases: np.ndarray) -> np.ndarray:
    """Instantaneous frequencies for one or many phase vectors."""
    return _make_rhs(layer)(np.asarray(phases, dtype=float))


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    if dt <= 0 or t_max <= 0:
        raise ValueError("need positive dt and t_max")
    n_steps = int(round(t_max / dt))
    if n_steps < 1:
        raise ValueError("t_max shorter than one step")
    return np.arange(n_steps + 1) * dt


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], initial: np.ndarray,
         times: np.ndarray) -> np.ndarray:
    """Classic fixed-step RK4; stores every sample, checks finiteness."""
    dt = float(times[1] - times[0])
    out = np.empty(times.shape + initial.shape)
    state = np.array(initial, dtype=float)
    out[0] = state
    # overflow is handled by the finiteness check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, times.shape[0]):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(state)):
                raise NumericalDivergence(float(times[k]))
            out[k] = state
    return out


def integrate(layer: CyberLayer, initial: Sequence[float] | np.ndarray,
              t_max: float = DEFAULT_T_MAX,
              dt: float = DEFAULT_DT) -> Trajectory:
    """Integrate one run from ``initial`` phases, sampling every step."""
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (layer.size,):
        raise ValueError(f"initial phases must have shape ({layer.size},)")
    times = _time_grid(t_max, dt)
    rhs = _make_rhs(layer)
    phases = _rk4(rhs, initial, times)
    return Trajectory(layer=layer, times=times, phases=phases,
                      frequencies=rhs(phases))


def sample_initial_conditions(n: int, seed) -> np.ndarray:
    """Draw n phases i.i.d. uniform on (-pi/2, pi/2].

    ``seed`` may be an int or a sequence of ints (used to derive
    independent per-run streams). The half-open interval is realized as
    pi/2 minus a uniform draw from [0, pi).
    """
    rng = np.random.default_rng(seed)
    return 0.5 * math.pi - rng.uniform(0.0, math.pi, size=n)


def ensemble_integrate(layer: CyberLayer, n_runs: int, seed: int,
                       t_max: float = DEFAULT_T_MAX,
                       dt: float = DEFAULT_DT) -> EnsembleResult:
    """Integrate ``n_runs`` independent initial conditions on one grid.

    Run r draws its initial phases from the stream keyed by
    (seed, r), so any single run can be reproduced in isolation.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    times = _time_grid(t_max, dt)
    initial = np.stack([sample_initial_conditions(layer.size, [seed, r])
                        for r in range(n_runs)])
    rhs = _make_rhs(layer)
    phases = _rk4(rhs, initial, times)          # (m+1, runs, n)
    return EnsembleResult(layer=layer, times=times,
                          phases=np.swapaxes(phases, 0, 1), seed=seed)


def _grid_index(times: np.ndarray, t: float) -> int:
    dt = float(times[1] - times[0]) if times.shape[0] > 1 else 1.0
    k = int(round(t / dt))
    if k < 0 or k >= times.shape[0] or abs(times[k] - t) > 1e-9:
        raise GridError(f"t={t} is not on the stored integration grid")
    return k


def order_parameter(ensemble: EnsembleResult, i: int, j: int,
                    t: float) -> float:
    """Ensemble-averaged cos(theta_i - theta_j) at grid time t."""
    k = _grid_index(ensemble.times, t)
    a, b = ensemble.layer.index(i), ensemble.layer.index(j)
    return float(np.mean(np.cos(ensemble.phases[:, k, a]
                                - ensemble.phases[:, k, b])))


def order_parameter_series(ensemble: EnsembleResult, i: int,
                           j: int) -> np.ndarray:
    """Order parameter of one node pair at every sample time."""
    a, b = ensemble.layer.index(i), ensemble.layer.index(j)
    return np.mean(np.cos(ensemble.phases[:, :, a]
                          - ensemble.phases[:, :, b]), axis=0)


def sync_times(ensemble: EnsembleResult, edges: Iterable[tuple[int, int]],
               threshold: float = DEFAULT_RHO_THRESHOLD) -> SyncTimeTable:
    """Earliest grid time from which each edge's order parameter stays
    above the threshold through the end of the horizon; +inf if none.
    """
    entries: dict[tuple[int, int], float] = {}
    times = ensemble.times
    for a, b in edges:
        key = (a, b) if a < b else (b, a)
        if key in entries:
            continue
        rho = order_parameter_series(ensemble, key[0], key[1])
        entries[key] = settling_time(times, rho <= threshold)
    return SyncTimeTable(entries=entries)


def settling_time(times: np.ndarray, bad: np.ndarray) -> float:
    """Earliest sample time from which ``bad`` stays false through the
    last sample: ``times[0]`` if it never holds, +inf if it holds at the
    last sample.
    """
    if not bad.any():
        return float(times[0])
    if bad[-1]:
        return math.inf
    return float(times[int(np.nonzero(bad)[0][-1]) + 1])


def sync_frequency(layer: CyberLayer) -> float:
    """Synchronized frequency of a layer: the mean natural frequency."""
    return float(np.mean(layer.natural_frequency))


def measure_sync_frequency(layer: CyberLayer,
                           t_max: float = DEFAULT_T_MAX,
                           dt: float = DEFAULT_DT,
                           tolerance: float = DEFAULT_FREQ_TOLERANCE
                           ) -> float:
    """Measure the locked frequency by integrating from zero phases.

    Synchronization is declared when the spread of instantaneous
    frequencies stays below ``tolerance`` at every sample in the final
    tenth of the horizon; the median per-node frequency at the last
    sample is returned. Raises NotSynchronized otherwise.

    The median is a genuine measurement: the cross-node mean would equal
    the analytic value identically (the dynamics conserve it), hiding
    any failure to lock.
    """
    traj = integrate(layer, np.zeros(layer.size), t_max=t_max, dt=dt)
    tail = traj.times >= 0.9 * t_max - 1e-12
    freqs = traj.frequencies[tail]
    spread = freqs.max(axis=1) - freqs.min(axis=1)
    if not np.all(spread < tolerance):
        raise NotSynchronized(
            f"frequency spread {spread.max():.3e} exceeds tolerance "
            f"{tolerance:g} over the final tenth of the horizon")
    return float(np.median(traj.frequencies[-1]))
