"""Kuramoto cyberlayer: construction, integration, and sync detection.

Each node carries phase theta_i with dynamics

    dtheta_i/dt = p_i + sum_j w_ij sin(theta_j - theta_i)

where p_i is the per-unit net injection of the bus and w_ij the series
susceptance of the connecting branch (parallel circuits summed). The
right-hand side is antisymmetric in each edge, so the mean frequency
equals the mean natural frequency at all times; tests pin that down to
rounding error.

One kernel (``_Kernel``) evaluates the right-hand side and RK4 steps on
(node, run)-major phases in buffers allocated once. ``derivative`` turns
phases into frequencies with it, ``integrate`` stores every sample of
one run or a batch of runs, and ``ensemble_integrate`` applies that to
an ensemble's seeded initial phases. A sync table holds one entry per
layer edge, keyed (low id, high id). ``ensemble_sync_times`` scans the
ensemble as it goes instead, keeping per edge only the last step at
which the order parameter was at or below the threshold, so its memory
does not grow with the number of steps. Each sample's cos(theta_low -
theta_high) comes from the edge differences the next step's first stage
gathers anyway: cos is even and x_j - x_i is exactly -(x_i - x_j). With
two usable CPUs a forked child (``_forked.Forked``, the one fork of the
package, which the CLI's whole-network power flow also uses) integrates
the upper half of the runs and sends their cosines, one pickled
(sample, edge, run) block at a time, over a plain socketpair whose deep
send buffer lets it run dozens of blocks ahead; the calling process
puts them after its own runs and averages each edge's contiguous runs,
or integrates every run itself where the fork is refused at a process
limit. The kernel gives a run the same bits in a batch of any size, one
run included, so the table has the same bits with one process or two. ``sync_times`` applies the
detection rule directly to a stored trajectory, with no scan, and gives
the same bits. A layer locks to its mean natural frequency, which
``sync_frequency`` returns without integrating. A warning is logged when
a step may leave RK4's stability interval.

``ensemble_sync_times`` stops once a proof says the table is final.
``locked_state`` gives the layer's locked phases theta* and lambda2.
Every fourth block, each run's Lyapunov level V - V(theta*) and its
frequency spread ||omega - mean(omega)||, which the next step's first
stage computes anyway, are checked against a certificate
(``_certificate.LockCertificate``, whose docstring holds the proof)
that every run stays in a region around theta*, under the RK4 map as
executed, rounding included, where an edge locked above the threshold
stays above it at every later sample and an edge locked below it is
below it at the horizon's last sample. The level bounds each edge's
angle through the energy; near the lock the spread, which no step raises
there, bounds it tighter, and the spread's decay to the last sample
tighter still. Edges locked below the threshold then get +inf and the
others keep their last bad sample, so the table has the same bits as a
scan of the whole horizon. On the faulted 118-bus layer at dt = 0.0035,
20 runs stop at t = 4.70-6.27 s of 35 s (ensemble seeds 1-10). With no
stable lock, an edge locked exactly at the threshold, or dt times the
Gershgorin bound at or above 2.785, the scan declines and integrates
the whole horizon. Either outcome is logged at info level.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ._forked import Forked as _ForkedHalf
from ._forked import usable_cpus as _usable_cpus
from .errors import EmptyLayer, NotFound, NumericalDivergence
from .network import PowerNetwork, coupling_susceptance, net_injection

logger = logging.getLogger("grid_islander.kuramoto")

DEFAULT_RHO_THRESHOLD = 0.99
# RK4's stability interval on the negative real axis is [-2.785, 0].
RK4_REAL_LIMIT = 2.785


@dataclass
class CyberLayer:
    """Oscillator layer over a node set.

    ``natural_frequency`` has one entry per node (order of ``node_ids``);
    ``coupling`` is the symmetric nonnegative weight matrix with zero
    diagonal.
    """

    node_ids: tuple[int, ...]
    natural_frequency: np.ndarray
    coupling: np.ndarray
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
        iu, jv = np.nonzero(np.triu(self.coupling))
        self._edges = (iu, jv, self.coupling[iu, jv])

    @property
    def size(self) -> int:
        return len(self.node_ids)


@dataclass
class SyncTimeTable:
    """Internode synchronization times, +inf when never achieved.

    One entry per layer edge, keyed (low id, high id); lookups accept
    either orientation.
    """

    entries: dict[tuple[int, int], float]

    def get(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        try:
            return self.entries[key]
        except KeyError:
            raise NotFound(f"no sync time recorded for edge {i}-{j}") \
                from None

    def items(self):
        return sorted(self.entries.items())


def build_layer(network: PowerNetwork, nodes: Iterable[int]) -> CyberLayer:
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
                      coupling=coupling)


class _Kernel:
    """RK4 of ``runs`` phase columns: (node, run)-major arrays in buffers
    allocated once. ``rhs`` gathers both ends of every layer edge and
    leaves ``diff = theta_jv - theta_iu`` per edge. The edges' flows
    w_e sin(theta_jv - theta_iu) go + at iu and - at jv in one
    scatter-add: each node sums its flows in one order, so a column has
    the same bits in any batch, one column included.
    """

    def __init__(self, layer: CyberLayer, runs: int) -> None:
        iu, jv, w = layer._edges
        self._ends = np.concatenate([iu, jv])
        self._targets = (self._ends[:, None] * runs
                         + np.arange(runs)).ravel()
        # full columns: a broadcast operand costs numpy twice the time
        self._w = np.repeat(w[:, None], runs, axis=1)
        self._p = np.repeat(layer.natural_frequency[:, None], runs, axis=1)
        self._at = np.empty((self._ends.size, runs))
        self.diff = np.empty((w.size, runs))
        self._flows = np.empty((2 * w.size, runs))

    def rhs(self, phases: np.ndarray) -> np.ndarray:
        """Frequencies of (n, runs) phases, a new array."""
        at, diff, flows, m = self._at, self.diff, self._flows, len(self._w)
        phases.take(self._ends, axis=0, out=at, mode="clip")
        np.subtract(at[m:], at[:m], out=diff)
        np.sin(diff, out=flows[:m])
        flows[:m] *= self._w
        np.negative(flows[:m], out=flows[m:])
        return self._p + np.bincount(self._targets, flows.ravel(),
                                     phases.size).reshape(phases.shape)

    def step(self, state: np.ndarray, k1: np.ndarray,
             dt: float) -> np.ndarray:
        """Classic RK4 from ``state``, whose frequencies are ``k1``."""
        k2 = self.rhs(state + 0.5 * dt * k1)
        k3 = self.rhs(state + 0.5 * dt * k2)
        k4 = self.rhs(state + dt * k3)
        return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def derivative(layer: CyberLayer, phases: np.ndarray) -> np.ndarray:
    """Instantaneous frequencies for one or many phase vectors."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape[-1:] != (layer.size,):
        raise ValueError(f"phases must end in an axis of {layer.size}")
    columns = phases.reshape(-1, layer.size).T
    return _Kernel(layer, columns.shape[1]).rhs(columns).T.reshape(
        phases.shape)


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    if dt <= 0 or t_max <= 0:
        raise ValueError("need positive dt and t_max")
    n_steps = int(round(t_max / dt))
    if n_steps < 1:
        raise ValueError("t_max shorter than one step")
    return np.arange(n_steps + 1) * dt


class Trajectory(NamedTuple):
    """Time grid and phases of an integration, sampled every step:
    ``phases[k]`` is the state at ``times[k]``."""

    times: np.ndarray
    phases: np.ndarray


def integrate(layer: CyberLayer, initial: Sequence[float] | np.ndarray, *,
              t_max: float, dt: float) -> Trajectory:
    """Integrate from ``initial`` phases, (n,) for one run or (runs, n)
    for an ensemble; the phases have shape (m+1, n) or (m+1, runs, n).
    ``derivative(layer, phases)`` gives the frequencies. Each run has the
    same bits in a batch of any size, one run included. A warning is
    logged when the step may leave RK4's stability interval.
    """
    initial = np.asarray(initial, dtype=float)
    if initial.ndim not in (1, 2) or initial.shape[-1] != layer.size:
        raise ValueError(f"initial phases must have shape ({layer.size},) "
                         f"or (runs, {layer.size})")
    times = _time_grid(t_max, dt)
    _warn_if_unstable(layer, dt)
    phases = np.empty(times.shape + initial.shape)
    phases[0] = initial
    samples = phases.reshape(times.size, -1, layer.size)
    state = np.ascontiguousarray(samples[0].T)
    kernel = _Kernel(layer, state.shape[1])
    # overflow is handled by the finiteness check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, times.size):
            state = kernel.step(state, kernel.rhs(state), dt)
            if not np.isfinite(state).all():
                raise NumericalDivergence(float(times[k]))
            samples[k] = state.T
    return Trajectory(times, phases)


def sample_initial_conditions(n: int, seed) -> np.ndarray:
    """Draw n phases i.i.d. uniform on (-pi/2, pi/2].

    ``seed`` may be an int or a sequence of ints (used to derive
    independent per-run streams). The half-open interval is realized as
    pi/2 minus a uniform draw from [0, pi).
    """
    rng = np.random.default_rng(seed)
    return 0.5 * math.pi - rng.uniform(0.0, math.pi, size=n)


def _gershgorin(layer: CyberLayer) -> float:
    """Twice the largest weighted degree: a bound on every eigenvalue's
    modulus of any Laplacian whose weights are w_e times a factor in
    [-1, 1]."""
    return 2.0 * float(layer.coupling.sum(axis=1).max())


def _warn_if_unstable(layer: CyberLayer, dt: float) -> None:
    """Log a warning when dt * lambda_max may leave RK4's stability
    interval, bounding lambda_max by Gershgorin (2 * max weighted degree).
    """
    ratio = dt * _gershgorin(layer)
    if ratio > RK4_REAL_LIMIT:
        logger.warning(
            "dt * 2 * max weighted degree = %.4g exceeds RK4's real-axis "
            "stability limit %.3f: the integration may be unstable and "
            "sync times may be integration artifacts", ratio,
            RK4_REAL_LIMIT)


def _ensemble_initial(layer: CyberLayer, n_runs: int,
                      seed: int) -> np.ndarray:
    """(runs, n) initial phases of an ensemble. Run r draws from the
    stream keyed by (seed, r), so any single run can be reproduced in
    isolation."""
    if n_runs < 1:
        raise ValueError("need at least one run")
    return np.stack([sample_initial_conditions(layer.size, [seed, r])
                     for r in range(n_runs)])


def ensemble_integrate(layer: CyberLayer, n_runs: int, seed: int, *,
                       t_max: float, dt: float) -> Trajectory:
    """``integrate`` of the ensemble's (runs, n) initial phases, storing
    every sample: (m+1, runs, n) phases. For sync times alone,
    ``ensemble_sync_times`` needs no stored trajectory.
    """
    return integrate(layer, _ensemble_initial(layer, n_runs, seed),
                     t_max=t_max, dt=dt)


_BLOCK_SAMPLES = 8
# On the faulted 118-bus layer (2-vCPU host), LockCertificate.levels on a
# 10-run half takes ~210 us, about 1.7 samples of that half's work (~130
# us for its RK4 step, right-hand side and cosines), and ``proves`` over
# 20 runs ~90 us more in this process. Checking every fourth block keeps
# that near 5% of a half's integration (7% of this process's), at the
# price of stopping up to 31 steps later.
_CHECK_BLOCKS = 4


def _edge_keys(layer: CyberLayer) -> list[tuple[int, int]]:
    """(low id, high id) of every layer edge, in layer-edge order."""
    ends = np.array(layer.node_ids)[np.stack(layer._edges[:2])]
    return list(zip(*np.sort(ends, axis=0).tolist()))


def ensemble_sync_times(layer: CyberLayer, n_runs: int, seed: int,
                        threshold: float = DEFAULT_RHO_THRESHOLD, *,
                        t_max: float, dt: float) -> SyncTimeTable:
    """``sync_times(layer, *ensemble_integrate(...), threshold)`` with
    the same bits, scanned inside the RK4 loop with no stored trajectory,
    in one process or two (see the module docstring).

    Each half fills (sample, edge, run) blocks of ``_BLOCK_SAMPLES``
    samples, one ``np.cos`` of its kernel's edge differences per sample;
    this process sums each edge's contiguous runs pairwise, as ``np.mean``
    does in ``sync_times``. The earliest divergence in either half raises
    NumericalDivergence. After every ``_CHECK_BLOCKS``-th block at least
    two blocks from the end, both halves report their runs'
    ``LockCertificate`` levels, from the phases and frequencies of the
    block's last sample; once these prove the table final, the child,
    which never waits for this process, is killed and reaped.
    """
    initial = _ensemble_initial(layer, n_runs, seed)
    times = _time_grid(t_max, dt)
    _warn_if_unstable(layer, dt)
    split = (n_runs + 1) // 2 if _usable_cpus() >= 2 else n_runs
    n_edges = layer._edges[2].size
    n_samples = times.shape[0]
    starts = range(0, n_samples, _BLOCK_SAMPLES)
    # imported here, so that a process that integrates nothing never
    # compiles the proof
    from ._certificate import lock_certificate
    certificate = lock_certificate(layer, times, threshold, n_runs)

    def checked(b: int) -> bool:
        """Whether the certificate is checked after block b."""
        return (certificate is not None and b + 2 < len(starts)
                and b % _CHECK_BLOCKS == _CHECK_BLOCKS - 1)

    def blocks(first: int, last: int, cos: np.ndarray
               ) -> Iterator[tuple[float | None, np.ndarray | None,
                                   np.ndarray]]:
        """Per block of runs ``[first:last)``: their divergence time if
        they diverge in it, their certificate levels after a checked
        block, and the block's cosines, written into the leading samples
        of ``cos``. Ends with the block in which they diverge."""
        kernel = _Kernel(layer, last - first)
        state = np.ascontiguousarray(initial[first:last].T)
        for b, start in enumerate(starts):
            block = cos[:n_samples - start]
            diverged = None
            # overflow shows in the finiteness check, not as warnings
            with np.errstate(over="ignore", invalid="ignore"):
                for sample, row in enumerate(block, start):
                    if sample:
                        state = kernel.step(state, k1, dt)
                        if not np.isfinite(state).all():
                            diverged = float(times[sample])
                            break
                    k1 = kernel.rhs(state)
                    np.cos(kernel.diff, out=row)
            if diverged is not None:
                yield diverged, None, block
                return
            yield None, (certificate.levels(
                np.ascontiguousarray(state.T), np.ascontiguousarray(k1.T),
                float(times[sample])) if checked(b) else None), block

    def upper_half(child: _ForkedHalf) -> None:
        cos = np.empty((_BLOCK_SAMPLES, n_edges, n_runs - split))
        for report in blocks(split, n_runs, cos):
            child.send(report)

    try:
        child = _ForkedHalf(upper_half) if split < n_runs else None
    except OSError:    # refused at a process limit: integrate every run here
        child, split = None, n_runs
    last_bad = np.full(n_edges, -1)
    cos = np.empty((_BLOCK_SAMPLES, n_edges, n_runs))
    mine = blocks(0, split, cos[..., :split])
    stop = None
    with child or contextlib.nullcontext():
        for b, start in enumerate(starts):
            t, levels, _ = next(mine)
            reports = [(t, levels)]
            block = cos[:n_samples - start]
            if child is not None:   # its runs go after this process's
                t, levels, block[..., split:] = child.receive()
                reports.append((t, levels))
            diverged = [t for t, _ in reports if t is not None]
            if diverged:
                raise NumericalDivergence(min(diverged))
            rho = np.add.reduce(block, axis=-1) / n_runs
            bad = rho <= threshold
            last = start + len(bad) - 1 - np.argmax(bad[::-1], axis=0)
            hit = bad.any(axis=0)
            last_bad[hit] = last[hit]
            if checked(b):
                levels = np.concatenate([levels for _, levels in reports])
                if certificate.proves(levels):
                    stop = start + _BLOCK_SAMPLES - 1
                    last_bad[certificate.below] = n_samples - 1
                    break
    if certificate is not None and stop is None:
        logger.info("lock not certified within the horizon: integrated "
                    "all %d steps", n_samples - 1)
    elif certificate is not None:
        logger.info("lock certified at t = %.4f s (locked-state residual "
                    "%.1e, lambda2 %.4f, dt * LamQ %.3f, frequency spread "
                    "<= %.3g, non-increasing below %.3g, <= %.3g at the "
                    "last sample): integrated %d of %d steps", times[stop],
                    certificate.residual, certificate.lambda2,
                    dt * certificate.lam_q, levels[:, 2].max(),
                    levels[:, 4].min(), levels[:, 5].max(), stop,
                    n_samples - 1)
    return SyncTimeTable(entries={
        key: settling_time(times, bad)
        for key, bad in zip(_edge_keys(layer), last_bad.tolist())})


def sync_times(layer: CyberLayer, times: np.ndarray, phases: np.ndarray,
               threshold: float = DEFAULT_RHO_THRESHOLD) -> SyncTimeTable:
    """Sync times of stored (m+1, runs, n) ensemble phases, by the rule
    itself: a layer edge's order parameter at a sample is the mean over
    runs of cos(theta_low - theta_high), and its sync time is the sample
    after the last one at or below the threshold (``settling_time``).
    """
    iu, jv, _ = layer._edges
    entries = {}
    for key, a, b in zip(_edge_keys(layer), iu.tolist(), jv.tolist()):
        rho = np.mean(np.cos(phases[:, :, a] - phases[:, :, b]), axis=1)
        bad = np.flatnonzero(rho <= threshold)
        entries[key] = settling_time(times, int(bad[-1]) if bad.size else -1)
    return SyncTimeTable(entries=entries)


def settling_time(times: np.ndarray, last_bad: int) -> float:
    """Earliest sample time after the last bad sample ``last_bad`` (-1 if
    none): ``times[0]`` if none, +inf if the last sample is bad.
    """
    if last_bad < 0:
        return float(times[0])
    if last_bad == times.shape[0] - 1:
        return math.inf
    return float(times[last_bad + 1])


def sync_frequency(layer: CyberLayer) -> float:
    """Synchronized frequency of a layer: the mean natural frequency."""
    return float(np.mean(layer.natural_frequency))


class LockedState(NamedTuple):
    """Phases ``theta*`` (mean zero) of a locked layer, and ``lambda2``,
    the second smallest eigenvalue of the Laplacian with weights
    w_ij cos(theta*_i - theta*_j) there."""

    phases: np.ndarray
    lambda2: float


_EPS = float(np.finfo(float).eps)
_NEWTON_ITERATIONS = 30


def _laplacian(layer: CyberLayer, factors) -> np.ndarray:
    """Laplacian with weight w_e * factors_e on layer edge e."""
    iu, jv, w = layer._edges
    lap = np.zeros((layer.size, layer.size))
    lap[iu, jv] = lap[jv, iu] = -w * factors
    lap[np.diag_indices(layer.size)] = -lap.sum(axis=1)
    return lap


def _mismatch(layer: CyberLayer, phases: np.ndarray) -> np.ndarray:
    """p~_i - sum_j w_ij sin(theta_i - theta_j), p~ the natural
    frequencies less their mean: zero at a locked state."""
    iu, jv, w = layer._edges
    p = layer.natural_frequency - layer.natural_frequency.mean()
    flow = w * np.sin(phases[iu] - phases[jv])
    return (p - np.bincount(iu, flow, layer.size)
            + np.bincount(jv, flow, layer.size))


def _lock_phases(layer: CyberLayer) -> np.ndarray | None:
    """theta* of ``locked_state`` with every edge cosine positive, or
    None."""
    n = layer.size
    iu, jv, _ = layer._edges
    if n < 2 or iu.size == 0:
        return None
    p = layer.natural_frequency - layer.natural_frequency.mean()
    tolerance = 64 * n * _EPS * (np.abs(p).max() + _gershgorin(layer))
    theta = np.zeros(n)
    try:
        with np.errstate(all="ignore"):
            theta[1:] = np.linalg.solve(_laplacian(layer, 1.0)[1:, 1:], p[1:])
            for _ in range(_NEWTON_ITERATIONS):
                mismatch = _mismatch(layer, theta)
                if np.abs(mismatch).max() <= tolerance:
                    break
                cos = np.cos(theta[iu] - theta[jv])
                theta[1:] += np.linalg.solve(_laplacian(layer, cos)[1:, 1:],
                                             mismatch[1:])
            else:
                return None
    except np.linalg.LinAlgError:
        return None
    theta -= theta.mean()
    if np.cos(theta[iu] - theta[jv]).min() <= 0.0:
        return None
    return theta


def locked_state(layer: CyberLayer) -> LockedState | None:
    """The stable phase-locked state of a layer, or None.

    Symmetric Kuramoto coupling locks, in the frame turning at the mean
    natural frequency, at theta* solving
    ``p~_i = sum_j w_ij sin(theta*_i - theta*_j)``, a lossless
    unit-voltage power flow (Dörfler, Chertkov & Bullo, PNAS 2013).
    Newton's method from the DC guess ``L+ p~`` finds it, node 0
    grounded. None when Newton does not bring the mismatch down to
    rounding level, when some edge has cos(theta*_i - theta*_j) <= 0, or
    when lambda2 <= 0: then the layer has no stable lock to report.
    """
    theta = _lock_phases(layer)
    if theta is None:
        return None
    iu, jv, _ = layer._edges
    lambda2 = float(np.linalg.eigvalsh(
        _laplacian(layer, np.cos(theta[iu] - theta[jv])))[1])
    if lambda2 <= 0.0:
        return None
    return LockedState(phases=theta, lambda2=lambda2)
