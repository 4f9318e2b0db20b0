"""Kuramoto cyberlayer: construction, integration, and sync detection.

Each node carries phase theta_i with dynamics

    dtheta_i/dt = p_i + sum_j w_ij sin(theta_j - theta_i)

where p_i is the per-unit net injection of the bus and w_ij the series
susceptance of the connecting branch (parallel circuits summed). The
right-hand side is antisymmetric in each edge, so the mean frequency
equals the mean natural frequency at all times; tests pin that down to
rounding error.

One RK4 generator yields the (runs, n) phases of an ensemble sample by
sample. ``integrate`` stores every sample of one run or of a batch of
runs, and ``ensemble_integrate`` applies it to an ensemble's seeded
initial phases; ``derivative`` turns phases into frequencies.
``ensemble_sync_times`` scans the stream as it goes instead, keeping
per edge only the last step at which the order parameter was at or
below the threshold, so its memory does not grow with the number of
steps. With two usable CPUs it integrates the upper half of the runs
in a forked child (``_forked.Forked``, the one fork of the package,
which the CLI's whole-network power flow also uses). The child sends
its cos(theta_low - theta_high), a (sample, edge, run) block at a time,
over the fork's pipe; the calling process puts them after its own runs
and averages each edge's contiguous runs. The right-hand side gives a
run the same bits in a batch of any size, one run included, so the
table has the same bits with one process or two. ``sync_times``
applies the detection rule directly to a stored trajectory, with no
scan, and gives the same bits. A layer locks to its mean natural
frequency, which ``sync_frequency`` returns without integrating. A
warning is logged when a step may leave RK4's stability interval.

``ensemble_sync_times`` stops once a proof says the table is final.
``locked_state`` gives the layer's locked phases theta* and lambda2.
Every fourth block, each run's Lyapunov level V - V(theta*) is checked
against a certificate (``_certificate.LockCertificate``, whose
docstring holds the proof) that every run stays in a region around
theta* where no scanned pair's order parameter can cross the threshold
again, under the RK4 map as executed, rounding included. Pairs locked
below the threshold then get +inf and the others keep their last bad
sample, so the table has the same bits as a scan of the whole horizon.
With no stable lock, a pair locked exactly at the threshold, or dt
times the Gershgorin bound at or above 2.785, the scan declines and
integrates the whole horizon. Either outcome is logged at info level.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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


def _make_rhs(layer: CyberLayer) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side of (..., n) phases: one scatter-add of the edge
    flows w_e sin(theta_jv - theta_iu), + at iu and - at jv. Each node sums
    its flows in one order, so a row has the same bits in any batch."""
    p = layer.natural_frequency
    iu, jv, w = layer._edges
    n, m = layer.size, w.size
    ends = np.concatenate([iu, jv])
    # flat (row * n + node) targets, built once per batch shape
    targets: dict[tuple[int, ...], np.ndarray] = {}

    def rhs(phases: np.ndarray) -> np.ndarray:
        batch = phases.shape[:-1]
        if batch not in targets:
            rows = np.arange(math.prod(batch))[:, None] * n
            targets[batch] = (rows + ends).ravel()
        at_ends = phases.take(ends, axis=-1)
        flow = w * np.sin(at_ends[..., m:] - at_ends[..., :m])
        flows = np.concatenate([flow, -flow], axis=-1)
        return p + np.bincount(targets[batch], flows.ravel(),
                               phases.size).reshape(phases.shape)

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
         times: np.ndarray) -> Iterator[np.ndarray]:
    """Classic fixed-step RK4: yields the state at every sample time and
    raises NumericalDivergence at the first non-finite one. Each yielded
    array is fresh; the generator never writes to it again."""
    dt = float(times[1] - times[0])
    state = np.array(initial, dtype=float)
    yield state
    for k in range(1, times.shape[0]):
        # overflow is handled by the finiteness check, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * dt * k1)
            k3 = rhs(state + 0.5 * dt * k2)
            k4 = rhs(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise NumericalDivergence(float(times[k]))
        yield state


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
    for k, state in enumerate(_rk4(_make_rhs(layer), initial, times)):
        phases[k] = state
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
            "dt * 2 * max weighted degree = %.3f exceeds RK4's real-axis "
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


def ensemble_sync_times(layer: CyberLayer, n_runs: int, seed: int,
                        edges: Iterable[tuple[int, int]],
                        threshold: float = DEFAULT_RHO_THRESHOLD, *,
                        t_max: float, dt: float) -> SyncTimeTable:
    """``sync_times(layer, *ensemble_integrate(...), edges, threshold)``
    without the stored trajectory: the scan runs inside the RK4 loop, in
    memory independent of the number of steps.

    With two usable CPUs, runs ``[(n_runs + 1) // 2:]`` are integrated in
    a forked child while this process integrates the rest; the table has
    the same bits either way. Integration stops before ``t_max`` once
    ``_certificate.LockCertificate`` proves the table final, again with
    the same bits.
    """
    initial = _ensemble_initial(layer, n_runs, seed)
    times = _time_grid(t_max, dt)
    _warn_if_unstable(layer, dt)
    rhs = _make_rhs(layer)
    split = (n_runs + 1) // 2 if _usable_cpus() >= 2 else n_runs
    return _sync_scan(layer, times, edges, threshold, n_runs, split,
                      lambda first, last: _rk4(rhs, initial[first:last],
                                               times))


def sync_times(layer: CyberLayer, times: np.ndarray, phases: np.ndarray,
               edges: Iterable[tuple[int, int]],
               threshold: float = DEFAULT_RHO_THRESHOLD) -> SyncTimeTable:
    """Sync times of stored (m+1, runs, n) ensemble phases, by the rule
    itself: an edge's order parameter at a sample is the mean over runs
    of cos(theta_low - theta_high), and its sync time is the sample after
    the last one at or below the threshold (``settling_time``).
    """
    entries = {}
    for a, b in edges:
        key = (a, b) if a < b else (b, a)
        rho = np.mean(np.cos(phases[:, :, layer.index(key[0])]
                             - phases[:, :, layer.index(key[1])]), axis=1)
        bad = np.flatnonzero(rho <= threshold)
        entries[key] = settling_time(times, int(bad[-1]) if bad.size else -1)
    return SyncTimeTable(entries=entries)


_BLOCK_SAMPLES = 8
# A certificate check costs less than one RK4 step of the runs it checks.
# Checking every fourth block keeps that under 3% of the integration, at
# the price of stopping up to 31 steps later.
_CHECK_BLOCKS = 4


def _sync_scan(layer: CyberLayer, times: np.ndarray,
               edges: Iterable[tuple[int, int]], threshold: float,
               n_runs: int, split: int,
               states: Callable[[int, int], Iterator[np.ndarray]]
               ) -> SyncTimeTable:
    """Sync times from ``states(first, last)``, the RK4 stream of
    (last - first, n) phase samples of runs ``[first:last)`` on the layer,
    one per entry of ``times``.

    This process reads runs ``[:split]``; a forked child reads runs
    ``[split:]`` when ``split < n_runs`` and it can be forked. Both take
    cos(theta_low - theta_high) of their runs, ``_BLOCK_SAMPLES`` samples
    at a time, as a (sample, edge, run) block; the child sends each of its
    blocks to this process in its report. This process puts the child's
    runs after its own and reduces each block with
    ``np.add.reduce(..., axis=-1) / n_runs``: every edge's runs are
    contiguous, so they are summed pairwise, as ``np.mean`` sums them in
    ``sync_times`` on a stored trajectory. Per edge it keeps only the last
    sample at which the order parameter is at or below the threshold. The
    earliest divergence in either half raises NumericalDivergence.

    Each half also reports its runs' ``LockCertificate`` levels at the
    last sample of every ``_CHECK_BLOCKS``-th block, and the scan stops
    after the first such block, at least two blocks from the end,
    whose levels prove that no order parameter crosses the threshold
    again: pairs locked below it get +inf, the others keep their last bad
    sample, as a full scan would give them. The child, which never waits
    for this process, is then killed and reaped.
    """
    keys = list(dict.fromkeys((a, b) if a < b else (b, a) for a, b in edges))
    low = np.array([layer.index(a) for a, _ in keys], dtype=np.intp)
    high = np.array([layer.index(b) for _, b in keys], dtype=np.intp)
    n_samples = times.shape[0]
    starts = range(0, n_samples, _BLOCK_SAMPLES)
    certificate = None
    if keys:
        # imported here, so that a process that integrates nothing never
        # compiles the proof
        from ._certificate import lock_certificate
        certificate = lock_certificate(layer, times, low, high, threshold,
                                       n_runs)

    def checked(b: int) -> bool:
        """Whether the certificate is checked after block b."""
        return (certificate is not None and b + 2 < len(starts)
                and b % _CHECK_BLOCKS == _CHECK_BLOCKS - 1)

    def fill(b: int, stream: Iterator[np.ndarray], out: np.ndarray
             ) -> tuple[float | None, np.ndarray | None]:
        """Write block b of the stream's cosines into ``out``, a row per
        sample; the divergence time, if the stream diverges in it, and
        the runs' certificate levels."""
        try:
            for row, state in zip(out, stream):
                row[...] = np.cos(state[:, low] - state[:, high]).T
        except NumericalDivergence as exc:
            return exc.t, None
        if not checked(b):
            return None, None
        return None, certificate.levels(
            state, float(times[starts[b] + len(out) - 1]))

    def upper_half(child: _ForkedHalf) -> None:
        stream = states(split, n_runs)
        cos = np.empty((_BLOCK_SAMPLES, len(keys), n_runs - split))
        for b, start in enumerate(starts):
            rows = cos[:n_samples - start]
            t, levels = fill(b, stream, rows)
            child.send((t, levels, rows))
            if t is not None:
                return

    try:
        child = _ForkedHalf(upper_half) if split < n_runs else None
    except OSError:    # refused at a process limit: read every run here
        child, split = None, n_runs
    last_bad = np.full(len(keys), -1)
    stream = states(0, split)
    cos = np.empty((_BLOCK_SAMPLES, len(keys), n_runs))
    stop = None
    with child or contextlib.nullcontext():
        for b, start in enumerate(starts):
            rows = cos[:n_samples - start]
            reports = [fill(b, stream, rows[..., :split])]
            if child is not None:   # its runs go after this process's
                t, levels, rows[..., split:] = child.receive()
                reports.append((t, levels))
            diverged = [t for t, _ in reports if t is not None]
            if diverged:
                raise NumericalDivergence(min(diverged))
            rho = np.add.reduce(rows, axis=-1) / n_runs
            bad = rho <= threshold
            last = start + len(bad) - 1 - np.argmax(bad[::-1], axis=0)
            hit = bad.any(axis=0)
            last_bad[hit] = last[hit]
            if checked(b) and certificate.proves(
                    np.concatenate([levels for _, levels in reports])):
                stop = start + _BLOCK_SAMPLES - 1
                last_bad[certificate.below] = n_samples - 1
                break
    if certificate is not None and stop is None:
        logger.info("lock not certified within the horizon: integrated "
                    "all %d steps", n_samples - 1)
    elif certificate is not None:
        logger.info("lock certified at t = %.4f s (locked-state residual "
                    "%.1e, lambda2 %.4f, dt * LamQ %.3f): integrated %d of "
                    "%d steps", times[stop], certificate.residual,
                    certificate.lambda2,
                    (times[1] - times[0]) * certificate.lam_q, stop,
                    n_samples - 1)
    return SyncTimeTable(entries={
        key: settling_time(times, int(last))
        for key, last in zip(keys, last_bad)})


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
