"""
When do two oscillators lock?
=============================

A pair of coupled phase oscillators locks when the power mismatch is
small against the coupling, and the steady lag is arcsin(dP / 2B).
Past that limit they drift forever and never count as synchronized.
"""

import math

import numpy as np

from grid_islander import (CyberLayer, derivative, ensemble_sync_times,
                           integrate, locked_state,
                           sample_initial_conditions)


def pair(p, b=1.0):
    return CyberLayer(node_ids=(1, 2),
                      natural_frequency=np.array([p, -p]),
                      coupling=np.array([[0.0, b], [b, 0.0]]))


# locking case: mismatch 0.2 pu against coupling 1.0
layer = pair(0.1)
times, phases = integrate(layer, [0.0, 0.0], t_max=100.0, dt=0.01)
lag = phases[-1, 0] - phases[-1, 1]
print(f"steady lag      {lag:.6f} rad")
print(f"arcsin(0.1)     {math.asin(0.1):.6f} rad")
# locked: both run at the mean natural frequency, here 0
freqs = derivative(layer, phases[-1])
print(f"final freqs     {freqs[0]:.1e}, {freqs[1]:.1e} pu")
# the locked state without integrating: Newton on the lossless flow
lock = locked_state(layer)
print(f"locked lag      {lock.phases[0] - lock.phases[1]:.6f} rad, "
      f"lambda2 {lock.lambda2:.4f}")

# the sync time comes from an ensemble of random initial conditions,
# detected as the ensemble is integrated
table = ensemble_sync_times(layer, n_runs=20, seed=7, threshold=0.99,
                            t_max=100.0, dt=0.01)
print(f"sync time       {table.get(1, 2):.2f} s")

# stronger mismatch: the pair still locks, but with a 30 degree lag,
# so the order parameter tops out near cos(30deg) = 0.866 and the
# 0.99 threshold is never reached
wide = pair(0.5)
# integrate takes a (runs, n) batch of initial phases as well as one run
initial = np.stack([sample_initial_conditions(2, [7, r]) for r in range(20)])
_, phases = integrate(wide, initial, t_max=100.0, dt=0.01)
# the order parameter: cos of the pair's lag, averaged over the runs
rho = np.cos(phases[:, :, 0] - phases[:, :, 1]).mean(axis=1)
print(f"late rho        {float(np.mean(rho[-1000:])):.3f}")
table = ensemble_sync_times(wide, 20, 7, t_max=100.0, dt=0.01)
print(f"sync time       {table.get(1, 2)}")

# past the locking limit, mismatch 3.0 pu against coupling 1.0: no phase
# lag balances the pair, so there is no locked state
print(f"locked state    {locked_state(pair(1.5))}")
