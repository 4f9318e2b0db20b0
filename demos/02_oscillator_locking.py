"""
When do two oscillators lock?
=============================

A pair of coupled phase oscillators locks when the power mismatch is
small against the coupling, and the steady lag is arcsin(dP / 2B).
Past that limit they drift forever and never count as synchronized.
"""

import math

import numpy as np

from grid_islander import (CyberLayer, derivative, ensemble_integrate,
                           integrate, order_parameter_series, sync_times)


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

# the sync time comes from an ensemble of random initial conditions
ens = ensemble_integrate(layer, n_runs=20, seed=7, t_max=100.0, dt=0.01)
table = sync_times(ens, [(1, 2)], threshold=0.99)
print(f"sync time       {table.get(1, 2):.2f} s")

# stronger mismatch: the pair still locks, but with a 30 degree lag,
# so the order parameter tops out near cos(30deg) = 0.866 and the
# 0.99 threshold is never reached
wide = pair(0.5)
ens_wide = ensemble_integrate(wide, n_runs=20, seed=7, t_max=100.0, dt=0.01)
rho = order_parameter_series(ens_wide, 1, 2)
print(f"late rho        {float(np.mean(rho[-1000:])):.3f}")
print(f"sync time       {sync_times(ens_wide, [(1, 2)]).get(1, 2)}")
