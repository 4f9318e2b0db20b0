"""The proof that stops a sync-time scan early.

``lock_certificate`` builds, for an RK4 scan of a layer, a
``LockCertificate``: from the phases and frequencies of every run at
one sample it proves that the sync table is final, each layer edge's
order parameter staying above the threshold at every later sample or
ending below it at the horizon's last. ``kuramoto.ensemble_sync_times``
imports this module only when it scans an RK4 stream, so runs that
integrate nothing never load it.
"""

from __future__ import annotations

import math

import numpy as np

from .kuramoto import (_EPS, RK4_REAL_LIMIT, CyberLayer, _gershgorin,
                       _laplacian, _lock_phases, _mismatch, logger)

# Edge cosines in the certificate's region stay within a factor 1 -+ _TAU
# of their locked values.
_TAU = 0.1
# The largest rounding (rad) of one executed RK4 step the region allows.
_ETA_CAP = 1e-6
# The share of delta that pays for a step's rounding in the bound on the
# spread at the horizon's last sample.
_KICK_SHARE = 1.0 / 64.0


def _rk4_shrink(z: float) -> float:
    """1 - R(z) = z P(z), R(z) = 1 - z P(z) being RK4's amplification on
    x' = -(z/h) x. R falls from 1 at z = 0 to about 0.27 near z = 1.6 and
    rises back to 1 at RK4's real stability limit, so on [a, b] within
    it |R| <= 1 - min(_rk4_shrink(a), _rk4_shrink(b))."""
    return z * (1.0 - z / 2.0 + z * z / 6.0 - z ** 3 / 24.0)


def _rk4_decrease_factor(z: float) -> float:
    """m(z) = P(z) (2 - z P(z)) with P(z) = 1 - z/2 + z^2/6 - z^3/24:
    RK4 on a quadratic V with Hessian eigenvalue z/h lowers V by
    (h/2) m(z) g^2 along that eigenvector. m falls from 2 at z = 0 to 0
    at RK4's real stability limit."""
    p = 1.0 - z / 2.0 + z * z / 6.0 - z ** 3 / 24.0
    return p * (2.0 - z * p)


def _top(layer: CyberLayer, factors) -> float:
    """The top eigenvalue of the Laplacian with weights w_e factors_e."""
    return float(np.linalg.eigvalsh(_laplacian(layer, factors))[-1])


class LockCertificate:
    """A proof, from the phases and frequencies of every run at one
    sample, that the executed RK4 scan's sync table is final: each layer
    edge locked above the threshold stays above it at every later sample,
    and each edge locked below it is below it at the horizon's last.

    Notation. Layer edges e with weights w_e and rows b_e
    (b_e.x = x_i - x_j), p~ = p - mean(p), n nodes, eps the unit
    roundoff, h = dt, ``V(x) = -p~.x - sum_e w_e cos(b_e.x)``, g = grad V,
    H(x) = sum_e w_e cos(b_e.x) b_e b_e^T. The right-hand side is
    ``mean(p) 1 - g``, and V and g do not change along 1 (sum p~ = 0), so
    an RK4 step moves a run as RK4 on x' = -g does, plus a shift along 1
    that nothing below sees; every vector below is taken across 1, and a
    run's frequency spread ||omega - mean(omega)|| is ||g||.
    Lam = 2 max weighted degree bounds ||H(x)|| anywhere, and
    z = h Lam < 2.785, or there is no certificate. LamQ <= Lam bounds
    ||H(x)|| on the region Q (below), and zQ = h LamQ. L[f] is the
    Laplacian with weights w_e f_e, and sin*_e = |sin b_e.theta*|.

    Reach. Take x, gamma = ||g(x)||. Each RK4 stage gradient grows at
    most by Lam times its stage's offset, so the stage points and the
    step's end lie within h gamma S of x, with g2 = 1 + z/2,
    g3 = 1 + z g2 / 2 and S = max(g3, (2 + 2 g2 + 2 g3 + z g3) / 6):
    their edge coordinates b_e.x move by at most r gamma,
    r = sqrt(2) h S (``stage_reach``).

    Lipschitz. Where the edge coordinates of a and b lie within rch_e
    of theta*'s, |cos b_e.a - cos b_e.b| <= s_e |b_e.(a - b)| with
    s_e = min(1, sin*_e + rch_e), so ||H(a) - H(b)|| <= L ||a - b||
    with L = sqrt(2) lmax(L[s]), and g(x + v) = g(x) + H(x) v + q with
    ||q|| <= L ||v||^2 / 2 on such a segment. For a reach rch on every
    edge, lmax(L[s]) <= min(lmax(L[sin*]) + rch lmax(L[1]), lmax(L[1]))
    (``hessian_lipschitz``). Each lmax is taken as computed plus
    16 n eps Lam, which covers the rounding of the matrix's entries and
    of the eigensolver.

    RK4 step. With P(s) = 1 - s/2 + s^2/6 - s^3/24, R(s) = 1 - s P(s)
    and m(s) = P(s)(2 - s P(s)): on [0, 2.785], 0 <= P <= 1, |R| <= 1
    and m decreases, so m >= mu = m(zQ) > 0 on [0, zQ]
    (``_rk4_decrease_factor``). Take x in Q, where A = H(x) is positive
    semidefinite with ||A|| <= LamQ, and gamma = ||g(x)||, with l = L h^2
    for an L that holds over x's stage points. With every stage Hessian
    equal to A the step is D0 = -h P(hA) g, so ||D0|| <= h gamma,
    g + A D0 = R(hA) g, and ``g.D0 + D0.A.D0 / 2 = -(h/2) g.m(hA).g``.
    The stages' remainders add E = D - D0: with s2 = 1 + zQ/2 and
    s3 = 1 + zQ s2 / 2 bounding the stage gradients over gamma (the
    linear parts of the second and third are at most gamma and
    (1 + zQ^2 / 4) gamma, and l gamma <= zQ / 2 keeps the remainders
    within the rest), the
    stage errors are at most l gamma^2 times e2 = 1/8,
    e3 = zQ e2 / 2 + s2^2 / 8 and e4 = zQ e3 + s3^2 / 2, so
    ||E|| <= h l gamma^2 eE with eE = (2 e2 + 2 e3 + e4) / 6. Adding
    Taylor's remainder L ||D||^3 / 6,
    ``V(x + D) - V(x) <= -(h/2) gamma^2 B(l gamma)`` with
    ``B(s) = mu - 2 s eE - zQ s^2 eE^2 - (s/3)(1 + s eE)^3``. B is
    concave and falls from mu to 0 at some X. Let
    gcap = min_e d_e / (8 h) (d_e below); the stage points of a point of
    Q with gamma <= gcap keep their edge coordinates within
    d_e + r gcap of theta*'s, so there L = sqrt(2) lmax(L[s]) with
    s_e = min(1, sin*_e + d_e + r gcap), and l = L h^2. Let
    gbar = min(X / (2 l), zQ / (2 l), gcap). For gamma <= gbar,
    B >= mu/2: the step lowers V by at least (h/4) mu gamma^2, and
    ||D|| <= step = h gbar (1 + l gbar eE).

    Region. theta* comes from ``locked_state``'s Newton; H* = H(theta*).
    M is the inverse of H* without node 0's row and column, padded with
    zeros, so that R_e = b_e.M.b_e = b_e.H*^+.b_e on each layer edge (an
    effective resistance), and by Cauchy interlacing
    lambda2(H*) >= 1 / ||M||_inf. kappa = 16 n eps Lam ||M||_inf bounds
    the relative rounding of M (no certificate unless kappa < 1/2); R_e
    is taken plus 4 kappa ||M||_inf. a- = 1 - tau, a+ = 1 + tau,
    tau = _TAU. On each layer edge t_e = |tan b_e.theta*| and d_e solves
    d^2/2 + t_e d = tau. Q is the set where |b_e.(x - theta*)| <= d_e on
    every layer edge. Q is convex, and on it (1 - tau) cos* <= cos <=
    (1 + tau) cos* edge by edge, so a- H* <= H(x) <= a+ H*: V is convex
    on Q, strongly with sigma = a- / ((1 + kappa) ||M||_inf), and
    ||H(x)|| <= LamQ = min(Lam, a+ lmax(H*)) on Q. With res = ||g(theta*)||
    plus its rounding, the exact lock xh lies within dist = res / sigma of
    theta*, and V(theta*) - V(xh) <= res^2 / (2 sigma). For x in Q,
    y = x - xh and u = V(x) - V(xh): ``u = y.Hbar.y / 2`` and
    ``g = Htil y`` exactly, Hbar and Htil being averages of H over the
    segment, which lies in Q (xh does: room_e > 0 below), so
      (i)   |b_e.y|^2 <= R_e y.H*.y <= 2 R_e u / a- on each edge e;
      (ii)  ||g||^2 <= LamQ y.Htil.y <= 2 LamQ (a+ / a-) u;
      (iii) u <= ||g||^2 / (2 sigma).

    Level. c_max = min(cA, cB) with cA = gbar^2 a- / (2 LamQ a+), so that
    (ii) gives gamma <= gbar, and cB = min_e a- room_e^2 / (2 R_e),
    room_e = d_e - sqrt(2)(dist + step + _ETA_CAP). From a point of Q with
    u <= c <= c_max, by (i) and cB a step, even one perturbed by up to
    _ETA_CAP, stays in Q, and by (ii) it does not raise V: the exact RK4
    map keeps that set.

    Rounding. An executed step differs from the RK4 map by at most
    eta = 32 (1 + z) eps sqrt(n) (Theta + h (max|p| + Lam)), Theta
    bounding the run's phases through the horizon: a generous count of
    the roundings on each component, which the stages amplify at most
    (1 + z) fold (z, not zQ: a stage point may lie farther than step
    from x, outside Q). It covers the d sequential adds at a node of
    degree d, which round by at most (d + 1) eps (|p_i| + Lam / 2), for
    degrees far above 9, the 118-bus grid's largest. That raises V by at
    most omega = gF eta + Lam eta^2 / 2,
    where gF = gbar (1 + zQ (1 + l gbar eE)) bounds ||g|| after a step,
    whose segment lies in Q.
    Where (h/4) mu gamma^2 >= omega the step still does not raise V;
    elsewhere (iii) leaves u <= u_floor = omega (1 + 2 / (h mu sigma))
    after it. So u never exceeds max(u now, u_floor). A run's level adds
    to the computed V(x) - V(theta*) the rounding of that sum,
    (n + m + 16) eps times the sum of its terms' moduli, the effect of
    the rounded phases, 4 eps sqrt(n) Theta (||p~|| + sqrt(n) Lam / 2),
    and V(theta*) - V(xh).

    Energy bound. A run in Q at level c_r <= c_max keeps, at every later
    sample, |b_e.y| <= En_er = sqrt(2 R_e c_r / a-) by (i), so
    |b_e.(x - theta*)| <= D_er = En_er + sqrt(2) dist. En_er is the exact
    maximum of |b_e.y| over the ellipsoid y.H*.y <= 2 c_r / a-, so V
    alone gives nothing sharper.

    Frequency bound. Such a run's samples stay in Q, where A's
    eigenvalues across 1 lie in [a- lambda2(H*), LamQ], lambda2 taken as
    computed less 16 n eps Lam. R falls to about 0.27 near s = 1.6 and
    rises after, so there ||R(hA)|| <= 1 - delta with
    delta = min(1 - R(h a- lambda2), 1 - R(zQ)) (``_rk4_shrink``). From
    a sample x with gamma <= G, the stage points and the step's end keep
    their edge coordinates within rch = max_e D_er + r G of theta*'s, so
    with L_c from that reach and l = L_c h^2,
    g(x + D) = g + A D0 + A E + q = R(hA) g + A E + q, and
    ||A E|| + ||q|| <= l C gamma^2, C = zQ eE + (1 + l G eE)^2 / 2. The
    executed step adds at most Lam eta, so the next sample's spread is
    at most (1 - delta) gamma + l C gamma^2 + Lam eta, which is at most G
    where G (delta - l C G) >= Lam eta. A run's G is its computed spread,
    taken (1 + 4 n eps) fold plus 4 n sqrt(n) eps (max|p| + Lam) for the
    rounding of its frequencies, and at least 2 Lam eta / delta; where
    G <= gbar, l G <= zQ / 2 and the inequality holds, its spread stays
    at most G at every later sample, and it is non-increasing, up to
    that floor, below delta / (l C). There y = x - xh solves
    H* y = g - (Htil - H*) y, and along the segment from xh to x every
    edge cosine lies within tau_r cos*_e of its locked value,
    tau_r = max_e (sin*_e D_er + D_er^2 / 2) / cos*_e, so, by
    Cauchy-Schwarz in H*'s inner product,
    |b_e.y| <= F_er = ||H*^+ b_e|| G + tau_r En_er. ||H*^+ b_e|| is the
    norm of M b_e less its mean, taken (1 + 4 n eps) fold plus
    4 kappa ||M||_inf sqrt(n).

    Last sample. From a sample N steps before the horizon's last, such a
    run's spread obeys gamma_{j+1} <= (1 - delta) gamma_j + w gamma_j^2 + k,
    w = l C, k = Lam eta. Let xi = _KICK_SHARE, phi = k / (xi delta),
    a = 1 - (1 - xi) delta, f(v) = a v + w v^2 and v* = w / (a (1 - a)),
    and take 1 / G > v* and phi < G, so w phi <= (1 - xi) delta. Where
    gamma_j >= phi, k <= xi delta gamma_j, so gamma_{j+1} <= f(gamma_j);
    where gamma_j <= phi, gamma_{j+1} <= phi. For v > w / a,
    (v - w / a) / a <= v^2 / (a v + w) = 1 / f(1 / v), so
    U_j = 1 / (v* + (1 / G - v*) a^-j) has U_{j+1} >= f(U_j), and as f
    increases, gamma_j <= max(phi, U_j) at every step. So the spread at
    the horizon's last sample is at most gamma_end = min(G, max(phi, U_N)),
    U_N taken (1 + 8 (N + 8) eps) fold for its rounding, or G where
    1 / G <= v* (``last_spread``). There (iii) and (i) give
    |b_e.y| <= Lst_er = sqrt(R_e / (a- sigma)) gamma_end.

    Verdict. With Dev_er = min(En_er, F_er) + sqrt(2) dist, each run keeps
    |cos b_e.x - cos*_e| <= sin*_e Dev_er + Dev_er^2 / 2 at every later
    sample, and with min(En_er, Lst_er) + sqrt(2) dist in place of Dev_er
    at the horizon's last sample. An edge locked above the threshold
    keeps the sync time it has if at every later sample its order
    parameter stays above; one locked below gets +inf if at the last
    sample it is at or below, whatever it does in between
    (``settling_time``). So if on every layer edge the mean of the bound
    its side needs over the runs, plus the rounding of the computed order
    parameter, is below |cos*_e - threshold|, the table is final.
    """

    def __init__(self, layer: CyberLayer, theta: np.ndarray, dt: float,
                 t_max: float, threshold: float, n_runs: int) -> None:
        n = layer.size
        iu, jv, _ = layer._edges
        p = layer.natural_frequency
        lam = _gershgorin(layer)
        angle = theta[iu] - theta[jv]
        cos = np.cos(angle)
        hessian = _laplacian(layer, cos)
        spectrum = np.linalg.eigvalsh(hessian)
        self.lambda2 = float(spectrum[1])
        a_lo, a_hi = 1.0 - _TAU, 1.0 + _TAU
        self.lam_q = min(lam, a_hi * (float(spectrum[-1])
                                      + 16.0 * n * _EPS * lam))
        z_q = dt * self.lam_q
        mu = _rk4_decrease_factor(z_q)
        s2 = 1.0 + z_q / 2.0
        s3 = 1.0 + z_q * s2 / 2.0
        e2 = 1.0 / 8.0
        e3 = z_q * e2 / 2.0 + s2 * s2 / 8.0
        e4 = z_q * e3 + s3 * s3 / 2.0
        e_e = (2.0 * e2 + 2.0 * e3 + e4) / 6.0

        def falls(s):   # B(s) > 0
            return (mu - 2.0 * s * e_e - z_q * (s * e_e) ** 2
                    - s * (1.0 + s * e_e) ** 3 / 3.0) > 0.0

        lo, hi = 0.0, mu / (2.0 * e_e)      # B(lo) > 0 >= B(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if falls(mid) else (lo, mid)

        grounded = np.zeros((n, n))
        try:
            grounded[1:, 1:] = np.linalg.inv(hessian[1:, 1:])
        except np.linalg.LinAlgError:     # a disconnected layer
            grounded[1:, 1:] = np.inf
        norm = float(np.abs(grounded).sum(axis=1).max())
        kappa = 16.0 * n * _EPS * lam * norm
        self.decline = None
        if not kappa < 0.5:
            self.decline = "the lock's Laplacian is too ill-conditioned"
            return
        sigma = a_lo / ((1.0 + kappa) * norm)
        resistance = (grounded[iu, iu] + grounded[jv, jv]
                      - 2.0 * grounded[iu, jv] + 4.0 * kappa * norm)

        self.residual = float(np.linalg.norm(_mismatch(layer, theta)))
        res = self.residual + 4.0 * n * math.sqrt(n) * _EPS * (
            np.abs(p - p.mean()).max() + lam)
        dist = res / sigma
        tan = np.abs(np.tan(angle))
        self.d_e = np.sqrt(tan * tan + 2.0 * _TAU) - tan
        z = dt * lam
        g2 = 1.0 + z / 2.0
        g3 = 1.0 + z * g2 / 2.0
        self.stage_reach = math.sqrt(2.0) * dt * max(
            g3, (2.0 + 2.0 * g2 + 2.0 * g3 + z * g3) / 6.0)
        self.sin_angle = np.abs(np.sin(angle))
        gbar = float(self.d_e.min()) / (8.0 * dt)
        ell = math.sqrt(2.0) * dt * dt * (_top(layer, np.minimum(
            self.sin_angle + self.d_e + self.stage_reach * gbar, 1.0))
            + 16.0 * n * _EPS * lam)
        gbar = min(0.5 * lo / ell, 0.5 * z_q / ell, gbar)
        step = dt * gbar * (1.0 + ell * gbar * e_e)
        room = self.d_e - math.sqrt(2.0) * (dist + step + _ETA_CAP)
        self.c_max = min(
            gbar ** 2 * a_lo / (2.0 * self.lam_q * a_hi),
            float((a_lo * np.maximum(room, 0.0) ** 2
                   / (2.0 * resistance)).min()))

        self.below = cos < threshold
        self.margin = np.abs(cos - threshold)
        self.resistance = resistance / a_lo     # R_e / a-
        self.settle = np.sqrt(self.resistance / sigma)  # Lst_er / gamma_end
        self.offset = math.sqrt(2.0) * dist
        self.rho_rounding = (n_runs + 8) * _EPS + 4.0 * _EPS * (
            1.0 + 2.0 * float(np.abs(theta).max()))
        if not np.all(room > 0.0):
            self.decline = "the region around the lock is too narrow"
        elif self.margin.min() <= self.rho_rounding:
            self.decline = "a layer edge locks at the threshold"

        self.layer, self.theta, self.angle = layer, theta, angle
        self.t_max, self.lam = t_max, lam
        self.p_tilde = p - p.mean()
        self.drift = abs(float(p.mean()))
        # |phase| <= |mean| + drift (t_max - t) + phase_room through the
        # horizon: max|theta*|, the region's reach across 1, and 1 rad of
        # slack for the rounding of the mean
        self.phase_room = (float(np.abs(theta).max())
                           + math.sqrt(2.0 * self.c_max / sigma) + dist + 1.0)
        self.eta_unit = 32.0 * (1.0 + dt * lam) * _EPS * math.sqrt(n)
        self.eta_rhs = dt * (float(np.abs(p).max()) + lam)
        self.gamma_f = gbar * (1.0 + z_q * (1.0 + ell * gbar * e_e))
        self.floor_factor = 1.0 + 2.0 / (dt * mu * sigma)
        self.gradient = float(np.linalg.norm(p - p.mean())
                              + math.sqrt(n) * lam / 2.0)
        self.lock_rounding = res * res / (2.0 * sigma)

        # the frequency spread's bound
        self.dt, self.gbar, self.z_q, self.e_e = dt, gbar, z_q, e_e
        self.delta = min(_rk4_shrink(dt * a_lo * max(
            float(spectrum[1]) - 16.0 * n * _EPS * lam, 0.0)),
            _rk4_shrink(z_q))
        spread = grounded[:, iu] - grounded[:, jv]
        spread -= spread.mean(axis=0)
        self.pull = (np.linalg.norm(spread, axis=0) * (1.0 + 4.0 * n * _EPS)
                     + 4.0 * kappa * norm * math.sqrt(n))
        self.cos_angle = cos
        self.gamma_rounding = 4.0 * n * math.sqrt(n) * _EPS * (
            float(np.abs(p).max()) + lam)
        self._top_sines = _top(layer, self.sin_angle)
        self._top_weights = _top(layer, 1.0)

    def hessian_lipschitz(self, reach):
        """L_c with ||H(a) - H(b)|| <= L_c ||a - b|| wherever
        |b_e.(a - theta*)| and |b_e.(b - theta*)| are at most ``reach`` on
        every layer edge (elementwise for an array of reaches)."""
        return math.sqrt(2.0) * (np.minimum(
            self._top_sines + reach * self._top_weights, self._top_weights)
            + 16.0 * self.layer.size * _EPS * self.lam)

    def excess(self, phases: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per row of ``phases``: V - V(theta*), the sum of its terms'
        moduli, the row's mean less theta*'s, and its largest
        |b_e^T (x - theta*)| / d_e. Row by row, so each row has the same
        bits in any batch."""
        iu, jv, w = self.layer._edges
        y = phases - self.theta
        mean = y.mean(axis=-1, keepdims=True)
        y = y - mean
        half = 0.5 * (y[..., iu] - y[..., jv])
        linear = -(y * self.p_tilde)
        # cos(a) - cos(a + 2 half), without cancellation
        bend = 2.0 * w * np.sin(self.angle + half) * np.sin(half)
        return (linear.sum(axis=-1) + bend.sum(axis=-1),
                np.abs(linear).sum(axis=-1)
                + np.abs(2.0 * w * np.sin(half)).sum(axis=-1),
                mean[..., 0], (2.0 * np.abs(half) / self.d_e).max(axis=-1))

    def levels(self, phases: np.ndarray, frequencies: np.ndarray,
               t: float) -> np.ndarray:
        """(runs, 6) from each run's ``phases`` and ``frequencies`` at
        time t, per run: its bound on V - V(exact lock) at every sample
        from t on (+inf outside the region); the rounding of its cosines
        in the order parameter; its bound G on ||omega - mean(omega)|| at
        every sample from t on (+inf where none holds); the relative
        spread tau of the edge cosines along the segment to the exact
        lock; the spread up to which a step cannot raise it; and its
        bound on the spread at the horizon's last sample."""
        u, size, mean, reach = self.excess(phases)
        bound = np.abs(mean) + self.drift * (self.t_max - t) \
            + self.phase_room
        eta = self.eta_unit * (bound + self.eta_rhs)
        omega = self.gamma_f * eta + 0.5 * self.lam * eta * eta
        evaluation = ((self.layer.size + self.angle.size + 16) * _EPS * size
                      + 4.0 * _EPS * math.sqrt(self.layer.size) * bound
                      * self.gradient)
        level = np.maximum(u + evaluation + self.lock_rounding,
                           omega * self.floor_factor)
        inside = ((reach + 8.0 * _EPS * bound / self.d_e.min() <= 1.0)
                  & (eta <= _ETA_CAP))
        level = np.where(inside, level, np.inf)
        centred = frequencies - frequencies.mean(axis=-1, keepdims=True)
        gamma = (np.sqrt((centred * centred).sum(axis=-1))
                 * (1.0 + 4.0 * self.layer.size * _EPS)
                 + self.gamma_rounding)
        kick = self.lam * eta
        with np.errstate(divide="ignore"):
            gamma = np.maximum(gamma, 2.0 * kick / self.delta)
        energy = np.sqrt(2.0 * level[:, None] * self.resistance) + self.offset
        tau = ((self.sin_angle + 0.5 * energy) * energy
               / self.cos_angle).max(axis=-1)
        held = (level <= self.c_max) & (gamma <= self.gbar)
        ell = self.dt ** 2 * self.hessian_lipschitz(
            energy.max(axis=-1) + self.stage_reach * gamma)
        slope = ell * (self.z_q * self.e_e
                       + 0.5 * (1.0 + ell * gamma * self.e_e) ** 2)
        held &= ((ell * gamma <= 0.5 * self.z_q)
                 & (gamma * (self.delta - slope * gamma) >= kick))
        gamma = np.where(held, gamma, np.inf)
        steps = round((self.t_max - t) / self.dt)
        return np.stack([level, 4.0 * _EPS * (1.0 + 2.0 * bound), gamma,
                         tau, self.delta / slope,
                         self.last_spread(gamma, slope, kick, steps)],
                        axis=-1)

    def last_spread(self, gamma: np.ndarray, slope: np.ndarray,
                    kick: np.ndarray, steps: int) -> np.ndarray:
        """Per run, a bound on its spread ``steps`` steps on, where its
        spread stays at most ``gamma`` (+inf where none holds) and obeys
        gamma_{j+1} <= (1 - delta + slope gamma_j) gamma_j + kick (see
        the class docstring's Last sample)."""
        rate = np.float64(1.0 - self.delta + _KICK_SHARE * self.delta)
        gap = (1.0 - _KICK_SHARE) * self.delta        # 1 - rate
        floor = kick / (_KICK_SHARE * self.delta)
        fixed = slope / (rate * gap)
        with np.errstate(over="ignore", invalid="ignore"):
            end = 1.0 / (fixed + (1.0 / gamma - fixed) * rate ** -steps)
        end = np.maximum(end * (1.0 + 8.0 * (steps + 8) * _EPS), floor)
        return np.where(1.0 / gamma > fixed, np.minimum(end, gamma), gamma)

    def drifts(self, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per layer edge, from runs' ``levels`` within c_max: bounds on
        |order parameter - cos*_e|, less its rounding, at every sample
        from the levels' time on, and at the horizon's last sample."""
        level, cos_rounding, gamma, tau, _, gamma_end = levels.T
        energy = np.sqrt(2.0 * level[:, None] * self.resistance)
        later = np.minimum(
            energy, self.pull * gamma[:, None] + tau[:, None] * energy)
        last = np.minimum(energy, self.settle * gamma_end[:, None])
        return tuple((self.sin_angle * deviation + 0.5 * deviation ** 2
                      + cos_rounding[:, None]).mean(axis=0)
                     for deviation in (later + self.offset,
                                       last + self.offset))

    def proves(self, levels: np.ndarray) -> bool:
        """Whether the runs' ``levels`` keep every layer edge's order
        parameter on its locked side of the threshold where its sync time
        needs it: at every later sample for edges locked above it, at
        the horizon's last sample for edges locked below it."""
        if not np.all(levels[:, 0] <= self.c_max):
            return False
        later, last = self.drifts(levels)
        drift = np.where(self.below, last, later)
        return bool(np.all(drift + self.rho_rounding < self.margin))


def lock_certificate(layer: CyberLayer, times: np.ndarray, threshold: float,
                     n_runs: int) -> LockCertificate | None:
    """The lock certificate of an RK4 scan on ``times``, or None, with
    the reason logged, where no proof is possible."""
    dt = float(times[1] - times[0])
    ratio = dt * _gershgorin(layer)
    theta = None
    if not ratio < RK4_REAL_LIMIT:
        reason = (f"dt * Gershgorin bound = {ratio:.3f} is not below "
                  f"{RK4_REAL_LIMIT}")
    else:
        theta = _lock_phases(layer)
        reason = "the layer has no stable locked state"
    if theta is not None:
        certificate = LockCertificate(layer, theta, dt, float(times[-1]),
                                      threshold, n_runs)
        reason = certificate.decline
        if reason is None:
            return certificate
    logger.info("no lock certificate, integrating the full horizon: %s",
                reason)
    return None
