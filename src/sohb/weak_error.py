"""Deterministic weak-error analysis of the projected Euler orientation step.

For one matrix-valued orientation relaxing toward a constant field L, the
relative rotation E = L^T A is an autonomous Markov chain whose driving
noise stays isotropic, so the rotation angle theta = angle(E) is itself a
1D Markov chain.  A single projected-Euler step followed by its polar factor
has a closed form.  Writing the projected increment as hat(w) E with

    w = -dt sin(theta) n + sqrt(2 D dt) g,      g ~ N(0, I_3),

where n is the rotation axis of E, the polar factor of (I + hat(w)) E is
the rotation about w/|w| by arctan|w| composed with E, hence

    cos(theta'/2) = |cos(a/2) cos(theta/2) - sin(a/2) (w.n/|w|) sin(theta/2)|,
    a = arctan|w|.

Only two reduced noise coordinates enter: u = w.n (Gaussian with mean
-dt sin(theta)) and the radial part rho of w across n (sqrt of a scaled
chi-squared with two degrees of freedom).  Averaging the step over
Gauss-Hermite nodes in u and Gauss-Laguerre nodes in rho^2 yields the exact
one-step angle kernel up to quadrature error.  The stationary angle law of
the discrete chain is the fixed point of that kernel on a fine grid, and
the sup distance between its CDF and the CDF of the continuous-time
stationary law is the scheme's weak error at stationarity, free of Monte
Carlo noise.  That is what makes first-order error visible at step sizes
where sampling-based estimates drown in the empirical-process floor.

This step is the code's own step, not a model of it: ``micro`` moves A to
polar(A + P_T(A) m) through ``rotations.tangent_step``, which computes it
in closed form as A R(v), with v = axial(A^T m) and R(v) the rotation about
v by arctan|v|. Then E' = E R(v) = R(E v) E, and w = E v has the law above
because A^T dB has i.i.d. N(0, dt) entries for every rotation A. The
reduction uses nothing but that isotropy of the Gaussian increment.
"""

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.laguerre import laggauss
from scipy.linalg import solve

from .errors import DomainError
from .sampling import reference_angle_cdf

#: Default angle-grid resolution; kernel error from linear binning scales
#: like (pi/n_grid)^2/dt relative to the physical angular diffusion, so the
#: default keeps it well below the weak-error signal for dt >= 1e-4.
N_GRID = 2001

#: Gauss-Hermite nodes in u and Gauss-Laguerre nodes in rho^2.
N_QUAD = 48

_CHUNK = 64


def angle_step(theta, u, rho):
    """Closed-form post-step angle for reduced noise coordinates (u, rho).

    Args:
        theta: pre-step angle(s) in [0, pi].
        u: component of the tangent increment along the rotation axis,
            drift included.
        rho: magnitude of the increment across the axis (> 0).

    Returns:
        Post-step angle(s) in [0, pi].
    """
    wn = np.sqrt(u * u + rho * rho)
    half_a = 0.5 * np.arctan(wn)
    ch = (
        np.cos(half_a) * np.cos(0.5 * theta)
        - np.sin(half_a) * (u / wn) * np.sin(0.5 * theta)
    )
    return 2.0 * np.arccos(np.clip(np.abs(ch), 0.0, 1.0))


def angle_transition_matrix(d, dt, n_grid=N_GRID):
    """Row-stochastic one-step kernel of the angle chain on a uniform grid.

    Entry (i, j) is the probability of landing in the linear hat cell of
    node j when starting exactly at node i; mass is deposited with linear
    (cloud-in-cell) weights so the kernel is exact for piecewise-linear
    test functions.
    """
    if d <= 0 or dt <= 0:
        raise DomainError(f"need d > 0 and dt > 0, got d={d}, dt={dt}")
    grid = np.linspace(0.0, np.pi, n_grid)
    dx = grid[1] - grid[0]
    xh, wh = hermgauss(N_QUAD)
    tl, wl = laggauss(N_QUAD)
    sigma = np.sqrt(2.0 * d * dt)
    # u = sqrt(2) sigma x - dt sin(theta);  rho = sigma sqrt(2 t)
    u_noise = np.sqrt(2.0) * sigma * xh
    rho = (sigma * np.sqrt(2.0 * tl))[None, None, :]
    wq = ((wh / np.sqrt(np.pi)))[:, None] * wl[None, :]
    wq = np.broadcast_to(wq, (N_QUAD, N_QUAD)).ravel()
    kernel = np.empty((n_grid, n_grid))
    for lo in range(0, n_grid, _CHUNK):
        hi = min(lo + _CHUNK, n_grid)
        theta = grid[lo:hi, None, None]
        u = u_noise[None, :, None] - dt * np.sin(theta)
        out = angle_step(theta, u, rho).reshape(hi - lo, -1)
        pos = out / dx
        cell = np.minimum(pos.astype(np.int64), n_grid - 2)
        frac = pos - cell
        rows = np.repeat(np.arange(hi - lo), out.shape[1])
        flat_lo = rows * n_grid + cell.ravel()
        w_hi = (np.broadcast_to(wq, out.shape) * frac).ravel()
        w_lo = np.broadcast_to(wq, out.shape).ravel() - w_hi
        acc = np.bincount(flat_lo, weights=w_lo, minlength=(hi - lo) * n_grid)
        acc += np.bincount(
            flat_lo + 1, weights=w_hi, minlength=(hi - lo) * n_grid
        )
        kernel[lo:hi] = acc.reshape(hi - lo, n_grid)
    return grid, kernel


def stationary_angle_law(d, dt, n_grid=N_GRID):
    """Stationary angle law of the discrete chain (grid, masses, CDF).

    The masses p solve p K = p with sum(p) = 1: the system (K - I)^T p = 0
    with its last equation, which the others imply because K is
    row-stochastic, replaced by the normalization. It is solved in place on
    the kernel, whose transpose is Fortran-ordered as LAPACK wants it.
    """
    grid, kernel = angle_transition_matrix(d, dt, n_grid)
    kernel[np.diag_indices(n_grid)] -= 1.0
    kernel[:, -1] = 1.0
    rhs = np.zeros(n_grid)
    rhs[-1] = 1.0
    p = solve(kernel.T, rhs, overwrite_a=True)
    return grid, p, np.cumsum(p)


def scheme_angle_ks(d, dt, n_grid=N_GRID):
    """Population KS distance between the scheme's stationary angle law
    and the continuous-time stationary angle law.

    This is the dt -> 0 limit target of the empirical KS statistic: the
    number a sampling-based test would concentrate on with unboundedly many
    independent draws.
    """
    grid, _, cdf = stationary_angle_law(d, dt, n_grid)
    ref = reference_angle_cdf(grid, d)
    return float(np.max(np.abs(cdf - ref)))
