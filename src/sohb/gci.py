"""Generalized collision invariant pipeline and the macroscopic constants.

The pipeline has three stages:

1. ``solve_h``: the radial profile h of the gradual-model invariant solves a
   second-order ODE on (-1, 1) that degenerates at both endpoints; the
   bounded solution is unique and odd, and is computed here by least-squares
   collocation on an odd Chebyshev basis. In divided (polynomial-coefficient)
   form the equation reads

       (1 - r^2) h'' + (-5 r + (4 r / d)(1 - r^2)) h' - (3 + 4 r^2 / d) h = r,

   which is the weighted form

       d/dr[(1-r^2)^{5/2} e^{2r^2/d} h'] + (1-r^2)^{3/2} e^{2r^2/d} (-4r^2/d - 3) h
           = r (1-r^2)^{3/2} e^{2r^2/d}

   divided by (1-r^2)^{3/2} e^{2r^2/d}. Residuals are reported in the
   weighted form; a solve is accepted on the weighted residual over
   max(weight |r|), which does not grow like e^{2/d}. The jump model needs
   no solve: its profile is hbar(r) = r, the Chebyshev series T_1, so both
   profiles are one coefficient vector evaluated by the same ``chebval``.

2. ``constants``: the hydrodynamic coefficients are angle averages against
   the weight w(theta) = m(theta) sin^4(theta/2) hbar(cos(theta/2))
   cos(theta/2), with m(theta) = exp((1/2 + cos theta)/D):

       c1 = (2/3) <1/2 + cos theta>   (weight m sin^2(theta/2)),
       c2 = (1/5) <2 + 3 cos theta>_w,
       c2' = (1/5) <1 + 4 cos theta>_w,
       c3 = D / 2 (exact),
       c4 = (1/5) <1 - cos theta>_w.

   The identity c2 - c2' = c4 holds for any profile by linearity and ties
   the matrix and quaternion macroscopic systems together.

3. ``verify_adjoint_jump``: for the jump model the adjoint of the collision
   operator is psi -> integral(psi M) - psi, so psi(A) = P . (L0^T A) solves
   the invariant equation iff integral(psi M_{L0}) = 0; the residual of that
   integral is evaluated by generic quadrature over the angle/axis class
   decomposition.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .errors import DomainError, NoConvergence
from .rotations import hat, mat_dot, rotation_from_axis_angle
from .sampling import _angle_density_shifted, _angle_integral, check_d, checked_moment
from .sampling import c1 as sampling_c1

GRADUAL = "gradual"
JUMP = "jump"

#: Mode-count ladder for the spectral solve.
LADDER = (16, 24, 32, 48, 64, 96, 128, 192)

#: Interior residual tolerance for the h solve (weighted form, max norm).
H_TOL = 1e-6


@dataclass(frozen=True)
class GciProfile:
    """Radial invariant profile hbar for one model and noise level.

    Attributes:
        model: "gradual" or "jump".
        d: noise intensity.
        coeffs: full Chebyshev coefficient vector of hbar: the odd collocation
            solution (gradual) or [0, 1], the series T_1(r) = r (jump).
        residual: max weighted-form ODE residual on the check grid (gradual;
            0.0 for the jump profile, which is exact). It overflows to inf
            or NaN below D = 2/709.78.
        residual_scale_free: the same over max(weight |r|), finite at every
            D; the solve is accepted on it.
    """

    model: str
    d: float
    coeffs: np.ndarray
    residual: float
    residual_scale_free: float

    def hbar(self, r):
        """Profile value hbar(r), the Chebyshev series ``coeffs`` at r."""
        return cheb.chebval(r, self.coeffs)


def _operator(r, d, coeffs):
    """The divided-form operator applied to the Chebyshev series ``coeffs``
    (one series per column when 2-d) at the points r: shape coeffs.shape[1:]
    + r.shape."""
    a = 1.0 - r * r
    h = cheb.chebval(r, coeffs)
    dh = cheb.chebval(r, cheb.chebder(coeffs))
    ddh = cheb.chebval(r, cheb.chebder(coeffs, 2))
    return a * ddh + (-5.0 * r + (4.0 * r / d) * a) * dh - (3.0 + 4.0 * r * r / d) * h


def _residuals(profile_coeffs, d, r):
    """Max weighted-form ODE residual |LHS - RHS| over the points r, and the
    scale-free one: the same over max(weight |r|), with the weight's exponent
    shifted by its maximum, so it does not overflow like the first (e^{2/d})."""
    a = 1.0 - r * r
    divided = _operator(r, d, profile_coeffs)
    x = 2.0 * r * r / d
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = float(np.max(np.abs(np.power(a, 1.5) * np.exp(x) * (divided - r))))
    shifted = np.power(a, 1.5) * np.exp(x - np.max(x))
    return weighted, float(np.max(np.abs(shifted * (divided - r))) / np.max(shifted * np.abs(r)))


def solve_h(d):
    """Solve the radial ODE for the gradual-model profile h.

    Strategy: collocate the divided form at Chebyshev-Lobatto points on
    [0, 1] (oddness makes the negative half redundant; the endpoint row,
    where the leading coefficient vanishes, supplies the natural boundary
    condition) over the odd basis T_1, T_3, ..., solve in the least-squares
    sense, and walk a mode ladder, keeping the entry with the smallest
    scale-free residual on a 2048-point check grid. It is accepted when that
    residual is below ``H_TOL``. The weighted-form residual grows like
    e^{2/d}: it would fail every d <= 0.08 and is inf at every entry below
    d = 2/709.78, so it only ends the walk early.

    Args:
        d: noise intensity D > 0 (the equation parameter).

    Returns:
        GciProfile for the gradual model.

    Raises:
        DomainError: naming ``d`` unless it is finite and > 0.
        NoConvergence: if the kept entry misses ``H_TOL``; the message
            names ``d``.
    """
    check_d(d)
    # Chebyshev-distributed check points on [-1 + 1e-4, 1 - 1e-4].
    check = np.cos(np.pi * np.arange(2048) / 2047) * (1.0 - 1e-4)
    # Walk the ladder until the residual is comfortably converged (well past
    # H_TOL), not merely under it — spectral accuracy is cheap here and a wide
    # margin keeps downstream constants insensitive to the mode count.
    early = min(H_TOL * 1e-3, 1e-9)
    best = None
    for n_modes in LADDER:
        npts = 2 * n_modes + 8
        # Lobatto points on [0, 1]: endpoint r = 1 carries the natural BC.
        pts = 0.5 * (1.0 + np.cos(np.pi * np.arange(npts) / (npts - 1)))
        # One column per odd mode T_1, T_3, ..., T_{2 n_modes - 1}.
        design = _operator(pts, d, np.eye(2 * n_modes)[:, 1::2]).T
        sol, *_ = np.linalg.lstsq(design, pts, rcond=None)
        coeffs = np.zeros(2 * n_modes)
        coeffs[1::2] = sol
        res, scale_free = _residuals(coeffs, d, check)
        if best is None or scale_free < best[2]:
            best = (coeffs, res, scale_free)
        if res <= early:
            break
    coeffs, res, scale_free = best
    if not scale_free <= H_TOL:
        raise NoConvergence(
            f"d {d!r}: h solve scale-free residual {scale_free:.3e} > H_TOL = "
            f"{H_TOL:.1e} after ladder {LADDER}"
        )
    return GciProfile(GRADUAL, float(d), coeffs, res, scale_free)


def jump_profile(d):
    """The exact jump-model profile hbar(r) = r, the Chebyshev series T_1."""
    check_d(d)
    return GciProfile(JUMP, float(d), np.array([0.0, 1.0]), 0.0, 0.0)


def get_profile(d, model):
    """The profile of ``model`` at d; DomainError names an unknown ``model``."""
    if model == GRADUAL:
        return solve_h(d)
    if model == JUMP:
        return jump_profile(d)
    raise DomainError(f"model: unknown model {model!r}, expected 'gradual' or 'jump'")


@dataclass(frozen=True)
class GciConstants:
    """The coefficient tuple of the macroscopic systems for one (D, model)."""

    c1: float
    c2: float
    c2_prime: float
    c3: float
    c4: float
    d: float
    model: str

    def csv_row(self):
        return (
            f"{self.d!r},{self.model},{self.c1!r},{self.c2!r},"
            f"{self.c2_prime!r},{self.c3!r},{self.c4!r}"
        )


def constants(d, model, method="simpson", profile=None):
    """Hydrodynamic constants (c1, c2, c2', c3, c4) for one noise level and model.

    Args:
        d: noise intensity D > 0.
        model: "gradual" or "jump".
        method: quadrature route, "simpson" or "gauss" (dual routes exist so
            they can be cross-checked).
        profile: optional pre-solved GciProfile (saves the ODE solve).

    Raises:
        DomainError: naming ``d`` unless it is finite and > 0 and the moments
            do not underflow there, or naming an unknown ``model``.
    """
    check_d(d)
    profile = profile or get_profile(d, model)
    if profile.model != model or profile.d != float(d):
        raise ValueError("profile does not match the requested (d, model)")

    def w(theta):  # m sin^4(theta/2) hbar(cos(theta/2)) cos(theta/2), m shifted
        half = 0.5 * theta
        return (
            _angle_density_shifted(theta, d)
            * np.square(np.sin(half))
            * profile.hbar(np.cos(half))
            * np.cos(half)
        )

    den = checked_moment(_angle_integral(w, d, method), d)

    def average(g):
        return 0.2 * _angle_integral(lambda t: g(t) * w(t), d, method) / den

    return GciConstants(
        c1=sampling_c1(d, method),
        c2=average(lambda t: 2.0 + 3.0 * np.cos(t)),
        c2_prime=average(lambda t: 1.0 + 4.0 * np.cos(t)),
        c3=0.5 * d,
        c4=average(lambda t: 1.0 - np.cos(t)),
        d=float(d),
        model=model,
    )


def vonmises_class_average(fn, center, d):
    """Integral of fn(A) against the von Mises law at ``center`` by quadrature.

    Decomposes A = center @ R(axis, theta): 64 Gauss-Legendre nodes in theta
    on [0, min(pi, 40 sqrt(D))] (the angle table's range, which holds the
    peak of width sqrt(D)) weighted by the normalized angle marginal, and a
    product sphere rule (16 Gauss-Legendre nodes in cos(polar), 32 trapezoid
    nodes in azimuth) for the axis.

    Args:
        fn: vectorized map from rotation stacks (..., 3, 3) to scalars (...,).
        center: rotation (3, 3).
        d: noise intensity.

    Returns:
        The quadrature value of integral fn dM.
    """
    n_theta, n_mu, n_phi = 64, 16, 32
    center = np.asarray(center, dtype=np.float64)
    t_nodes, t_weights = np.polynomial.legendre.leggauss(n_theta)
    half = 0.5 * min(np.pi, 40.0 * np.sqrt(d))
    theta = half * (t_nodes + 1.0)
    w_theta = half * t_weights * _angle_density_shifted(theta, d)
    w_theta /= np.sum(w_theta)
    mu, w_mu = np.polynomial.legendre.leggauss(n_mu)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_pol = np.sqrt(1.0 - mu * mu)
    axis = np.stack(
        [
            sin_pol[:, None] * np.cos(phi)[None, :],
            sin_pol[:, None] * np.sin(phi)[None, :],
            np.broadcast_to(mu[:, None], (n_mu, n_phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w_axis = np.repeat(w_mu / (2.0 * n_phi), n_phi)  # normalized sphere rule
    total = 0.0
    for t, wt in zip(theta, w_theta):
        rots = center @ rotation_from_axis_angle(axis, np.full(axis.shape[0], t))
        total += wt * float(np.sum(w_axis * fn(rots)))
    return total


def verify_adjoint_jump(center, p_axial, d):
    """Residual of the jump-model invariant equation for psi(A) = P . (L0^T A).

    For the jump mechanism the adjoint acts as psi -> integral(psi M) - psi,
    so psi solves the invariant equation (with the opposite antisymmetric
    matrix) exactly when integral(psi M_{L0}) vanishes. This evaluates that
    integral by the generic class-decomposition quadrature and returns its
    absolute value.

    Args:
        center: the center rotation L0, shape (3, 3).
        p_axial: axial vector of the antisymmetric matrix P, shape (3,).
        d: noise intensity.

    Returns:
        |integral psi dM_{L0}| (should be ~1e-16; anything <= 1e-8 verifies
        the invariant equation at quadrature accuracy).
    """
    center = np.asarray(center, dtype=np.float64)
    p = hat(np.asarray(p_axial, dtype=np.float64))

    def psi(rots):
        return mat_dot(p, center.T @ rots)

    return abs(vonmises_class_average(psi, center, d))
