"""Von Mises distributions on SO(3) and on the unit quaternions.

The density on SO(3) centered at a rotation L with noise intensity D is
proportional to exp(mat_dot(A, L) / D). Writing A = L R(n, theta) (axis n,
angle theta), the density of the rotation angle theta of L^T A is

    angle_density(theta, D) = exp((1/D) (1/2 + cos theta)) * sin^2(theta/2)

on [0, pi], with the axis independent and uniform on the sphere. Sampling
is exact-in-law by inverse-CDF lookup on a tabulated angle marginal plus a
Gaussian-normalized uniform axis, which keeps the number of RNG draws per
sample fixed (reproducible counted streams).

The quaternion-side distribution (density proportional to
exp((2/D)((qbar . q)^2 - 1/4))) is sampled by pushing the same (theta, n)
construction through the half-angle map, with an extra fair sign flip so
both preimages of each rotation are produced.
"""

from functools import cache

import numpy as np

from .errors import DomainError
from .quadrature import gauss_legendre, simpson
from .rotations import quat_from_axis_angle, quat_mul, rotation_from_axis_angle

#: Number of inverse-CDF table intervals.
TABLE_SIZE = 4096


def check_d(d):
    """Raise DomainError naming ``d`` unless it is a finite number > 0."""
    if not (np.isfinite(d) and d > 0.0):
        raise DomainError(f"d: noise intensity must be finite and > 0, got {d!r}")


def checked_moment(value, d):
    """An angle moment that divides others, or DomainError naming ``d`` when
    it is zero or not finite (its weight underflows at that D)."""
    if not (value != 0.0 and np.isfinite(value)):
        raise DomainError(f"d: the angle moments underflow at {d!r} (denominator {value!r})")
    return value


def angle_density(theta, d):
    """Unnormalized density of the rotation angle between sample and center.

    Args:
        theta: angle(s) in [0, pi].
        d: noise intensity D > 0.

    Returns:
        exp((1/D)(1/2 + cos theta)) * sin^2(theta/2). Overflows to inf for
        very small D; internal consumers use a rescaled form, this is the
        reference formula.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return np.exp((0.5 + np.cos(theta)) / d) * np.square(np.sin(0.5 * theta))


def _angle_density_shifted(theta, d):
    """angle_density times exp(-3/(2D)): same shape, overflow-safe.

    The shift is the maximum of the exponent (at theta = 0), so values lie
    in [0, 1]; every internal use is scale-invariant (normalized marginals
    or ratios of integrals).
    """
    theta = np.asarray(theta, dtype=np.float64)
    return np.exp((np.cos(theta) - 1.0) / d) * np.square(np.sin(0.5 * theta))


def reference_angle_cdf(theta, d):
    """CDF of the rotation angle under the continuous-time stationary law.

    Trapezoid integration of the (shifted, overflow-safe) angle density on
    the given increasing grid from 0, normalized to 1 at its last point.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.size < 2:
        raise DomainError("reference_angle_cdf needs a 1-d grid of >= 2 points")
    pdf = _angle_density_shifted(theta, d)
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(theta))]
    )
    return cdf / cdf[-1]


class AngleTable:
    """Tabulated inverse CDF of the angle marginal for one noise level D.

    The table is immutable after construction and shareable across threads.

    Attributes:
        d: noise intensity.
        theta: grid of TABLE_SIZE + 1 angles, [0, theta_max].
        cdf: normalized cumulative values on the grid (cdf[0] = 0,
            cdf[-1] = 1, nondecreasing).
    """

    def __init__(self, d):
        check_d(d)
        self.d = float(d)
        # The density decays like exp(-theta^2 / (2 D)); past 40 sqrt(D) it is
        # below e^-800, so a grid to pi would waste the table at small D.
        theta_max = min(np.pi, 40.0 * np.sqrt(d))
        self.theta = np.linspace(0.0, theta_max, TABLE_SIZE + 1)
        self.cdf = reference_angle_cdf(self.theta, self.d)

    def sample(self, rng, size):
        """Draw angles by linear-interpolated inverse-CDF lookup (one uniform each)."""
        u = rng.random(size)
        return np.interp(u, self.cdf, self.theta)

    def cdf_at(self, theta):
        """CDF evaluated by interpolation (angles past theta_max saturate at 1)."""
        return np.interp(np.asarray(theta, dtype=np.float64), self.theta, self.cdf)


@cache
def get_angle_table(d):
    """The AngleTable for noise level d, built once per D (tables are immutable)."""
    return AngleTable(float(d))


def _uniform_axis(rng, size):
    """Uniform direction on the unit sphere from a normalized 3D Gaussian."""
    v = rng.standard_normal((int(size), 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def draw_angle_axis(d, rng, size):
    """Draw (theta, axis) pairs of the centered distribution M_{I}.

    Exposed so paired matrix/quaternion samples can be built from the same
    underlying draws. Per sample: one uniform (angle) and three Gaussians
    (axis).
    """
    theta = get_angle_table(d).sample(rng, size)
    axis = _uniform_axis(rng, size)
    return theta, axis


def sample_vonmises_rot(center, d, rng, size=None):
    """Sample rotation(s) from the von Mises distribution centered at ``center``.

    By left invariance the sample is center @ B with B distributed around
    the identity; B is built from an inverse-CDF angle and a uniform axis.

    Args:
        center: center rotation, shape (3, 3).
        d: noise intensity D > 0.
        rng: numpy Generator.
        size: None for a single (3, 3) sample, else the number of samples.

    Returns:
        Array of shape (3, 3) or (size, 3, 3).
    """
    center = np.asarray(center, dtype=np.float64)
    n = 1 if size is None else int(size)
    theta, axis = draw_angle_axis(d, rng, n)
    b = rotation_from_axis_angle(axis, theta)
    out = center @ b
    return out[0] if size is None else out


def sample_vonmises_quat(center, d, rng, size=None):
    """Sample unit quaternion(s) whose image under Phi is M_{Phi(center)}.

    Uses the same (theta, axis) construction as the matrix sampler composed
    through the half-angle map, plus one fair sign flip per sample so that
    both preimages q and -q of each rotation occur (the law on the
    quaternion sphere is symmetric).

    Args:
        center: unit quaternion, shape (4,).
        d: noise intensity D > 0.
        rng: numpy Generator.
        size: None for a single (4,) sample, else the number of samples.

    Returns:
        Array of shape (4,) or (size, 4).
    """
    center = np.asarray(center, dtype=np.float64)
    n = 1 if size is None else int(size)
    theta, axis = draw_angle_axis(d, rng, n)
    r = quat_from_axis_angle(axis, theta)
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    out = quat_mul(center, r) * sign[:, None]
    return out[0] if size is None else out


def sample_uniform_quat(rng, size=None):
    """Haar-uniform unit quaternion(s) (normalized 4D Gaussian)."""
    n = 1 if size is None else int(size)
    v = rng.standard_normal((n, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v[0] if size is None else v


def sample_uniform_rot(rng, size=None):
    """Haar-uniform rotation(s) via the quaternion double cover."""
    from .rotations import quat_to_rot

    return quat_to_rot(sample_uniform_quat(rng, size))


def _angle_integral(f, d, method):
    """Integral of f(theta) over theta in [0, pi], taken in phi = theta / sqrt(D).

    ``f`` is built on the overflow-safe shifted density; the shift and the
    Jacobian sqrt(D) are left out, as they cancel in every ratio of two such
    integrals. In phi the peak at theta = 0 has unit width at every D, and
    phi stops at 40 (weight below e^-800) when that comes before theta = pi.
    ``method`` names the route, "simpson" or "gauss" (see ``quadrature``).
    """
    s = float(np.sqrt(d))

    def f_phi(phi):
        return f(s * phi)

    a, b = 0.0, min(np.pi / s, 40.0)
    if method == "simpson":
        return simpson(f_phi, a, b)
    if method == "gauss":
        return gauss_legendre(f_phi, a, b)
    raise ValueError(f"unknown quadrature method: {method!r}")


def c1(d, method="simpson"):
    """Consistency constant c1(D) = (2/3) <1/2 + cos theta> in (0, 1).

    The average is over the angle marginal weight m(theta) sin^2(theta/2).
    c1 -> 1 as D -> 0 (perfect alignment), like 1 - D, and -> 0 as
    D -> infinity (the weight tends to plain sin^2(theta/2), against which
    1/2 + cos theta integrates to zero). Both routes hold at every D > 0
    and agree to about 1e-15 (see ``_angle_integral``).

    Args:
        d: noise intensity D > 0.
        method: "simpson" (composite, doubling) or "gauss" (fixed
            Gauss-Legendre), the independent cross-check.

    Raises:
        DomainError: naming ``d`` unless it is finite and > 0, or when the
            angle moments underflow there.
    """
    check_d(d)
    num = _angle_integral(lambda t: (0.5 + np.cos(t)) * _angle_density_shifted(t, d), d, method)
    den = _angle_integral(lambda t: _angle_density_shifted(t, d), d, method)
    return (2.0 / 3.0) * num / checked_moment(den, d)
