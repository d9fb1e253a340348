"""Statistics over simulation output: order parameters and KS comparisons."""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import TooFewSamples
from .rotations import mat_dot, polar_rotation, quat_to_rot

#: Below this many samples the asymptotic KS p-value is not trustworthy.
MIN_KS_SAMPLES = 100


@dataclass(frozen=True)
class EstimatorReport:
    """A scalar estimate with its Monte Carlo standard error."""

    value: float
    stderr: float
    n: int


@dataclass(frozen=True)
class KsReport:
    """Kolmogorov-Smirnov comparison result."""

    statistic: float
    p_value: float
    n_a: int
    n_b: int | None = None


def polar_overlaps(orient, kind):
    """Per-body overlaps s_n = L . A_n with the polar mean rotation L of the
    ensemble (1.5 at perfect alignment, ~0 for the uniform law); arguments
    as in ``order_parameter``."""
    rots = orient if kind == "matrix" else quat_to_rot(orient)
    return mat_dot(polar_rotation(np.mean(rots, axis=0)), rots)


def order_parameter(orient, kind):
    """Global alignment statistic of an orientation ensemble: the mean of
    ``polar_overlaps`` over particles, with its standard error.

    Args:
        orient: (N, 3, 3) rotations or (N, 4) unit quaternions.
        kind: "matrix" or "quaternion".

    Raises:
        TooFewSamples: fewer than 2 samples (no standard error).
    """
    orient = np.asarray(orient, dtype=np.float64)
    if orient.shape[0] < 2:
        raise TooFewSamples("order parameter needs at least 2 samples")
    s = polar_overlaps(orient, kind)
    n = s.shape[0]
    return EstimatorReport(
        value=float(np.mean(s)),
        stderr=float(np.std(s, ddof=1) / np.sqrt(n)),
        n=int(n),
    )


def _ks_p_value(stat, n_eff):
    """Asymptotic KS tail probability with the Stephens small-sample factor."""
    root = np.sqrt(n_eff)
    return float(special.kolmogorov((root + 0.12 + 0.11 / root) * stat))


def ks_one_sample(samples, cdf):
    """One-sample KS test of ``samples`` against a reference CDF.

    Args:
        samples: 1-d array.
        cdf: vectorized reference CDF.

    Raises:
        TooFewSamples: below MIN_KS_SAMPLES.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < MIN_KS_SAMPLES:
        raise TooFewSamples(f"KS test needs >= {MIN_KS_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(grid - f, f - (grid - 1.0 / n))))
    return KsReport(statistic=stat, p_value=_ks_p_value(stat, n), n_a=n)


def ks_two_sample(a, b):
    """Two-sample KS test (hand-rolled statistic, asymptotic p-value).

    Raises:
        TooFewSamples: either sample below MIN_KS_SAMPLES.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    n, m = a.size, b.size
    if min(n, m) < MIN_KS_SAMPLES:
        raise TooFewSamples(
            f"KS test needs >= {MIN_KS_SAMPLES} samples per side, got {n} and {m}"
        )
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / n
    cdf_b = np.searchsorted(b, both, side="right") / m
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = n * m / (n + m)
    return KsReport(statistic=stat, p_value=_ks_p_value(stat, n_eff), n_a=n, n_b=m)
