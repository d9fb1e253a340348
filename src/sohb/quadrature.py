"""Scalar quadrature used by the distribution and constants code.

Two independent routes, sharing no nodes: a composite Simpson rule that
doubles its panel count until it converges, and a 512-node Gauss-Legendre
rule. Both evaluate ``f`` on whole node arrays. The constants are computed
with both and cross-checked in the tests and in criterion 7. The angle
moments integrate smooth functions that are even about both ends (or have
decayed before the far end), where both rules converge spectrally.
"""

from functools import cache

import numpy as np

from .errors import NoConvergence

#: Agreement of two successive corrected estimates, relative to integral |f|.
_REL_TOL = 1e-11

#: Panel count of the first Simpson estimate, and the count at which it gives up.
_START_PANELS = 32
_MAX_PANELS = 2**16


def simpson(f, a, b):
    """Composite Simpson integration of ``f`` on [a, b], doubling to convergence.

    Each doubling evaluates ``f`` on the new midpoints only and gives the
    Simpson estimate S_2n and its Richardson value R_2n = S_2n + (S_2n - S_n)/15.
    The rule returns R_2n once |R_2n - R_n| <= ``_REL_TOL`` times the same
    estimate of the integral of |f|. Comparing corrected values keeps the
    correction from adding an error where the rule beats h^4.

    Raises:
        NoConvergence: if R_2n and R_n still disagree (or are NaN) at
            ``_MAX_PANELS`` panels.
    """
    a, b, n = float(a), float(b), _START_PANELS

    def sums(x):  # (sum of f, sum of |f|) over the nodes x
        fx = np.asarray(f(x), dtype=np.float64)
        return np.array([np.sum(fx), np.sum(np.abs(fx))])

    x = np.linspace(a, b, n + 1)
    ends, odd, even = sums(x[[0, -1]]), sums(x[1:-1:2]), sums(x[2:-1:2])
    est = (b - a) / (3.0 * n) * (ends + 4.0 * odd + 2.0 * even)
    corrected = prev = np.full(2, np.nan)
    while n < _MAX_PANELS:
        n *= 2
        h = (b - a) / n
        even, odd = even + odd, sums(a + h * np.arange(1, n, 2))
        est_n, est = est, h / 3.0 * (ends + 4.0 * odd + 2.0 * even)
        prev, corrected = corrected, est + (est - est_n) / 15.0
        if abs(corrected[0] - prev[0]) <= _REL_TOL * corrected[1]:
            return float(corrected[0])
    raise NoConvergence(
        f"Simpson rule on [{a!r}, {b!r}]: estimates still differ by "
        f"{abs(corrected[0] - prev[0]):.3e} at {_MAX_PANELS} panels"
    )


@cache
def _gl_rule():
    return np.polynomial.legendre.leggauss(512)


def gauss_legendre(f, a, b):
    """512-node Gauss-Legendre integration of ``f`` on [a, b].

    ``f`` must accept a numpy array of nodes. Spectrally accurate for
    analytic integrands; used as the independent cross-check of
    :func:`simpson`.
    """
    x, w = _gl_rule()
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return half * float(np.sum(w * np.asarray(f(mid + half * x), dtype=np.float64)))
