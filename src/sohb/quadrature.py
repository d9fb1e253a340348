"""Scalar quadrature used by the distribution and constants code.

Two independent routes are provided on purpose: an adaptive Simpson rule
and a fixed-order Gauss-Legendre rule. Quantities that feed the macroscopic
constants are computed with both and cross-checked in the test suite.
"""

from functools import cache

import numpy as np

#: Relative tolerance of the adaptive rule on the whole integral.
_REL_TOL = 1e-11

#: Absolute error floor: intervals whose contribution is below this are accepted.
ABS_FLOOR = 1e-14

#: Depth at which an interval is accepted as-is (no runaway recursion on kinks).
_MAX_DEPTH = 48


def adaptive_simpson(f, a, b):
    """Adaptive Simpson integration of ``f`` on [a, b].

    The classic halving scheme with Richardson correction: an interval is
    accepted when |S_fine - S_coarse| / 15 is below the local tolerance,
    where the local tolerance is ``_REL_TOL`` scaled to the interval and
    floored at ``ABS_FLOOR``, or once it is ``_MAX_DEPTH`` halvings deep.

    Args:
        f: scalar function (numpy-evaluable).
        a: lower limit.
        b: upper limit.

    Returns:
        Approximation of the integral.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0

    fa = float(f(a))
    fb = float(f(b))
    m = 0.5 * (a + b)
    fm = float(f(m))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # Prime the global scale with a coarse estimate; refined below.
    scale = max(abs(whole), ABS_FLOOR)

    def recurse(x0, x2, f0, f1, f2, s, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = float(f(lm))
        frm = float(f(rm))
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        err = (left + right - s) / 15.0
        tol = max(_REL_TOL * scale * (x2 - x0) / (b - a), ABS_FLOOR)
        if abs(err) <= tol or depth >= _MAX_DEPTH:
            return left + right + err
        return recurse(x0, x1, f0, flm, f1, left, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, 0)


@cache
def _gl_rule():
    return np.polynomial.legendre.leggauss(512)


def gauss_legendre(f, a, b):
    """512-node Gauss-Legendre integration of ``f`` on [a, b].

    ``f`` must accept a numpy array of nodes. Spectrally accurate for
    analytic integrands; used as the independent cross-check of
    :func:`adaptive_simpson`.
    """
    x, w = _gl_rule()
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return half * float(np.sum(w * np.asarray(f(mid + half * x), dtype=np.float64)))
