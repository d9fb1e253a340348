"""The two scalar quadrature routes: the doubling Simpson rule and Gauss-Legendre."""

import numpy as np
import pytest

from sohb.errors import NoConvergence
from sohb.quadrature import gauss_legendre, simpson


def test_simpson_closed_form():
    """integral_0^pi e^{cos x} sin^2 x dx = pi I_1(1), and integral_0^1 e^x dx = e - 1."""
    from scipy.special import i1

    assert simpson(lambda x: np.exp(np.cos(x)) * np.sin(x) ** 2, 0.0, np.pi) == pytest.approx(
        np.pi * i1(1.0), rel=1e-13
    )
    assert simpson(np.exp, 0.0, 1.0) == pytest.approx(np.e - 1.0, rel=1e-13)


def test_simpson_returns_a_float_and_handles_a_zero_integral():
    got = simpson(np.sin, -1.0, 1.0)
    assert type(got) is float
    assert got == pytest.approx(0.0, abs=1e-16)


def test_simpson_evaluates_each_node_once_on_whole_arrays():
    seen = []

    def f(x):
        assert isinstance(x, np.ndarray) and x.size > 1
        seen.append(x.copy())
        return np.exp(-x * x)

    simpson(f, 0.0, 3.0)
    nodes = np.concatenate(seen)
    assert len(seen) >= 3
    assert np.unique(nodes).size == nodes.size
    # the nodes form one uniform grid on [0, 3] with an odd number of points
    grid = np.sort(nodes)
    np.testing.assert_allclose(grid, np.linspace(0.0, 3.0, grid.size), atol=1e-14)


def test_simpson_gives_up_at_the_panel_cap():
    """A jump inside the interval converges like h, never to 1e-11."""
    with pytest.raises(NoConvergence, match="panels"):
        simpson(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0)


def test_simpson_rejects_nan():
    with pytest.raises(NoConvergence):
        simpson(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_routes_agree_on_a_narrow_peak():
    """A peak of width 1e-2 inside [0, 1], resolved by both rules."""

    def f(x):
        return np.exp(-0.5 * ((x - 0.4) / 1e-2) ** 2)

    exact = 1e-2 * np.sqrt(2.0 * np.pi)
    assert simpson(f, 0.0, 1.0) == pytest.approx(exact, rel=1e-11)
    assert gauss_legendre(f, 0.0, 1.0) == pytest.approx(exact, rel=1e-11)
