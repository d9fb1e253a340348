"""Reduced angle chain: the deterministic weak-error kernel machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sohb.errors import DomainError
from sohb.rng import make_rng
from sohb.sampling import get_angle_table
from sohb.weak_error import (
    angle_step,
    angle_transition_matrix,
    reference_angle_cdf,
    scheme_angle_ks,
    stationary_angle_law,
)


# --- the closed-form step ------------------------------------------------------


def test_pure_drift_is_exact_rotation():
    """With no transverse noise the step is theta -> theta - arctan(dt sin)."""
    theta = np.linspace(0.05, np.pi - 0.05, 31)
    s = 0.02 * np.sin(theta)
    got = angle_step(theta, -s, np.full_like(theta, 1e-300))
    np.testing.assert_allclose(got, theta - np.arctan(s), atol=1e-12)


def test_reflection_at_pi():
    """An over-rotation past pi reflects back: angles live on [0, pi]."""
    got = angle_step(3.0, np.tan(0.5), 1e-300)  # rotate by arctan = 0.5 past pi
    assert got == pytest.approx(2.0 * np.pi - 3.5, abs=1e-12)


@given(
    st.floats(0.0, np.pi),
    st.floats(-10.0, 10.0),
    st.floats(1e-6, 10.0),
)
def test_step_stays_in_range(theta, u, rho):
    out = angle_step(theta, u, rho)
    assert 0.0 <= out <= np.pi


def test_transverse_noise_never_decreases_from_zero():
    """From perfect alignment any kick moves the angle up, by arctan |w|."""
    rho = np.array([0.1, 1.0, 3.0])
    got = angle_step(np.zeros(3), np.zeros(3), rho)
    np.testing.assert_allclose(got, np.arctan(rho), atol=1e-12)


# --- reference law ---------------------------------------------------------------


@pytest.mark.parametrize("d", (0.5, 1.0, 3.0))
def test_reference_cdf_matches_sampler_table(d):
    theta = np.linspace(0.0, np.pi, 8001)  # fine grid: trapezoid error ~1e-8
    table = get_angle_table(d)
    cdf = reference_angle_cdf(theta, d)
    np.testing.assert_allclose(cdf, table.cdf_at(theta), atol=1e-6)
    assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        reference_angle_cdf(np.array([0.0]), d)


# --- transition kernel ------------------------------------------------------------


def test_kernel_rows_are_probabilities():
    grid, kernel = angle_transition_matrix(1.0, 1e-2, n_grid=301)
    assert kernel.shape == (301, 301)
    assert np.min(kernel) >= 0.0
    np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)


def test_stationary_law_is_fixed_point():
    grid, p, cdf = stationary_angle_law(1.0, 1e-2, n_grid=301)
    _, kernel = angle_transition_matrix(1.0, 1e-2, n_grid=301)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.cumsum(p @ kernel) - cdf)) < 5e-6
    assert cdf[0] >= 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_stationary_law_solves_fixed_point_to_round_off():
    """The direct solve leaves a fixed-point residual at round-off level."""
    grid, p, cdf = stationary_angle_law(1.0, 1e-2, n_grid=301)
    _, kernel = angle_transition_matrix(1.0, 1e-2, n_grid=301)
    assert np.max(np.abs(p @ kernel - p)) < 1e-14
    assert np.min(p) >= 0.0


def test_chain_monte_carlo_agrees_with_kernel():
    """Simulate the reduced chain directly; its sample must match the kernel law.

    The chain lives on angles only: u ~ N(-dt sin theta, 2 D dt) along the
    axis, an independent 2-d Gaussian of the same scale across it. This is a
    from-scratch implementation sharing no code with the quadrature kernel.
    """
    d, dt = 1.0, 1.6e-2
    n = 20_000
    rng = make_rng(60, 0)
    # start from the continuous law (inverse transform) and burn in
    grid = np.linspace(0.0, np.pi, 2001)
    ref = reference_angle_cdf(grid, d)
    theta = np.interp(rng.random(n), ref, grid)
    sigma = np.sqrt(2.0 * d * dt)
    for _ in range(int(round(1.5 / dt))):
        g = rng.standard_normal((3, n))
        u = -dt * np.sin(theta) + sigma * g[0]
        rho = sigma * np.hypot(g[1], g[2])
        theta = angle_step(theta, u, rho)
    s_grid, _, s_cdf = stationary_angle_law(d, dt)
    x = np.sort(theta)
    f = np.interp(x, s_grid, s_cdf)
    steps = np.arange(1, n + 1) / n
    ks = np.max(np.maximum(steps - f, f - (steps - 1.0 / n)))
    assert ks < 1.63 / np.sqrt(n)  # alpha = 0.01 acceptance band


def test_population_ks_scales_linearly():
    """The scheme's stationary defect is first order in dt."""
    vals = [scheme_angle_ks(1.0, dt) for dt in (1.6e-2, 8e-3)]
    assert vals[0] > vals[1] > 0.0
    assert 1.6 < vals[0] / vals[1] < 2.4


# --- validation --------------------------------------------------------------------


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        angle_transition_matrix(0.0, 1e-2)
    with pytest.raises(DomainError):
        angle_transition_matrix(1.0, -1e-2)
    with pytest.raises(DomainError):
        scheme_angle_ks(-1.0, 1e-2)

