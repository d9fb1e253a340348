"""Collision-invariant pipeline: radial profile, constants, adjoint check."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from scipy import integrate, sparse
from scipy.sparse.linalg import spsolve

from sohb.errors import DomainError, NoConvergence
from sohb.gci import (
    GRADUAL,
    JUMP,
    constants,
    get_profile,
    _operator,
    jump_profile,
    solve_h,
    verify_adjoint_jump,
    vonmises_class_average,
)
from sohb.rng import make_rng
from sohb.rotations import hat, mat_dot
from sohb.sampling import c1 as sampling_c1
from sohb.sampling import sample_uniform_rot, sample_vonmises_rot

D_PROBES = (0.2, 1.0, 5.0)

# Reference values derived by independent routes (finite differences for the
# profile, direct scipy quadrature for the constants), frozen so that any
# regression shows up as value drift rather than a silent re-baseline.
H_HALF = {0.2: -0.05050288, 1.0: -0.07038876, 5.0: -0.06451179}
DH_ZERO = {0.2: -0.179234, 1.0: -0.155187, 5.0: -0.131270}
GRADUAL_D1 = {"c1": 0.20421709, "c2": 0.34778753, "c2p": 0.13038338, "c4": 0.21740416}
JUMP_D1 = {"c2": 0.36902492, "c2p": 0.15869989, "c4": 0.21032503}


@pytest.fixture(scope="module")
def profiles():
    return {d: solve_h(d) for d in D_PROBES}


def fd_profile(d, npts=8001):
    """Finite-difference solve of the radial problem, independent of the package.

    Second-order central differences for

        (1 - r^2) h'' + (-5 r + (4 r / d)(1 - r^2)) h' - (3 + 4 r^2 / d) h = r

    on a uniform grid over [0, 1], with h(0) = 0 (the bounded solution is
    odd) and the endpoint relation -5 h'(1) - (3 + 4/d) h(1) = 1 obtained by
    letting r -> 1 in the equation, discretized with a one-sided
    second-order derivative.

    Returns:
        (r, h): the full grid including r = 0 and the solution values.
    """
    n = npts - 1
    delta = 1.0 / n
    r = np.linspace(0.0, 1.0, npts)
    ri = r[1:n]
    p = 1.0 - ri * ri
    q = -5.0 * ri + (4.0 * ri / d) * p
    z = -(3.0 + 4.0 * ri * ri / d)
    i = np.arange(1, n)
    rows = np.concatenate([i - 1, i - 1, i - 1])
    cols = np.concatenate([i - 2, i - 1, i])  # h_{i-1}, h_i, h_{i+1} as unknowns
    data = np.concatenate(
        [
            p / delta**2 - q / (2 * delta),
            -2.0 * p / delta**2 + z,
            p / delta**2 + q / (2 * delta),
        ]
    )
    keep = cols >= 0  # drop the h_0 column: h(0) = 0
    rows, cols, data = rows[keep], cols[keep], data[keep]
    rows = np.concatenate([rows, [n - 1] * 3])
    cols = np.concatenate([cols, [n - 1, n - 2, n - 3]])
    data = np.concatenate(
        [data, [-7.5 / delta - (3.0 + 4.0 / d), 10.0 / delta, -2.5 / delta]]
    )
    mat = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    rhs = np.concatenate([ri, [1.0]])
    h = spsolve(mat, rhs)
    return r, np.concatenate([[0.0], h])


# --- the radial profile -------------------------------------------------------


@pytest.mark.parametrize("d", D_PROBES + (0.05, 0.02, 0.002))
def test_h_matches_finite_difference_oracle(d, profiles):
    """Below D = 0.08 the weighted residual carries e^{2/D}; the solve is
    still accepted there, on its scale-free residual. Below D = 2/709.78 the
    weighted residual is inf at every ladder entry, and the entry kept is the
    one with the smallest scale-free residual."""
    prof = profiles[d] if d in profiles else solve_h(d)
    r, h_fd = fd_profile(d)
    probes = np.arange(0.1, 0.95, 0.1)
    gap = np.abs(prof.hbar(probes) - np.interp(probes, r, h_fd))
    assert np.max(gap) < 1e-6


@pytest.mark.parametrize("d", D_PROBES)
def test_h_frozen_probes(d, profiles):
    assert profiles[d].hbar(0.5) == pytest.approx(H_HALF[d], abs=1e-7)
    dh0 = cheb.chebval(0.0, cheb.chebder(profiles[d].coeffs))
    assert dh0 == pytest.approx(DH_ZERO[d], abs=1e-5)


def test_h_is_odd(profiles):
    r = np.linspace(0.0, 1.0, 257)
    for prof in profiles.values():
        np.testing.assert_allclose(prof.hbar(-r), -prof.hbar(r), atol=1e-8)


def test_h_nonpositive_on_unit_interval(profiles):
    r = np.linspace(0.0, 1.0 - 1e-6, 2001)
    for prof in profiles.values():
        assert np.max(prof.hbar(r)) <= 1e-10
        assert prof.hbar(0.5) < 0.0


@pytest.mark.parametrize("d", D_PROBES)
def test_h_satisfies_ode_directly(d, profiles):
    """Plug the solution into the divided-form equation with fresh derivatives."""
    c = profiles[d].coeffs
    g = np.linspace(0.0, 0.95, 901)
    h = cheb.chebval(g, c)
    dh = cheb.chebval(g, cheb.chebder(c))
    d2h = cheb.chebval(g, cheb.chebder(c, 2))
    res = (
        (1.0 - g * g) * d2h
        + (-5.0 * g + (4.0 * g / d) * (1.0 - g * g)) * dh
        - (3.0 + 4.0 * g * g / d) * h
        - g
    )
    assert np.max(np.abs(res)) < 1e-6
    assert profiles[d].residual <= 1e-6


def test_solve_reports_no_convergence():
    """The message names d, so the CLI's error line names the field."""
    with pytest.raises(NoConvergence, match=r"^d 0\.0001: "):
        solve_h(1e-4)


def test_jump_profile_is_t1():
    """The jump profile is the Chebyshev series T_1: hbar(r) = r exactly."""
    r = np.linspace(-1.0, 1.0, 1001)
    np.testing.assert_array_equal(jump_profile(0.7).hbar(r), r)


@pytest.mark.parametrize("n_modes", (16, 48, 192))
def test_design_matrix_matches_per_mode_loop(n_modes):
    """The collocation matrix of solve_h, built in one call on the identity
    coefficients, equals the operator applied to T_1, T_3, ... one at a time."""
    d = 0.3
    npts = 2 * n_modes + 8
    r = 0.5 * (1.0 + np.cos(np.pi * np.arange(npts) / (npts - 1)))
    a = 1.0 - r * r
    cols = []
    for k in range(n_modes):
        e = np.zeros(2 * k + 2)
        e[-1] = 1.0
        cols.append(
            a * cheb.chebval(r, cheb.chebder(e, 2))
            + (-5.0 * r + (4.0 * r / d) * a) * cheb.chebval(r, cheb.chebder(e))
            - (3.0 + 4.0 * r * r / d) * cheb.chebval(r, e)
        )
    design = _operator(r, d, np.eye(2 * n_modes)[:, 1::2]).T
    np.testing.assert_array_equal(design, np.stack(cols, axis=-1))


# --- the constants --------------------------------------------------------------


def test_c3_is_half_d(profiles):
    assert constants(0.7, JUMP).c3 == 0.35
    assert constants(1.0, GRADUAL, profile=profiles[1.0]).c3 == 0.5


@pytest.mark.parametrize("model", (GRADUAL, JUMP))
@pytest.mark.parametrize("d", D_PROBES)
def test_c2_minus_c2p_equals_c4(d, model, profiles):
    prof = profiles[d] if model == GRADUAL else jump_profile(d)
    c = constants(d, model, profile=prof)
    assert abs(c.c2 - c.c2_prime - c.c4) < 1e-10


@pytest.mark.parametrize("model", (GRADUAL, JUMP))
@pytest.mark.parametrize("d", D_PROBES)
def test_dual_quadrature_routes_agree(d, model, profiles):
    prof = profiles[d] if model == GRADUAL else jump_profile(d)
    a = constants(d, model, method="simpson", profile=prof)
    b = constants(d, model, method="gauss", profile=prof)
    for field in ("c1", "c2", "c2_prime", "c3", "c4"):
        assert abs(getattr(a, field) - getattr(b, field)) < 1e-8


JUMP_GRID = tuple(float(f"{d:.2g}") for d in np.geomspace(1e-5, 5.0, 15))
GRADUAL_GRID = tuple(float(f"{d:.2g}") for d in np.geomspace(3e-3, 5.0, 9))


@pytest.mark.parametrize(
    "d, model",
    [(d, JUMP) for d in JUMP_GRID] + [(d, GRADUAL) for d in GRADUAL_GRID],
)
def test_default_constants_match_gauss_at_every_d(d, model):
    """The default (Simpson) constants against the Gauss-Legendre route."""
    prof = get_profile(d, model)
    a = constants(d, model, profile=prof)
    b = constants(d, model, method="gauss", profile=prof)
    for field in ("c1", "c2", "c2_prime", "c4"):
        assert abs(getattr(a, field) - getattr(b, field)) <= 1e-12, field
    assert a.c3 == b.c3 == 0.5 * d


@pytest.mark.parametrize(
    "d, model", [(1e-3, JUMP), (1e-2, JUMP), (1e-2, GRADUAL)]
)
def test_small_d_constants_against_scipy_quad(d, model):
    """A third route: scipy quad in theta, told where the peak of width
    sqrt(D) lies."""
    hbar = solve_h(d).hbar if model == GRADUAL else (lambda r: r)
    points = [k * np.sqrt(d) for k in (1.0, 2.0, 4.0, 8.0, 16.0) if k * np.sqrt(d) < np.pi]

    def quad(f):
        return integrate.quad(f, 0.0, np.pi, points=points, limit=400,
                              epsabs=0.0, epsrel=1e-13)[0]

    def m(t):
        return np.exp((np.cos(t) - 1.0) / d)

    def w(t):
        half = 0.5 * t
        return m(t) * np.sin(half) ** 4 * float(hbar(np.cos(half))) * np.cos(half)

    c1_ref = (2 / 3) * quad(lambda t: (0.5 + np.cos(t)) * m(t) * np.sin(t / 2) ** 2) / quad(
        lambda t: m(t) * np.sin(t / 2) ** 2
    )
    den = quad(w)
    got = constants(d, model)
    assert got.c1 == pytest.approx(c1_ref, abs=1e-9)
    assert got.c2 == pytest.approx(0.2 * quad(lambda t: (2 + 3 * np.cos(t)) * w(t)) / den, abs=1e-9)
    assert got.c2_prime == pytest.approx(
        0.2 * quad(lambda t: (1 + 4 * np.cos(t)) * w(t)) / den, abs=1e-9
    )
    assert got.c4 == pytest.approx(0.2 * quad(lambda t: (1 - np.cos(t)) * w(t)) / den, abs=1e-9)


@pytest.mark.parametrize("d", (1e-5, 1e-4, 1e-3, 1e-2))
def test_jump_c4_small_d_asymptote(d):
    """Jump c4 = D/2 - D^2/8 - 3 D^3/16 + O(D^4).

    Derived before running: with hbar(r) = r the weight is
    m sin^4(t/2) cos^2(t/2), and expanding in cos(n t) gives
    c4 = (5 I_0 - 4 I_1 - 4 I_2 + 4 I_3 - I_4) / (10 (2 I_0 - I_1 - 2 I_2 + I_3))
    at k = 1/D; Hankel's series of I_n yields the coefficients. The leading
    one is the chi_5 moment of theta/sqrt(D): <1 - cos t>_w = D E[phi^2]/2
    = 5D/2. So for D <= 1e-2 the gap D/2 - c4 = D^2 (1/8 + 3D/16 + ...) lies
    in [D^2/16, D^2/4].
    """
    gap = 0.5 * d - constants(d, JUMP).c4
    assert d * d / 16.0 <= gap <= d * d / 4.0


def test_frozen_constants_d1(profiles):
    g = constants(1.0, GRADUAL, profile=profiles[1.0])
    assert g.c1 == pytest.approx(GRADUAL_D1["c1"], abs=1e-7)
    assert g.c2 == pytest.approx(GRADUAL_D1["c2"], abs=1e-7)
    assert g.c2_prime == pytest.approx(GRADUAL_D1["c2p"], abs=1e-7)
    assert g.c4 == pytest.approx(GRADUAL_D1["c4"], abs=1e-7)
    j = constants(1.0, JUMP)
    assert j.c2 == pytest.approx(JUMP_D1["c2"], abs=1e-7)
    assert j.c2_prime == pytest.approx(JUMP_D1["c2p"], abs=1e-7)
    assert j.c4 == pytest.approx(JUMP_D1["c4"], abs=1e-7)


def test_jump_constants_against_scipy_quad():
    """Re-derive the jump-model averages with scipy.integrate.quad."""
    d = 1.0

    def w(t):
        half = 0.5 * t
        return np.exp(np.cos(t) / d) * np.sin(half) ** 4 * np.cos(half) ** 2

    den, _ = integrate.quad(w, 0.0, np.pi, epsabs=1e-13)
    c2, _ = integrate.quad(lambda t: (2 + 3 * np.cos(t)) * w(t), 0.0, np.pi, epsabs=1e-13)
    c2p, _ = integrate.quad(lambda t: (1 + 4 * np.cos(t)) * w(t), 0.0, np.pi, epsabs=1e-13)
    c4, _ = integrate.quad(lambda t: (1 - np.cos(t)) * w(t), 0.0, np.pi, epsabs=1e-13)
    got = constants(d, JUMP)
    assert got.c2 == pytest.approx(0.2 * c2 / den, abs=1e-9)
    assert got.c2_prime == pytest.approx(0.2 * c2p / den, abs=1e-9)
    assert got.c4 == pytest.approx(0.2 * c4 / den, abs=1e-9)


def test_gradual_constants_against_scipy_quad(profiles):
    """Re-derive the gradual-model averages with scipy quad + the solved h."""
    d = 1.0
    prof = profiles[d]

    def w(t):
        half = 0.5 * t
        return (
            np.exp(np.cos(t) / d)
            * np.sin(half) ** 4
            * float(prof.hbar(np.cos(half)))
            * np.cos(half)
        )

    den, _ = integrate.quad(w, 0.0, np.pi, epsabs=1e-13)
    c2, _ = integrate.quad(lambda t: (2 + 3 * np.cos(t)) * w(t), 0.0, np.pi, epsabs=1e-13)
    c4, _ = integrate.quad(lambda t: (1 - np.cos(t)) * w(t), 0.0, np.pi, epsabs=1e-13)
    got = constants(d, GRADUAL, profile=prof)
    assert got.c2 == pytest.approx(0.2 * c2 / den, abs=1e-9)
    assert got.c4 == pytest.approx(0.2 * c4 / den, abs=1e-9)


def test_csv_row_format():
    row = constants(0.7, JUMP).csv_row()
    fields = row.split(",")
    assert len(fields) == 7
    assert fields[1] == "jump"
    assert float(fields[0]) == 0.7 and float(fields[5]) == 0.35


# --- class averages and the adjoint check ---------------------------------------


@pytest.mark.parametrize("d", D_PROBES)
def test_class_average_is_normalized(d):
    rng = make_rng(50, 0)
    center = sample_uniform_rot(rng)
    one = vonmises_class_average(lambda rots: np.ones(rots.shape[0]), center, d)
    assert one == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", D_PROBES + (1e-3, 1e-4))
def test_class_average_alignment_moment(d):
    """integral mat_dot(center, A) dM has the closed form (3/2) c1(d), also
    where the angle peak is narrower than the node gaps on [0, pi]."""
    rng = make_rng(50, 1)
    center = sample_uniform_rot(rng)
    val = vonmises_class_average(lambda rots: mat_dot(center, rots), center, d)
    assert val == pytest.approx(1.5 * sampling_c1(d), abs=1e-9)


@pytest.mark.parametrize("d", D_PROBES)
def test_adjoint_invariant_residual(d):
    rng = make_rng(50, 2)
    for _ in range(6):
        center = sample_uniform_rot(rng)
        p = rng.standard_normal(3)
        assert verify_adjoint_jump(center, p, d) <= 1e-8


def test_adjoint_invariant_monte_carlo():
    """The same integral by direct sampling: zero within 4 standard errors."""
    d = 1.0
    rng = make_rng(50, 3)
    center = sample_uniform_rot(rng)
    p = hat(rng.standard_normal(3))
    draws = sample_vonmises_rot(center, d, rng, size=200_000)
    vals = mat_dot(p, np.einsum("ji,njk->nik", center, draws))
    se = np.std(vals, ddof=1) / np.sqrt(vals.size)
    assert abs(np.mean(vals)) <= 4.0 * se


# --- validation ------------------------------------------------------------------


def test_rejects_bad_inputs(profiles):
    with pytest.raises(DomainError, match=r"^d: "):
        solve_h(0.0)
    with pytest.raises(DomainError, match=r"^d: "):
        solve_h(-1.0)
    with pytest.raises(DomainError, match=r"^model: "):
        get_profile(1.0, "ballistic")
    with pytest.raises(ValueError):
        constants(1.0, JUMP, profile=profiles[1.0])  # model mismatch
    with pytest.raises(ValueError):
        constants(2.0, GRADUAL, profile=profiles[1.0])  # noise-level mismatch
    with pytest.raises(ValueError):
        constants(1.0, JUMP, method="monte-carlo")
