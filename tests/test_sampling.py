"""Von Mises sampling on rotations: density, tables, draws, and moments.

The quadrature-based values frozen below were computed independently with
scipy.integrate.quad on the defining integrals (weight
exp((cos t - 1)/D) sin^2(t/2) on [0, pi]) at epsrel 1e-13.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from sohb.estimators import ks_one_sample
from sohb.rng import make_rng
from sohb.rotations import mat_dot, quat_to_rot, rot_to_quat, rotation_angle
from sohb.sampling import (
    angle_density,
    c1,
    draw_angle_axis,
    get_angle_table,
    sample_uniform_quat,
    sample_uniform_rot,
    sample_vonmises_quat,
    sample_vonmises_rot,
)

# independent scipy.integrate.quad oracle, see module docstring
C1_EXPECTED = {0.2: 0.783917243202, 1.0: 0.204217094342, 5.0: 0.034994175038}
MEAN_ANGLE_D1E3 = 0.050477  # quadrature of t-moment at D = 1e-3


def test_angle_density_at_zero():
    assert angle_density(0.0, 1.0) == 0.0


def test_angle_density_at_pi():
    # 1/2 + cos(pi) = -1/2 and sin^2(pi/2) = 1
    assert angle_density(np.pi, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-14)


def test_angle_marginal_matches_draws():
    """Empirical angle frequencies agree with the quadrature CDF within 4 sigma."""
    d, n = 1.0, 40_000
    rng = make_rng(5, 1)
    table = get_angle_table(d)
    center = sample_uniform_rot(rng)
    angles = rotation_angle(
        np.einsum("ji,njk->nik", center, sample_vonmises_rot(center, d, rng, size=n))
    )
    for probe in (0.5, 1.0, 1.5, 2.2):
        freq = np.mean(angles <= probe)
        expect = table.cdf_at(probe)
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert abs(freq - expect) <= 4 * sigma


def test_small_d_concentrates():
    rng = make_rng(5, 2)
    center = sample_uniform_rot(rng)
    sample = sample_vonmises_rot(center, 1e-3, rng, size=10_000)
    rel = np.einsum("ji,njk->nik", center, sample)
    mean_angle = float(np.mean(rotation_angle(rel)))
    assert mean_angle < 0.15
    # sharper: matches the quadrature mean to 5%
    assert mean_angle == pytest.approx(MEAN_ANGLE_D1E3, rel=0.05)


def test_law_invariant_under_center():
    """Relative-rotation statistics do not depend on the center."""
    d, n = 0.7, 20_000
    stats = []
    for stream in (3, 4):
        rng = make_rng(6, stream)
        center = sample_uniform_rot(rng)
        sample = sample_vonmises_rot(center, d, rng, size=n)
        stats.append(np.sort(rotation_angle(np.einsum("ji,njk->nik", center, sample))))
    # same inverse-CDF machinery, different centers: two-sample agreement
    gap = np.max(np.abs(stats[0] - stats[1]))
    assert gap < 0.05


def test_first_moment_consistency():
    """E[A e1] = c1(D) Lambda e1 within 4 standard errors."""
    d, n = 1.0, 200_000
    rng = make_rng(6, 5)
    center = sample_uniform_rot(rng)
    sample = sample_vonmises_rot(center, d, rng, size=n)
    mean_e1 = sample[..., :, 0].mean(axis=0)
    se = sample[..., :, 0].std(axis=0) / np.sqrt(n)
    dev = np.abs(mean_e1 - c1(d) * center[:, 0])
    assert np.all(dev <= 4 * se)


def test_quaternion_matrix_same_construction():
    """Paired draws: the quaternion sample lifts to the matrix sample."""
    d, n = 1.0, 512
    center = sample_uniform_rot(make_rng(7, 0))
    rot = sample_vonmises_rot(center, d, make_rng(7, 1), size=n)
    quat = sample_vonmises_quat(rot_to_quat(center), d, make_rng(7, 1), size=n)
    np.testing.assert_allclose(quat_to_rot(quat), rot, atol=1e-12)


def test_quaternion_sign_flip_balanced():
    """Both preimages of each rotation occur with fair frequency."""
    d, n = 1.0, 20_000
    qc = np.array([1.0, 0.0, 0.0, 0.0])
    rng = make_rng(7, 2)
    q = sample_vonmises_quat(qc, d, rng, size=n)
    frac = np.mean(np.sum(q * qc, axis=-1) > 0)
    assert abs(frac - 0.5) <= 4 * 0.5 / np.sqrt(n)


def test_quaternion_center_sign_irrelevant():
    qc = np.array([0.3, -0.5, 0.8, 0.1])
    qc = qc / np.linalg.norm(qc)
    a = sample_vonmises_quat(qc, 0.5, make_rng(7, 3), size=256)
    b = sample_vonmises_quat(-qc, 0.5, make_rng(7, 3), size=256)
    np.testing.assert_allclose(quat_to_rot(a), quat_to_rot(b), atol=1e-12)


def test_qtensor_pairing_law():
    """(center . q)^2 - 1/4 equals half the matrix pairing, samplewise."""
    d, n = 1.0, 4096
    qc_raw = make_rng(7, 4).standard_normal(4)
    qc = qc_raw / np.linalg.norm(qc_raw)
    q = sample_vonmises_quat(qc, d, make_rng(7, 5), size=n)
    lhs = np.sum(qc * q, axis=-1) ** 2 - 0.25
    rhs = 0.5 * mat_dot(quat_to_rot(qc), quat_to_rot(q))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_uniform_sampler_isotropic():
    n = 100_000
    r = sample_uniform_rot(make_rng(8, 0), size=n)
    # column means vanish like n^{-1/2}
    assert np.max(np.abs(r.mean(axis=0))) < 4.0 / np.sqrt(n)
    q = sample_uniform_quat(make_rng(8, 1), size=n)
    np.testing.assert_allclose(np.linalg.norm(q, axis=-1), 1.0, atol=1e-12)


class TestC1:
    def test_frozen_quadrature_values(self):
        for d, expected in C1_EXPECTED.items():
            assert c1(d) == pytest.approx(expected, abs=1e-10)

    def test_dual_quadratures_agree(self):
        for d in (0.2, 1.0, 5.0):
            assert c1(d, method="simpson") == pytest.approx(
                c1(d, method="gauss"), abs=1e-11
            )

    def test_open_unit_interval(self):
        for d in (1e-2, 0.1, 1.0, 10.0, 100.0):
            assert 0.0 < c1(d) < 1.0

    def test_limits(self):
        assert c1(1e-4) > 0.99
        assert abs(c1(1e4)) < 1e-3

    @pytest.mark.parametrize("d", [1e-5, 1e-4, 1e-3, 1e-2])
    def test_small_d_asymptote(self, d):
        """c1 = 1 - D - D^2/4 - 3 D^3/8 + O(D^4).

        Derived before running: c1 = (1/3)(I_1 - I_2)/(I_0 - I_1) at k = 1/D
        (expand (1/2 + cos t) sin^2(t/2) in cos(n t)), and Hankel's series
        I_n(k) ~ e^k (2 pi k)^{-1/2} sum_j (-1)^j a_j(n) (D/8)^j / j! with
        a_j(n) = prod_{i<j} (4n^2 - (2i+1)^2) gives the coefficients. The
        leading two are the chi_3 moments of theta/sqrt(D): E[phi^2] = 3
        gives <1/2 + cos t> = 3/2 - 3D/2. So for D <= 1e-2 the gap
        (1 - D) - c1 = D^2 (1/4 + 3D/8 + ...) lies in [D^2/8, D^2/2].
        """
        gap = (1.0 - d) - c1(d)
        assert d * d / 8.0 <= gap <= d * d / 2.0

    def test_fresh_quad_cross_check(self):
        """Recompute c1 with scipy.quad at runtime, not just frozen numbers."""

        def oracle(d):
            w = lambda t: np.exp((np.cos(t) - 1.0) / d) * np.sin(t / 2) ** 2
            num = quad(lambda t: (2 / 3) * (0.5 + np.cos(t)) * w(t), 0, np.pi)[0]
            return num / quad(w, 0, np.pi)[0]

        for d in (0.37, 2.5):
            assert c1(d) == pytest.approx(oracle(d), abs=1e-9)


def test_angle_table_sample_matches_cdf():
    d = 0.8
    table = get_angle_table(d)
    rng = make_rng(8, 2)
    angles = table.sample(rng, 50_000)
    report = ks_one_sample(angles, table.cdf_at)
    assert report.p_value >= 0.01


def test_draw_angle_axis_shapes():
    rng = make_rng(8, 3)
    theta, axis = draw_angle_axis(1.0, rng, 17)
    assert theta.shape == (17,)
    assert axis.shape == (17, 3)
    np.testing.assert_allclose(np.linalg.norm(axis, axis=-1), 1.0, atol=1e-14)
