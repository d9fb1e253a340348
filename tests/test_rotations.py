"""Rotation algebra: hat map, pairings, projections, and the quaternion lift."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sohb.errors import DegenerateAverage
from sohb.rng import make_rng
from sohb.rotations import (
    axial,
    hat,
    mat_dot,
    max_eigvec,
    polar_rotation,
    polar_rotation_or_mask,
    project_tangent,
    qtensor,
    quat_e1,
    quat_mul,
    quat_normalize,
    quat_to_rot,
    rot_to_quat,
    rotation_angle,
    rotation_from_axis_angle,
    tangent_step,
)

from conftest import assert_rotation


def unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def unit_quats(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


# --- hat / axial -----------------------------------------------------------


def test_hat_zero():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_e3():
    # e3 x e1 = e2 and e3 x e2 = -e1
    expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(hat([0.0, 0.0, 1.0]), expected)


def test_hat_reproduces_cross_product(rng):
    u = rng.standard_normal((64, 3))
    v = rng.standard_normal((64, 3))
    np.testing.assert_allclose(
        np.einsum("nij,nj->ni", hat(u), v), np.cross(u, v), atol=1e-14
    )


def test_axial_inverts_hat(rng):
    u = rng.standard_normal((32, 3))
    np.testing.assert_allclose(axial(hat(u)), u, atol=1e-15)


def test_hat_pairing_is_euclidean_dot(rng):
    # mat_dot(hat(u), hat(v)) = u . v, unit case included
    assert mat_dot(hat([1.0, 0, 0]), hat([1.0, 0, 0])) == pytest.approx(1.0)
    u = rng.standard_normal((128, 3))
    v = rng.standard_normal((128, 3))
    np.testing.assert_allclose(
        mat_dot(hat(u), hat(v)), np.einsum("ni,ni->n", u, v), atol=1e-13
    )


# --- mat_dot ---------------------------------------------------------------


def test_mat_dot_identity():
    assert mat_dot(np.eye(3), np.eye(3)) == pytest.approx(1.5)


def test_mat_dot_rotation_self(rng):
    from sohb.micro import sample_uniform_rot

    r = sample_uniform_rot(rng, size=16)
    np.testing.assert_allclose(mat_dot(r, r), 1.5, atol=1e-13)


# --- project_tangent -------------------------------------------------------


def test_project_tangent_symmetric_at_identity(rng):
    m = rng.standard_normal((3, 3))
    sym = 0.5 * (m + m.T)
    np.testing.assert_allclose(project_tangent(np.eye(3), sym), 0.0, atol=1e-15)


def test_project_tangent_antisymmetric_at_identity(rng):
    m = rng.standard_normal((3, 3))
    anti = 0.5 * (m - m.T)
    np.testing.assert_allclose(project_tangent(np.eye(3), anti), anti, atol=1e-15)


def test_project_tangent_idempotent_and_orthogonal(rng):
    from sohb.micro import sample_uniform_rot

    a = sample_uniform_rot(rng, size=32)
    m = rng.standard_normal((32, 3, 3))
    p = project_tangent(a, m)
    np.testing.assert_allclose(project_tangent(a, p), p, atol=1e-13)
    # complement is mat_dot-orthogonal to the projection
    np.testing.assert_allclose(mat_dot(m - p, p), 0.0, atol=1e-13)


# --- polar_rotation -------------------------------------------------------------


def test_polar_scaled_identity():
    np.testing.assert_allclose(polar_rotation(2.0 * np.eye(3)), np.eye(3), atol=1e-14)


def test_polar_scaling_invariance(rng):
    from sohb.micro import sample_uniform_rot

    r = sample_uniform_rot(rng, size=8)
    for c in (0.3, 4.0):
        np.testing.assert_allclose(polar_rotation(c * r), r, atol=1e-12)


def test_polar_negative_determinant_raises():
    with pytest.raises(DegenerateAverage):
        polar_rotation(np.diag([1.0, 1.0, -1.0]))


def test_polar_floor_is_scale_free(rng):
    """A small healthy average is accepted; degenerate ones fail at any scale."""
    from sohb.micro import sample_vonmises_rot

    healthy = np.mean(sample_vonmises_rot(np.eye(3), 0.5, rng, size=20), axis=0)
    rank_one = np.diag([2.0, 0.0, 0.0])
    reflection = np.diag([1.0, 1.0, -1.0])
    for c in (1.0, 1e-6):
        np.testing.assert_allclose(polar_rotation(c * healthy), polar_rotation(healthy), atol=1e-12)
        for bad in (rank_one, reflection):
            with pytest.raises(DegenerateAverage):
                polar_rotation(c * bad)
        _, ok = polar_rotation_or_mask(c * np.stack([healthy, rank_one, reflection]))
        assert ok.tolist() == [True, False, False]
    assert not polar_rotation_or_mask(np.zeros((3, 3)))[1]


def test_polar_floor_has_no_overflow_at_extreme_scales(rng):
    """det(m) and (|m|_F^2 / 3)^(3/2) overflow near 1e103 and underflow near
    1e-103; the determinant test must still accept a healthy average there,
    with the same verdict as at scale 1 and without a RuntimeWarning."""
    import warnings

    from sohb.micro import sample_vonmises_rot

    healthy = np.mean(sample_vonmises_rot(np.eye(3), 0.5, rng, size=20), axis=0)
    batch = np.stack([healthy, np.diag([2.0, 0.0, 0.0]), np.diag([1.0, 1.0, -1.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1e-300, 1e-150, 1e150, 1e300):
            rot, ok = polar_rotation_or_mask(c * batch)
            assert ok.tolist() == [True, False, False]
            np.testing.assert_allclose(rot[0], polar_rotation(healthy), atol=1e-12)


def test_polar_maximizes_mat_dot(rng):
    # the polar factor beats random rotations at mat_dot(., M)
    from sohb.micro import sample_uniform_rot

    m = rng.standard_normal((3, 3))
    m = m @ m.T + 0.5 * np.eye(3)  # SPD, det > 0
    best = polar_rotation(m)
    probes = sample_uniform_rot(rng, size=1000)
    assert np.all(mat_dot(best, m) >= mat_dot(probes, m) - 1e-12)


# --- tangent_step -----------------------------------------------------------------


def _polar_of_projected_step(a, m):
    return polar_rotation(a + project_tangent(a, m))


def test_tangent_step_random_batches(rng):
    from sohb.micro import sample_uniform_rot

    a = sample_uniform_rot(rng, size=200)
    for scale in (1e-8, 1e-3, 0.1, 1.0, 5.0):
        m = scale * rng.standard_normal((200, 3, 3))
        got = tangent_step(a, m)
        np.testing.assert_allclose(got, _polar_of_projected_step(a, m), atol=1e-13)
        assert_rotation(got, tol=1e-13)


def test_tangent_step_constant_matrix_broadcast(rng):
    from sohb.micro import sample_uniform_rot

    a = sample_uniform_rot(rng, size=50)
    m = sample_uniform_rot(rng) * 0.3 + 0.1 * rng.standard_normal((3, 3))
    got = tangent_step(a, m)
    assert got.shape == (50, 3, 3)
    np.testing.assert_allclose(got, _polar_of_projected_step(a, m), atol=1e-13)


def test_tangent_step_large_tangent_part(rng):
    """Exact for |w| up to 10, with any symmetric part of a^T m ignored."""
    from sohb.micro import sample_uniform_rot

    n = 100
    a = sample_uniform_rot(rng, size=n)
    w = unit_vectors(rng, n) * np.linspace(0.0, 10.0, n)[:, None]
    sym = rng.standard_normal((n, 3, 3))
    m = a @ (hat(w) + sym + np.swapaxes(sym, -1, -2))
    got = tangent_step(a, m)
    np.testing.assert_allclose(got, _polar_of_projected_step(a, m), atol=1e-13)
    np.testing.assert_allclose(rotation_angle(np.swapaxes(a, -1, -2) @ got),
                               np.arctan(np.linalg.norm(w, axis=-1)), atol=1e-12)


# --- quaternion lift --------------------------------------------------------


def test_quat_to_rot_identity():
    np.testing.assert_allclose(quat_to_rot([1.0, 0, 0, 0]), np.eye(3), atol=1e-15)


def test_quat_to_rot_i():
    np.testing.assert_allclose(
        quat_to_rot([0.0, 1.0, 0, 0]), np.diag([1.0, -1.0, -1.0]), atol=1e-15
    )


def test_quat_to_rot_is_morphism(rng):
    q = unit_quats(rng, 64)
    r = unit_quats(rng, 64)
    np.testing.assert_allclose(
        quat_to_rot(quat_mul(q, r)),
        quat_to_rot(q) @ quat_to_rot(r),
        atol=1e-13,
    )


def test_round_trip_up_to_sign(rng):
    q = unit_quats(rng, 256)
    back = rot_to_quat(quat_to_rot(q))
    sign = np.sign(np.sum(back * q, axis=-1, keepdims=True))
    np.testing.assert_allclose(sign * back, q, atol=1e-12)


def test_quat_e1_equals_first_column(rng):
    q = unit_quats(rng, 128)
    np.testing.assert_allclose(quat_e1(q), quat_to_rot(q)[..., :, 0], atol=1e-14)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_quat_to_rot_always_rotation(seed):
    q = unit_quats(make_rng(seed, 0), 8)
    assert_rotation(quat_to_rot(q), tol=1e-12)


# --- qtensor ----------------------------------------------------------------


def test_qtensor_at_one():
    expected = np.diag([0.75, -0.25, -0.25, -0.25])
    np.testing.assert_allclose(qtensor([1.0, 0, 0, 0]), expected, atol=1e-15)


def test_qtensor_trace_free(rng):
    q = unit_quats(rng, 128)
    np.testing.assert_allclose(np.trace(qtensor(q), axis1=-2, axis2=-1), 0, atol=1e-14)


def test_qtensor_pairing(rng):
    """Frobenius pairing of the nematic tensors reduces to (q.p)^2 - 1/4."""
    q = unit_quats(rng, 512)
    p = unit_quats(rng, 512)
    lhs = np.einsum("nij,nij->n", qtensor(q), qtensor(p))
    rhs = np.einsum("ni,ni->n", q, p) ** 2 - 0.25
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_pairing_matches_half_mat_dot(rng):
    # ... and the same number is half the rotation pairing through the lift
    q = unit_quats(rng, 512)
    p = unit_quats(rng, 512)
    lhs = 0.5 * mat_dot(quat_to_rot(q), quat_to_rot(p))
    rhs = np.einsum("ni,ni->n", q, p) ** 2 - 0.25
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


# --- max_eigvec -------------------------------------------------------------


def test_max_eigvec_recovers_generator(rng):
    q = unit_quats(rng, 64)
    got = max_eigvec(qtensor(q))
    sign = np.sign(np.sum(got * q, axis=-1, keepdims=True))
    np.testing.assert_allclose(sign * got, q, atol=1e-10)


def test_max_eigvec_positive_scaling(rng):
    q = unit_quats(rng, 16)
    got = max_eigvec(3.7 * qtensor(q))
    sign = np.sign(np.sum(got * q, axis=-1, keepdims=True))
    np.testing.assert_allclose(sign * got, q, atol=1e-10)


def test_max_eigvec_zero_raises():
    with pytest.raises(DegenerateAverage):
        max_eigvec(np.zeros((4, 4)))


# --- angle helpers ----------------------------------------------------------


def test_rotation_angle_axis_angle_round_trip(rng):
    axis = unit_vectors(rng, 32)
    angle = rng.uniform(0.05, np.pi - 0.05, size=32)
    r = rotation_from_axis_angle(axis, angle)
    np.testing.assert_allclose(rotation_angle(r), angle, atol=1e-11)


def test_quat_normalize_unit(rng):
    q = rng.standard_normal((64, 4))
    np.testing.assert_allclose(
        np.linalg.norm(quat_normalize(q), axis=-1), 1.0, atol=1e-14
    )
