"""Macroscopic fields: derivative operators, residuals, and the integrator."""

import numpy as np
import pytest

from sohb.errors import CflViolation, DomainError, SignDiscontinuity
from sohb.gci import GciConstants
from sohb.macro import (
    MATRIX,
    QUATERNION,
    MacroField,
    grad_scalar,
    orientation_gradient,
    rel_gradient,
    residuals,
    run_macro,
    sine_rotation_field,
    step_macro,
    twisted_initial_data,
)
from sohb.rotations import (
    axial,
    hat,
    polar_rotation,
    project_tangent,
    quat_conj,
    quat_e1,
    quat_mul,
    quat_normalize,
    quat_to_rot,
    rotation_from_axis_angle,
)
from sohb.sampling import sample_uniform_rot

# Any plausible coefficient tuple works for operator tests; the integrator
# only consumes the numbers. These are the D = 1 jump-model values.
CONSTS = GciConstants(
    c1=0.204217094342,
    c2=0.36902492,
    c2_prime=0.15869989,
    c3=0.5,
    c4=0.21032503,
    d=1.0,
    model="jump",
)

AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def dx_error(n):
    f_mat, _, exact = sine_rotation_field(n, 1.0, AXIS, 0.4)
    dx = orientation_gradient(f_mat.orient, f_mat.spacing)
    got = dx[:, 0, 0, :, 0]  # first column: the only nonzero one
    err = np.max(np.abs(got - exact))
    err_other = np.max(np.abs(dx[:, 0, 0, :, 1:]))
    return err, err_other


# --- derivative operators ------------------------------------------------------


def test_dx_zero_for_constant_field():
    f_mat, f_quat = twisted_initial_data(16, 1.0, rho_amp=0.0, alpha=0.0, beta=0.0)
    dx = orientation_gradient(f_mat.orient, f_mat.spacing)
    np.testing.assert_allclose(dx, 0.0, atol=1e-14)
    rel = rel_gradient(f_quat.orient, f_quat.spacing)
    np.testing.assert_allclose(rel, 0.0, atol=1e-14)


def test_dx_closed_form_second_order():
    err64, other64 = dx_error(64)
    err128, other128 = dx_error(128)
    assert max(other64, other128) < 1e-13  # columns 2,3 vanish identically
    assert err64 / err128 > 3.5
    assert err128 < 5e-3


def test_rel_gradient_screw_field():
    """q(x) = cos(a x/2) + sin(a x/2) k has d_rel = (a/2) k exactly in law.

    The discrete operator reproduces it with the effective wavenumber
    sin(a h / 2) * 2 / h of the central difference — checked sharply — and
    the real component vanishes structurally.
    """
    n, length = 48, 1.0
    a = 4.0 * np.pi / length  # full quaternion period: sign-continuous lift
    x = np.arange(n) * (length / n)
    q = np.stack(
        [np.cos(a * x / 2), np.zeros(n), np.zeros(n), np.sin(a * x / 2)], axis=-1
    ).reshape(n, 1, 1, 4)
    field = MacroField(0.0, np.full(3, length), np.ones((n, 1, 1)), q, QUATERNION)
    rel = rel_gradient(field.orient, field.spacing)
    h = length / n
    a_eff = np.sin(a * h / 2.0) * 2.0 / h
    np.testing.assert_allclose(rel[..., 0, 0], 0.0, atol=1e-14)  # real part
    np.testing.assert_allclose(rel[..., 0, 1:3], 0.0, atol=1e-14)
    np.testing.assert_allclose(rel[..., 0, 3], a_eff / 2.0, atol=1e-12)
    assert abs(a_eff / 2.0 - a / 2.0) < 0.02 * a  # second-order close
    np.testing.assert_allclose(rel[..., 1:, :], 0.0, atol=1e-14)  # other axes


def test_rel_gradient_real_part_second_order():
    def real_part(n):
        _, f_quat = twisted_initial_data(n, 1.0)
        rel = rel_gradient(f_quat.orient, f_quat.spacing)
        return np.max(np.abs(rel[..., 0]))

    r64, r128 = real_part(64), real_part(128)
    assert r64 / r128 > 3.5
    assert r128 < 1e-3


def test_rel_gradient_rejects_sign_flip():
    n = 16
    q = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n, 1, 1, 1))
    q[n // 2] *= -1.0
    field = MacroField(0.0, np.ones(3), np.ones((n, 1, 1)), q, QUATERNION)
    with pytest.raises(SignDiscontinuity):
        rel_gradient(field.orient, field.spacing)


def test_dx_matches_doubled_rel_gradient():
    """Dx e_j and 2 Im(d_{j,rel} q) are discretizations of the same object."""

    def gap(n):
        f_mat, f_quat = twisted_initial_data(n, 1.0)
        dx = orientation_gradient(f_mat.orient, f_mat.spacing)
        rel = rel_gradient(f_quat.orient, f_quat.spacing)
        two_im = 2.0 * np.swapaxes(rel[..., 1:], -1, -2)  # (..., comp, dir)
        return np.max(np.abs(dx - two_im))

    g64, g128 = gap(64), gap(128)
    assert g64 / g128 > 3.5
    assert g128 < 2e-3


def twisted_quaternion_field_3d(shape, amp=0.3):
    """Quaternion field qz(a) qx(b) qy(c) with each angle a product of sines in
    two coordinates, as in the benchmark's 3-D criterion-10 field, on (2 pi)^3
    with rho = 1 + 0.2 sin(x) cos(y) sin(z)."""
    length = 2.0 * np.pi
    x, y, z = np.meshgrid(*[np.arange(n) * (length / n) for n in shape], indexing="ij")
    q = None
    for axis, angle in ((3, amp * np.sin(x + 0.4) * np.cos(y + 1.1)),
                        (1, amp * np.cos(y + 2.0) * np.sin(z + 0.3)),
                        (2, amp * np.sin(z + 1.7) * np.cos(x + 0.9))):
        f = np.zeros(shape + (4,))
        f[..., 0] = np.cos(0.5 * angle)
        f[..., axis] = np.sin(0.5 * angle)
        q = f if q is None else quat_mul(q, f)
    rho = 1.0 + 0.2 * np.sin(x) * np.cos(y) * np.sin(z)
    return MacroField(0.0, np.full(3, length), rho, q, QUATERNION)


def twisted_rotations_3d(shape, amp=0.3):
    field = twisted_quaternion_field_3d(shape, amp)
    return quat_to_rot(field.orient), field.spacing


def central(arr, axis, h):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def reference_rel_gradient(q, sp):
    """(d_a q) q* as two quaternion products per direction, (..., 3, 4)."""
    return np.stack([quat_mul(central(q, a, sp[a]), quat_conj(q)) for a in range(3)],
                    axis=-2)


def reference_rho_step(rho, u, consts, dt, sp, viscosity):
    """The conservative density update with np.roll face fluxes."""
    f = consts.c1 * rho[..., None] * u
    div = np.zeros_like(rho)
    for a in range(3):
        flux = (0.5 * (f[..., a] + np.roll(f[..., a], -1, axis=a))
                - viscosity * (np.roll(rho, -1, axis=a) - rho))
        div += (flux - np.roll(flux, 1, axis=a)) / sp[a]
    return rho - dt * div


def reference_smoothed(arr, dt, sp, viscosity):
    """arr plus viscosity * dt / h times the np.roll Laplacian along each axis."""
    out = arr.copy()
    for a in range(3):
        w = viscosity * dt / sp[a]
        out += w * (np.roll(arr, -1, axis=a) + np.roll(arr, 1, axis=a) - 2.0 * arr)
    return out


def reference_quaternion_step(field, consts, dt, viscosity=0.5):
    """One quaternion step in the (..., 4) layout: the orientation law with
    einsum and np.cross, the exponential update with quat_mul, the smoothing
    with np.roll and the projection with quat_normalize."""
    sp, rho, q = field.spacing, field.rho, field.orient
    u = quat_e1(q)
    grho = np.stack([central(rho, a, sp[a]) for a in range(3)], axis=-1)
    im = reference_rel_gradient(q, sp)[..., 1:]
    v = (consts.c2_prime * rho[..., None] * np.einsum("...i,...ij->...j", u, im)
         + consts.c3 * np.cross(u, grho)
         + consts.c4 * rho[..., None] * (np.einsum("...ij,...j->...i", im, u)
                                         + np.einsum("...ii->...", im)[..., None] * u))
    omega = -v / rho[..., None]
    angle = np.linalg.norm(omega, axis=-1)
    axis = omega / np.where(angle > 0.0, angle, 1.0)[..., None]
    inc = np.concatenate([np.cos(angle * dt)[..., None],
                          np.sin(angle * dt)[..., None] * axis], axis=-1)
    q = quat_mul(inc, q)
    rho1 = reference_rho_step(rho, u, consts, dt, sp, viscosity)
    return MacroField(field.t + dt, field.box, rho1,
                      quat_normalize(reference_smoothed(q, dt, sp, viscosity)), QUATERNION)


def reference_matrix_step(field, consts, dt, viscosity=0.5):
    """One matrix step: Dx from axial((Lambda_+ - Lambda_-) Lambda^T) / (2h),
    the orientation law with einsum and np.cross, the exponential update by
    Rodrigues with an explicit zero-angle mask, and the smoothing increment L
    applied as polar_rotation(Lambda_1 + project_tangent(Lambda_1, L)), the
    SVD route."""
    sp, rho, lam = field.spacing, field.rho, field.orient
    u = lam[..., :, 0]
    lam_t = np.swapaxes(lam, -1, -2)
    dx = np.stack([axial((np.roll(lam, -1, axis=a) - np.roll(lam, 1, axis=a)) @ lam_t)
                   / (2.0 * sp[a]) for a in range(3)], axis=-1)
    grho = np.stack([central(rho, a, sp[a]) for a in range(3)], axis=-1)
    r_x = axial(dx - np.swapaxes(dx, -1, -2))
    v = (consts.c2 * rho[..., None] * np.einsum("...ij,...j->...i", dx, u)
         + np.cross(u, 2.0 * consts.c3 * grho + consts.c4 * rho[..., None] * r_x)
         + consts.c4 * (rho * np.einsum("...ii->...", dx))[..., None] * u)
    omega = -v / rho[..., None]
    angle = np.linalg.norm(omega, axis=-1)
    moving = angle > 0.0
    axis = np.where(moving[..., None], omega / np.where(moving, angle, 1.0)[..., None],
                    [1.0, 0.0, 0.0])
    lam1 = rotation_from_axis_angle(axis, angle * dt) @ lam
    inc = reference_smoothed(lam1, dt, sp, viscosity) - lam1
    lam2 = polar_rotation(lam1 + project_tangent(lam1, inc))
    rho1 = reference_rho_step(rho, u, consts, dt, sp, viscosity)
    return MacroField(field.t + dt, field.box, rho1, lam2, MATRIX)


@pytest.mark.parametrize("shape", [(10, 8, 6), (12, 7, 1), (9, 1, 1)])
def test_rel_gradient_matches_two_product_reference(shape):
    """Both parts of d_{a,rel} q against quat_mul(central difference, q*), and
    exact zeros along a length-1 axis."""
    field = twisted_quaternion_field_3d(shape)
    rel = rel_gradient(field.orient, field.spacing)
    assert rel.shape == shape + (3, 4)
    ref = reference_rel_gradient(field.orient, field.spacing)
    for a in range(3):
        if shape[a] == 1:
            np.testing.assert_array_equal(rel[..., a, :], 0.0)
        else:
            assert np.max(np.abs(ref[..., a, 1:])) > 0.05
            np.testing.assert_allclose(rel[..., a, :], ref[..., a, :], rtol=0, atol=1e-15)


def test_quaternion_steps_match_reference_step():
    """Eight steps on a field varying along all three axes stay within
    round-off of the reference step, and orient keeps its (..., 4) shape."""
    shape = (12, 10, 8)
    field = ref = twisted_quaternion_field_3d(shape)
    for _ in range(8):
        field = step_macro(field, CONSTS, 0.01)
        ref = reference_quaternion_step(ref, CONSTS, 0.01)
        assert field.orient.shape == shape + (4,)
        np.testing.assert_allclose(field.orient, ref.orient, rtol=0, atol=1e-14)
        np.testing.assert_allclose(field.rho, ref.rho, rtol=0, atol=1e-14)
    assert np.max(np.abs(field.orient - twisted_quaternion_field_3d(shape).orient)) > 1e-3


def test_matrix_steps_match_reference_step():
    """Eight matrix steps on a field varying along all three axes stay within
    round-off of the SVD-route reference step."""
    shape = (12, 10, 8)
    qfield = twisted_quaternion_field_3d(shape)
    start = MacroField(0.0, qfield.box, qfield.rho, quat_to_rot(qfield.orient), MATRIX)
    field = ref = start
    for _ in range(8):
        field = step_macro(field, CONSTS, 0.01)
        ref = reference_matrix_step(ref, CONSTS, 0.01)
        np.testing.assert_allclose(field.orient, ref.orient, rtol=0, atol=1e-13)
        np.testing.assert_allclose(field.rho, ref.rho, rtol=0, atol=1e-14)
    assert np.max(np.abs(field.orient - start.orient)) > 1e-3


@pytest.mark.parametrize("nu_dt_over_h", [0.25, 0.4995])
def test_matrix_step_keeps_rough_field_on_so3(nu_dt_over_h):
    """A field of Haar-random rotations, where the smoothed matrices are far
    from orthogonal, still steps to proper rotations at any dt inside the
    diffusive CFL bound viscosity * dt <= h / 2."""
    rng = np.random.default_rng(3)
    lam = sample_uniform_rot(rng, 16**3).reshape(16, 16, 16, 3, 3)
    field = MacroField(0.0, np.full(3, 16.0), np.ones((16, 16, 16)), lam, MATRIX)
    out = step_macro(field, CONSTS, dt=nu_dt_over_h / 0.5, viscosity=0.5)
    assert np.all(np.linalg.det(out.orient) > 0.0)
    gram = np.swapaxes(out.orient, -1, -2) @ out.orient
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("shape", [(10, 8, 6), (12, 7, 1), (9, 1, 1)])
def test_orientation_gradient_matches_two_product_reference(shape):
    """Dx equals axial((Lambda_+ Lambda^T - Lambda_- Lambda^T) / (2h)) column by
    column, and a length-1 axis gives a column of exact zeros."""
    lam, sp = twisted_rotations_3d(shape)
    dx = orientation_gradient(lam, sp)
    assert dx.shape == shape + (3, 3)
    for a in range(3):
        plus = np.roll(lam, -1, axis=a) @ np.swapaxes(lam, -1, -2)
        minus = np.roll(lam, 1, axis=a) @ np.swapaxes(lam, -1, -2)
        ref = axial(plus - minus) / (2.0 * sp[a])
        if shape[a] == 1:
            np.testing.assert_array_equal(dx[..., :, a], 0.0)
        else:
            assert np.max(np.abs(ref)) > 0.05
            np.testing.assert_allclose(dx[..., :, a], ref, rtol=0, atol=1e-15)


def test_grad_scalar_matches_closed_form():
    n, length = 64, 2.0
    k = 2.0 * np.pi / length
    x = np.arange(n) * (length / n)
    f = np.sin(k * x).reshape(n, 1, 1)
    g = grad_scalar(f, np.full(3, length / n))
    k_eff = np.sin(k * length / n) / (length / n)
    np.testing.assert_allclose(g[..., 0], k_eff * np.cos(k * x).reshape(n, 1, 1),
                               atol=1e-13)
    np.testing.assert_allclose(g[..., 1:], 0.0, atol=1e-15)


# --- residual evaluators ---------------------------------------------------------


def test_residuals_vanish_for_uniform_state():
    f_mat, f_quat = twisted_initial_data(16, 1.0, rho_amp=0.0, alpha=0.0, beta=0.0)
    res_rho, res_lam = residuals(
        f_mat, np.zeros(f_mat.shape), np.zeros(f_mat.orient.shape), CONSTS
    )
    np.testing.assert_allclose(res_rho, 0.0, atol=1e-14)
    np.testing.assert_allclose(res_lam, 0.0, atol=1e-14)
    res_rho, res_q = residuals(
        f_quat, np.zeros(f_quat.shape), np.zeros(f_quat.orient.shape), CONSTS
    )
    np.testing.assert_allclose(res_rho, 0.0, atol=1e-14)
    np.testing.assert_allclose(res_q, 0.0, atol=1e-14)


def test_residual_tangency_and_orthogonality():
    f_mat, f_quat = twisted_initial_data(32, 1.0)
    _, res_lam = residuals(
        f_mat, np.ones(f_mat.shape), np.zeros(f_mat.orient.shape), CONSTS
    )
    # res Lambda^T must be antisymmetric: tangent residual
    m = np.einsum("...ij,...kj->...ik", res_lam, f_mat.orient)
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    assert np.max(np.abs(sym)) < 1e-14
    _, res_q = residuals(
        f_quat, np.ones(f_quat.shape), np.zeros(f_quat.orient.shape), CONSTS
    )
    dots = np.sum(res_q * f_quat.orient, axis=-1)
    assert np.max(np.abs(dots)) < 1e-14


def test_residual_matrix_against_direct_transport_form():
    """Second implementation: transport written as u_a d_a Lambda directly.

    The module assembles c2 rho (Dx u)_x Lambda; the direct form uses raw
    central differences of Lambda. Both discretize the same continuum term,
    so their gap must shrink at second order.
    """

    def gap(n):
        f_mat, _ = twisted_initial_data(n, 1.0)
        sp = f_mat.spacing
        rho, lam = f_mat.rho, f_mat.orient
        u = lam[..., :, 0]
        res_rho, res_lam = residuals(
            f_mat, np.zeros(f_mat.shape), np.zeros(lam.shape), CONSTS
        )
        # independent route
        dlam = np.stack(
            [
                (np.roll(lam, -1, axis=a) - np.roll(lam, 1, axis=a)) / (2 * sp[a])
                for a in range(3)
            ],
            axis=-1,
        )  # (..., 3, 3, direction)
        transport = np.einsum("...a,...ija->...ij", u, dlam)
        dx = orientation_gradient(lam, sp)
        delta = np.einsum("...ii->...", dx)
        r_x = axial(dx - np.swapaxes(dx, -1, -2))
        grho = np.stack(
            [
                (np.roll(rho, -1, axis=a) - np.roll(rho, 1, axis=a)) / (2 * sp[a])
                for a in range(3)
            ],
            axis=-1,
        )
        coef = np.cross(u, 2.0 * CONSTS.c3 * grho + CONSTS.c4 * rho[..., None] * r_x)
        coef += CONSTS.c4 * (rho * delta)[..., None] * u
        hat_coef = np.zeros(lam.shape)
        hat_coef[..., 2, 1] = coef[..., 0]
        hat_coef[..., 1, 2] = -coef[..., 0]
        hat_coef[..., 0, 2] = coef[..., 1]
        hat_coef[..., 2, 0] = -coef[..., 1]
        hat_coef[..., 1, 0] = coef[..., 2]
        hat_coef[..., 0, 1] = -coef[..., 2]
        direct = CONSTS.c2 * rho[..., None, None] * transport + hat_coef @ lam
        # the mass residual routes are identical discretizations
        direct_rho = sum(
            (
                np.roll(CONSTS.c1 * rho * u[..., a], -1, axis=a)
                - np.roll(CONSTS.c1 * rho * u[..., a], 1, axis=a)
            )
            / (2 * sp[a])
            for a in range(3)
        )
        np.testing.assert_allclose(res_rho, direct_rho, atol=1e-13)
        return np.max(np.abs(res_lam - direct))

    g32, g64 = gap(32), gap(64)
    assert g32 / g64 > 3.5
    assert g64 < 5e-3


def test_residual_route_equivalence():
    """Matrix and quaternion residuals encode the same angular defect.

    With zero time derivatives, res_lam = [v_m]_x Lambda and res_q = (0, v_q)
    qbar; consistency of the two systems under the lift requires v_m = 2 v_q
    up to discretization error, which must vanish at second order.
    """

    def gap(n):
        f_mat, f_quat = twisted_initial_data(n, 1.0)
        _, res_lam = residuals(
            f_mat, np.zeros(f_mat.shape), np.zeros(f_mat.orient.shape), CONSTS
        )
        _, res_q = residuals(
            f_quat, np.zeros(f_quat.shape), np.zeros(f_quat.orient.shape), CONSTS
        )
        v_m = axial(np.einsum("...ij,...kj->...ik", res_lam, f_mat.orient))
        v_q = quat_mul(res_q, quat_conj(f_quat.orient))[..., 1:]
        # the mass residuals agree to round-off (identical u and stencils)
        return np.max(np.abs(v_m - 2.0 * v_q))

    g32, g64 = gap(32), gap(64)
    assert g32 / g64 > 3.5
    assert g64 < 2e-3


def test_mass_residual_identical_across_kinds():
    f_mat, f_quat = twisted_initial_data(48, 1.0)
    r1, _ = residuals(
        f_mat, np.zeros(f_mat.shape), np.zeros(f_mat.orient.shape), CONSTS
    )
    r2, _ = residuals(
        f_quat, np.zeros(f_quat.shape), np.zeros(f_quat.orient.shape), CONSTS
    )
    np.testing.assert_allclose(r1, r2, atol=1e-13)


def test_c2_and_c2_prime_placement():
    """The transport coefficient differs between the two forms: c2 vs c2'.

    Doubling only c2 must change the matrix residual and leave the
    quaternion residual untouched, and vice versa.
    """
    from dataclasses import replace

    f_mat, f_quat = twisted_initial_data(24, 1.0)
    zero_m = np.zeros(f_mat.orient.shape)
    zero_q = np.zeros(f_quat.orient.shape)
    zeros = np.zeros(f_mat.shape)
    bumped_c2 = replace(CONSTS, c2=2 * CONSTS.c2)
    bumped_c2p = replace(CONSTS, c2_prime=2 * CONSTS.c2_prime)

    _, base_m = residuals(f_mat, zeros, zero_m, CONSTS)
    _, base_q = residuals(f_quat, zeros, zero_q, CONSTS)
    _, m_c2 = residuals(f_mat, zeros, zero_m, bumped_c2)
    _, q_c2 = residuals(f_quat, zeros, zero_q, bumped_c2)
    _, m_c2p = residuals(f_mat, zeros, zero_m, bumped_c2p)
    _, q_c2p = residuals(f_quat, zeros, zero_q, bumped_c2p)

    assert np.max(np.abs(m_c2 - base_m)) > 1e-3
    np.testing.assert_array_equal(q_c2, base_q)
    np.testing.assert_array_equal(m_c2p, base_m)
    assert np.max(np.abs(q_c2p - base_q)) > 1e-4


# --- integrator -------------------------------------------------------------------


def test_integrator_solves_the_residual_law():
    """The integrator's time derivative [omega] orient, omega from
    ``_angular_velocity``, zeroes the orientation residual in both forms, so
    the law the integrator advances is the one the residuals check."""
    from sohb.macro import _angular_velocity

    f_mat, f_quat = twisted_initial_data(32, 1.0)
    omega = _angular_velocity(f_mat, CONSTS)
    _, res_lam = residuals(f_mat, 0.0, hat(omega) @ f_mat.orient, CONSTS)
    np.testing.assert_allclose(res_lam, 0.0, rtol=0.0, atol=1e-13)
    omega = _angular_velocity(f_quat, CONSTS)
    pure = np.concatenate([np.zeros(omega.shape[:-1] + (1,)), omega], axis=-1)
    _, res_q = residuals(f_quat, 0.0, quat_mul(pure, f_quat.orient), CONSTS)
    np.testing.assert_allclose(res_q, 0.0, rtol=0.0, atol=1e-13)
    assert np.max(np.abs(omega)) > 0.1  # the law is not trivially zero here


def test_uniform_state_is_fixed_point():
    f_mat, f_quat = twisted_initial_data(16, 1.0, rho_amp=0.0, alpha=0.0, beta=0.0)
    for field in (f_mat, f_quat):
        out = step_macro(field, CONSTS, dt=1e-3)
        assert out.t == pytest.approx(1e-3)
        np.testing.assert_allclose(out.rho, field.rho, atol=1e-15)
        np.testing.assert_allclose(out.orient, field.orient, atol=1e-13)


def test_mass_conserved_over_long_run():
    f_mat, _ = twisted_initial_data(64, 1.0)
    mass0 = f_mat.total_mass()
    field = f_mat
    for _ in range(1000):
        field = step_macro(field, CONSTS, dt=5e-3)
    assert abs(field.total_mass() - mass0) / mass0 < 1e-12
    assert field.t == pytest.approx(5.0)
    assert np.all(field.rho > 0)


def test_quaternion_route_tracks_matrix_route():
    f_mat, f_quat = twisted_initial_data(32, 1.0)
    out_m = run_macro(f_mat, CONSTS, t_end=0.25, dt=5e-3)
    out_q = run_macro(f_quat, CONSTS, t_end=0.25, dt=5e-3)
    # the two routes are distinct discretizations: O(h^2) apart, not equal
    np.testing.assert_allclose(out_q.rho, out_m.rho, atol=1e-4)
    gap = np.max(np.abs(quat_to_rot(out_q.orient) - out_m.orient))
    assert gap < 0.05


def test_orientations_stay_on_manifold():
    f_mat, f_quat = twisted_initial_data(24, 1.0)
    out = run_macro(f_mat, CONSTS, t_end=0.1, dt=4e-3)
    prod = np.einsum("...ij,...kj->...ik", out.orient, out.orient)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape),
                               atol=1e-12)
    out_q = run_macro(f_quat, CONSTS, t_end=0.1, dt=4e-3)
    np.testing.assert_allclose(np.linalg.norm(out_q.orient, axis=-1), 1.0,
                               atol=1e-12)


def test_run_macro_frame_callback_and_partial_step():
    f_mat, _ = twisted_initial_data(16, 1.0)
    frames = []
    out = run_macro(f_mat, CONSTS, t_end=0.011, dt=4e-3,
                    on_frame=lambda f: frames.append(f.t))
    assert out.t == pytest.approx(0.011)
    assert frames == pytest.approx([0.0, 0.004, 0.008, 0.011])


def test_cfl_guards():
    f_mat, _ = twisted_initial_data(16, 1.0)
    h = float(np.min(f_mat.spacing))
    with pytest.raises(CflViolation):
        step_macro(f_mat, CONSTS, dt=2.0 * h / CONSTS.c2)
    with pytest.raises(CflViolation):
        step_macro(f_mat, CONSTS, dt=1.2 * h, viscosity=0.5)


def test_density_floor_guard():
    f_mat, _ = twisted_initial_data(16, 1.0)
    f_mat.rho[3] = 0.0
    with pytest.raises(DomainError):
        step_macro(f_mat, CONSTS, dt=1e-3)


@pytest.mark.parametrize("kind", [MATRIX, QUATERNION])
@pytest.mark.parametrize("dt", [np.nan, 0.0, -1e-3, np.inf])
def test_step_macro_rejects_bad_dt(kind, dt):
    """A NaN step used to return an all-NaN quaternion field, a zero step
    to let run_macro loop forever and a negative one to step backwards."""
    fields = dict(zip((MATRIX, QUATERNION), twisted_initial_data(16, 1.0)))
    with pytest.raises(DomainError, match="dt"):
        step_macro(fields[kind], CONSTS, dt=dt)


@pytest.mark.parametrize("kind", [MATRIX, QUATERNION])
@pytest.mark.parametrize("viscosity", [-0.5, np.nan, np.inf])
def test_step_macro_rejects_bad_viscosity(kind, viscosity):
    """-0.5 used to run anti-diffusively without a word and NaN to fail
    as lost positivity."""
    fields = dict(zip((MATRIX, QUATERNION), twisted_initial_data(16, 1.0)))
    with pytest.raises(DomainError, match="^viscosity"):
        step_macro(fields[kind], CONSTS, dt=1e-3, viscosity=viscosity)


@pytest.mark.parametrize("kind", [MATRIX, QUATERNION])
def test_density_guard_catches_nan(kind):
    field = dict(zip((MATRIX, QUATERNION), twisted_initial_data(16, 1.0)))[kind]
    field.rho[5] = np.nan
    with pytest.raises(DomainError, match="density"):
        step_macro(field, CONSTS, dt=1e-3)


@pytest.mark.parametrize("kind", [MATRIX, QUATERNION])
def test_step_macro_names_non_finite_orient(kind):
    """One NaN in orient used to fail as lost density positivity."""
    field = dict(zip((MATRIX, QUATERNION), twisted_initial_data(16, 1.0)))[kind]
    field.orient[(5, 0, 0) + (0,) * (field.orient.ndim - 3)] = np.nan
    with pytest.raises(DomainError, match="^orient"):
        step_macro(field, CONSTS, dt=1e-3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_rel_gradient_rejects_non_finite(value):
    """A NaN used to pass the sign test (NaN <= 0 is False) and come back as
    NaN derivatives."""
    _, f_quat = twisted_initial_data(16, 1.0)
    f_quat.orient[5, 0, 0, 2] = value
    with pytest.raises(DomainError, match="NaN or infinite"):
        rel_gradient(f_quat.orient, f_quat.spacing)


# --- synthetic data builders --------------------------------------------------


def test_twisted_data_is_consistent_pair():
    f_mat, f_quat = twisted_initial_data(40, 2.0)
    np.testing.assert_allclose(quat_to_rot(f_quat.orient), f_mat.orient, atol=1e-12)
    assert f_mat.rho is not f_quat.rho
    for a in range(3):
        dots = np.sum(f_quat.orient * np.roll(f_quat.orient, -1, axis=a), axis=-1)
        assert np.min(dots) > 0.9  # sign-continuous lift


def test_sine_field_pair_consistent():
    f_mat, f_quat, _ = sine_rotation_field(32, 1.0, AXIS, 0.7)
    np.testing.assert_allclose(quat_to_rot(f_quat.orient), f_mat.orient, atol=1e-12)
