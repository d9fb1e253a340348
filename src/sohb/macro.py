"""Macroscopic fields: PDE residual evaluators and an explicit integrator.

The hydrodynamic limit couples a density rho with a mean orientation field,
kept either as rotation matrices Lambda(x) or as unit quaternions qbar(x).
Both satisfy a transport equation for rho,

    dt_rho + div(c1 rho u) = 0,     u = Lambda e1  (= Im(qbar e1 qbar*)),

and an orientation equation. In matrix form:

    rho (dt_Lambda + c2 (u . grad) Lambda)
      + [ u x (2 c3 grad_rho + c4 rho r_x) + c4 rho delta_x u ]_x Lambda = 0,

where Dx(Lambda) is the 3x3 matrix with columns axial((d_j Lambda) Lambda^T)
so that (w . grad)Lambda = [Dx w]_x Lambda, delta_x = trace(Dx), and
[r_x]_x = Dx - Dx^T. In quaternion form (quaternion products throughout,
vectors embedded as purely imaginary quaternions):

    rho (dt_q + c2' (u . grad) q)
      + c3 [u x grad_rho] q
      + c4 rho [ (grad_rel q) u + (div_rel q) u ] q = 0,

with the relative derivative d_{j,rel} q = (d_j q) q* (purely imaginary for
a unit field), ((grad_rel q) u)_i = Im(d_{i,rel} q) . u and
div_rel q = sum_i (Im(d_{i,rel} q))_i. The two forms are equivalent under
Lambda = Phi(qbar) thanks to c2 - c2' = c4 and Dx e_j = 2 Im(d_{j,rel} q).

Each orientation law is written once, as the v of rho dt(orient) + [v] orient
= 0 (``_orientation_vector``); ``residuals`` and the integrator's angular
velocity omega = -v / rho both use it. ``residuals`` serves both forms: only
the product [v] orient, hat(v) Lambda or (0, v) qbar, follows the field's
kind.

Discretization: periodic grids, central differences for all derivatives.
Column a of Dx is axial of the central difference of Lambda times Lambda^T,
which equals (w_a(x) + w_a(x - h e_a)) / (2h) with the relative rotation
w_a = axial(Lambda(x + h e_a) Lambda(x)^T) (``orientation_gradient``).
Orientation residuals are assembled as [v]_x Lambda (resp. [v] q) so
tangency (resp. orthogonality) holds to round-off.

The quaternion form runs component-major: every component of qbar, of the
relative derivatives and of the vectors built from them is one contiguous
(nx, ny, nz) row, and each quaternion product, dot and cross product is a
short sum over those rows. The public layouts are views of these buffers
(``np.moveaxis``, no copy): ``rel_gradient`` returns (nx, ny, nz, 3, 4) over
a (3, 4, nx, ny, nz) buffer, the integrator's orient is (nx, ny, nz, 4) over
a (4, nx, ny, nz) buffer, and the next step reads the rows back without a
copy.

The integrator updates rho with a conservative face flux (mass is conserved
to round-off) plus Rusanov-style dissipation, and rotates orientations by
the exact exponential of the local angular velocity, followed by a matching
grid smoothing. In matrix form the smoothing increment is projected onto the
tangent space and applied by ``tangent_step``, a product of rotations, so
the step cannot return a reflection; in quaternion form it is renormalized.
Expected accuracy is O(dt) in time and O(h^2) in space with an O(h)
dissipation tail.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import CflViolation, DomainError, SignDiscontinuity
from .rotations import (
    axial,
    hat,
    quat_e1,
    quat_from_axis_angle,
    quat_mul,
    quat_to_rot,
    rot_to_quat,
    rotation_from_axis_angle,
    tangent_step,
)

MATRIX = "matrix"
QUATERNION = "quaternion"

#: Density floor below which the orientation equation is ill-posed.
RHO_FLOOR = 1e-12


@dataclass
class MacroField:
    """State of the macroscopic system on a periodic grid.

    Attributes:
        t: current time.
        box: edge lengths, shape (3,).
        rho: density, shape (nx, ny, nz).
        orient: (nx, ny, nz, 3, 3) rotations or (nx, ny, nz, 4) unit
            quaternions, per ``kind``. A quaternion field must be stored as a
            sign-continuous lift; ``step_macro`` returns it as a view of a
            component-major (4, nx, ny, nz) buffer.
        kind: "matrix" or "quaternion".
    """

    t: float
    box: np.ndarray
    rho: np.ndarray
    orient: np.ndarray
    kind: str

    @property
    def shape(self):
        return self.rho.shape

    @property
    def spacing(self):
        return np.asarray(self.box, dtype=np.float64) / np.asarray(self.shape)

    def headings(self):
        """The local direction u = Lambda e1 at every node, shape (..., 3)."""
        if self.kind == MATRIX:
            return self.orient[..., :, 0]
        return quat_e1(self.orient)

    def total_mass(self):
        return float(np.sum(self.rho) * np.prod(self.spacing))


def _central(arr, axis, h):
    """Second-order periodic central difference along a grid axis."""
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)


def grad_scalar(f, spacing):
    """Gradient of a scalar grid field, shape (..., 3)."""
    return np.stack([_central(f, a, spacing[a]) for a in range(3)], axis=-1)


def orientation_gradient(lam, spacing):
    """The matrix Dx(Lambda) at every node.

    Column a is axial((d_a Lambda) Lambda^T) with the central difference
    d_a Lambda = (Lambda_+ - Lambda_-) / (2h), Lambda_+- = Lambda(x +- h e_a).
    Since (Lambda_+ - Lambda_-) Lambda^T = Lambda_+ Lambda^T
    - (Lambda Lambda_-^T)^T and the axial vector of a transpose is its
    negative, the column is (w_a(x) + w_a(x - h e_a)) / (2h) with
    w_a = axial(Lambda(x + h e_a) Lambda(x)^T), one relative rotation per
    axis. Only the six off-diagonal entries of that relative rotation are
    formed, each a three-term sum over the last axes. Along a length-1 axis
    the relative rotation is the symmetric Lambda Lambda^T and the column is
    exactly 0.

    Args:
        lam: rotation field, shape (nx, ny, nz, 3, 3).
        spacing: grid spacings, shape (3,).

    Returns:
        Dx, shape (nx, ny, nz, 3, 3), with Dx[..., :, a] the column for
        direction a.
    """
    out = np.empty(lam.shape)
    for a in range(3):
        nxt = np.roll(lam, -1, axis=a)

        def rel(i, j):  # entry (i, j) of Lambda(x + h e_a) Lambda(x)^T
            return np.einsum("...k,...k->...", nxt[..., i, :], lam[..., j, :])

        w = 0.5 * np.stack([rel(2, 1) - rel(1, 2), rel(0, 2) - rel(2, 0),
                            rel(1, 0) - rel(0, 1)], axis=-1)
        out[..., :, a] = (w + np.roll(w, 1, axis=a)) / (2.0 * spacing[a])
    return out


def _rows(q):
    """The component rows of a (..., k) field as a (k, ...) view (no copy)."""
    return np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)


def _cross_rows(a, b, out):
    """out = a x b for 3-vector fields given as (3, ...) rows."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


def rel_gradient(q, spacing):
    """Relative derivatives d_{j,rel} q = (d_j q) q* of a quaternion field.

    With the central difference d = (q_+ - q_-) / (2h) along direction j and
    q = (w, v), Re(d q*) = dw w + dv . v and Im(d q*) = w dv - dw v + v x dv,
    each a sum over the component rows of q.

    Args:
        q: unit quaternion field, shape (nx, ny, nz, 4), sign-continuous.
        spacing: grid spacings, shape (3,).

    Returns:
        rel, shape (nx, ny, nz, 3, 4) indexed [direction, component], a view
        of a contiguous (3, 4, nx, ny, nz) buffer. The real component
        rel[..., 0] is O(h^2) and is kept as a diagnostic; use rel[..., 1:]
        for the imaginary 3-vector.

    Raises:
        DomainError: if q has a NaN or infinite entry.
        SignDiscontinuity: if a neighbor product q . q_next is <= 0: the lift
            flips sign there, which would corrupt the finite differences.
    """
    c = np.ascontiguousarray(_rows(q))
    if not np.all(np.isfinite(c)):
        raise DomainError("quaternion field has NaN or infinite entries")
    w, v = c[0], c[1:]
    out = np.empty((3,) + c.shape)
    for a in range(3):
        nxt = np.roll(c, -1, axis=a + 1)
        dots = np.einsum("k...,k...->...", c, nxt)
        if np.any(dots <= 0.0):
            raise SignDiscontinuity(
                f"quaternion field flips sign along axis {a}: "
                f"min neighbor product {dots.min():.3e}"
            )
        d = nxt  # q_+ is not needed past the sign test; d takes its buffer
        d -= np.roll(c, 1, axis=a + 1)
        d /= 2.0 * spacing[a]
        dw, dv = d[0], d[1:]
        np.einsum("k...,k...->...", d, c, out=out[a, 0])
        im = _cross_rows(v, dv, out[a, 1:])
        im += w * dv
        im -= dw * v
    return np.moveaxis(out, (0, 1), (-2, -1))


def _embed(v):
    """Purely imaginary quaternion field (0, v) from a 3-vector field."""
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def _divergence(vec, spacing):
    """Divergence of a vector grid field given as (..., 3)."""
    return sum(_central(vec[..., a], a, spacing[a]) for a in range(3))


def _orientation_vector(field, consts, u=None):
    """The vector v of the orientation equation rho dt(orient) + [v] orient = 0.

    [v] orient is [v]_x Lambda in matrix form and the quaternion product
    (0, v) qbar in quaternion form; v carries every term of the law except
    the time derivative. ``u`` is ``field.headings()``, passed by a caller
    that has it already. The quaternion form works on component rows and
    returns v as a (..., 3) view of a (3, ...) buffer.
    """
    sp = field.spacing
    rho = field.rho
    if u is None:
        u = field.headings()
    if field.kind == MATRIX:
        grho = grad_scalar(rho, sp)
        dx = orientation_gradient(field.orient, sp)
        delta = np.einsum("...ii->...", dx)
        r_x = axial(dx - np.swapaxes(dx, -1, -2))
        return (
            consts.c2 * rho[..., None] * np.einsum("...ij,...j->...i", dx, u)
            + np.cross(u, 2.0 * consts.c3 * grho + consts.c4 * rho[..., None] * r_x)
            + consts.c4 * (rho * delta)[..., None] * u
        )
    # im[i, j]: component j of Im(d_{i,rel} q), one (nx, ny, nz) row each.
    im = np.moveaxis(rel_gradient(field.orient, sp), (-2, -1), (0, 1))[:, 1:]
    u = np.ascontiguousarray(_rows(u))
    grho = np.stack([_central(rho, a, sp[a]) for a in range(3)])
    v = _cross_rows(u, grho, np.empty(u.shape))
    v *= consts.c3
    g = np.einsum("ij...,j...->i...", im, u)
    g += (im[0, 0] + im[1, 1] + im[2, 2]) * u
    g *= consts.c4
    transport = np.einsum("i...,ij...->j...", u, im)
    transport *= consts.c2_prime
    transport += g
    transport *= rho
    v += transport
    return np.moveaxis(v, 0, -1)


def residuals(field, drho_dt, dorient_dt, consts):
    """Residuals of the macroscopic system at every node, in the field's form.

    Args:
        field: MacroField of either kind.
        drho_dt: time derivative of rho, same shape as field.rho.
        dorient_dt: time derivative of the orientation, same shape as
            field.orient.
        consts: GciConstants.

    Returns:
        (res_rho, res_orient): the mass residual dt_rho + div(c1 rho u),
        shape (nx, ny, nz), and the orientation residual
        rho dorient_dt + [v] orient, shaped like field.orient, with [v] orient
        = hat(v) Lambda (matrix) or (0, v) qbar (quaternion). If dorient_dt
        is tangent (resp. orthogonal to qbar), so is the residual, to
        round-off.
    """
    rho = field.rho
    vec = _orientation_vector(field, consts)
    if field.kind == MATRIX:
        res_orient = rho[..., None, None] * dorient_dt + hat(vec) @ field.orient
    else:
        res_orient = rho[..., None] * dorient_dt + quat_mul(_embed(vec), field.orient)
    res_rho = drho_dt + _divergence(consts.c1 * rho[..., None] * field.headings(), field.spacing)
    return res_rho, res_orient


def _angular_velocity(field, consts, u=None):
    """omega with dt_orient = [omega]_x Lambda (matrix) or [omega] q (quat).

    The orientation equation solved for the time derivative: omega = -v / rho
    with v from :func:`_orientation_vector`.
    """
    rho = field.rho
    if not np.all(rho > RHO_FLOOR):  # also catches NaN
        raise DomainError(f"density fell to {rho.min():.3e}; orientation update ill-posed")
    return -_orientation_vector(field, consts, u) / rho[..., None]


def _mass_step(rho, u, c1, dt, spacing, viscosity):
    """Conservative update of rho: central face flux + Rusanov dissipation.

    The face flux along axis a is
        F_{i+1/2} = (f_i + f_{i+1})/2 - viscosity * (rho_{i+1} - rho_i)
    with f = c1 rho u_a, and the update subtracts dt (F_{i+1/2} - F_{i-1/2})/h.
    The telescoping sum of fluxes over the periodic grid vanishes exactly, so
    total mass is conserved to round-off.
    """
    f = c1 * rho[..., None] * u
    div = np.zeros_like(rho)
    for a in range(3):
        fa = f[..., a]
        flux = 0.5 * (fa + np.roll(fa, -1, axis=a)) - viscosity * (
            np.roll(rho, -1, axis=a) - rho
        )
        div += (flux - np.roll(flux, 1, axis=a)) / spacing[a]
    return rho - dt * div


def _smooth(arr, spacing, dt, viscosity, first=0):
    """Grid smoothing matching the mass dissipation: + viscosity*h*Laplacian.

    The grid axes of ``arr`` are ``first``, ``first + 1`` and ``first + 2``.
    """
    out = arr.copy()
    for a in range(3):
        lap = np.roll(arr, -1, axis=first + a)
        lap += np.roll(arr, 1, axis=first + a)
        lap -= 2.0 * arr
        lap *= viscosity * dt / spacing[a]
        out += lap
    return out


def _exp_times_quat(wdt, c):
    """Rows of exp((0, wdt)) q from the rows wdt of a 3-vector and c of q.

    exp((0, wdt)) = (cos|wdt|, sin|wdt| wdt / |wdt|), the full phase |wdt|:
    the half-angle convention of rotation quaternions does not apply to the
    quaternion-valued ODE itself. sin|wdt| / |wdt| is
    ``np.sinc(|wdt| / pi)``, which is 1 at wdt = 0.
    """
    phase = np.sqrt(wdt[0] * wdt[0] + wdt[1] * wdt[1] + wdt[2] * wdt[2])
    a0 = np.cos(phase)
    a = wdt * np.sinc(phase / np.pi)
    b0, b = c[0], c[1:]
    out = np.empty(c.shape)
    np.multiply(a0, b0, out=out[0])
    out[0] -= a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    im = _cross_rows(a, b, out[1:])
    im += a0 * b
    im += b0 * a
    return out


def step_macro(field, consts, dt, viscosity=0.5):
    """One explicit step of the coupled system; returns a new MacroField.

    Orientations are advanced by the exact exponential of the local angular
    velocity (so they stay on the manifold), then smoothed with the same
    numerical dissipation as the density: matrices by
    ``tangent_step(Lambda, L)`` with L the smoothing increment, which agrees
    with the polar factor of Lambda + L to first order in L; quaternions by
    renormalizing.

    Args:
        field: MacroField (either kind).
        consts: GciConstants.
        dt: time step.
        viscosity: dissipation velocity scale (>= 0).

    Raises:
        CflViolation: if dt exceeds the advective or diffusive stability
            bound for the grid.
        DomainError: if dt is not a positive finite number, viscosity is
            not a finite number >= 0, orient has a NaN or infinite entry, or
            the density is not above the floor (NaN included) or loses
            positivity.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be a positive finite number, got {dt!r}")
    if not (np.isfinite(viscosity) and viscosity >= 0.0):
        raise DomainError(f"viscosity must be a finite number >= 0, got {viscosity!r}")
    if not np.all(np.isfinite(field.orient)):
        raise DomainError("orient has NaN or infinite entries")
    sp = field.spacing
    h_min = float(np.min(sp))
    speed = max(consts.c1, abs(consts.c2), abs(consts.c2_prime))
    if dt * speed > h_min or (viscosity > 0.0 and viscosity * dt > 0.5 * h_min):
        raise CflViolation(
            f"dt={dt} too large for spacing {h_min:.4g} "
            f"(speed {speed:.3g}, viscosity {viscosity:.3g})"
        )
    u = field.headings()
    omega = _angular_velocity(field, consts, u)
    rho_new = _mass_step(field.rho, u, consts.c1, dt, sp, viscosity)
    if not np.all(rho_new > 0.0):  # also catches NaN
        raise DomainError("density lost positivity; reduce dt or increase viscosity")

    if field.kind == MATRIX:
        # exp([dt omega]_x) = Phi(exp((0, dt omega / 2))), with sin p / p as
        # np.sinc(p / pi), which is 1 at omega = 0.
        half = 0.5 * dt * omega
        p = np.linalg.norm(half, axis=-1)
        q = np.empty(p.shape + (4,))
        q[..., 0] = np.cos(p)
        np.multiply(np.sinc(p / np.pi)[..., None], half, out=q[..., 1:])
        orient = quat_to_rot(q) @ field.orient
        orient = tangent_step(orient, _smooth(orient, sp, dt, viscosity) - orient)
    else:
        c = _smooth(_exp_times_quat(dt * _rows(omega), _rows(field.orient)),
                    sp, dt, viscosity, first=1)
        c /= np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3])
        orient = np.moveaxis(c, 0, -1)
    return replace(field, t=field.t + dt, rho=rho_new, orient=orient)


def run_macro(field, consts, t_end, dt, viscosity=0.5, on_frame=None):
    """Integrate to t_end with fixed steps (the last step may be shorter)."""
    if on_frame is not None:
        on_frame(field)
    while field.t < t_end - 1e-12:
        step = min(dt, t_end - field.t)
        field = step_macro(field, consts, step, viscosity=viscosity)
        if on_frame is not None:
            on_frame(field)
    return field


# ---------------------------------------------------------------------------
# Synthetic fields for verification.


def sine_rotation_field(n, length, axis, amplitude, base=None):
    """One-parameter rotation family Lambda(x) = R(axis, amplitude*sin(kx)) B.

    Varies along the first grid axis only (grid shape (n, 1, 1)); the exact
    Dx has the single nonzero column phi'(x) * axis, and the quaternion lift
    has Im(d_{1,rel} q) = phi'(x) axis / 2.

    Returns:
        (field_mat, field_quat, dx_exact) where dx_exact has shape (n, 3)
        and holds phi'(x) * axis at the n nodes.
    """
    axis = np.asarray(axis, dtype=np.float64)
    axis = axis / np.linalg.norm(axis)
    if base is None:
        base = np.eye(3)
    k = 2.0 * np.pi / length
    x = np.arange(n) * (length / n)
    phi = amplitude * np.sin(k * x)
    dphi = amplitude * k * np.cos(k * x)
    rots = rotation_from_axis_angle(np.broadcast_to(axis, (n, 3)), phi) @ base
    quats = quat_mul(
        quat_from_axis_angle(np.broadcast_to(axis, (n, 3)), phi),
        rot_to_quat(base),
    )
    box = np.array([length, length, length])
    rho = np.ones((n, 1, 1))
    f_mat = MacroField(0.0, box, rho, rots.reshape(n, 1, 1, 3, 3), MATRIX)
    f_quat = MacroField(0.0, box, rho.copy(), quats.reshape(n, 1, 1, 4), QUATERNION)
    return f_mat, f_quat, dphi[:, None] * axis


def twisted_initial_data(n, length, rho_amp=0.2, alpha=0.3, beta=0.3):
    """Smooth 1D initial data with an exactly consistent matrix/quaternion pair.

    rho(x) = 1 + rho_amp sin(kx) and qbar(x) = qz(alpha sin kx) qx(beta cos kx)
    (a sign-continuous lift by construction), Lambda = Phi(qbar).

    Returns:
        (field_mat, field_quat) on an (n, 1, 1) grid with box length^3.
    """
    k = 2.0 * np.pi / length
    x = np.arange(n) * (length / n)
    a = alpha * np.sin(k * x)
    b = beta * np.cos(k * x)
    qz = np.stack([np.cos(a / 2), np.zeros(n), np.zeros(n), np.sin(a / 2)], axis=-1)
    qx = np.stack([np.cos(b / 2), np.sin(b / 2), np.zeros(n), np.zeros(n)], axis=-1)
    q = quat_mul(qz, qx)
    lam = quat_to_rot(q)
    rho = (1.0 + rho_amp * np.sin(k * x)).reshape(n, 1, 1)
    box = np.array([length, length, length])
    f_mat = MacroField(0.0, box, rho.copy(), lam.reshape(n, 1, 1, 3, 3), MATRIX)
    f_quat = MacroField(0.0, box, rho.copy(), q.reshape(n, 1, 1, 4), QUATERNION)
    return f_mat, f_quat
