"""Rotation algebra: SO(3) matrices, unit quaternions, and the maps between them.

All operations are pure functions on numpy arrays and broadcast over leading
axes, so a single rotation has shape (3, 3) and a batch has shape (N, 3, 3)
(quaternions: (4,) and (N, 4), components ordered w, x, y, z with the real
part first).

The two representations are tied together by the two-to-one group morphism
``quat_to_rot`` (q and -q give the same matrix) and by the dot-product
identity checked in the test suite:

    0.5 * mat_dot(quat_to_rot(q), quat_to_rot(p)) == (q . p)**2 - 1/4
                                                  == qtensor(q) : qtensor(p)
"""

import numpy as np

from .errors import DegenerateAverage

#: Relative determinant floor below which a matrix average has no usable polar
#: rotation: det(m) is compared with DELTA_DET * (|m|_F^2 / 3)^(3/2), so the
#: test does not depend on how the average is normalized.
DELTA_DET = 1e-9

#: Eigenvalue-gap floor below which a Q-tensor has no unique leading eigenvector.
DELTA_GAP = 1e-9


def hat(u):
    """Build the antisymmetric matrix [u]x with hat(u) @ v == cross(u, v).

    Args:
        u: array of shape (..., 3).

    Returns:
        Array of shape (..., 3, 3), antisymmetric by construction.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != 3:
        raise ValueError(f"expected last axis of size 3, got {u.shape}")
    out = np.zeros(u.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 1] = -u[..., 2]
    out[..., 0, 2] = u[..., 1]
    out[..., 1, 0] = u[..., 2]
    out[..., 1, 2] = -u[..., 0]
    out[..., 2, 0] = -u[..., 1]
    out[..., 2, 1] = u[..., 0]
    return out


def axial(m):
    """Extract the axial vector u from a matrix, the inverse of :func:`hat`.

    Only the antisymmetric part of ``m`` contributes:
    ``axial(hat(u)) == u`` for every u.
    """
    m = np.asarray(m, dtype=np.float64)
    a = 0.5 * (m - np.swapaxes(m, -1, -2))
    return np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)


def mat_dot(a, b):
    """Matrix dot product 0.5 * sum_ij A_ij B_ij.

    Normalized so that mat_dot(hat(u), hat(v)) == u . v and
    mat_dot(I3, I3) == 1.5.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 0.5 * np.sum(a * b, axis=(-1, -2))


def project_tangent(a, m):
    """Orthogonally project a 3x3 matrix onto the tangent space of SO(3) at ``a``.

    Args:
        a: rotation(s), shape (..., 3, 3).
        m: arbitrary matrix/matrices, shape broadcastable with ``a``.

    Returns:
        0.5 * (m - a m^T a), which always has the form a @ P with P
        antisymmetric.
    """
    a = np.asarray(a, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    mt = np.swapaxes(m, -1, -2)
    return 0.5 * (m - a @ mt @ a)


def tangent_step(a, m):
    """Polar factor of the projected Euler step, polar(a + project_tangent(a, m)).

    For a rotation ``a`` the step is a (I + hat(w)) with w = axial(a^T m),
    and the polar factor of I + hat(w) is the rotation about w by
    arctan|w|. With c = cos(arctan|w|) = 1/sqrt(1 + |w|^2) its Rodrigues
    form is c I + c hat(w) + c^2/(1 + c) w w^T, exact for every w and free
    of cancellation as |w| -> 0.

    Args:
        a: rotation(s), shape (..., 3, 3); the closed form needs a^T a = I.
        m: arbitrary matrix/matrices, shape broadcastable with ``a``.
    """
    a = np.asarray(a, dtype=np.float64)
    w = axial(np.swapaxes(a, -1, -2) @ np.asarray(m, dtype=np.float64))
    c = 1.0 / np.sqrt(1.0 + np.sum(w * w, axis=-1))
    r = (c[..., None, None] * (np.eye(3) + hat(w))
         + (c * c / (1.0 + c))[..., None, None] * (w[..., :, None] * w[..., None, :]))
    return a @ r


def _polar_svd(m):
    """Closest special-orthogonal factor of ``m`` via SVD with sign fix."""
    u, _, vt = np.linalg.svd(m)
    det = np.linalg.det(u @ vt)
    # Flip the least-significant singular direction when det(U V^T) = -1.
    u = u.copy()
    u[..., :, 2] = u[..., :, 2] * np.where(det < 0.0, -1.0, 1.0)[..., None]
    return u @ vt


def polar_rotation(m):
    """Rotation factor of the polar decomposition m = R S (S symmetric).

    For det(m) > 0 this is the unique maximizer of R |-> mat_dot(R, m)
    over SO(3).

    Args:
        m: matrix or batch of matrices, shape (..., 3, 3).

    Raises:
        DegenerateAverage: if any det(m) <= DELTA_DET * (|m|_F^2 / 3)^(3/2).
    """
    rot, ok = polar_rotation_or_mask(m)
    if not ok.all():
        raise DegenerateAverage(
            "polar rotation undefined: det(m) <= DELTA_DET * (|m|_F^2 / 3)^(3/2)"
        )
    return rot


def polar_rotation_or_mask(m):
    """Batch polar rotation that flags degenerate entries instead of raising.

    Returns:
        (rotations, ok): ``rotations`` has the closest rotation for every
        entry where ``ok`` and the identity elsewhere; ``ok`` is True where
        det(m) > DELTA_DET * (|m|_F^2 / 3)^(3/2), which holds only for
        finite entries. Only those reach the SVD, which can fail on NaN
        and does not return on an infinite entry. The test runs on m scaled
        by a power of two to a largest |entry| in [1/2, 1), which is exact,
        so the verdict is the same at every scale of m, without overflow
        or underflow.
    """
    m = np.asarray(m, dtype=np.float64)
    _, e = np.frexp(np.abs(m).max(axis=(-1, -2), initial=0.0))
    s = np.ldexp(m, -e[..., None, None])
    ok = np.linalg.det(s) > DELTA_DET * (np.sum(s * s, axis=(-1, -2)) / 3.0) ** 1.5
    if not ok.all():
        m = np.where(ok[..., None, None], m, np.eye(3))
    return _polar_svd(m), ok


def quat_mul(p, q):
    """Hamilton product of quaternions (w, x, y, z ordering)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    w1, x1, y1, z1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    w2, x2, y2, z2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conj(q):
    """Quaternion conjugate (w, -x, -y, -z)."""
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(q):
    """Rescale to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_rot(q):
    """The morphism Phi: unit quaternion -> rotation matrix, u |-> q u q*.

    Satisfies quat_to_rot(quat_mul(p, q)) == quat_to_rot(p) @ quat_to_rot(q)
    and quat_to_rot(-q) == quat_to_rot(q).

    Args:
        q: unit quaternion(s), shape (..., 4), w first.

    Returns:
        Rotation matrices, shape (..., 3, 3).
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def quat_e1(q):
    """First column of the rotation image of q, i.e. Im(q e1 q*).

    Equals quat_to_rot(q)[..., :, 0] without forming the full matrix.
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y + w * z),
            2.0 * (x * z - w * y),
        ],
        axis=-1,
    )


def rot_to_quat(r):
    """One of the two unit quaternions q with quat_to_rot(q) == r.

    Uses the branch-stable variant of Shepperd's method; the returned sign
    is canonicalized so that the first component of largest magnitude is
    positive.
    """
    r = np.asarray(r, dtype=np.float64)
    batch = r.shape[:-2]
    rr = r.reshape((-1, 3, 3))
    n = rr.shape[0]
    q = np.empty((n, 4), dtype=np.float64)
    tr = np.trace(rr, axis1=-2, axis2=-1)
    diag = np.stack([rr[:, 0, 0], rr[:, 1, 1], rr[:, 2, 2]], axis=-1)
    # choice 0 uses the trace, choices 1..3 the dominant diagonal entry
    choice = np.where(
        tr > diag.max(axis=-1), 0, 1 + np.argmax(diag, axis=-1)
    )
    for c in range(4):
        idx = np.nonzero(choice == c)[0]
        if idx.size == 0:
            continue
        m = rr[idx]
        if c == 0:
            s = np.sqrt(1.0 + tr[idx]) * 2.0  # s = 4w
            q[idx, 0] = 0.25 * s
            q[idx, 1] = (m[:, 2, 1] - m[:, 1, 2]) / s
            q[idx, 2] = (m[:, 0, 2] - m[:, 2, 0]) / s
            q[idx, 3] = (m[:, 1, 0] - m[:, 0, 1]) / s
        else:
            i = c - 1
            j = (i + 1) % 3
            k = (i + 2) % 3
            s = np.sqrt(1.0 + m[:, i, i] - m[:, j, j] - m[:, k, k]) * 2.0
            q[idx, 0] = (m[:, k, j] - m[:, j, k]) / s
            q[idx, 1 + i] = 0.25 * s
            q[idx, 1 + j] = (m[:, j, i] + m[:, i, j]) / s
            q[idx, 1 + k] = (m[:, k, i] + m[:, i, k]) / s
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    flip = q[np.arange(n), np.argmax(np.abs(q), axis=-1)] < 0.0
    q[flip] *= -1.0
    return q.reshape(batch + (4,))


def rotation_from_axis_angle(axis, angle):
    """Rodrigues formula: rotation by ``angle`` about unit vector ``axis``."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    c = np.cos(angle)[..., None, None]
    s = np.sin(angle)[..., None, None]
    k = hat(axis)
    outer = axis[..., :, None] * axis[..., None, :]
    return c * np.eye(3) + s * k + (1.0 - c) * outer


def quat_from_axis_angle(axis, angle):
    """Unit quaternion cos(angle/2) + sin(angle/2) * axis."""
    axis = np.asarray(axis, dtype=np.float64)
    angle = np.asarray(angle, dtype=np.float64)
    half = 0.5 * angle
    return np.concatenate(
        [np.cos(half)[..., None], np.sin(half)[..., None] * axis], axis=-1
    )


def rotation_angle(r):
    """Rotation angle in [0, pi] recovered from the trace."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r, axis1=-2, axis2=-1)
    return np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))


def qtensor(q):
    """Q-tensor q (x) q - I4/4: symmetric, trace-free, invariant under q -> -q."""
    q = np.asarray(q, dtype=np.float64)
    return q[..., :, None] * q[..., None, :] - 0.25 * np.eye(4)


def max_eigvec(qt):
    """Unit eigenvector of the maximal eigenvalue of a symmetric 4x4 matrix.

    The sign is canonicalized: the first component exceeding 1e-12 in
    magnitude (in w, x, y, z order) is made positive, so bit-reproducible
    output is possible even though both signs are valid.

    Args:
        qt: symmetric matrices, shape (..., 4, 4).

    Raises:
        DegenerateAverage: if the top two eigenvalues are within DELTA_GAP.
    """
    q, ok = max_eigvec_or_mask(qt)
    if not ok.all():
        raise DegenerateAverage("leading eigenvalue not simple: gap <= DELTA_GAP")
    return q


def max_eigvec_or_mask(qt):
    """Batch variant of :func:`max_eigvec` flagging degenerate entries."""
    qt = np.asarray(qt, dtype=np.float64)
    vals, vecs = np.linalg.eigh(qt)
    ok = (vals[..., 3] - vals[..., 2]) > DELTA_GAP
    return _canonical_sign(vecs[..., :, 3]), ok


def _canonical_sign(q):
    """Flip signs so the first component with |value| > 1e-12 is positive."""
    q = np.asarray(q, dtype=np.float64)
    flat = q.reshape((-1, 4))
    big = np.abs(flat) > 1e-12
    first = np.where(big.any(axis=-1), big.argmax(axis=-1), 0)
    lead = flat[np.arange(flat.shape[0]), first]
    out = flat * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    return out.reshape(q.shape)
