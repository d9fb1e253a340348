"""Correctness checks on the benchmark's outputs, computed apart from sohb.

Every check takes plain arrays (or a path) and returns a list of problem
strings, empty when the output passes. Only numpy and scipy are used here, so
a fault in sohb cannot hide itself by being shared with its own check.
"""

import json
import math

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

#: Orthonormality and unit-determinant tolerance for rotation matrices.
ORTHO_TOL = 1e-10
#: Unit-norm tolerance for quaternions.
UNIT_TOL = 1e-12
#: Below this det(Jbar) / (mean singular value)^3 an average is truly degenerate.
SCALE_FREE_FLOOR = 1e-3
#: Replayed and simulated jump positions agree to this (minimum image).
REPLAY_TOL = 1e-9
#: Event counts farther than this many standard deviations from N t fail.
POISSON_SIGMAS = 6.0
#: Two-sample KS p-values below this fail (loose: the seed is not fixed).
KS_ALPHA = 1e-6
#: Monte Carlo factor of the anchor tolerance KS_FACTOR / sqrt(n) + KS_GRID.
KS_FACTOR = 2.5
#: Allowance for the angle-kernel discretization of the population KS value.
KS_GRID = 1e-3
#: Constant identities (criterion 7).
IDENTITY_TOL = 1e-10
ROUTE_TOL = 1e-8
#: Relative macro mass drift (criterion 10).
MASS_TOL = 1e-12
#: Macro route gap bound: gap <= ROUTE_GAP_C * t * (dt + h_max^2). Four times
#: the largest value over seeds 0..19 (2.49e-3), rounded up;
#: ``python3 perfbench/reference.py`` regenerates it.
ROUTE_GAP_C = 1.0e-2


def quat_matrix(q):
    """Rotation matrix of unit quaternion(s) q = (w, v): (w^2 - v.v) I + 2 v v^T + 2 w [v]x."""
    q = np.asarray(q, dtype=np.float64)
    w, v = q[..., 0], q[..., 1:]
    out = (w * w - np.sum(v * v, axis=-1))[..., None, None] * np.eye(3)
    out = out + 2.0 * v[..., :, None] * v[..., None, :]
    cross = np.zeros(q.shape[:-1] + (3, 3))
    cross[..., 0, 1], cross[..., 0, 2] = -v[..., 2], v[..., 1]
    cross[..., 1, 0], cross[..., 1, 2] = v[..., 2], -v[..., 0]
    cross[..., 2, 0], cross[..., 2, 1] = -v[..., 1], v[..., 0]
    return out + 2.0 * w[..., None, None] * cross


def as_matrices(orient):
    """Rotation matrices from (..., 3, 3) matrices or (..., 4) quaternions."""
    orient = np.asarray(orient, dtype=np.float64)
    return orient if orient.shape[-1] == 3 else quat_matrix(orient)


def check_rotations(a, label):
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        return [f"{label}: non-finite rotation entries"]
    err = np.abs(np.swapaxes(a, -1, -2) @ a - np.eye(3)).max()
    det = np.abs(np.linalg.det(a) - 1.0).max()
    if err > ORTHO_TOL or det > ORTHO_TOL:
        return [f"{label}: rotations off SO(3) (|A^T A - I| {err:.2e}, |det - 1| {det:.2e})"]
    return []


def check_quaternions(q, label):
    q = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        return [f"{label}: non-finite quaternion entries"]
    err = np.abs(np.linalg.norm(q, axis=-1) - 1.0).max()
    if err > UNIT_TOL:
        return [f"{label}: quaternions off the unit sphere (| |q| - 1 | {err:.2e})"]
    return []


def check_orientations(orient, label):
    orient = np.asarray(orient)
    if orient.shape[-1] == 4:
        return check_quaternions(orient, label)
    return check_rotations(orient, label)


def check_positions(x, box, label):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return [f"{label}: non-finite positions"]
    if np.any(x < 0.0) or np.any(x >= box):
        return [f"{label}: positions outside [0, {box:g}) (min {x.min():.3e}, max {x.max():.17g})"]
    return []


def _into_box(x, box):
    """Positions in [0, box) for cKDTree, which rejects a coordinate equal to box."""
    x = np.mod(np.asarray(x, dtype=np.float64), box)
    return np.where(x >= box, 0.0, x)


def neighbor_pairs_kdtree(x, box, radius):
    """Unordered pairs (i < j) within ``radius`` under periodic minimum image."""
    tree = cKDTree(_into_box(x, box), boxsize=box)
    return tree.query_pairs(radius, output_type="ndarray")


def ordered_pair_count(x, box, radius):
    """Ordered pairs within ``radius``, self pairs included (as sohb counts them)."""
    return 2 * len(neighbor_pairs_kdtree(x, box, radius)) + len(x)


def check_pair_count(x, box, radius, count, label):
    expected = ordered_pair_count(x, box, radius)
    if count != expected:
        return [f"{label}: neighbor search found {count} ordered pairs, cKDTree {expected}"]
    return []


def scale_free_ratio(x, rots, box, radius):
    """det(Jbar) / (mean singular value of Jbar)^3 per particle.

    Jbar is the plain sum of the rotations within ``radius`` (self included);
    the ratio does not depend on how the sum is normalized, so it tells a
    truly degenerate average (ratio near 0) from a merely small one.
    """
    rots = np.asarray(rots, dtype=np.float64)
    pairs = neighbor_pairs_kdtree(x, box, radius)
    flat = rots.reshape(len(rots), 9)
    jbar = flat.copy()
    np.add.at(jbar, pairs[:, 0], flat[pairs[:, 1]])
    np.add.at(jbar, pairs[:, 1], flat[pairs[:, 0]])
    jbar = jbar.reshape(-1, 3, 3)
    sv = np.linalg.svd(jbar, compute_uv=False)
    return np.linalg.det(jbar) / np.mean(sv, axis=-1) ** 3


def check_not_degenerate(x, rots, box, radius, label):
    ratio = scale_free_ratio(x, rots, box, radius)
    if ratio.min() <= SCALE_FREE_FLOOR:
        return [f"{label}: a neighborhood average is truly degenerate "
                f"(scale-free det ratio {ratio.min():.2e} <= {SCALE_FREE_FLOOR:g})"]
    return []


def check_frame_log(path, n, n_frames, final_x, final_orient, label):
    """An NDJSON frame log read with plain json: record count and last frame.

    The last frame must equal the final state exactly: the log writes the
    shortest round-trip form of every float.
    """
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if len(records) != n * n_frames:
        return [f"{label}: {len(records)} records, expected {n} x {n_frames}"]
    times = [rec["t"] for rec in records]
    if any(b < a for a, b in zip(times, times[1:])):
        return [f"{label}: frame times go backwards"]
    last = records[-n:]
    if len({rec["t"] for rec in last}) != 1 or [rec["id"] for rec in last] != list(range(n)):
        return [f"{label}: the last {n} records are not one frame in id order"]
    x = np.array([rec["x"] for rec in last], dtype=np.float64)
    v = np.array([rec["orient"]["v"] for rec in last], dtype=np.float64)
    final_orient = np.asarray(final_orient, dtype=np.float64).reshape(n, -1)
    if not (np.array_equal(x, final_x) and np.array_equal(v, final_orient)):
        return [f"{label}: the last frame differs from the final state"]
    return []


def replay_positions(x0, head0, events, t0, t_end, box):
    """Ballistic positions at t_end from the initial state and an event log.

    ``events`` holds (time, particle, new orientation) in event order; each
    particle moves at unit speed along its current heading.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    head = np.array(head0, dtype=np.float64)
    last_t = np.full(len(x0), float(t0))
    disp = np.zeros_like(x0)
    for t, n, orient in events:
        disp[n] += (t - last_t[n]) * head[n]
        last_t[n] = t
        head[n] = as_matrices(orient)[:, 0]
    disp += (t_end - last_t)[:, None] * head
    return np.mod(x0 + disp, box)


def check_jump_replay(x0, orient0, events, t0, t_end, box, x_final, orient_final, label):
    times = np.array([ev[0] for ev in events])
    if len(times) and (times[0] <= t0 or times[-1] > t_end or np.any(np.diff(times) < 0.0)):
        return [f"{label}: event times are not increasing inside ({t0}, {t_end}]"]
    expected = replay_positions(x0, as_matrices(orient0)[:, :, 0], events, t0, t_end, box)
    d = np.asarray(x_final) - expected
    gap = np.abs(d - box * np.rint(d / box)).max()
    if gap > REPLAY_TOL:
        return [f"{label}: final positions differ from the ballistic replay by {gap:.2e}"]
    orient = np.array(orient0, dtype=np.float64)
    for _, n, o in events:
        orient[n] = o
    if not np.array_equal(orient, orient_final):
        return [f"{label}: final orientations differ from the event log"]
    return []


def check_event_count(m, rate_time, label):
    """Superposed unit-rate clocks of N particles: Poisson(N t) events."""
    sigma = math.sqrt(rate_time)
    if abs(m - rate_time) > POISSON_SIGMAS * sigma:
        return [f"{label}: {m} events, Poisson({rate_time:g}) allows "
                f"{rate_time:g} +- {POISSON_SIGMAS * sigma:.0f}"]
    return []


def alignment_stats(orient):
    """Overlap 0.5 tr(L^T A_n) with the ensemble's polar mean L (criterion 6)."""
    rots = as_matrices(orient)
    u, _, vt = np.linalg.svd(rots.mean(axis=0))
    if np.linalg.det(u @ vt) < 0.0:
        u[:, 2] = -u[:, 2]
    mean = u @ vt
    return 0.5 * np.einsum("ij,nij->n", mean, rots)


def check_same_law(a, b, label):
    p = stats.ks_2samp(a, b).pvalue
    if p < KS_ALPHA:
        return [f"{label}: two-sample KS p = {p:.2e} < {KS_ALPHA:g}"]
    return []


def angle_cdf(d, npts=1 << 14):
    """CDF of the stationary rotation angle, by dense trapezoid quadrature of
    exp((1/2 + cos t)/D) sin^2(t/2) (shifted by its maximum)."""
    theta = np.linspace(0.0, np.pi, npts + 1)
    dens = np.exp((np.cos(theta) - 1.0) / d) * np.sin(0.5 * theta) ** 2
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(theta))])
    cum /= cum[-1]
    return lambda t: np.interp(t, theta, cum)


def rotation_angles(field, rots):
    """Angle of field^T A for every A."""
    tr = np.einsum("ij,nij->n", np.asarray(field), np.asarray(rots))
    return np.arccos(np.clip(0.5 * (tr - 1.0), -1.0, 1.0))


def anchor_tolerance(n):
    return KS_FACTOR / math.sqrt(n) + KS_GRID


def check_anchor(angles, ks_population, d, label):
    """Criterion 5's anchor: empirical KS of simulated angles against the
    continuous law matches the angle-kernel (population) KS value."""
    emp = stats.kstest(angles, angle_cdf(d)).statistic
    tol = anchor_tolerance(len(angles))
    if not abs(emp - ks_population) <= tol:
        return [f"{label}: empirical KS {emp:.3e} vs angle-law KS {ks_population:.3e}, "
                f"gap beyond {tol:.2e} at n = {len(angles)}"]
    return []


def check_constants(cs, cg, d, label):
    problems = []
    gap = abs(cs.c2 - cs.c2_prime - cs.c4)
    if not gap <= IDENTITY_TOL:
        problems.append(f"{label}: c2 - c2' - c4 = {gap:.2e} > {IDENTITY_TOL:g}")
    if cs.c3 != 0.5 * d:
        problems.append(f"{label}: c3 = {cs.c3!r} is not D/2 = {0.5 * d!r}")
    route = max(abs(getattr(cs, k) - getattr(cg, k)) for k in ("c1", "c2", "c2_prime", "c4"))
    if not route <= ROUTE_TOL:
        problems.append(f"{label}: Simpson and Gauss routes differ by {route:.2e} > {ROUTE_TOL:g}")
    return problems


def check_mass(m0, m1, label):
    drift = abs(m1 - m0) / m0
    if not drift <= MASS_TOL:
        return [f"{label}: relative mass drift {drift:.2e} > {MASS_TOL:g}"]
    return []


def route_gap(lam, q):
    """Largest Frobenius distance between a matrix field and a quaternion field."""
    return float(np.linalg.norm(quat_matrix(q) - lam, axis=(-2, -1)).max())


def check_route_gap(gap, t, dt, h_max, label):
    bound = ROUTE_GAP_C * t * (dt + h_max**2)
    if not gap <= bound:
        return [f"{label}: matrix-quaternion route gap {gap:.3e} > {bound:.3e}"]
    return []


def check_density(rho, label):
    rho = np.asarray(rho)
    if not (np.all(np.isfinite(rho)) and np.all(rho > 0.0)):
        return [f"{label}: density not finite and positive"]
    return []
