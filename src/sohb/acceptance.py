"""Executable acceptance checks for the whole toolkit.

Each criterion is a standalone deterministic function (fixed Philox seeds)
returning an AcceptanceResult; ``run_acceptance`` prints one PASS/FAIL line
per criterion. The same checks back tests/test_acceptance.py and the
``sohb acceptance`` subcommand.

Statistical criteria are engineered so that under a correct implementation
the fixed-seed outcome passes with wide margin, and a broken implementation
(wrong density, wrong noise scaling, representation mismatch, broken
neighbor search, non-conservative flux, ...) fails decisively.
"""

import time
from dataclasses import dataclass

import numpy as np

from .alignment import build_grid, minimum_image, neighbor_pairs
from .errors import DegenerateAverage
from .estimators import ks_one_sample, ks_two_sample, polar_overlaps
from .gci import (
    GciConstants,
    constants,
    jump_profile,
    solve_h,
    verify_adjoint_jump,
)
from .macro import (
    orientation_gradient,
    rel_gradient,
    residuals,
    run_macro,
    sine_rotation_field,
    twisted_initial_data,
)
from .micro import (
    GRADUAL,
    JUMP,
    MATRIX,
    QUATERNION,
    ParticleState,
    SimParams,
    initial_state,
    run_gradual,
    run_single_in_field,
    step_gradual,
)
from .rng import make_rng
from .rotations import (
    mat_dot,
    max_eigvec,
    polar_rotation,
    qtensor,
    quat_to_rot,
    rot_to_quat,
    rotation_angle,
    rotation_from_axis_angle,
)
from .weak_error import scheme_angle_ks
from .sampling import (
    c1,
    reference_angle_cdf,
    sample_uniform_quat,
    sample_uniform_rot,
    sample_vonmises_quat,
    sample_vonmises_rot,
)

SEED = 20260816


@dataclass(frozen=True)
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.number:>2}  {self.name} — {self.detail}"


def _stationary_angle_cdf(d):
    """Reference CDF of the angle marginal: ``reference_angle_cdf`` on its
    own grid, [0, pi] with 2^14 intervals, linearly interpolated.

    The rule is the sampler's (trapezoid), but the grid is not: the sampler's
    table stops at min(pi, 40 sqrt(D)) with TABLE_SIZE intervals, so sampler
    and reference do not share a table.
    """
    theta = np.linspace(0.0, np.pi, (1 << 14) + 1)
    cum = reference_angle_cdf(theta, d)
    return lambda x: np.interp(x, theta, cum)


def _angles_from_center_mat(center, rots):
    rel = np.einsum("ji,njk->nik", center, rots)
    return rotation_angle(rel)


def _angles_from_center_quat(center_q, quats):
    dots = np.abs(quats @ center_q)
    return 2.0 * np.arccos(np.clip(dots, 0.0, 1.0))


def criterion_1():
    """Pairing identity linking quaternion dot, Q-tensors, and matrix overlap."""
    rng = make_rng(SEED, 1)
    n = 100_000
    q = sample_uniform_quat(rng, n)
    p = sample_uniform_quat(rng, n)
    mid = np.sum(q * p, axis=-1) ** 2 - 0.25
    lhs = 0.5 * mat_dot(quat_to_rot(q), quat_to_rot(p))
    rhs = np.einsum("nij,nij->n", qtensor(q), qtensor(p))
    worst = max(float(np.max(np.abs(lhs - mid))), float(np.max(np.abs(rhs - mid))))
    return AcceptanceResult(
        1,
        "pairing-identity",
        worst <= 1e-12,
        f"max identity gap {worst:.2e} over {n} pairs (tol 1e-12)",
    )


def criterion_2():
    """Polar-factor and Q-tensor targets agree through the double cover."""
    rng = make_rng(SEED, 2)
    worst = 0.0
    accepted = 0
    rejected = 0
    while accepted < 1000:
        k = int(rng.integers(5, 51))
        if accepted % 2 == 0:
            q = sample_uniform_quat(rng, k)
        else:
            center = sample_uniform_quat(rng)
            q = sample_vonmises_quat(center, 0.5, rng, size=k)
        w = rng.uniform(0.1, 1.0, size=k)
        signs = rng.choice([-1.0, 1.0], size=k)[:, None]
        j = np.einsum("n,nij->ij", w, quat_to_rot(q)) / w.sum()
        qt = np.einsum("n,nij->ij", w, qtensor(q * signs)) / w.sum()
        try:
            tgt_mat = polar_rotation(j)
            tgt_quat = max_eigvec(qt)
        except DegenerateAverage:
            rejected += 1
            continue
        gap = np.linalg.norm(tgt_mat - quat_to_rot(tgt_quat)) / np.sqrt(2.0)
        worst = max(worst, float(gap))
        accepted += 1
    return AcceptanceResult(
        2,
        "target-equivalence",
        worst <= 1e-7,
        f"max angle gap {worst:.2e} rad over 1000 clusters "
        f"({rejected} degenerate redraws; tol 1e-7)",
    )


def criterion_3():
    """Sampler first moment matches the quadrature coefficient c1."""
    rng = make_rng(SEED, 3)
    n, chunk = 1_000_000, 100_000
    worst = 0.0
    details = []
    for d in (0.2, 1.0, 5.0):
        center = sample_uniform_rot(rng)
        total = np.zeros(3)
        total_sq = np.zeros(3)
        for _ in range(n // chunk):
            a = sample_vonmises_rot(center, d, rng, size=chunk)
            v = a[:, :, 0]
            total += v.sum(axis=0)
            total_sq += np.square(v).sum(axis=0)
        mean = total / n
        se = np.sqrt((total_sq / n - mean**2) / n)
        dev = np.abs(mean - c1(d) * center[:, 0])
        ratio = float(np.max(dev / (4.0 * se + 1e-15)))
        worst = max(worst, ratio)
        details.append(f"D={d}: {ratio:.2f}")
    return AcceptanceResult(
        3,
        "sampler-first-moment",
        worst <= 1.0,
        f"max |dev|/(4 SE) = {worst:.2f} at 1e6 draws [{', '.join(details)}]",
    )


def criterion_4():
    """Post-jump orientations follow the stationary law (KS vs quadrature CDF)."""
    d = 1.0
    cdf = _stationary_angle_cdf(d)
    passes = 0
    min_p = 1.0
    for trial in range(100):
        rng = make_rng(SEED + 4, trial)
        rep = MATRIX if trial % 2 == 0 else QUATERNION
        field = sample_uniform_rot(rng)
        _, orients = run_single_in_field(JUMP, rep, field, d, rng, n_jumps=100_000)
        if rep == MATRIX:
            angles = _angles_from_center_mat(field, orients)
        else:
            angles = _angles_from_center_quat(rot_to_quat(field), orients)
        report = ks_one_sample(angles, cdf)
        min_p = min(min_p, report.p_value)
        passes += report.p_value >= 0.01
    return AcceptanceResult(
        4,
        "jump-stationary-law",
        passes >= 97,
        f"{passes}/100 trials with p >= 0.01 (min p {min_p:.4f}; need >= 97)",
    )


def criterion_5():
    """The gradual scheme's stationary law converges weakly as dt -> 0.

    The weak error at these step sizes is ~8e-4..3e-3 in KS distance —
    far below the 1/sqrt(n) empirical floor of any affordable sample — so
    per-level KS values come from the deterministic angle-kernel law
    (population KS, no Monte Carlo noise). Simulation enters twice: a
    coarse-dt anchor run ties the simulator's law to the kernel
    prediction, and the finest level's alpha = 0.01 test must pass in
    >= 95/100 independent trials for both representations.
    """
    d = 1.0
    ladder = (4e-3, 2e-3, 1e-3)
    pop = [scheme_angle_ks(d, dt, n_grid=4001) for dt in ladder]
    monotone = pop[0] > pop[1] > pop[2]

    cdf = _stationary_angle_cdf(d)
    anchor_dt, anchor_n, anchor_tol = 1.6e-2, 100_000, 3.5e-3
    anchor_pop = scheme_angle_ks(d, anchor_dt)
    rng = make_rng(SEED + 5, 0)
    field = sample_uniform_rot(rng)
    a = run_single_in_field(
        GRADUAL, MATRIX, field, d, rng,
        t_end=1.5, dt=anchor_dt, replicas=anchor_n, init="stationary",
    )
    anchor_mc = ks_one_sample(_angles_from_center_mat(field, a), cdf).statistic
    anchor_ok = abs(anchor_mc - anchor_pop) <= anchor_tol

    passes = {MATRIX: 0, QUATERNION: 0}
    for rep_index, rep in enumerate((MATRIX, QUATERNION)):
        for trial in range(100):
            rng = make_rng(SEED + 5, 1000 * (rep_index + 1) + trial)
            field = sample_uniform_rot(rng)
            orients = run_single_in_field(
                GRADUAL, rep, field, d, rng,
                t_end=0.5, dt=ladder[-1], replicas=2000, init="stationary",
            )
            if rep == MATRIX:
                angles = _angles_from_center_mat(field, orients)
            else:
                angles = _angles_from_center_quat(rot_to_quat(field), orients)
            passes[rep] += ks_one_sample(angles, cdf).p_value >= 0.01
    ok = monotone and anchor_ok and passes[MATRIX] >= 95 and passes[QUATERNION] >= 95
    pop_txt = ", ".join(f"{dt:g}: {v:.2e}" for dt, v in zip(ladder, pop))
    return AcceptanceResult(
        5,
        "gradual-weak-convergence",
        ok,
        f"stationary-law KS by dt [{pop_txt}] monotone={monotone}; "
        f"simulator anchor at dt={anchor_dt:g}: |{anchor_mc:.2e} - "
        f"{anchor_pop:.2e}| <= {anchor_tol:g}: {anchor_ok}; "
        f"finest-dt pass {passes[MATRIX]}/100 (mat), "
        f"{passes[QUATERNION]}/100 (quat); need >= 95",
    )


def criterion_6():
    """Interacting matrix and quaternion runs agree in law."""
    n, box, radius, d = 512, 4.0, 1.0, 0.5
    dt, t_end = 2e-3, 0.24
    passes = 0
    min_p = 1.0
    for trial in range(100):
        init_rng = make_rng(SEED + 6, trial)
        center = sample_uniform_rot(init_rng)
        x0 = init_rng.random((n, 3)) * box
        a0 = sample_vonmises_rot(center, 0.5, init_rng, size=n)
        stats = {}
        for rep_index, rep in enumerate((MATRIX, QUATERNION)):
            params = SimParams(
                n_particles=n, d=d, box=box, radius=radius,
                dt=dt, model=GRADUAL, representation=rep,
            )
            orient0 = a0.copy() if rep == MATRIX else rot_to_quat(a0)
            state = ParticleState(t=0.0, x=x0.copy(), orient=orient0, kind=rep)
            dyn_rng = make_rng(SEED + 6, 100_000 + 2 * trial + rep_index)
            state = run_gradual(state, params, dyn_rng, t_end)
            stats[rep] = polar_overlaps(state.orient, rep)
        report = ks_two_sample(stats[MATRIX], stats[QUATERNION])
        min_p = min(min_p, report.p_value)
        passes += report.p_value >= 0.01
    return AcceptanceResult(
        6,
        "representation-equivalence-in-law",
        passes >= 95,
        f"{passes}/100 trials with p >= 0.01 (min p {min_p:.4f}; need >= 95)",
    )


def criterion_7():
    """Profile solve: residual, sign/parity, exact c3, coefficient identities."""
    worst_res = 0.0
    h_pos = -np.inf
    odd_gap = 0.0
    identity_gap = 0.0
    route_gap = 0.0
    c3_exact = True
    r = np.linspace(0.0, 1.0 - 1e-6, 2001)
    for d in (0.2, 1.0, 5.0):
        prof = solve_h(d)
        worst_res = max(worst_res, prof.residual)
        h_pos = max(h_pos, float(np.max(prof.hbar(r))))
        odd_gap = max(odd_gap, float(np.max(np.abs(prof.hbar(r) + prof.hbar(-r)))))
        for model, p in ((GRADUAL, prof), (JUMP, jump_profile(d))):
            cs = constants(d, model, method="simpson", profile=p)
            cg = constants(d, model, method="gauss", profile=p)
            identity_gap = max(identity_gap, abs(cs.c2 - cs.c2_prime - cs.c4))
            route_gap = max(
                route_gap,
                abs(cs.c1 - cg.c1), abs(cs.c2 - cg.c2),
                abs(cs.c2_prime - cg.c2_prime), abs(cs.c4 - cg.c4),
            )
            c3_exact = c3_exact and cs.c3 == 0.5 * d
    ok = (
        worst_res <= 1e-6
        and h_pos <= 1e-10
        and odd_gap <= 1e-8
        and identity_gap <= 1e-10
        and route_gap <= 1e-8
        and c3_exact
    )
    return AcceptanceResult(
        7,
        "invariant-profile-and-constants",
        ok,
        f"ODE residual {worst_res:.2e} (tol 1e-6); max h on [0,1) {h_pos:.1e}; "
        f"odd gap {odd_gap:.1e}; c2-c2'-c4 {identity_gap:.1e} (tol 1e-10); "
        f"quadrature-route gap {route_gap:.1e} (tol 1e-8); c3 exact {c3_exact}",
    )


def criterion_8():
    """The jump-model invariant equation holds for 100 random (center, P)."""
    rng = make_rng(SEED, 8)
    worst = 0.0
    for _ in range(100):
        center = sample_uniform_rot(rng)
        p_axial = rng.standard_normal(3)
        d = float(rng.uniform(0.2, 5.0))
        worst = max(worst, verify_adjoint_jump(center, p_axial, d))
    return AcceptanceResult(
        8,
        "jump-adjoint-invariant",
        worst <= 1e-8,
        f"max |integral psi dM| {worst:.2e} over 100 draws (tol 1e-8)",
    )


def criterion_9():
    """Spatial derivative machinery: 2nd-order convergence, exact tangency."""
    axis = np.array([0.3, 0.5, 0.81])
    base = rotation_from_axis_angle(
        np.array([0.2, -0.7, 0.5]) / np.linalg.norm([0.2, -0.7, 0.5]), 1.1
    )
    length = 2.0 * np.pi
    errs_dx = []
    errs_rel = []
    for n in (32, 64):
        f_mat, f_quat, dx_exact = sine_rotation_field(n, length, axis, 0.7, base)
        dx = orientation_gradient(f_mat.orient, f_mat.spacing)
        exact_full = np.zeros((n, 1, 1, 3, 3))
        exact_full[:, 0, 0, :, 0] = dx_exact
        errs_dx.append(float(np.max(np.linalg.norm(dx - exact_full, axis=(-2, -1)))))
        rel = rel_gradient(f_quat.orient, f_quat.spacing)
        im_x = rel[:, 0, 0, 0, 1:]
        errs_rel.append(float(np.max(np.linalg.norm(2.0 * im_x - dx_exact, axis=-1))))
    ratio_dx = errs_dx[0] / errs_dx[1]
    ratio_rel = errs_rel[0] / errs_rel[1]

    # Structural tangency/orthogonality of the assembled residuals on a
    # field with varying density (constants arbitrary: the property is
    # algebraic, not physical).
    consts = GciConstants(
        c1=0.7, c2=0.4, c2_prime=0.3, c3=0.5, c4=0.1, d=1.0, model=GRADUAL
    )
    n = 48
    f_mat, f_quat, _ = sine_rotation_field(n, length, axis, 0.7, base)
    x = np.arange(n) * (length / n)
    rho = (1.0 + 0.3 * np.sin(2.0 * np.pi * x / length)).reshape(n, 1, 1)
    f_mat.rho = rho.copy()
    f_quat.rho = rho.copy()
    _, res_lam = residuals(f_mat, np.zeros_like(rho), np.zeros_like(f_mat.orient), consts)
    sym = res_lam @ np.swapaxes(f_mat.orient, -1, -2)
    tangency = float(np.max(np.linalg.norm(sym + np.swapaxes(sym, -1, -2), axis=(-2, -1))))
    _, res_q = residuals(f_quat, np.zeros_like(rho), np.zeros_like(f_quat.orient), consts)
    ortho = float(np.max(np.abs(np.sum(res_q * f_quat.orient, axis=-1))))
    ok = ratio_dx >= 3.5 and ratio_rel >= 3.5 and tangency <= 1e-8 and ortho <= 1e-8
    return AcceptanceResult(
        9,
        "derivative-machinery",
        ok,
        f"h-halving error ratios: Dx {ratio_dx:.2f}, rel {ratio_rel:.2f} (need >= 3.5); "
        f"tangency {tangency:.1e}, orthogonality {ortho:.1e} (tol 1e-8)",
    )


def criterion_10():
    """Matrix and quaternion macro routes co-evolve consistently, mass exact."""
    consts = constants(1.0, GRADUAL)
    t_end = 2.0
    length = 2.0 * np.pi
    levels = ((64, 0.01), (128, 0.0025))
    errors = []
    denoms = []
    mass_drift = 0.0
    for n, dt in levels:
        f_mat, f_quat = twisted_initial_data(n, length)
        m0 = f_mat.total_mass()
        f_mat = run_macro(f_mat, consts, t_end, dt)
        f_quat = run_macro(f_quat, consts, t_end, dt)
        gap = np.linalg.norm(quat_to_rot(f_quat.orient) - f_mat.orient, axis=(-2, -1))
        errors.append(float(np.max(gap)))
        denoms.append(dt + (length / n) ** 2)
        mass_drift = max(
            mass_drift,
            abs(f_mat.total_mass() - m0) / m0,
            abs(f_quat.total_mass() - m0) / m0,
        )
    c_levels = [e / s for e, s in zip(errors, denoms)]
    ratio = c_levels[1] / c_levels[0]
    ok = 0.25 <= ratio <= 4.0 and mass_drift <= 1e-12
    return AcceptanceResult(
        10,
        "macro-coevolution-consistency",
        ok,
        f"route gap {errors[0]:.2e} -> {errors[1]:.2e}; normalized ratio {ratio:.2f} "
        f"(need within [0.25, 4]); relative mass drift {mass_drift:.1e} (tol 1e-12)",
    )


def criterion_11():
    """Neighbor search is exact (vs brute force) and scales ~linearly."""
    rng = make_rng(SEED, 11)
    n_small, box_small, radius = 200, 5.0, 1.0
    x = rng.random((n_small, 3)) * box_small
    box_arr = np.full(3, box_small)
    grid = build_grid(x, box_arr, radius)
    i, j, dist = neighbor_pairs(grid, radius)
    found = {(a, b): c for a, b, c in zip(i.tolist(), j.tolist(), dist.tolist())}
    delta = minimum_image(x[:, None, :] - x[None, :, :], box_arr)
    brute = np.linalg.norm(delta, axis=-1)
    exact_ok = len(found) == int(np.sum(brute <= radius))
    if exact_ok:
        for (a, b), c in found.items():
            if abs(brute[a, b] - c) > 1e-12:
                exact_ok = False
                break

    density = 2.5
    best = {}
    for n_part in (10_000, 20_000):
        box = (n_part / density) ** (1.0 / 3.0)
        params = SimParams(
            n_particles=n_part, d=1.0, box=box, radius=radius,
            dt=2e-3, model=GRADUAL, representation=MATRIX,
        )
        srng = make_rng(SEED, 110 + n_part)
        state = initial_state(params, srng)
        step_gradual(state, params, srng)  # warm-up
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            step_gradual(state, params, srng)
            times.append(time.perf_counter() - t0)
        best[n_part] = min(times)
    ratio = best[20_000] / best[10_000]
    ok = exact_ok and ratio <= 2.5
    return AcceptanceResult(
        11,
        "neighbor-scaling",
        ok,
        f"brute-force match {exact_ok}; step time {best[10_000]*1e3:.1f} ms -> "
        f"{best[20_000]*1e3:.1f} ms at 2x particles, ratio {ratio:.2f} (need <= 2.5)",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_acceptance(only=None, verbose=False):
    """Run the criteria (all, or the 1-based subset ``only``) in order."""
    results = []
    for index, fn in enumerate(CRITERIA, start=1):
        if only is not None and index not in only:
            continue
        result = fn()
        results.append(result)
        if verbose:
            print(result.line(), flush=True)
    return results
