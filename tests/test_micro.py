"""Particle-level dynamics: gradual diffusion steps and the jump process."""

import numpy as np
import pytest

from sohb.alignment import wrap_positions
from sohb.estimators import ks_one_sample, ks_two_sample, order_parameter
from sohb.micro import (
    GRADUAL,
    JUMP,
    MATRIX,
    QUATERNION,
    ParticleState,
    SimParams,
    initial_state,
    run_gradual,
    run_jump,
    run_single_in_field,
    step_gradual,
)
from sohb.rng import make_rng
from sohb.rotations import (
    mat_dot,
    quat_e1,
    quat_to_rot,
    rot_to_quat,
    rotation_from_axis_angle,
)
from sohb.sampling import sample_uniform_rot


def params(**kw):
    base = dict(
        n_particles=32,
        d=0.5,
        box=6.0,
        radius=1.0,
        dt=1e-3,
        model=GRADUAL,
        representation=MATRIX,
    )
    base.update(kw)
    return SimParams(**base)


# --- gradual, deterministic limit (D = 0) ------------------------------------


def test_zero_noise_fixed_point():
    """Starting at the field with zero noise, the orientation never moves."""
    rng = make_rng(40, 0)
    field = sample_uniform_rot(rng)
    a = run_single_in_field(GRADUAL, MATRIX, field, 0.0, rng, t_end=2.0, dt=1e-3,
                            replicas=1, init="center")
    np.testing.assert_allclose(a[0], field, atol=1e-12)


def test_zero_noise_alignment_is_ascent():
    """mat_dot(A_t, field) is nondecreasing along the deterministic flow."""
    rng = make_rng(40, 1)
    field = sample_uniform_rot(rng)
    from sohb.rotations import polar_rotation, project_tangent

    # start away from the field and integrate the projected flow explicitly
    a = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), 2.5) @ field
    prev = mat_dot(a, field)
    for _ in range(600):
        a = polar_rotation(a + project_tangent(a, field * 2e-2))
        cur = mat_dot(a, field)
        assert cur >= prev - 1e-12
        prev = cur
    assert prev > 1.49  # converged to the field


def test_ballistic_transport_gradual():
    """With a frozen orientation the position moves along the body e1 axis."""
    p = params(n_particles=1, d=1e-30, box=50.0, dt=2e-3)
    rng = make_rng(40, 2)
    state = initial_state(p, rng)
    x0, a0 = state.x.copy(), state.orient.copy()
    state = run_gradual(state, p, rng, t_end=1.0)
    # field = own orientation (single particle sees only itself): A stays put
    np.testing.assert_allclose(state.orient, a0, atol=1e-9)
    disp = state.x - x0
    disp -= p.box * np.rint(disp / p.box)  # undo periodic wrap
    np.testing.assert_allclose(disp, a0[:, :, 0] * 1.0, atol=1e-9)


def test_quaternion_drift_zeros():
    """The nematic drift vanishes at alignment and at orthogonality."""
    rng = make_rng(40, 3)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    for qbar in (q, np.array([-q[1], q[0], -q[3], q[2]])):  # aligned / orthogonal
        drift = np.dot(qbar, q) * qbar - 0.25 * q
        proj = drift - np.dot(drift, q) * q
        np.testing.assert_allclose(proj, 0.0, atol=1e-14)


def test_representation_equivalence_zero_noise():
    """The deterministic flows agree through the lift from shared data."""
    rng = make_rng(40, 4)
    field = sample_uniform_rot(rng)
    start = rotation_from_axis_angle(np.array([0.3, 0.1, 0.9]) / np.linalg.norm([0.3, 0.1, 0.9]), 1.2) @ field
    from sohb.rotations import polar_rotation, project_tangent, quat_normalize

    a = start.copy()
    q = rot_to_quat(start)
    qf = rot_to_quat(field)
    dt = 1e-2
    for _ in range(1200):
        a = polar_rotation(a + project_tangent(a, field * dt))
        drift = np.dot(qf, q) * qf - 0.25 * q
        incr = drift * dt
        incr -= np.dot(incr, q) * q
        q = quat_normalize(q + incr)
    np.testing.assert_allclose(quat_e1(q), quat_to_rot(q)[:, 0], atol=1e-12)
    # both deterministic flows relax to the same attractor
    assert mat_dot(a, field) > 1.499
    assert 2 * np.dot(qf, q) ** 2 - 0.5 > 1.499  # same functional, lifted


def test_matrix_increment_is_polar_of_projected_step():
    """The increment draws dB as before and returns polar(A + P_T(A) incr)."""
    from sohb.micro import _increment_matrix
    from sohb.rotations import polar_rotation, project_tangent

    a = sample_uniform_rot(make_rng(40, 5), size=64)
    field = sample_uniform_rot(make_rng(40, 6))
    d, dt = 1.0, 1.6e-2
    got = _increment_matrix(a, field, d, dt, make_rng(40, 7))
    db = make_rng(40, 7).standard_normal(a.shape) * np.sqrt(dt)
    want = polar_rotation(a + project_tangent(a, field * dt + 2.0 * np.sqrt(d) * db))
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_long_single_field_run_stays_orthogonal():
    """The closed-form step never re-projects, so 2e4 steps at dt = 1.6e-2
    must keep A^T A within 1e-12 of I by themselves."""
    rng = make_rng(40, 8)
    field = sample_uniform_rot(rng)
    a = run_single_in_field(GRADUAL, MATRIX, field, 1.0, rng, t_end=2e4 * 1.6e-2,
                            dt=1.6e-2, replicas=32, init="stationary")
    assert np.abs(np.swapaxes(a, -1, -2) @ a - np.eye(3)).max() <= 1e-12


# --- gradual, interacting ----------------------------------------------------


def test_step_preserves_manifold():
    p = params(representation=MATRIX)
    rng = make_rng(41, 0)
    state = initial_state(p, rng)
    for _ in range(20):
        state = step_gradual(state, p, rng)
    eye = np.broadcast_to(np.eye(3), state.orient.shape)
    np.testing.assert_allclose(
        np.einsum("nij,nkj->nik", state.orient, state.orient), eye, atol=1e-10
    )
    assert np.all(np.linalg.det(state.orient) > 0)
    assert np.all(state.x >= 0) and np.all(state.x < p.box)


def test_step_preserves_unit_quats():
    p = params(representation=QUATERNION)
    rng = make_rng(41, 1)
    state = initial_state(p, rng)
    for _ in range(20):
        state = step_gradual(state, p, rng)
    np.testing.assert_allclose(np.linalg.norm(state.orient, axis=-1), 1.0, atol=1e-12)


def test_gradual_orders_from_aligned_start():
    """From a weakly aligned start the order parameter should not collapse."""
    p = params(n_particles=128, d=0.2, box=4.0, dt=2e-3)
    rng = make_rng(41, 2)
    state = initial_state(p, rng, align_center=np.eye(3), align_d=0.3)
    s0 = order_parameter(state.orient, MATRIX).value
    state = run_gradual(state, p, rng, t_end=0.5)
    s1 = order_parameter(state.orient, MATRIX).value
    assert s1 > 0.5 * s0


def test_runs_deterministic():
    p = params()
    a = run_gradual(initial_state(p, make_rng(41, 3)), p, make_rng(41, 4), t_end=0.05)
    b = run_gradual(initial_state(p, make_rng(41, 3)), p, make_rng(41, 4), t_end=0.05)
    np.testing.assert_array_equal(a.orient, b.orient)
    np.testing.assert_array_equal(a.x, b.x)


@pytest.mark.parametrize("rep", [MATRIX, QUATERNION])
def test_initial_state_does_not_depend_on_the_model(rep):
    """The jump clocks belong to run_jump: both models draw the same state
    and leave the generator in the same state."""
    states, rng_states = [], []
    for model in (GRADUAL, JUMP):
        rng = make_rng(41, 5)
        states.append(initial_state(params(model=model, representation=rep), rng))
        rng_states.append(rng.bit_generator.state)
    np.testing.assert_array_equal(states[0].x, states[1].x)
    np.testing.assert_array_equal(states[0].orient, states[1].orient)
    np.testing.assert_equal(rng_states[0], rng_states[1])


# --- gradual: Verlet list and horizons -------------------------------------------

VERLET_CASES = [
    pytest.param(200, 80.0 ** (1.0 / 3.0), 2e-3, 80, id="density-2.5"),
    pytest.param(16, 2.0, 2e-3, 80, id="box-2R"),
    pytest.param(64, 4.0, 0.06, 6, id="dt-above-half-skin"),
]


def _verlet_run(monkeypatch, rep, kernel, n, box, dt, steps):
    """run_gradual from an aligned start, recording each step's state and
    neighbor list and every tree build."""
    import sohb.micro

    p = params(n_particles=n, box=box, dt=dt, kernel=kernel, representation=rep)
    rng = make_rng(44, n)
    state = initial_state(p, rng, align_center=sample_uniform_rot(rng), align_d=0.5)
    seed_state = rng.bit_generator.state
    steps_seen, builds = [], []
    step, build_grid = sohb.micro._step_gradual, sohb.micro.build_grid
    monkeypatch.setattr(sohb.micro, "_step_gradual",
                        lambda s, *a: steps_seen.append((s, a[3])) or step(s, *a))
    monkeypatch.setattr(sohb.micro, "build_grid", lambda *a: builds.append(a[0]) or build_grid(*a))
    out = run_gradual(state, p, rng, t_end=steps * dt)
    monkeypatch.undo()
    rng_end = rng.bit_generator.state
    rng.bit_generator.state = seed_state
    return p, state, rng, out, rng_end, steps_seen, builds


@pytest.mark.parametrize("kernel", ["indicator", "smooth-bump"])
@pytest.mark.parametrize("rep", [MATRIX, QUATERNION])
@pytest.mark.parametrize("n, box, dt, steps", VERLET_CASES)
def test_verlet_list_holds_every_pair(monkeypatch, rep, kernel, n, box, dt, steps):
    """At every step the candidates include each pair that a fresh periodic
    tree finds within R, and their distances are those of the current
    positions. The first two runs rebuild the list at least three times;
    at dt above half the skin it is rebuilt, without skin, at every step."""
    from scipy.spatial import cKDTree

    from sohb.alignment import minimum_image

    _, _, _, _, _, steps_seen, builds = _verlet_run(monkeypatch, rep, kernel, n, box, dt, steps)
    assert len(steps_seen) == steps
    assert (len(builds) == steps) if dt > 0.05 else (len(builds) >= 3)
    for state, neighbors in steps_seen:
        cand = set(zip(np.minimum(neighbors.a, neighbors.b).tolist(),
                       np.maximum(neighbors.a, neighbors.b).tolist()))
        found = cKDTree(state.x, boxsize=box).query_pairs(1.0)
        assert found <= cand
        sep = minimum_image(state.x[neighbors.a] - state.x[neighbors.b], box)
        np.testing.assert_array_equal(neighbors.dist, np.sqrt(np.einsum("ij,ij->i", sep, sep)))


@pytest.mark.parametrize("kernel", ["indicator", "smooth-bump"])
@pytest.mark.parametrize("rep", [MATRIX, QUATERNION])
@pytest.mark.parametrize("n, box, dt, steps", VERLET_CASES)
def test_run_gradual_equals_step_loop(monkeypatch, rep, kernel, n, box, dt, steps):
    """The Verlet list changes no bit: run_gradual equals a loop of full-search
    steps in positions, orientations, fallbacks and the RNG state."""
    p, state, rng, out, rng_end, _, _ = _verlet_run(monkeypatch, rep, kernel, n, box, dt, steps)
    for _ in range(steps):
        state = step_gradual(state, p, rng)
    np.testing.assert_array_equal(out.x, state.x)
    np.testing.assert_array_equal(out.orient, state.orient)
    assert out.degenerate_count == state.degenerate_count
    np.testing.assert_equal(rng_end, rng.bit_generator.state)


def test_run_gradual_rejects_partial_step():
    """0.1013 is not a whole number of steps of 5e-3; nor is a negative span."""
    from sohb.errors import SohbError

    p = params(dt=5e-3)
    state = initial_state(p, make_rng(45, 0))
    for t_end in (0.1013, -0.1):
        with pytest.raises(SohbError, match="^dt: "):
            run_gradual(state, p, make_rng(45, 1), t_end=t_end)


@pytest.mark.parametrize("model, t_end", [
    (GRADUAL, np.nan), (GRADUAL, np.inf), (JUMP, np.nan), (JUMP, 0.2),
])
def test_horizon_errors_name_t_end(model, t_end):
    """A non-finite horizon names t_end, not dt; a jump run refuses one
    before state.t, where it used to move the bodies backwards."""
    from sohb.errors import DomainError

    p = params(model=model)
    state = initial_state(p, make_rng(45, 4))
    state.t = 0.5
    run = run_gradual if model == GRADUAL else run_jump
    with pytest.raises(DomainError, match="^t_end: "):
        run(state, p, make_rng(45, 5), t_end=t_end)


def test_run_gradual_frame_times():
    """Frame k carries t0 + k dt and the final state t_end exactly, where
    summing 20 steps of 5e-3 gives 0.10000000000000002."""
    p = params(dt=5e-3)
    state = initial_state(p, make_rng(45, 2))
    state.t = 0.3
    times = []
    out = run_gradual(state, p, make_rng(45, 3), t_end=0.4, on_frame=lambda s: times.append(s.t))
    assert times[:-1] == [0.3 + k * 5e-3 for k in range(20)]
    assert times[-1] == out.t == 0.4
    zero = initial_state(p, make_rng(45, 2))
    assert run_gradual(zero, p, make_rng(45, 3), t_end=0.1).t == 0.1


@pytest.mark.parametrize("radius", [1e-50, 1e-100])
def test_gradual_tiny_radius_has_no_fallbacks(radius):
    """Each body sees only itself, a healthy average at any radius; the
    determinant test used to overflow to inf > inf and flag all 64."""
    import warnings

    p = params(n_particles=64, box=4.0, radius=radius)
    rng = make_rng(46, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = step_gradual(initial_state(p, rng), p, rng)
    assert out.degenerate_count == 0


# --- jump process -------------------------------------------------------------


def test_jump_transport_replay():
    """The event log plus straight-line transport reconstructs the run exactly.

    Between consecutive events every particle must move at unit speed along
    its current first body axis; at an event only the jumping particle's
    orientation changes. Replaying that contract from the log must reproduce
    the final state.
    """
    p = params(model=JUMP, n_particles=8, box=20.0, d=1.0)
    rng = make_rng(42, 0)
    state0 = initial_state(p, rng)
    log = []
    out, events = run_jump(state0, p, rng, t_end=2.0,
                           on_event=lambda t, n, o: log.append((t, n, o.copy())))
    assert len(events) > 10  # ~16 expected for 8 unit-rate clocks over 2 time units
    assert events == [(t, n) for t, n, _ in log]
    assert events == sorted(events)
    x = state0.x.copy()
    orient = state0.orient.copy()
    t = state0.t
    box = p.box_array()
    for t_ev, n, o_new in log:
        x = wrap_positions(x + (t_ev - t) * orient[:, :, 0], box)
        orient[n] = o_new
        t = t_ev
    x = wrap_positions(x + (2.0 - t) * orient[:, :, 0], box)
    np.testing.assert_allclose(x, out.x, atol=1e-9)
    np.testing.assert_array_equal(orient, out.orient)


def test_jump_mean_waiting_time():
    """Inter-jump gaps are exponential(1): mean 1 within 4 sigma."""
    rng = make_rng(42, 1)
    field = sample_uniform_rot(rng)
    times, _ = run_single_in_field(JUMP, MATRIX, field, 1.0, rng, n_jumps=10_000)
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert abs(gaps.mean() - 1.0) <= 4.0 / np.sqrt(gaps.size)


def test_single_jump_run_needs_n_jumps():
    """A single-body jump run is counted in events: without n_jumps it raises
    a DomainError naming it instead of drawing clocks up to t_end."""
    from sohb.errors import DomainError

    with pytest.raises(DomainError, match="^n_jumps: "):
        run_single_in_field(JUMP, MATRIX, np.eye(3), 1.0, make_rng(42, 3), t_end=5.0)


def test_jump_small_noise_tracks_target():
    """At D -> 0 the post-jump orientation hugs the local target."""
    p = params(model=JUMP, d=1e-4, n_particles=16, box=3.0)
    rng = make_rng(42, 2)
    center = sample_uniform_rot(rng)
    state = initial_state(p, rng, align_center=center, align_d=1e-4)
    state, events = run_jump(state, p, rng, t_end=1.0)
    assert len(events) > 0
    # all particles stay within 0.1 rad of the common alignment direction
    from sohb.rotations import rotation_angle

    rel = np.einsum("ji,njk->nik", center, state.orient)
    assert np.max(rotation_angle(rel)) < 0.1


def test_jump_first_redraw_law():
    """The first redraw is a von Mises draw around the target at event time.

    For each replica: transport the initial configuration ballistically to
    the first event time, compute the jumping particle's neighborhood target
    independently, and measure the angle between the redraw and that target.
    Pooled over replicas those angles must follow the noise-d angle law.
    """
    from sohb.alignment import target_rotation
    from sohb.errors import DegenerateAverage
    from sohb.rotations import rotation_angle
    from sohb.sampling import get_angle_table

    d = 1.0
    p = params(model=JUMP, n_particles=8, box=2.0, d=d)
    box = p.box_array()
    kernel = p.kernel_config()
    angles = []
    for trial in range(300):
        rng = make_rng(46, trial)
        state0 = initial_state(p, rng)
        log = []
        run_jump(state0, p, rng, t_end=0.5,
                 on_event=lambda t, n, o: log.append((t, n, o.copy())))
        if not log:
            continue
        t_ev, n, o_new = log[0]
        x_ev = wrap_positions(state0.x + t_ev * state0.orient[:, :, 0], box)
        try:
            target = target_rotation(n, x_ev, box, state0.orient, kernel)
        except DegenerateAverage:
            target = state0.orient[n]  # the run falls back to the own frame
        angles.append(rotation_angle(target.T @ o_new))
    assert len(angles) > 250
    report = ks_one_sample(np.asarray(angles), get_angle_table(d).cdf_at)
    assert report.p_value >= 0.01, report


def test_jump_equivariance_under_global_rotation():
    """Rotating the initial data rotates the whole trajectory, draw for draw.

    A quarter turn about z maps the periodic lattice of a cubic box onto
    itself, so (x, A) -> (gx mod box, gA) with identical random draws must
    give the rotated trajectory.
    """
    p = params(model=JUMP, n_particles=24, d=0.8, box=6.0)
    g = rotation_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    state = initial_state(p, make_rng(43, 0))
    rotated = ParticleState(
        t=state.t,
        x=wrap_positions(np.einsum("ab,nb->na", g, state.x), p.box_array()),
        orient=np.einsum("ab,nbc->nac", g, state.orient),
        kind=state.kind,
    )
    out1, ev1 = run_jump(state, p, make_rng(43, 1), t_end=0.6)
    out2, ev2 = run_jump(rotated, p, make_rng(43, 1), t_end=0.6)
    assert ev1 == ev2
    assert len(ev1) > 5
    np.testing.assert_allclose(
        np.einsum("ab,nbc->nac", g, out1.orient), out2.orient, atol=1e-8
    )
    np.testing.assert_allclose(
        wrap_positions(np.einsum("ab,nb->na", g, out1.x), p.box_array()),
        out2.x,
        atol=1e-8,
    )


def test_matrix_vs_quaternion_in_law():
    """Small interacting runs of both representations agree in distribution."""
    n, t_end = 128, 0.3
    stats = {}
    for rep in (MATRIX, QUATERNION):
        p = params(n_particles=n, d=0.5, box=4.0, dt=2e-3, representation=rep)
        rng = make_rng(44, 0)  # shared init stream
        state = initial_state(p, rng, align_center=np.eye(3), align_d=0.5)
        state = run_gradual(state, p, make_rng(44, 1 + (rep == QUATERNION)), t_end)
        orient = state.orient if rep == MATRIX else quat_to_rot(state.orient)
        mean = orient.mean(axis=0)
        from sohb.rotations import polar_rotation

        lam = polar_rotation(mean)
        stats[rep] = mat_dot(lam, orient)
    assert ks_two_sample(stats[MATRIX], stats[QUATERNION]).p_value >= 0.01


def test_degenerate_fallback_counted():
    """Antipodal pairs make the average rank-deficient; the step falls back."""
    p = params(n_particles=2, d=1e-6, box=6.0, dt=1e-3)
    x = np.array([[1.0, 1.0, 1.0], [1.3, 1.0, 1.0]])
    orient = np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0])])
    state = ParticleState(t=0.0, x=x, orient=orient, kind=MATRIX)
    state = step_gradual(state, p, make_rng(45, 0))
    assert state.degenerate_count == 2


def test_jump_rejects_box_below_two_radii():
    """Jump runs share the gradual model's box contract, even with no event."""
    from sohb.errors import BoxTooSmall

    p = params(model=JUMP, n_particles=8, box=1.5, radius=1.0)
    state = initial_state(p, make_rng(47, 0))
    with pytest.raises(BoxTooSmall):
        run_jump(state, p, make_rng(47, 1), t_end=0.5)
    with pytest.raises(BoxTooSmall):
        run_jump(state, p, make_rng(47, 1), t_end=0.0)


def _direct_jump(state, p, rng, t_end):
    """Reference jump loop: every event moves every particle and averages
    over all of them, with the heap and the draws of ``run_jump``."""
    import heapq

    from sohb.alignment import target_quaternion, target_rotation
    from sohb.errors import DegenerateAverage
    from sohb.sampling import sample_vonmises_quat, sample_vonmises_rot

    is_matrix = state.kind == MATRIX
    box, kernel = p.box_array(), p.kernel_config()
    x, orient = state.x.copy(), state.orient.copy()
    next_jump = state.t + rng.exponential(1.0, size=state.n)
    t, fallbacks, events = state.t, 0, []
    heap = [(float(next_jump[i]), i) for i in range(state.n)]
    heapq.heapify(heap)

    def heads():
        return orient[:, :, 0] if is_matrix else quat_e1(orient)

    while heap and heap[0][0] <= t_end:
        t_ev, n = heapq.heappop(heap)
        if t_ev != next_jump[n]:
            continue
        x = wrap_positions(x + (t_ev - t) * heads(), box)
        t = t_ev
        try:
            if is_matrix:
                center = target_rotation(n, x, box, orient, kernel)
            else:
                center = target_quaternion(n, x, box, orient, kernel)
        except DegenerateAverage:
            center = orient[n]
            fallbacks += 1
        if is_matrix:
            orient[n] = sample_vonmises_rot(center, p.d, rng)
        else:
            orient[n] = sample_vonmises_quat(center, p.d, rng)
        events.append((t, n))
        next_jump[n] = t + rng.exponential(1.0)
        heapq.heappush(heap, (float(next_jump[n]), n))
    x = wrap_positions(x + (t_end - t) * heads(), box)
    return x, orient, events, fallbacks


@pytest.mark.parametrize("rep", [MATRIX, QUATERNION])
@pytest.mark.parametrize("n, box, t_end", [
    pytest.param(200, 80.0 ** (1.0 / 3.0), 2.6, id="density-2.5"),
    pytest.param(8, 2.0, 3.0, id="box-2R"),
])
def test_jump_matches_direct_route(monkeypatch, rep, n, box, t_end):
    """The candidate-tree run replays the direct O(N) route event for event.

    At density 2.5 the run lasts long enough for at least four tree
    rebuilds; at box = 2R the query ball reaches half the box edge and more.
    """
    import sohb.micro

    builds = []
    build_grid = sohb.micro.build_grid
    monkeypatch.setattr(sohb.micro, "build_grid",
                        lambda *a: builds.append(a[0]) or build_grid(*a))
    p = params(model=JUMP, n_particles=n, box=box, d=0.3, representation=rep)
    rng = make_rng(48, n)
    state = initial_state(p, rng, align_center=sample_uniform_rot(rng), align_d=0.5)
    seed_state = rng.bit_generator.state
    out, events = run_jump(state, p, rng, t_end)
    rng.bit_generator.state = seed_state
    x, orient, ref_events, fallbacks = _direct_jump(state, p, rng, t_end)

    assert events == ref_events
    assert len(events) > n * t_end / 2
    assert out.degenerate_count == fallbacks
    np.testing.assert_allclose(out.orient, orient, rtol=0.0, atol=1e-12)
    gap = out.x - x
    gap -= box * np.rint(gap / box)
    np.testing.assert_allclose(gap, 0.0, atol=1e-12)
    if n == 200:
        assert len(builds) >= 5
