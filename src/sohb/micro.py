"""Microscopic particle dynamics in both orientation representations.

Two mechanisms drive alignment toward the neighborhood target orientation:

* gradual: a stochastic flow integrated with synchronous Euler tangent steps
  — the increment is projected onto the tangent space at the current
  orientation and the result is mapped back onto the manifold (normalization
  for quaternions; for matrices the polar factor, in closed form: the step
  A (I + hat(w)) lands on A times the rotation about w by arctan|w|). Matrix
  noise enters as 2 sqrt(D) dB per entry and quaternion noise as
  sqrt(D/2) dB; the factor asymmetry is intrinsic to the two representations
  (the double cover halves angular increments) and must not be altered.
  ``run_gradual`` keeps its neighbor candidates across steps (a Verlet list
  with skin R/10, valid while no body can have moved half the skin) and
  takes the same steps, bit for bit, as ``step_gradual``'s full search.
* jump: a piecewise deterministic process — each particle carries an
  exponential(1) clock; between events all positions move ballistically at
  unit speed along the body's first axis while orientations stay frozen; at
  an event the particle redraws its orientation from the von Mises
  distribution centered at its current neighborhood target.

The two forms are one dynamics, so each update is written once: ``_form``
picks the seven pieces that differ (lift, heading, two samplers, increment,
two target routes) and no other code branches on the representation.

Degenerate neighborhood averages (no well-defined target) fall back to the
particle's current orientation and are counted in the state, never fatal.
"""

import heapq
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .alignment import (
    KernelConfig,
    build_grid,
    neighbor_list,
    target_quaternion,
    target_quaternions_all,
    target_rotation,
    target_rotations_all,
    wrap_positions,
)
from .errors import DegenerateAverage, DomainError
from .rotations import quat_e1, quat_normalize, rot_to_quat, tangent_step
from .sampling import (
    sample_uniform_quat,
    sample_uniform_rot,
    sample_vonmises_quat,
    sample_vonmises_rot,
)

MATRIX = "matrix"
QUATERNION = "quaternion"
GRADUAL = "gradual"
JUMP = "jump"


@dataclass
class SimParams:
    """Parameters of one particle run.

    Attributes:
        n_particles: number of particles N >= 1.
        d: noise intensity D > 0.
        box: periodic box edge lengths (scalar broadcast to 3 axes).
        radius: interaction radius of the observation kernel.
        kernel: kernel shape, "indicator" or "smooth-bump".
        dt: time step (gradual model only).
        model: "gradual" or "jump".
        representation: "matrix" or "quaternion".
    """

    n_particles: int = 128
    d: float = 1.0
    box: float = 10.0
    radius: float = 1.0
    kernel: str = "indicator"
    dt: float = 2e-3
    model: str = GRADUAL
    representation: str = MATRIX

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.d <= 0.0:
            raise ValueError("noise intensity d must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.model not in (GRADUAL, JUMP):
            raise ValueError(f"unknown model: {self.model!r}")
        if self.representation not in (MATRIX, QUATERNION):
            raise ValueError(f"unknown representation: {self.representation!r}")

    def kernel_config(self):
        return KernelConfig(radius=self.radius, shape=self.kernel)

    def box_array(self):
        return np.broadcast_to(np.asarray(self.box, dtype=np.float64), (3,)).copy()


@dataclass
class ParticleState:
    """Positions and orientations of N particles at one instant.

    Attributes:
        t: current time.
        x: positions, shape (N, 3), wrapped into the box.
        orient: (N, 3, 3) rotations or (N, 4) unit quaternions, per ``kind``.
        kind: "matrix" or "quaternion".
        degenerate_count: number of degenerate-target fallbacks so far.
    """

    t: float
    x: np.ndarray
    orient: np.ndarray
    kind: str
    degenerate_count: int = 0

    @property
    def n(self):
        return self.x.shape[0]


def initial_state(params, rng, align_center=None, align_d=None):
    """Random initial condition: uniform positions, Haar or von Mises orientations.

    Args:
        params: SimParams.
        rng: numpy Generator.
        align_center: optional (3, 3) rotation; if given, orientations are
            sampled from the von Mises distribution around it with noise
            ``align_d`` instead of uniformly.
        align_d: concentration noise for the aligned initial condition.
    """
    n = params.n_particles
    form = _form(params.representation)
    x = rng.random((n, 3)) * params.box_array()
    if align_center is None:
        orient = form.uniform(rng, size=n)
    else:
        orient = form.vonmises(form.lift(align_center), align_d, rng, size=n)
    return ParticleState(t=0.0, x=x, orient=orient, kind=params.representation)


def _increment_matrix(a, target, d, dt, rng):
    """One Euler-polar step of dA = P_T(target dt + 2 sqrt(D) dB) for a batch.

    ``a`` must hold rotations: the polar factor of the step comes from the
    closed form :func:`~sohb.rotations.tangent_step`, which assumes it.
    ``target`` is one rotation per entry of ``a`` or a single constant one;
    dB is a matrix of N(0, dt) entries per entry of ``a``.
    """
    db = rng.standard_normal(a.shape) * np.sqrt(dt)
    incr = target * dt + 2.0 * np.sqrt(d) * db
    return tangent_step(a, incr)


def _increment_quat(q, target, d, dt, rng):
    """One Euler-renormalize step of the quaternion flow for a batch.

    The drift (qbar (x) qbar - I4/4) q equals (qbar . q) qbar - q/4; with
    noise sqrt(D/2) dB the increment is projected onto the orthogonal
    complement of q and the sum is renormalized.
    """
    dots = np.sum(target * q, axis=-1, keepdims=True)
    drift = dots * target - 0.25 * q
    db = rng.standard_normal(q.shape) * np.sqrt(dt)
    incr = drift * dt + np.sqrt(0.5 * d) * db
    incr -= np.sum(incr * q, axis=-1, keepdims=True) * q
    return quat_normalize(q + incr)


def _form(kind):
    """The seven pieces that differ between the matrix and the quaternion form.

    ``lift`` (rotation -> this form), ``heading`` (first body axis), the
    ``uniform`` and ``vonmises`` samplers, the gradual ``increment``, and the
    batched ``targets`` and single-row ``target``. Looked up at each call, so
    a wrapper later bound to one of these module names sees every use.
    """
    if kind == MATRIX:
        return SimpleNamespace(
            lift=lambda rot: rot, heading=lambda o: o[..., :, 0],
            uniform=sample_uniform_rot, vonmises=sample_vonmises_rot,
            increment=_increment_matrix, targets=target_rotations_all, target=target_rotation,
        )
    return SimpleNamespace(
        lift=rot_to_quat, heading=quat_e1,
        uniform=sample_uniform_quat, vonmises=sample_vonmises_quat,
        increment=_increment_quat, targets=target_quaternions_all, target=target_quaternion,
    )


def gradual_steps(t, t_end, dt):
    """Number of whole steps of ``dt`` from ``t`` to ``t_end``.

    Raises:
        DomainError: naming ``t_end`` when it is not finite, and ``dt`` when
            (t_end - t) / dt is not a whole number within 1e-9 relative (or
            is negative).
    """
    if not np.isfinite(t_end):
        raise DomainError(f"t_end: {t_end!r} is not finite")
    steps = (t_end - t) / dt
    if not abs(steps - np.rint(steps)) <= 1e-9 * steps:
        raise DomainError(f"dt: (t_end - t) / dt = {steps!r} is not a whole number of steps")
    return int(np.rint(steps))


#: Skin of the gradual model's Verlet list, in radii.
_VERLET_SKIN = 0.1


def _verlet_steps(params, box):
    """Steps a list searched at R + s still serves after the one it is built for.

    Bodies move at unit speed, so a pair distance changes by at most 2 dt
    per step and the list holds every pair within R for floor(s / (2 dt))
    steps. The factor 1 + 1e-6 allows for headings of length 1 only to
    rounding, and ``ulps`` for rounding in the wrapped positions and in the
    distances. Zero means a list serves one step only, so it takes no skin.
    """
    skin = _VERLET_SKIN * params.radius
    ulps = 16.0 * np.finfo(np.float64).eps * float(np.max(box))
    return int(max(skin - ulps, 0.0) // (2.0 * (params.dt * (1.0 + 1e-6) + ulps)))


def _neighbors(state, params, box, skin):
    """Neighbor list of the wrapped positions, searched at R + skin."""
    return neighbor_list(build_grid(state.x, box, params.radius), params.radius + skin)


def _step_gradual(state, params, rng, box, neighbors, t):
    """One gradual step from ``state`` to time ``t``, with ``neighbors``
    holding every pair within R of ``state.x``."""
    form = _form(state.kind)
    tgt, ok = form.targets(neighbors, params.kernel_config(), state.orient)
    if not np.all(ok):
        tgt = np.where(ok.reshape(ok.shape + (1,) * (tgt.ndim - 1)), tgt, state.orient)
    orient = form.increment(state.orient, tgt, params.d, params.dt, rng)
    return replace(
        state,
        t=t,
        x=wrap_positions(state.x + params.dt * form.heading(orient), box),
        orient=orient,
        degenerate_count=state.degenerate_count + int(np.sum(~ok)),
    )


def step_gradual(state, params, rng):
    """One synchronous step of the gradual model, in either form.

    Order of operations: freeze the configuration and compute every target
    (a degenerate average keeps the body's current orientation and is
    counted); apply the form's increment; advance positions along the new
    first axis. The neighbors come from a full search at the kernel radius.
    """
    box = params.box_array()
    return _step_gradual(state, params, rng, box, _neighbors(state, params, box, 0.0),
                         state.t + params.dt)


def run_gradual(state, params, rng, t_end, on_frame=None, save_every=1):
    """Advance the gradual model to t_end with fixed steps.

    The steps are those of :func:`step_gradual`, bit for bit, but share a
    Verlet list: the pairs within R + s, searched once and kept for as many
    steps as :func:`_verlet_steps` allows. Step k ends at t + k dt, the last
    one at ``t_end`` exactly.

    Args:
        on_frame: optional callback(state) invoked on the initial state and
            then after every ``save_every``-th step (and on the final step).

    Raises:
        DomainError: naming ``dt`` when t_end - t is not a whole number of
            steps; see :func:`gradual_steps`.
    """
    nsteps = gradual_steps(state.t, t_end, params.dt)
    box = params.box_array()
    reuse = _verlet_steps(params, box)
    skin = _VERLET_SKIN * params.radius if reuse else 0.0
    t0 = state.t
    if on_frame is not None:
        on_frame(state)
    for k in range(nsteps):
        if k % (reuse + 1) == 0:
            neighbors = _neighbors(state, params, box, skin)
        else:
            neighbors = neighbors.moved(state.x)
        t = t_end if k == nsteps - 1 else t0 + (k + 1) * params.dt
        state = _step_gradual(state, params, rng, box, neighbors, t)
        if on_frame is not None and ((k + 1) % save_every == 0 or k == nsteps - 1):
            on_frame(state)
    return state


#: The jump model rebuilds its candidate tree once it is this many radii old.
_TREE_SKIN = 0.5


def run_jump(state, params, rng, t_end, on_event=None):
    """Event-driven loop of the jump process until t_end.

    Draws an exponential(1) clock per particle at ``state.t`` (memoryless,
    so a resumed run keeps its law) and keeps them in a binary min-heap that
    holds one entry per particle (ties broken by index). Positions are lazy:
    particle i keeps an anchor (x_i, t_i) and is at wrap(x_i + (t - t_i) e1_i)
    at time t, so an event moves only the jumping particle's anchor, to its
    position at the event.
    Its neighbors are looked up in a periodic tree built at time t_b: the
    candidates within R + (t - t_b) of it hold every particle within R,
    since none moves faster than unit speed. The tree is rebuilt at the first
    event more than R/2 after t_b. The jumping particle's target is computed
    from the candidates' positions, its orientation is redrawn from the von
    Mises distribution centered at that target, and a fresh exponential(1)
    clock is armed: the same draws, in the same order, as transporting every
    particle to every event and averaging over all of them.

    Raises:
        DomainError: naming ``t_end`` unless it is finite and >= state.t.
        BoxTooSmall: if a box edge is shorter than 2R, even when no event
            fires before t_end.

    Returns:
        (state, events): final state at t_end and the full event log as a
        list of (time, particle_index) tuples.
    """
    if not (np.isfinite(t_end) and t_end >= state.t):
        raise DomainError(f"t_end: {t_end!r} is not a finite time >= t = {state.t!r}")
    box = params.box_array()
    radius = params.radius
    grid = build_grid(state.x, box, radius)
    n_total = state.n
    heap = list(zip((state.t + rng.exponential(1.0, size=n_total)).tolist(), range(n_total)))
    heapq.heapify(heap)
    anchor_x = state.x.copy()  # moved in place; the tree holds its own wrapped copy
    anchor_t = np.full(n_total, float(state.t))
    t_b = state.t
    orient = state.orient.copy()
    form = _form(state.kind)
    head = form.heading(orient)  # a view for matrices
    fallbacks = state.degenerate_count
    kernel = params.kernel_config()
    events = []

    while heap and heap[0][0] <= t_end:
        t, n = heapq.heappop(heap)
        if t - t_b > _TREE_SKIN * radius:
            grid = build_grid(anchor_x + (t - anchor_t)[:, None] * head, box, radius)
            t_b = t
        x_n = wrap_positions(anchor_x[n] + (t - anchor_t[n]) * head[n], box)
        cand = np.array(grid.tree.query_ball_point(x_n, radius + (t - t_b), return_sorted=True))
        # Unwrapped candidate positions: the target takes minimum images.
        x_cand = anchor_x[cand] + (t - anchor_t[cand])[:, None] * head[cand]
        k = int(np.searchsorted(cand, n))
        try:
            center = form.target(k, x_cand, box, orient[cand], kernel, n_total=n_total)
        except DegenerateAverage:
            center = orient[n]
            fallbacks += 1
        anchor_x[n] = x_n
        anchor_t[n] = t
        orient[n] = form.vonmises(center, params.d, rng)
        head[n] = form.heading(orient[n])
        events.append((t, n))
        if on_event is not None:
            on_event(t, n, orient[n])
        heapq.heappush(heap, (t + rng.exponential(1.0), n))

    x = wrap_positions(anchor_x + (t_end - anchor_t)[:, None] * head, box)
    return replace(state, t=t_end, x=x, orient=orient, degenerate_count=fallbacks), events


def run_single_in_field(
    model,
    representation,
    field,
    d,
    rng,
    t_end=None,
    dt=None,
    replicas=1,
    init="center",
    n_jumps=None,
):
    """Single particle relaxing toward a constant prescribed orientation field.

    The stationary orientation law is the von Mises distribution centered at
    the field for both mechanisms — exactly for the jump process, and in the
    dt -> 0 limit for the gradual flow. This is the law-validation harness.

    Args:
        model: "gradual" or "jump".
        representation: "matrix" or "quaternion".
        field: the prescribed rotation (3, 3); quaternion runs lift it.
        d: noise intensity.
        rng: numpy Generator.
        t_end: horizon (gradual only).
        dt: step (gradual only).
        replicas: number of independent copies integrated in parallel
            (gradual only); replica r uses the r-th row of each batched draw.
        init: "center" (start at the field) or "stationary" (start from an
            exact sample of the stationary law).
        n_jumps: number of events (jump only).

    Returns:
        Gradual: array of final orientations, shape (replicas, 3, 3) or
        (replicas, 4). Jump: (times, orients) — event times and post-jump
        orientations, shapes (M,) and (M, 3, 3) / (M, 4).

    Raises:
        DomainError: naming ``n_jumps`` if a jump run is not given one.
    """
    form = _form(representation)
    center = form.lift(np.asarray(field, dtype=np.float64))
    if model == JUMP:
        if n_jumps is None:
            raise DomainError("n_jumps: a jump run needs the number of events")
        m = int(n_jumps)
        times = np.cumsum(rng.exponential(1.0, size=m))
        return times, form.vonmises(center, d, rng, size=max(m, 1))[:m]

    if model != GRADUAL:
        raise ValueError(f"unknown model: {model!r}")
    nsteps = int(round(t_end / dt))
    r = int(replicas)
    if init == "stationary":
        orient = form.vonmises(center, d, rng, size=r)
    else:
        orient = np.broadcast_to(center, (r,) + center.shape).copy()
    for _ in range(nsteps):
        orient = form.increment(orient, center, d, dt, rng)
    return orient
