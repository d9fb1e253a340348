"""The benchmark's workloads.

A workload builds its inputs from the seed when it is constructed, then runs
whole rounds of the same operations; ``run_round(r)`` draws round r's inputs
from (seed, r), so running round r twice (as a traced run does) repeats its
inputs; data kept for the checks is keyed by round. Every operation is recorded per representation ("matrix" or
"quaternion") as (start, end, units of work), with the calibration probe run
between operations and never inside one. Checks append problem strings to
``problems``; ``finish`` runs the checks that need every round.

Matrix operations on gradual-20k and jump-8k fail every time: the absolute
determinant floor ``rotations.DELTA_DET`` flags every matrix average there as
degenerate (see README.md). Those operations, and gradual-512-logged's matrix
run, where the floor strikes on some seeds only, run on inputs built from
FIXED_SEED, never from --seed, so the count of failures is the same in every
run; their quaternion counterparts use the seed.
"""

import os

import numpy as np

import checks
from probe import clock
from sohb import frames, gci, macro, micro, rotations, sampling, weak_error
from sohb.rng import make_rng

MATRIX = micro.MATRIX
QUATERNION = micro.QUATERNION
REPS = (MATRIX, QUATERNION)

#: Seed of the matrix runs' inputs, which must not depend on --seed.
FIXED_SEED = 181006903


class SplitClockRng:
    """Generator facade: ``exponential`` (the jump clocks) draws from one
    stream and every other method from another, so two runs given clock
    streams in the same state see the same event times."""

    def __init__(self, clocks, other):
        self.exponential = clocks.exponential
        self._other = other

    def __getattr__(self, name):
        return getattr(self._other, name)


def _params(rep, n, box, **kw):
    return micro.SimParams(n_particles=n, box=box, radius=1.0, representation=rep, **kw)


class Workload:
    """Bookkeeping shared by the workloads."""

    op_unit = "op"

    def __init__(self, seed, out_dir, tracer, probe):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.probe = probe
        self.ops = {MATRIX: [], QUATERNION: []}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.round_counts = {}

    def count(self, **values):
        """Add per-round counts for the layer metrics of the traced round."""
        counts = self.round_counts.setdefault(self.tracer.round, {})
        for key, value in values.items():
            counts[key] = counts.get(key, 0) + value

    def timed(self, rep, units, fn, *args, **kwargs):
        """Call fn as one operation of ``units`` units of work, probing first."""
        self.probe.maybe()
        t0 = clock()
        with self.tracer.span(f"op.{fn.__name__}.{rep}"):
            out = fn(*args, **kwargs)
        self.ops[rep].append((t0, clock(), units))
        return out

    def finish(self):
        pass


class CallbackTimer:
    """Times the work between consecutive callbacks of a sohb run loop as
    operations, running the probe between them."""

    def __init__(self, probe):
        self.probe = probe
        self.spans = []
        self.start = clock()

    def tick(self):
        self.spans.append((self.start, clock(), 1))
        self.probe.maybe()
        self.start = clock()


class Gradual20k(Workload):
    """Synchronous gradual steps at N = 20 000, density 2.5, aligned start.

    A round is one ``step_gradual`` per representation; the states carry over
    from round to round.
    """

    op_unit = "gradual step"
    N, DENSITY, D, DT, ALIGN_D = 20_000, 2.5, 1.0, 2e-3, 0.2

    def __init__(self, seed, out_dir, tracer, probe):
        super().__init__(seed, out_dir, tracer, probe)
        self.box = (self.N / self.DENSITY) ** (1.0 / 3.0)
        self.params, self.rngs, self.states = {}, {}, {}
        for rep, key in ((MATRIX, FIXED_SEED), (QUATERNION, seed)):
            self.params[rep] = _params(rep, self.N, self.box, d=self.D, dt=self.DT)
            self.rngs[rep] = tracer.rng(make_rng(key, 20))
            center = sampling.sample_uniform_rot(self.rngs[rep])
            self.states[rep] = micro.initial_state(
                self.params[rep], self.rngs[rep], align_center=center, align_d=self.ALIGN_D
            )
        self.initial_matrix = self.states[MATRIX]

    def run_round(self, r):
        for rep in REPS:
            before = self.states[rep]
            after = self.timed(rep, 1, micro.step_gradual, before, self.params[rep], self.rngs[rep])
            fallbacks = after.degenerate_count - before.degenerate_count
            self.attempted += 1
            self.failed += fallbacks > 0
            self.count(fallbacks=fallbacks)
            self.states[rep] = after

    def finish(self):
        for rep, state in self.states.items():
            self.problems += checks.check_orientations(state.orient, f"gradual-20k {rep}")
            self.problems += checks.check_positions(state.x, self.box, f"gradual-20k {rep}")
        for name, state in (("initial", self.initial_matrix), ("final", self.states[MATRIX])):
            self.problems += checks.check_not_degenerate(
                state.x, state.orient, self.box, 1.0, f"gradual-20k {name} matrix")


class Gradual512Logged(Workload):
    """Criterion 6's configuration run through ``run_gradual`` with an NDJSON
    frame log written at every step, as ``sohb simulate --out`` does.

    Every round starts both representations from one initial state built
    from FIXED_SEED, and the matrix run repeats one fixed trajectory: at this
    configuration the absolute determinant floor flags a matrix target now
    and then (6 of 360 matrix steps at seed 16), so a seeded matrix run would
    fail on some seeds only. The quaternion run draws its noise from the seed.
    """

    op_unit = "gradual step with its frame"
    N, BOX, D, DT, T_END, ALIGN_D = 512, 4.0, 0.5, 2e-3, 0.24, 0.5
    STEPS = 120

    def __init__(self, seed, out_dir, tracer, probe):
        super().__init__(seed, out_dir, tracer, probe)
        self.params = {rep: _params(rep, self.N, self.BOX, d=self.D, dt=self.DT) for rep in REPS}
        self.stats = {}
        self.last = {}

    def run_round(self, r):
        init = self.tracer.rng(make_rng(FIXED_SEED, 6000))
        center = sampling.sample_uniform_rot(init)
        x0 = init.random((self.N, 3)) * self.BOX
        a0 = sampling.sample_vonmises_rot(center, self.ALIGN_D, init, size=self.N)
        for rep, key, stream in ((MATRIX, FIXED_SEED, 7000), (QUATERNION, self.seed, 7001 + r)):
            orient0 = a0.copy() if rep == MATRIX else rotations.rot_to_quat(a0)
            state = micro.ParticleState(t=0.0, x=x0.copy(), orient=orient0, kind=rep)
            dyn = self.tracer.rng(make_rng(key, stream))
            path = os.path.join(self.out_dir, f"gradual-512-logged-{rep}.ndjson")
            timer, fallbacks = CallbackTimer(self.probe), []
            meta = {"workload": "gradual-512-logged", "seed": self.seed, "round": r}
            with frames.FrameWriter(path, metadata=meta) as writer:
                def on_frame(s):
                    writer.write_state(s)
                    timer.tick()
                    fallbacks.append(s.degenerate_count)

                with self.tracer.span("op.run_gradual." + rep):
                    state = micro.run_gradual(state, self.params[rep], dyn, self.T_END, on_frame=on_frame)
            # The first span ends with the initial frame, before any step.
            self.ops[rep] += timer.spans[1:]
            self.attempted += len(fallbacks) - 1
            self.failed += int(np.count_nonzero(np.diff(fallbacks)))
            self.count(fallbacks=state.degenerate_count,
                       frame_bytes=os.path.getsize(path), frames=len(fallbacks))
            label = f"gradual-512-logged round {r} {rep}"
            self.problems += checks.check_orientations(state.orient, label)
            self.problems += checks.check_positions(state.x, self.BOX, label)
            if r == 0:
                self.stats[rep] = checks.alignment_stats(state.orient)
            self.last[rep] = (path, len(fallbacks), state)

    def finish(self):
        for rep, (path, n_frames, state) in self.last.items():
            if n_frames != self.STEPS + 1:
                self.problems.append(f"gradual-512-logged {rep}: {n_frames} frames, expected {self.STEPS + 1}")
            self.problems += checks.check_frame_log(
                path, self.N, n_frames, state.x, state.orient, f"gradual-512-logged {rep} log")
        self.problems += checks.check_same_law(
            self.stats[MATRIX], self.stats[QUATERNION], "gradual-512-logged matrix vs quaternion")


class Jump8k(Workload):
    """``run_jump`` at N = 8 000, density 2.5, aligned start, about 1000 events
    per representation and round.

    Both representations of a round draw their clocks from one stream, so
    they see the same event times and the same number of events.
    """

    op_unit = "jump event"
    N, DENSITY, D, ALIGN_D, T_END = 8_000, 2.5, 0.2, 0.2, 0.125

    def __init__(self, seed, out_dir, tracer, probe):
        super().__init__(seed, out_dir, tracer, probe)
        self.box = (self.N / self.DENSITY) ** (1.0 / 3.0)
        self.params = {rep: _params(rep, self.N, self.box, d=self.D, model=micro.JUMP) for rep in REPS}
        sampling.get_angle_table(self.D)

    def run_round(self, r):
        for rep, key in ((MATRIX, FIXED_SEED), (QUATERNION, self.seed)):
            rng = self.tracer.rng(SplitClockRng(make_rng(FIXED_SEED, 8000 + r), make_rng(key, 8100 + r)))
            center = sampling.sample_uniform_rot(rng)
            state = micro.initial_state(self.params[rep], rng, align_center=center, align_d=self.ALIGN_D)
            log = []
            self.probe.maybe()
            timer = CallbackTimer(self.probe)

            def on_event(t, n, orient):
                log.append((t, n, orient.copy()))
                timer.tick()

            with self.tracer.span("op.run_jump." + rep):
                final, events = micro.run_jump(state, self.params[rep], rng, self.T_END, on_event=on_event)
            self.ops[rep] += timer.spans
            fallbacks = final.degenerate_count - state.degenerate_count
            self.attempted += len(log)
            self.failed += fallbacks
            self.count(fallbacks=fallbacks, events=len(log))
            label = f"jump-8k round {r} {rep}"
            if len(events) != len(log):
                self.problems.append(f"{label}: {len(events)} events returned, {len(log)} reported")
            self.problems += checks.check_event_count(len(log), self.N * self.T_END, label)
            self.problems += checks.check_jump_replay(
                state.x, state.orient, log, state.t, self.T_END, self.box, final.x, final.orient, label)
            self.problems += checks.check_orientations(final.orient, label)
            self.problems += checks.check_positions(final.x, self.box, label)
            if rep == MATRIX:
                for name, s in (("initial", state), ("final", final)):
                    self.problems += checks.check_not_degenerate(
                        s.x, s.orient, self.box, 1.0, f"{label} {name}")


class Law(Workload):
    """Criteria 5 and 7 at reduced size: the angle-law solve at criterion 5's
    anchor step, single-particle gradual runs in a fixed field, and the
    collision-invariant constants at a seeded noise level."""

    op_unit = "replica step"
    D, DT, T_END, REPLICAS, CALLS = 1.0, 1.6e-2, 1.5, 500, 8

    def __init__(self, seed, out_dir, tracer, probe):
        super().__init__(seed, out_dir, tracer, probe)
        self.steps = int(round(self.T_END / self.DT))
        self.angles = {}
        self.ks_population = {}
        sampling.get_angle_table(self.D)

    def run_round(self, r):
        with self.tracer.span("op.angle_law"):
            self.ks_population[r] = weak_error.scheme_angle_ks(self.D, self.DT)
        self.attempted += 1
        rng = self.tracer.rng(make_rng(self.seed, 5000 + r))
        field = sampling.sample_uniform_rot(rng)
        for rep in REPS:
            for call in range(self.CALLS):
                out = self.timed(
                    rep, self.REPLICAS * self.steps, micro.run_single_in_field,
                    micro.GRADUAL, rep, field, self.D, rng, t_end=self.T_END, dt=self.DT,
                    replicas=self.REPLICAS, init="stationary")
                self.attempted += 1
                self.problems += checks.check_orientations(out, f"law round {r} {rep} field run")
                if rep == MATRIX:
                    self.angles[r, call] = checks.rotation_angles(field, out)
        d = float(rng.uniform(0.2, 5.0))
        with self.tracer.span("op.constants"):
            profile = gci.solve_h(d)
            cs = gci.constants(d, gci.GRADUAL, method="simpson", profile=profile)
            cg = gci.constants(d, gci.GRADUAL, method="gauss", profile=profile)
        self.problems += checks.check_constants(cs, cg, d, f"law round {r} D={d:.4g}")

    def finish(self):
        values = set(self.ks_population.values())
        if len(values) != 1:
            self.problems.append(f"law: angle-law KS differs between rounds {sorted(values)}")
        self.problems += checks.check_anchor(
            np.concatenate(list(self.angles.values())), self.ks_population[0], self.D, "law anchor")


def twisted_field_3d(shape, rng, amp=0.3, rho_amp=0.2):
    """A smooth periodic density and orientation field varying along all three axes.

    qbar = qz(a) qx(b) qy(c) with angles a, b, c products of sines in two
    coordinates each and random phases; the lift is sign-continuous because
    every factor stays within a small angle of the identity. Built with
    ``checks.quat_matrix`` so the inputs do not rest on sohb's conversions.
    """
    length = 2.0 * np.pi
    x, y, z = np.meshgrid(*[np.arange(n) * (length / n) for n in shape], indexing="ij")
    ph = rng.uniform(0.0, 2.0 * np.pi, 6)
    angles = (
        (3, amp * np.sin(x + ph[0]) * np.cos(y + ph[1])),
        (1, amp * np.cos(y + ph[2]) * np.sin(z + ph[3])),
        (2, amp * np.sin(z + ph[4]) * np.cos(x + ph[5])),
    )
    q = None
    for axis, angle in angles:
        f = np.zeros(shape + (4,))
        f[..., 0] = np.cos(0.5 * angle)
        f[..., axis] = np.sin(0.5 * angle)
        q = f if q is None else _quat_product(q, f)
    rho = 1.0 + rho_amp * np.sin(x + ph[1]) * np.cos(y + ph[3]) * np.sin(z + ph[5])
    box = np.full(3, length)
    f_mat = macro.MacroField(0.0, box, rho.copy(), checks.quat_matrix(q), macro.MATRIX)
    f_quat = macro.MacroField(0.0, box, rho.copy(), q, macro.QUATERNION)
    return f_mat, f_quat


def _quat_product(p, q):
    pw, pv = p[..., :1], p[..., 1:]
    qw, qv = q[..., :1], q[..., 1:]
    w = pw * qw - np.sum(pv * qv, axis=-1, keepdims=True)
    v = pw * qv + qw * pv + np.cross(pv, qv)
    return np.concatenate([w, v], axis=-1)


class Macro3d(Workload):
    """Criterion 10 on a field that varies along all three axes: ``step_macro``
    in both forms from one initial state, constants at D = 1 from set-up."""

    op_unit = "cell step"
    SHAPE, DT, STEPS, D = (48, 24, 24), 0.01, 8, 1.0

    def __init__(self, seed, out_dir, tracer, probe):
        super().__init__(seed, out_dir, tracer, probe)
        self.consts = gci.constants(self.D, gci.GRADUAL)
        self.cells = int(np.prod(self.SHAPE))

    def run_round(self, r):
        fields = twisted_field_3d(self.SHAPE, make_rng(self.seed, 9000 + r))
        m0 = float(np.sum(fields[0].rho))
        out = {}
        for rep, field in zip(REPS, fields):
            for _ in range(self.STEPS):
                field = self.timed(rep, self.cells, macro.step_macro, field, self.consts, self.DT)
                self.attempted += 1
            label = f"macro-3d round {r} {rep}"
            self.problems += checks.check_mass(m0, float(np.sum(field.rho)), label)
            self.problems += checks.check_orientations(field.orient, label)
            self.problems += checks.check_density(field.rho, label)
            out[rep] = field
        gap = checks.route_gap(out[MATRIX].orient, out[QUATERNION].orient)
        h_max = float(np.max(out[MATRIX].spacing))
        self.problems += checks.check_route_gap(
            gap, self.STEPS * self.DT, self.DT, h_max, f"macro-3d round {r}")


WORKLOADS = {
    "gradual-20k": Gradual20k,
    "gradual-512-logged": Gradual512Logged,
    "jump-8k": Jump8k,
    "law": Law,
    "macro-3d": Macro3d,
}
