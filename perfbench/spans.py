"""Spans around sohb's public functions, installed from outside the package.

A span wraps a function under the module attribute its caller looks it up
by (``sohb.micro.retract`` and ``sohb.macro.retract`` are two wraps of one
function), so nothing under ``src/`` changes. Spans are kept in memory and
written once, when the traced run ends. A wrapped name that sohb no longer
has is reported as absent.
"""

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

clock = time.perf_counter

#: (module, attribute, span name): the span name is the layer metric's stem.
PATCHES = (
    ("sohb.micro", "build_grid", "alignment.build_grid"),
    ("sohb.alignment", "neighbor_pairs", "alignment.neighbor_pairs"),
    ("sohb.alignment", "average_rotation_matrix", "alignment.weighted_sums"),
    ("sohb.alignment", "average_qtensor", "alignment.weighted_sums"),
    ("sohb.micro", "target_rotation", "alignment.direct_target"),
    ("sohb.micro", "target_quaternion", "alignment.direct_target"),
    ("sohb.alignment", "polar_rotation_or_mask", "rotations.polar"),
    ("sohb.alignment", "polar_rotation", "rotations.polar"),
    ("sohb.alignment", "max_eigvec_or_mask", "rotations.eigh"),
    ("sohb.alignment", "max_eigvec", "rotations.eigh"),
    ("sohb.micro", "project_tangent", "rotations.project_tangent"),
    ("sohb.micro", "retract", "rotations.retract"),
    ("sohb.macro", "retract", "rotations.retract"),
    ("sohb.micro", "wrap_positions", "micro.wrap_positions"),
    ("sohb.micro", "sample_vonmises_rot", "sampling.vonmises"),
    ("sohb.micro", "sample_vonmises_quat", "sampling.vonmises"),
    ("sohb.weak_error", "angle_transition_matrix", "weak_error.kernel_build"),
    ("sohb.weak_error", "stationary_angle_law", "weak_error.stationary_solve"),
    ("sohb.gci", "solve_h", "gci.solve_h"),
    ("sohb.gci", "constants", "gci.constants"),
    ("sohb.macro", "orientation_gradient", "macro.orientation_gradient"),
    ("sohb.macro", "rel_gradient", "macro.rel_gradient"),
    ("sohb.macro", "step_macro", "macro.step"),
    ("sohb.frames", "FrameWriter.write_state", "frames.write_state"),
)

#: Per-layer metric -> span name whose self seconds per round it reports.
SELF_TIME_METRICS = {
    "alignment.build_grid_s": "alignment.build_grid",
    "alignment.neighbor_pairs_s": "alignment.neighbor_pairs",
    "alignment.weighted_sums_s": "alignment.weighted_sums",
    "alignment.direct_target_s": "alignment.direct_target",
    "rotations.polar_s": "rotations.polar",
    "rotations.eigh_s": "rotations.eigh",
    "rotations.project_tangent_s": "rotations.project_tangent",
    "rotations.retract_s": "rotations.retract",
    "micro.wrap_positions_s": "micro.wrap_positions",
    "sampling.vonmises_s": "sampling.vonmises",
    "rng.draw_s": "rng.draw",
    "weak_error.kernel_build_s": "weak_error.kernel_build",
    "weak_error.stationary_solve_s": "weak_error.stationary_solve",
    "gci.solve_h_s": "gci.solve_h",
    "gci.constants_s": "gci.constants",
    "macro.orientation_gradient_s": "macro.orientation_gradient",
    "macro.rel_gradient_s": "macro.rel_gradient",
    "macro.step_self_s": "macro.step",
    "frames.write_state_s": "frames.write_state",
}

#: Per-layer metric -> span name whose calls per round it reports.
CALL_COUNT_METRICS = {
    "sampling.vonmises_calls": "sampling.vonmises",
    "rng.draw_calls": "rng.draw",
}


class TracedRng:
    """Generator proxy that records an ``rng.draw`` span per method call."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        return self._tracer.wrap(attr, "rng.draw") if callable(attr) else attr


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    active = False
    round = -1

    def span(self, name):
        return nullcontext()

    def rng(self, gen):
        return gen


class Tracer:
    """In-memory spans: [name, start, end, parent index, round].

    Wrappers record only while ``active``; ``round`` tags each span with the
    benchmark round it belongs to (-1 outside rounds).
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False
        self.round = -1
        self.absent = []
        self.pairs = 0
        self.pair_rows = 0
        self.first_pair_call = None

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._stack[-1] if self._stack else -1, self.round])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = clock()

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def rng(self, gen):
        return TracedRng(gen, self)

    def _observe_pairs(self, args, kwargs, result):
        grid = args[0] if args else kwargs.get("grid")
        positions = getattr(grid, "positions", None)
        if positions is None:
            return
        self.pairs += len(result[0])
        self.pair_rows += len(positions)
        if self.first_pair_call is None:
            radius = args[1] if len(args) > 1 else kwargs.get("radius")
            box = float(grid.box[0])
            self.first_pair_call = (positions.copy(), box, float(radius), len(result[0]))

    def install(self):
        """Wrap every name in PATCHES that sohb still has; note the others."""
        for module_name, attr, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            observe = self._observe_pairs if span_name == "alignment.neighbor_pairs" else None
            setattr(owner, leaf, self.wrap(fn, span_name, observe))

    def per_round(self):
        """{round: {span name: [self seconds, calls]}} over traced rounds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for idx, (name, start, end, _, rnd) in enumerate(self.spans):
            if rnd >= 0:
                cell = out[rnd][name]
                cell[0] += end - start - child[idx]
                cell[1] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round"],
                       "absent": self.absent, "spans": self.spans}, fh)
