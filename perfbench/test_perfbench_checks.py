"""Each benchmark check passes a correct output and rejects a corrupted one.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sohb import alignment, frames, gci, macro, micro, sampling  # noqa: E402
from sohb.rng import make_rng  # noqa: E402


def _rotations(n, seed=0):
    q = make_rng(seed, 0).standard_normal((n, 4))
    return checks.quat_matrix(q / np.linalg.norm(q, axis=-1, keepdims=True))


def test_rotation_check_rejects_non_orthogonal_matrix():
    a = _rotations(50)
    assert checks.check_rotations(a, "ok") == []
    a[7, 0, 1] += 1e-6
    assert checks.check_rotations(a, "bad")


def test_rotation_check_rejects_reflection():
    a = _rotations(5)
    a[2] = -a[2]
    assert checks.check_rotations(a, "bad")


def test_quaternion_check_rejects_non_unit_quaternion():
    q = make_rng(1, 0).standard_normal((50, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    assert checks.check_quaternions(q, "ok") == []
    q[3] *= 1.0 + 1e-9
    assert checks.check_quaternions(q, "bad")


def test_position_check_rejects_the_box_edge():
    x = np.array([[0.0, 1.0, 9.5]])
    assert checks.check_positions(x, 10.0, "ok") == []
    assert checks.check_positions(np.array([[0.0, 1.0, 10.0]]), 10.0, "bad")
    assert checks.check_positions(np.array([[np.nan, 1.0, 1.0]]), 10.0, "bad")


def _logged_run(tmp_path, rep):
    n = 20
    params = micro.SimParams(n_particles=n, d=0.5, box=4.0, radius=1.0, dt=2e-3, representation=rep)
    rng = make_rng(3, 0)
    state = micro.initial_state(params, rng)
    path = str(tmp_path / f"{rep}.ndjson")
    with frames.FrameWriter(path) as writer:
        state = micro.run_gradual(state, params, rng, 0.01, on_frame=writer.write_state)
    return path, n, state


@pytest.mark.parametrize("rep", [micro.MATRIX, micro.QUATERNION])
def test_frame_log_check_rejects_altered_record(tmp_path, rep):
    path, n, state = _logged_run(tmp_path, rep)
    assert checks.check_frame_log(path, n, 6, state.x, state.orient, "ok") == []
    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[-3])
    record["x"][1] = float(np.nextafter(record["x"][1], 10.0))
    lines[-3] = json.dumps(record, separators=(",", ":"))
    Path(path).write_text("\n".join(lines) + "\n")
    assert checks.check_frame_log(path, n, 6, state.x, state.orient, "bad")


def test_frame_log_check_rejects_missing_record(tmp_path):
    path, n, state = _logged_run(tmp_path, micro.MATRIX)
    lines = Path(path).read_text().splitlines()
    Path(path).write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_frame_log(path, n, 6, state.x, state.orient, "bad")


def _jump_run(rep):
    params = micro.SimParams(n_particles=60, d=0.5, box=4.0, radius=1.0, model=micro.JUMP, representation=rep)
    rng = make_rng(4, 0)
    state = micro.initial_state(params, rng)
    log = []
    final, _ = micro.run_jump(state, params, rng, 0.5, on_event=lambda t, n, o: log.append((t, n, o.copy())))
    return state, final, log


@pytest.mark.parametrize("rep", [micro.MATRIX, micro.QUATERNION])
def test_jump_replay_check_rejects_shifted_event_time(rep):
    state, final, log = _jump_run(rep)
    args = (state.x, state.orient, log, 0.0, 0.5, 4.0, final.x, final.orient)
    assert len(log) > 10
    assert checks.check_jump_replay(*args, "ok") == []
    t, n, o = log[5]
    log[5] = (t + 1e-3, n, o)
    assert checks.check_jump_replay(*args, "bad")


def test_jump_replay_check_rejects_altered_orientation():
    state, final, log = _jump_run(micro.MATRIX)
    orient = final.orient.copy()
    orient[log[-1][1]] = np.eye(3)
    assert checks.check_jump_replay(state.x, state.orient, log, 0.0, 0.5, 4.0, final.x, orient, "bad")


def test_event_count_check_follows_poisson():
    assert checks.check_event_count(1000, 1000.0, "ok") == []
    assert checks.check_event_count(1150, 1000.0, "ok") == []
    assert checks.check_event_count(1300, 1000.0, "bad")


def _macro_fields():
    consts = gci.constants(1.0, gci.GRADUAL)
    f_mat, f_quat = workloads.twisted_field_3d((8, 6, 6), make_rng(5, 0))
    m0 = float(np.sum(f_mat.rho))
    for _ in range(3):
        f_mat = macro.step_macro(f_mat, consts, 0.01)
        f_quat = macro.step_macro(f_quat, consts, 0.01)
    return m0, f_mat, f_quat


def test_mass_check_rejects_perturbed_mass():
    m0, f_mat, _ = _macro_fields()
    assert checks.check_mass(m0, float(np.sum(f_mat.rho)), "ok") == []
    rho = f_mat.rho.copy()
    rho[1, 2, 3] *= 1.0 + 1e-9
    assert checks.check_mass(m0, float(np.sum(rho)), "bad")


def test_route_gap_check_rejects_a_diverging_route():
    _, f_mat, f_quat = _macro_fields()
    h_max = float(np.max(f_mat.spacing))
    gap = checks.route_gap(f_mat.orient, f_quat.orient)
    assert checks.check_route_gap(gap, 0.03, 0.01, h_max, "ok") == []
    rotated = f_mat.orient @ _rotations(1, seed=9)[0]
    bad = checks.route_gap(rotated, f_quat.orient)
    assert checks.check_route_gap(bad, 0.03, 0.01, h_max, "bad")


def test_constants_check_rejects_perturbed_constant():
    profile = gci.solve_h(1.0)
    cs = gci.constants(1.0, gci.GRADUAL, method="simpson", profile=profile)
    cg = gci.constants(1.0, gci.GRADUAL, method="gauss", profile=profile)
    assert checks.check_constants(cs, cg, 1.0, "ok") == []
    assert checks.check_constants(dataclasses.replace(cs, c4=cs.c4 + 1e-9), cg, 1.0, "bad")
    assert checks.check_constants(dataclasses.replace(cs, c3=0.5000000001), cg, 1.0, "bad")


def test_pair_count_check_matches_sohb_and_rejects_a_wrong_count():
    x = make_rng(6, 0).random((400, 3)) * 5.0
    i, _, _ = alignment.neighbor_pairs(alignment.build_grid(x, 5.0, 1.0), 1.0)
    assert checks.check_pair_count(x, 5.0, 1.0, len(i), "ok") == []
    assert checks.check_pair_count(x, 5.0, 1.0, len(i) + 2, "bad")


def test_scale_free_check_tells_small_from_degenerate():
    x = np.full((2, 3), 0.5)
    aligned = np.stack([np.eye(3), np.eye(3)])
    assert checks.check_not_degenerate(x, aligned, 4.0, 1.0, "ok") == []
    antipodal = np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0])])
    assert checks.check_not_degenerate(x, antipodal, 4.0, 1.0, "bad")


def test_same_law_check_rejects_shifted_sample():
    rng = make_rng(7, 0)
    a, b = rng.random(2000), rng.random(2000)
    assert checks.check_same_law(a, b, "ok") == []
    assert checks.check_same_law(a, b + 0.2, "bad")


def test_anchor_check_rejects_wrong_noise_level():
    rng = make_rng(8, 0)
    field = np.eye(3)
    good = sampling.sample_vonmises_rot(field, 1.0, rng, size=20000)
    angles = checks.rotation_angles(field, good)
    assert checks.check_anchor(angles, 0.0, 1.0, "ok") == []
    wide = sampling.sample_vonmises_rot(field, 1.3, rng, size=20000)
    assert checks.check_anchor(checks.rotation_angles(field, wide), 0.0, 1.0, "bad")


def test_failure_counter_counts_a_forced_fallback():
    class Tiny(workloads.Gradual20k):
        N, DENSITY = 2, 0.25

    wl = Tiny(1, ".", spans.NullTracer(), probe.Probe())
    # Two bodies at one point, turned by pi against each other: their mean
    # has rank one, so the matrix target must fall back.
    state = wl.states[micro.MATRIX]
    wl.states[micro.MATRIX] = micro.ParticleState(
        t=0.0, x=np.full((2, 3), 0.5), orient=np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0])]),
        kind=state.kind)
    wl.run_round(0)
    assert (wl.attempted, wl.failed) == (2, 1)


def test_split_clock_rng_shares_event_times():
    logs = []
    for rep in (micro.MATRIX, micro.QUATERNION):
        rng = workloads.SplitClockRng(make_rng(1, 0), make_rng(2 + len(logs), 0))
        params = micro.SimParams(n_particles=40, d=0.5, box=4.0, radius=1.0, model=micro.JUMP, representation=rep)
        state = micro.initial_state(params, rng)
        log = []
        micro.run_jump(state, params, rng, 0.5, on_event=lambda t, n, o: log.append((t, n)))
        logs.append(log)
    assert logs[0] == logs[1] and len(logs[0]) > 5
