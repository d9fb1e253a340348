"""Config validation, estimators, frame logs, RNG streams, and the CLI."""

import json

import numpy as np
import pytest

from sohb.cli import main
from sohb.config import DEFAULTS, load_config, sim_params_from_config, validate_data
from sohb.errors import ParseError, SchemaError, TooFewSamples
from sohb.estimators import ks_one_sample, ks_two_sample, order_parameter
from sohb.frames import FrameWriter, read_frames, read_metadata
from sohb.gci import constants as gci_constants
from sohb.micro import JUMP, MATRIX, QUATERNION, SimParams, initial_state, run_jump
from sohb.rng import make_rng
from sohb.rotations import quat_to_rot
from sohb.sampling import c1 as sampling_c1
from sohb.sampling import sample_uniform_rot, sample_vonmises_rot


# --- configuration ---------------------------------------------------------------


def test_minimal_config_gets_defaults():
    cfg = load_config({})
    assert cfg == DEFAULTS
    params = sim_params_from_config(cfg)
    assert isinstance(params, SimParams)
    assert params.n_particles == 128 and params.dt == 2e-3


def test_macro_block_defaults_merge():
    cfg = load_config({"macro": {"grid": [32, 1, 1]}})
    assert cfg["macro"]["grid"] == [32, 1, 1]
    assert cfg["macro"]["viscosity"] == 0.5  # untouched default


def test_macro_grid_must_be_one_dimensional():
    """The macro run varies along x only, so a 3D grid is refused, not echoed."""
    with pytest.raises(SchemaError) as exc:
        load_config({"macro": {"grid": [16, 16, 16]}})
    assert exc.value.path.startswith("macro.grid")


def test_negative_d_names_the_field():
    with pytest.raises(SchemaError) as exc:
        load_config({"d": -1.0})
    assert exc.value.path == "d"
    assert "d" in str(exc.value)


def test_unknown_key_rejected():
    with pytest.raises(SchemaError) as exc:
        load_config({"n_particles": 64})  # the key is spelled "n"
    assert "n_particles" in str(exc.value)


def test_bad_types_listed_by_validate():
    problems = validate_data({"n": "many", "model": "ballistic"})
    assert len(problems) == 2
    assert any(p.startswith("model:") for p in problems)
    assert any(p.startswith("n:") for p in problems)


@pytest.mark.parametrize("text, field", [
    ('{"model": "jump", "t_end": NaN}', "t_end"),
    ('{"t_end": Infinity}', "t_end"),
    ('{"d": NaN}', "d"),
    ('{"macro": {"viscosity": Infinity}}', "macro.viscosity"),
])
def test_non_finite_numbers_name_the_field(tmp_path, text, field):
    """Python's json reads NaN and Infinity, and both pass ``minimum``."""
    problems = validate_data(json.loads(text))
    assert len(problems) == 1
    assert problems[0].startswith(f"{field}: ") and "is not of type 'number'" in problems[0]
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(SchemaError) as exc:
        load_config(str(path))
    assert exc.value.path == field


def test_unparseable_file_raises(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(str(bad))


# --- estimators --------------------------------------------------------------------


def test_order_parameter_perfect_alignment():
    rot = sample_uniform_rot(make_rng(70, 0))
    rep = order_parameter(np.broadcast_to(rot, (500, 3, 3)), MATRIX)
    assert rep.value == pytest.approx(1.5, abs=1e-12)
    assert rep.stderr == pytest.approx(0.0, abs=1e-13)
    assert rep.n == 500


def test_order_parameter_uniform_is_degenerate():
    """An isotropic ensemble has no mean direction: the estimator says so."""
    from sohb.errors import DegenerateAverage

    rng = make_rng(70, 1)
    with pytest.raises(DegenerateAverage):
        order_parameter(sample_uniform_rot(rng, size=4000), MATRIX)


def test_order_parameter_matches_alignment_moment():
    """Aligned ensembles concentrate at 1.5 c1(D), the first-moment constant."""
    d = 1.0
    rng = make_rng(70, 2)
    center = sample_uniform_rot(rng)
    draws = sample_vonmises_rot(center, d, rng, size=20_000)
    rep = order_parameter(draws, MATRIX)
    assert abs(rep.value - 1.5 * sampling_c1(d)) < 5.0 * rep.stderr


def test_order_parameter_quaternion_kind():
    from sohb.sampling import sample_vonmises_quat
    from sohb.rotations import rot_to_quat

    d = 0.5
    center = sample_uniform_rot(make_rng(70, 30))
    quats = sample_vonmises_quat(rot_to_quat(center), d, make_rng(70, 3), size=5000)
    rots = sample_vonmises_rot(center, d, make_rng(70, 3), size=5000)
    # paired construction: identical statistic through either kind
    a = order_parameter(quats, QUATERNION)
    b = order_parameter(rots, MATRIX)
    assert a.value == pytest.approx(b.value, abs=1e-10)


def test_estimators_require_enough_samples():
    with pytest.raises(TooFewSamples):
        order_parameter(np.eye(3)[None], MATRIX)
    with pytest.raises(TooFewSamples):
        ks_one_sample(np.linspace(0, 1, 50), lambda x: x)
    with pytest.raises(TooFewSamples):
        ks_two_sample(np.linspace(0, 1, 50), np.linspace(0, 1, 200))


def test_ks_identical_samples():
    rng = make_rng(70, 4)
    a = rng.random(500)
    rep = ks_two_sample(a, a.copy())
    assert rep.statistic == 0.0
    assert rep.p_value == pytest.approx(1.0)
    assert rep.n_a == 500 and rep.n_b == 500


def test_ks_detects_shift():
    rng = make_rng(70, 5)
    a = rng.random(2000)
    rep = ks_one_sample(np.clip(a + 0.05, 0, 1), lambda x: np.clip(x, 0, 1))
    assert rep.p_value < 1e-6


def test_ks_null_calibration():
    """Under the null the one-sample test rejects at close to its nominal rate."""
    alpha = 0.05
    rejections = 0
    for trial in range(100):
        rng = make_rng(71, trial)
        rep = ks_one_sample(rng.random(10_000), lambda x: np.clip(x, 0.0, 1.0))
        rejections += rep.p_value < alpha
    assert alpha / 3 <= rejections / 100 <= 3 * alpha


# --- frame logs -------------------------------------------------------------------


def test_frame_round_trip_exact(tmp_path):
    path = str(tmp_path / "run.ndjson")
    params = SimParams(n_particles=3, d=1.0, box=5.0, model=JUMP)
    state = initial_state(params, make_rng(72, 0))
    with FrameWriter(path, metadata={"note": "round-trip"}) as writer:
        writer.write_state(state)
        state2, _ = run_jump(state, params, make_rng(72, 1), t_end=0.4)
        writer.write_state(state2)
    frames = read_frames(path)
    assert len(frames) == 2
    t0, x0, orient0, kind0 = frames[0]
    assert kind0 == MATRIX and t0 == 0.0
    np.testing.assert_array_equal(x0, state.x)        # exact: shortest repr
    np.testing.assert_array_equal(orient0, state.orient)
    t1, x1, orient1, _ = frames[1]
    assert t1 == state2.t
    np.testing.assert_array_equal(orient1, state2.orient)
    assert read_metadata(path) == {"note": "round-trip"}


@pytest.mark.parametrize("rep", [MATRIX, QUATERNION])
@pytest.mark.parametrize("finite", [True, False])
def test_frame_bytes_match_json_dumps(tmp_path, rep, finite):
    """Each record is the bytes json.dumps writes, NaN and infinities included."""
    params = SimParams(n_particles=6, d=1.0, box=5.0, representation=rep)
    state = initial_state(params, make_rng(72, 2))
    state.t = np.float64(0.1) + 0.2
    if not finite:
        flat = state.orient.reshape(state.n, -1)
        flat[1, 0], flat[2, 1], flat[3, 2] = np.nan, np.inf, -np.inf
        state.x[4, 0], state.x[5, 1] = 1e-300, 1e22
    path = tmp_path / "frame.ndjson"
    with FrameWriter(str(path)) as writer:
        writer.write_state(state)
    kind = {MATRIX: "mat", QUATERNION: "quat"}[rep]
    want = "".join(
        json.dumps({"t": state.t, "id": i, "x": list(state.x[i]),
                    "orient": {"kind": kind, "v": list(state.orient[i].ravel())}},
                   separators=(",", ":")) + "\n"
        for i in range(state.n)
    )
    assert path.read_text() == want


def test_empty_run_writes_sidecar_only(tmp_path):
    path = str(tmp_path / "empty.ndjson")
    with FrameWriter(path, metadata={"empty": True}):
        pass
    assert read_frames(path) == []
    assert read_metadata(path) == {"empty": True}


def test_frame_log_preserves_lift_relation(tmp_path):
    """A state and its quaternion lift stay related after a round trip.

    The log stores shortest-repr floats, so reading back and applying the
    quaternion-to-matrix map must reproduce the matrix entries exactly as
    an in-memory conversion would.
    """
    import dataclasses

    from sohb.rotations import rot_to_quat

    params = SimParams(n_particles=32, d=0.5, box=4.0, radius=1.0, model=JUMP)
    center = sample_uniform_rot(make_rng(73, 99))
    state = initial_state(params, make_rng(73, 0), align_center=center,
                          align_d=0.5)
    state, events = run_jump(state, params, make_rng(73, 1), t_end=1.0)
    assert len(events) > 10
    lifted = dataclasses.replace(state, orient=rot_to_quat(state.orient),
                                 kind=QUATERNION)
    paths = {}
    for rep, st in ((MATRIX, state), (QUATERNION, lifted)):
        paths[rep] = str(tmp_path / f"{rep}.ndjson")
        with FrameWriter(paths[rep]) as writer:
            writer.write_state(st)
    _, x_m, orient_m, kind_m = read_frames(paths[MATRIX])[0]
    _, x_q, orient_q, kind_q = read_frames(paths[QUATERNION])[0]
    assert kind_m == MATRIX and kind_q == QUATERNION
    np.testing.assert_array_equal(x_q, x_m)
    np.testing.assert_allclose(quat_to_rot(orient_q), orient_m, atol=1e-14)


# --- rng streams -------------------------------------------------------------------


def test_rng_reproducible_and_streams_independent():
    a = make_rng(5, 0).random(8)
    b = make_rng(5, 0).random(8)
    np.testing.assert_array_equal(a, b)
    c = make_rng(5, 1).random(8)
    assert np.max(np.abs(a - c)) > 1e-3
    d = make_rng(6, 0).random(8)
    assert np.max(np.abs(a - d)) > 1e-3


def test_replica_stream_offset():
    """Replica r draws its initial state from stream (seed, 2r) and its
    dynamics from (seed, 2r + 1)."""
    from sohb.cli import _order_summary, _run_replica

    cfg = load_config({"n": 16, "box": 4.0, "t_end": 0.2, "seed": 9, "model": JUMP})
    params = sim_params_from_config(cfg)
    state = initial_state(params, make_rng(9, 6))
    state, events = run_jump(state, params, make_rng(9, 7), 0.2)
    assert _run_replica(cfg, 3) == {
        "n_events": len(events), "t_end": state.t,
        "degenerate_count": state.degenerate_count, **_order_summary(state),
    }


# --- command line -------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    cfg = {"n": 16, "box": 4.0, "dt": 5e-3, "t_end": 0.05, "seed": 7}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path)
    assert main(["validate", "--config", good]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": -2.0}))
    assert main(["validate", "--config", str(bad)]) == 1
    assert "d:" in capsys.readouterr().err

    junk = tmp_path / "junk.json"
    junk.write_text("{oops")
    assert main(["validate", "--config", str(junk)]) == 1


@pytest.mark.parametrize("overrides, field", [
    pytest.param({"replicas": 2, "out": "rep.ndjson"}, "out", id="out-with-replicas"),
    pytest.param({"dt": 0.3, "t_end": 1.0}, "dt", id="partial-gradual-step"),
])
def test_cli_validate_applies_the_cross_field_rules(tmp_path, capsys, overrides, field):
    """validate rejects what simulate would, naming the field."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(overrides))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: {field}: ")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--out", "")])
def test_cli_simulate_validates_overrides(tmp_path, capsys, flag, value):
    """--seed and --out are checked by the schema like the config keys."""
    assert main(["simulate", "--config", write_config(tmp_path), flag, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:]}: ")


def test_cli_simulate_byte_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, save_every=2)
    out1, out2 = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    summary1 = capsys.readouterr().out
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    summary2 = capsys.readouterr().out
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    s1, s2 = json.loads(summary1), json.loads(summary2)
    s1.pop("frames"), s2.pop("frames")  # differing output paths
    assert s1 == s2
    meta = read_metadata(out1)
    assert meta["config"]["seed"] == 7


def test_cli_simulate_seed_changes_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
    assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "8"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2, "--seed", "9"]) == 0
    capsys.readouterr()
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() != f2.read()


@pytest.mark.parametrize("model", ["gradual", "jump"])
def test_cli_simulate_smooth_bump_kernel(tmp_path, capsys, model):
    cfg = write_config(tmp_path, kernel="smooth-bump", model=model)
    out = str(tmp_path / "bump.ndjson")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert read_metadata(out)["config"]["kernel"] == "smooth-bump"
    frames = read_frames(out)
    assert frames and np.all(np.isfinite(frames[-1][1]))


def test_cli_simulate_jump_rejects_small_box(tmp_path, capsys):
    cfg = write_config(tmp_path, model="jump", box=1.5, radius=1.0)
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "box [1.5, 1.5, 1.5]" in err


@pytest.mark.parametrize("model", ["gradual", "jump"])
def test_cli_simulate_single_body(tmp_path, capsys, model):
    """One body has no standard error: the order parameter is null, not an error."""
    cfg = write_config(tmp_path, n=1, model=model)
    assert main(["simulate", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["order_parameter"] is None
    assert summary["order_parameter_stderr"] is None


@pytest.mark.parametrize("dt", [10.0, 0.3])
def test_cli_simulate_rejects_partial_gradual_step(tmp_path, capsys, dt):
    """t_end = 1 is not a whole number of steps of 10 or of 0.3."""
    from sohb.cli import _run_replica

    cfg = write_config(tmp_path, dt=dt, t_end=1.0)
    with pytest.raises(SchemaError) as exc:
        _run_replica(load_config(cfg), 0)
    assert exc.value.path == "dt"
    out = str(tmp_path / "never.ndjson")
    assert main(["simulate", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: dt:")
    assert not (tmp_path / "never.ndjson").exists()


def test_cli_simulate_default_horizon_runs(tmp_path, capsys):
    """The default dt = 2e-3 and t_end = 1 make 500 whole steps."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n": 4, "box": 3.0}))
    assert main(["simulate", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["t_end"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("overrides, field", [
    pytest.param({"radius": 1e-120}, "radius", id="radius-1e-120"),
    pytest.param({"radius": 1e-300, "kernel": "smooth-bump"}, "radius", id="bump-radius-1e-300"),
    pytest.param({"box": 1e155}, "box", id="box-1e155"),
])
def test_cli_simulate_names_out_of_range_field(tmp_path, capsys, overrides, field):
    """Radii whose kernel normalisation is not a float, and boxes whose squared
    distances overflow, fail with a SohbError that names the field."""
    cfg = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")


def test_cli_simulate_largest_box_runs(tmp_path, capsys):
    """1e154 is below the overflow edge (2 sqrt(max float / 3) = 1.548e154)."""
    assert main(["simulate", "--config", write_config(tmp_path, box=1e154)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("model", ["gradual", "jump"])
def test_cli_simulate_reports_mean_field_order(tmp_path, capsys, model):
    cfg = write_config(tmp_path, model=model, d=0.01)
    assert main(["simulate", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["order_parameter_mean_field"] == 1.5 * sampling_c1(0.01)


def test_cli_simulate_replicas(tmp_path, capsys):
    cfg = write_config(tmp_path, replicas=2, model="jump", t_end=0.2)
    assert main(["simulate", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["replicas"] == 2
    assert len(report["per_replica"]) == 2
    assert report["per_replica"][0]["n_events"] >= 0


def test_cli_simulate_replicas_same_for_any_worker_count(tmp_path, capsys):
    cfg = write_config(tmp_path, replicas=3, model="jump", t_end=0.2)
    assert main(["simulate", "--config", cfg, "--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["simulate", "--config", cfg, "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


@pytest.mark.parametrize("model", ["gradual", "jump"])
def test_cli_simulate_replica_zero_is_single_run(tmp_path, capsys, model):
    assert main(["simulate", "--config", write_config(tmp_path, model=model)]) == 0
    single = json.loads(capsys.readouterr().out)
    assert main(["simulate", "--config", write_config(tmp_path, model=model, replicas=2)]) == 0
    replica0 = json.loads(capsys.readouterr().out)["per_replica"][0]
    assert replica0.pop("replica") == 0
    single.pop("order_parameter_mean_field")
    assert replica0 == single


def test_cli_simulate_replicas_reject_out(tmp_path, capsys):
    """A frame log holds one run: out with replicas > 1 fails before any run."""
    cfg = write_config(tmp_path, replicas=2)
    out = tmp_path / "rep.ndjson"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: out:")
    assert not out.exists()


def test_cli_constants_csv(tmp_path):
    out = str(tmp_path / "table.csv")
    assert main(["constants", "--d", "0.7,2.0", "--model", "jump", "--out", out]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "D,model,c1,c2,c2p,c3,c4"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[1] == "jump"
    assert float(row[5]) == 0.35  # c3 = D/2
    assert float(lines[2].split(",")[5]) == 1.0


def test_cli_constants_small_d_rows_are_plain_numbers(tmp_path):
    """At D = 0.05 the gradual profile is accepted, and every field of a row
    parses as a number (no numpy scalar reprs)."""
    out = str(tmp_path / "table.csv")
    assert main(["constants", "--d", "0.05", "--model", "gradual,jump", "--out", out]) == 0
    rows = open(out).read().strip().split("\n")[1:]
    assert len(rows) == 2
    for row, model in zip(rows, ("gradual", "jump")):
        fields = row.split(",")
        assert fields[1] == model
        values = [float(v) for v in fields[:1] + fields[2:]]
        gauss = gci_constants(0.05, model, method="gauss")
        assert values[1] == pytest.approx(gauss.c1, abs=1e-12)
        assert values[5] == pytest.approx(gauss.c4, abs=1e-12)


def test_cli_constants_has_no_method_option(capsys):
    with pytest.raises(SystemExit):
        main(["constants", "--method", "gauss"])
    capsys.readouterr()


def test_cli_names_d_when_the_profile_solve_fails(capsys):
    assert main(["constants", "--d", "1e-4", "--model", "gradual"]) == 1
    assert capsys.readouterr().err.startswith("error: d 0.0001: ")


@pytest.mark.parametrize("argv, field", [
    pytest.param(["gci", "--d", "0"], "d", id="gci-d-0"),
    pytest.param(["constants", "--d", "0"], "d", id="constants-d-0"),
    pytest.param(["gci", "--d", "nan"], "d", id="gci-d-nan"),
    pytest.param(["constants", "--d", "nan"], "d", id="constants-d-nan"),
    pytest.param(["gci", "--d", "-1", "--model", "jump"], "d", id="gci-jump-d-negative"),
    pytest.param(["gci", "--d", "inf"], "d", id="gci-d-inf"),
    pytest.param(["constants", "--d", "1e-300", "--model", "jump"], "d", id="jump-moments-underflow"),
    pytest.param(["constants", "--model", "ballistic"], "model", id="constants-unknown-model"),
])
def test_cli_constants_path_names_the_bad_field(capsys, argv, field):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_cli_gci_report(capsys):
    code = main(["gci", "--d", "1.0", "--model", "jump", "--check-adjoint", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["residual"] == 0.0
    assert report["identity_gap"] < 1e-10
    assert report["adjoint_max_residual"] < 1e-8


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_cli_gci_prints_strict_json_at_small_d(capsys):
    """Below D = 2/709.78 the weighted residual overflows; the report prints
    it as null, with the finite scale-free residual the solve accepted."""
    from sohb.gci import H_TOL

    assert main(["gci", "--d", "0.0015", "--model", "gradual"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["residual"] is None
    assert 0.0 <= report["residual_scale_free"] <= H_TOL


def test_cli_single_writes_samples(tmp_path, capsys):
    out = str(tmp_path / "samples.ndjson")
    code = main(["single", "--model", "jump", "--n-jumps", "150",
                 "--representation", "quaternion", "--out", out])
    assert code == 0
    frames = read_frames(out)
    assert frames[0][3] == "quaternion"
    assert frames[0][2].shape == (150, 4)
    capsys.readouterr()


def test_cli_macro_summary(tmp_path, capsys):
    cfg = tmp_path / "macro.json"
    cfg.write_text(json.dumps({"model": "jump", "macro": {"grid": [32, 1, 1],
                                                          "t_end": 0.2}}))
    assert main(["macro", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mass_drift_matrix"] < 1e-12
    assert report["mass_drift_quaternion"] < 1e-12
    assert report["orientation_max_gap"] < 0.1


def test_cli_macro_reports_wall_time_per_form(tmp_path, capsys):
    cfg = tmp_path / "macro.json"
    cfg.write_text(json.dumps({"macro": {"grid": [16, 1, 1], "t_end": 0.02}}))
    assert main(["macro", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    for kind in ("matrix", "quaternion"):
        assert np.isfinite(report[f"wall_s_{kind}"]) and report[f"wall_s_{kind}"] > 0.0


def test_cli_macro_echoes_what_it_ran(tmp_path, capsys):
    cfg = tmp_path / "macro.json"
    cfg.write_text(json.dumps({"model": "jump", "d": 0.5, "macro": {
        "grid": [16, 1, 1], "t_end": 0.011, "dt": 4e-3, "viscosity": 0.25}}))
    assert main(["macro", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["dt"], report["viscosity"], report["d"], report["model"]) == (
        4e-3, 0.25, 0.5, "jump")
    for kind in ("matrix", "quaternion"):
        assert report[f"steps_{kind}"] == 3  # the last step is shortened
        assert report[f"t_{kind}"] == pytest.approx(0.011)


def test_cli_macro_echoes_the_constants_it_ran_with(tmp_path, capsys):
    """At D = 0.01 the jump constants are the Gauss route's, not a peak the
    quadrature missed."""
    cfg = tmp_path / "macro.json"
    cfg.write_text(json.dumps({"model": "jump", "d": 0.01, "macro": {
        "grid": [16, 1, 1], "t_end": 0.02}}))
    assert main(["macro", "--config", str(cfg)]) == 0
    echoed = json.loads(capsys.readouterr().out)["constants"]
    gauss = gci_constants(0.01, "jump", method="gauss")
    assert echoed["c1"] == pytest.approx(gauss.c1, abs=1e-9)
    for key, field in (("c2", "c2"), ("c2p", "c2_prime"), ("c3", "c3"), ("c4", "c4")):
        assert echoed[key] == pytest.approx(getattr(gauss, field), abs=1e-9)


def test_cli_macro_mass_drift_in_a_huge_box(tmp_path, capsys):
    """The cell volume of a 1e300 box overflows; the drift must not."""
    cfg = tmp_path / "macro.json"
    cfg.write_text(json.dumps({"macro": {"grid": [16, 1, 1], "length": 1e300,
                                         "t_end": 0.05}}))
    assert main(["macro", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mass_drift_matrix"] < 1e-12
    assert report["mass_drift_quaternion"] < 1e-12


def test_cli_reports_domain_errors(tmp_path, capsys):
    cfg = write_config(tmp_path, dt=0.5, model="gradual")  # fine for micro
    # macro with an unstable dt must exit 1 through the error path
    bad = tmp_path / "macro.json"
    bad.write_text(json.dumps({"macro": {"dt": 5.0}, "model": "jump"}))
    assert main(["macro", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
