"""Command-line entry point.

Subcommands:
    simulate    particle run from a JSON config; frame log + summary JSON
    single      single-particle relaxation samples in a fixed field
    constants   hydrodynamic coefficient table as CSV
    gci         invariant-profile solve report (residual, identity checks)
    macro       co-evolve the two macroscopic forms; consistency summary
    validate    check a config file against the schema (exit 0/1)
    acceptance  run the acceptance criteria and print one line per item
"""

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .config import load_config, read_json, sim_params_from_config, validate_data
from .errors import DegenerateAverage, ParseError, SohbError, TooFewSamples
from .estimators import order_parameter
from .frames import FrameWriter, _format_frame
from .gci import constants as gci_constants
from .gci import get_profile, verify_adjoint_jump
from .macro import run_macro, twisted_initial_data
from .micro import GRADUAL, initial_state, run_gradual, run_jump, run_single_in_field
from .rng import STREAM_DYNAMICS, STREAM_INIT, make_rng
from .rotations import quat_to_rot, rot_to_quat
from .sampling import c1, sample_uniform_rot


def _print_json(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _order_summary(state):
    """Order-parameter fields for a summary; null when the mean is degenerate
    or there are too few bodies for a standard error."""
    try:
        rep = order_parameter(state.orient, state.kind)
    except (DegenerateAverage, TooFewSamples):
        return {"order_parameter": None, "order_parameter_stderr": None}
    return {"order_parameter": rep.value, "order_parameter_stderr": rep.stderr}


def _run_replica(cfg, replica):
    """Replica ``replica`` of the configured run, from a fresh initial state.

    The initial state comes from stream (seed, 2 replica + STREAM_INIT) and
    the dynamics from (seed, 2 replica + STREAM_DYNAMICS), so replica 0 is
    the single run. ``cfg`` comes from ``load_config``, whose checks include
    the whole-steps rule of the gradual horizon. The config's ``out``, if
    set, gets every ``save_every``-th gradual frame, or the final jump state.

    Returns:
        The summary dict: ``t_end``, degenerate count, order parameter, and
        ``n_events`` for jump runs.
    """
    params = sim_params_from_config(cfg)
    state = initial_state(params, make_rng(cfg["seed"], 2 * replica + STREAM_INIT))
    dyn_rng = make_rng(cfg["seed"], 2 * replica + STREAM_DYNAMICS)
    summary = {}
    out = cfg.get("out")
    writer = FrameWriter(out, metadata={"config": cfg, "version": __version__}) if out else None
    try:
        if params.model == GRADUAL:
            on_frame = writer.write_state if writer else None
            state = run_gradual(state, params, dyn_rng, cfg["t_end"],
                                on_frame=on_frame, save_every=cfg["save_every"])
        else:
            state, events = run_jump(state, params, dyn_rng, cfg["t_end"])
            summary["n_events"] = len(events)
            if writer:
                writer.write_state(state)
    finally:
        if writer:
            writer.close()
    summary.update(t_end=state.t, degenerate_count=state.degenerate_count,
                   **_order_summary(state))
    return summary


def cmd_simulate(args):
    data = read_json(args.config)
    if isinstance(data, dict):  # any other document fails the schema below
        data.update((k, v) for k, v in (("seed", args.seed), ("out", args.out)) if v is not None)
    cfg = load_config(data)
    n_rep = cfg["replicas"]
    workers = min(args.workers, n_rep)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_replica, [cfg] * n_rep, range(n_rep)))
    else:
        summaries = [_run_replica(cfg, r) for r in range(n_rep)]
    # The order parameter of the ordered homogeneous state, where each body
    # follows the von Mises law around the common target.
    mean_field = 1.5 * c1(cfg["d"])
    if n_rep == 1:
        report = {**summaries[0], "order_parameter_mean_field": mean_field}
        if cfg.get("out"):
            report["frames"] = cfg["out"]
    else:
        report = {"replicas": n_rep, "order_parameter_mean_field": mean_field,
                  "per_replica": [{"replica": r, **s} for r, s in enumerate(summaries)]}
        values = [s["order_parameter"] for s in summaries if s["order_parameter"] is not None]
        if len(values) >= 2:
            arr = np.array(values)
            report["order_parameter_mean"] = float(arr.mean())
            report["order_parameter_sd"] = float(arr.std(ddof=1))
    _print_json(report)
    return 0


def cmd_single(args):
    rng = make_rng(args.seed, STREAM_DYNAMICS)
    if args.field == "random":
        field = sample_uniform_rot(make_rng(args.seed, STREAM_INIT))
    else:
        field = np.eye(3)
    kwargs = dict(
        model=args.model,
        representation=args.representation,
        field=field,
        d=args.d,
        rng=rng,
    )
    if args.model == GRADUAL:
        result = run_single_in_field(
            t_end=args.t_end, dt=args.dt, replicas=args.replicas,
            init=args.init, **kwargs,
        )
        orients = result
    else:
        _, orients = run_single_in_field(n_jumps=args.n_jumps, **kwargs)
    m = orients.shape[0]
    text = _format_frame(0.0, np.zeros((m, 3)), orients, args.representation)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        _print_json({"samples": m, "out": args.out})
    else:
        sys.stdout.write(text)
    return 0


def _parse_list(text, cast):
    return [cast(part) for part in text.split(",") if part]


def cmd_constants(args):
    rows = ["D,model,c1,c2,c2p,c3,c4"]
    for model in _parse_list(args.model, str):
        for d in _parse_list(args.d, float):
            rows.append(gci_constants(d, model).csv_row())
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _constants_fields(consts):
    """The five constants under their CSV column names."""
    return {"c1": consts.c1, "c2": consts.c2, "c2p": consts.c2_prime,
            "c3": consts.c3, "c4": consts.c4}


def cmd_gci(args):
    profile = get_profile(args.d, args.model)
    consts = gci_constants(args.d, args.model, profile=profile)
    report = {
        "d": args.d,
        "model": args.model,
        # The weighted residual overflows at small d; JSON has no inf or NaN.
        "residual": profile.residual if np.isfinite(profile.residual) else None,
        "residual_scale_free": profile.residual_scale_free,
        "constants": _constants_fields(consts),
        "identity_gap": abs(consts.c2 - consts.c2_prime - consts.c4),
    }
    if args.probe:
        probes = _parse_list(args.probe, float)
        report["h"] = {str(r): float(profile.hbar(r)) for r in probes}
    if args.check_adjoint:
        rng = make_rng(args.seed, 0)
        residuals = []
        for _ in range(args.check_adjoint):
            center = sample_uniform_rot(rng)
            p = rng.standard_normal(3)
            residuals.append(verify_adjoint_jump(center, p, args.d))
        report["adjoint_max_residual"] = float(np.max(residuals))
    _print_json(report)
    return 0


def cmd_macro(args):
    cfg = load_config(args.config) if args.config else load_config({"macro": {}})
    mc = cfg.get("macro") or load_config({"macro": {}})["macro"]
    n = mc["grid"][0]
    f_mat, f_quat = twisted_initial_data(
        n, mc["length"], rho_amp=mc["rho_amp"], alpha=mc["alpha"], beta=mc["beta"],
    )
    consts = gci_constants(cfg["d"], cfg["model"])
    # Mass drift from the sums of rho: the cell volume cancels in the ratio
    # and would overflow for a huge box.
    mass0 = float(np.sum(f_mat.rho))
    report = {
        "grid": list(mc["grid"]),
        "dt": mc["dt"],
        "viscosity": mc["viscosity"],
        "d": cfg["d"],
        "model": cfg["model"],
        "constants": _constants_fields(consts),
    }
    out = {}
    for field in (f_mat, f_quat):
        frames = []
        t0 = time.perf_counter()
        field = run_macro(field, consts, mc["t_end"], mc["dt"], viscosity=mc["viscosity"],
                          on_frame=lambda f: frames.append(f.t))
        report[f"wall_s_{field.kind}"] = time.perf_counter() - t0
        report[f"steps_{field.kind}"] = len(frames) - 1
        report[f"t_{field.kind}"] = field.t
        report[f"mass_drift_{field.kind}"] = abs(float(np.sum(field.rho)) - mass0) / mass0
        out[field.kind] = field
    f_mat, f_quat = out["matrix"], out["quaternion"]
    dev = np.max(np.linalg.norm(quat_to_rot(f_quat.orient) - f_mat.orient, axis=(-2, -1)))
    report.update(
        t_end=f_mat.t,
        rho_max_gap=float(np.max(np.abs(f_mat.rho - f_quat.rho))),
        orientation_max_gap=float(dev),
    )
    _print_json(report)
    return 0


def cmd_validate(args):
    try:
        problems = validate_data(read_json(args.config))
    except (OSError, ParseError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    if problems:
        for p in problems:
            print(f"invalid: {p}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_acceptance(args):
    from .acceptance import run_acceptance

    only = _parse_list(args.only, int) if args.only else None
    results = run_acceptance(only=only, verbose=True)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sohb",
        description="Collective alignment of rigid bodies: simulation and verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a particle simulation from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the frame log path")
    p.add_argument("--workers", type=int, default=1, help="process pool size for replicas")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("single", help="single-particle samples in a fixed field")
    p.add_argument("--model", choices=["gradual", "jump"], default="gradual")
    p.add_argument("--representation", choices=["matrix", "quaternion"], default="matrix")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--n-jumps", type=int, default=1000)
    p.add_argument("--init", choices=["center", "stationary"], default="center")
    p.add_argument("--field", choices=["identity", "random"], default="identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("constants", help="hydrodynamic coefficient table (CSV)")
    p.add_argument("--d", default="0.2,1.0,5.0", help="comma-separated noise levels")
    p.add_argument("--model", default="gradual,jump", help="comma-separated models")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("gci", help="invariant profile diagnostics")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--model", choices=["gradual", "jump"], default="gradual")
    p.add_argument("--probe", default=None, help="comma-separated r values for h(r)")
    p.add_argument("--check-adjoint", type=int, default=0, metavar="N",
                   help="verify the jump invariant on N random (center, P) pairs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gci)

    p = sub.add_parser("macro", help="co-evolve both macroscopic forms")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_macro)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("acceptance", help="run the acceptance criteria")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_acceptance)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SohbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
