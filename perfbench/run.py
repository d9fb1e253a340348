"""Run one benchmark workload of sohb and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gradual-20k --seed 1 --seconds 20 --trace 0

The run builds the workload's inputs from the seed (set-up), then runs whole
rounds of its operations until ``--seconds`` have passed, checks the outputs
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones: ``setup_s`` and ``peak_rss_mb`` as measured, and
``wall_s`` and the two rates as medians over rounds and operations of times
scaled to the host's reference speed by the calibration probe (probe.py).
With ``--trace 1`` they are the per-layer ones, from spans around sohb's
functions. A line starting with ``perfbench:`` before it records the machine,
the versions, the unscaled medians and any failed check. Results, samples and
spans go to perfbench/out/.
"""

import os
import time

T0 = time.perf_counter()


def _seconds_since_process_start():
    """Time from the process's creation to T0 (0 where /proc is missing)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, IndexError, ValueError, AttributeError):
        return 0.0


BOOT_S = _seconds_since_process_start()

# BLAS and OpenMP read their thread counts when numpy loads, so the cap is
# set before any import that could load numpy.
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREADS = str(min(2, CORES or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import probe as calibration  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("gradual-20k", "gradual-512-logged", "jump-8k", "law", "macro-3d")


def blas_threads():
    """Threads OpenBLAS reports, queried from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def scaled_median(probe, intervals):
    """Median seconds per unit of (start, end, units) intervals, each scaled
    to the host's reference speed by the probe around it."""
    a = numpy.asarray(intervals, dtype=float)
    per_unit = (a[:, 1] - a[:, 0]) / a[:, 2]
    return float(numpy.median(per_unit * probe.scale(a[:, 0], a[:, 1])))


def end_to_end(wl, probe, setup_s, round_spans):
    # A round's wall time leaves out the probes run inside it.
    rounds = [(start, end - probe.seconds_between(start, end), 1) for start, end in round_spans]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (scaled_median(probe, rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "matrix_ops_per_s": (1.0 / scaled_median(probe, wl.ops["matrix"]), "ops/s"),
        "quat_ops_per_s": (1.0 / scaled_median(probe, wl.ops["quaternion"]), "ops/s"),
    }


def unscaled(wl, round_spans):
    """The same medians as plain wall-clock time, for the record."""
    def median_per_unit(intervals):
        return statistics.median((end - start) / units for start, end, units in intervals)

    return {
        "wall_s": statistics.median(end - start for start, end in round_spans),
        "matrix_ops_per_s": 1.0 / median_per_unit(wl.ops["matrix"]),
        "quat_ops_per_s": 1.0 / median_per_unit(wl.ops["quaternion"]),
    }


def per_layer(wl, tracer, overhead_s):
    rounds = tracer.per_round()
    keys = sorted(rounds)

    def median_over_rounds(fn):
        return statistics.median(fn(r) for r in keys)

    metrics = {}
    for metric, name in spans.SELF_TIME_METRICS.items():
        metrics[metric] = (median_over_rounds(lambda r: rounds[r][name][0] if name in rounds[r] else 0.0), "s/round")
    for metric, name in spans.CALL_COUNT_METRICS.items():
        metrics[metric] = (median_over_rounds(lambda r: rounds[r][name][1] if name in rounds[r] else 0), "calls/round")

    def total(key):
        return sum(wl.round_counts.get(r, {}).get(key, 0) for r in keys)

    events = total("events")
    wraps = sum(rounds[r]["micro.wrap_positions"][1] for r in keys if "micro.wrap_positions" in rounds[r])
    frames_written = total("frames")
    metrics.update({
        "alignment.pairs_per_particle": (tracer.pairs / tracer.pair_rows if tracer.pair_rows else 0.0, "count"),
        "micro.wrap_calls_per_event": (wraps / events if events else 0.0, "calls/event"),
        "micro.degenerate_fallbacks": (median_over_rounds(lambda r: wl.round_counts.get(r, {}).get("fallbacks", 0)),
                                       "count/round"),
        "frames.bytes_per_frame": (total("frame_bytes") / frames_written if frames_written else 0.0, "bytes"),
        "trace.overhead_s": (overhead_s, "s/round"),
    })
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sohb" / "__init__.py").is_file():
        print(f"perfbench: no sohb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        tracer.install()
    probe = calibration.Probe()
    wl = workloads.WORKLOADS[args.workload](args.seed, str(OUT), tracer, probe)
    setup_s = BOOT_S + time.perf_counter() - T0
    probe.run()

    # A traced run runs every round twice, untraced and then traced, so the
    # difference of the two is the tracing overhead.
    overheads = []
    round_spans = []
    rounds = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wl.run_round(rounds)
        t1 = time.perf_counter()
        round_spans.append((t0, t1))
        if args.trace:
            tracer.round, tracer.active = rounds, True
            wl.run_round(rounds)
            tracer.round, tracer.active = -1, False
            overheads.append(time.perf_counter() - t1 - (t1 - t0))
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    probe.run()
    wl.finish()

    if args.trace:
        if tracer.first_pair_call is not None:
            x, box, radius, count = tracer.first_pair_call
            wl.problems += checks.check_pair_count(x, box, radius, count, f"{args.workload} neighbor pairs")
        metrics = per_layer(wl, tracer, statistics.median(overheads))
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        metrics = end_to_end(wl, probe, setup_s, round_spans)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "op_unit": wl.op_unit, "threads_env": THREADS,
        "blas_threads": blas_threads(), "cores": CORES, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_revision": git_revision(),
        "absent": getattr(tracer, "absent", []), "problems": wl.problems[:20],
        "probe_median_s": statistics.median(probe.durations), "probe_reference_s": calibration.REFERENCE_S,
        "unscaled": unscaled(wl, round_spans),
    }
    result = {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    numpy.savez(f"{stem}.samples.npz", probe_mids=probe.mids, probe_durations=probe.durations,
                rounds=round_spans, **{f"ops_{rep}": ops for rep, ops in wl.ops.items()})
    print("perfbench: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
