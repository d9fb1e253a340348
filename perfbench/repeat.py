"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --workload jump-8k --seeds 1-10 [--seconds 20] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (Q3 - Q1) / median, plus the failed share of attempted operations.
The summary is also written to perfbench/out/repeat-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(results):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else None,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=600)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    report = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
        "all_correct": all(r["correct"] for r in results),
        "failed_shares": sorted({r["failed"] / r["attempted"] for r in results}),
        "metrics": summarize(results),
    }
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / f"repeat-{args.workload}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
