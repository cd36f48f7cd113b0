"""Run the benchmark over workloads and seeds, one process at a time, and summarize.

    python3 perfbench/report.py --seeds 1 2 3 --seconds 25 [--workloads orderings ...] [--trace 1]

Prints each run's own lines (every end-to-end metric with its unit and sample
counts, ``failed_ratio`` included), then per workload and metric the median
over seeds and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = {w: [run_once(w, s, args.seconds, args.trace) for s in args.seeds]
               for w in args.workloads}

    print(f"\n{'workload':<16} {'metric':<52} {'median':>12} {'spread':>8} {'bound':>6}  runs")
    ok = True
    for workload, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok &= correct
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            spread = None
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            bound = bounds.get(name)
            print(f"{workload:<16} {name:<52} {median:>12.6g} "
                  f"{'-' if spread is None else f'{spread:.3f}':>8} "
                  f"{'-' if bound is None else bound:>6}  "
                  + " ".join(f"{v:.6g}" for v in values))
        print(f"{workload:<16} {'failed_ratio':<52} {failed / attempted:>12.6g} "
              f"({failed} of {attempted} ops; correct={correct})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
