#!/usr/bin/env python3
"""Time the lazy chain on source trees side by side; write BENCH_lazy_chain.json.

Cases:

  chain_n65_B250_k1   ``lazy_winners`` over 250 seeded orderings of the
                      65-bidder ``gen_random_mech_lb(64, 2.0)`` at the
                      all-ones profile, c = 2 (the Monte Carlo batch of the
                      randomized grid mechanism); ms per call
  one_row_n{n}_k{k}   one-row ``lazy_winner`` on ``gen_random_tabulated(n, k)``
                      for (n, k) = (2, 70), (3, 16), (5, 2), over 64 seeded
                      (ordering, profile) pairs; us per call
  mc_n65_S250         ``monte_carlo_random_hypergrid`` with 250 draws at seed 97
                      on the same instance, profile and c: the draws and the
                      chain; ms per call
  ragged_n4_k8_B250   ``lazy_winners`` over 250 seeded orderings of
                      ``gen_random_tabulated(4, 8)`` at (0, 1, 4, 8), so one
                      entrant's gather mixes rows with no level to evaluate,
                      rows at their top level alone and rows with lower
                      levels; ms per call

Each tree is timed in fresh worker processes, one per round, and the rounds
alternate which tree runs first.  A worker warms every case up, then reports
the median of its timed repeats at reference speed: divided by how many
times slower than nominal ``perfbench/reference.py``'s fixed load ran just
before and after them, since the shared host's speed drifts between
workers.  The file keeps each tree's per-round medians with their median and
quartiles, the median at wall speed, the median peak RSS of the worker
once the case has run, how many rounds each later tree beat the first, and
a digest of each case's winners (equal digests: the trees pick the same
winners).  Compare a parent commit with a change by

  git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
  python scripts/bench_lazy_chain.py --src parent=/tmp/parent/src --src change=src

Without ``--src`` it times this checkout's ``src`` alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONE_ROW_SHAPES = ((2, 70), (3, 16), (5, 2))
ROUNDS = 20  # worker runs per tree
REPEATS = 25  # timed repeats per worker
SCALE = {"s/call": 1.0, "ms/call": 1e3, "us/call": 1e6}


def _cases():
    """Each case as (name, unit, calls): one timed pass makes every call once."""
    import random

    import numpy as np

    from ivauctions import compute_c, lazy_winner, lazy_winners
    from ivauctions import instances as gen
    from ivauctions.oracle import monte_carlo_random_hypergrid

    rng = random.Random(20)
    lb = gen.gen_random_mech_lb(64, 2.0)
    orders = np.array([rng.sample(range(lb.n), lb.n) for _ in range(250)])
    ones = (1,) * lb.n
    cases = [("chain_n65_B250_k1", "ms/call", [lambda: lazy_winners(lb, orders, ones, c=2.0)])]
    for n, k in ONE_ROW_SHAPES:
        v = gen.gen_random_tabulated(n, k, seed=n)[0]
        c = compute_c(v)
        pairs = [
            (tuple(rng.sample(range(n), n)), tuple(rng.randint(0, k) for _ in range(n)))
            for _ in range(64)
        ]
        calls = [lambda pi=pi, s=s, v=v, c=c: lazy_winner(v, pi, s, c=c) for pi, s in pairs]
        cases.append((f"one_row_n{n}_k{k}", "us/call", calls))
    cases.append(("mc_n65_S250", "ms/call",
                  [lambda: monte_carlo_random_hypergrid(lb, ones, 250, seed=97, c=2.0)]))
    v = gen.gen_random_tabulated(4, 8, seed=4)[0]
    c = compute_c(v)
    ragged = np.array([rng.sample(range(4), 4) for _ in range(250)])
    cases.append(("ragged_n4_k8_B250", "ms/call",
                  [lambda: lazy_winners(v, ragged, (0, 1, 4, 8), c=c)]))
    return cases


def worker(src: str, cases=_cases, only=None, repeats=REPEATS) -> dict:
    """Median time per call of each of ``cases()`` (or of case ``only``) on the package
    under ``src``, at wall speed and at the reference speed of ``perfbench/reference.py``,
    and the worker's peak RSS once the case has run.  A case may add a fourth item, a
    callable whose result is digested instead of the calls' results."""
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import numpy as np
    from reference import slowness

    out = {}
    for name, unit, calls, *output in cases():
        if only not in (None, name):
            continue
        outputs = [np.asarray(call()).tolist() for call in calls]  # warm-up, and what to digest
        if output:
            outputs = output[0]()
        times = []
        before = slowness()
        for _ in range(repeats):
            t0 = time.perf_counter()
            for call in calls:
                call()
            times.append((time.perf_counter() - t0) / len(calls) * SCALE[unit])
        wall = statistics.median(times)
        out[name] = {
            "unit": unit,
            "median": wall / math.sqrt(before * slowness()),
            "wall_median": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": hashlib.sha256(repr(outputs).encode()).hexdigest()[:16],
        }
    return out


def _quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3}


def _hardware() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None, script=__file__, cases=_cases, out="BENCH_lazy_chain.json", doc=__doc__,
         names=None, rounds=ROUNDS, repeats=REPEATS) -> int:
    """Time ``cases`` on each ``--src`` tree in ``rounds`` worker runs of ``script``, each
    timing ``repeats`` calls; write ``out``.  Given the case ``names``, each case runs in
    a worker of its own."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a source tree to time (repeatable; default: tree=<this checkout>/src)")
    ap.add_argument("--out", default=os.path.join(ROOT, out))
    ap.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--case", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        json.dump(worker(args.worker, cases, args.case, repeats), sys.stdout)
        return 0
    trees = []
    for spec in args.src or [f"tree={os.path.join(ROOT, 'src')}"]:
        label, sep, src = spec.partition("=")
        if not sep or not label or not os.path.isdir(src):
            ap.error(f"--src wants LABEL=DIR with an existing DIR, got {spec!r}")
        trees.append((label, os.path.abspath(src)))
    runs = {label: [] for label, _ in trees}
    for r in range(rounds):
        for label, src in trees if r % 2 == 0 else trees[::-1]:
            run = {}
            for only in names or [None]:
                cmd = [sys.executable, os.path.abspath(script), "--worker", src]
                res = subprocess.run(cmd + (["--case", only] if only else []), capture_output=True,
                                     text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
                if res.returncode:
                    sys.exit(f"worker on {label} failed:\n{res.stderr}")
                run.update(json.loads(res.stdout))
            runs[label].append(run)
        print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    first = trees[0][0]
    names = list(runs[first][0])
    report = {
        "script": os.path.relpath(os.path.abspath(script), ROOT),
        "hardware": _hardware(),
        "rounds": rounds,
        "repeats": repeats,
        "units": {name: case["unit"] for name, case in runs[first][0].items()},
        "trees": {},
    }
    for label, _ in trees:
        cases = {}
        for name in names:
            xs = [run[name]["median"] for run in runs[label]]
            walls = [run[name]["wall_median"] for run in runs[label]]
            rss = [run[name]["peak_rss_mb"] for run in runs[label]]
            cases[name] = {**{k: round(x, 3) for k, x in _quartiles(xs).items()},
                           "runs": [round(x, 3) for x in xs],
                           "wall_median": round(statistics.median(walls), 3),
                           "peak_rss_mb": round(statistics.median(rss), 1),
                           "digest": runs[label][0][name]["digest"]}
        if label != first:  # rounds in which this tree beat the first one
            cases["faster_rounds_than_" + first] = {
                name: sum(b[name]["median"] < a[name]["median"]
                          for a, b in zip(runs[first], runs[label]))
                for name in names
            }
        report["trees"][label] = cases
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for label, _ in trees:
        print(label, {name: report["trees"][label][name]["median"] for name in names})
    digests = {label: [report["trees"][label][n]["digest"] for n in names] for label, _ in trees}
    if len({tuple(d) for d in digests.values()}) > 1:
        print("outputs differ between trees", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
