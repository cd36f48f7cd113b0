"""Seeded benchmark for ivauctions: one workload per process, one working thread.

Run from the repository root:

    python3 perfbench/run.py --workload orderings --seed 1 --seconds 25 --trace 0

Workloads are defined in ``workloads.py``.  A run sets the workload up
several times (instance generation and tabulation, writing CLI input files,
one warm-up op) and keeps the last set-up, then runs ops back to back, each
one after the previous completes (a closed loop with one client), for
``--seconds``.  Every op checks its own outputs; an op that raises or fails a
check counts as failed.

``--trace 0`` reports the end-to-end metrics.  The shared host's speed drifts
by tens of percent within seconds, so every timed interval (the imports, each
set-up, each op) is bracketed by samples of a fixed reference load
(``reference.py``) and reported at reference speed: wall time divided by how
many times slower than nominal the reference ran around it.  The wall-clock
figures are printed beside them.  ``--trace 1`` sets up once
under the tracer, then runs each op untraced and again traced, checks that
both gave the same outputs, and reports the per-layer metrics per traced op
plus the tracing overhead (traced over untraced time).  Spans are kept
in memory and written to ``.perfbench_out/trace-<workload>.jsonl`` at the end.

Human-readable lines come first on stdout; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups per run; ``setup_s`` is their median (plus the one-off import time).
SETUP_REPEATS = 5

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


class Phase:
    """Latencies, failures and output digests of a series of ops.

    Given ``sample`` (``reference.slowness``), every op is bracketed by two
    samples and its latency is reported at reference speed; without it,
    latencies are wall time.
    """

    def __init__(self, sample=None):
        self.sample = sample
        self.slowness = sample() if sample else None
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.digests: list[str] = []
        self.errors: list[tuple[int, str]] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.attempted / self.elapsed

    def run(self, workload, index: int, tracer=None) -> float:
        """Run and record op ``index``; returns the time it ended."""
        t = time.perf_counter()
        try:
            summary = workload.op(index)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            summary, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.wall.append(end - t)
        if self.sample is None:
            self.latencies.append(end - t)
        else:
            after = self.sample()
            self.latencies.append((end - t) / math.sqrt(self.slowness * after))
            self.slowness = after
        if error is None and tracer is not None and tracer.op_breaches(index):
            error = "; ".join(tracer.op_breaches(index))
        if error is not None:
            self.errors.append((index, error))
        self.digests.append("failed" if error else digest(summary))
        return end


def run_ops(workload, seconds: float, sample) -> Phase:
    """Run ops 0, 1, 2, ... back to back until ``seconds`` have passed; the last one finishes.

    ``elapsed`` is the ops' own time at reference speed, without the reference samples.
    """
    phase = Phase(sample)
    start = end = time.perf_counter()
    while end < start + seconds:
        phase.run(workload, phase.attempted)
        end = time.perf_counter()
    phase.elapsed = sum(phase.latencies)
    return phase


def set_up(factory, seed: int, workdir: str) -> tuple[object, float, list[str]]:
    """Build the workload and run one warm-up op; returns it, the wall time taken, and any error."""
    os.makedirs(workdir, exist_ok=True)
    t = time.perf_counter()
    workload = factory(seed, workdir)
    errors = []
    try:
        workload.op(-1)
    except Exception as exc:
        errors.append(f"warm-up op: {type(exc).__name__}: {exc}")
    return workload, time.perf_counter() - t, errors


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile, samples beyond).  With ten samples or fewer
    it falls back to the maximum, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - 10) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: Phase, setup_s: float, setup_wall_s: float) -> tuple[dict, list[str]]:
    lat_ms = [x * 1000.0 for x in phase.latencies]
    wall_ms = [x * 1000.0 for x in phase.wall]
    tail_ms, pct, beyond = tail(lat_ms)
    n = phase.attempted
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "throughput": {"value": phase.throughput, "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    failed_ratio = len(phase.errors) / n
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups plus imports; wall {setup_wall_s:.4f} s",
        "throughput": f"{n} ops in {phase.elapsed:.3f} s; wall {n / sum(phase.wall):.4f} ops/s",
        "op_p50_ms": f"{n} samples; wall {statistics.median(wall_ms):.4f} ms",
        "op_tail_ms": f"p{pct:.1f}, {beyond} samples beyond, {n} samples; "
                      f"wall {tail(wall_ms)[0]:.4f} ms",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = ["  times at reference speed (see reference.py), wall-clock figures in brackets"]
    lines += [f"  {name:<12} {m['value']:>12.4f} {m['unit']:<6} ({notes[name]})"
              for name, m in metrics.items()]
    lines.insert(5, f"  {'failed_ratio':<12} {failed_ratio:>12.4f} {'1':<6} "
                    f"({len(phase.errors)} of {n} ops failed)")
    return metrics, lines


def per_layer(tracer, ops: int, generate_s: float, overhead: float) -> tuple[dict, list[str], list[str]]:
    """Per-layer metrics per traced op; a layer the workload never reached reads 0, absent."""
    calls, counts, maxima = tracer.calls, tracer.counts, tracer.maxima

    def share(counter: str) -> float:
        keys = counts.get(counter + ".keys", 0.0)
        return counts.get(counter + ".distinct", 0.0) / keys if keys else 0.0

    units = per_layer_units()
    values = {
        "instances.generate.self_s": generate_s,
        "trace.overhead_ratio": overhead,
        "model.evals_distinct_ratio": share("model.evals"),
    }
    for name in units:
        layer, _, stat = name.rpartition(".")
        if name in values:
            continue
        if stat == "self_s":
            values[name] = tracer.total_self_s(layer) / ops
        elif stat == "calls":
            values[name] = calls.get(layer, 0) / ops
        elif name.endswith("_max"):
            values[name] = maxima.get(name, 0.0)
        elif stat == "distinct_ratio":
            values[name] = share(layer)
        elif name == "oracle.best_monotone_ratio.complete_ratio":
            nodes = counts.get("oracle.best_monotone_ratio.nodes", 0.0)
            values[name] = counts["oracle.best_monotone_ratio.monotone"] / nodes if nodes else 0.0
        else:
            values[name] = counts.get(name, 0.0) / ops
    absent = sorted(name for name, value in values.items() if value == 0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines = [f"  {name:<52} {values[name]:>14.6g} {unit}"
             + ("   (absent: layer not reached)" if name in absent else "")
             for name, unit in units.items()]
    return metrics, lines, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ivauctions", "__init__.py")):
        print("perfbench: src/ivauctions not found; run from the repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one working thread
    sys.path[:0] = [src, HERE]

    t = time.perf_counter()
    import ivauctions
    import workloads
    import_s = time.perf_counter() - t
    if not os.path.abspath(ivauctions.__file__).startswith(src + os.sep):
        print(f"perfbench: imported ivauctions from {ivauctions.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            result, lines = traced_run(factory, args, workdir, root)
        else:
            result, lines = timed_run(factory, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run is still using it

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  op: {factory.op_size}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def timed_run(factory, args, workdir: str, import_s: float) -> tuple[dict, list[str]]:
    import reference

    reference.slowness()  # first touch of the reference's working set
    slowness = reference.slowness()
    imports = import_s / slowness  # sampled after the imports only: they load NumPy
    times, walls, errors = [], [], []
    for rep in range(SETUP_REPEATS):
        workload, took, errs = set_up(factory, args.seed, os.path.join(workdir, str(rep)))
        after = reference.slowness()
        times.append(took / math.sqrt(slowness * after))
        walls.append(took)
        slowness = after
        errors += errs
    phase = run_ops(workload, args.seconds, reference.slowness)
    metrics, lines = end_to_end(phase, imports + statistics.median(times),
                                import_s + statistics.median(walls))
    errors += [f"op {i}: {msg}" for i, msg in phase.errors]
    lines += [f"  ERROR {msg}" for msg in errors[:10]]
    result = {"correct": not errors, "attempted": phase.attempted,
              "failed": len(phase.errors), "metrics": metrics}
    return result, lines


def traced_run(factory, args, workdir: str, root: str) -> tuple[dict, list[str]]:
    """Each op runs untraced, then traced; outputs must agree, and the time ratio is the overhead."""
    from tracing import Tracer

    os.makedirs(workdir)
    errors, generate_s = [], 0.0
    tracer = Tracer()
    tracer.install()
    try:
        workload = factory(args.seed, workdir)
        generate_s = sum(tracer.total_self_s(name) for name in tracer.self_s
                         if name.startswith("instances."))
        tracer.begin_op("warm-up")
        workload.op(-1)
    except Exception as exc:
        errors.append(f"traced set-up: {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
    tracer.reset()

    plain, traced = Phase(), Phase()
    start = end = time.perf_counter()
    while not errors and end < start + args.seconds:
        index = plain.attempted
        plain.run(workload, index)
        tracer.install()
        tracer.begin_op(index)
        try:
            end = traced.run(workload, index, tracer)
        finally:
            tracer.uninstall()
    plain.elapsed, traced.elapsed = sum(plain.latencies), sum(traced.latencies)

    mismatched = [i for i, (a, b) in enumerate(zip(plain.digests, traced.digests))
                  if a != b and "failed" not in (a, b)]
    overhead = traced.elapsed / plain.elapsed if plain.elapsed else 0.0
    metrics, lines, absent = per_layer(tracer, max(1, traced.attempted), generate_s, overhead)
    errors += [f"untraced op {i}: {msg}" for i, msg in plain.errors]
    errors += [f"traced op {i}: {msg}" for i, msg in traced.errors]
    errors += [f"traced op {i} output differs from untraced" for i in mismatched]

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    trace_path = os.path.join(root, OUT_DIR, f"trace-{args.workload}.jsonl")
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "ops": traced.attempted, "untraced_busy_s": plain.elapsed, "traced_busy_s": traced.elapsed,
        "outputs_differ": mismatched, "metrics": {k: m["value"] for k, m in metrics.items()},
        "absent": absent, "calls": dict(tracer.calls), "counts": dict(tracer.counts),
        "breaches": [msg for _, msg in tracer.breaches],
    }
    tracer.write(trace_path, summary)

    lines.insert(0, f"  {traced.attempted} ops, each run untraced ({plain.elapsed:.3f} s in all) "
                    f"then traced ({traced.elapsed:.3f} s); {len(mismatched)} outputs differ")
    lines.append(f"  spans: {len(tracer.spans)} kept, {tracer.spans_dropped} dropped -> "
                 f"{os.path.relpath(trace_path, root)}")
    lines += [f"  ERROR {msg}" for msg in errors[:10]]
    result = {"correct": not errors, "attempted": max(1, plain.attempted + traced.attempted),
              "failed": len(plain.errors) + len(traced.errors) + len(mismatched),
              "metrics": metrics}
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
