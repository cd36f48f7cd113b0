"""Self-checks of the benchmark: replayable inputs, faithful tracing, a clean held-out seed.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import ivauctions  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Seed kept out of tuning; later changes confirm their claims on it.
HELDOUT_SEED = 97

NAMES = sorted(workloads.WORKLOADS)


def _digests(workload, ops=2):
    return [run.digest(workload.op(i)) for i in range(ops)]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_outputs(name, tmp_path):
    factory = workloads.WORKLOADS[name]
    first = _digests(factory(5, str(tmp_path)))
    second = _digests(factory(5, str(tmp_path)))
    assert first == second
    assert len(set(first)) == len(first), "ops should draw different inputs"


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, str(tmp_path))
    plain = _digests(workload, ops=1)
    original = ivauctions.mechanisms.lazy_winner
    tracer = Tracer()
    tracer.install()
    try:
        assert ivauctions.oracle.lazy_winner is not original
        tracer.begin_op(0)
        traced = _digests(workload, ops=1)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.breaches == []
    assert sum(tracer.calls.values()) > 0
    assert ivauctions.oracle.lazy_winner is original
    assert ivauctions.revenue.lazy_winner is original


def _bench(args, cwd):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", NAMES)
def test_heldout_seed_runs_clean(name):
    proc = _bench(["--workload", name, "--seed", str(HELDOUT_SEED), "--seconds", "1",
                   "--trace", "0"], cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "throughput", "op_p50_ms", "op_tail_ms",
                                      "peak_rss_mb"}
    assert "failed_ratio" in proc.stdout


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark's own files it fails without a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "orderings",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_latencies_at_reference_speed():
    """An op timed while the machine runs twice as slow as nominal reads half its wall time."""

    class Sleeps:
        def op(self, index):
            time.sleep(0.02)
            return {}

    phase = run.Phase(sample=lambda: 2.0)
    phase.run(Sleeps(), 0)
    assert phase.wall[0] >= 0.02
    assert phase.latencies[0] == phase.wall[0] / 2.0


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(x) for x in range(30, 0, -1)]) == (20.0, 100.0 * 20 / 30, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
