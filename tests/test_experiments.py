"""The tracked results/ directory is exactly what the experiment script writes."""

import contextlib
import importlib.util
import io
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("tightness.csv", "random_bounds.csv", "revenue.csv", "summary.json")
OP_DIGESTS = os.path.join(ROOT, "scripts", "op_digests.py")
#: What ``scripts/op_digests.py`` prints at seed 97 for ops 0..15 of every workload.
PINNED_DIGESTS = """\
orderings b52b5ee189ce9d012d419e0f0abbb5bf45cc8b29d1765d812be8e5e50b2d1ded
revenue e774561b87506b140daf895ee3597b772a393d21bd85f08831553c8d37cf9a45
grid_certify ca1f40209e820c8386f7bf890389fd7f70c890824b7c2eeb79f5f2f04067d2f5
monotone_search c59c7e45342e1437e733b13ce4edf911b62a9f9bead223b66ccb4bea6be8dfe2
"""


def load_script():
    path = os.path.join(ROOT, "scripts", "run_experiments.py")
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_results_regenerate_byte_identical(tmp_path):
    script = load_script()
    with contextlib.redirect_stdout(io.StringIO()):
        code = script.main(["--outdir", str(tmp_path), "--instances-per-family", "20"])
    assert code == 0
    for name in OUTPUTS:
        with open(os.path.join(ROOT, "results", name), "rb") as fh:
            tracked = fh.read()
        assert (tmp_path / name).read_bytes() == tracked, name


def test_op_digests_smoke():
    """The op digest script sets a workload up, runs its ops and prints one
    line per workload; a rerun prints the same line and another seed another."""

    def digest(*argv):
        return _op_digests("--ops", "1", *argv, "revenue")

    line = digest()
    assert re.fullmatch(r"revenue [0-9a-f]{64}\n", line), line
    assert digest() == line
    assert digest("--seed", "98") != line


def test_benchmark_op_outputs_are_pinned():
    """Every benchmark workload's first 16 ops at seed 97 return what they
    returned when these digests were taken: a change that alters an op's
    output, on any workload, fails here."""
    assert _op_digests("--seed", "97", "--ops", "16") == PINNED_DIGESTS


def _op_digests(*argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, OP_DIGESTS, *argv],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
