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
    script = os.path.join(ROOT, "scripts", "op_digests.py")

    def digest(*argv):
        proc = subprocess.run([sys.executable, script, "--ops", "1", *argv, "revenue"],
                              capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    line = digest()
    assert re.fullmatch(r"revenue [0-9a-f]{64}\n", line), line
    assert digest() == line
    assert digest("--seed", "98") != line
