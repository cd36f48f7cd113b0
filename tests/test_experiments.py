"""The tracked results/ directory is exactly what the experiment script writes."""

import contextlib
import importlib.util
import io
import os

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
