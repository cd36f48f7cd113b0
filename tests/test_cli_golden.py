"""Golden CLI outputs: the stdout of fixed commands, compared byte for byte.

Each case writes its input files into a temporary directory, runs the CLI
in-process and compares stdout with ``tests/golden/<case>.txt`` and each file
it writes with ``tests/golden/<case>.<file>``.  The golden
files pin the behaviour contract (byte-identical CLI output) across
refactors of the library underneath.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ivauctions.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: Input files, written by name into the case's directory.
INPUTS = {
    "lb.json": {"generator": "random_mech_lb", "params": {"n": 4, "c": 2}},
    "oil.json": {"generator": "oil_sc", "params": {"k": 3}},
    "tight.json": {"generator": "two_by_two_tight", "params": {"c": 2.0}},
    "sep.json": {"generator": "random_separable",
                 "params": {"n": 3, "k": 1, "c": 2.0, "seed": 3}},
    "skew.json": {"kind": "product",
                  "marginals": [[0.3, 0.7], [0.6, 0.4], [0.25, 0.75]]},
    "tab.json": {"generator": "random_tabulated", "params": {"n": 3, "k": 4, "seed": 5}},
    "sep_k4.json": {"generator": "random_separable",
                    "params": {"n": 3, "k": 4, "c": 2.0, "seed": 1}},
    "sep_k2.json": {"generator": "random_separable",
                    "params": {"n": 3, "k": 2, "c": 1.5, "seed": 1}},
    "skew_k2.json": {"kind": "product",
                     "marginals": [[0.5, 0.3, 0.2], [0.1, 0.3, 0.6], [0.2, 0.7, 0.1]]},
    "tab2_k7.json": {"generator": "random_tabulated", "params": {"n": 2, "k": 7, "seed": 2}},
}

#: Case name -> argv; a token naming an input file is replaced by its path.
CASES = {
    "generate_random_mech_lb": ["generate", "random_mech_lb", "--params", "n=4", "c=2"],
    "check_random_mech_lb": ["check", "--instance", "lb.json"],
    "run_hypergrid_random_mech_lb": ["run", "--instance", "lb.json", "--mechanism", "hypergrid",
                                     "--profile", "1,1,1,1,1"],
    "evaluate_random_hypergrid_random_mech_lb": ["evaluate", "--instance", "lb.json",
                                                 "--mechanism", "random-hypergrid"],
    "table_hypergrid_random_tabulated": ["table", "--instance", "tab.json", "--mechanism",
                                         "hypergrid", "--pi", "3,1,2"],
    "table_hypergrid_random_separable": ["table", "--instance", "sep_k4.json", "--mechanism",
                                         "hypergrid", "--pi", "3,1,2"],
    "evaluate_hypergrid_prior_json": ["evaluate", "--instance", "sep_k2.json", "--mechanism",
                                      "hypergrid", "--pi", "2,3,1", "--prior", "skew_k2.json"],
    "table_two_bidder_oil_sc": ["table", "--instance", "oil.json", "--mechanism", "two-bidder"],
    "evaluate_hypergrid_prior_csv": ["evaluate", "--instance", "sep.json", "--mechanism",
                                     "hypergrid", "--prior", "skew.json", "--format", "csv"],
    "evaluate_high_if_possible_prior": ["evaluate", "--instance", "sep.json", "--mechanism",
                                        "high-if-possible", "--prior", "skew.json"],
    "search_two_by_two_tight": ["search", "--instance", "tight.json"],
    "search_witness_random_tabulated": ["search", "--instance", "tab2_k7.json",
                                        "--witness", "witness.json"],
    "revenue_high_if_possible": ["revenue", "--instance", "sep.json", "--mechanism",
                                 "high-if-possible", "--prior", "skew.json"],
    "revenue_random_hypergrid_sampled": ["revenue", "--instance", "sep.json", "--mechanism",
                                         "random-hypergrid", "--prior", "skew.json", "--cap",
                                         "10", "--samples", "300", "--seed", "3"],
}

#: Case name -> the files it writes; a token naming one is replaced by its path.
WRITES = {"search_witness_random_tabulated": ["witness.json"]}


def run_case(name: str, tmp_path: Path) -> str:
    """The case's stdout; fails on a nonzero exit code."""
    for fname, obj in INPUTS.items():
        (tmp_path / fname).write_text(json.dumps(obj))
    paths = set(INPUTS) | set(WRITES.get(name, ()))
    argv = [str(tmp_path / tok) if tok in paths else tok for tok in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run_case(name, tmp_path) == expected
    for fname in WRITES.get(name, ()):
        assert (tmp_path / fname).read_bytes() == (GOLDEN / f"{name}.{fname}").read_bytes()
