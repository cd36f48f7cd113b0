"""CLI: round trips, determinism, exit codes, machine-readable errors."""

import json
import os
import subprocess
import sys

import pytest

from ivauctions.cli import main


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def tight_file(tmp_path):
    path = tmp_path / "tight.json"
    code, _, err = run_cli(
        "generate", "tight_hypergrid", "--params", "n=4", "c=2", "--out", str(path)
    )
    assert code == 0, err
    return str(path)


@pytest.fixture
def prior_file(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"kind": "product", "marginals": [[0.5, 0.5]] * 2}))
    return str(path)


def test_generate_and_check(tight_file):
    code, out, _ = run_cli("check", "--instance", tight_file)
    assert code == 0
    report = json.loads(out)
    assert report["c"] == 2.0 and report["d"] == 1.0
    assert report["monotone"] is True
    assert report["sizes"] == [1, 1, 1, 1] and report["profile_count"] == 16


def test_check_infinite_c(tmp_path):
    path = tmp_path / "det.json"
    run_cli("generate", "det_impossibility", "--params", "r=3", "--out", str(path))
    code, out, _ = run_cli("check", "--instance", str(path))
    assert code == 0
    assert json.loads(out)["c"] == "INFINITE"


def test_check_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli("check", "--instance", str(bad))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"]["type"] == "parse"
    assert "line" in error["error"]["message"]


def test_check_empty_file(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, _, err = run_cli("check", "--instance", str(empty))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "parse"


def test_run_hypergrid(tight_file):
    code, out, _ = run_cli(
        "run", "--instance", tight_file, "--mechanism", "hypergrid",
        "--profile", "1,1,1,1",
    )
    assert code == 0
    result = json.loads(out)
    assert result["winner"] == 1  # 1-based on the wire
    assert result["payment"] == 1.0
    assert result["pi"] == [1, 2, 3, 4]


def test_run_vcg_oil(tmp_path):
    path = tmp_path / "oil.json"
    run_cli("generate", "oil_sc", "--params", "k=3", "--out", str(path))
    code, out, _ = run_cli(
        "run", "--instance", str(path), "--mechanism", "vcg", "--profile", "2,0"
    )
    assert code == 0
    result = json.loads(out)
    assert result == {"winner": 1, "payment": 0.0, "critical_signal": 0}


def test_run_out_of_range_profile(tight_file):
    code, _, err = run_cli(
        "run", "--instance", tight_file, "--mechanism", "hypergrid",
        "--profile", "2,0,0,0",
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "usage"


def test_run_incompatible_mechanism(tight_file):
    code, _, err = run_cli(
        "run", "--instance", tight_file, "--mechanism", "two-bidder",
        "--profile", "1,1,1,1",
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "incompatible"


def _generated(tmp_path, name, *params):
    path = tmp_path / f"{name}.json"
    code, _, err = run_cli("generate", name, "--params", *params, "--out", str(path))
    assert code == 0, err
    return str(path)


def _uniform_prior(tmp_path, instance_path):
    with open(instance_path) as fh:
        sizes = json.load(fh)["sizes"]
    path = tmp_path / "uniform_prior.json"
    marginals = [[1.0 / (k + 1)] * (k + 1) for k in sizes]
    path.write_text(json.dumps({"kind": "product", "marginals": marginals}))
    return str(path), ",".join("0" * len(sizes))


# (mechanism, instance generator, params) whose precondition fails; the last
# three have revenue families.
INCOMPATIBLE = [
    ("two-bidder", "tight_hypergrid", ("n=4", "c=2")),
    ("vcg", "tight_hypergrid", ("n=4", "c=2")),
    ("high-if-possible", "oil_sc", ("k=3",)),
    ("hypergrid", "det_impossibility", ("r=3",)),
    ("random-hypergrid", "det_impossibility", ("r=3",)),
]


@pytest.mark.parametrize(
    "command,mechanism,generator,params",
    [(cmd,) + case for cmd in ("run", "table", "evaluate") for case in INCOMPATIBLE]
    + [("revenue",) + case for case in INCOMPATIBLE[2:]],
)
def test_unmet_precondition_is_incompatible(tmp_path, command, mechanism, generator, params):
    """Every command reports a mechanism precondition as type ``incompatible``."""
    path = _generated(tmp_path, generator, *params)
    prior, zeros = _uniform_prior(tmp_path, path)
    argv = [command, "--instance", path, "--mechanism", mechanism]
    argv += {"run": ["--profile", zeros], "revenue": ["--prior", prior]}.get(command, [])
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "incompatible"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--mechanism", "random-hypergrid", "--profile", "0,0,0,0"),
        ("run", "--mechanism", "vcg", "--profile", "0,0,0,0"),
        ("table", "--mechanism", "random-hypergrid"),
        ("evaluate", "--mechanism", "random-hypergrid"),
        ("revenue", "--mechanism", "high-if-possible"),
        ("revenue", "--mechanism", "random-hypergrid"),
    ],
)
def test_invalid_pi_is_a_usage_error(tight_file, tmp_path, argv):
    """A bad --pi is refused by every command that accepts it, whatever the mechanism."""
    prior, _ = _uniform_prior(tmp_path, tight_file)
    extra = ("--prior", prior) if argv[0] == "revenue" else ()
    code, out, err = run_cli(*argv, *extra, "--instance", tight_file, "--pi", "9,9")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


@pytest.fixture
def separable_file(tmp_path):
    """Two bidders, two signals, each value depending on its own signal only (c = 1)."""
    path = tmp_path / "separable.json"
    path.write_text(json.dumps({"sizes": [1, 1], "values": [[1, 1, 2, 2], [1, 2, 1, 2]]}))
    return str(path)


@pytest.mark.parametrize(
    "mechanism", ["vcg", "two-bidder", "high-if-possible", "hypergrid", "random-hypergrid"]
)
def test_each_command_measures_c_once(separable_file, tmp_path, mechanism, monkeypatch):
    """The library checks the preconditions, so c is measured once per command."""
    from ivauctions import model

    calls = []
    measure = model.single_crossing_report
    monkeypatch.setattr(model, "single_crossing_report", lambda v: calls.append(v) or measure(v))
    prior, _ = _uniform_prior(tmp_path, separable_file)
    commands = [
        ("run", "--profile", "1,1"),
        ("table",),
        ("evaluate",),
        ("evaluate", "--prior", prior),
    ]
    if mechanism in ("high-if-possible", "hypergrid", "random-hypergrid"):
        commands.append(("revenue", "--prior", prior))
    for command, *rest in commands:
        calls.clear()
        code, _, err = run_cli(
            command, "--instance", separable_file, "--mechanism", mechanism, *rest
        )
        assert code == 0, err
        assert len(calls) == 1, (command, rest)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--format", "csv"),
        ("search", "--seed", "1"),
        ("run", "--mechanism", "hypergrid", "--profile", "0,0,0,0", "--samples", "5"),
    ],
)
def test_unread_flags_are_rejected(tight_file, argv):
    """A subcommand declares only the flags it reads; argparse refuses the rest."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--instance", tight_file)
    assert exc.value.code == 2


def test_run_random_reports_ordering(tight_file):
    code, out, _ = run_cli(
        "run", "--instance", tight_file, "--mechanism", "random-hypergrid",
        "--profile", "1,1,1,1", "--seed", "9",
    )
    assert code == 0
    result = json.loads(out)
    assert sorted(result["pi"]) == [1, 2, 3, 4]
    code2, out2, _ = run_cli(
        "run", "--instance", tight_file, "--mechanism", "random-hypergrid",
        "--profile", "1,1,1,1", "--seed", "9",
    )
    assert out2 == out  # byte-identical rerun


def test_table_roundtrip(tight_file, tmp_path):
    out_path = tmp_path / "table.json"
    code, _, _ = run_cli(
        "table", "--instance", tight_file, "--mechanism", "hypergrid",
        "--out", str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert len(obj["winner"]) == 16
    assert all(w in (1, 3, 4) for w in obj["winner"])  # bidder 2 never wins


def test_evaluate_worst_ratio(tight_file):
    code, out, _ = run_cli("evaluate", "--instance", tight_file, "--mechanism", "hypergrid")
    assert code == 0
    result = json.loads(out)
    assert result["worst_ratio"] == 6.0
    assert len(result["per_profile"]) == 16


def test_evaluate_with_prior_populates_revenue(tmp_path, prior_file):
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    code, out, _ = run_cli(
        "evaluate", "--instance", str(path), "--mechanism", "two-bidder",
        "--prior", prior_file,
    )
    assert code == 0
    result = json.loads(out)
    for field in ("expected_welfare", "expected_revenue", "lookahead", "revenue_ratio"):
        assert field in result


@pytest.mark.parametrize("stanza", [
    {"generator": "rand_c_lb", "params": {"n": 9, "c": 2.0}},
    # orderings change the winner here, so the sampled means carry noise
    {"generator": "random_separable", "params": {"n": 9, "k": 1, "c": 1.5, "seed": 4}},
], ids=["rand_c_lb", "random_separable"])
def test_evaluate_random_hypergrid_sampled_branch(tmp_path, stanza):
    """Above eight bidders evaluate samples orderings: replayable, and the estimator's own mean."""
    from ivauctions import compute_c
    from ivauctions import instances as gen
    from ivauctions.oracle import monte_carlo_random_hypergrid

    path = tmp_path / "n9.json"
    path.write_text(json.dumps(stanza))
    argv = ("evaluate", "--instance", str(path), "--mechanism", "random-hypergrid",
            "--samples", "20", "--seed", "5")
    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert run_cli(*argv)[1] == out
    rows = {tuple(r["profile"]): r for r in json.loads(out)["per_profile"]}
    assert len(rows) == 2**9
    v = gen.make_instance(stanza["generator"], **stanza["params"])
    c = compute_c(v)
    for p in [(0,) * 9, (1, 0, 1, 0, 0, 1, 1, 0, 1), (1,) * 9]:
        mean, _ = monte_carlo_random_hypergrid(v, p, samples=20, seed=5, c=c)
        assert rows[p]["expected_value"] == mean, p


def test_evaluate_csv_projection(tight_file):
    code, out, _ = run_cli(
        "evaluate", "--instance", tight_file, "--mechanism", "hypergrid",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "profile,winner,ratio"
    assert len(lines) == 17


def test_search_subcommand(tmp_path):
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    witness = tmp_path / "witness.json"
    code, out, _ = run_cli("search", str(path), "--witness", str(witness))
    assert code == 0
    report = json.loads(out)
    assert report["best_ratio"] == 2.0 and report["monotone_count"] == 6
    table = json.loads(witness.read_text())
    assert len(table["winner"]) == 4


def test_search_without_a_finite_table_reports_infinite(tmp_path):
    """Bidder 0 must win at (0, 1), so monotonicity hands it (1, 1), where it
    is worth 0: every monotone table has an infinite ratio and none is a witness."""
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"sizes": [1, 1], "values": [[1, 1, 1, 0], [1, 0, 1, 1]]}))
    witness = tmp_path / "witness.json"
    code, out, _ = run_cli("search", str(path), "--witness", str(witness))
    assert code == 0 and not witness.exists()
    assert json.loads(out) == {
        "best_ratio": "INFINITE", "tables_scanned": 15, "monotone_count": 6, "has_witness": False,
    }


def test_revenue_subcommand(tmp_path, prior_file):
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    code, out, _ = run_cli(
        "revenue", "--instance", str(path), "--mechanism", "high-if-possible",
        "--prior", prior_file,
    )
    assert code == 0
    result = json.loads(out)
    for field in ("expected_revenue", "lookahead", "ratio", "alpha", "d", "p"):
        assert field in result
    assert result["alpha"] == 2.0 and result["p"] == 1.0
    bound = result["alpha"] ** 2 + 4 * result["alpha"] * result["d"] + 1
    assert result["ratio"] <= bound


def test_revenue_prior_with_a_repeated_atom(tmp_path):
    """A profile listed twice on the wire sums its atoms, like one merged atom."""
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    outputs = []
    for atoms in (
        [([1, 1], 0.5), ([0, 1], 0.25), ([1, 1], 0.25)],
        [([1, 1], 0.75), ([0, 1], 0.25)],
    ):
        prior = tmp_path / f"prior{len(outputs)}.json"
        wire = [{"profile": p, "p": q} for p, q in atoms]
        prior.write_text(json.dumps({"kind": "sparse", "atoms": wire}))
        code, out, err = run_cli(
            "revenue", "--instance", str(path), "--mechanism", "high-if-possible",
            "--prior", str(prior),
        )
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_revenue_zero_samples_is_a_typed_error(tmp_path, prior_file):
    """A sampled revenue estimate with no samples is refused, not a traceback."""
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    code, out, err = run_cli(
        "revenue", "--instance", str(path), "--mechanism", "random-hypergrid",
        "--prior", prior_file, "--cap", "1", "--samples", "0",
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {"type": "revenue", "message": "need at least one sample"}


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--d", "nan"), ("--alpha", "inf")])
def test_revenue_non_finite_parameter_is_a_typed_error(tmp_path, prior_file, flag, value):
    """A NaN or infinite alpha, or a NaN d, is refused before any revenue is summed."""
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    code, out, err = run_cli(
        "revenue", "--instance", str(path), "--mechanism", "high-if-possible",
        "--prior", prior_file, flag, value,
    )
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "revenue" and "finite" in error["message"]


@pytest.mark.parametrize(
    "prior",
    [
        {"kind": "product"},
        {"kind": "sparse", "atoms": [{"profile": [0, 0]}]},
        {"kind": "sparse", "atoms": [{"p": 1.0}]},
        {"kind": "sparse",
         "atoms": [{"profile": [0, 0], "p": float("nan")}, {"profile": [1, 1], "p": 1.0}]},
        {"kind": "product", "marginals": [[float("nan"), 1.0], [0.5, 0.5]]},
    ],
)
def test_revenue_malformed_prior_is_a_typed_error(tmp_path, prior):
    """A prior file with a missing key or a NaN probability yields a JSON error, not
    a traceback or numbers from the rest of the prior."""
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    prior_path = tmp_path / "bad_prior.json"
    prior_path.write_text(json.dumps(prior))
    code, out, err = run_cli(
        "revenue", "--instance", str(path), "--prior", str(prior_path),
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "prior"


@pytest.mark.parametrize(
    "obj",
    [
        {"sizes": [1], "values": [[0.0, "a"]]},
        {"sizes": [1, 1], "values": [[1.0, 2.0, 3.0, [5]], [1.0, 2.0, 3.0, 4.0]]},
        {"sizes": [1, "b"], "values": [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]]},
        {"sizes": [1], "values": [1.0, 2.0]},
        # non-integer sizes are refused even where truncating them would fit the rows
        {"sizes": [1.5, 1], "values": [[1.0, 2.0, 3.0, 4.0]] * 2},
        {"sizes": ["1", 1], "values": [[1.0, 2.0, 3.0, 4.0]] * 2},
        {"sizes": [2.0, 1], "values": [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]] * 2},
    ],
)
def test_malformed_instance_file_is_a_typed_error(tmp_path, obj):
    """A value table or size list of the wrong types yields a JSON error, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("check", "--instance", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "instance"


@pytest.mark.parametrize("params", ["x", [1], 3])
def test_non_object_generator_params_is_a_typed_error(tmp_path, params):
    """A generator stanza whose "params" is not an object yields a JSON error, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generator": "oil_sc", "params": params}))
    code, out, err = run_cli("check", "--instance", str(path))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "instance"


@pytest.mark.parametrize("flag", ["--out", "--witness"])
def test_unwritable_output_path_is_an_io_error(tmp_path, flag):
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    target = str(tmp_path / "missing" / "dir" / "w.json")
    code, out, err = run_cli("search", str(path), flag, target)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "io" and target in error["message"]


def _read_file_flags(tight_file, path):
    """Each flag that names an input file, with ``path`` in its place."""
    return {
        "--instance": ("check", "--instance", path),
        "--prior": ("evaluate", "--instance", tight_file, "--mechanism", "hypergrid",
                    "--prior", path),
        "--config": ("check", "--config", path),
    }


@pytest.mark.parametrize("flag", ["--instance", "--prior", "--config"])
def test_unreadable_input_file_is_an_io_error(tight_file, tmp_path, flag):
    """A directory, or a file the process may not read, yields type io, not a traceback."""
    argv = _read_file_flags(tight_file, str(tmp_path))[flag]
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "io" and str(tmp_path) in error["message"]
    if os.geteuid() == 0:  # root reads any file whatever its mode
        return
    locked = tmp_path / "locked.json"
    locked.write_text("{}")
    locked.chmod(0)
    code, out, err = run_cli(*_read_file_flags(tight_file, str(locked))[flag])
    assert code == 1 and out == "" and json.loads(err)["error"]["type"] == "io"


@pytest.mark.parametrize("flag", ["--instance", "--prior", "--config"])
def test_non_utf8_input_file_is_a_parse_error(tight_file, tmp_path, flag):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "café"}'.encode("latin-1"))
    code, out, err = run_cli(*_read_file_flags(tight_file, str(path))[flag])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "parse" and "UTF-8" in error["message"]


def test_generate_unknown_params_error():
    code, _, err = run_cli("generate", "oil_sc", "--params", "bogus=3")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "generate"


@pytest.mark.parametrize(
    "name, params, said",
    [
        ("random_separable", ["n=2", "k=1", "c=2", "seed=-1"], "seed >= 0"),
        ("random_tabulated", ["n=2", "k=1", "seed=-1"], "seed >= 0"),
        ("random_separable", ["n=2", "k=1", "c=nan", "seed=1"], "c >= 1"),
        ("random_mech_lb", ["n=4", "c=nan"], "c must be >= 1"),
        ("tight_hypergrid", ["n=3", "c=nan"], "c must be >= 1"),
        ("rand_c_lb", ["n=2", "c=nan"], "c must be >= 1"),
    ],
)
def test_generate_out_of_range_params_error(name, params, said):
    """A negative seed or a NaN c is refused by the generator itself, with no traceback."""
    code, out, err = run_cli("generate", name, "--params", *params)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "generate" and said in error["message"]


@pytest.mark.parametrize(
    "name, params",
    [
        ("random_separable", {"n": 2, "k": 1, "c": 2, "seed": -1}),
        ("random_tabulated", {"n": 2, "k": 1, "seed": -1}),
    ],
)
def test_negative_seed_in_a_generator_stanza_is_a_typed_error(tmp_path, name, params):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generator": name, "params": params}))
    code, out, err = run_cli("check", "--instance", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "instance" and "seed" in error["message"]


def test_generate_oracle_backed_writes_generator_form(tmp_path):
    path = tmp_path / "big.json"
    code, _, _ = run_cli(
        "generate", "random_mech_lb", "--params", "n=64", "c=2", "--out", str(path)
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["generator"] == "random_mech_lb"
    assert "values" not in obj


@pytest.mark.parametrize(
    "argv",
    [["check"], ["run", "--mechanism", "hypergrid", "--profile", ",".join(["0"] * 65)]],
)
def test_untabulable_instance_is_a_cap_error(tmp_path, argv):
    """A command that must tabulate 2^65 profiles reports a cap hit, as ``search`` does."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"generator": "random_mech_lb", "params": {"n": 64, "c": 2.0}}))
    code, out, err = run_cli(*argv, "--instance", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "cap" and "cannot tabulate" in error["message"]


def test_deterministic_output_bytes(tight_file):
    first = run_cli("evaluate", "--instance", tight_file, "--mechanism", "hypergrid")
    second = run_cli("evaluate", "--instance", tight_file, "--mechanism", "hypergrid")
    assert first == second


def test_config_file_precedence(tight_file, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"instance": tight_file, "mechanism": "hypergrid",
                                "profile": "1,1,1,1"}))
    code, out, _ = run_cli("run", "--config", str(conf))
    assert code == 0
    assert json.loads(out)["winner"] == 1
    # an explicit flag beats the config value
    code, out, _ = run_cli("run", "--config", str(conf), "--profile", "0,0,0,0")
    assert code == 0
    assert json.loads(out)["critical_signal"] == 0
    code, _, err = run_cli("run", "--config", str(conf.with_suffix(".bogus")))
    assert code == 1 and json.loads(err)["error"]["type"] == "io"
    bad = tmp_path / "bad_conf.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    code, _, err = run_cli("run", "--config", str(bad))
    assert code == 1 and json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "conf,key",
    [({"instance": 7}, "instance"), ({"seed": "3"}, "seed"), ({"format": "xml"}, "format"),
     ({"cap": True}, "cap"), ({"profile": [1, 1, 1, 1]}, "profile")],
)
def test_config_value_of_the_wrong_type_is_a_usage_error(tight_file, tmp_path, conf, key):
    """An ill-typed config value is refused by key before anything reads it."""
    path = tmp_path / "conf.json"
    path.write_text(json.dumps({"instance": tight_file, "mechanism": "hypergrid", **conf}))
    code, out, err = run_cli("evaluate", "--config", str(path))
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and repr(key) in error["message"]
    path.write_text(json.dumps([key]))
    code, _, err = run_cli("evaluate", "--config", str(path))
    assert code == 1 and json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize("command", ["run", "table", "evaluate", "revenue"])
def test_config_unknown_mechanism_is_a_usage_error(tight_file, tmp_path, command):
    """A mechanism name from --config bypasses argparse's choices and is refused."""
    prior, zeros = _uniform_prior(tmp_path, tight_file)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"instance": tight_file, "mechanism": "bogus",
                                "profile": zeros, "prior": prior}))
    code, out, err = run_cli(command, "--config", str(conf))
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("check",), "--instance"),
        (("run", "--mechanism", "hypergrid", "--profile", "0,0,0,0"), "--instance"),
        (("table", "--mechanism", "hypergrid"), "--instance"),
        (("evaluate", "--mechanism", "hypergrid"), "--instance"),
        (("revenue", "--mechanism", "hypergrid", "--prior", "PRIOR"), "--instance"),
        (("run", "--instance", "TIGHT", "--mechanism", "hypergrid"), "--profile"),
        (("run", "--instance", "TIGHT", "--profile", "0,0,0,0"), "--mechanism"),
        (("table", "--instance", "TIGHT"), "--mechanism"),
        (("evaluate", "--instance", "TIGHT"), "--mechanism"),
    ],
)
def test_missing_required_flag_is_a_usage_error(tight_file, prior_file, argv, flag):
    """A missing flag is named in a typed error, not a traceback."""
    argv = [{"TIGHT": tight_file, "PRIOR": prior_file}.get(a, a) for a in argv]
    code, out, err = run_cli(*argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and f"{flag} is required" in error["message"]
    if flag == "--mechanism":
        names = ("vcg", "two-bidder", "high-if-possible", "hypergrid", "random-hypergrid")
        assert all(name in error["message"] for name in names)


@pytest.mark.parametrize(
    "argv, kind, said",
    [
        (("revenue", "--instance", "PAIR"), "usage", "revenue needs --prior"),
        (("revenue", "--instance", "PAIR", "--prior", "PRIOR", "--d", "inf"), "incompatible",
         "infinite concavity"),
        (("search",), "usage", "search needs an instance file"),
        (("generate", "oil_sc", "--params", "k"), "usage", "key=value"),
        (("generate", "oil_sc", "--params", "k=x"), "usage", "is not a number"),
        (("run", "--instance", "TIGHT", "--mechanism", "hypergrid", "--profile", "1,x"), "usage",
         "comma-separated integers"),
        (("evaluate", "--instance", "NINE", "--mechanism", "random-hypergrid", "--samples", "0"),
         "evaluate", "at least one sample"),
    ],
    ids=["revenue-no-prior", "revenue-d-inf", "search-no-instance", "params-no-value",
         "params-not-a-number", "profile-not-integers", "evaluate-zero-samples"],
)
def test_command_errors_are_typed(tmp_path, tight_file, prior_file, argv, kind, said):
    files = {"TIGHT": tight_file, "PRIOR": prior_file}
    made = {"PAIR": ("two_by_two_tight", "c=2"), "NINE": ("tight_hypergrid", "n=9", "c=2")}
    for name, (generator, *params) in made.items():
        files[name] = str(tmp_path / f"{name}.json")
        assert run_cli("generate", generator, "--params", *params, "--out", files[name])[0] == 0
    code, out, err = run_cli(*[files.get(a, a) for a in argv])
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == kind and said in error["message"], error


def test_check_reports_a_non_monotone_instance(tmp_path):
    """A non-monotone instance is reported, not measured: c and d stay null."""
    path = tmp_path / "drop.json"
    values = [[0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 1.0, 1.0]]  # v_2 drops as s_2 rises at s_1 = 0
    path.write_text(json.dumps({"sizes": [1, 1], "values": values}))
    code, out, err = run_cli("check", "--instance", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["monotone"] is False and report["c"] is None and report["d"] is None
    assert report["monotone_violations"] == [
        {"bidder": 2, "axis": 2, "profile": [0, 1], "from": 1.0, "to": 0.5}
    ]


def test_infinite_c_in_a_generator_stanza_is_one_instance_error(tmp_path):
    """JSON reads 1e309 as infinity; the generator refuses it before NumPy
    sees it, so stderr holds the one JSON error line and no warning."""
    path = tmp_path / "inf.json"
    path.write_text('{"generator": "random_mech_lb", "params": {"n": 4, "c": 1e309}}')
    proc = subprocess.run(
        [sys.executable, "-m", "ivauctions.cli", "check", "--instance", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    [line] = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "instance" and "finite" in error["message"]


def test_mechlib_cap_env(tight_file, monkeypatch):
    monkeypatch.setenv("MECHLIB_CAP", "3")
    code, _, err = run_cli("search", tight_file)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "cap"
    # explicit flag overrides the environment
    code, out, _ = run_cli("search", tight_file, "--cap", "10000000")
    assert code == 0
    report = json.loads(out)
    assert report["monotone_count"] == 4_595_984 and report["tables_scanned"] == 8_713_739


@pytest.mark.parametrize("value", ["10k", "2.5"])
def test_malformed_mechlib_cap_is_a_usage_error(tight_file, monkeypatch, value):
    monkeypatch.setenv("MECHLIB_CAP", value)
    code, out, err = run_cli("search", tight_file)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and "MECHLIB_CAP" in error["message"]


@pytest.mark.parametrize("value", ["-5", "0"])
def test_mechlib_cap_below_one_is_a_usage_error(tight_file, monkeypatch, value):
    monkeypatch.setenv("MECHLIB_CAP", value)
    for argv in (("search", tight_file), ("check", "--instance", tight_file)):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and "MECHLIB_CAP" in error["message"], argv


@pytest.mark.parametrize("value", ["-1", "0"])
def test_cap_flag_below_one_is_a_usage_error(tight_file, value):
    for argv in (("search", tight_file), ("check", "--instance", tight_file),
                 ("generate", "oil_sc", "--params", "k=2")):
        code, out, err = run_cli(*argv, "--cap", value)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and "--cap" in error["message"], argv


@pytest.mark.parametrize("value", [-1, 0])
def test_config_cap_below_one_is_a_usage_error(tight_file, tmp_path, value):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cap": value}))
    for argv in (("search", tight_file), ("check", "--instance", tight_file)):
        code, out, err = run_cli(*argv, "--config", str(conf))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and "'cap'" in error["message"], argv


def test_cap_of_one_is_accepted(tight_file, monkeypatch):
    code, _, err = run_cli("check", "--instance", tight_file, "--cap", "1")
    assert code == 0, err
    monkeypatch.setenv("MECHLIB_CAP", "1")
    code, _, err = run_cli("search", tight_file)
    assert code == 1 and json.loads(err)["error"]["type"] == "cap"


def test_parser_is_built_once_and_reads_the_environment_per_call(tight_file, monkeypatch):
    from ivauctions import cli

    run_cli("check", "--instance", tight_file)
    assert cli._parser() is cli._parser()
    monkeypatch.setenv("MECHLIB_CAP", "-5")
    assert run_cli("check", "--instance", tight_file)[0] == 1
    monkeypatch.delenv("MECHLIB_CAP")
    assert run_cli("check", "--instance", tight_file)[0] == 0
    # argparse errors and --help still exit through SystemExit, every time
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run_cli("nonsense")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "--help")
        assert exc.value.code == 0


def test_console_entry_point(tight_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ivauctions.cli", "check", "--instance", tight_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c"] == 2.0
