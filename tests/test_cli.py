"""CLI: round trips, determinism, exit codes, machine-readable errors."""

import json
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


@pytest.mark.parametrize(
    "prior",
    [
        {"kind": "product"},
        {"kind": "sparse", "atoms": [{"profile": [0, 0]}]},
        {"kind": "sparse", "atoms": [{"p": 1.0}]},
    ],
)
def test_revenue_malformed_prior_is_a_typed_error(tmp_path, prior):
    """A prior file with a missing key yields a JSON error, not a traceback."""
    path = tmp_path / "t22.json"
    run_cli("generate", "two_by_two_tight", "--params", "c=2", "--out", str(path))
    prior_path = tmp_path / "bad_prior.json"
    prior_path.write_text(json.dumps(prior))
    code, out, err = run_cli(
        "revenue", "--instance", str(path), "--prior", str(prior_path),
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "prior"


def test_generate_unknown_params_error():
    code, _, err = run_cli("generate", "oil_sc", "--params", "bogus=3")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "generate"


def test_generate_oracle_backed_writes_generator_form(tmp_path):
    path = tmp_path / "big.json"
    code, _, _ = run_cli(
        "generate", "random_mech_lb", "--params", "n=64", "c=2", "--out", str(path)
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["generator"] == "random_mech_lb"
    assert "values" not in obj


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


def test_console_entry_point(tight_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ivauctions.cli", "check", "--instance", tight_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["c"] == 2.0
