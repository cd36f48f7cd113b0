"""The package stands alone: test-side reference code stays out of ``src/``."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import numpy as np

import ivauctions
from ivauctions import cli, mechanisms, oracle, revenue

PACKAGE = Path(ivauctions.__file__).parent

#: Helpers that only tests call; they live in ``tests/reference.py``.
MOVED = (
    "check_expost_truthful_literal",
    "closed_form_rand_impossibility",
    "losing_reserve",
    "discrete_derivative",
    "intermediate_profile",
    "alpha_approximates",
    "restrict_bidders",
    "lazy_winner_trace",
    "check_hypergrid_internal_chain",
    "exact_stats_by_chain",
    "_monopoly_quote",
    "_line_values",
    "high_if_possible_ordered",
    "spot_check_value_monotone",
)


def _imported_names(tree):
    """Every dotted module name an import statement names, and each name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (alias.name for alias in node.names)


def test_package_never_imports_test_code():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_names(tree):
            parts = set(name.split("."))
            assert not parts & {"reference", "tests"}, f"{path.name} imports {name}"


def test_moved_helpers_are_not_package_attributes():
    modules = [ivauctions] + [
        importlib.import_module(f"ivauctions.{info.name}")
        for info in pkgutil.iter_modules(ivauctions.__path__)
    ]
    assert len(modules) > 6
    for module in modules:
        for name in MOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_revenue_reuses_the_mechanisms_bisection_and_reader():
    """One critical-signal bisection, one winner-function reader and one
    high-if-possible pass: ``revenue`` binds the ``mechanisms`` objects
    instead of keeping copies."""
    assert revenue._critical_signals is mechanisms._critical_signals
    assert revenue._called_at is mechanisms._called_at
    assert revenue._high_if_possible_winners is mechanisms._high_if_possible_winners


def test_exact_revenue_has_one_path():
    """Exact revenue is one array sum over the mechanism's stacked pass: no
    per-profile outcomes protocol and no prior override."""
    assert not hasattr(revenue.ReserveBackedMechanism, "profile_outcomes")
    params = list(inspect.signature(revenue.expected_revenue).parameters)
    assert params == ["mechanism", "cap", "samples", "seed"]


def test_revenue_settles_sales_in_one_pass():
    """Only ``_line_quotes`` bisects a line or prices one: no per-draw quote path,
    no quote cache on the mechanism, and no one-line bisection imported."""
    tree = ast.parse(Path(revenue.__file__).read_text())
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for call in ast.walk(func)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in (
            "_monopoly_quotes", "_critical_signals")
    }
    assert callers == {"_line_quotes"}
    assert "critical_signal" not in set(_imported_names(tree))
    assert not hasattr(revenue.ReserveBackedMechanism, "_posted")
    assert "_quotes" not in {f.name for f in dataclasses.fields(revenue.ReserveBackedMechanism)}


def test_lazy_chain_evaluates_an_entrant_one_of_two_ways():
    """``_lazy_chain`` hands the evaluator either a copy of its base profiles or
    one gather of every row's levels: no in-place top-level path and no separate
    one-row path."""
    tree = ast.parse(Path(mechanisms.__file__).read_text())
    chain = next(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 and f.name == "_lazy_chain")
    sites = sorted(
        ast.unparse(call.args[0])
        for call in ast.walk(chain)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "values_at_batch"
    )
    assert sites == ["base.copy()", "profiles"]


def test_a_prior_keeps_only_its_array():
    """A prior is its space and one probability array; no per-profile tuples, and
    no readers: a line or the support is read off ``probs``."""
    assert [f.name for f in dataclasses.fields(revenue.JointPrior)] == ["space", "probs"]
    for name in ("prob", "support", "line_probs"):
        assert not hasattr(revenue.JointPrior, name), name


def test_revenue_does_not_import_bisect():
    """Monte Carlo profiles are drawn by ``np.searchsorted`` on the support's cumsum."""
    tree = ast.parse(Path(revenue.__file__).read_text())
    assert "bisect" not in set(_imported_names(tree))


def test_one_cap_default(monkeypatch):
    """The library's exact-revenue cap is the CLI's default cap."""
    monkeypatch.delenv("MECHLIB_CAP", raising=False)
    cap = inspect.signature(revenue.expected_revenue).parameters["cap"].default
    assert cap == cli._default_cap()


def test_a_table_is_a_rule():
    """A table is called as a rule; no bound lookup stands in for it and no
    code guesses which table hides behind one."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        names |= set(_imported_names(tree))
        consts = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        for banned in ("__func__", "__self__", "_as_rule"):
            assert banned not in names | consts, f"{path.name} names {banned}"
    space = mechanisms.SignalSpace((1, 1))
    table, twin = (
        mechanisms.AllocationTable(space=space, winner=np.zeros((2, 2), dtype=np.int32))
        for _ in range(2)
    )
    assert callable(table) and table((1, 0)) == 0
    assert table != twin and len({table, twin}) == 2  # compared and hashed by identity
    v = ivauctions.instances.gen_random_separable(2, 1, 1.5, seed=1)
    rules = [rule for _, rule in revenue.HypergridFamily(v).realizations((0, 1))]
    assert len(rules) == 2 and all(isinstance(r, mechanisms.AllocationTable) for r in rules)


def _tracing():
    """The benchmark's tracer module, loaded from its file."""
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_names_the_benchmark_reaches_are_kept():
    """``perfbench`` looks up package names that no other test reads: its
    tracer wraps ``ReserveBackedMechanism.profile_events`` through the class
    dict and checks the ``lazy_winner`` bindings, and its workloads call
    ``critical_signal_scan`` and unpack a four-slot concavity witness."""
    original = revenue.ReserveBackedMechanism.profile_events
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert revenue.ReserveBackedMechanism.profile_events is not original
    finally:
        tracer.uninstall()
    assert revenue.ReserveBackedMechanism.profile_events is original
    assert revenue.lazy_winner is ivauctions.oracle.lazy_winner is mechanisms.lazy_winner
    assert callable(mechanisms.critical_signal_scan)
    v = ivauctions.instances.gen_random_separable(3, 2, 1.5, seed=1)
    assert len(ivauctions.concavity_report(v).witness) == 4


def test_the_benchmark_counts_each_enumerated_table_once():
    """The tracer counts one table per item ``enumerate_monotone_tables`` yields,
    so its count is the search's monotone count."""
    v = ivauctions.instances.gen_three_bidder_no_c()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        enumerated = sum(1 for _ in oracle.enumerate_monotone_tables(v))
    finally:
        tracer.uninstall()
    assert tracer.counts["oracle.enumerate_monotone_tables.tables"] == enumerated == 3158
    assert oracle.best_monotone_ratio(v).monotone_count == 3158


def test_the_names_only_tests_read_are_gone():
    """No table parser (the CLI writes tables and never reads one), no profile
    index helper (NumPy's ``ravel_multi_index`` is the row-major contract), no
    search-report serializer (the CLI alone writes ``"INFINITE"``), one
    monotone-table generator, and the oracles resolve c through one rule."""
    assert not hasattr(mechanisms.AllocationTable, "from_json")
    assert not hasattr(mechanisms.SignalSpace, "index_of")
    assert not hasattr(oracle.SearchReport, "to_json")
    assert not hasattr(oracle, "_monotone_tables")
    tree = ast.parse(Path(oracle.__file__).read_text())
    assert "compute_c" not in set(_imported_names(tree))
