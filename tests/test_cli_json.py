"""The CLI's JSON encoder against ``json.dumps(obj, indent=2)``, text for text.

The CLI renders documents with its own encoder (record lists through a row
template, columns of scalars in one pass).  These tests hold it to the stdlib:
on every golden CLI document and on hand-built edge cases the text must be
identical, and unencodable objects must raise the stdlib's own ``TypeError``.
"""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivauctions import AllocationTable, ValuationInstance, cli, hypergrid_coloring
from ivauctions import instances as gen
from ivauctions.cli import Rows, _dumps, _encode
from ivauctions.mechanisms import _ratios, _winner_values
from ivauctions.model import instance_to_json
from test_cli_golden import CASES, GOLDEN, WRITES

#: Every JSON document the golden CLI cases print or write.
GOLDEN_JSON = sorted(
    [f"{case}.txt" for case, argv in CASES.items() if "csv" not in argv]
    + [f"{case}.{fname}" for case, files in WRITES.items() for fname in files]
)

EDGE_CASES = {
    "empty_dict": {},
    "empty_list": [],
    "empty_tuple": (),
    "nested_empty": {"a": {}, "b": [], "c": [[], {}], "d": [[[]]], "e": [{"x": []}, {"x": []}]},
    "tuples": {"t": (1, 2, 3), "rows": [(1, "a"), (2, "b")], "nested": ((1, (2, 3)), (4, (5, 6)))},
    "bool_next_to_int": [True, 1, False, 0, None, 2],
    "bool_column": [{"ok": True, "n": 1}, {"ok": False, "n": 0}, {"ok": 1, "n": True}],
    "bool_and_none_columns": [{"ok": True, "w": None}, {"ok": False, "w": None}],
    "bools_only": [True, False, True],
    "nan_and_inf": [math.nan, math.inf, -math.inf, 1.5, -0.0, 1e300, 5e-324],
    "nan_records": [{"r": math.inf}, {"r": 2.0}, {"r": -math.inf}, {"r": math.nan}],
    "np_float64": {"x": np.float64(2.5), "col": [np.float64(1.0), np.float64(math.inf)],
                   "mixed": [1.0, np.float64(0.1)]},
    "non_ascii_and_percent": {"é%s": "ü%d☃", "100%": ["50%", "☃", "%%"],
                              "rows": [{"%(x)s": "%", "ü": "\n\t\"\\"}, {"%(x)s": "é", "ü": ""}],
                              "pct": [{"50%%": 1, "%": "%s"}, {"50%%": 2, "%": "%%"}]},
    "non_str_keys": {1: "a", 2.5: "b", None: "c", True: "d", False: [1, 2], -7: {}},
    "nested_non_str_keys": [{"a": {1: 2}}, {"a": {3: 4}}],
    "ragged_records": [{"a": 1, "b": 2}, {"a": 1}, {"a": 1, "b": 2, "c": 3}],
    "key_order_changes": [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    "records_with_nested_dict": [{"a": {"x": 1, "y": [1, 2]}, "b": 1},
                                 {"a": {"x": 2, "y": [3]}, "b": 2}],
    "mixed_dicts_and_scalars": [{"a": 1}, 3, "x", [1], None, {"a": 2}],
    "big_ints": [2**63, 2**64 + 1, -(2**70), 10**40],
    "ragged_lists": [[1, 2], [3, 4], [5]],
    "same_width_mixed": [[1, "a", None], [2.5, "b", True], [3, [], {}]],
    "ordered_dict": OrderedDict([("z", 1), ("a", [OrderedDict([("k", 1)])])]),
    "record_list_of_one": [{"profile": [0, 0], "winner": None, "ratio": "INFINITE"}],
    "scalars": [0, -1, "s", 1.0],
    "top_level_scalar_str": "x",
    "top_level_scalar_float": math.inf,
    "top_level_none": None,
}


@pytest.mark.parametrize("name", GOLDEN_JSON)
def test_encoder_matches_stdlib_on_golden_documents(name):
    text = (GOLDEN / name).read_text()
    obj = json.loads(text)
    assert _dumps(obj) == _encode(obj, 0) == json.dumps(obj, indent=2) == text.rstrip("\n")


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_encoder_matches_stdlib_on_edge_cases(name):
    obj = EDGE_CASES[name]
    expected = json.dumps(obj, indent=2)
    assert _dumps(obj) == expected
    assert _encode(obj, 0) == expected  # without the whole-object fallback _dumps keeps for errors


@pytest.mark.parametrize(
    "obj",
    [np.int64(3), {1, 2}, [1, np.int64(2)], {"a": [1.0, {3}]}, [{"a": 1}, {"a": np.int64(1)}],
     {(1, 2): 3}, [{"a": 1, "b": {1}}, {"a": np.int32(2), "b": 2}]],
)
def test_encoder_raises_the_stdlib_type_error(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        _dumps(obj)
    assert str(got.value) == str(expected.value)


def test_golden_documents_are_covered():
    assert len(GOLDEN_JSON) >= 14
    assert "search_witness_random_tabulated.witness.json" in GOLDEN_JSON


# --- hypothesis: the encoder on arbitrary documents and column-held records ------------

_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["%", "%(x)s", "50%%", "%s", "ratio"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5),
    st.sampled_from(["%", "%s", "%%", "INFINITE"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_KEYS, kids, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def _columns(draw):
    """Keys and same-length columns: scalar columns (pure or mixing float,
    "INFINITE" and None) and columns of same-width int lists, some held as ``Rows``."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(1, 6))
    cells = st.one_of(
        st.floats(),
        st.integers(),
        st.one_of(st.floats(), st.just("INFINITE"), st.none()),
    )
    cols = []
    for _ in keys:
        if draw(st.booleans()):
            cols.append(draw(st.lists(cells, min_size=rows, max_size=rows)))
        else:
            width = draw(st.integers(1, 3))
            lists = st.lists(st.integers(-3, 99), min_size=rows, max_size=rows)
            cols.append(Rows([draw(lists) for _ in range(width)]))
    return keys, cols


def _materialized(col):
    return [list(row) for row in zip(*map(_materialized, col.columns))] if isinstance(col, Rows) else col


@given(_VALUES)
@settings(max_examples=300, deadline=None)
def test_encoder_matches_stdlib_on_any_document(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)


@given(_columns())
@settings(max_examples=200, deadline=None)
def test_rows_render_as_the_records_they_hold(spec):
    keys, cols = spec
    records = [dict(zip(keys, row)) for row in zip(*map(_materialized, cols))]
    doc = {"records": records, "lists": [list(r.values()) for r in records]}
    assert _dumps(doc) == json.dumps(doc, indent=2)
    held = {"records": Rows(cols, tuple(keys)), "lists": Rows(cols)}
    assert _dumps(held) == json.dumps(doc, indent=2)


# --- evaluate: column-written bytes against the per-profile dict rows ------------------


def _dict_rows_evaluate(v, table, name):
    """``evaluate``'s JSON and CSV texts from per-profile dicts, as ``json.dumps`` writes them."""
    won = _winner_values(v.values, table.winner).reshape(-1)
    ratios = _ratios(v.values.max(axis=0).reshape(-1), won).tolist()
    per_profile = [
        {"profile": list(p), "winner": w, "ratio": "INFINITE" if math.isinf(r) else r}
        for p, w, r in zip(v.space.profiles(), table.to_json()["winner"], ratios)
    ]
    worst = max(1.0, max(ratios))
    doc = {"mechanism": name, "worst_ratio": "INFINITE" if math.isinf(worst) else worst,
           "per_profile": per_profile}
    lines = ["profile,winner,ratio"] + [
        " ".join(map(str, row["profile"])) + ","
        + ("" if row["winner"] is None else str(row["winner"])) + "," + str(row["ratio"])
        for row in per_profile
    ]
    return json.dumps(doc, indent=2) + "\n", "\n".join(lines) + "\n"


def _zero_valued_winners():
    """A grid whose table leaves profiles with positive values unallocated
    (INFINITE ratios) and gives others to a zero-valued bidder."""
    v = gen.gen_random_tabulated(3, 3, seed=4)[0]
    vals = v.values.copy()
    vals[1, ..., :2] = 0.0
    v = ValuationInstance(space=v.space, values=vals)
    winner = np.random.default_rng(7).integers(-1, 3, size=v.space.shape)
    return v, AllocationTable(space=v.space, winner=winner)


@pytest.mark.parametrize("case", ["random_n2_k70", "random_n3_k16", "zero_valued_winners"])
def test_evaluate_bytes_equal_the_dict_rows(case, tmp_path, monkeypatch):
    if case == "zero_valued_winners":
        v, table = _zero_valued_winners()
        monkeypatch.setattr(cli, "hypergrid_coloring", lambda v, pi: table)
        pi = (0, 1, 2)
    else:
        n, k = (2, 70) if case.endswith("k70") else (3, 16)
        v = gen.gen_random_tabulated(n, k, seed=n)[0]
        pi = tuple(reversed(range(n)))
        table = hypergrid_coloring(v, pi)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(v)))
    expected = _dict_rows_evaluate(v, table, "hypergrid")
    if case == "zero_valued_winners":
        assert '"INFINITE"' in expected[0] and "null" in expected[0]
    pi_arg = ",".join(str(b + 1) for b in pi)
    for fmt, text in zip(("json", "csv"), expected):
        out = tmp_path / f"out.{fmt}"
        argv = ["evaluate", "--mechanism", "hypergrid", "--instance", str(path), "--pi", pi_arg,
                "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_text() == text, fmt
