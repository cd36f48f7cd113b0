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

from ivauctions.cli import _dumps, _encode
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
