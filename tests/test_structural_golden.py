"""Golden structural reports: ``single_crossing_report`` and ``concavity_report``.

``tests/golden/structural_reports.json`` holds, for each seeded instance built
by ``structural_instances``, both reports (value, raw, witness) as JSON.  The
test measures them again and compares after a JSON round trip, so a rewrite of
either measurement must keep every constant and every witness.

Regenerate (only when the reports are meant to change) with

    PYTHONPATH=src python tests/test_structural_golden.py tests/golden/structural_reports.json
"""

import json
import sys
from pathlib import Path

import numpy as np

from ivauctions import SignalSpace, ValuationInstance, concavity_report, single_crossing_report
from ivauctions import instances as gen

GOLDEN = Path(__file__).parent / "golden" / "structural_reports.json"

#: Grid shapes of the tie-heavy small-integer tables.
TIE_SHAPES = ((1,), (2, 2), (1, 3), (3, 1, 2), (2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 2))


def _tie_heavy(sizes: tuple[int, ...], seed: int, strict: bool) -> ValuationInstance:
    """Monotone table of small integers, so many ratios tie.

    Running maxima of draws from {0, 1, 2} (many zero increments, so mostly
    INFINITE constants), or with ``strict`` prefix sums of draws from {1, 2}
    (finite constants).  Both reports' witnesses depend on which tie comes first.
    """
    rng = np.random.default_rng(seed)
    space = SignalSpace(sizes)
    low = 1 if strict else 0
    values = rng.integers(low, 3, size=(space.n,) + space.shape).astype(np.float64)
    for axis in range(1, space.n + 1):
        values = (np.cumsum if strict else np.maximum.accumulate)(values, axis=axis)
    return ValuationInstance(space=space, values=values, name=f"tie_heavy_{seed}")


def structural_instances() -> list[tuple[str, ValuationInstance]]:
    items = []
    for n, k in ((1, 4), (2, 6), (2, 11), (3, 3), (3, 5), (4, 2), (5, 1), (5, 2)):
        for seed in (0, 7):
            items.append((f"tabulated_n{n}_k{k}_s{seed}", gen.gen_random_tabulated(n, k, seed)[0]))
    for n, k, c in ((2, 5, 2.0), (3, 3, 1.5), (4, 2, 3.0), (5, 1, 1.0)):
        for seed in (1, 4):
            items.append((f"separable_n{n}_k{k}_s{seed}", gen.gen_random_separable(n, k, c, seed)))
    for seed, sizes in enumerate(TIE_SHAPES * 3):
        strict = seed >= len(TIE_SHAPES) * 2
        label = f"tie_{'strict' if strict else 'heavy'}_{'x'.join(map(str, sizes))}_s{seed}"
        items.append((label, _tie_heavy(sizes, seed, strict)))
    items += [
        ("det_impossibility_r3", gen.gen_det_impossibility(3.0)),
        ("rand_impossibility_n3", gen.gen_rand_impossibility(3)),
        ("three_bidder_no_c", gen.gen_three_bidder_no_c()),
        ("oil_no_sc_k4", gen.gen_oil_no_sc(4)),
        ("tight_hypergrid_n4_c2", gen.gen_tight_hypergrid(4, 2.0)),
    ]
    return items


def reports_json(v: ValuationInstance) -> dict:
    crossing = single_crossing_report(v)
    concavity = concavity_report(v)
    return {
        "crossing": {"c": crossing.c, "raw": crossing.raw, "witness": crossing.witness},
        "concavity": {"d": concavity.d, "raw": concavity.raw, "witness": concavity.witness},
    }


def _round_trip(obj):
    return json.loads(json.dumps(obj))


def test_structural_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    items = structural_instances()
    assert [name for name, _ in items] == list(golden)
    for name, v in items:
        assert _round_trip(reports_json(v)) == golden[name], name


def test_golden_covers_infinite_constants():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) >= 40
    assert any(r["crossing"]["c"] == float("inf") for r in golden.values())
    assert any(r["concavity"]["d"] == float("inf") for r in golden.values())


if __name__ == "__main__":
    out = {name: reports_json(v) for name, v in structural_instances()}
    Path(sys.argv[1]).write_text(json.dumps(out, indent=1) + "\n")
