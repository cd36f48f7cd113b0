"""Mechanisms: allocations, payments, truthfulness, and approximation bounds."""

import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivauctions import (
    AllocationTable,
    IncompatibleMechanism,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    check_allocation_monotone,
    check_expost_truthful,
    compute_c,
    critical_signal,
    generalized_vcg,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    lazy_winner,
    lazy_winners,
    outcome,
    random_hypergrid_outcome,
    two_bidder_coloring,
    welfare_ratio,
)
from ivauctions import instances as gen
from ivauctions.mechanisms import (
    NO_WINNER,
    as_table,
    check_expost_truthful_literal,
    check_hypergrid_internal_chain,
    critical_signal_scan,
    lazy_winner_trace,
)
from ivauctions.model import restrict_bidders
from ivauctions.oracle import exact_random_hypergrid_stats, optimal_welfare

REL = 1e-9


def mechanisms_for(v, c):
    """Every applicable (name, table) pair for one instance; grid rules over all orderings."""
    out = []
    if compute_c(v) == 1.0:
        out.append(("vcg", generalized_vcg(v)))
    if v.n == 2:
        out.append(("two-bidder", two_bidder_coloring(v)))
    if all(k == 1 for k in v.space.sizes):
        out.append(("high-if-possible", high_if_possible(v)))
    if v.n <= 4:
        for pi in permutations(range(v.n)):
            out.append((f"hypergrid{pi}", hypergrid_coloring(v, pi)))
    else:
        out.append(("hypergrid-id", hypergrid_coloring(v, identity_permutation(v.n))))
    return out


# ---------------------------------------------------------------------------
# Generalized argmax allocation (crossing constant 1).
# ---------------------------------------------------------------------------


def test_vcg_oil_example():
    v = gen.gen_oil_sc(3)
    table = generalized_vcg(v)
    assert all(table.winner_at(s) == 0 for s in v.space.profiles())
    worst, _ = welfare_ratio(table, v)
    assert worst == 1.0


def test_vcg_single_bidder():
    sp = SignalSpace((3,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0, 2.0, 3.0]]))
    assert all(generalized_vcg(v).winner_at(s) == 0 for s in v.space.profiles())


def test_vcg_tie_breaks_low():
    sp = SignalSpace((1, 1))
    vals = np.array([[[1.0, 2.0], [3.0, 4.0]]] * 2)
    v = ValuationInstance(space=sp, values=vals)
    assert all(generalized_vcg(v).winner_at(s) == 0 for s in v.space.profiles())


def test_vcg_refuses_without_single_crossing():
    with pytest.raises(IncompatibleMechanism):
        generalized_vcg(gen.gen_oil_no_sc(3))


# ---------------------------------------------------------------------------
# Two-bidder frontier walk.
# ---------------------------------------------------------------------------


def test_two_bidder_tight_instance():
    v = gen.gen_two_by_two_tight(2.0)
    table = two_bidder_coloring(v)
    assert all(table.winner_at(s) == 0 for s in v.space.profiles())
    worst, ratios = welfare_ratio(table, v)
    assert ratios[1, 0] == 2.0 and worst == 2.0


def test_two_bidder_never_maximal_loser():
    sp = SignalSpace((2, 2))
    vals = np.stack([np.ones((3, 3)), np.zeros((3, 3))])
    v = ValuationInstance(space=sp, values=vals)
    table = two_bidder_coloring(v)
    assert all(table.winner_at(s) == 0 for s in v.space.profiles())


def test_two_bidder_requires_two_bidders():
    with pytest.raises(IncompatibleMechanism):
        two_bidder_coloring(gen.gen_tight_hypergrid(3, 2.0))


def test_two_bidder_bound_and_oracle_consistency():
    from ivauctions.oracle import best_monotone_ratio

    v = gen.gen_oil_no_sc(3)
    c = compute_c(v)
    table = two_bidder_coloring(v)
    worst, _ = welfare_ratio(table, v)
    assert worst <= c * (1 + REL)
    report = best_monotone_ratio(v)
    assert report.best_ratio <= worst * (1 + REL)


# ---------------------------------------------------------------------------
# High-if-possible (two signals per bidder).
# ---------------------------------------------------------------------------


def test_high_if_possible_boundary_instance():
    c = 1.5
    v = gen.gen_rand_c_lb(3, c)
    table = high_if_possible(v)
    w = table.winner_at((0, 1, 1))
    assert w in (1, 2)
    assert v.value(w, (0, 1, 1)) == 1.0 / c
    worst, _ = welfare_ratio(table, v)
    assert worst == pytest.approx(compute_c(v), rel=REL)


def test_high_if_possible_all_zero_values():
    sp = SignalSpace((1, 1, 1))
    v = ValuationInstance(space=sp, values=np.zeros((3, 2, 2, 2)))
    table = high_if_possible(v, c=1.0)
    worst, _ = welfare_ratio(table, v)
    assert worst == 1.0
    assert check_allocation_monotone(table) == []


def test_high_if_possible_requires_two_signals():
    with pytest.raises(IncompatibleMechanism):
        high_if_possible(gen.gen_oil_sc(3))


def test_high_if_possible_order_independent():
    for seed in range(8):
        v, c, _ = gen.gen_random_tabulated(4, 1, seed=seed)
        lex = high_if_possible(v, order="lex")
        rev = high_if_possible(v, order="revlex")
        assert np.array_equal(lex.winner, rev.winner), seed


def test_high_if_possible_random_instances():
    for seed in range(10):
        v, c, _ = gen.gen_random_tabulated(4, 1, seed=100 + seed)
        table = high_if_possible(v)
        assert check_allocation_monotone(table) == []
        worst, _ = welfare_ratio(table, v)
        assert worst <= c * (1 + REL)


# ---------------------------------------------------------------------------
# Hypergrid coloring and its lazy evaluation.
# ---------------------------------------------------------------------------


def test_hypergrid_tight_instance_winner():
    for n, c in ((3, 2.0), (4, 2.0), (5, 1.5)):
        v = gen.gen_tight_hypergrid(n, c)
        table = hypergrid_coloring(v, identity_permutation(n))
        ones = (1,) * n
        w = table.winner_at(ones)
        assert w != 1 and v.value(w, ones) == 1.0
        worst, _ = welfare_ratio(table, v)
        assert worst == (n - 1) * c


def test_hypergrid_single_bidder():
    sp = SignalSpace((3,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0, 2.0, 3.0]]))
    table = hypergrid_coloring(v, (0,))
    assert all(table.winner_at(s) == 0 for s in v.space.profiles())


def test_hypergrid_and_two_bidder_walk_share_guarantee():
    """For n=2 the walk and the grid rule are both monotone c-approximations.

    Their tables can differ: the walk switches winners at any frontier argmax
    flip, the grid rule only past the c threshold.  What both certify is the
    bound, so that is what is asserted.
    """
    for seed in range(10):
        v, c, _ = gen.gen_random_tabulated(2, 4, seed=200 + seed)
        for table in (two_bidder_coloring(v), hypergrid_coloring(v, (0, 1))):
            assert check_allocation_monotone(table) == []
            worst, _ = welfare_ratio(table, v)
            assert worst <= c * (1 + REL)
    # on the tight 2x2 instance the two rules do coincide
    t = gen.gen_two_by_two_tight(2.0)
    assert np.array_equal(
        two_bidder_coloring(t).winner, hypergrid_coloring(t, (0, 1)).winner
    )


def test_lazy_matches_table_full_sweep(finite_c_corpus):
    for name, v, c, _ in finite_c_corpus:
        if v.n > 4 or max(v.space.sizes) > 4 or v.space.profile_count > 300:
            continue
        for pi in permutations(range(v.n)):
            table = hypergrid_coloring(v, pi)
            for s in v.space.profiles():
                assert lazy_winner(v, pi, s) == table.winner_at(s), (name, pi, s)
    # grids beyond the corpus sweep: every ordering at once through the batched chain
    for v in (gen.gen_random_separable(5, 2, 1.5, seed=31),
              gen.gen_random_separable(6, 1, 2.0, seed=32)):
        c = compute_c(v)
        orders = list(permutations(range(v.n)))
        tables = np.stack([hypergrid_coloring(v, pi, c=c).winner for pi in orders])
        for s in v.space.profiles():
            assert lazy_winners(v, orders, s, c=c).tolist() == tables[(slice(None),) + s].tolist()


def test_lazy_matches_table_random_samples_large_grids(finite_c_corpus):
    """1000 random (instance, ordering, profile) samples on grids too big to sweep."""
    import random as _random

    rng = _random.Random(99)
    big = [(name, v, c) for name, v, c, _ in finite_c_corpus if max(v.space.sizes) > 3]
    assert big
    tables = {}
    for _ in range(1000):
        name, v, c = big[rng.randrange(len(big))]
        pi = tuple(rng.sample(range(v.n), v.n))
        key = (name, pi)
        if key not in tables:
            tables[key] = hypergrid_coloring(v, pi, c=c)
        s = tuple(rng.randint(0, k) for k in v.space.sizes)
        assert lazy_winner(v, pi, s, c=c) == tables[key].winner_at(s), (name, pi, s)


def test_lazy_at_origin_matches_table():
    v = gen.gen_three_bidder_no_c()
    for pi in permutations(range(3)):
        table = hypergrid_coloring(v, pi)
        origin = (0, 0, 0)
        assert lazy_winner(v, pi, origin) == table.winner_at(origin)


def test_lazy_trace_ends_at_winner():
    v = gen.gen_tight_hypergrid(4, 2.0)
    pi = identity_permutation(4)
    w, trace = lazy_winner_trace(v, pi, (1, 1, 1, 1))
    assert trace[-1][0] == w and len(trace) == 4
    assert trace[-1][1] == (1, 1, 1, 1)


def test_lazy_winners_match_scalar_chain(finite_c_corpus):
    """The batched chain gives the scalar chain's winner on every row.

    Every ordering on instances with n <= 4, 40 seeded orderings otherwise;
    eight seeded profiles per instance plus the top corner.
    """
    import random as _random

    rng = _random.Random(41)
    for name, v, c, _ in finite_c_corpus:
        if v.n <= 4:
            orders = list(permutations(range(v.n)))
        else:
            orders = [tuple(rng.sample(range(v.n), v.n)) for _ in range(40)]
        profiles = [tuple(rng.randint(0, k) for k in v.space.sizes) for _ in range(8)]
        profiles.append(v.space.sizes)
        for s in profiles:
            batch = lazy_winners(v, orders, s, c=c)
            assert batch.tolist() == [lazy_winner(v, pi, s, c=c) for pi in orders], (name, s)


def _counting(v):
    """Evaluator-backed view of v that counts batched calls and the rows they carry."""
    counts = {"calls": 0, "rows": 0}

    def batch_evaluate(P):
        counts["calls"] += 1
        counts["rows"] += len(P)
        return v.values_at_batch(P)

    return ValuationInstance(space=v.space, batch_evaluate=batch_evaluate), counts


def test_lazy_chains_counted_evaluations(finite_c_corpus):
    """Scalar: <= (n-1)(k+1) profiles, so <= n^2 (k+1) values; batch: <= B (n-1)(k+1) rows."""
    import random as _random

    rng = _random.Random(43)
    for name, v, c, _ in finite_c_corpus:
        counted, counts = _counting(v)
        n, k = v.n, max(v.space.sizes)
        orders = [tuple(rng.sample(range(n), n)) for _ in range(12)]
        for _ in range(4):
            s = tuple(rng.randint(0, kb) for kb in v.space.sizes)
            for pi in orders:
                counts["calls"] = counts["rows"] = 0
                w = lazy_winner(counted, pi, s, c=c)
                assert counts["rows"] == counts["calls"]  # one profile per scalar step
                assert counts["calls"] <= (n - 1) * (k + 1), (name, pi, s)
                assert counts["calls"] * n <= n * n * (k + 1)
                assert w == lazy_winner(v, pi, s, c=c)
            counts["calls"] = counts["rows"] = 0
            batch = lazy_winners(counted, orders, s, c=c)
            assert counts["rows"] <= len(orders) * (n - 1) * (k + 1), (name, s)
            assert counts["calls"] <= (n - 1) * (k + 1)  # one batched call per scan step
            assert batch.tolist() == lazy_winners(v, orders, s, c=c).tolist()


def test_values_at_batch_evaluator_and_tabulated_agree():
    v, _, _ = gen.gen_random_tabulated(3, 4, seed=5)
    backed = ValuationInstance(space=v.space, batch_evaluate=v.values_at_batch)
    P = np.array(list(v.space.profiles()))
    expected = np.array([v.values_at(p) for p in P.tolist()])
    for inst in (v, backed):
        assert np.array_equal(inst.values_at_batch(P), expected)
    for p, row in zip(P.tolist(), expected):
        assert np.array_equal(backed.values_at(p), row)
        assert [backed.value(i, p) for i in range(v.n)] == row.tolist()
    assert np.array_equal(backed.tabulated().values, v.values)


def test_lazy_sub_ordering_matches_restricted_table():
    """A sub-ordering on the full instance is the grid table of the restricted instance.

    The reference restricts the instance to the ordered bidders (the others
    fixed at their reports), tabulates it and colors it; one table serves
    every profile of the kept bidders at one set of dropped signals.
    """
    checked = 0
    for n, k, seed in ((2, 3, 41), (3, 2, 42), (4, 1, 43), (4, 2, 44), (5, 1, 45)):
        v, c, _ = gen.gen_random_tabulated(n, k, seed=seed)
        assert math.isfinite(c)
        for mask in range(1, 2**n):
            keep = tuple(b for b in range(n) if mask >> b & 1)
            dropped = [b for b in range(n) if b not in keep]
            sub_space = SignalSpace(tuple(v.space.sizes[b] for b in keep))
            for fixed in np.ndindex(*(v.space.sizes[b] + 1 for b in dropped)):
                base = [0] * n
                for b, x in zip(dropped, fixed):
                    base[b] = x
                sub = restrict_bidders(v, keep, base).tabulated()
                for sub_order in permutations(range(len(keep))):
                    order = tuple(keep[i] for i in sub_order)
                    table = hypergrid_coloring(sub, sub_order, c=c)
                    for sub_s in sub_space.profiles():
                        s = list(base)
                        for b, x in zip(keep, sub_s):
                            s[b] = x
                        got = lazy_winner(v, order, s, c=c)
                        assert got == keep[table.winner_at(sub_s)], (n, k, order, s)
                        checked += 1
    assert checked > 10_000


def test_lazy_winner_rejects_bad_orderings():
    v = gen.gen_tight_hypergrid(3, 2.0)
    for bad in ((0, 0), (0, 1, 1), (0, 3), (-1, 2), ()):
        with pytest.raises(ValidationError):
            lazy_winner(v, bad, (1, 1, 1))
    for bad in ((0, 2), ()):
        with pytest.raises(ValidationError):
            lazy_winner_trace(v, bad, (1, 1, 1))


def test_lazy_winners_validation():
    v = gen.gen_tight_hypergrid(3, 2.0)
    with pytest.raises(ValidationError):
        lazy_winners(v, [(0, 1, 1)], (1, 1, 1))
    with pytest.raises(ValidationError):
        lazy_winners(v, [(0, 1)], (1, 1, 1))
    with pytest.raises(ValidationError):
        lazy_winners(v, [(0, 1, 2)], (1, 2, 1))
    with pytest.raises(IncompatibleMechanism):
        lazy_winners(gen.gen_rand_impossibility(3), [(0, 1, 2)], (1, 1, 1))
    assert lazy_winners(v, np.empty((0, 3), dtype=int), (1, 1, 1)).tolist() == []


def test_internal_chain_checks_hold(finite_c_corpus):
    for name, v, c, _ in finite_c_corpus:
        if v.n > 4 or v.space.profile_count > 300:
            continue
        for pi in permutations(range(v.n)):
            for s in v.space.profiles():
                check_hypergrid_internal_chain(v, pi, s)


# ---------------------------------------------------------------------------
# Critical signals, outcomes, payments.
# ---------------------------------------------------------------------------


def test_critical_signal_vcg_oil():
    v = gen.gen_oil_sc(3)
    table = generalized_vcg(v)
    assert critical_signal(table, v, 0, (2,)) == 0
    assert critical_signal(table, v, 1, (2,)) is None


def test_critical_signal_binary_equals_scan(finite_c_corpus):
    for name, v, c, _ in finite_c_corpus:
        if v.n > 4 or v.space.profile_count > 300:
            continue
        table = hypergrid_coloring(v, identity_permutation(v.n))
        for i in range(v.n):
            ctx_shape = tuple(
                v.space.sizes[j] + 1 for j in range(v.n) if j != i
            )
            for ctx in np.ndindex(*ctx_shape):
                assert critical_signal(table, v, i, ctx) == critical_signal_scan(
                    table, v, i, ctx
                ), (name, i, ctx)


def test_outcome_examples():
    v = gen.gen_oil_sc(3)
    out = outcome(generalized_vcg(v), v, (2, 0))
    assert out.winner == 0 and out.payment == 0.0 and out.critical_signal == 0

    t = gen.gen_two_by_two_tight(2.0)
    out = outcome(two_bidder_coloring(t), t, (1, 1))
    assert out.winner == 0 and out.payment == t.value(0, (0, 1)) == 2.0

    sp = SignalSpace((1,))
    v0 = ValuationInstance(space=sp, values=np.array([[1.0, 2.0]]))
    no_sale = outcome(lambda p: None, v0, (1,))
    assert no_sale.winner is None and no_sale.payment == 0.0


def test_random_outcome_seed_determinism():
    v = gen.gen_tight_hypergrid(4, 2.0)
    a, pi_a = random_hypergrid_outcome(v, (1, 0, 1, 1), rng_seed=7)
    b, pi_b = random_hypergrid_outcome(v, (1, 0, 1, 1), rng_seed=7)
    assert a == b and pi_a == pi_b
    c, pi_c = random_hypergrid_outcome(v, (1, 0, 1, 1), rng_seed=8)
    assert pi_c != pi_a or c == a  # different seed may or may not change the draw


def test_random_outcome_single_bidder():
    sp = SignalSpace((2,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0, 2.0]]))
    out, pi = random_hypergrid_outcome(v, (2,), rng_seed=0)
    assert out.winner == 0 and pi == (0,)


def test_random_expected_value_on_tight_instances():
    """Exact ordering averages beat OPT / (2c) on the concave tight family."""
    for n, c in ((4, 2.0), (5, 2.0)):
        v = gen.gen_tight_hypergrid(n, c)
        ones = (1,) * n
        mean, per_pi = exact_random_hypergrid_stats(v, ones)
        opt = optimal_welfare(v, ones)
        assert opt == (n - 1) * c
        assert mean >= opt / (2 * c) * (1 - REL)
        assert len(per_pi) == math.factorial(n)


# ---------------------------------------------------------------------------
# Verification sweeps.
# ---------------------------------------------------------------------------


def test_monotone_checker_finds_propagation_conflict():
    sp = SignalSpace((1, 1))
    winner = np.array([[NO_WINNER, 0], [1, 0]], dtype=np.int32)
    table = AllocationTable(space=sp, winner=winner)
    violations = check_allocation_monotone(table)
    assert len(violations) == 1
    bidder, hi, lo = violations[0]
    assert bidder == 1 and lo == (1, 0) and hi == (1, 1)


def test_monotone_checker_constant_table():
    sp = SignalSpace((2, 2))
    table = AllocationTable(space=sp, winner=np.zeros((3, 3), dtype=np.int32))
    assert check_allocation_monotone(table) == []


def test_all_mechanisms_monotone_and_truthful(finite_c_corpus):
    for name, v, c, _ in finite_c_corpus:
        if v.space.profile_count > 2000:
            continue
        for mech_name, table in mechanisms_for(v, c):
            assert check_allocation_monotone(table) == [], (name, mech_name)
            assert check_expost_truthful(table, v) == [], (name, mech_name)


def test_truthful_checker_fast_matches_literal():
    for seed in range(4):
        v, c, _ = gen.gen_random_tabulated(3, 2, seed=300 + seed)
        table = hypergrid_coloring(v, (2, 0, 1))
        assert check_expost_truthful(table, v) == []
        assert check_expost_truthful_literal(table, v) == []
    for seed in (0, 1, 3):  # tables that reallocate cells between bidders
        v = gen.gen_random_separable(3, 2, 2.0, seed=seed)
        table = hypergrid_coloring(v, (2, 0, 1))
        assert np.unique(table.winner).size > 1
        assert check_expost_truthful(table, v) == check_expost_truthful_literal(table, v) == []
    # a rule that charges nothing on a strict-preference instance is manipulable
    sp = SignalSpace((2, 1))
    vals = np.stack([np.arange(6, dtype=float).reshape(3, 2) + 1.0, np.ones((3, 2))])
    v = ValuationInstance(space=sp, values=vals)
    greedy = as_table(lambda p: 0 if p[0] >= 1 else 1, v)
    fast = check_expost_truthful(greedy, v, payment=lambda i, p: 0.0)
    literal_none = check_expost_truthful_literal(greedy, v)
    assert fast  # bidder 1 gains by reporting high when truly low
    assert literal_none == []  # critical payments restore truthfulness


def test_truthful_checker_flags_ir_violation():
    """Overcharging the winner shows up through the individual-rationality clause."""
    sp = SignalSpace((1, 1))
    vals = np.stack([np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones((2, 2))])
    v = ValuationInstance(space=sp, values=vals)
    table = as_table(lambda p: 0, v)
    gouge = check_expost_truthful(table, v, payment=lambda i, p: 10.0 if i == 0 else 0.0)
    assert gouge
    assert any(truth < 0 for _, _, _, truth, _ in gouge)


def expost_sweep_cases():
    """Seeded non-monotone tables (n = 2..4, signals 1..3) with both sweeps' outputs.

    Half the instances have small integer values, so utilities tie often and
    the first-argmax misreport matters.  Yields (case name, violations under
    the critical payment, violations under a fixed callable payment).
    """
    for idx in range(20):
        rng = np.random.default_rng(800 + idx)
        n = 2 + idx % 3
        sizes = tuple(int(x) for x in rng.integers(1, 4, size=n))
        space = SignalSpace(sizes)
        if idx % 2:
            vals = rng.integers(0, 4, size=(n,) + space.shape).astype(float)
        else:
            vals = rng.random((n,) + space.shape) * 10.0
        v = ValuationInstance(space=space, values=vals)
        table = AllocationTable(space=space, winner=rng.integers(-1, n, size=space.shape))

        def pay(i, p, vals=vals):
            return 0.5 * float(vals[(i,) + p]) + 0.25 * p[i]

        yield (
            f"case{idx}_n{n}_{'x'.join(map(str, sizes))}",
            check_expost_truthful(table, v),
            check_expost_truthful(table, v, payment=pay),
        )


def test_expost_sweep_matches_golden():
    """The sweep's violation lists equal the ones recorded in tests/golden/expost_sweep.json."""
    golden = json.loads((Path(__file__).parent / "golden" / "expost_sweep.json").read_text())
    got = {name: {"critical": crit, "callable": call} for name, crit, call in expost_sweep_cases()}
    assert json.loads(json.dumps(got)) == golden


def test_welfare_ratio_conventions():
    sp = SignalSpace((1, 1))
    v = ValuationInstance(space=sp, values=np.zeros((2, 2, 2)))
    worst, ratios = welfare_ratio(lambda p: None, v)
    assert worst == 1.0
    v2 = ValuationInstance(
        space=sp, values=np.stack([np.ones((2, 2)), np.zeros((2, 2))])
    )
    worst, _ = welfare_ratio(lambda p: None, v2)
    assert math.isinf(worst)
    worst, _ = welfare_ratio(lambda p: 1, v2)  # zero-valued winner, positive max
    assert math.isinf(worst)


def _welfare_ratio_per_cell(table, v):
    """Cell-by-cell reference for welfare_ratio's conventions."""
    dense = v.tabulated().values
    ratios = np.ones(v.space.shape, dtype=np.float64)
    for p in v.space.profiles():
        m = dense[(slice(None),) + p].max()
        w = int(table.winner[p])
        vw = 0.0 if w == NO_WINNER else dense[(w,) + p]
        if m == 0:
            ratios[p] = 1.0
        elif vw == 0:
            ratios[p] = math.inf
        else:
            ratios[p] = m / vw
    return float(ratios.max()), ratios


def test_welfare_ratio_equals_per_cell_reference(finite_c_corpus):
    for name, v, c, _ in finite_c_corpus:
        base = hypergrid_coloring(v, tuple(reversed(range(v.n))), c=c)
        # drop the winner on every third cell to reach the no-winner branch
        holes = base.winner.copy()
        holes.reshape(-1)[::3] = NO_WINNER
        for table in (base, AllocationTable(space=v.space, winner=holes)):
            worst, ratios = welfare_ratio(table, v)
            ref_worst, ref_ratios = _welfare_ratio_per_cell(table, v)
            assert worst == ref_worst, name
            assert ratios.dtype == np.float64 and np.array_equal(ratios, ref_ratios), name


def test_critical_signal_rule_calls_are_logarithmic(finite_c_corpus):
    """Binary search makes at most ceil(log2(k + 1)) + 1 rule calls on every line."""
    for name, v, c, _ in finite_c_corpus:
        table = hypergrid_coloring(v, identity_permutation(v.n), c=c)
        calls = [0]

        def rule(p):
            calls[0] += 1
            return table.winner_at(p)

        for i in range(v.n):
            k = v.space.sizes[i]
            bound = math.ceil(math.log2(k + 1)) + 1
            others = SignalSpace(tuple(x for b, x in enumerate(v.space.sizes) if b != i))
            for ctx in others.profiles() if v.n > 1 else [()]:
                calls[0] = 0
                b = critical_signal(rule, v, i, ctx)
                assert calls[0] <= bound, (name, i, ctx)
                assert b == critical_signal_scan(table, v, i, ctx)


def test_approximation_bounds_random_families():
    for seed in range(20):
        v2, c2, _ = gen.gen_random_tabulated(2, 5, seed=400 + seed)
        worst, _ = welfare_ratio(two_bidder_coloring(v2), v2)
        assert worst <= c2 * (1 + REL)

        v1, c1, _ = gen.gen_random_tabulated(5, 1, seed=500 + seed)
        worst, _ = welfare_ratio(high_if_possible(v1), v1)
        assert worst <= c1 * (1 + REL)

        vg, cg, _ = gen.gen_random_tabulated(3, 3, seed=600 + seed)
        worst, _ = welfare_ratio(hypergrid_coloring(vg, (1, 2, 0)), vg)
        assert worst <= max(1.0, (vg.n - 1) * cg) * (1 + REL)


@given(seed=st.integers(0, 1000), factor=st.floats(0.25, 64.0))
@settings(max_examples=20, deadline=None)
def test_scale_invariance(seed, factor):
    """Scaling all values leaves winners unchanged and scales payments."""
    v, c, _ = gen.gen_random_tabulated(3, 2, seed=seed)
    w = ValuationInstance(space=v.space, values=v.values * factor)
    pi = (2, 0, 1)
    tv = hypergrid_coloring(v, pi, c=c)
    tw = hypergrid_coloring(w, pi, c=c)
    assert np.array_equal(tv.winner, tw.winner)
    s = (1, 2, 0)
    ov = outcome(tv, v, s)
    ow = outcome(tw, w, s)
    assert ov.winner == ow.winner and ov.critical_signal == ow.critical_signal
    assert ow.payment == pytest.approx(factor * ov.payment, rel=1e-12)


def test_table_json_roundtrip():
    v = gen.gen_two_by_two_tight(2.0)
    table = two_bidder_coloring(v)
    obj = table.to_json()
    assert obj["winner"] == [1, 1, 1, 1]  # 1-based on the wire
    back = AllocationTable.from_json(obj)
    assert np.array_equal(back.winner, table.winner)
