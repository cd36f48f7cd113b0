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
    CapExceeded,
    IncompatibleMechanism,
    Outcome,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    check_allocation_monotone,
    check_expost_truthful,
    compute_c,
    concavity_report,
    critical_signal,
    generalized_vcg,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    lazy_winner,
    lazy_winners,
    outcome,
    random_hypergrid_outcome,
    single_crossing_report,
    two_bidder_coloring,
    welfare_ratio,
)
from ivauctions import instances as gen
from ivauctions.mechanisms import (
    NO_WINNER,
    _entry_table,
    _lazy_chain,
    as_table,
    critical_signal_scan,
)
from ivauctions.oracle import (
    exact_random_hypergrid_counts,
    exact_random_hypergrid_stats,
    monte_carlo_random_hypergrid,
    optimal_welfare,
)
from ivauctions.revenue import (
    HypergridFamily,
    expected_payment_revenue,
    lookahead_benchmark,
    uniform_product_prior,
)

import reference
from reference import (
    check_expost_truthful_literal,
    check_hypergrid_internal_chain,
    lazy_winner_trace,
    restrict_bidders,
)

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
    assert all(table(s) == 0 for s in v.space.profiles())
    worst, _ = welfare_ratio(table, v)
    assert worst == 1.0


def test_vcg_single_bidder():
    sp = SignalSpace((3,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0, 2.0, 3.0]]))
    assert all(generalized_vcg(v)(s) == 0 for s in v.space.profiles())


def test_vcg_tie_breaks_low():
    sp = SignalSpace((1, 1))
    vals = np.array([[[1.0, 2.0], [3.0, 4.0]]] * 2)
    v = ValuationInstance(space=sp, values=vals)
    assert all(generalized_vcg(v)(s) == 0 for s in v.space.profiles())


def test_vcg_refuses_without_single_crossing():
    with pytest.raises(IncompatibleMechanism):
        generalized_vcg(gen.gen_oil_no_sc(3))


# ---------------------------------------------------------------------------
# Two-bidder frontier walk.
# ---------------------------------------------------------------------------


def test_two_bidder_tight_instance():
    v = gen.gen_two_by_two_tight(2.0)
    table = two_bidder_coloring(v)
    assert all(table(s) == 0 for s in v.space.profiles())
    worst, ratios = welfare_ratio(table, v)
    assert ratios[1, 0] == 2.0 and worst == 2.0


def test_two_bidder_never_maximal_loser():
    sp = SignalSpace((2, 2))
    vals = np.stack([np.ones((3, 3)), np.zeros((3, 3))])
    v = ValuationInstance(space=sp, values=vals)
    table = two_bidder_coloring(v)
    assert all(table(s) == 0 for s in v.space.profiles())


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
    w = table((0, 1, 1))
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


@pytest.mark.parametrize("c", [math.nan, -math.inf])
def test_unusable_c_is_a_validation_error(c):
    """A NaN or negative ``c=`` is refused as the generators refuse it, not taken
    for an infinite crossing constant."""
    v = gen.gen_tight_hypergrid(3, 2.0)
    two = gen.gen_random_tabulated(3, 1, seed=1)[0]
    calls = [
        lambda: lazy_winner(v, (0, 1, 2), (1, 1, 1), c=c),
        lambda: hypergrid_coloring(v, (0, 1, 2), c=c),
        lambda: high_if_possible(two, c=c),
        lambda: HypergridFamily(v, c=c),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as err:
            call()
        assert err.type is ValidationError


def test_high_if_possible_requires_two_signals():
    with pytest.raises(IncompatibleMechanism):
        high_if_possible(gen.gen_oil_sc(3))


def _two_signal_cases(finite_c_corpus):
    cases = [(f"tabulated_seed{seed}", gen.gen_random_tabulated(4, 1, seed=seed)[0])
             for seed in range(8)]
    cases += [(name, v) for name, v, _, _ in finite_c_corpus
              if all(k == 1 for k in v.space.sizes)]
    return cases


def test_high_if_possible_matches_ordered_reference(finite_c_corpus):
    """The package's weight-class pass gives the table of the reference walk in
    either order inside a weight class ("lex" and "revlex")."""
    for name, v in _two_signal_cases(finite_c_corpus):
        table = high_if_possible(v).winner
        for order in ("lex", "revlex"):
            want = reference.high_if_possible_ordered(v, order=order).winner
            assert np.array_equal(table, want), (name, order)


def test_high_if_possible_understated_c_fails_like_reference(finite_c_corpus):
    """With c understated as 1 the walk can hit a propagation conflict; the package
    and the reference raise on the same instances."""
    def raises(f):
        try:
            f()
        except AssertionError:
            return True
        return False

    failing = []
    for name, v in _two_signal_cases(finite_c_corpus):
        got = raises(lambda: high_if_possible(v, c=1.0))
        for order in ("lex", "revlex"):
            want = raises(lambda: reference.high_if_possible_ordered(v, c=1.0, order=order))
            assert want == got, (name, order)
        if got:
            failing.append(name)
    assert failing  # the case is exercised


@pytest.mark.parametrize("n", range(2, 7))
def test_high_if_possible_array_pass_matches_the_walk_on_random_tables(n):
    """On 60 random tables per n, with the measured c and with c understated as 1,
    the weight-class pass gives the reference walk's table, or raises a
    propagation conflict where the walk does."""
    def built(f):
        try:
            return f().winner
        except AssertionError as e:
            assert str(e).startswith("propagation conflict at ")
            return None

    conflicts = 0
    for seed in range(60):
        v, c, _ = gen.gen_random_tabulated(n, 1, seed=seed)
        for cc in (c, 1.0):
            got = built(lambda: high_if_possible(v, c=cc))
            want = built(lambda: reference.high_if_possible_ordered(v, c=cc))
            if want is None:
                conflicts += 1
                assert got is None, (seed, cc)
            else:
                assert np.array_equal(got, want), (seed, cc)
    assert conflicts > 0 or n == 2


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
        w = table(ones)
        assert w != 1 and v.value(w, ones) == 1.0
        worst, _ = welfare_ratio(table, v)
        assert worst == (n - 1) * c


def test_hypergrid_single_bidder():
    sp = SignalSpace((3,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0, 2.0, 3.0]]))
    table = hypergrid_coloring(v, (0,))
    assert all(table(s) == 0 for s in v.space.profiles())


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
                assert lazy_winner(v, pi, s) == table(s), (name, pi, s)
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
        assert lazy_winner(v, pi, s, c=c) == tables[key](s), (name, pi, s)


def test_lazy_at_origin_matches_table():
    v = gen.gen_three_bidder_no_c()
    for pi in permutations(range(3)):
        table = hypergrid_coloring(v, pi)
        origin = (0, 0, 0)
        assert lazy_winner(v, pi, origin) == table(origin)


def test_lazy_trace_ends_at_winner():
    v = gen.gen_tight_hypergrid(4, 2.0)
    pi = identity_permutation(4)
    w, trace = lazy_winner_trace(v, pi, (1, 1, 1, 1))
    assert trace[-1][0] == w and len(trace) == 4
    assert trace[-1][1] == (1, 1, 1, 1)


def test_lazy_winners_match_scalar_chain(finite_c_corpus):
    """The array chain, one row or a batch, gives the reference scalar chain's winner.

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
            expected = [reference.lazy_winner(v, pi, s, c=c) for pi in orders]
            assert lazy_winners(v, orders, s, c=c).tolist() == expected, (name, s)
            assert [lazy_winner(v, pi, s, c=c) for pi in orders] == expected, (name, s)


def test_chain_and_table_match_scalar_chain_where_the_set_test_decides():
    """Every ordering and profile of an instance where the (|S|c) branch of the
    reallocation test alone decides some step (10 of its 81 profiles): the array
    chain, one row or a batch, and every cell of the table give the scalar chain's
    winner.  So a change to either branch of ``_reallocates`` shows here."""
    v = gen.gen_random_separable(4, 2, 3.0, seed=0)
    c = compute_c(v)
    orders = list(permutations(range(v.n)))
    tables = np.stack([hypergrid_coloring(v, pi, c=c).winner for pi in orders])
    for s in v.space.profiles():
        expected = [reference.lazy_winner(v, pi, s, c=c) for pi in orders]
        assert lazy_winners(v, orders, s, c=c).tolist() == expected, s
        assert [lazy_winner(v, pi, s, c=c) for pi in orders] == expected, s
        assert tables[(slice(None),) + s].tolist() == expected, s


def _counting(v):
    """Evaluator-backed view of v that counts batched calls and the rows they carry."""
    counts = {"calls": 0, "rows": 0}

    def batch_evaluate(P):
        counts["calls"] += 1
        counts["rows"] += len(P)
        return v.values_at_batch(P)

    return ValuationInstance(space=v.space, batch_evaluate=batch_evaluate), counts


def test_lazy_chains_counted_evaluations(finite_c_corpus):
    """One call per entrant: one ordering evaluates <= (n-1)(k+1) profiles, so <= n^2 (k+1)
    values, and a batch of B orderings <= B (n-1)(k+1)."""
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
                assert counts["calls"] <= n - 1  # one batched call per entrant
                assert counts["rows"] <= (n - 1) * (k + 1), (name, pi, s)
                assert counts["rows"] * n <= n * n * (k + 1)
                assert w == lazy_winner(v, pi, s, c=c)
            counts["calls"] = counts["rows"] = 0
            batch = lazy_winners(counted, orders, s, c=c)
            assert counts["rows"] <= len(orders) * (n - 1) * (k + 1), (name, s)
            assert counts["calls"] <= n - 1
            assert batch.tolist() == lazy_winners(v, orders, s, c=c).tolist()


def test_lazy_chain_evaluates_each_intermediate_profile_once(finite_c_corpus):
    """A batch evaluates each intermediate profile once: an entrant's level 0 is the
    previous entrant's top level, read from the values the chain carries, so each
    ordering j0, j1..j(m-1) of a batch costs exactly (p_j1 + 1) + sum over t >= 2
    of p_jt rows, at most 1 + (m-1)k, in at most m-1 calls in all; full orderings
    and sub-orderings alike.  One row evaluates every level 0..p_j of each entrant,
    at most (m-1)(k+1) rows."""
    import random as _random

    rng = _random.Random(45)

    def carried_rows(pi, s):
        return s[pi[1]] + 1 + sum(s[j] for j in pi[2:]) if len(pi) > 1 else 0

    for name, v, c, _ in finite_c_corpus:
        counted, counts = _counting(v)
        n, k = v.n, max(v.space.sizes)
        for _ in range(4):
            s = tuple(rng.choice((0, kb, rng.randint(0, kb))) for kb in v.space.sizes)
            p = np.array(s, dtype=np.intp)
            for m in range(1, n + 1):
                batch = [tuple(rng.sample(range(n), m)) for _ in range(6)]
                counts["calls"] = counts["rows"] = 0
                w = _lazy_chain(counted, np.array(batch, dtype=np.intp), p, c)
                assert counts["rows"] == sum(carried_rows(pi, s) for pi in batch), (name, s)
                assert counts["rows"] <= len(batch) * (1 + (m - 1) * k)
                assert counts["calls"] <= m - 1
                for pi, wb in zip(batch, w.tolist()):
                    counts["calls"] = counts["rows"] = 0
                    assert lazy_winner(counted, pi, s, c=c) == wb == lazy_winner(v, pi, s, c=c)
                    assert counts["rows"] == sum(s[j] + 1 for j in pi[1:]), (name, pi, s)
                    assert counts["calls"] <= m - 1
            full = [tuple(rng.sample(range(n), n)) for _ in range(6)]
            counts["calls"] = counts["rows"] = 0
            batch_w = lazy_winners(counted, full, s, c=c)
            assert counts["rows"] == sum(carried_rows(pi, s) for pi in full), (name, s)
            assert counts["calls"] <= n - 1
            assert batch_w.tolist() == lazy_winners(v, full, s, c=c).tolist()


def test_lazy_chain_matches_scalar_chain_on_carried_rows():
    """The carried level-0 row's edge cases against the scalar chain: later entrants
    at signal 0 (so no row of theirs is evaluated), the all-zero profile, batches of
    one-, two- and three-bidder sub-orderings, and an evaluator-backed instance.
    Where k >= 2, profiles also mix 0, 1, an interior and the top signal, so one
    entrant's gather holds rows with no level to evaluate, rows with their top
    level alone and rows with lower levels too."""
    import random as _random

    rng = _random.Random(46)
    cases = [
        (gen.gen_random_tabulated(4, 3, seed=31)[0], None),
        (gen.gen_random_separable(4, 2, 3.0, seed=0), None),
        (gen.gen_tight_hypergrid(5, 3.0), None),
        (gen.gen_random_mech_lb(16, 2.0), 2.0),
        (gen.gen_random_tabulated(4, 8, seed=26)[0], None),
        (gen.gen_random_tabulated(5, 4, seed=32)[0], None),
    ]
    for v, c in cases:
        n, sizes = v.n, v.space.sizes
        c = compute_c(v) if c is None else c
        profiles = [(0,) * n, sizes]
        for _ in range(8):  # each bidder at 0 or its top signal, zeros in every position
            profiles.append(tuple(rng.choice((0, kb)) for kb in sizes))
        for lead in range(n):  # only the first entrant reports a positive signal
            profiles.append(tuple(kb if b == lead else 0 for b, kb in enumerate(sizes)))
        if min(sizes) >= 2:
            for _ in range(8):  # 0, 1, an interior and the top signal in every profile
                shift = rng.randrange(4)
                kinds = [(0, 1, rng.randint(1, kb - 1), kb) for kb in sizes]
                profiles.append(tuple(kind[(b + shift) % 4] for b, kind in enumerate(kinds)))
        for s in profiles:
            orders = [tuple(rng.sample(range(n), n)) for _ in range(8)]
            orders += [(b,) + tuple(a for a in range(n) if a != b) for b in range(n) if s[b]]
            expected = [reference.lazy_winner(v, pi, s, c=c) for pi in orders]
            assert lazy_winners(v, orders, s, c=c).tolist() == expected, (v.name, s)
            for m in (1, 2, 3):
                subs = [tuple(rng.sample(range(n), m)) for _ in range(6)]
                expected = [reference.lazy_winner(v, pi, s, c=c) for pi in subs]
                p = np.array(s, dtype=np.intp)
                assert _lazy_chain(v, np.array(subs), p, c).tolist() == expected, (v.name, s)
                assert [lazy_winner(v, pi, s, c=c) for pi in subs] == expected, (v.name, s)


def test_lazy_chain_matches_scalar_chain_on_random_integer_tables():
    """Seeded tables of small integers, neither monotone nor crossing-bounded, at
    c in {1, 1.5, 2}: every ordering in one batch at every profile gives the
    scalar chain's winner.  Ties and falling values let the best entered value
    carried into an entrant's level 0 decide, also on rows whose previous
    entrant was evaluated while others in its call were not."""
    rng = np.random.default_rng(48)
    orders = list(permutations(range(4)))
    for k in (1, 1, 1, 2, 2, 2):
        space = SignalSpace((k,) * 4)
        values = rng.integers(0, 6, (4,) + space.shape).astype(float)
        v = ValuationInstance(space=space, values=values)
        c = float(rng.choice([1.0, 1.5, 2.0]))
        for s in space.profiles():
            expected = [reference.lazy_winner(v, pi, s, c=c) for pi in orders]
            assert lazy_winners(v, orders, s, c=c).tolist() == expected, (k, c, s)


def _hostile(v):
    """Evaluator-backed view of v whose evaluator zeroes its input after reading it
    and returns a read-only view of one buffer, which it overwrites on every call."""
    buf = [np.empty((0, v.n))]

    def batch_evaluate(P):
        vals = v.values_at_batch(P)
        P[...] = 0
        if len(buf[0]) < len(vals):
            buf[0] = np.empty(vals.shape)
        out = buf[0][: len(vals)]
        out[...] = vals
        view = out.view()
        view.flags.writeable = False
        return view

    return ValuationInstance(space=v.space, batch_evaluate=batch_evaluate)


def test_evaluator_that_overwrites_its_input_cannot_change_the_chain():
    """The chain hands the evaluator only fresh arrays and writes into none it
    returned: an evaluator that zeroes its input, and returns read-only views of a
    buffer it reuses, gives a pure evaluator's winners and Monte Carlo results.
    Batches at k = 1 (every later top level read from the base profiles), ragged
    k >= 2 batches (entrants at 0, and gathered lower levels) and one row."""
    import random as _random

    rng = _random.Random(47)
    lb = gen.gen_random_mech_lb(16, 2.0)
    tab6 = gen.gen_random_tabulated(6, 1, seed=5)[0]
    tab4 = gen.gen_random_tabulated(4, 8, seed=26)[0]
    cases = [
        (lb, 2.0, [(1,) * 17, tuple(rng.randint(0, 1) for _ in range(17))]),
        (tab6, compute_c(tab6), [(1,) * 6, (0, 1, 1, 1, 1, 1)]),
        (tab4, compute_c(tab4), [(0, 3, 8, 1), (8, 8, 8, 8), (1, 1, 1, 1), (2, 0, 5, 8)]),
    ]
    for v, c, profiles in cases:
        hostile = _hostile(v)
        for s in profiles:
            orders = [tuple(rng.sample(range(v.n), v.n)) for _ in range(40)]
            batches = [orders]
            if 0 in s:  # the bidder at 0 enters first or last, so a call where every
                # row evaluates precedes one where some do not
                z = s.index(0)
                rests = [[b for b in pi if b != z] for pi in orders]
                batches.append([tuple([z] + r if i % 2 else r + [z]) for i, r in enumerate(rests)])
            for batch in batches:
                expected = lazy_winners(v, batch, s, c=c).tolist()
                assert lazy_winners(hostile, batch, s, c=c).tolist() == expected, (v.name, s)
                assert [lazy_winner(hostile, pi, s, c=c) for pi in batch[:4]] == expected[:4]
            pure = monte_carlo_random_hypergrid(v, s, samples=300, seed=3, c=c)
            assert monte_carlo_random_hypergrid(hostile, s, samples=300, seed=3, c=c) == pure


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_evaluator_values_must_be_finite_and_nonnegative(bad):
    """An evaluator's values are checked as a table's are, also at the chain's
    intermediate profiles (here every profile with one signal at 1), so no NaN,
    inf or negative value reaches the reallocation test."""
    space = SignalSpace((1, 1, 1))

    def batch_evaluate(P):
        total = P.sum(axis=1, keepdims=True).astype(float)
        return np.where(total == 1, bad, np.repeat(total, 3, axis=1))

    v = ValuationInstance(space=space, batch_evaluate=batch_evaluate)
    assert v.values_at((1, 1, 1)).tolist() == [3.0, 3.0, 3.0]
    with pytest.raises(ValidationError):
        v.values_at((0, 1, 0))
    with pytest.raises(ValidationError):
        lazy_winner(v, (0, 1, 2), (1, 1, 1), c=2.0)
    with pytest.raises(ValidationError):
        lazy_winners(v, [(0, 1, 2), (2, 1, 0)], (1, 1, 1), c=2.0)
    with pytest.raises(ValidationError):
        monte_carlo_random_hypergrid(v, (1, 1, 1), samples=4, seed=0, c=2.0)


def test_entry_table_counted_evaluations(finite_c_corpus):
    """One call per layer |S| = 1..n-1, carrying exactly sum over non-empty proper S,
    and j outside S, of (p_j + 1) rows; the counts DP evaluates nothing more."""
    import random as _random

    rng = _random.Random(44)
    for name, v, c, _ in finite_c_corpus:
        counted, counts = _counting(v)
        n = v.n
        for _ in range(4):
            s = tuple(rng.randint(0, kb) for kb in v.space.sizes)
            rows = sum(
                s[j] + 1 for S in range(1, 2**n - 1) for j in range(n) if not S >> j & 1
            )
            counts["calls"] = counts["rows"] = 0
            table = _entry_table(counted, np.array(s), c)
            assert (counts["calls"], counts["rows"]) == (n - 1, rows), (name, s)
            assert np.array_equal(table, _entry_table(v, np.array(s), c))
            counts["calls"] = counts["rows"] = 0
            exact_random_hypergrid_counts(counted, s, c=c)
            assert (counts["calls"], counts["rows"]) == (n - 1, rows), (name, s)


def test_lazy_winner_measures_c_once_per_instance():
    """Without c=, the first call tabulates once; later calls evaluate only the chain."""
    import random as _random

    rng = _random.Random(7)
    for v in (gen.gen_random_tabulated(3, 4, seed=8)[0], gen.gen_oil_no_sc(5),
              gen.gen_random_separable(4, 2, 2.0, seed=3)):
        n, k = v.n, max(v.space.sizes)
        chain = (n - 1) * (k + 1)
        counted, counts = _counting(v)
        before = (counted, repr(counted))
        profiles = [tuple(rng.randint(0, kb) for kb in v.space.sizes) for _ in range(6)]
        pi = tuple(rng.sample(range(n), n))
        w = lazy_winner(counted, pi, profiles[0])
        assert counts["rows"] <= v.space.profile_count + chain  # one tabulation in all
        for s in profiles:
            counts["rows"] = 0
            assert lazy_winner(counted, pi, s) == lazy_winner(v, pi, s, c=compute_c(v))
            assert counts["rows"] <= chain, s
        assert w == lazy_winner(v, pi, profiles[0])
        assert (counted, repr(counted)) == before  # the kept report is not part of == or repr
        # an equal but distinct instance measures again
        fresh = ValuationInstance(space=counted.space, batch_evaluate=counted.batch_evaluate)
        assert fresh == counted and repr(fresh) == repr(counted)
        counts["rows"] = 0
        lazy_winner(fresh, pi, profiles[0])
        assert v.space.profile_count <= counts["rows"] <= v.space.profile_count + chain


def test_reports_are_kept_but_nonmonotone_raises_every_call():
    v = gen.gen_random_tabulated(2, 5, seed=4)[0]
    assert single_crossing_report(v) is single_crossing_report(v)
    assert concavity_report(v) is concavity_report(v)
    vals = np.array([[[0.0, 1.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    bad = ValuationInstance(space=SignalSpace((1, 1)), values=vals)
    for _ in range(2):
        for measure in (single_crossing_report, concavity_report, compute_c):
            with pytest.raises(ValidationError, match="not monotone"):
                measure(bad)


def test_grid_tables_share_one_tabulation(monkeypatch):
    """Tables of several orderings on an evaluator-backed grid evaluate each profile once."""
    from ivauctions import model

    lb = gen.gen_random_mech_lb(4, 2.0)
    c = compute_c(lb)
    counted, counts = _counting(lb)
    checks = []
    check = model._monotone_violations
    monkeypatch.setattr(model, "_monotone_violations", lambda d: checks.append(1) or check(d))
    orders = [(0, 1, 2, 3), (3, 0, 2, 1), (1, 2), (2,)]
    for pi in orders:
        assert np.array_equal(hypergrid_coloring(counted, pi, c=c).winner,
                              hypergrid_coloring(lb, pi, c=c).winner)
    assert counts["rows"] == lb.space.profile_count and not checks
    assert compute_c(counted) == c
    assert counts["rows"] == lb.space.profile_count and len(checks) == 1
    assert counted.tabulated() is counted.tabulated()


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
    every profile of the kept bidders at one set of dropped signals.  Both the
    lazy chain and the full-grid table of the sub-ordering must agree with it.
    """
    checked = 0
    for n, k, seed in ((2, 3, 41), (3, 2, 42), (4, 1, 43), (4, 2, 44), (5, 1, 45)):
        v, c, _ = gen.gen_random_tabulated(n, k, seed=seed)
        assert math.isfinite(c)
        full_tables = {}
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
                    if order not in full_tables:
                        full_tables[order] = hypergrid_coloring(v, order, c=c)
                    for sub_s in sub_space.profiles():
                        s = list(base)
                        for b, x in zip(keep, sub_s):
                            s[b] = x
                        want = keep[table(sub_s)]
                        assert lazy_winner(v, order, s, c=c) == want, (n, k, order, s)
                        assert full_tables[order](s) == want, (n, k, order, s)
                        checked += 1
    assert checked > 10_000


def test_lazy_winner_rejects_bad_orderings():
    v = gen.gen_tight_hypergrid(3, 2.0)
    for bad in ((0, 0), (0, 1, 1), (0, 3), (-1, 2), (), (0.7, 1.2, 2.9), (2.5, "1", 0)):
        with pytest.raises(ValidationError):
            lazy_winner(v, bad, (1, 1, 1))
        with pytest.raises(ValidationError):
            hypergrid_coloring(v, bad)
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
        mean, values = exact_random_hypergrid_stats(v, ones)
        opt = optimal_welfare(v, ones)
        assert opt == (n - 1) * c
        assert mean >= opt / (2 * c) * (1 - REL)
        assert len(values) == math.factorial(n)


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


def _best_deviations(violations):
    """A violation list keyed by (profile, bidder, kind): the individual-rationality
    entry, and the first of the most profitable misreports (what the fast sweep lists)."""
    out = {}
    for p, i, b, u, u_dev in violations:
        key = (p, i, "ir" if b == p[i] else "deviation")
        if key not in out or u_dev > out[key][2]:
            out[key] = (b, u, u_dev)
    return out


def test_expost_sweep_matches_literal_on_random_tables():
    """On 300 random non-monotone tables (half with integer values, so utilities tie),
    the sweep lists, per profile and bidder, the literal twin's first best misreport
    and its individual-rationality failures, with bit-equal utilities."""
    total = 0
    for idx in range(300):
        rng = np.random.default_rng(5000 + idx)
        n = 2 + idx % 3
        space = SignalSpace(tuple(int(x) for x in rng.integers(1, 4, size=n)))
        if idx % 2:
            vals = rng.integers(0, 4, size=(n,) + space.shape).astype(float)
        else:
            vals = rng.random((n,) + space.shape) * 10.0
        v = ValuationInstance(space=space, values=vals)
        table = AllocationTable(space=space, winner=rng.integers(-1, n, size=space.shape))

        def pay(i, p, vals=vals):
            return 0.5 * float(vals[(i,) + p]) + 0.25 * p[i]

        for payment in ("critical", pay):
            fast = check_expost_truthful(table, v, payment=payment)
            literal = check_expost_truthful_literal(table, v, payment=payment)
            assert len(set(_best_deviations(fast))) == len(fast), idx
            assert _best_deviations(fast) == _best_deviations(literal), (idx, payment)
            total += len(fast)
    assert total > 5000


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


def test_as_table_returns_a_table_as_it_is():
    v = gen.gen_random_separable(3, 2, 1.5, seed=12)
    table = hypergrid_coloring(v, (2, 0, 1))
    assert as_table(table, v) is table
    copy = as_table(lambda p: table(p), v)
    assert copy is not table and np.array_equal(copy.winner, table.winner)


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
            return table(p)

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
    obj = two_bidder_coloring(v).to_json()
    assert obj["sizes"] == [1, 1]
    assert obj["winner"] == [1, 1, 1, 1]  # 1-based on the wire


@pytest.mark.parametrize(
    "winner",
    [
        np.array([[0.7, 1.9], [0, 1]]),  # was truncated to [[0, 1], [0, 1]]
        np.array([[0.0, np.nan], [0, 1]]),
        np.array([[True, False], [False, True]]),
    ],
)
def test_a_table_of_non_integer_winners_is_refused(winner):
    with pytest.raises(ValidationError, match="integers"):
        AllocationTable(SignalSpace((1, 1)), winner)
    for dtype in (np.int8, np.uint8, np.int64):  # every integer dtype is read
        table = AllocationTable(SignalSpace((1, 1)), np.array([[0, 1], [0, 1]], dtype=dtype))
        assert table.winner.dtype == np.int32 and table((0, 1)) == 1


@pytest.mark.parametrize(
    "winner",
    [
        np.zeros((2, 2, 2), dtype=np.int32),  # a 3-bidder grid's shape
        np.zeros((2,), dtype=np.int32),
        np.array([[0, 1], [2, 0]]),  # no bidder 2 of 2
        np.array([[0, 1], [-2, 0]]),  # below NO_WINNER
    ],
    ids=["extra-axis", "flat", "past-last-bidder", "below-no-winner"],
)
def test_a_table_of_the_wrong_shape_or_bidders_is_refused(winner):
    with pytest.raises(ValidationError):
        AllocationTable(SignalSpace((1, 1)), winner)


@pytest.mark.parametrize(
    "winner, payment", [(None, 0.5), (0, -0.5)], ids=["pay-without-winner", "negative"]
)
def test_an_inconsistent_outcome_is_refused(winner, payment):
    with pytest.raises(ValidationError):
        Outcome(winner=winner, payment=payment, critical_signal=None)


@pytest.mark.parametrize(
    "answer",
    [0.7, 1.9, 2**40, -2, "1", np.True_],
    ids=["0.7", "1.9", "2**40", "minus-2", "string-1", "numpy-true"],
)
def test_a_rule_answer_that_is_not_a_bidder_is_refused(answer):
    """A function rule's winners are read as bidders are: 0.7 and 1.9 were
    truncated to bidders 0 and 1, 2**40 overflowed the int32 store and "1"
    was parsed by NumPy.  Every reader of function rules refuses them."""
    v = gen.gen_random_separable(2, 1, 2.0, seed=3)
    prior = uniform_product_prior(v.space)
    rule = lambda p: answer
    with pytest.raises(ValidationError):
        as_table(rule, v)
    with pytest.raises(ValidationError):
        lookahead_benchmark(prior, v, rule)
    with pytest.raises(ValidationError):
        expected_payment_revenue(rule, v, prior)


def test_a_rule_answering_true_names_bidder_1():
    """``True`` is bidder 1, as it is signal 1; None is no winner."""
    v = gen.gen_random_separable(2, 1, 2.0, seed=3)
    assert as_table(lambda p: True, v).winner.tolist() == [[1, 1], [1, 1]]
    assert as_table(lambda p: None if p == (0, 0) else np.int64(0), v).winner.tolist() == [
        [NO_WINNER, 0], [0, 0]
    ]


def test_tabulating_a_function_above_the_cap_is_refused():
    v = gen.gen_random_mech_lb(64, 2.0)
    with pytest.raises(CapExceeded):
        as_table(lambda p: None, v)
    with pytest.raises(CapExceeded):
        check_expost_truthful(lambda p: None, v)
