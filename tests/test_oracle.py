"""Oracles: exhaustive monotone search, ordering averages, closed forms."""

import math
import random
from itertools import islice, permutations, product

import numpy as np
import pytest

from ivauctions import (
    AllocationTable,
    CapExceeded,
    SignalSpace,
    ValuationInstance,
    best_monotone_ratio,
    check_allocation_monotone,
    closed_form_rand_impossibility,
    compute_c,
    exact_random_hypergrid_stats,
    hypergrid_coloring,
    lazy_winner,
    monte_carlo_random_hypergrid,
    optimal_welfare,
    two_bidder_coloring,
    welfare_ratio,
)
from ivauctions import instances as gen
from ivauctions import oracle
from ivauctions.model import ValidationError, mean_and_stderr
from ivauctions.oracle import enumerate_monotone_tables

REL = 1e-9


def test_optimal_welfare_examples():
    v = gen.gen_tight_hypergrid(4, 2.0)
    assert optimal_welfare(v, (1, 1, 1, 1)) == 6.0
    ri = gen.gen_rand_impossibility(3)
    assert optimal_welfare(ri, (0, 0, 0)) == 0.0
    b = gen.gen_three_bidder_no_c()
    assert optimal_welfare(b, (1, 1, 1)) == 0.018915


# ---------------------------------------------------------------------------
# Monotone-table enumeration.
# ---------------------------------------------------------------------------


def brute_force_monotone_tables(v):
    """Unpruned twin: filter all n^P tables by the one-step monotonicity test."""
    space = v.space
    profiles = list(space.profiles())
    out = []
    for combo in product(range(v.n), repeat=len(profiles)):
        table = dict(zip(profiles, combo))
        ok = True
        for p, w in table.items():
            for axis in range(v.n):
                if p[axis] >= 1:
                    q = list(p)
                    q[axis] -= 1
                    if table[tuple(q)] == axis and w != axis:
                        ok = False
        if ok:
            out.append(np.array(combo, dtype=np.int32))
    return out


def test_pruned_enumeration_matches_unpruned():
    cases = [
        gen.gen_det_impossibility(2.0),
        gen.gen_two_by_two_tight(2.0),
        ValuationInstance(
            space=SignalSpace((1, 1)),
            values=np.stack([np.ones((2, 2)), np.zeros((2, 2))]),
        ),
        gen.gen_random_tabulated(3, 1, seed=4)[0],  # 3^8 unpruned tables
    ]
    for v in cases:
        pruned = sorted(tuple(t) for t in enumerate_monotone_tables(v))
        brute = sorted(tuple(t) for t in brute_force_monotone_tables(v))
        assert pruned == brute


@pytest.mark.parametrize(
    "v,nodes",
    [
        (gen.gen_det_impossibility(2.0), 15),
        (gen.gen_two_by_two_tight(2.0), 15),
        (gen.gen_three_bidder_no_c(), 7579),
        (gen.gen_random_tabulated(2, 3, seed=1)[0], 345),
        (gen.gen_random_tabulated(2, 7, seed=6)[0], 115_821),
    ],
)
def test_search_walks_the_enumerated_tables(v, nodes):
    """The search visits exactly the enumerated tables, in order, and keeps the first best."""
    report = best_monotone_ratio(v)
    tables = list(enumerate_monotone_tables(v))
    worst = [welfare_ratio(AllocationTable(v.space, t.reshape(v.space.shape)), v)[0] for t in tables]
    assert report.monotone_count == len(tables)
    assert [tuple(t) for t in tables] == sorted(tuple(t) for t in tables)  # lexicographic walk
    assert all(t.dtype == np.int32 for t in tables)
    assert not tables[0].any()  # candidates are tried lowest bidder first
    assert report.best_ratio == min(worst)
    first_best = tables[worst.index(min(worst))]
    assert np.array_equal(report.witness_table.winner.reshape(-1), first_best)
    assert report.tables_scanned == nodes  # candidate assignments of the row-major walk


@pytest.mark.parametrize("block", [1, 2, 7])
def test_block_size_does_not_change_the_walk(monkeypatch, block):
    """Small blocks split every step into many slices; tables, order and counts stay."""
    v = gen.gen_three_bidder_no_c()
    tables = list(enumerate_monotone_tables(v))
    report = best_monotone_ratio(v)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    small = list(enumerate_monotone_tables(v))
    assert len(small) == len(tables)
    assert all(np.array_equal(a, b) for a, b in zip(small, tables))
    again = best_monotone_ratio(v)
    assert again.best_ratio == report.best_ratio
    assert (again.tables_scanned, again.monotone_count) == (7579, len(tables))
    assert np.array_equal(again.witness_table.winner, report.witness_table.winner)


def test_best_monotone_det_impossibility():
    for r in (2.0, 5.0, 10.0):
        report = best_monotone_ratio(gen.gen_det_impossibility(r))
        assert report.best_ratio == pytest.approx(r, rel=REL)
        # bidder 2 carries a value-irrelevant signal axis, so 6 of 16 tables
        assert report.monotone_count == 6


def test_best_monotone_two_by_two():
    for c in (1.5, 2.0, 4.0):
        report = best_monotone_ratio(gen.gen_two_by_two_tight(c))
        assert report.best_ratio == pytest.approx(c, rel=REL)


def test_best_monotone_three_bidder_exceeds_its_crossing_constant():
    v = gen.gen_three_bidder_no_c()
    report = best_monotone_ratio(v)
    assert report.best_ratio > 2.0 + 1e-6
    assert report.monotone_count > 0


def test_witness_is_monotone_and_attains_ratio():
    v = gen.gen_two_by_two_tight(2.0)
    report = best_monotone_ratio(v)
    table = report.witness_table
    assert check_allocation_monotone(table) == []
    worst, _ = welfare_ratio(table, v)
    assert worst == report.best_ratio


def test_mechanisms_cannot_beat_exhaustive_optimum():
    v = gen.gen_oil_no_sc(2)
    best = best_monotone_ratio(v).best_ratio
    worst, _ = welfare_ratio(two_bidder_coloring(v), v)
    assert worst >= best * (1 - REL)
    b = gen.gen_three_bidder_no_c()
    best_b = best_monotone_ratio(b).best_ratio
    for pi in ((0, 1, 2), (2, 1, 0)):
        worst, _ = welfare_ratio(hypergrid_coloring(b, pi), b)
        assert worst >= best_b * (1 - REL)


def test_search_cap():
    v, _, _ = gen.gen_random_tabulated(3, 2, seed=1)
    with pytest.raises(CapExceeded):
        best_monotone_ratio(v, cap=5)


@pytest.mark.parametrize(
    "v", [gen.gen_three_bidder_no_c(), gen.gen_random_tabulated(2, 7, seed=3)[0]]
)
def test_cap_counts_complete_tables_exactly(v):
    """A cap of N yields exactly the first N tables; asking for one more raises."""
    tables = list(enumerate_monotone_tables(v))
    count = len(tables)
    for cap in (1, count // 3, count - 1):
        walk = enumerate_monotone_tables(v, cap=cap)
        head = list(islice(walk, cap))
        assert len(head) == cap
        assert all(np.array_equal(a, b) for a, b in zip(head, tables))
        with pytest.raises(CapExceeded) as err:
            next(walk)
        assert str(err.value) == (
            f"more than {cap} monotone tables; try a smaller instance or raise the cap"
        )
    assert best_monotone_ratio(v, cap=count).monotone_count == count
    with pytest.raises(CapExceeded, match=f"more than {count - 1} monotone tables"):
        best_monotone_ratio(v, cap=count - 1)


# ---------------------------------------------------------------------------
# Ordering averages.
# ---------------------------------------------------------------------------


def test_exact_stats_single_bidder():
    sp = SignalSpace((2,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 3.0, 5.0]]))
    mean, per_pi = exact_random_hypergrid_stats(v, (1,))
    assert mean == 3.0 and per_pi == {(0,): 3.0}


def test_exact_stats_match_grid_tables(finite_c_corpus):
    """Per-ordering values of the n! oracle equal the materialized grid tables.

    The oracle runs the mechanism's own lazy chain; this ties it to the
    table builder, which shares no chain code with it.
    """
    checked = 0
    for name, v, c, _ in finite_c_corpus:
        if v.n > 4:
            continue
        tables = {pi: hypergrid_coloring(v, pi, c=c) for pi in permutations(range(v.n))}
        for s in v.space.profiles():
            _, per_pi = exact_random_hypergrid_stats(v, s, c=c)
            for pi, table in tables.items():
                assert per_pi[pi] == v.value(table.winner_at(s), s), (name, pi, s)
                checked += 1
    assert checked > 10_000


def test_exact_stats_separable_bound():
    for seed in (3, 4):
        v = gen.gen_random_separable(4, 2, 2.0, seed=seed)
        c = compute_c(v)
        for s in [(2, 1, 0, 2), (1, 1, 1, 1)]:
            mean, _ = exact_random_hypergrid_stats(v, s)
            assert mean >= optimal_welfare(v, s) / (2 * c) * (1 - REL)


def test_monte_carlo_agrees_with_exact():
    v = gen.gen_tight_hypergrid(5, 2.0)
    s = (1, 1, 1, 1, 1)
    exact, _ = exact_random_hypergrid_stats(v, s)
    mean, se = monte_carlo_random_hypergrid(v, s, samples=4000, seed=123)
    assert abs(mean - exact) <= max(3 * se, 1e-12)


def test_monte_carlo_zero_variance_when_degenerate():
    sp = SignalSpace((1, 1))
    v = ValuationInstance(space=sp, values=np.ones((2, 2, 2)))
    mean, se = monte_carlo_random_hypergrid(v, (1, 1), samples=50, seed=0)
    assert mean == 1.0 and se == 0.0


def test_monte_carlo_seed_reproducibility():
    v = gen.gen_tight_hypergrid(4, 2.0)
    a = monte_carlo_random_hypergrid(v, (1, 1, 1, 1), samples=200, seed=5)
    b = monte_carlo_random_hypergrid(v, (1, 1, 1, 1), samples=200, seed=5)
    assert a == b


def scalar_monte_carlo(v, s, samples, seed, c):
    """Per-draw twin of the Monte Carlo oracle: one scalar chain per ordering."""
    rng = random.Random(seed)
    order = list(range(v.n))
    total = total_sq = 0.0
    for _ in range(samples):
        rng.shuffle(order)
        val = v.value(lazy_winner(v, tuple(order), s, c=c), s)
        total += val
        total_sq += val * val
    mean = total / samples
    if samples == 1:
        return mean, 0.0
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    return mean, math.sqrt(var / samples)


def test_monte_carlo_matches_scalar_draws_across_chunks(monkeypatch):
    """Batched draws are bit-identical to per-draw scalar chains, whatever the chunk size."""
    lb = gen.gen_random_mech_lb(16, 2.0)
    ones = (1,) * 17
    expected = scalar_monte_carlo(lb, ones, 300, seed=8, c=2.0)
    assert monte_carlo_random_hypergrid(lb, ones, 300, seed=8, c=2.0) == expected
    monkeypatch.setattr(oracle, "MC_CHUNK", 7)
    assert monte_carlo_random_hypergrid(lb, ones, 300, seed=8, c=2.0) == expected
    v, c, _ = gen.gen_random_tabulated(4, 2, seed=9)
    s = (2, 1, 0, 2)
    assert monte_carlo_random_hypergrid(v, s, 50, seed=1) == scalar_monte_carlo(v, s, 50, 1, c)
    assert monte_carlo_random_hypergrid(v, s, 1, seed=1) == scalar_monte_carlo(v, s, 1, 1, c)


def test_exact_stats_match_scalar_chain():
    v, c, _ = gen.gen_random_tabulated(5, 1, seed=31)
    for s in [(1, 1, 1, 1, 1), (0, 1, 0, 1, 1)]:
        mean, per_pi = exact_random_hypergrid_stats(v, s)
        expected = {pi: v.value(lazy_winner(v, pi, s, c=c), s) for pi in permutations(range(5))}
        assert per_pi == expected and list(per_pi) == list(expected)
        assert mean == sum(expected.values()) / len(expected)


def test_random_mech_lb_batch_evaluate_matches_group_reference():
    for n in (4, 64, 256, 1024):  # 1, 1, 2 and 3 groups
        v = gen.gen_random_mech_lb(n, 2.0)
        groups = gen.rand_mech_lb_groups(n)
        rng = np.random.default_rng(n)
        P = np.ones((120, n + 1), dtype=np.intp)
        for r, row in enumerate(P):
            row[rng.choice(n + 1, size=r % 4, replace=False)] = 0
        batch = v.batch_evaluate(P)
        assert batch.shape == P.shape
        for row, vals in zip(P.tolist(), batch):
            expected = [0.0] * (n + 1)
            for members in groups:
                if all(row[b] for b in members):
                    for b in members:
                        expected[b] = 1.0
                    expected[n] += 2.0
            assert vals.tolist() == expected
        assert np.array_equal(v.values_at_batch(P), batch)


def test_mean_and_stderr_formula():
    draws = [1.0, 2.0, 2.0, 5.0]
    mean, se = mean_and_stderr(draws)
    assert mean == 2.5
    assert se == math.sqrt((sum(x * x for x in draws) - 4 * 2.5 * 2.5) / 3 / 4)
    assert mean_and_stderr(iter([3.0])) == (3.0, 0.0)
    with pytest.raises(ValidationError):
        mean_and_stderr([])


# ---------------------------------------------------------------------------
# Closed forms for the no-crossing impossibility family.
# ---------------------------------------------------------------------------


def test_closed_form_direct_substitution():
    # eps^n + n * eps^(n-1) * (1 - eps) = 0.25 + 2 * 0.5 * 0.5
    opt, bound, uniform = closed_form_rand_impossibility(2, 0.5)
    assert opt == pytest.approx(0.75, abs=1e-15)
    assert bound == pytest.approx(0.5, abs=1e-15)
    assert uniform == pytest.approx(0.5, abs=1e-15)


def test_closed_form_matches_enumeration():
    for n in range(2, 7):
        for eps in (0.1, 0.01):
            opt, bound, uniform = closed_form_rand_impossibility(n, eps)
            assert abs(uniform - bound) <= 1e-12
            ratio = bound / opt
            assert abs(ratio - 1.0 / (n * (1 - eps) + eps)) <= 1e-12


def test_closed_form_ratio_approaches_one_over_n():
    n = 5
    for eps in (0.1, 0.01, 0.001):
        opt, bound, _ = closed_form_rand_impossibility(n, eps)
        assert bound / opt <= 1.0 / (n * (1 - eps))
    opt, bound, _ = closed_form_rand_impossibility(n, 1e-6)
    assert bound / opt == pytest.approx(1.0 / n, rel=1e-4)
