"""Oracles: exhaustive monotone search, ordering averages, closed forms."""

import hashlib
import math
import random
from collections import Counter
from itertools import islice, permutations, product

import numpy as np
import pytest

from ivauctions import (
    AllocationTable,
    CapExceeded,
    IncompatibleMechanism,
    SignalSpace,
    ValuationInstance,
    best_monotone_ratio,
    check_allocation_monotone,
    compute_c,
    exact_random_hypergrid_counts,
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

from reference import best_monotone_ratio as reference_best_monotone_ratio
from reference import closed_form_rand_impossibility, exact_stats_by_chain

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
    grids = [AllocationTable(v.space, t.reshape(v.space.shape)) for t in tables]
    worst = [welfare_ratio(grid, v)[0] for grid in grids]
    assert report.monotone_count == len(tables)
    rows = [tuple(t) for t in tables]
    assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly lexicographic: none repeated
    assert not any(check_allocation_monotone(grid) for grid in grids)
    assert all(t.dtype == np.int32 for t in tables)
    assert not tables[0].any()  # candidates are tried lowest bidder first
    assert report.best_ratio == min(worst)
    first_best = tables[worst.index(min(worst))]
    assert np.array_equal(report.witness_table.winner.reshape(-1), first_best)
    assert report.tables_scanned == nodes  # candidate assignments of the row-major walk


def _record_steps(monkeypatch):
    """Record each step the enumerator takes, through its one candidates helper:
    (cell, the partial tables stepped, their children)."""
    steps = []
    candidates = oracle._candidates

    def spy(rows, pos, walk):
        parent, cand = candidates(rows, pos, walk)
        steps.append((pos, rows[:, :pos].copy(), len(parent)))
        return parent, cand

    monkeypatch.setattr(oracle, "_candidates", spy)
    return steps


@pytest.mark.parametrize(
    "name,value",
    [pytest.param("_BLOCK", block, id=str(block)) for block in (1, 2, 7)]
    + [pytest.param("_STACK_BYTES", budget, id=f"budget{budget}") for budget in (1, 4096, 8192)],
)
def test_block_size_does_not_change_the_walk(monkeypatch, name, value):
    """Small blocks split every step into many slices, and a small budget also
    leaves suffix blocks unbuilt, so the prefixes are completed over the suffix
    range instead of joined; tables, order and counts stay."""
    v = gen.gen_three_bidder_no_c()
    tables = list(enumerate_monotone_tables(v))
    report = best_monotone_ratio(v)
    monkeypatch.setattr(oracle, name, value)
    steps = _record_steps(monkeypatch)
    small = list(enumerate_monotone_tables(v))
    assert len(small) == len(tables)
    assert all(np.array_equal(a, b) for a, b in zip(small, tables))
    assert len(steps) > 12  # more than one step per cell
    assert max(len(rows) for _, rows, _ in steps) < 117  # the 117 prefixes at the split are chunked
    if name == "_STACK_BYTES" and value == 1:
        # one row per step and no suffix block kept: each partial table is
        # stepped once, as the one-cell walk takes it, so the children are its nodes
        assert max(len(rows) for _, rows, _ in steps) == 1
        assert sum(kids for _, _, kids in steps) == report.tables_scanned == 7579
    again = best_monotone_ratio(v)
    assert again.best_ratio == report.best_ratio
    assert (again.tables_scanned, again.monotone_count) == (7579, len(tables))
    assert np.array_equal(again.witness_table.winner, report.witness_table.winner)


def test_each_context_is_extended_once(monkeypatch):
    """On the 8x8 grid each cell is one batched step.  The prefixes reach 495
    rows at the split cell 32 and have 9 distinct contexts (which of their
    last 8 cells bidder 0 won); each context is extended once, to 1,287
    suffix rows in all, and the join repeats the prefixes over them into the
    12,870 tables."""
    steps = _record_steps(monkeypatch)
    tables = list(enumerate_monotone_tables(gen.gen_random_tabulated(2, 7, seed=6)[0]))
    assert len(tables) == 12_870
    assert [pos for pos, _, _ in steps] == list(range(64))
    assert steps[31][2] == 495  # the prefixes at the split
    assert len(steps[32][1]) == 9  # the contexts, stepped in one batch
    for pos, rows, _ in steps[32:]:  # no context's partial suffix is stepped twice
        assert len({row[24:].tobytes() for row in rows}) == len(rows)
    assert steps[-1][2] == 1_287


def test_a_large_stream_is_pinned_byte_for_byte():
    """``gen_random_tabulated(3, 2, seed=1)``: 2,715,798 tables, the search's
    count, and the sha256 of their concatenated int32 bytes, which fixes both
    their order and their content."""
    v = gen.gen_random_tabulated(3, 2, seed=1)[0]
    digest, count = hashlib.sha256(), 0
    for table in enumerate_monotone_tables(v):
        digest.update(table)
        count += 1
    assert count == best_monotone_ratio(v, cap=10**7).monotone_count == 2_715_798
    assert digest.hexdigest() == "dd7145ed9c5fed1582bf1e30134a176c477a56f45d822517a039f9e356360019"


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


def _as_walk(report):
    """A search report in the one-cell walk's form: (best, flat witness, nodes, tables)."""
    witness = report.witness_table
    flat = None if witness is None else witness.winner.reshape(-1).tolist()
    return report.best_ratio, flat, report.tables_scanned, report.monotone_count


#: Most tables the one-cell walk is run on in the corpus comparison.
WALK_TABLES = 50_000


def test_search_equals_the_one_cell_walk_on_the_corpus(corpus):
    """Every corpus instance with at most WALK_TABLES monotone tables: ratio, witness and counts."""
    walked, refused = [], []
    for name, v in corpus:
        try:
            report = best_monotone_ratio(v, cap=WALK_TABLES)
        except CapExceeded:
            refused.append(name)
            continue
        assert _as_walk(report) == reference_best_monotone_ratio(v), name
        walked.append(name)
    assert len(walked) == 15 and "rand_impossibility_n3" in walked  # one with an infinite best
    assert "tight_hypergrid_n4_c1.5" in refused  # 4,595,984 tables: the twin's is one seeded grid


def _tie_tables(count):
    """Seeded {0, 1, 2} tables on small grids: ties, zero values and infinite bests."""
    rng = np.random.default_rng(5)
    sizes = [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (1, 1, 1), (2, 1, 1)]
    for j in range(count):
        space = SignalSpace(sizes[j % len(sizes)])
        values = rng.integers(0, 3, size=(space.n,) + space.shape).astype(float)
        yield ValuationInstance(space=space, values=values)


def _seeded_tables():
    for k in range(1, 10):
        for seed in range(4):
            yield gen.gen_random_tabulated(1, k, seed=seed)[0]
    for k in range(1, 5):
        for seed in range(15):
            yield gen.gen_random_tabulated(2, k, seed=seed)[0]
    for seed in range(30):
        yield gen.gen_random_tabulated(3, 1, seed=seed)[0]


@pytest.mark.parametrize("family", ["random_tabulated", "ties"])
def test_search_equals_the_one_cell_walk_on_seeded_instances(family):
    instances = list(_seeded_tables() if family == "random_tabulated" else _tie_tables(105))
    reports = [best_monotone_ratio(v) for v in instances]
    assert [_as_walk(r) for r in reports] == [reference_best_monotone_ratio(v) for v in instances]
    if family == "ties":
        infinite = [r for r in reports if r.best_ratio == math.inf]
        assert infinite and all(r.witness_table is None for r in infinite)
        assert sum(r.best_ratio == 1.0 for r in reports) > 10  # ties at the leaves' 1.0


def test_search_equals_the_one_cell_walk_on_a_four_bidder_grid():
    """One seeded 2x2x2x2 grid: 4,595,984 tables, every one walked by the twin."""
    v = gen.gen_random_tabulated(4, 1, seed=2)[0]
    walk = reference_best_monotone_ratio(v)
    assert walk[2:] == (8_713_739, 4_595_984)
    assert _as_walk(best_monotone_ratio(v)) == walk


def _count_expansions(monkeypatch):
    """Record each (cell, state) the search expands, through its one children helper."""
    expanded = []
    children = oracle._children

    def spy(pos, state, frontier):
        expanded.append((pos, state))
        return children(pos, state, frontier)

    monkeypatch.setattr(oracle, "_children", spy)
    return expanded


def test_each_frontier_state_is_expanded_once(monkeypatch):
    """On the 8x8 grid at most 9 frontier states reach a cell, each expanded once."""
    expanded = _count_expansions(monkeypatch)
    report = best_monotone_ratio(gen.gen_random_tabulated(2, 7, seed=6)[0])
    assert report.tables_scanned == 115_821
    assert len(expanded) == len(set(expanded)) == 519
    assert max(Counter(pos for pos, _ in expanded).values()) == 9


def test_cap_hit_is_found_after_few_expansions(monkeypatch):
    """Six bidders, two signals: past 10^7 tables after 2,285 expansions of 64 cells."""
    expanded = _count_expansions(monkeypatch)
    with pytest.raises(CapExceeded) as err:
        best_monotone_ratio(gen.gen_random_tabulated(6, 1, seed=1)[0])
    assert str(err.value) == (
        "more than 10000000 monotone tables; try a smaller instance or raise the cap"
    )
    assert len(expanded) == len(set(expanded)) == 2_285


# ---------------------------------------------------------------------------
# Ordering averages.
# ---------------------------------------------------------------------------


def test_exact_stats_single_bidder():
    sp = SignalSpace((2,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 3.0, 5.0]]))
    mean, values = exact_random_hypergrid_stats(v, (1,))
    assert mean == 3.0 and values.tolist() == [3.0] and values.dtype == np.float64


def _with_lone_top_test(finite_c_corpus):
    """The corpus plus an instance where the chain's |S| c test fires and its c
    test does not, at 10 of 81 profiles; no corpus profile has that."""
    v = gen.gen_random_separable(4, 2, 3.0, seed=0)
    return finite_c_corpus + [("separable_n4_k2_seed0", v, compute_c(v), None)]


def test_exact_stats_match_grid_tables(finite_c_corpus):
    """Per-ordering values of the n! oracle, in ``permutations`` order, equal the
    materialized grid tables.

    The oracle walks the lazy chain's entry table; this ties it to the table
    builder, which shares no chain code with it.
    """
    checked = 0
    for name, v, c, _ in _with_lone_top_test(finite_c_corpus):
        if v.n > 4:
            continue
        tables = {pi: hypergrid_coloring(v, pi, c=c) for pi in permutations(range(v.n))}
        for s in v.space.profiles():
            _, values = exact_random_hypergrid_stats(v, s, c=c)
            for (pi, table), x in zip(tables.items(), values.tolist(), strict=True):
                assert x == v.value(table(s), s), (name, pi, s)
                checked += 1
    assert checked > 10_000


def test_exact_stats_separable_bound():
    for seed in (3, 4):
        v = gen.gen_random_separable(4, 2, 2.0, seed=seed)
        c = compute_c(v)
        for s in [(2, 1, 0, 2), (1, 1, 1, 1)]:
            mean, _ = exact_random_hypergrid_stats(v, s)
            assert mean >= optimal_welfare(v, s) / (2 * c) * (1 - REL)


def test_exact_stats_mean_is_the_sequential_sum():
    """The n! mean adds the per-ordering values left to right on every Python
    version (3.12's ``sum`` of floats is compensated)."""
    v = gen.gen_random_separable(7, 1, 2.0, seed=3)
    mean, values = exact_random_hypergrid_stats(v, (1, 0, 1, 1, 0, 1, 1))
    total = 0.0
    for x in values.tolist():
        total += x
    assert values.shape == (math.factorial(7),)
    assert mean == total / math.factorial(7)


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


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 129])
def test_ordering_stream_replays_stdlib_shuffle(n):
    """The Monte Carlo draws, past one ``MC_CHUNK`` batch, are the permutations
    ``random.Random(seed).shuffle`` leaves on one list, and the generator ends in
    the stdlib's state."""
    draws = oracle.MC_CHUNK + 5
    for seed in (0, 8, 2**40 + 3):
        rng, twin = random.Random(seed), random.Random(seed)
        order = list(range(n))
        expected = []
        for _ in range(draws):
            twin.shuffle(order)
            expected.append(tuple(order))
        assert list(islice(oracle._orderings(rng, n), draws)) == expected, (n, seed)
        assert rng.random() == twin.random(), (n, seed)


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
        mean, values = exact_random_hypergrid_stats(v, s)
        expected = {pi: v.value(lazy_winner(v, pi, s, c=c), s) for pi in permutations(range(5))}
        assert values.tolist() == list(expected.values())
        assert mean == sum(expected.values()) / len(expected)


def _twin_profiles(finite_c_corpus):
    """Every profile of the finite-c corpus instances with n <= 5 and of the
    lone-top-test instance, then five seeded profiles of a two-signal random
    table for each of n = 6, 7, 8."""
    for name, v, c, _ in _with_lone_top_test(finite_c_corpus):
        if v.n <= 5:
            for s in v.space.profiles():
                yield name, v, c, s
    rng = random.Random(61)
    for n in (6, 7, 8):
        v, c, _ = gen.gen_random_tabulated(n, 1, seed=n)
        for _ in range(5):
            yield f"tabulated_n{n}_k1", v, c, tuple(rng.randint(0, 1) for _ in range(n))


def test_exact_stats_match_the_chain_twin(finite_c_corpus):
    """One n! batch of the chain per profile: the entry-table walk gives its mean
    and per-ordering values, in ``permutations`` order, and the subset DP's
    counts are the tally of its winners."""
    checked = 0
    for name, v, c, s in _twin_profiles(finite_c_corpus):
        mean, values = exact_random_hypergrid_stats(v, s, c=c)
        twin_mean, twin, winners = exact_stats_by_chain(v, s, c=c)
        assert mean == twin_mean and values.tolist() == list(twin.values()), (name, s)
        assert list(twin) == list(permutations(range(v.n)))
        counts = exact_random_hypergrid_counts(v, s, c=c)
        tally = Counter(winners.tolist())
        assert counts.dtype == np.int64 and counts.shape == (v.n,)
        assert counts.tolist() == [tally[b] for b in range(v.n)], (name, s)
        checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("n", [10, 12])
def test_exact_counts_beyond_factorial_enumeration(n):
    """Past the n! cap the counts still sum to n!, and their mean is Monte Carlo's."""
    v = gen.gen_random_separable(n, 1, 2.0, seed=n)
    c = compute_c(v)
    rng = random.Random(n)
    s = tuple(rng.randint(0, 1) for _ in range(n))
    counts = exact_random_hypergrid_counts(v, s, c=c)
    assert int(counts.sum()) == math.factorial(n) and counts.min() >= 0
    exact = float(counts @ v.values_at(s)) / math.factorial(n)
    mean, se = monte_carlo_random_hypergrid(v, s, samples=4000, seed=n, c=c)
    assert se > 0 and abs(mean - exact) <= 4 * se


def test_exact_counts_edges():
    v = ValuationInstance(space=SignalSpace((2,)), values=np.array([[0.0, 3.0, 5.0]]))
    assert exact_random_hypergrid_counts(v, (1,)).tolist() == [1]
    wide = gen.gen_random_mech_lb(16, 2.0)  # 17 bidders
    with pytest.raises(CapExceeded):
        exact_random_hypergrid_counts(wide, (1,) * 17, c=2.0)


def test_exact_stats_refuse_nine_bidders():
    """The n! walk stops at n = 8; nine bidders are the Monte Carlo path's."""
    v = gen.gen_tight_hypergrid(9, 2.0)
    with pytest.raises(CapExceeded, match="n <= 8"):
        exact_random_hypergrid_stats(v, (1,) * 9, c=2.0)


def _monte_carlo_of_ten(v, s, c=None):
    return monte_carlo_random_hypergrid(v, s, samples=10, seed=0, c=c)


@pytest.mark.parametrize(
    "oracle_fn", [exact_random_hypergrid_stats, exact_random_hypergrid_counts, _monte_carlo_of_ten]
)
def test_exact_oracles_reject_unusable_c(oracle_fn):
    """Every ordering oracle resolves c by the one rule, Monte Carlo included."""
    no_c = gen.gen_rand_impossibility(3)
    with pytest.raises(IncompatibleMechanism):
        oracle_fn(no_c, (1, 1, 1))
    v = gen.gen_tight_hypergrid(3, 2.0)
    with pytest.raises(IncompatibleMechanism):
        oracle_fn(v, (1, 1, 1), c=math.inf)
    with pytest.raises(ValidationError) as err:
        oracle_fn(v, (1, 1, 1), c=0.5)
    assert err.type is ValidationError


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
