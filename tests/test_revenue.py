"""Reserves, the reserve-backed mechanism, and the revenue bound."""

import collections
import math
import random
import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from ivauctions import (
    AllocationTable,
    CapExceeded,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    compute_c,
    compute_d,
    hypergrid_coloring,
)
from ivauctions import instances as gen
from ivauctions import mechanisms as mechanisms_module
from ivauctions import model as model_module
from ivauctions import oracle as oracle_module
from ivauctions import revenue as revenue_module
from ivauctions.mechanisms import (
    IncompatibleMechanism,
    as_table,
    check_expost_truthful,
    critical_signal,
    critical_signal_scan,
    high_if_possible,
    lazy_winner,
    outcome,
    welfare_ratio,
)
from ivauctions.oracle import monte_carlo_random_hypergrid
from ivauctions.revenue import (
    HighIfPossibleFamily,
    HypergridFamily,
    JointPrior,
    ReserveBackedMechanism,
    RuleFamily,
    UndefinedReserve,
    expected_payment_revenue,
    expected_revenue,
    family_worst_ratio,
    lookahead_benchmark,
    lookahead_benchmark_family,
    uniform_product_prior,
    winning_reserve,
)

import reference
from reference import losing_reserve, prior_support, restrict_bidders

REL = 1e-9


# ---------------------------------------------------------------------------
# Priors.
# ---------------------------------------------------------------------------


def test_prior_validation():
    sp = SignalSpace((1, 1))
    with pytest.raises(ValidationError):
        JointPrior(space=sp, marginals=(np.array([0.5, 0.4]), np.array([0.5, 0.5])))
    with pytest.raises(ValidationError):
        JointPrior(space=sp, atoms={(0, 0): 0.5, (1, 1): 0.4})
    with pytest.raises(ValidationError):
        JointPrior(space=sp, marginals=(np.array([0.5, 0.5]),))
    with pytest.raises(ValidationError):  # NaN is neither negative nor off by more than 1e-12
        JointPrior(space=sp, marginals=(np.array([np.nan, 1.0]), np.array([0.5, 0.5])))
    with pytest.raises(ValidationError):
        JointPrior(space=sp, atoms={(0, 0): np.nan, (1, 1): 1.0})
    prior = JointPrior(space=sp, atoms={(0, 0): 0.25, (1, 1): 0.75})
    assert prior.probs.tolist() == [[0.25, 0.0], [0.0, 0.75]]


def test_prior_json_roundtrip():
    sp = SignalSpace((1, 2))
    prior = uniform_product_prior(sp)
    back = JointPrior.from_json({"kind": "product", "marginals": [[1 / 2] * 2, [1 / 3] * 3]}, sp)
    assert back.probs[1, 2] == pytest.approx(prior.probs[1, 2])
    wire = {"kind": "sparse", "atoms": [{"profile": [0, 2], "p": 0.5}, {"profile": [1, 0], "p": 0.5}]}
    back = JointPrior.from_json(wire, space=sp)
    assert back.probs[0, 2] == 0.5


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "product"},
        {"kind": "product", "marginals": 5},
        {"kind": "product", "marginals": [["a", "b"]]},
        {"kind": "sparse", "atoms": [{"profile": [0, 1]}]},
        {"kind": "sparse", "atoms": [{"p": 1.0}]},
        {"kind": "sparse", "atoms": [{"profile": [0, 1], "p": "x"}]},
        {"kind": "sparse", "atoms": []},
        {"kind": "sparse"},
        [],
        # probabilities must be JSON numbers: no strings, no bools
        {"kind": "sparse", "atoms": [{"profile": [0, 1], "p": "0.5"}, {"profile": [1, 1], "p": 0.5}]},
        {"kind": "sparse", "atoms": [{"profile": [0, 1], "p": True}]},
        {"kind": "product", "marginals": [["0.5", "0.5"], [0.5, 0.5]]},
        {"kind": "product", "marginals": [[True, False], [0.5, 0.5]]},
        # sparse profiles of different lengths: one is off the grid
        {"kind": "sparse", "atoms": [{"profile": [0, 0], "p": 0.5}, {"profile": [1], "p": 0.5}]},
        {"kind": "dense", "probs": [0.25] * 4},  # no such kind
    ],
)
def test_prior_json_malformed_is_a_validation_error(obj):
    with pytest.raises(ValidationError):
        JointPrior.from_json(obj, SignalSpace((1, 1)))


@pytest.mark.parametrize(
    "parts",
    [
        {},
        {"marginals": (np.array([0.5, 0.5]), np.array([1 / 3] * 3))},
        {"marginals": (np.array([1.0]), np.array([0.5, 0.5]))},
    ],
    ids=["neither", "marginal-too-long", "marginal-too-short"],
)
def test_a_prior_needs_one_source_on_its_grid(parts):
    with pytest.raises(ValidationError):
        JointPrior(space=SignalSpace((1, 1)), **parts)


@pytest.mark.parametrize("seed", range(4))
def test_dense_prior_equals_per_point_reference(seed):
    """Stored probabilities equal the per-point formulas bit for bit.

    A product prior multiplies its marginals in bidder order; a sparse wire
    prior sums the atoms of a repeated profile in file order.
    """
    rng = np.random.default_rng(seed)
    sp = SignalSpace((2, 3, 1))
    marginals = []
    for k in sp.sizes:
        w = rng.uniform(0.0, 1.0, size=k + 1) ** 4  # skewed
        w[rng.integers(k + 1)] = 0.0
        marginals.append(w / w.sum())
    product = JointPrior(space=sp, marginals=tuple(marginals))
    ref = {}
    for p in sp.profiles():
        ref[p] = 1.0
        for i, s in enumerate(p):
            ref[p] *= float(marginals[i][s])
    assert all(product.probs[p] == ref[p] for p in sp.profiles())

    profiles = list(sp.profiles())
    picks = rng.integers(len(profiles), size=12)  # with replacement: repeated profiles
    w = rng.uniform(0.0, 1.0, size=picks.size)
    w[:3] = 0.0
    w = w / w.sum()
    wire = [{"profile": list(profiles[j]), "p": float(p)} for j, p in zip(picks, w)]
    sparse = JointPrior.from_json({"kind": "sparse", "atoms": wire}, space=sp)
    ref = {}
    for atom in wire:  # a repeated profile sums its atoms in file order
        q = tuple(atom["profile"])
        ref[q] = ref.get(q, 0.0) + atom["p"]
    assert len(ref) < len(wire)
    assert all(sparse.probs[p] == ref.get(p, 0.0) for p in sp.profiles())


def test_a_prior_is_its_probability_array():
    """Building a uniform prior on a 250,000-profile grid allocates little beyond
    ``probs``: no per-profile objects."""
    tracemalloc.start()
    try:
        prior = uniform_product_prior(SignalSpace((499, 499)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * prior.probs.nbytes


@pytest.mark.parametrize(
    "i,context", [(0, ()), (0, (0, 0)), (0, (2,)), (0, (-1,)), (1, (-1,)), (2, (0,)), (-1, (0,))]
)
def test_bad_line_is_a_validation_error(i, context):
    """Wrong-length, out-of-range and negative lines are refused, never wrapped."""
    v, c, _ = gen.gen_random_tabulated(2, 1, seed=3)
    table = hypergrid_coloring(v, (0, 1), c=c)
    with pytest.raises(ValidationError):
        critical_signal(table, v, i, context)
    with pytest.raises(ValidationError):
        critical_signal_scan(table, v, i, context)


def test_non_integer_signals_are_refused():
    """A float or string signal raises instead of being truncated; NumPy integers pass."""
    v, c, _ = gen.gen_random_tabulated(2, 3, seed=1)
    table = hypergrid_coloring(v, (0, 1), c=c)
    with pytest.raises(ValidationError):
        outcome(table, v, (1.7, 2))
    with pytest.raises(ValidationError):
        lazy_winner(v, (0, 1), (1.0, 2), c=c)
    s = np.array([1, 2], dtype=np.int64)
    assert outcome(table, v, tuple(s)) == outcome(table, v, (1, 2))
    assert lazy_winner(v, (0, 1), s, c=c) == lazy_winner(v, (0, 1), (1, 2), c=c)


def test_library_profiles_are_validated_once(monkeypatch):
    """A line is checked once, not once per point or probe."""
    v, c, _ = gen.gen_random_tabulated(2, 6, seed=5)
    table = hypergrid_coloring(v, (0, 1), c=c)
    calls = []
    check = SignalSpace.validate_profile
    monkeypatch.setattr(
        SignalSpace, "validate_profile", lambda self, p: calls.append(p) or check(self, p)
    )
    for i in range(2):
        for t in range(7):
            calls.clear()
            critical_signal(table, v, i, (t,))
            assert len(calls) == 1
            critical_signal_scan(table, v, i, (t,))
            assert len(calls) == 2


# ---------------------------------------------------------------------------
# Reserves.
# ---------------------------------------------------------------------------


def always_first(profile):
    return 0


def test_winning_reserve_single_bidder_uniform():
    sp = SignalSpace((1,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0]]))
    prior = uniform_product_prior(sp)
    q = winning_reserve(prior, v, always_first, 0, ())
    assert q.price == 1.0 and q.expected_revenue == 0.5


def test_winning_reserve_point_mass():
    sp = SignalSpace((2, 1))
    v, _, _ = gen.gen_random_tabulated(2, 1, seed=3)
    sp = v.space
    prior = JointPrior(space=sp, atoms={(1, 1): 1.0})
    q = winning_reserve(prior, v, always_first, 0, (1,))
    assert q.price == v.value(0, (1, 1))
    assert q.expected_revenue == pytest.approx(q.price)


def test_winning_reserve_matches_brute_force_price_search():
    for seed in range(6):
        v, _, _ = gen.gen_random_tabulated(2, 3, seed=700 + seed)
        prior = uniform_product_prior(v.space)
        table = hypergrid_coloring(v, (0, 1))
        for s2 in range(4):
            b = None
            for t in range(4):
                if table((t, s2)) == 0:
                    b = t
                    break
            if b is None:
                with pytest.raises(UndefinedReserve):
                    winning_reserve(prior, v, table, 0, (s2,))
                continue
            q = winning_reserve(prior, v, table, 0, (s2,))
            # brute force over every candidate price on the winning side
            line = [v.value(0, (t, s2)) for t in range(4)]
            mass = sum(prior.probs[t, s2] for t in range(b, 4))
            best = max(
                price * sum(prior.probs[t, s2] for t in range(b, 4) if line[t] >= price) / mass
                for price in line[b:]
            )
            assert q.expected_revenue == pytest.approx(best, rel=1e-12)


def test_reserve_price_is_support_attained():
    """Perturbing the quote to any other support price never earns more."""
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    table = hypergrid_coloring(v, (0, 1))
    q = winning_reserve(prior, v, table, 0, (1,))
    line = [v.value(0, (t, 1)) for t in range(2)]
    b = 0
    mass = sum(prior.probs[t, 1] for t in range(b, 2))
    for price in line[b:]:
        rev = price * sum(prior.probs[t, 1] for t in range(b, 2) if line[t] >= price) / mass
        assert rev <= q.expected_revenue + 1e-15


def _quote_rows(rng, length, count):
    """Seeded quote rows of one length: repeated and dipping values, zeros in the probabilities."""
    values = rng.uniform(0.0, 10.0, size=(count, length))
    values[0::4] = np.sort(values[0::4], axis=1)  # monotone lines
    values[1::4] = rng.choice(values[1, : max(1, length // 3)], size=values[1::4].shape)  # repeats
    probs = rng.uniform(0.0, 1.0, size=(count, length)) ** 3
    probs[rng.uniform(size=probs.shape) < 0.3] = 0.0  # partly zero posteriors
    probs[2::4, length // 2 :] = 0.0  # zero mass on the upper half
    probs /= max(1.0, float(probs.sum()))
    start = rng.integers(0, length, size=count)
    start[:2] = 0  # the whole line
    start[2::4] = length - 1 - length // 4  # inside the zero upper half when it is wide enough
    return values, probs, start


def test_batched_quotes_equal_the_scalar_loop():
    """Every batched quote equals the one-line loop exactly, lengths 1-300 (every
    pairwise-sum regime); every third call has enough rows per length that its
    sums run in length-grouped blocks, the others mostly slice by slice."""
    rng = np.random.default_rng(2024)
    checked = undefined = 0
    for length in range(1, 301):
        values, probs, start = _quote_rows(rng, length, 24 if length % 3 == 0 else 8)
        price, gain = revenue_module._monopoly_quotes(values, probs, start)
        for r in range(len(start)):
            try:
                want = reference._monopoly_quote(values[r, start[r] :], probs[r, start[r] :])
            except UndefinedReserve:
                assert math.isnan(price[r]) and math.isnan(gain[r])
                undefined += 1
                continue
            assert (price[r], gain[r]) == (want.price, want.expected_revenue), (length, r)
            checked += 1
    assert checked > 1500 and undefined > 300
    # exact three-way revenue ties (1 * 1 = 2 * 0.5 = 4 * 0.25) go to the highest price
    values = np.array([[1.0, 2.0, 4.0], [4.0, 2.0, 1.0]])
    probs = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
    price, gain = revenue_module._monopoly_quotes(values, probs, np.zeros(2, dtype=int))
    for r in range(2):
        want = reference._monopoly_quote(values[r], probs[r])
        assert (price[r], gain[r]) == (want.price, want.expected_revenue) == (4.0, 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_winning_reserve_equals_reference(seed):
    """The package's one-line quote equals the former scalar quote, including its refusals."""
    v = gen.gen_random_separable(3, 3, 1.5, seed=80 + seed)
    c = compute_c(v)
    rules = [hypergrid_coloring(v, (2, 0, 1)), lambda p: lazy_winner(v, (1, 0, 2), p, c=c)]
    for prior in _priors(v.space, seed):
        for rule in rules:
            for i in range(3):
                for ctx in SignalSpace(v.space.sizes[:i] + v.space.sizes[i + 1 :]).profiles():
                    try:
                        want = reference.winning_reserve(prior, v, rule, i, ctx)
                    except UndefinedReserve as e:
                        with pytest.raises(UndefinedReserve, match=re.escape(str(e))):
                            winning_reserve(prior, v, rule, i, ctx)
                        continue
                    assert winning_reserve(prior, v, rule, i, ctx) == want


def test_winning_reserve_refuses_off_grid_lines():
    """The others' signals are read as ``critical_signal`` reads them: a float, a
    string, an out-of-range signal or a wrong length is a ValidationError, not a
    truncated line (0.9 used to quote line (0,)); NumPy integers are read as ints."""
    v = gen.gen_random_separable(2, 3, 1.5, seed=1)
    prior = uniform_product_prior(v.space)
    table = hypergrid_coloring(v, (0, 1))
    for bad in ((0.9,), (1.9,), ("1",), (4,), (-1,), (1, 1), ()):
        for quote in (winning_reserve, reference.winning_reserve, losing_reserve):
            with pytest.raises(ValidationError):
                quote(prior, v, table, 0, bad)
        with pytest.raises(ValidationError):
            critical_signal(table, v, 0, bad)
    assert winning_reserve(prior, v, table, 0, (np.int64(1),)) == winning_reserve(
        prior, v, table, 0, (1,)
    )


def test_losing_reserve_constant_value():
    sp = SignalSpace((1, 1))
    vals = np.stack([np.array([[3.0, 3.0], [5.0, 5.0]]), np.array([[1.0, 1.0], [2.0, 2.0]])])
    v = ValuationInstance(space=sp, values=vals)
    prior = uniform_product_prior(sp)
    rule = lambda p: 0 if p[0] == 1 else 1  # bidder 0 wins iff high
    q = losing_reserve(prior, v, rule, 0, (0,))
    assert q.price == 3.0 and q.expected_revenue == pytest.approx(3.0)


def test_losing_reserve_always_winner_undefined():
    sp = SignalSpace((1,))
    v = ValuationInstance(space=sp, values=np.array([[1.0, 2.0]]))
    with pytest.raises(UndefinedReserve):
        losing_reserve(uniform_product_prior(sp), v, always_first, 0, ())


def test_losing_reserve_matches_brute_force():
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=900)
    prior = uniform_product_prior(v.space)
    table = hypergrid_coloring(v, (1, 0))
    for s2 in range(4):
        wins = [table((t, s2)) == 0 for t in range(4)]
        cutoff = wins.index(True) if any(wins) else 4
        if cutoff == 0:
            continue
        q = losing_reserve(prior, v, table, 0, (s2,))
        line = [v.value(0, (t, s2)) for t in range(cutoff)]
        mass = sum(prior.probs[t, s2] for t in range(cutoff))
        best = max(
            price * sum(prior.probs[t, s2] for t in range(cutoff) if line[t] >= price) / mass
            for price in line
        )
        assert q.expected_revenue == pytest.approx(best, rel=1e-12)


# ---------------------------------------------------------------------------
# The reserve-backed mechanism.
# ---------------------------------------------------------------------------


def test_branch_probability_unit_parameters():
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    mech = ReserveBackedMechanism(
        v=v, prior=prior, family=HighIfPossibleFamily(v), alpha=1.0, d=1.0, p=1.0
    )
    assert mech.branch_a_prob == pytest.approx(1.0 / 3.0)


def test_point_mass_single_bidder_branch_a_sells_at_value():
    sp = SignalSpace((1,))
    v = ValuationInstance(space=sp, values=np.array([[1.0, 4.0]]))
    prior = JointPrior(space=sp, atoms={(1,): 1.0})
    fam = HypergridFamily(v, pi=(0,), c=1.0)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=1.0, d=1.0)
    events = mech.profile_events((1,))
    full = [e for e in events if e.branch == "full"]
    assert len(full) == 1 and full[0].revenue == 4.0 and full[0].price == 4.0


def test_grid_family_keeps_one_rule_per_ordering():
    """Repeated ``realizations`` calls return the same table objects, so the stacked
    pass settles a rule that serves several branches once: with every ordering, the
    full market's 6 tables double as its subset's, so ``_heads`` has 16 rows (row 0
    is nobody), and with a fixed ordering each of the 7 subsets has one table."""
    v = gen.gen_random_separable(3, 1, 2.0, seed=3)
    prior = uniform_product_prior(v.space)
    for pi, rows in ((None, 16), ((2, 0, 1), 8)):
        family = HypergridFamily(v, pi=pi)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=4.0, d=1.0, p=0.5)
        heads = mech._heads
        assert len({r for *_, r in heads}) == rows
        for mask in range(1, 8):
            keep = tuple(b for b in range(3) if mask >> b & 1)
            first, again = family.realizations(keep), family.realizations(keep)
            assert all(a is b for (_, a), (_, b) in zip(first, again))
            assert all(isinstance(rule, AllocationTable) for _, rule in first)
        again = ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=4.0, d=1.0)._heads
        assert [(rule, r) for *_, rule, r in again] == [(rule, r) for *_, rule, r in heads]
        assert len(family._rules) == rows - 1


def test_profile_events_probabilities_sum_to_one():
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    for fam in (HighIfPossibleFamily(v), HypergridFamily(v), HypergridFamily(v, pi=(1, 0))):
        mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=2.0, d=1.0, p=0.5)
        for s in v.space.profiles():
            events = mech.profile_events(s)
            assert sum(e.prob for e in events) == pytest.approx(1.0)
            # ex-post IR: every sale happens at a price the buyer can afford
            for e in events:
                if e.buyer is not None:
                    assert e.buyer_value >= e.price


def test_sales_price_dominates_critical_value(finite_c_corpus):
    """Internal reserve >= critical-value assertion never fires on desk instances."""
    for name, v, c, d in finite_c_corpus:
        if not all(k == 1 for k in v.space.sizes) or v.n > 3 or math.isinf(d):
            continue
        prior = uniform_product_prior(v.space)
        fam = HighIfPossibleFamily(v)
        mech = ReserveBackedMechanism(
            v=v, prior=prior, family=fam, alpha=family_worst_ratio(fam, v), d=d
        )
        for s, _ in prior_support(prior):
            mech.profile_events(s)  # the dominance assert lives in the pass


def test_exact_revenue_matches_hand_enumeration():
    """Independent per-event recomputation of the mechanism on the 2x2 instance."""
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    fam = HighIfPossibleFamily(v)
    alpha = family_worst_ratio(fam, v)
    d = compute_d(v)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=alpha, d=d)
    got, se = expected_revenue(mech)
    assert se == 0.0

    # hand enumeration: branch (a) full rule, branch (b) over the 4 subsets
    qa = (alpha**2 + 1) / (alpha**2 + 4 * alpha * d + 1)
    total = 0.0
    for s, ps in prior_support(prior):
        contributions = []
        full_rule = fam.realizations((0, 1))[0][1]
        contributions.append((qa, full_rule))
        for mask, prob in ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)):
            keep = tuple(b for b in range(2) if mask >> b & 1)
            if not keep:
                contributions.append(((1 - qa) * prob, None))
                continue
            contributions.append(((1 - qa) * prob, fam.realizations(keep)[0][1]))
        for weight, rule in contributions:
            if rule is None:
                continue
            i = rule(s)
            ctx = tuple(x for b, x in enumerate(s) if b != i)
            quote = winning_reserve(prior, v, rule, i, ctx)
            if v.value(i, s) >= quote.price:
                total += ps * weight * quote.price
    assert got == pytest.approx(total, rel=1e-12)


def test_mechanism_m_outcome_seeded():
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    fam = HighIfPossibleFamily(v)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=2.0, d=1.0, p=1.0)
    a = mech.sample_event((1, 1), random.Random(4))
    b = mech.sample_event((1, 1), random.Random(4))
    assert a == b
    assert a.branch in ("full", "subset")


def test_monte_carlo_revenue_agrees_with_exact():
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    fam = HighIfPossibleFamily(v)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=2.0, d=1.0)
    exact, _ = expected_revenue(mech)
    approx, se = expected_revenue(mech, cap=1, samples=4000, seed=77)
    assert se > 0
    assert abs(approx - exact) <= 4 * se


# ---------------------------------------------------------------------------
# Lookahead benchmark and the revenue bound.
# ---------------------------------------------------------------------------


def test_expected_payment_revenue_point_mass():
    v = gen.gen_two_by_two_tight(2.0)
    table = hypergrid_coloring(v, (0, 1))
    prior = JointPrior(space=v.space, atoms={(1, 1): 1.0})
    want = outcome(table, v, (1, 1)).payment
    assert expected_payment_revenue(table, v, prior) == pytest.approx(want)
    uniform = uniform_product_prior(v.space)
    mix = sum(
        0.25 * outcome(table, v, s).payment for s in v.space.profiles()
    )
    assert expected_payment_revenue(table, v, uniform) == pytest.approx(mix)


def test_lookahead_single_bidder_reduces_to_reserve():
    sp = SignalSpace((1,))
    v = ValuationInstance(space=sp, values=np.array([[0.0, 1.0]]))
    prior = uniform_product_prior(sp)
    assert lookahead_benchmark(prior, v, always_first) == pytest.approx(0.5)


def test_lookahead_point_mass():
    v = gen.gen_two_by_two_tight(2.0)
    prior = JointPrior(space=v.space, atoms={(1, 1): 1.0})
    table = hypergrid_coloring(v, (0, 1))
    w = table((1, 1))
    runner = max(v.value(j, (1, 1)) for j in range(2) if j != w)
    ctx = tuple(x for b, x in enumerate((1, 1)) if b != w)
    want = winning_reserve(prior, v, table, w, ctx).expected_revenue + runner
    assert lookahead_benchmark(prior, v, table) == pytest.approx(want)


def test_lookahead_uniform_2x2_hand_enumeration():
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    table = hypergrid_coloring(v, (0, 1))  # bidder 0 wins everywhere
    # reserve on each line of bidder 0, plus bidder 1's value, averaged
    want = 0.0
    for s2 in (0, 1):
        q = winning_reserve(prior, v, table, 0, (s2,))
        for s1 in (0, 1):
            want += 0.25 * (q.expected_revenue + v.value(1, (s1, s2)))
    assert lookahead_benchmark(prior, v, table) == pytest.approx(want)


def test_revenue_bound_deterministic_base():
    """Exact revenue of the reduction clears lookahead / (alpha^2 + 4 alpha d + 1)."""
    cases = [
        gen.gen_two_by_two_tight(1.5),
        gen.gen_two_by_two_tight(2.0),
        gen.gen_random_separable(2, 1, 2.0, seed=31),
        gen.gen_random_separable(3, 1, 1.5, seed=32),
        gen.gen_random_separable(3, 1, 3.0, seed=34),
    ]
    for v in cases:
        d = compute_d(v)
        assert d <= 1 + 1e-9
        prior = uniform_product_prior(v.space)
        fam = HighIfPossibleFamily(v)
        alpha = family_worst_ratio(fam, v)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=alpha, d=d)
        got, _ = expected_revenue(mech)
        look = lookahead_benchmark_family(prior, v, fam)
        bound = alpha**2 + 4 * alpha * d + 1
        assert got >= look / bound * (1 - REL), v.name


def test_revenue_bound_at_guarantee_parameters():
    """Running the reduction with alpha = c clears lookahead / (c^2 + 4c + 1)."""
    for c_req in (1.5, 2.0):
        v = gen.gen_two_by_two_tight(c_req)
        c = compute_c(v)
        prior = uniform_product_prior(v.space)
        fam = HighIfPossibleFamily(v, c=c)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=c, d=1.0)
        got, _ = expected_revenue(mech)
        look = lookahead_benchmark_family(prior, v, fam)
        assert got >= look / (c * c + 4 * c + 1) * (1 - REL)


def test_revenue_bound_randomized_base():
    for v in (gen.gen_two_by_two_tight(2.0), gen.gen_random_separable(3, 1, 1.5, seed=33)):
        c = compute_c(v)
        prior = uniform_product_prior(v.space)
        fam = HypergridFamily(v)
        mech = ReserveBackedMechanism(
            v=v, prior=prior, family=fam, alpha=2 * c, d=1.0, p=0.5
        )
        got, _ = expected_revenue(mech)
        look = lookahead_benchmark_family(prior, v, fam)
        bound = 4 * c * c + 32 * c + 1
        assert got >= look / bound * (1 - REL), v.name


def test_family_worst_ratio_covers_submarkets():
    v = gen.gen_rand_c_lb(3, 2.0)
    fam = HighIfPossibleFamily(v)
    alpha = family_worst_ratio(fam, v)
    c = compute_c(v)
    assert 1.0 <= alpha <= c * (1 + REL)


def test_family_worst_ratio_needs_a_deterministic_family():
    v = gen.gen_rand_c_lb(3, 2.0)
    with pytest.raises(ValidationError, match="deterministic"):
        family_worst_ratio(HypergridFamily(v), v)
    assert family_worst_ratio(HypergridFamily(v, pi=(0, 1, 2)), v) >= 1.0


def test_high_if_possible_family_equals_restricted_reference(finite_c_corpus):
    """Each sub-market rule is high-if-possible on the evaluator-backed restriction."""
    cases = [(name, v, c) for name, v, c, _ in finite_c_corpus if set(v.space.sizes) == {1}]
    for n in (4, 5):
        v = gen.gen_random_separable(n, 1, 2.0, seed=3)
        cases.append((f"separable_n{n}_k1", v, compute_c(v)))
    for name, v, c in cases:
        family = HighIfPossibleFamily(v, c=c)
        for mask in range(1, 2**v.n):
            keep = tuple(b for b in range(v.n) if mask >> b & 1)
            rule = family.realizations(keep)[0][1]
            for s in v.space.profiles():
                table = high_if_possible(restrict_bidders(v, keep, s), c=c)
                w = table(tuple(s[b] for b in keep))
                assert rule(s) == (None if w is None else keep[w]), (name, keep, s)


def test_high_if_possible_family_evaluates_only_the_slices_it_reads():
    dense = gen.gen_random_separable(5, 1, 2.0, seed=3)
    rows = []

    def batch_evaluate(profiles):
        rows.append(len(profiles))
        return dense.values_at_batch(profiles)

    v = ValuationInstance(space=dense.space, batch_evaluate=batch_evaluate)
    family = HighIfPossibleFamily(v, c=compute_c(dense))
    rule = family.realizations((0, 2, 3))[0][1]
    rule((1, 0, 1, 1, 0))
    rule((0, 0, 1, 0, 0))  # the same dropped bidders' signals: the slice is kept
    assert rows == [8] and "tabulated" not in v._reports
    rule((0, 1, 1, 1, 0))
    assert rows == [8, 8]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_high_if_possible_family_refuses_bad_evaluator_values(bad):
    """An evaluator's values reach a slice's table unchecked by ``values_at_batch``;
    the family refuses them as a sub-instance built from them would."""
    dense = gen.gen_random_separable(3, 1, 2.0, seed=32)

    def batch_evaluate(profiles):
        out = dense.values_at_batch(profiles).copy()
        out[:, 0] = bad
        return out

    v = ValuationInstance(space=dense.space, batch_evaluate=batch_evaluate)
    rule = HighIfPossibleFamily(v, c=2.0).realizations((0, 1))[0][1]
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        rule((0, 0, 1))


def test_family_worst_ratio_equals_literal_loop(finite_c_corpus):
    """The array pass per sub-market equals the profile-by-subset loop exactly."""
    for name, v, c, _ in finite_c_corpus:
        makers = [lambda: HypergridFamily(v, pi=tuple(reversed(range(v.n))), c=c)]
        if set(v.space.sizes) == {1}:
            makers.append(lambda: HighIfPossibleFamily(v, c=c))
        for make in makers:
            assert family_worst_ratio(make(), v) == reference.family_worst_ratio(make(), v), name


@pytest.mark.parametrize("make", [HypergridFamily, HighIfPossibleFamily])
def test_families_check_the_crossing_constant_at_construction(make):
    v = gen.gen_rand_impossibility(3)  # two signals, infinite c
    assert math.isinf(compute_c(v))
    with pytest.raises(IncompatibleMechanism):
        make(v)
    w = gen.gen_two_by_two_tight(2.0)
    with pytest.raises(IncompatibleMechanism):
        make(w, c=math.inf)
    with pytest.raises(ValidationError) as e:
        make(w, c=0.5)
    assert not isinstance(e.value, IncompatibleMechanism)


def test_posted_truthfulness_of_branch_a():
    """Misreports by the branch-(a) winner keeping her the winner leave the offer unchanged."""
    v = gen.gen_two_by_two_tight(2.0)
    prior = uniform_product_prior(v.space)
    fam = HighIfPossibleFamily(v)
    rule = fam.realizations((0, 1))[0][1]
    for s in v.space.profiles():
        i = rule(s)
        ctx = tuple(x for b, x in enumerate(s) if b != i)
        quote = winning_reserve(prior, v, rule, i, ctx)
        for b in range(v.space.sizes[i] + 1):
            misreport = list(s)
            misreport[i] = b
            if rule(tuple(misreport)) == i:
                q2 = winning_reserve(prior, v, rule, i, ctx)
                assert q2.price == quote.price


# ---------------------------------------------------------------------------
# Per-line caches: the cached sums equal the uncached per-profile loops.
# ---------------------------------------------------------------------------


def _ref_lookahead(prior, v, rule):
    """Per-profile lookahead: one fresh reference reserve quote at every profile."""
    total = 0.0
    for s, ps in prior_support(prior):
        vals = v.values_at(s)
        w = rule(s)
        if w is None:
            runner = float(vals.max())
            reserve_rev = 0.0
        else:
            runner = max((float(vals[j]) for j in range(v.n) if j != w), default=0.0)
            ctx = tuple(x for b, x in enumerate(s) if b != w)
            try:
                reserve_rev = reference.winning_reserve(prior, v, rule, w, ctx).expected_revenue
            except UndefinedReserve:
                reserve_rev = 0.0
        total += ps * (reserve_rev + runner)
    return total


def _ref_payment_revenue(rule, v, prior):
    total = 0.0
    for s, ps in prior_support(prior):
        total += ps * outcome(rule, v, s).payment
    return total


def _ref_realizations(v, kind, c, keep):
    """Fresh, uncached sub-market rules: ``kind`` is "high", "random", a fixed
    ordering, or a family object whose rules are read as they are."""
    if isinstance(kind, RuleFamily):
        return kind.realizations(keep)
    if kind == "high":
        def rule(profile):
            table = high_if_possible(restrict_bidders(v, keep, profile), c=c)
            w = table(tuple(profile[b] for b in keep))
            return None if w is None else keep[w]

        return [(1.0, rule)]
    if kind == "random":
        orders = list(permutations(keep))
    else:
        orders = [tuple(b for b in kind if b in keep)]
    return [
        (1.0 / len(orders), lambda p, o=o: reference.lazy_winner(v, o, p, c=c)) for o in orders
    ]


def _ref_events(mech, kind, c, s):
    """Every branch's event at one profile in the mechanism's order, by the line-by-line
    twin ``reference.profile_events`` on fresh rules of ``kind``."""
    return reference.profile_events(mech, s, lambda keep: _ref_realizations(mech.v, kind, c, keep))


def _ref_exact_revenue(mech, kind, c):
    """Exact revenue summed event by event in the mechanism's order, quoting afresh."""
    total = 0.0
    for s, ps in prior_support(mech.prior):
        for event in _ref_events(mech, kind, c, s):
            total += ps * event.prob * event.revenue
    return total


def _random_product_prior(space, seed):
    rng = np.random.default_rng(seed)
    marginals = []
    for k in space.sizes:
        w = rng.uniform(0.05, 1.0, size=k + 1)
        marginals.append(w / w.sum())
    return JointPrior(space=space, marginals=tuple(marginals))


def _random_sparse_prior(space, seed, count):
    rng = np.random.default_rng(seed)
    profiles = list(space.profiles())
    picked = rng.choice(len(profiles), size=min(count, len(profiles)), replace=False)
    w = rng.uniform(0.1, 1.0, size=picked.size)
    w = w / w.sum()
    return JointPrior(space=space, atoms={profiles[j]: float(p) for j, p in zip(picked, w)})


def _priors(space, seed):
    return [
        uniform_product_prior(space),
        _random_product_prior(space, seed),
        _random_sparse_prior(space, seed, max(2, space.profile_count // 2)),
    ]


def _no_bottom(rule):
    """The rule with nobody winning at the all-zero profile; still monotone."""
    return lambda p: None if not any(p) else rule(p)


@pytest.mark.parametrize("seed", range(4))
def test_cached_line_sums_equal_per_profile_loops(seed):
    v = gen.gen_random_separable(3, 2, 1.5, seed=60 + seed)
    c = compute_c(v)
    table = hypergrid_coloring(v, (2, 0, 1))
    lazy = lambda p: lazy_winner(v, (1, 2, 0), p, c=c)
    for prior in _priors(v.space, seed):
        for rule in (table, lazy, _no_bottom(lazy)):
            assert lookahead_benchmark(prior, v, rule) == _ref_lookahead(prior, v, rule)
            assert expected_payment_revenue(rule, v, prior) == _ref_payment_revenue(rule, v, prior)


def test_lookahead_undefined_reserve_line_contributes_zero():
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=61)
    prior = uniform_product_prior(v.space)
    low_wins = lambda p: 0 if p[0] == 0 else 1  # bidder 0 never wins at her top signal
    with pytest.raises(UndefinedReserve):
        winning_reserve(prior, v, low_wins, 0, (2,))
    assert lookahead_benchmark(prior, v, low_wins) == _ref_lookahead(prior, v, low_wins)


@pytest.mark.parametrize(
    "make, kind",
    [
        (lambda s: gen.gen_random_separable(3, 1, 2.0, seed=s), "high"),
        (lambda s: gen.gen_random_separable(3, 2, 1.5, seed=s), "random"),
        (lambda s: gen.gen_random_separable(3, 2, 1.5, seed=s), (2, 0, 1)),
        pytest.param(lambda s: gen.gen_random_separable(4, 1, 2.0, seed=s), "random", id="n4"),
    ],
)
@pytest.mark.parametrize("seed", (70, 71))
def test_cached_exact_revenue_equals_per_event_loop(make, kind, seed):
    v = make(seed)
    c, d = compute_c(v), compute_d(v)
    for prior in _priors(v.space, seed):
        if kind == "high":
            fam = HighIfPossibleFamily(v, c=c)
        else:
            fam = HypergridFamily(v, pi=None if kind == "random" else kind, c=c)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=2 * c, d=d, p=0.5)
        got, se = expected_revenue(mech)
        assert se == 0.0
        assert got == _ref_exact_revenue(mech, kind, c)


class _LowSignalFamily(RuleFamily):
    """Non-monotone test family: the first kept bidder wins only at her low signal."""

    def realizations(self, bidders):
        keep = tuple(bidders)
        if keep not in self._rules:
            self._rules[keep] = lambda p: keep[0] if p[keep[0]] == 0 else None
        return [(1.0, self._rules[keep])]


def test_cached_mechanism_skips_undefined_reserves_and_empty_wins():
    v = gen.gen_random_separable(2, 2, 1.5, seed=72)
    prior = _random_product_prior(v.space, 72)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=_LowSignalFamily(v), alpha=2.0, d=1.0)
    events = mech.profile_events((0, 1))
    assert all(e.revenue == 0.0 and e.buyer is None for e in events)
    assert expected_revenue(mech) == (0.0, 0.0)


def _bidder_zero_wins_at(signals):
    """A non-monotone rule: bidder 0 wins iff her signal is in ``signals``, else bidder 1."""
    return lambda p: 0 if p[0] in signals else 1


class _SignalSetFamily(RuleFamily):
    """Non-monotone test family: the first kept bidder wins iff her signal is in
    ``signals``; otherwise the second kept bidder, if there is one."""

    def __init__(self, v, signals):
        super().__init__(v)
        self.signals = signals

    def realizations(self, bidders):
        keep = tuple(bidders)
        if keep not in self._rules:
            first, rest = keep[0], keep[1:]
            self._rules[keep] = lambda p: first if p[first] in self.signals else (
                rest[0] if rest else None
            )
        return [(1.0, self._rules[keep])]


@pytest.mark.parametrize("signals", [(0, 2), (0,)])
def test_non_monotone_rules_follow_the_bisection(signals):
    """On a k=2 line the bisection finds 2 for a rule winning at {0, 2} and None for
    one winning at {0}, where the first win is 0; every sum follows the bisection."""
    v = gen.gen_random_separable(2, 2, 1.5, seed=76)
    rule = _bidder_zero_wins_at(signals)
    assert critical_signal(rule, v, 0, (1,)) == (2 if signals == (0, 2) else None)
    assert critical_signal_scan(rule, v, 0, (1,)) == 0

    def payments(total, prior):
        try:
            return total(rule, v, prior)
        except AssertionError as e:  # a support winner without a critical signal
            return str(e)

    for prior in _priors(v.space, 76):
        assert lookahead_benchmark(prior, v, rule) == _ref_lookahead(prior, v, rule)
        got = payments(expected_payment_revenue, prior)
        assert got == payments(_ref_payment_revenue, prior)
        if signals == (0,) and prior.probs[0, 1] > 0:
            assert got == "winner must have a critical signal on her own line"
        mech = ReserveBackedMechanism(
            v=v, prior=prior, family=_SignalSetFamily(v, signals), alpha=2.0, d=1.0, p=0.5
        )
        got, se = expected_revenue(mech)
        assert se == 0.0
        assert got == _ref_exact_revenue(mech, _SignalSetFamily(v, signals), None)


class _LazyGridFamily(HypergridFamily):
    """The grid family with the lazy chain for its exact realizations too."""

    def realizations(self, bidders):
        orders = list(permutations(bidders))
        return [(1.0 / len(orders), self._lazy_rule(order)) for order in orders]


def _event_cases():
    """Small grids whose rules are tables, the lazy chain, high-if-possible functions
    and a non-monotone function, each with a sparse prior on half its profiles."""
    sep = gen.gen_random_separable(2, 2, 1.5, seed=90)
    two = gen.gen_random_separable(3, 1, 2.0, seed=91)
    families = {
        "table": (sep, HypergridFamily(sep)),
        "lazy": (sep, _LazyGridFamily(sep)),
        "high": (two, HighIfPossibleFamily(two)),
        "non-monotone": (sep, _SignalSetFamily(sep, (0, 2))),
    }
    for name, (v, family) in families.items():
        prior = _random_sparse_prior(v.space, 90, v.space.profile_count // 2)
        mech = ReserveBackedMechanism(v, prior, family, alpha=2.0, d=1.0, p=0.5)
        yield pytest.param(mech, id=name)


@pytest.mark.parametrize("mech", _event_cases())
def test_events_equal_the_line_by_line_twin(mech):
    """At every profile of the grid, on the prior's support and off it, the pass gives
    the twin's events field by field, and each seeded draw the twin's draw."""
    off, branches = 0, set()
    for s in mech.v.space.profiles():
        off += mech.prior.probs[s] == 0.0
        assert mech.profile_events(s) == reference.profile_events(mech, s)
        for seed in range(8):
            event = mech.sample_event(s, random.Random(seed))
            assert event == reference.sample_event(mech, s, random.Random(seed))
            branches.add((event.branch, event.buyer is None))
    assert 0 < off < mech.v.space.profile_count
    assert {branch for branch, _ in branches} == {"full", "subset"}
    assert {unsold for _, unsold in branches} == {True, False}


def test_winning_reserve_keeps_both_refusals():
    """A bidder who never wins on her line, and a line with no probability at or above
    her critical signal, raise ``UndefinedReserve`` with the one-line quote's messages."""
    v = gen.gen_random_separable(2, 2, 1.5, seed=92)
    prior = JointPrior(space=v.space, atoms={(0, 1): 0.5, (2, 2): 0.5})
    cases = [
        (lambda p: 1, "bidder 0 never wins on line (1,)"),
        (always_first, "conditioning event has zero probability"),  # line (., 0) has no mass
    ]
    for (rule, said), ctx in zip(cases, [(1,), (0,)]):
        for quote in (winning_reserve, reference.winning_reserve):
            with pytest.raises(UndefinedReserve, match=f"^{re.escape(said)}$"):
                quote(prior, v, rule, 0, ctx)
    assert winning_reserve(prior, v, always_first, 0, (2,)) == reference.winning_reserve(
        prior, v, always_first, 0, (2,)
    )


class _HighestSignalFamily(RuleFamily):
    """A monotone family that reads no values: the kept bidder with the highest
    signal wins, ties going to the lower index."""

    def realizations(self, bidders):
        keep = tuple(bidders)
        if keep not in self._rules:
            self._rules[keep] = lambda p: max(keep, key=lambda b: (p[b], -b))
        return [(1.0, self._rules[keep])]


def test_exact_paths_read_only_the_lines_through_a_sparse_support(monkeypatch):
    """Under a sparse prior the exact paths evaluate values and rules only on the
    support's lines, so a grid too large to tabulate still gets every exact sum."""
    dense = gen.gen_random_separable(3, 20, 1.5, seed=77)
    evaluated = []

    def batch_evaluate(P):
        evaluated.extend(map(tuple, P.tolist()))
        return dense.values_at_batch(P)

    v = ValuationInstance(space=dense.space, batch_evaluate=batch_evaluate)
    monkeypatch.setattr(model_module, "DEFAULT_PROFILE_CAP", 1000)
    with pytest.raises(CapExceeded):
        v.tabulated()  # 9,261 profiles
    prior = _random_sparse_prior(v.space, 77, 4)
    on_lines = {
        s[:i] + (t,) + s[i + 1 :] for s, _ in prior_support(prior) for i in range(3) for t in range(21)
    }
    family = _HighestSignalFamily(v)
    [(_, rule)] = family.realizations((0, 1, 2))
    called = []
    counted = lambda p: called.append(p) or rule(p)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=2.0, d=1.0, p=0.5)
    look = lookahead_benchmark(prior, v, counted)
    paid = expected_payment_revenue(counted, v, prior)
    got, se = expected_revenue(mech)
    assert 0 < len(set(evaluated)) <= len(on_lines) < 300
    assert set(evaluated) <= on_lines
    # the function rule is probed only along each support profile's winner's line
    winner_lines = {
        s[:w] + (t,) + s[w + 1 :] for s, _ in prior_support(prior) for w in [rule(s)] for t in range(21)
    }
    assert set(called) <= winner_lines < on_lines
    assert look == _ref_lookahead(prior, v, rule)
    assert paid == _ref_payment_revenue(rule, v, prior)
    assert se == 0.0 and got == _ref_exact_revenue(mech, _HighestSignalFamily(v), None)
    # every profile, on the support or off it, gives the line-by-line twin's events
    off = [(0, 0, 0), (20, 3, 11)]
    assert all(prior.probs[s] == 0.0 for s in off)
    for s in [s for s, _ in prior_support(prior)] + off:
        assert mech.profile_events(s) == _ref_events(mech, _HighestSignalFamily(v), None, s)


def test_chunks_of_rules_and_quotes_change_no_float(monkeypatch):
    """With room for two rules, a few quote rows and two support profiles' branches
    per chunk, and then for one of each, every sum is unchanged, sampled revenue too."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=78)
    c, d = compute_c(v), compute_d(v)
    prior = _random_product_prior(v.space, 78)

    def sums():
        fam = HypergridFamily(v, c=c)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=2 * c, d=d, p=0.5)
        table = hypergrid_coloring(v, (1, 2, 0))
        return (
            expected_revenue(mech),
            lookahead_benchmark_family(prior, v, fam),
            expected_payment_revenue(table, v, prior),
            expected_revenue(mech, cap=1, samples=300, seed=5),
        )

    whole = sums()
    fam = HypergridFamily(v, c=c)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=2 * c, d=d, p=0.5)
    branches = len(mech._heads)
    for cells in (2 * v.space.profile_count, 1):
        monkeypatch.setattr(revenue_module, "_CHUNK_CELLS", cells)
        assert max(1, cells // branches) <= 2 < v.space.profile_count  # the sum spans chunks
        assert sums() == whole
    assert whole[0] == (_ref_exact_revenue(mech, "random", c), 0.0)


class _CountedReads(np.ndarray):
    """A win matrix that counts how often it is indexed."""

    reads = 0

    def __getitem__(self, key):
        type(self).reads += 1
        return np.asarray(super().__getitem__(key))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 20, 64])
def test_critical_signals_make_one_gather_per_probe(k):
    """The stacked bisection reads the win matrix ceil(log2(k+1)) + 1 times, the bound
    the benchmark's tracer checks on ``critical_signal``, and agrees with it per row."""
    rng = np.random.default_rng(k)
    wins = rng.uniform(size=(40, k + 1)) < 0.5  # non-monotone rows
    wins[:20] = np.arange(k + 1) >= rng.integers(0, k + 2, size=(20, 1))  # monotone rows
    _CountedReads.reads = 0
    counted = wins.view(_CountedReads)
    got = revenue_module._critical_signals(lambda rows, signals: counted[rows, signals], k)
    assert _CountedReads.reads == k.bit_length() + 1 == math.ceil(math.log2(k + 1)) + 1
    v = ValuationInstance(space=SignalSpace((k, 1)), values=np.zeros((2, k + 1, 2)))
    for row, b in zip(wins, got.tolist()):
        want = critical_signal(lambda p, row=row: 0 if row[p[0]] else 1, v, 0, (0,))
        assert b == (-1 if want is None else want)


def _count_calls(monkeypatch, name):
    """Wrap ``revenue.<name>`` and record every call's arguments."""
    calls = []
    orig = getattr(revenue_module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(revenue_module, name, wrapped)
    return calls


def _count_quote_rows(monkeypatch):
    """Record every row the batched quote routine prices: (values, probs, start)."""
    rows = []
    orig = revenue_module._monopoly_quotes

    def wrapped(values, probs, start):
        rows.extend(
            (tuple(values[r].tolist()), tuple(probs[r].tolist()), int(start[r]))
            for r in range(len(start))
        )
        return orig(values, probs, start)

    monkeypatch.setattr(revenue_module, "_monopoly_quotes", wrapped)
    return rows


def _count_scalar_calls(monkeypatch):
    """Record calls of the one-line quote and payment functions wherever revenue can reach them."""
    calls = []
    for module in (revenue_module, mechanisms_module):
        for name in ("winning_reserve", "outcome", "critical_signal"):
            if hasattr(module, name):
                orig = getattr(module, name)
                wrapped = lambda *a, _orig=orig, _name=name: calls.append(_name) or _orig(*a)
                monkeypatch.setattr(module, name, wrapped)
    return calls


def _expected_rows(prior, v, keys):
    """The quote row of each (rule, bidder, line) key whose bidder has a critical signal."""
    rows = collections.Counter()
    for rule, i, ctx in keys:
        b = critical_signal(rule, v, i, ctx)
        if b is not None:
            line = [v.value(i, ctx[:i] + (t,) + ctx[i:]) for t in range(v.space.sizes[i] + 1)]
            rows[(tuple(line), tuple(prior.probs[ctx[:i] + (slice(None),) + ctx[i:]].tolist()), b)] += 1
    return rows


def test_one_reserve_quote_per_line_in_lookahead(monkeypatch):
    """Each line the support reaches is quoted once per call, with no one-line quote."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=73)
    prior = _random_sparse_prior(v.space, 73, 12)
    table = hypergrid_coloring(v, (0, 1, 2))
    keys = set()
    for s, _ in prior_support(prior):
        w = table(s)
        keys.add((table, w, tuple(x for b, x in enumerate(s) if b != w)))
    want = _expected_rows(prior, v, keys)
    rows = _count_quote_rows(monkeypatch)
    calls = _count_scalar_calls(monkeypatch)
    lookahead_benchmark(prior, v, table)
    assert collections.Counter(rows) == want
    assert len(rows) == len(keys) < sum(1 for _ in prior_support(prior))
    assert calls == []
    rows.clear()
    lookahead_benchmark(prior, v, table)  # a second call quotes afresh
    assert collections.Counter(rows) == want


@pytest.mark.parametrize("pi", (None, (1, 0, 2)))
def test_one_reserve_quote_per_rule_and_line_in_exact_revenue(monkeypatch, pi):
    """Exact revenue quotes each (rule, bidder, line) once, all in the stacked pass."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=74)
    prior = uniform_product_prior(v.space)
    fam = HypergridFamily(v, pi=pi)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=3.0, d=1.0, p=0.5)
    keys = set()
    subsets = [tuple(b for b in range(3) if mask >> b & 1) for mask in range(1, 8)]
    for s, _ in prior_support(prior):
        for keep in subsets:
            for _, rule in fam.realizations(keep):
                i = rule(s)
                if i is not None:
                    keys.add((rule, i, tuple(x for b, x in enumerate(s) if b != i)))
    want = _expected_rows(prior, v, keys)
    rows = _count_quote_rows(monkeypatch)
    calls = _count_scalar_calls(monkeypatch)
    expected_revenue(mech)
    assert collections.Counter(rows) == want
    assert calls == []


@pytest.mark.parametrize("pi", (None, (1, 0, 2)))
def test_sampled_revenue_quotes_once_per_rule_and_line(monkeypatch, pi):
    """A Monte Carlo run of one chunk writes one quote row per drawn (rule, winner,
    line), all in the stacked pass: no one-line quote and no one-line bisection."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=74)
    prior = uniform_product_prior(v.space)
    fam = HypergridFamily(v, pi=pi)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=3.0, d=1.0, p=0.5)
    assert 2000 <= oracle_module.MC_CHUNK  # one chunk, so one pass
    draws = list(reference.sampled_draws(mech, 2000, 9))
    keys = {(rule, i, s[:i] + s[i + 1 :]) for s, rule, _ in draws if rule for i in [rule(s)]}
    want = _expected_rows(prior, v, keys)
    rows = _count_quote_rows(monkeypatch)
    calls = _count_scalar_calls(monkeypatch)
    got = expected_revenue(mech, cap=1, samples=2000, seed=9)
    assert collections.Counter(rows) == want and len(rows) == len(keys) > 0
    assert calls == []
    assert got == model_module.mean_and_stderr(event.revenue for *_, event in draws)


def test_sampled_chunk_is_one_pass_however_many_points_its_lines_cover(monkeypatch):
    """A chunk of draws' function rules is sized by its pairs, not by its lines' points:
    with fewer cells than points, the draws still share one bisection per bidder."""
    v = gen.gen_random_separable(3, 4, 1.5, seed=76)
    prior = uniform_product_prior(v.space)
    fam = HypergridFamily(v)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=3.0, d=1.0, p=0.5)
    whole = expected_revenue(mech, cap=1, samples=40, seed=3)
    monkeypatch.setattr(revenue_module, "_CHUNK_CELLS", 41)  # room for the 40 pairs alone
    built, searched = [], []
    lines, bisect = revenue_module._SupportLines, revenue_module._critical_signals

    def build(*args):
        built.append(lines(*args))
        return built[-1]

    def bisect_lines(won_at, k):
        searched.append(k)
        return bisect(won_at, k)

    monkeypatch.setattr(revenue_module, "_SupportLines", build)
    monkeypatch.setattr(revenue_module, "_critical_signals", bisect_lines)
    assert expected_revenue(mech, cap=1, samples=40, seed=3) == whole
    assert len(built) == 1 and built[0].near.size > 41
    assert 0 < len(searched) <= v.n


def test_one_payment_per_line(monkeypatch):
    """Payments settle each reached line's critical signal once, with no per-profile outcome."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=75)
    prior = uniform_product_prior(v.space)
    table = hypergrid_coloring(v, (2, 1, 0))
    lines = {
        (w, tuple(x for b, x in enumerate(s) if b != w))
        for s in v.space.profiles()
        for w in [table(s)]
    }
    searched = []
    orig = revenue_module._critical_signals

    def bisect_lines(won_at, k):
        crit = orig(won_at, k)
        searched.append(len(crit))
        return crit

    monkeypatch.setattr(revenue_module, "_critical_signals", bisect_lines)
    rows = _count_quote_rows(monkeypatch)
    calls = _count_scalar_calls(monkeypatch)
    expected_payment_revenue(table, v, prior)
    assert sum(searched) == len(lines) < v.space.profile_count
    assert rows == [] and calls == []


def test_high_if_possible_tables_built_once_per_submarket(monkeypatch):
    """One table per (subset, dropped bidders' signals); revenue as before the cache."""
    v = gen.gen_random_separable(3, 1, 2.0, seed=41)
    prior = uniform_product_prior(v.space)
    mech = ReserveBackedMechanism(
        v=v, prior=prior, family=HighIfPossibleFamily(v), alpha=2.0, d=compute_d(v)
    )
    calls = _count_calls(monkeypatch, "_high_if_possible_winners")
    got = expected_revenue(mech)
    # subsets of size m leave 3 - m two-signal bidders to fix: 1 + 3*2 + 3*4 keys
    assert len(calls) <= 19
    assert got == (1.345673914709564, 0.0)  # the uncached value (192 tables)
    assert mech.family.realizations((0, 2))[0][1] is mech.family.realizations((0, 2))[0][1]


def test_monte_carlo_revenue_stream_is_pinned():
    """Settling the draws a chunk at a time leaves the seeded sample stream bit-identical."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=43)
    prior = JointPrior(
        space=v.space,
        marginals=(
            np.array([0.2, 0.3, 0.5]),
            np.array([0.5, 0.25, 0.25]),
            np.array([0.1, 0.6, 0.3]),
        ),
    )
    mech = ReserveBackedMechanism(
        v=v, prior=prior, family=HypergridFamily(v), alpha=2 * compute_c(v), d=compute_d(v), p=0.5
    )
    assert expected_revenue(mech, cap=1, samples=3000, seed=17) == (
        1.4391006534476336,
        0.01509536009593692,
    )


@pytest.mark.parametrize("pi", [None, (2, 0, 1)])
def test_sampled_grid_revenue_builds_no_tables(monkeypatch, pi):
    """A Monte Carlo draw reads one profile's lines, so the sampled path keeps one
    lazy rule per drawn ordering and no grid table; the exact path keeps tables."""
    v = gen.gen_random_separable(3, 2, 1.5, seed=43)
    prior = uniform_product_prior(v.space)
    c, d = compute_c(v), compute_d(v)
    family = HypergridFamily(v, pi=pi, c=c)
    mech = ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=2 * c, d=d, p=0.5)
    calls = _count_calls(monkeypatch, "_grid_tables")
    sampled, se = expected_revenue(mech, cap=1, samples=500, seed=5)
    assert not calls and se > 0
    orderings = sum(math.perm(3, m) for m in range(1, 4)) if pi is None else 2**3 - 1
    assert 0 < len(family._rules) <= orderings
    assert not any(table for _, table in family._rules)
    exact_family = HypergridFamily(v, pi=pi, c=c)
    exact = ReserveBackedMechanism(v=v, prior=prior, family=exact_family, alpha=2 * c, d=d, p=0.5)
    assert expected_revenue(exact)[1] == 0.0
    assert 0 < sum(len(orders) for _, orders, _ in calls) == len(exact_family._rules) <= orderings
    assert all(table for _, table in exact_family._rules)


# ---------------------------------------------------------------------------
# Tables, priors and families meet an instance on its own grid only.
# ---------------------------------------------------------------------------


def _two_grids():
    """Two bidders on k = 1 and on k = 3: instances, uniform priors, a table on each."""
    v1, v3 = (gen.gen_random_separable(2, k, 1.5, seed=1) for k in (1, 3))
    return (
        (v1, uniform_product_prior(v1.space), hypergrid_coloring(v1, (1, 0))),
        (v3, uniform_product_prior(v3.space), hypergrid_coloring(v3, (1, 0))),
    )


TABLE_ENTRY_POINTS = {
    "critical_signal": lambda t, v, prior: critical_signal(t, v, 1, (1,)),
    "critical_signal_scan": lambda t, v, prior: critical_signal_scan(t, v, 1, (1,)),
    "outcome": lambda t, v, prior: outcome(t, v, (1, 1)),
    "as_table": lambda t, v, prior: as_table(t, v),
    "welfare_ratio": lambda t, v, prior: welfare_ratio(t, v),
    "check_expost_truthful": lambda t, v, prior: check_expost_truthful(t, v),
    "winning_reserve": lambda t, v, prior: winning_reserve(prior, v, t, 1, (1,)),
    "lookahead_benchmark": lambda t, v, prior: lookahead_benchmark(prior, v, t),
    "expected_payment_revenue": lambda t, v, prior: expected_payment_revenue(t, v, prior),
}


@pytest.mark.parametrize("entry", sorted(TABLE_ENTRY_POINTS))
def test_a_table_on_another_grid_is_refused(entry):
    (v1, prior1, t1), (_, _, t3) = _two_grids()
    call = TABLE_ENTRY_POINTS[entry]
    call(t1, v1, prior1)  # the table of v1's own grid is read
    with pytest.raises(ValidationError, match="grid"):
        call(t3, v1, prior1)


def _mechanism(v, prior, family):
    return ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=2.0, d=1.0, p=0.5)


#: Each call gets a prior or family of the k = 3 grid (``prior``, ``fam``)
#: beside the k = 1 instance ``v`` with its own prior ``own`` and table ``t``.
OFF_GRID_CALLS = {
    "mechanism_family": lambda v, own, t, prior, fam: _mechanism(v, own, fam),
    "mechanism_prior": lambda v, own, t, prior, fam: _mechanism(v, prior, HypergridFamily(v)),
    "lookahead_family": lambda v, own, t, prior, fam: lookahead_benchmark_family(own, v, fam),
    "lookahead_family_prior": lambda v, own, t, prior, fam: lookahead_benchmark_family(
        prior, v, HypergridFamily(v)
    ),
    "family_worst_ratio": lambda v, own, t, prior, fam: family_worst_ratio(fam, v),
    "winning_reserve": lambda v, own, t, prior, fam: winning_reserve(prior, v, t, 1, (1,)),
    "lookahead_benchmark": lambda v, own, t, prior, fam: lookahead_benchmark(prior, v, t),
    "payment_revenue": lambda v, own, t, prior, fam: expected_payment_revenue(t, v, prior),
}


@pytest.mark.parametrize("call", sorted(OFF_GRID_CALLS))
def test_priors_and_families_on_another_grid_are_refused(call):
    (v1, prior1, t1), (v3, prior3, _) = _two_grids()
    with pytest.raises(ValidationError, match="grid"):
        OFF_GRID_CALLS[call](v1, prior1, t1, prior3, HypergridFamily(v3, pi=(1, 0)))


@pytest.mark.parametrize("pi", [(1.9, 0.2, "2"), (1.0, 0, 2)])
def test_family_orderings_name_integer_bidders(pi):
    v = gen.gen_random_separable(3, 1, 1.5, seed=1)
    with pytest.raises(ValidationError):
        HypergridFamily(v, pi=pi)


class _NonBidderFamily(RuleFamily):
    """A family whose every rule names a winner that is not a bidder."""

    def __init__(self, v, winner):
        super().__init__(v)
        self.winner = winner

    def realizations(self, bidders):
        if "rule" not in self._rules:
            self._rules["rule"] = lambda p: self.winner
        return [(1.0, self._rules["rule"])]


@pytest.mark.parametrize("winner", [-2, -3, 3, 7])
def test_a_rule_naming_a_non_bidder_is_refused_by_every_reader(winner):
    """The exact pass and ``as_table`` read a function rule through one reader,
    which refuses a winner that no table could hold, as ``profile_events`` does."""
    v = gen.gen_random_separable(3, 1, 2.0, seed=3)
    prior = uniform_product_prior(v.space)
    rule = lambda p: winner  # noqa: E731
    mech = ReserveBackedMechanism(v, prior, _NonBidderFamily(v, winner), alpha=2.0, d=2.0)
    calls = [
        lambda: lookahead_benchmark(prior, v, rule),
        lambda: expected_payment_revenue(rule, v, prior),
        lambda: expected_revenue(mech),
        lambda: as_table(rule, v),
        lambda: mech.profile_events((1, 1, 1)),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_sample_counts_are_integers():
    """``samples`` is read as a signal is: an integer type, and at least 1."""
    v = gen.gen_random_separable(3, 1, 2.0, seed=3)
    mech = ReserveBackedMechanism(v, uniform_product_prior(v.space), HypergridFamily(v), 2.0, 2.0)
    for samples in (2.5, "3", None, 0, -1):
        with pytest.raises(ValidationError):
            expected_revenue(mech, cap=1, samples=samples)
        with pytest.raises(ValidationError):
            monte_carlo_random_hypergrid(v, (1, 1, 1), samples=samples, seed=1)
    assert expected_revenue(mech, cap=1, samples=np.int64(3), seed=1) == expected_revenue(
        mech, cap=1, samples=3, seed=1
    )
    assert monte_carlo_random_hypergrid(v, (1, 1, 1), samples=True, seed=1)[1] == 0.0
