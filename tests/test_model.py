"""Model layer: signal grids, structural constants, and their exactness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivauctions import (
    INFINITE,
    CapExceeded,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    check_value_monotone,
    compute_c,
    compute_d,
    instance_from_json,
    instance_to_json,
    single_crossing_report,
)
from ivauctions import instances as gen

from reference import (
    alpha_approximates,
    discrete_derivative,
    intermediate_profile,
    restrict_bidders,
    spot_check_value_monotone,
)

REL = 1e-9


# ---------------------------------------------------------------------------
# Signal spaces and the row-major wire contract.
# ---------------------------------------------------------------------------


def test_space_validation():
    with pytest.raises(ValidationError):
        SignalSpace(())
    with pytest.raises(ValidationError):
        SignalSpace((0, 2))
    with pytest.raises(ValidationError):
        SignalSpace((100, 100, 100, 100), profile_cap=10_000)
    sp = SignalSpace((2, 1))
    assert sp.n == 2 and sp.profile_count == 6
    with pytest.raises(ValidationError):
        sp.validate_profile((3, 0))
    with pytest.raises(ValidationError):
        sp.validate_profile((1,))


def test_row_major_index_contract():
    sp = SignalSpace((2, 1, 3))
    shape = sp.shape
    for idx, p in enumerate(sp.profiles()):
        manual = 0
        for i, s in enumerate(p):
            stride = 1
            for j in range(i + 1, len(shape)):
                stride *= shape[j]
            manual += s * stride
        assert manual == idx == np.ravel_multi_index(p, sp.shape)


def test_json_roundtrip_row_major():
    v = gen.gen_three_bidder_no_c()
    obj = instance_to_json(v)
    # spot-check the flat layout against the index formula
    sp = v.space
    assert obj["values"][1][np.ravel_multi_index((2, 0, 0), sp.shape)] == pytest.approx(0.007436)
    back = instance_from_json(obj)
    assert np.array_equal(back.values, v.values)


def test_json_null_name_loads_as_empty():
    obj = {"sizes": [1], "values": [[0.0, 1.0]], "name": None}
    assert instance_from_json(obj).name == ""
    assert instance_from_json({**obj, "name": "x"}).name == "x"


def test_json_validation_errors():
    with pytest.raises(ValidationError):
        instance_from_json({"sizes": [1, 1]})
    with pytest.raises(ValidationError):
        instance_from_json({"sizes": [1], "values": [[0.0, 1.0], [0.0, 1.0]]})
    with pytest.raises(ValidationError):
        instance_from_json({"sizes": [1], "values": [[0.0, 1.0, 2.0]]})
    with pytest.raises(ValidationError):
        instance_from_json({"sizes": [1], "values": [[0.0, -1.0]]})


def test_instance_rejects_nonfinite_and_negative():
    sp = SignalSpace((1,))
    with pytest.raises(ValidationError):
        ValuationInstance(space=sp, values=np.array([[0.0, math.nan]]))
    with pytest.raises(ValidationError):
        ValuationInstance(space=sp, values=np.array([[0.0, -0.5]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_table_holding_a_non_finite_value_is_refused(bad):
    values = np.ones((2, 2, 2))
    values[1, 0, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        ValuationInstance(space=SignalSpace((1, 1)), values=values)


@pytest.mark.parametrize("past_last", [False, True], ids=["negative", "past-last"])
def test_value_refuses_a_bidder_out_of_range(past_last):
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=1)
    lb = gen.gen_random_mech_lb(4, 2.0)  # evaluator-backed
    for inst, p in ((v, (1, 2)), (lb, (1,) * 5)):
        with pytest.raises(ValidationError, match="out of range"):
            inst.value(inst.n if past_last else -1, p)


def test_value_and_values_at_read_one_batch_row():
    """Both representations answer ``value`` and ``values_at`` from one
    ``values_at_batch`` row, and ``values_at`` hands out a fresh array."""
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=1)
    lb = gen.gen_random_mech_lb(4, 2.0)
    for inst, p in ((v, (1, 2)), (lb, (1, 1, 1, 1, 0))):
        row = inst.values_at_batch(np.array([p]))[0]
        got = inst.values_at(p)
        assert got.tolist() == row.tolist() and got.flags.writeable
        assert [inst.value(i, p) for i in range(inst.n)] == row.tolist()


def test_oracle_backed_refuses_tabulation_above_cap():
    sp = SignalSpace((1,) * 30, profile_cap=2**40)
    v = ValuationInstance(  # every bidder's value is the signal sum
        space=sp, batch_evaluate=lambda P: np.repeat(P.sum(axis=1, keepdims=True), sp.n, axis=1)
    )
    assert v.value(3, (1,) * 30) == 30.0
    with pytest.raises(CapExceeded):
        v.tabulated()
    with pytest.raises(CapExceeded):
        compute_c(v)
    with pytest.raises(ValidationError):
        SignalSpace((1,) * 30, profile_cap=1000)


@pytest.mark.parametrize(
    "profile",
    [(-1, 2), (4, 2), (1, 4), (1.0, 2), (1,), (1, 2, 0)],
    ids=["negative", "above", "above-second", "float", "short", "long"],
)
def test_value_access_refuses_off_grid_profiles(profile):
    """A negative signal used to wrap round a table; every off-grid profile now raises."""
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=1)
    lb = gen.gen_random_mech_lb(4, 2.0)  # evaluator-backed
    with pytest.raises(ValidationError):
        v.value(0, profile)
    with pytest.raises(ValidationError):
        v.values_at(profile)
    with pytest.raises(ValidationError):
        lb.values_at(profile + (1,) * 3)
    with pytest.raises(ValidationError):
        lb.value(4, profile + (1,) * 3)


def test_value_access_accepts_numpy_integer_profiles():
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=1)
    p = (np.int64(1), np.int32(2))
    assert v.value(0, p) == v.value(0, (1, 2)) == float(v.values[0, 1, 2])
    assert np.array_equal(v.values_at(np.array([1, 2])), v.values[:, 1, 2])
    lb = gen.gen_random_mech_lb(4, 2.0)
    high = np.ones(5, dtype=np.int64)
    assert np.array_equal(lb.values_at(high), lb.values_at((1,) * 5))
    assert lb.value(4, high) == lb.value(4, (1,) * 5)


def test_value_access_reads_bool_signals_as_validate_profile_does():
    """``True`` is signal 1, not a NumPy mask; ``np.True_`` has no integer reading and is refused."""
    v, _, _ = gen.gen_random_tabulated(2, 3, seed=1)
    lb = gen.gen_random_mech_lb(4, 2.0)
    assert v.space.validate_profile((True, 1)) == (1, 1)
    assert np.array_equal(v.values_at((True, 1)), v.values[:, 1, 1])
    assert np.array_equal(v.values_at((False, True)), v.values[:, 0, 1])
    assert v.value(0, (True, 1)) == v.value(0, (1, 1))
    assert np.array_equal(lb.values_at((True,) * 5), lb.values_at((1,) * 5))
    assert lb.value(4, (True,) * 5) == lb.value(4, (1,) * 5)
    for inst, p in ((v, (np.True_, 1)), (lb, (np.True_,) + (1,) * 4)):
        with pytest.raises(ValidationError):
            inst.space.validate_profile(p)
        with pytest.raises(ValidationError):
            inst.values_at(p)
        with pytest.raises(ValidationError):
            inst.value(0, p)


@pytest.mark.parametrize("sizes", [(1,), (4,), (1, 1), (2, 3), (3, 1, 2), (1,) * 6, (70, 70)])
def test_profiles_come_in_row_major_order(sizes):
    """``profiles()`` walks the grid in ``np.ndindex`` order, as tuples of ints."""
    space = SignalSpace(sizes)
    got = list(space.profiles())
    assert got == list(np.ndindex(*space.shape))
    assert [np.ravel_multi_index(p, space.shape) for p in got] == list(range(space.profile_count))
    assert all(type(s) is int for p in got for s in p)


def test_reports_share_one_tabulation_and_monotonicity_check(monkeypatch):
    """c then d on an evaluator-backed grid evaluate each profile once and check monotonicity once."""
    from ivauctions import model

    lb = gen.gen_random_mech_lb(4, 2.0)
    rows, checks = [], []

    def batch_evaluate(P):
        rows.append(len(P))
        return lb.values_at_batch(P)

    check = model._monotone_violations

    def counted_check(dense):
        checks.append(dense.shape)
        return check(dense)

    monkeypatch.setattr(model, "_monotone_violations", counted_check)
    counted = ValuationInstance(space=lb.space, batch_evaluate=batch_evaluate)
    assert compute_c(counted) == compute_c(lb)
    assert compute_d(counted) == compute_d(lb)
    assert sum(rows) == lb.space.profile_count
    assert len(checks) == 2  # one per instance: counted, then lb
    assert single_crossing_report(counted) is single_crossing_report(counted)
    assert sum(rows) == lb.space.profile_count and len(checks) == 2


def test_instance_needs_exactly_one_representation():
    sp = SignalSpace((1, 1))
    values = np.zeros((2, 2, 2))
    with pytest.raises(ValidationError):
        ValuationInstance(space=sp)
    with pytest.raises(ValidationError):
        ValuationInstance(space=sp, values=values, batch_evaluate=lambda P: np.zeros(P.shape))


def _per_profile_table(space, row_of):
    """Reference tabulation: one ``row_of(profile)`` call per profile."""
    arr = np.empty((space.n,) + space.shape)
    for p in space.profiles():
        arr[(slice(None),) + p] = row_of(p)
    return arr


def test_tabulated_evaluator_equals_per_profile_reference():
    """Chunked batched tabulation equals a per-profile loop, over more than one chunk."""
    n = 16
    lb = gen.gen_random_mech_lb(n, 2.0)
    groups = gen.rand_mech_lb_groups(n)

    def lb_row(p):
        row = [0.0] * (n + 1)
        for members in groups:
            if all(p[b] for b in members):
                for b in members:
                    row[b] = 1.0
                row[n] += 2.0
        return row

    assert lb.space.profile_count == 131_072
    assert np.array_equal(lb.tabulated().values, _per_profile_table(lb.space, lb_row))
    v, _, _ = gen.gen_random_tabulated(3, 30, seed=4)  # 29,791 profiles
    wrapped = ValuationInstance(space=v.space, batch_evaluate=v.values_at_batch)
    reference = _per_profile_table(v.space, lambda p: v.values[(slice(None),) + p])
    assert np.array_equal(wrapped.tabulated().values, reference)
    assert np.array_equal(reference, v.values)


def test_tabulated_makes_no_single_row_calls():
    v, _, _ = gen.gen_random_tabulated(3, 30, seed=4)
    sizes = []

    def batch_evaluate(P):
        sizes.append(len(P))
        return v.values_at_batch(P)

    ValuationInstance(space=v.space, batch_evaluate=batch_evaluate).tabulated()
    assert sum(sizes) == v.space.profile_count
    assert len(sizes) > 1 and min(sizes) > 1


def test_restricted_tabulation_is_the_dense_slice():
    """Every sub-market's table is v.values sliced at the dropped bidders' signals."""
    v, _, _ = gen.gen_random_tabulated(4, 2, seed=8)
    rng = np.random.default_rng(8)
    checked = 0
    for mask in range(1, 2**v.n):
        keep = [b for b in range(v.n) if mask >> b & 1]
        for _ in range(3):
            fixed = tuple(int(x) for x in rng.integers(0, 3, size=v.n))
            sub = restrict_bidders(v, keep, fixed).tabulated()
            at = tuple(slice(None) if b in keep else fixed[b] for b in range(v.n))
            assert np.array_equal(sub.values, v.values[keep][(slice(None),) + at]), (keep, fixed)
            checked += 1
    assert checked == 45


# ---------------------------------------------------------------------------
# Discrete derivative.
# ---------------------------------------------------------------------------


def test_derivative_oil_example():
    v = gen.gen_oil_sc(3)
    assert discrete_derivative(v, target=1, direction=0, s=(1, 0)) == pytest.approx(2.0)


def test_derivative_constant_direction_is_zero():
    v = gen.gen_oil_sc(3)
    # both valuations ignore the second bidder's signal
    assert discrete_derivative(v, target=0, direction=1, s=(2, 1)) == 0.0


def test_derivative_three_bidder_table():
    v = gen.gen_three_bidder_no_c()
    d = discrete_derivative(v, target=1, direction=0, s=(2, 0, 0))
    assert d == pytest.approx(0.006560, abs=1e-12)


def test_derivative_preconditions():
    v = gen.gen_oil_sc(2)
    with pytest.raises(ValidationError):
        discrete_derivative(v, target=0, direction=0, s=(0, 0))
    with pytest.raises(ValidationError):
        discrete_derivative(v, target=2, direction=0, s=(1, 0))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_derivative_telescopes(seed):
    v, _, _ = gen.gen_random_tabulated(2, 4, seed=seed)
    for j in range(2):
        for s1 in range(1, 5):
            total = sum(
                discrete_derivative(v, target=j, direction=0, s=(t, 2)) for t in range(1, s1 + 1)
            )
            assert total == pytest.approx(v.value(j, (s1, 2)) - v.value(j, (0, 2)), rel=1e-9)


# ---------------------------------------------------------------------------
# Crossing constant.
# ---------------------------------------------------------------------------


def test_compute_c_oil_sc_clamps_to_one():
    assert compute_c(gen.gen_oil_sc(4)) == 1.0
    assert single_crossing_report(gen.gen_oil_sc(4)).raw == pytest.approx(2.0 / 3.0)


def test_compute_c_oil_no_sc():
    v = gen.gen_oil_no_sc(5)
    # the box s_1 >= 1: clamp region excluded
    sub = ValuationInstance(space=SignalSpace((4, 5)), values=v.values[:, 1:])
    assert compute_c(sub) == pytest.approx(1.5, rel=REL)
    assert compute_c(v) == pytest.approx(1.5, rel=REL)


def test_compute_c_det_impossibility_infinite():
    assert compute_c(gen.gen_det_impossibility(2.0)) == INFINITE


def test_compute_c_three_bidder_is_two():
    assert compute_c(gen.gen_three_bidder_no_c()) == pytest.approx(2.0, rel=REL)


def test_compute_c_rejects_nonmonotone():
    sp = SignalSpace((1, 1))
    vals = np.array([[[7.0, 7.0], [5.0, 7.0]], [[0.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValidationError):
        compute_c(ValuationInstance(space=sp, values=vals))


def test_compute_c_exactness(finite_c_corpus):
    """Measured c satisfies every constraint; shrinking it breaks a witness."""
    for name, v, c, _ in finite_c_corpus:
        dense = v.values
        for i in range(v.n):
            diffs = np.diff(dense, axis=i + 1)
            own = diffs[i]
            for j in range(v.n):
                if j == i:
                    continue
                assert np.all(c * own >= diffs[j] - 1e-9 * np.maximum(1.0, diffs[j])), name
        report = single_crossing_report(v)
        if report.raw > 1.0:
            shrunk = c * (1.0 - 1e-6)
            violated = False
            for i in range(v.n):
                diffs = np.diff(dense, axis=i + 1)
                for j in range(v.n):
                    if j != i and np.any(shrunk * diffs[i] < diffs[j]):
                        violated = True
            assert violated, name


def test_crossing_witness_attains_supremum():
    v = gen.gen_two_by_two_tight(2.0)
    rep = single_crossing_report(v)
    i, j, s = rep.witness
    assert discrete_derivative(v, target=j, direction=i, s=s) == pytest.approx(
        rep.c * discrete_derivative(v, target=i, direction=i, s=s), rel=REL
    )


# ---------------------------------------------------------------------------
# Concavity constant.
# ---------------------------------------------------------------------------


def test_compute_d_separable_is_one():
    # equality only up to cancellation noise: stored values are sums of terms
    assert compute_d(gen.gen_random_separable(3, 3, 2.0, seed=5)) == pytest.approx(1.0, rel=REL)
    assert compute_d(gen.gen_oil_sc(4)) == 1.0


def test_compute_d_tight_hypergrid_is_one():
    assert compute_d(gen.gen_tight_hypergrid(4, 2.0)) == 1.0


def test_compute_d_rand_impossibility_infinite():
    assert compute_d(gen.gen_rand_impossibility(3)) == INFINITE


def test_compute_d_engineered_growth():
    # identical valuations f(s1+s2) with increment ratio exactly 2
    sp = SignalSpace((1, 1))
    f = {0: 1.0, 1: 2.0, 2: 4.0}  # increments 1 then 2
    vals = np.array([[[f[0], f[1]], [f[1], f[2]]]] * 2)
    v = ValuationInstance(space=sp, values=vals)
    assert compute_c(v) == 1.0
    assert compute_d(v) == pytest.approx(2.0, rel=REL)


# ---------------------------------------------------------------------------
# Approximation predicate and intermediate profiles.
# ---------------------------------------------------------------------------


def test_alpha_approximates_reflexive():
    v = gen.gen_oil_sc(2)
    assert alpha_approximates(v, 0, 0, (1, 1), 1.0)


def test_alpha_approximates_oil_no_sc():
    v = gen.gen_oil_no_sc(3)
    # at s1 = 2: v = (3, 4); 4 <= 1.5 * 3
    assert alpha_approximates(v, 0, 1, (2, 0), 1.5)


def test_alpha_approximates_det_impossibility():
    r = 3.0
    v = gen.gen_det_impossibility(r)
    assert not alpha_approximates(v, 0, 1, (1, 0), r - 0.5)


def test_intermediate_profile_example():
    # ordering (5,2,3,1,4) written 1-based; prefix of length 3 keeps bidders 5, 2, 3
    pi = (4, 1, 2, 0, 3)
    s = (10, 20, 30, 40, 50)
    assert intermediate_profile(s, pi, 3) == (0, 20, 30, 0, 50)
    assert intermediate_profile(s, pi, 0) == (0, 0, 0, 0, 0)
    assert intermediate_profile(s, pi, 5) == s


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_intermediate_profile_monotone_in_prefix(data):
    n = data.draw(st.integers(2, 6))
    s = tuple(data.draw(st.integers(0, 5)) for _ in range(n))
    pi = tuple(data.draw(st.permutations(range(n))))
    prev = intermediate_profile(s, pi, 0)
    for i in range(1, n + 1):
        cur = intermediate_profile(s, pi, i)
        assert all(a <= b for a, b in zip(prev, cur))
        prev = cur


# ---------------------------------------------------------------------------
# Structural implications of the crossing constant, checked exhaustively.
# ---------------------------------------------------------------------------


def _approximates(v, i, j, s, alpha):
    return v.value(j, s) <= alpha * v.value(i, s)


def test_approximation_survives_own_signal_increase(finite_c_corpus):
    """If i covers j within alpha >= c at s, it still does at any higher own signal."""
    for name, v, c, _ in finite_c_corpus:
        if v.space.profile_count > 2000:
            continue
        alpha = c * (1 + 1e-12)
        for s in v.space.profiles():
            for i in range(v.n):
                for j in range(v.n):
                    if i == j or not _approximates(v, i, j, s, alpha):
                        continue
                    q = list(s)
                    for si in range(s[i] + 1, v.space.sizes[i] + 1):
                        q[i] = si
                        assert _approximates(v, i, j, tuple(q), alpha * (1 + 1e-12)), (
                            name, i, j, s, si,
                        )


def test_failed_approximation_survives_own_signal_decrease(finite_c_corpus):
    """Contrapositive: a strict failure at s persists at lower own signals."""
    for name, v, c, _ in finite_c_corpus:
        if v.space.profile_count > 2000:
            continue
        alpha = c * (1 + 1e-12)
        for s in v.space.profiles():
            for i in range(v.n):
                for j in range(v.n):
                    if i == j or _approximates(v, i, j, s, alpha):
                        continue
                    q = list(s)
                    for si in range(s[i]):
                        q[i] = si
                        assert not _approximates(v, i, j, tuple(q), alpha / (1 + 1e-12)), (
                            name, i, j, s, si,
                        )


def test_third_party_increase_costs_additive_c(finite_c_corpus):
    """v_i >= v_j / alpha at s keeps max(v_i, v_l) >= v_j / (alpha + c) as s_l rises."""
    for name, v, c, _ in finite_c_corpus:
        if v.space.profile_count > 600 or v.n < 2:
            continue
        alpha = max(c, 1.0)
        for s in v.space.profiles():
            for i in range(v.n):
                for j in range(v.n):
                    if i == j or not _approximates(v, i, j, s, alpha):
                        continue
                    for ell in range(v.n):
                        if ell == j:
                            continue
                        q = list(s)
                        for sl in range(s[ell] + 1, v.space.sizes[ell] + 1):
                            q[ell] = sl
                            tq = tuple(q)
                            covered = max(v.value(i, tq), v.value(ell, tq))
                            assert v.value(j, tq) <= (alpha + c) * covered * (1 + 1e-12), (
                                name, i, j, ell, s, sl,
                            )


def test_check_value_monotone_finds_violation():
    sp = SignalSpace((1, 1))
    vals = np.array([[[7.0, 7.0], [5.0, 7.0]], [[0.0, 1.0], [0.0, 1.0]]])
    v = ValuationInstance(space=sp, values=vals)
    bad = check_value_monotone(v)
    assert len(bad) == 1
    bidder, axis, profile, lo, hi = bad[0]
    assert (bidder, axis, profile) == (0, 0, (1, 0)) and (lo, hi) == (7.0, 5.0)


def test_check_value_monotone_clean_on_generators(corpus):
    for name, v in corpus:
        assert check_value_monotone(v) == [], name


def test_spot_check_monotone_on_huge_grid():
    v = gen.gen_random_mech_lb(64, 2.0)  # 2^65 profiles, evaluator-backed
    assert spot_check_value_monotone(v, samples=500, seed=1) == []
    sp = SignalSpace((1,) * 20, profile_cap=2**22)
    bad = ValuationInstance(  # every value falls as any signal rises
        space=sp, batch_evaluate=lambda P: np.repeat(20.0 - P.sum(axis=1, keepdims=True), sp.n, axis=1)
    )
    found = spot_check_value_monotone(bad, samples=500, seed=1)
    assert found and all(hi < lo for _, _, _, lo, hi in found)
