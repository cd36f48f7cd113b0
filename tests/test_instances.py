"""Generators: closed-form spot values, advertised constants, determinism."""

import math

import numpy as np
import pytest

from ivauctions import (
    ValidationError,
    check_value_monotone,
    compute_c,
    compute_d,
)
from ivauctions import instances as gen

import reference

REL = 1e-9

C_GRID = (1, 1.5, 2.0, 3.0, 7.3, 10**20)  # an int c beyond int64 must not overflow


def test_oil_sc_values():
    v = gen.gen_oil_sc(3)
    assert v.values_at((2, 0)).tolist() == [6.0, 4.0]
    assert v.values_at((0, 3)).tolist() == [0.0, 0.0]
    assert compute_c(v) == 1.0


def test_oil_no_sc_values():
    v = gen.gen_oil_no_sc(3)
    assert v.values_at((2, 0)).tolist() == [3.0, 4.0]
    assert v.values_at((0, 0)).tolist() == [0.0, 0.0]  # clamped closed forms


def test_retail_values():
    v = gen.gen_retail(8)
    assert v.value(0, (8, 8)) == pytest.approx(2.06)
    assert v.value(1, (8, 8)) == pytest.approx(2.0**1.1)
    assert v.values_at((0, 0)).tolist() == pytest.approx([1.06, 1.0])
    # the measured grid constant is reported, not pinned; it sits near 1.18
    c = compute_c(v)
    assert 1.1 < c < 1.18


def test_det_impossibility_values():
    v = gen.gen_det_impossibility(3.0)
    assert v.value(1, (1, 0)) == 9.0
    assert v.value(0, (0, 0)) == v.value(0, (1, 0)) == 3.0


def test_rand_impossibility_values():
    v = gen.gen_rand_impossibility(4)
    assert v.values_at((1, 1, 1, 1)).tolist() == [1.0] * 4
    assert v.values_at((0, 0, 1, 1)).tolist() == [0.0] * 4
    assert v.value(0, (0, 1, 1, 1)) == 1.0


def test_rand_c_lb_values():
    c = 2.0
    v = gen.gen_rand_c_lb(3, c)
    assert v.values_at((1, 1, 1)).tolist() == [1.0 + 1.0 / c] * 3
    assert v.value(0, (1, 0, 0)) == 1.0 / c
    assert v.value(0, (0, 1, 1)) == 1.0
    assert compute_c(v) == pytest.approx(c, rel=REL)


def test_two_by_two_tight_constants():
    for c in (1.5, 2.0, 4.0):
        v = gen.gen_two_by_two_tight(c)
        assert compute_c(v) == pytest.approx(c, rel=REL)
        assert compute_d(v) == 1.0
        assert v.value(0, (0, 1)) == c and v.value(1, (1, 0)) == c


def test_three_bidder_table_digits():
    v = gen.gen_three_bidder_no_c()
    assert v.value(1, (2, 0, 0)) == 0.007436
    assert v.value(0, (0, 1, 0)) == 0.007219
    assert v.value(2, (1, 1, 1)) == 0.018915
    assert check_value_monotone(v) == []
    assert compute_c(v) == pytest.approx(2.0, rel=REL)


def test_tight_hypergrid_values():
    n, c = 4, 2.0
    v = gen.gen_tight_hypergrid(n, c)
    ones = (1,) * n
    vals = v.values_at(ones)
    assert vals[1] == (n - 1) * c
    assert all(vals[i] == 1.0 for i in range(n) if i != 1)
    assert compute_c(v) == pytest.approx(c, rel=REL)
    assert compute_d(v) == 1.0


def test_random_mech_lb_structure():
    groups = gen.rand_mech_lb_groups(64)
    assert len(groups) == 1 and len(groups[0]) == 64  # size round(6*8)=48, remainder absorbed
    v = gen.gen_random_mech_lb(64, 2.0)
    assert v.n == 65
    all_high = (1,) * 65
    vals = v.values_at(all_high)
    assert vals[64] == 2.0 * len(groups)
    assert vals[:64].tolist() == [1.0] * 64
    # any incomplete group zeroes its members
    partial = (0,) + (1,) * 64
    vals = v.values_at(partial)
    assert vals[:64].tolist() == [0.0] * 64 and vals[64] == 0.0


def test_random_mech_lb_small_instance_constants():
    v = gen.gen_random_mech_lb(4, 2.0).tabulated()
    assert compute_c(v) == pytest.approx(2.0, rel=REL)
    assert check_value_monotone(v) == []


def test_random_mech_lb_rejects_bad_n():
    with pytest.raises(ValidationError):
        gen.gen_random_mech_lb(5, 2.0)  # not a perfect square


def test_random_separable_guarantees():
    for seed in range(6):
        v = gen.gen_random_separable(3, 3, 2.0, seed=seed)
        assert compute_c(v) <= 2.0 * (1 + REL)
        assert compute_d(v) == pytest.approx(1.0, rel=REL)
        assert check_value_monotone(v) == []


def test_constant_valuations_clamp_to_one():
    from ivauctions import SignalSpace, ValuationInstance

    # the degenerate all-zero-increment case: no constraints bind, c clamps up
    v = ValuationInstance(space=SignalSpace((2, 2)), values=np.full((2, 3, 3), 5.0))
    assert compute_c(v) == 1.0
    assert compute_d(v) == 1.0


def test_random_tabulated_measured_constants():
    v, c, d = gen.gen_random_tabulated(3, 3, seed=7)
    assert math.isfinite(c) and c >= 1.0
    assert math.isfinite(d) and d >= 1.0
    assert compute_c(v) == c and compute_d(v) == d
    v1, c1, _ = gen.gen_random_tabulated(1, 4, seed=7)
    assert c1 == 1.0  # no cross constraints


def test_seed_determinism():
    a = gen.gen_random_separable(3, 3, 2.0, seed=42)
    b = gen.gen_random_separable(3, 3, 2.0, seed=42)
    assert np.array_equal(a.values, b.values)
    c1, _, _ = gen.gen_random_tabulated(2, 5, seed=9)
    c2, _, _ = gen.gen_random_tabulated(2, 5, seed=9)
    assert np.array_equal(c1.values, c2.values)
    assert not np.array_equal(
        gen.gen_random_tabulated(2, 5, seed=10)[0].values, c1.values
    )


def test_registry_dispatch():
    v = gen.make_instance("tight_hypergrid", n=3, c=1.5)
    assert v.name == "tight_hypergrid"
    with pytest.raises(ValidationError):
        gen.make_instance("nope")
    loaded = gen.load_instance({"generator": "oil_sc", "params": {"k": 2}})
    assert loaded.value(0, (2, 0)) == 6.0


def test_generator_parameter_validation():
    with pytest.raises(ValidationError):
        gen.gen_oil_sc(0)
    with pytest.raises(ValidationError):
        gen.gen_det_impossibility(1.0)
    with pytest.raises(ValidationError):
        gen.gen_two_by_two_tight(1.0)
    with pytest.raises(ValidationError):
        gen.gen_tight_hypergrid(2, 2.0)
    with pytest.raises(ValidationError):
        gen.gen_rand_c_lb(1, 2.0)


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "make",
    [
        lambda c: gen.gen_tight_hypergrid(3, c),
        lambda c: gen.gen_random_mech_lb(4, c),
        lambda c: gen.gen_random_separable(2, 1, c, seed=0),
    ],
    ids=["tight_hypergrid", "random_mech_lb", "random_separable"],
)
def test_a_non_finite_c_is_refused_by_the_generator(make, c):
    """The generator names c itself; an infinite c used to reach NumPy (inf * 0)
    or the instance's own finiteness check."""
    with pytest.raises(ValidationError, match=r"\bc\b"):
        make(c)


def test_rand_c_lb_keeps_its_infinite_c_instance():
    assert compute_c(gen.gen_rand_c_lb(3, math.inf)) == math.inf


def test_load_instance_needs_values_or_a_generator():
    with pytest.raises(ValidationError, match="'values' or 'generator'"):
        gen.load_instance({})


def _same_values(got, want):
    a, b = got.tabulated().values, want.tabulated().values
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_array_generators_match_profile_loops():
    """The generators built from ``np.indices`` give the per-profile loops' bytes."""
    for n in range(2, 9):
        assert _same_values(gen.gen_rand_impossibility(n),
                            reference.gen_rand_impossibility_by_profile(n)), n
        for c in C_GRID:
            assert _same_values(gen.gen_rand_c_lb(n, c),
                                reference.gen_rand_c_lb_by_profile(n, c)), (n, c)
            if n >= 3:
                assert _same_values(gen.gen_tight_hypergrid(n, c),
                                    reference.gen_tight_hypergrid_by_profile(n, c)), (n, c)
    for n in range(1, 7):
        for k in range(1, 4):
            if (k + 1) ** n > 5000:
                continue
            for seed in range(6):
                for c in (1, 2.0, 3.5):
                    got = gen.gen_random_separable(n, k, c, seed)
                    want = reference.gen_random_separable_by_profile(n, k, c, seed)
                    assert _same_values(got, want), (n, k, seed, c)
