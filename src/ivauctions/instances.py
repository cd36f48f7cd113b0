"""Named valuation instances and random families for property testing.

Every generator is deterministic given its parameters (and seed, where one is
taken), and every output passes the value-monotonicity check.  The fixed
instances realize the tight and impossible cases the test suite certifies:
drilling-rights duopolies, the two-signal boundary constructions, and the
three-bidder table on which no monotone allocation reaches its crossing
constant.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .model import (
    DEFAULT_PROFILE_CAP,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    compute_c,
    compute_d,
    instance_from_json,
)


def gen_oil_sc(k: int) -> ValuationInstance:
    """Two drilling firms, marginal costs 1 and 2, oil price 4: v1 = 3*s1, v2 = 2*s1."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    space = SignalSpace((k, k))
    s1 = np.arange(k + 1, dtype=np.float64)[:, None]
    ones = np.ones((1, k + 1))
    values = np.stack([3.0 * s1 * ones, 2.0 * s1 * ones])
    return ValuationInstance(space=space, values=values, name="oil_sc")


def gen_oil_no_sc(k: int) -> ValuationInstance:
    """Fixed plus marginal drilling costs: v1 = max(0, 2*s1 - 1), v2 = max(0, 3*s1 - 2).

    The closed forms go negative at s1 = 0; values are clamped at zero there.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    space = SignalSpace((k, k))
    s1 = np.arange(k + 1, dtype=np.float64)[:, None]
    ones = np.ones((1, k + 1))
    values = np.stack(
        [np.maximum(0.0, 2.0 * s1 - 1.0) * ones, np.maximum(0.0, 3.0 * s1 - 2.0) * ones]
    )
    return ValuationInstance(space=space, values=values, name="oil_no_sc")


def gen_retail(k: int) -> ValuationInstance:
    """Two retail chains pricing a location off the mean income estimate in [1, 2].

    Signal t maps to the grid point 1 + t/k; v1 = 0.06 + mean (normal goods),
    v2 = mean**1.1 (luxury goods).  The measured crossing constant of the grid
    is reported, not pinned: it approaches 1.1 * 2**0.1 ~ 1.18 as k grows.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    space = SignalSpace((k, k))
    x = 1.0 + np.arange(k + 1, dtype=np.float64) / k
    mean = (x[:, None] + x[None, :]) / 2.0
    values = np.stack([0.06 + mean, mean**1.1])
    return ValuationInstance(space=space, values=values, name="retail")


def gen_det_impossibility(r: float) -> ValuationInstance:
    """Two bidders, S1 = {0,1}, S2 = {0}: v1 = (r, r), v2 = (1, r^2).

    Bidder 1's value ignores s1 while bidder 2's jumps by r^2 - 1, so no
    monotone allocation beats a ratio of r.
    """
    if not r > 1:
        raise ValidationError("r must be > 1")
    space = SignalSpace((1, 1))
    values = np.empty((2, 2, 2))
    values[0] = [[r, r], [r, r]]
    values[1] = [[1.0, 1.0], [r * r, r * r]]
    return ValuationInstance(space=space, values=values, name="det_impossibility")


def gen_rand_impossibility(n: int) -> ValuationInstance:
    """Two-signal bidders with v_i = prod_{j != i} s_j: value 1 iff everyone else is high."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    space = SignalSpace((1,) * n)
    idx = np.indices(space.shape)
    values = (idx.sum(axis=0) - idx == n - 1).astype(np.float64)  # every other signal high
    return ValuationInstance(space=space, values=values, name="rand_impossibility")


def gen_rand_c_lb(n: int, c: float) -> ValuationInstance:
    """Two-signal family where raising any signal moves the owner by 1/c and rivals by 1.

    v_i is 0 or 1/c while some other bidder is low, and 1 or 1 + 1/c once all
    other bidders are high.
    """
    if n < 2:
        raise ValidationError("n must be >= 2")
    if not c >= 1:  # NaN fails too
        raise ValidationError("c must be >= 1")
    space = SignalSpace((1,) * n)
    idx = np.indices(space.shape)
    others_high = idx.sum(axis=0) - idx == n - 1
    values = np.where(others_high, 1.0, 0.0) + np.where(idx == 1, 1.0 / c, 0.0)
    return ValuationInstance(space=space, values=values, name="rand_c_lb")


def gen_two_by_two_tight(c: float) -> ValuationInstance:
    """2x2 instance where any monotone allocation beating ratio c forces a conflict.

    v1 = (0, 1, c, c+1) and v2 = (0, c, 1, c+1) over ((0,0),(1,0),(0,1),(1,1)):
    each bidder's own increments are (1, c) against cross increments (c, 1),
    so the crossing constant is exactly c and the instance is concave.
    """
    if not c > 1:
        raise ValidationError("c must be > 1")
    space = SignalSpace((1, 1))
    values = np.empty((2, 2, 2))
    values[0] = [[0.0, c], [1.0, c + 1.0]]
    values[1] = [[0.0, 1.0], [c, c + 1.0]]
    return ValuationInstance(space=space, values=values, name="two_by_two_tight")


# 12-profile three-bidder table with crossing constant exactly 2 on which no
# monotone allocation achieves a 2-approximation.  Indexed [s1][s2][s3].
_THREE_BIDDER_TABLE = {
    1: {
        (0, 0, 0): 0.0,
        (1, 0, 0): 0.000100,
        (2, 0, 0): 0.003381,
        (0, 1, 0): 0.007219,
        (1, 1, 0): 0.014529,
        (2, 1, 0): 0.017809,
        (0, 0, 1): 0.002231,
        (1, 0, 1): 0.002331,
        (2, 0, 1): 0.005611,
        (0, 1, 1): 0.009449,
        (1, 1, 1): 0.016760,
        (2, 1, 1): 0.020040,
    },
    2: {
        (0, 0, 0): 0.000676,
        (1, 0, 0): 0.000876,
        (2, 0, 0): 0.007436,
        (0, 1, 0): 0.004286,
        (1, 1, 0): 0.008091,
        (2, 1, 0): 0.014651,
        (0, 0, 1): 0.000686,
        (1, 0, 1): 0.000886,
        (2, 0, 1): 0.007446,
        (0, 1, 1): 0.004295,
        (1, 1, 1): 0.008101,
        (2, 1, 1): 0.014661,
    },
    3: {
        (0, 0, 0): 0.003170,
        (1, 0, 0): 0.003370,
        (2, 0, 0): 0.003380,
        (0, 1, 0): 0.003180,
        (1, 1, 0): 0.017799,
        (2, 1, 0): 0.017809,
        (0, 0, 1): 0.004286,
        (1, 0, 1): 0.004486,
        (2, 0, 1): 0.004495,
        (0, 1, 1): 0.004295,
        (1, 1, 1): 0.018915,
        (2, 1, 1): 0.018925,
    },
}


def gen_three_bidder_no_c() -> ValuationInstance:
    """Three bidders over {0,1,2} x {0,1} x {0,1} where c = 2 is unreachable.

    The table is fixed digit for digit; its forced-allocation chain makes every
    monotone table's worst welfare ratio strictly exceed 2.
    """
    space = SignalSpace((2, 1, 1))
    values = np.zeros((3,) + space.shape)
    for bidder_1based, table in _THREE_BIDDER_TABLE.items():
        for profile, val in table.items():
            values[(bidder_1based - 1,) + profile] = val
    return ValuationInstance(space=space, values=values, name="three_bidder_no_c")


def gen_tight_hypergrid(n: int, c: float) -> ValuationInstance:
    """Two-signal instance making the order-driven grid mechanism pay its full (n-1)c.

    Bidders other than the second are worth 1 when their own signal is high;
    the second bidder is worth c times the number of high rivals.
    """
    if n < 3:
        raise ValidationError("n must be >= 3")
    if not 1 <= c < math.inf:  # NaN fails too
        raise ValidationError("c must be >= 1 and finite")
    space = SignalSpace((1,) * n)
    idx = np.indices(space.shape)
    values = idx.astype(np.float64)
    # c * h in Python, not in int64: c may be an int too large for it
    worth = np.array([c * h for h in range(n)], dtype=np.float64)
    values[1] = worth[idx.sum(axis=0) - idx[1]]
    return ValuationInstance(space=space, values=values, name="tight_hypergrid")


def rand_mech_lb_groups(n: int) -> list[list[int]]:
    """Greedy partition of bidders 0..n-1 into groups of size round(log2(n) * sqrt(n)).

    The last group absorbs any remainder.  Uses log base 2 and nearest-integer
    rounding; callers should read group structure off this function rather than
    the asymptotic formula.
    """
    size = round(math.log2(n) * math.sqrt(n))
    if size < 1 or size > n:
        raise ValidationError(f"group size {size} infeasible for n={n}")
    count = n // size
    groups = [list(range(g * size, (g + 1) * size)) for g in range(count)]
    groups[-1].extend(range(count * size, n))
    return groups


def gen_random_mech_lb(n: int, c: float) -> ValuationInstance:
    """n grouped bidders plus one outlier whose value counts completed groups.

    A grouped bidder is worth 1 iff every member of its group is high; the
    outlier (last index) is worth c per fully-high group.  Backed by a batched
    evaluator since the grid has 2^(n+1) profiles.
    """
    root = math.isqrt(n)
    if root * root != n:
        raise ValidationError("n must be a perfect square")
    if not 1 <= c < math.inf:  # NaN fails too
        raise ValidationError("c must be >= 1 and finite")
    groups = rand_mech_lb_groups(n)
    bounds = [(members[0], members[-1] + 1) for members in groups]  # contiguous by construction
    space = SignalSpace((1,) * (n + 1), profile_cap=2 ** (n + 2))

    def batch_evaluate(profiles: np.ndarray) -> np.ndarray:
        vals = np.zeros(profiles.shape, dtype=np.float64)
        done = np.zeros(len(profiles), dtype=np.int64)
        for lo, hi in bounds:
            full = profiles[:, lo:hi].all(axis=1)
            vals[:, lo:hi] = full[:, None]
            done += full
        vals[:, n] = c * done
        return vals

    return ValuationInstance(
        space=space,
        batch_evaluate=batch_evaluate,
        name="random_mech_lb",
    )


def gen_random_separable(n: int, k: int, c: float, seed: int) -> ValuationInstance:
    """Random additively separable instance, guaranteed c-crossing and concave.

    v_j(s) = base_j + sum_i f_ji(s_i) with every cross increment of f_ji drawn
    at most c times the matching own increment of f_ii.
    """
    if n < 1 or k < 1 or not 1 <= c < math.inf or seed < 0:  # NaN fails; NumPy refuses seed < 0
        raise ValidationError("need n >= 1, k >= 1, finite c >= 1, seed >= 0")
    rng = np.random.default_rng(seed)
    space = SignalSpace((k,) * n)
    own = rng.uniform(0.25, 1.0, size=(n, k))  # own[i][t-1]: increment of f_ii at step t
    incr = np.empty((n, n, k))  # incr[j][i][t-1]: increment of f_ji at step t
    for j in range(n):
        for i in range(n):
            if i == j:
                incr[j, i] = own[i]
            else:
                incr[j, i] = rng.uniform(0.0, 1.0, size=k) * c * own[i]
    base = rng.uniform(0.0, 0.5, size=n)
    f = np.concatenate([np.zeros((n, n, 1)), np.cumsum(incr, axis=2)], axis=2)
    idx = np.indices(space.shape)
    values = base[(slice(None),) + (None,) * n] + sum(f[:, i, idx[i]] for i in range(n))
    return ValuationInstance(space=space, values=values, name="random_separable")


def gen_random_tabulated(n: int, k: int, seed: int) -> tuple[ValuationInstance, float, float]:
    """Random monotone table: per-bidder prefix sums of strictly positive noise.

    Returns the instance with its measured crossing and concavity constants so
    tests can parameterize by what was actually drawn.
    """
    if n < 1 or k < 1 or seed < 0:  # NumPy refuses seed < 0 with a bare ValueError
        raise ValidationError("need n >= 1, k >= 1, seed >= 0")
    rng = np.random.default_rng(seed)
    space = SignalSpace((k,) * n)
    noise = rng.uniform(0.01, 1.0, size=(n,) + space.shape)
    values = noise.copy()
    for axis in range(1, n + 1):
        values = np.cumsum(values, axis=axis)
    inst = ValuationInstance(space=space, values=values, name="random_tabulated")
    return inst, compute_c(inst), compute_d(inst)


# ---------------------------------------------------------------------------
# Registry and JSON loading.
# ---------------------------------------------------------------------------

GENERATORS: dict[str, Callable[..., ValuationInstance]] = {
    "oil_sc": gen_oil_sc,
    "oil_no_sc": gen_oil_no_sc,
    "retail": gen_retail,
    "det_impossibility": gen_det_impossibility,
    "rand_impossibility": gen_rand_impossibility,
    "rand_c_lb": gen_rand_c_lb,
    "two_by_two_tight": gen_two_by_two_tight,
    "three_bidder_no_c": gen_three_bidder_no_c,
    "tight_hypergrid": gen_tight_hypergrid,
    "random_mech_lb": gen_random_mech_lb,
    "random_separable": gen_random_separable,
    "random_tabulated": gen_random_tabulated,
}

PROVENANCE = {
    "oil_sc": "drilling duopoly, marginal costs 1 and 2: v1=3*s1, v2=2*s1",
    "oil_no_sc": "drilling duopoly with fixed costs: v1=max(0,2*s1-1), v2=max(0,3*s1-2)",
    "retail": "retail chains on income grid [1,2]: v1=0.06+mean, v2=mean^1.1",
    "det_impossibility": "deterministic lower bound: constant v1=r against v2=(1, r^2)",
    "rand_impossibility": "product indicators v_i = prod_{j!=i} s_j",
    "rand_c_lb": "two-signal family with own step 1/c and cross steps up to 1",
    "two_by_two_tight": "2x2 crossing-constant-c instance with a forced conflict at (1,1)",
    "three_bidder_no_c": "12-profile table with c=2 and no monotone 2-approximation",
    "tight_hypergrid": "indicator bidders plus one worth c per high rival",
    "random_mech_lb": "grouped indicator bidders plus an outlier counting complete groups",
    "random_separable": "random additively separable c-crossing family",
    "random_tabulated": "random monotone prefix-sum tables",
}


def make_instance(name: str, **params) -> ValuationInstance:
    if name not in GENERATORS:
        raise ValidationError(f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
    out = GENERATORS[name](**params)
    if isinstance(out, tuple):
        out = out[0]
    return out


def load_instance(obj: dict, profile_cap: int = DEFAULT_PROFILE_CAP) -> ValuationInstance:
    """Load an instance from its JSON object form.

    An explicit value table wins over a generator stanza when both are
    present, so hand-edited files mean what they say.
    """
    if "values" in obj:
        return instance_from_json(obj, profile_cap=profile_cap)
    if "generator" in obj:
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError(f"'params' must be an object, got {type(params).__name__}")
        return make_instance(str(obj["generator"]), **params)
    raise ValidationError("instance JSON needs either 'values' or 'generator'")
