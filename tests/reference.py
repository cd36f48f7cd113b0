"""Literal reference implementations that tests compare the package against.

The package never imports this module.  ``lazy_winner`` is the grid
mechanism's chain written one profile and one signal level at a time, the
way the paper states it; ``ivauctions.lazy_winner`` and ``lazy_winners`` run
the same chain as array passes and are tested against it.  The rest are the
literal twins and paper definitions the tests cross-check the package with:
the per-profile truthfulness sweep, a prior's support listed row-major, the
one-line winning reserve (former package code, with its scalar price loop)
and the losing reserve that shares its loop, the reserve-backed mechanism's
events and Monte Carlo draws quoted one line at a time on that reserve, the
evaluator-backed sub-market, the worst ratio over sub-markets as a
profile-by-subset loop, the closed forms of the no-crossing family, the
exhaustive monotone-table search walked one cell at a time, the increments
and intermediate profiles that define ``c``, and a seeded spot check of value
monotonicity on grids too large to tabulate (former package code).  Last
come more former package code kept as twins: the high-if-possible walk with
its choice of order inside a weight class, and four generators that fill
their tables one profile at a time.
"""

from __future__ import annotations

import math
import random
from itertools import permutations
from typing import Optional, Sequence

import numpy as np

from ivauctions import (
    CapExceeded,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    compute_c,
    lazy_winners,
)
from ivauctions.instances import gen_rand_impossibility
from ivauctions.mechanisms import (
    NO_WINNER,
    REL_TOL,
    AllocationTable,
    IncompatibleMechanism,
    Rule,
    _required_c,
    critical_signal,
)
from ivauctions.model import validate_permutation
from ivauctions.revenue import (
    JointPrior,
    ReserveBackedMechanism,
    ReserveQuote,
    RevenueEvent,
    RuleFamily,
    UndefinedReserve,
)


def lazy_winner(
    v: ValuationInstance, pi: Sequence[int], s: Sequence[int], c: Optional[float] = None
) -> int:
    """Winner of the grid coloring at one profile by the scalar chain.

    ``pi`` may order any non-empty subset of the bidders; the others stay at
    their reports and cannot win.
    """
    order = tuple(int(x) for x in pi)
    if not order or len(set(order)) != len(order) or not all(0 <= b < v.n for b in order):
        raise ValidationError(f"{order} is not an ordering of distinct bidders in 0..{v.n - 1}")
    return _chain(v, order, v.space.validate_profile(s), compute_c(v) if c is None else c, None)


def lazy_winner_trace(
    v: ValuationInstance, pi: Sequence[int], s: Sequence[int], c: Optional[float] = None
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Winner plus the per-iteration (tentative winner, intermediate profile) chain."""
    order = validate_permutation(pi, v.n)
    p = v.space.validate_profile(s)
    trace: list[tuple[int, tuple[int, ...]]] = []
    w = _chain(v, order, p, compute_c(v) if c is None else c, trace)
    return w, trace


def _chain(v, order, p, c, trace):
    """Scan each entrant's levels upward; the first level that trips the test hands it the item."""
    w = order[0]
    base = list(p)  # bidders outside the ordering stay at their reports
    for b in order[1:]:
        base[b] = 0
    if trace is not None:
        trace.append((w, tuple(base)))
    for it in range(1, len(order)):
        j = order[it]
        for sj in range(p[j] + 1):
            base[j] = sj
            vals = v.values_at(tuple(base))
            vw = vals[w]
            if max(vals[b] for b in order[: it + 1]) > (it * c) * vw or vals[j] > c * vw:
                w = j
                break
        base[j] = p[j]
        if trace is not None:
            trace.append((w, tuple(base)))
    return w


def exact_stats_by_chain(
    v: ValuationInstance, s: Sequence[int], c: Optional[float] = None
) -> tuple[float, dict[tuple[int, ...], float], np.ndarray]:
    """Average winner value at s over all n! orderings of the grid mechanism, the
    winner value per ordering, and the batch's winners in ``permutations`` order.

    All orderings run as one batch of the lazy chain, with c measured once.
    """
    if v.n > 8:
        raise CapExceeded("n! enumeration limited to n <= 8; use the Monte Carlo path")
    p = v.space.validate_profile(s)
    orders = list(permutations(range(v.n)))
    c = compute_c(v) if c is None else c
    winners = lazy_winners(v, orders, p, c=c)
    worth = v.values_at(p).tolist()
    per_pi = {pi: worth[w] for pi, w in zip(orders, winners.tolist())}
    mean = sum(per_pi.values()) / len(per_pi)
    return mean, per_pi, winners


def check_hypergrid_internal_chain(
    v: ValuationInstance,
    pi: Sequence[int],
    s: Sequence[int],
    c: Optional[float] = None,
) -> None:
    """Assert the two internal invariants of the grid mechanism at one profile.

    The tentative winner's value never decreases along the iteration chain, and
    the top bidder's value never jumps between consecutive intermediate
    profiles by more than c^2 times the final winner's value.
    """
    c = compute_c(v) if c is None else c
    w, trace = lazy_winner_trace(v, pi, s, c=c)
    p = v.space.validate_profile(s)
    chain_vals = [v.value(b, q) for b, q in trace]
    for a, b in zip(chain_vals, chain_vals[1:]):
        if b < a - 1e-12 * max(1.0, abs(a)):
            raise AssertionError(
                f"tentative winner value decreased {a} -> {b} along {pi} at {p}"
            )
    istar = int(np.argmax(v.values_at(p)))  # the first maximizer
    bound = c * c * v.value(w, p)
    prev = v.value(istar, trace[0][1])
    start = v.value(istar, tuple([0] * v.n))
    if prev - start > bound + 1e-9 * max(1.0, bound):
        raise AssertionError("first iteration moved the top value by more than c^2 * winner")
    for _, q in trace[1:]:
        cur = v.value(istar, q)
        if cur - prev > bound + 1e-9 * max(1.0, bound):
            raise AssertionError(
                f"top bidder's value jumped {prev} -> {cur} > c^2 * winner value {bound}"
            )
        prev = cur


def check_expost_truthful_literal(
    rule: Rule, v: ValuationInstance, payment="critical"
) -> list[tuple[tuple[int, ...], int, int, float, float]]:
    """Deviation sweep one profile, bidder and report at a time; twin of ``check_expost_truthful``.

    Lists every profitable misreport.  With the "critical" payment a winner pays
    her value at the first signal that wins on her line, found by scanning it
    from 0; a callable ``payment(i, report)`` is charged at every report.
    """
    scale = float(v.tabulated().values.max(initial=0.0))
    tol = REL_TOL * max(scale, 1.0)

    def utility(i: int, value: float, q: tuple[int, ...]) -> float:
        won = rule(q) == i
        if payment != "critical":
            return (value if won else 0.0) - payment(i, q)
        if not won:
            return 0.0
        first = next(b for b in range(q[i] + 1) if rule(q[:i] + (b,) + q[i + 1 :]) == i)
        return value - v.value(i, q[:i] + (first,) + q[i + 1 :])

    violations = []
    for p in v.space.profiles():
        for i in range(v.n):
            value = v.value(i, p)
            u_truth = utility(i, value, p)
            if rule(p) == i and u_truth < -tol:
                violations.append((p, i, p[i], u_truth, 0.0))
            for b in range(v.space.sizes[i] + 1):
                if b == p[i]:
                    continue
                u_dev = utility(i, value, p[:i] + (b,) + p[i + 1 :])
                if u_dev > u_truth + tol:
                    violations.append((p, i, b, u_truth, u_dev))
    return violations


def prior_support(prior: JointPrior):
    """(profile, probability) for each profile of positive probability, row-major."""
    on = prior.probs > 0
    return zip(map(tuple, np.argwhere(on).tolist()), prior.probs[on].tolist())


def _monopoly_quote(values: np.ndarray, probs: np.ndarray) -> ReserveQuote:
    """Best support price of ``values`` under the posterior ``probs``; prices
    ascend, so ``>=`` breaks revenue ties toward the higher price."""
    mass = float(probs.sum())
    if mass <= 0:
        raise UndefinedReserve("conditioning event has zero probability")
    posterior = probs / mass
    support = sorted({float(values[t]) for t in range(values.size) if posterior[t] > 0})
    best_price = None
    best_rev = -1.0
    for price in support:
        rev = price * float(posterior[values >= price].sum())
        if rev >= best_rev:
            best_rev = rev
            best_price = price
    return ReserveQuote(price=best_price, expected_revenue=best_rev)


def _line_values(v: ValuationInstance, i: int, context: tuple[int, ...]) -> np.ndarray:
    return np.array(
        [v.value(i, context[:i] + (t,) + context[i:]) for t in range(v.space.sizes[i] + 1)]
    )


def winning_reserve(
    prior: JointPrior,
    v: ValuationInstance,
    rule: Rule,
    i: int,
    s_minus_i: Sequence[int],
) -> ReserveQuote:
    """Monopoly price for bidder i given others at s_minus_i and s_i at least critical.

    The quote's price always dominates the bidder's value at her critical
    signal, so posting it preserves truthfulness of the underlying rule.
    """
    context = v.space.validate_line(i, s_minus_i)
    b_star = critical_signal(rule, v, i, context)
    if b_star is None:
        raise UndefinedReserve(f"bidder {i} never wins on line {context}")
    values = _line_values(v, i, context)
    probs = prior.probs[context[:i] + (slice(None),) + context[i:]]
    quote = _monopoly_quote(values[b_star:], probs[b_star:])
    assert quote.price >= values[b_star], "reserve must dominate the critical value"
    return quote


def losing_reserve(
    prior: JointPrior,
    v: ValuationInstance,
    rule: Rule,
    i: int,
    s_minus_i: Sequence[int],
) -> ReserveQuote:
    """Monopoly price for bidder i conditioned on losing (s_i below critical).

    When i never wins on the line, the critical signal is taken one past the
    top signal, so the condition is vacuous and the whole line is the posterior.
    """
    context = v.space.validate_line(i, s_minus_i)
    b_star = critical_signal(rule, v, i, context)
    k = v.space.sizes[i]
    cutoff = k + 1 if b_star is None else b_star
    if cutoff == 0:
        raise UndefinedReserve(f"bidder {i} always wins on line {context}; losing side empty")
    values = _line_values(v, i, context)
    probs = prior.probs[context[:i] + (slice(None),) + context[i:]]
    return _monopoly_quote(values[:cutoff], probs[:cutoff])


def posted_event(
    mech: ReserveBackedMechanism, rule: Optional[Rule], s: Sequence[int], branch: str, prob: float
) -> RevenueEvent:
    """One branch at profile s, quoted afresh: the rule's winner (no one without a rule)
    is offered her ``winning_reserve`` above and buys iff her value reaches it."""
    s = tuple(s)
    i = None if rule is None else rule(s)
    quote = None
    if i is not None:
        try:
            quote = winning_reserve(mech.prior, mech.v, rule, i, s[:i] + s[i + 1 :])
        except UndefinedReserve:
            pass
    if quote is None:
        return RevenueEvent(prob, 0.0, None, None, None, branch)
    value = mech.v.value(i, s)
    sold = value >= quote.price
    return RevenueEvent(
        prob, quote.price if sold else 0.0, i if sold else None, quote.price, value, branch
    )


def profile_events(mech: ReserveBackedMechanism, s: Sequence[int], realizations=None) -> list:
    """Twin of ``ReserveBackedMechanism.profile_events``: every internal branch at s,
    one ``posted_event`` at a time, in the mechanism's order (the full market's
    realizations, the empty subset, then each subset's).  ``realizations(keep)``
    gives a subset's (probability, rule) pairs, by default the mechanism's family's."""
    realizations = realizations or mech.family.realizations
    n = mech.v.n
    qa = mech.branch_a_prob
    qb = (1.0 - qa) / 2**n
    branches = [(qa * pr, "full", rule) for pr, rule in realizations(tuple(range(n)))]
    branches.append((qb, "subset", None))
    for mask in range(1, 2**n):
        keep = tuple(b for b in range(n) if mask >> b & 1)
        branches += [(qb * pr, "subset", rule) for pr, rule in realizations(keep)]
    return [posted_event(mech, rule, s, branch, prob) for prob, branch, rule in branches]


def sample_branch(mech: ReserveBackedMechanism, rng: random.Random) -> tuple[str, Optional[Rule]]:
    """One internal-randomness draw as (branch, rule), with ``sample_event``'s ``rng``
    calls: the branch, then the subset's bits, then the family's draw (no rule for
    the empty subset)."""
    n = mech.v.n
    if rng.random() < mech.branch_a_prob:
        return "full", mech.family.sample_rule(tuple(range(n)), rng)
    keep = tuple(b for b in range(n) if rng.random() < 0.5)
    return "subset", mech.family.sample_rule(keep, rng) if keep else None


def sample_event(mech: ReserveBackedMechanism, s: Sequence[int], rng: random.Random):
    """Twin of ``ReserveBackedMechanism.sample_event``: one ``sample_branch``, posted."""
    branch, rule = sample_branch(mech, rng)
    return posted_event(mech, rule, s, branch, 1.0)


def sampled_draws(mech: ReserveBackedMechanism, samples: int, seed: int):
    """The Monte Carlo draws of a sampled ``expected_revenue(mech, samples=samples,
    seed=seed)``, one at a time: each profile by a search of the prior's cumulative
    probabilities, then its ``sample_branch``, as (profile, rule, event)."""
    rng = random.Random(seed)
    support = np.flatnonzero(mech.prior.probs)
    cum = np.cumsum(mech.prior.probs.reshape(-1)[support])
    for _ in range(samples):
        idx = min(int(np.searchsorted(cum, rng.random() * cum[-1])), support.size - 1)
        s = tuple(int(x) for x in np.unravel_index(support[idx], mech.v.space.shape))
        branch, rule = sample_branch(mech, rng)
        yield s, rule, posted_event(mech, rule, s, branch, 1.0)


def restrict_bidders(
    v: ValuationInstance, bidders: Sequence[int], fixed: Sequence[int]
) -> ValuationInstance:
    """Sub-market over ``bidders``: the rest report ``fixed`` and cannot win.

    A batched view: each batch of sub-profiles is written into copies of the
    full profile and evaluated with one ``values_at_batch`` call on ``v``, so
    the dropped bidders' signals enter every evaluation as constants.
    """
    keep = tuple(int(b) for b in bidders)
    if len(set(keep)) != len(keep) or any(not 0 <= b < v.n for b in keep):
        raise ValidationError(f"bad bidder subset {keep}")
    base = v.space.validate_profile(fixed)
    sizes = tuple(v.space.sizes[b] for b in keep)
    space = SignalSpace(sizes, profile_cap=v.space.profile_cap)
    cols = list(keep)

    def batch_evaluate(profiles: np.ndarray) -> np.ndarray:
        full = np.tile(np.asarray(base), (len(profiles), 1))
        full[:, cols] = profiles
        return v.values_at_batch(full)[:, cols]

    return ValuationInstance(space=space, batch_evaluate=batch_evaluate, name=v.name)


def family_worst_ratio(family: RuleFamily, v: ValuationInstance) -> float:
    """Worst welfare ratio over every profile and sub-market, one rule call at a time."""
    if family.realization_count(v.n) != 1:
        raise ValidationError("worst ratio over realizations needs a deterministic family")
    n = v.n
    worst = 1.0
    subsets = [tuple(b for b in range(n) if mask >> b & 1) for mask in range(1, 2**n)]
    for profile in v.space.profiles():
        vals = v.values_at(profile)
        for keep in subsets:
            rule = family.realizations(keep)[0][1]
            w = rule(tuple(profile))
            top = max(float(vals[b]) for b in keep)
            if top == 0:
                continue
            if w is None or float(vals[w]) == 0:
                return math.inf
            worst = max(worst, top / float(vals[w]))
    return worst


def best_monotone_ratio(v: ValuationInstance) -> tuple[float, Optional[list[int]], int, int]:
    """The exhaustive monotone-table search as a plain recursive walk, one cell at a time.

    Cells are filled in row-major order, candidates lowest bidder first; a
    candidate is dropped when a bidder won the cell one step below on her own
    axis and the candidate is not her.  Returns the best worst-case ratio, the
    first table in that order attaining it (flat, or None when the best is
    infinite), the candidate assignments tried and the complete tables.
    """
    profiles = list(v.space.profiles())
    index = {p: i for i, p in enumerate(profiles)}
    ratio = []
    for p in profiles:
        vals = [float(x) for x in v.values_at(p)]
        top = max(vals)
        ratio.append([1.0 if top == 0 else math.inf if x == 0 else top / x for x in vals])
    lower = [[(a, index[p[:a] + (p[a] - 1,) + p[a + 1:]]) for a in range(v.n) if p[a]] for p in profiles]
    table: list[int] = []
    best, witness, nodes, tables = math.inf, None, 0, 0

    def walk(pos: int, worst: float) -> None:
        nonlocal best, witness, nodes, tables
        if pos == len(profiles):
            tables += 1
            if worst < best:
                best, witness = worst, list(table)
            return
        forced = [a for a, q in lower[pos] if table[q] == a]
        if len(forced) > 1:
            return
        for b in forced or range(v.n):
            nodes += 1
            table.append(b)
            walk(pos + 1, max(worst, ratio[pos][b]))
            table.pop()

    walk(0, 1.0)
    return best, witness, nodes, tables


def closed_form_rand_impossibility(n: int, epsilon: float) -> tuple[float, float, float]:
    """Closed forms for the product-indicator family under i.i.d. two-point signals.

    Returns (optimal expected welfare, the ceiling any monotone mechanism's
    expected welfare obeys, and the exactly enumerated expected welfare of the
    uniform random allocation).  The last two coincide at epsilon^(n-1).
    """
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    if n < 2:
        raise ValidationError("n must be >= 2")
    opt = epsilon**n + n * epsilon ** (n - 1) * (1 - epsilon)
    bound = epsilon ** (n - 1)
    inst = gen_rand_impossibility(n)
    uniform = 0.0
    for p in inst.space.profiles():
        prob = 1.0
        for bit in p:
            prob *= epsilon if bit == 1 else 1 - epsilon
        uniform += prob * float(inst.values_at(p).sum()) / n
    return opt, bound, uniform


def discrete_derivative(
    v: ValuationInstance, target: int, direction: int, s: Sequence[int]
) -> float:
    """v_target(s) - v_target(s with s_direction lowered by one).  Needs s_direction >= 1."""
    p = v.space.validate_profile(s)
    if not 0 <= target < v.n or not 0 <= direction < v.n:
        raise ValidationError("bidder index out of range")
    if p[direction] < 1:
        raise ValidationError(f"signal of bidder {direction} must be >= 1 at {p}")
    lower = list(p)
    lower[direction] -= 1
    return v.value(target, p) - v.value(target, tuple(lower))


def intermediate_profile(s: Sequence[int], pi: Sequence[int], i: int) -> tuple[int, ...]:
    """Profile keeping the signals of the first i bidders of ordering pi, zeroing the rest."""
    n = len(s)
    order = validate_permutation(pi, n)
    if not 0 <= i <= n:
        raise ValidationError(f"prefix length {i} out of range [0, {n}]")
    out = [0] * n
    for pos in range(i):
        out[order[pos]] = int(s[order[pos]])
    return tuple(out)


def alpha_approximates(
    v: ValuationInstance, i: int, j: int, s: Sequence[int], alpha: float
) -> bool:
    """True iff v_j(s) <= alpha * v_i(s).  Exact comparison, no epsilon."""
    if alpha < 0:
        raise ValidationError("alpha must be nonnegative")
    p = v.space.validate_profile(s)
    return v.value(j, p) <= alpha * v.value(i, p)


def spot_check_value_monotone(
    v: ValuationInstance, samples: int = 1000, seed: int = 0
) -> list[tuple[int, int, tuple[int, ...], float, float]]:
    """Sampled monotonicity check for evaluator-backed instances over huge grids.

    Draws random (bidder, profile, axis) triples with a seeded generator and
    compares each value against its lower neighbor.  Same violation tuples as
    the exhaustive check; an empty list is evidence, not proof.
    """
    rng = random.Random(seed)
    sizes = v.space.sizes
    violations = []
    for _ in range(samples):
        profile = tuple(rng.randint(0, k) for k in sizes)
        axis = rng.randrange(v.n)
        if profile[axis] == 0:
            continue
        bidder = rng.randrange(v.n)
        lower = list(profile)
        lower[axis] -= 1
        lo = v.value(bidder, tuple(lower))
        hi = v.value(bidder, profile)
        if hi < lo:
            violations.append((bidder, axis, profile, lo, hi))
    return violations


def high_if_possible_ordered(
    v: ValuationInstance, c: Optional[float] = None, order: str = "lex"
) -> AllocationTable:
    """Two-signal mechanism favoring bidders whose signal is already high.

    The per-profile twin of ``high_if_possible``'s one array pass per weight
    class.  Profiles are processed by increasing number of high signals.  At an
    undetermined profile the best high bidder wins if the overall argmax is
    within a factor c of her value; otherwise the argmax bidder wins and the
    win is propagated to her high-signal neighbor.  High winners need no
    propagation, which is what keeps the allocation conflict-free.

    ``order`` picks the traversal inside one weight class ("lex" or "revlex");
    the output must not depend on it since same-weight cells are independent.
    """
    if any(k != 1 for k in v.space.sizes):
        raise IncompatibleMechanism("high-if-possible needs two signals per bidder")
    c = _required_c(v, c)
    dense = v.tabulated().values
    n = v.n
    profiles = sorted(
        v.space.profiles(),
        key=lambda p: (sum(p), p if order == "lex" else tuple(-x for x in p)),
    )
    winner = np.full(v.space.shape, NO_WINNER, dtype=np.int32)
    for p in profiles:
        if winner[p] != NO_WINNER:
            continue
        vals = dense[(slice(None),) + p]
        istar = int(np.argmax(vals))  # the first maximizer
        high = [i for i in range(n) if p[i] == 1]
        if high:
            ih = high[int(np.argmax(vals[high]))]
            if vals[istar] <= c * vals[ih]:
                winner[p] = ih
                continue
        winner[p] = istar
        assert p[istar] == 0, "argmax with a high signal is itself a high bidder"
        q = list(p)
        q[istar] = 1
        tq = tuple(q)
        if winner[tq] != NO_WINNER and winner[tq] != istar:
            raise AssertionError(f"propagation conflict at {tq}")
        winner[tq] = istar
    return AllocationTable(space=v.space, winner=winner)


def gen_rand_impossibility_by_profile(n: int) -> ValuationInstance:
    """Two-signal bidders with v_i = prod_{j != i} s_j: value 1 iff everyone else is high."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    space = SignalSpace((1,) * n)
    values = np.zeros((n,) + space.shape)
    for p in space.profiles():
        for i in range(n):
            values[(i,) + p] = float(all(p[j] == 1 for j in range(n) if j != i))
    return ValuationInstance(space=space, values=values, name="rand_impossibility")


def gen_rand_c_lb_by_profile(n: int, c: float) -> ValuationInstance:
    """Two-signal family where raising any signal moves the owner by 1/c and rivals by 1.

    v_i is 0 or 1/c while some other bidder is low, and 1 or 1 + 1/c once all
    other bidders are high.
    """
    if n < 2:
        raise ValidationError("n must be >= 2")
    if c < 1:
        raise ValidationError("c must be >= 1")
    space = SignalSpace((1,) * n)
    values = np.zeros((n,) + space.shape)
    for p in space.profiles():
        for i in range(n):
            others_high = all(p[j] == 1 for j in range(n) if j != i)
            values[(i,) + p] = (1.0 if others_high else 0.0) + (1.0 / c if p[i] == 1 else 0.0)
    return ValuationInstance(space=space, values=values, name="rand_c_lb")


def gen_tight_hypergrid_by_profile(n: int, c: float) -> ValuationInstance:
    """Two-signal instance making the order-driven grid mechanism pay its full (n-1)c.

    Bidders other than the second are worth 1 when their own signal is high;
    the second bidder is worth c times the number of high rivals.
    """
    if n < 3:
        raise ValidationError("n must be >= 3")
    if c < 1:
        raise ValidationError("c must be >= 1")
    space = SignalSpace((1,) * n)
    values = np.zeros((n,) + space.shape)
    for p in space.profiles():
        high_others = sum(1 for j in range(n) if j != 1 and p[j] == 1)
        for i in range(n):
            values[(i,) + p] = c * high_others if i == 1 else float(p[i])
    return ValuationInstance(space=space, values=values, name="tight_hypergrid")



def gen_random_separable_by_profile(n: int, k: int, c: float, seed: int) -> ValuationInstance:
    """Random additively separable instance, guaranteed c-crossing and concave.

    v_j(s) = base_j + sum_i f_ji(s_i) with every cross increment of f_ji drawn
    at most c times the matching own increment of f_ii.
    """
    if n < 1 or k < 1 or c < 1:
        raise ValidationError("need n >= 1, k >= 1, c >= 1")
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
    values = np.empty((n,) + space.shape)
    for p in space.profiles():
        for j in range(n):
            values[(j,) + p] = base[j] + sum(f[j, i, p[i]] for i in range(n))
    return ValuationInstance(space=space, values=values, name="random_separable")
