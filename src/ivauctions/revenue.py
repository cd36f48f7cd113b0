"""Revenue via conditional monopoly reserves on top of any monotone rule.

Given a discrete prior over signal profiles, a bidder's winning conditional
monopoly reserve is the posted price maximizing price times acceptance
probability over her posterior, conditioned on her signal being at or above
her critical signal on the line.  The reserve-backed mechanism offers the
base rule's winner her winning reserve with one probability, and otherwise
draws a uniform bidder subset, reruns the base rule restricted to it, and
offers that winner her reserve under the restricted rule.  Expected revenue
is evaluated exactly by enumerating profiles, internal branches, subsets, and
rule realizations whenever that enumeration is small, and by seeded Monte
Carlo otherwise.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import InitVar, dataclass, field
from itertools import permutations
from typing import Iterator, Optional, Sequence, Union

import numpy as np

# lazy_winner is bound here, as in ``oracle``: sampled grid rules and the
# benchmark's tracer reach the lazy chain through this module's namespace.
from .mechanisms import (
    AllocationTable,
    IncompatibleMechanism,
    Rule,
    _as_rule,
    _ratios,
    _required_c,
    _winner_values,
    as_table,
    critical_signal,
    high_if_possible,
    hypergrid_coloring,
    lazy_winner,
    outcome,
)
from .model import (
    SignalSpace,
    ValidationError,
    ValuationInstance,
    mean_and_stderr,
    validate_permutation,
)

PROB_TOL = 1e-12


class UndefinedReserve(ValidationError):
    """The conditioning event of a reserve quote has probability zero (or no critical signal)."""


@dataclass(frozen=True, eq=False)
class JointPrior:
    """Discrete joint distribution over signal profiles.

    Built from either per-bidder ``marginals`` (a product prior) or an explicit
    sparse ``atoms`` mapping, and stored as one read-only dense array ``probs``
    over the grid: marginals multiplied in bidder order, repeated atoms summed
    in insertion order.  Probabilities must be nonnegative and sum to 1 within
    1e-12.  Priors compare by identity.
    """

    space: SignalSpace
    marginals: InitVar[Optional[Sequence[np.ndarray]]] = None
    atoms: InitVar[Optional[dict[tuple[int, ...], float]]] = None
    probs: np.ndarray = field(init=False, repr=False)
    _support: tuple = field(init=False, repr=False)

    def __post_init__(self, marginals, atoms):
        if (marginals is None) == (atoms is None):
            raise ValidationError("prior needs exactly one of marginals or atoms")
        if marginals is not None:
            if len(marginals) != self.space.n:
                raise ValidationError(f"need {self.space.n} marginals, got {len(marginals)}")
            probs = np.ones(self.space.shape)
            for i, m in enumerate(marginals):
                arr = np.asarray(m, dtype=np.float64)
                if arr.shape != (self.space.sizes[i] + 1,):
                    raise ValidationError(
                        f"marginal {i} must have {self.space.sizes[i] + 1} entries"
                    )
                if np.any(arr < 0):
                    raise ValidationError("probabilities must be nonnegative")
                if abs(float(arr.sum()) - 1.0) > PROB_TOL:
                    raise ValidationError(f"marginal {i} sums to {arr.sum()}, not 1")
                along_i = [1] * self.space.n
                along_i[i] = arr.size
                probs = probs * arr.reshape(along_i)
        else:
            probs = np.zeros(self.space.shape)
            total = 0.0
            for profile, p in atoms.items():
                profile = self.space.validate_profile(profile)
                if p < 0:
                    raise ValidationError("probabilities must be nonnegative")
                probs[profile] += float(p)
                total += float(p)
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(f"atom probabilities sum to {total}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        support = [tuple(p) for p in np.argwhere(probs > 0).tolist()]  # row-major
        object.__setattr__(self, "_support", tuple((p, float(probs[p])) for p in support))

    def prob(self, profile: Sequence[int]) -> float:
        return float(self.probs[self.space.validate_profile(profile)])

    def support(self) -> Iterator[tuple[tuple[int, ...], float]]:
        """Profiles with positive probability, in row-major order."""
        return iter(self._support)

    def line_probs(self, i: int, s_minus_i: Sequence[int]) -> np.ndarray:
        """Joint probabilities along bidder i's line at fixed s_minus_i (a read-only view)."""
        context = self.space.validate_line(i, s_minus_i)
        return self.probs[context[:i] + (slice(None),) + context[i:]]

    @staticmethod
    def from_json(obj: dict, space: Optional[SignalSpace] = None) -> "JointPrior":
        """Parse the wire form; missing or ill-typed keys raise ``ValidationError``."""
        try:
            kind = obj.get("kind")
            if kind == "product":
                marginals = [np.asarray(m, dtype=np.float64) for m in obj["marginals"]]
                sp = space or SignalSpace(tuple(len(m) - 1 for m in marginals))
                return JointPrior(space=sp, marginals=tuple(marginals))
            if kind == "sparse":
                atoms: dict[tuple, float] = {}
                for a in obj["atoms"]:  # a repeated profile sums its atoms in file order
                    key = tuple(a["profile"])
                    atoms[key] = atoms.get(key, 0.0) + float(a["p"])
                if space is None:
                    if not atoms:
                        raise ValidationError("a sparse prior without a signal space needs an atom")
                    n = len(next(iter(atoms)))
                    sizes = tuple(max(1, max(p[i] for p in atoms)) for i in range(n))
                    space = SignalSpace(sizes)
                return JointPrior(space=space, atoms=atoms)
        except KeyError as e:
            raise ValidationError(f"prior is missing key {e}") from e
        except ValidationError:
            raise
        except (AttributeError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed prior: {e}") from e
        raise ValidationError(f"unknown prior kind {kind!r}")


def uniform_product_prior(space: SignalSpace) -> JointPrior:
    return JointPrior(
        space=space,
        marginals=tuple(np.full(k + 1, 1.0 / (k + 1)) for k in space.sizes),
    )


@dataclass(frozen=True)
class ReserveQuote:
    """Optimal posted price for one bidder on one line, under one conditioning side.

    ``expected_revenue`` is price times the posterior acceptance probability;
    the price always sits on a support value of the bidder on that line, and
    ties in price * probability break toward the higher price.
    """

    price: float
    expected_revenue: float


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
    rule: Union[Rule, AllocationTable],
    i: int,
    s_minus_i: Sequence[int],
) -> ReserveQuote:
    """Monopoly price for bidder i given others at s_minus_i and s_i at least critical.

    The quote's price always dominates the bidder's value at her critical
    signal, so posting it preserves truthfulness of the underlying rule.
    """
    context = tuple(int(x) for x in s_minus_i)
    b_star = critical_signal(rule, v, i, context)
    if b_star is None:
        raise UndefinedReserve(f"bidder {i} never wins on line {context}")
    values = _line_values(v, i, context)
    probs = prior.line_probs(i, context)
    quote = _monopoly_quote(values[b_star:], probs[b_star:])
    assert quote.price >= values[b_star], "reserve must dominate the critical value"
    return quote


def _quote(
    cache: dict,
    prior: JointPrior,
    v: ValuationInstance,
    rule: Rule,
    i: int,
    context: tuple[int, ...],
) -> Optional[ReserveQuote]:
    """Winning reserve of bidder i on one line, computed once per (rule, i, line).

    The quote depends only on the rule, the bidder and the others' signals, so
    every profile on the line shares it.  ``None`` marks an undefined reserve.
    The cache holds the rule itself as part of the key, so a rule's id cannot
    be reused while its quotes are stored.
    """
    key = (rule, i, context)
    if key not in cache:
        try:
            cache[key] = winning_reserve(prior, v, rule, i, context)
        except UndefinedReserve:
            cache[key] = None
    return cache[key]


# ---------------------------------------------------------------------------
# Rule families: a base rule plus its restriction to any bidder subset.
# ---------------------------------------------------------------------------


class RuleFamily:
    """A monotone allocation rule defined for every sub-market of an instance.

    ``realizations(Z)`` yields (probability, rule) pairs covering the family's
    internal randomness for a non-empty bidder subset Z; each rule maps a full
    reported profile to a winner in Z.  Restricted rules rerun the same
    algorithm over the bidders in Z, with the other bidders' reported signals
    held fixed inside every valuation evaluation and excluded from winning.
    """

    def __init__(self, v: ValuationInstance):
        self.v = v
        # One rule object per key, so quote caches keyed on the rule see repeats.
        self._rules: dict = {}

    def realizations(self, bidders: Sequence[int]) -> list[tuple[float, Rule]]:
        raise NotImplementedError

    def sample_rule(self, bidders: Sequence[int], rng: random.Random) -> Rule:
        """One internal-randomness draw; randomized families override this."""
        [(_, rule)] = self.realizations(bidders)
        return rule

    def realization_count(self, market_size: int) -> int:
        return 1


class HypergridFamily(RuleFamily):
    """Order-driven grid coloring as a family.

    With a fixed ordering the family is deterministic and restrictions use the
    induced order on the subset; without one, every restriction is uniformly
    random over the subset's orderings.  A restricted rule is the grid
    coloring of the full instance for the ordering of the subset alone; no
    sub-instance is built.  The exact enumeration reads every ordering at every
    support profile, so there each rule is the ordering's ``hypergrid_coloring``
    table; a sampled draw reads one profile's lines, so there it is the lazy
    chain, which keeps nothing grid-sized per ordering.
    """

    def __init__(
        self, v: ValuationInstance, pi: Optional[Sequence[int]] = None, c: Optional[float] = None
    ):
        super().__init__(v)
        self.pi = None if pi is None else validate_permutation(pi, v.n)
        self.c = _required_c(v, c)

    def _rule(self, order: tuple[int, ...], table: bool) -> Rule:
        key = (order, table)
        if key not in self._rules:
            if table:
                self._rules[key] = _as_rule(hypergrid_coloring(self.v, order, c=self.c))
            else:
                self._rules[key] = lambda profile: lazy_winner(self.v, order, profile, c=self.c)
        return self._rules[key]

    def realizations(self, bidders):
        if self.pi is None:
            orders = list(permutations(bidders))
        else:
            orders = [tuple(b for b in self.pi if b in bidders)]
        return [(1.0 / len(orders), self._rule(order, table=True)) for order in orders]

    def sample_rule(self, bidders, rng):
        if self.pi is None:
            order = list(bidders)
            rng.shuffle(order)
        else:
            order = [b for b in self.pi if b in bidders]
        return self._rule(tuple(order), table=False)

    def realization_count(self, market_size: int) -> int:
        return 1 if self.pi is not None else math.factorial(max(1, market_size))


class HighIfPossibleFamily(RuleFamily):
    """The two-signal high-bidder-favoring mechanism as a deterministic family."""

    def __init__(self, v: ValuationInstance, c: Optional[float] = None):
        super().__init__(v)
        if any(k != 1 for k in v.space.sizes):
            raise IncompatibleMechanism("family needs two signals per bidder")
        self.c = _required_c(v, c)

    def realizations(self, bidders):
        keep = tuple(bidders)
        if keep not in self._rules:
            self._rules[keep] = self._subset_rule(keep)
        return [(1.0, self._rules[keep])]

    def _subset_rule(self, keep: tuple[int, ...]) -> Rule:
        """The sub-market rule; its table is built once per dropped bidders' signals.

        Each table is ``high_if_possible`` of the slice of ``v`` at those signals,
        read with one ``values_at_batch`` call: only the slices a caller reaches
        are evaluated.
        """
        v = self.v
        dropped = tuple(b for b in range(v.n) if b not in keep)
        space = SignalSpace(tuple(v.space.sizes[b] for b in keep), profile_cap=v.space.profile_cap)
        cols = list(keep)
        grid = np.indices(space.shape).reshape(len(cols), -1).T  # sub-profiles, row-major
        lookups: dict[tuple[int, ...], Rule] = {}

        def rule(profile: tuple[int, ...]) -> Optional[int]:
            fixed = tuple(profile[b] for b in dropped)
            if fixed not in lookups:
                full = np.tile(np.asarray(profile), (len(grid), 1))
                full[:, cols] = grid
                values = v.values_at_batch(full)[:, cols].T.reshape((len(cols),) + space.shape)
                sub = ValuationInstance(space=space, values=values)
                lookups[fixed] = _as_rule(high_if_possible(sub, c=self.c))
            w = lookups[fixed](tuple(profile[b] for b in keep))
            return None if w is None else keep[w]

        return rule


def family_worst_ratio(family: RuleFamily, v: ValuationInstance) -> float:
    """Worst per-profile welfare ratio of a deterministic family over all sub-markets.

    This is the approximation constant the revenue reduction actually needs:
    every restriction of the rule must cover the best bidder of its own
    sub-market at every profile.  Each sub-market is one array pass over its
    rule's table.
    """
    if family.realization_count(v.n) != 1:
        raise ValidationError("worst ratio over realizations needs a deterministic family")
    dense = v.tabulated().values
    worst = 1.0
    for mask in range(1, 2**v.n):
        keep = tuple(b for b in range(v.n) if mask >> b & 1)
        won = _winner_values(dense, as_table(family.realizations(keep)[0][1], v).winner)
        worst = max(worst, float(_ratios(dense[list(keep)].max(axis=0), won).max()))
    return worst


# ---------------------------------------------------------------------------
# The reserve-backed mechanism and expected-revenue evaluation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RevenueEvent:
    """One realization branch at one profile: its probability and what happened."""

    prob: float
    revenue: float
    buyer: Optional[int]
    price: Optional[float]
    buyer_value: Optional[float]
    branch: str


@dataclass(frozen=True)
class ReserveBackedMechanism:
    """Black-box welfare-to-revenue reduction around a rule family.

    With probability (alpha^2 + 1) / (alpha^2 + 4 alpha d / p^2 + 1) the base
    rule's winner is offered her winning conditional monopoly reserve; with the
    remaining probability a uniformly random subset of bidders is drawn and the
    winner of the restricted rerun is offered her reserve under that rerun.
    The sale price is the reserve itself, and the item stays unsold whenever
    the buyer's value falls short, so the mechanism is ex-post individually
    rational by construction.  ``p`` is the base family's per-subset
    probability of covering its sub-market optimum within alpha; deterministic
    bases use p = 1 and recover the (alpha^2 + 4 alpha d + 1) split.
    """

    v: ValuationInstance
    prior: JointPrior
    family: RuleFamily
    alpha: float
    d: float
    p: float = 1.0
    # Winning-reserve quotes per (rule, bidder, line), shared by every profile
    # and Monte Carlo draw that posts on the same line.
    _quotes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        finite = math.isfinite(self.alpha) and math.isfinite(self.d)
        if not finite or self.alpha < 1 or self.d < 1 or not 0 < self.p <= 1:
            raise ValidationError("need finite alpha >= 1 and d >= 1, and 0 < p <= 1")

    @property
    def branch_a_prob(self) -> float:
        a, d, p = self.alpha, self.d, self.p
        return (a * a + 1.0) / (a * a + 4.0 * a * d / (p * p) + 1.0)

    def _posted(self, rule: Rule, s: tuple[int, ...], branch: str, prob: float) -> RevenueEvent:
        i = rule(s)
        if i is None:
            return RevenueEvent(prob, 0.0, None, None, None, branch)
        context = tuple(x for b, x in enumerate(s) if b != i)
        quote = _quote(self._quotes, self.prior, self.v, rule, i, context)
        if quote is None:
            return RevenueEvent(prob, 0.0, None, None, None, branch)
        value = self.v.value(i, s)
        sold = value >= quote.price
        return RevenueEvent(
            prob=prob,
            revenue=quote.price if sold else 0.0,
            buyer=i if sold else None,
            price=quote.price,
            buyer_value=value,
            branch=branch,
        )

    def profile_events(self, s: Sequence[int]) -> list[RevenueEvent]:
        """Exact enumeration of every internal branch at one reported profile."""
        s = self.v.space.validate_profile(s)
        n = self.v.n
        qa = self.branch_a_prob
        events = []
        for pr, rule in self.family.realizations(tuple(range(n))):
            events.append(self._posted(rule, s, "full", qa * pr))
        qb = (1.0 - qa) / 2**n
        events.append(RevenueEvent(qb, 0.0, None, None, None, "subset"))  # the empty subset
        for mask in range(1, 2**n):
            keep = tuple(b for b in range(n) if mask >> b & 1)
            for pr, rule in self.family.realizations(keep):
                events.append(self._posted(rule, s, "subset", qb * pr))
        return events

    def profile_outcomes(self, s: Sequence[int]) -> list[tuple[float, float]]:
        return [(e.prob, e.revenue) for e in self.profile_events(s)]

    def enumeration_size(self) -> int:
        n = self.v.n
        subset_realizations = sum(
            math.comb(n, m) * self.family.realization_count(m) for m in range(n + 1)
        )
        per_profile = self.family.realization_count(n) + subset_realizations
        return sum(1 for _ in self.prior.support()) * per_profile

    def sample_event(self, s: Sequence[int], rng: random.Random) -> RevenueEvent:
        """One internal-randomness draw at one reported profile."""
        s = self.v.space.validate_profile(s)
        n = self.v.n
        if rng.random() < self.branch_a_prob:
            rule = self.family.sample_rule(tuple(range(n)), rng)
            return self._posted(rule, s, "full", 1.0)
        keep = tuple(b for b in range(n) if rng.random() < 0.5)
        if not keep:
            return RevenueEvent(1.0, 0.0, None, None, None, "subset")
        rule = self.family.sample_rule(keep, rng)
        return self._posted(rule, s, "subset", 1.0)


def expected_revenue(
    mechanism,
    prior: Optional[JointPrior] = None,
    cap: int = 1_000_000,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Expected revenue with its standard error (zero when computed exactly).

    ``mechanism`` provides per-profile exact branch enumeration through
    ``profile_outcomes`` (and its prior, unless one is passed explicitly).
    When profiles times branches stays under the cap the expectation is an
    exact sum; otherwise profiles are drawn from the prior with a seeded
    generator and internal branches are sampled through ``sample_event``.
    """
    prior = prior if prior is not None else mechanism.prior
    sizer = getattr(mechanism, "enumeration_size", None)
    size = sizer() if sizer is not None else sum(
        len(mechanism.profile_outcomes(s)) for s, _ in prior.support()
    )
    if size <= cap:
        total = 0.0
        for s, ps in prior.support():
            branch_probs = 0.0
            for prob, rev in mechanism.profile_outcomes(s):
                total += ps * prob * rev
                branch_probs += prob
            assert abs(branch_probs - 1.0) < 1e-9, "branch probabilities must sum to 1"
        return total, 0.0
    rng = random.Random(seed)
    support = list(prior.support())
    cum = list(np.cumsum([p for _, p in support]))

    def draws():
        for _ in range(samples):
            idx = min(bisect.bisect_left(cum, rng.random() * cum[-1]), len(support) - 1)
            yield mechanism.sample_event(support[idx][0], rng).revenue

    return mean_and_stderr(draws())


def lookahead_benchmark(
    prior: JointPrior, v: ValuationInstance, rule: Union[Rule, AllocationTable]
) -> float:
    """Upper bound on optimal revenue for a deterministic monotone rule.

    Per profile: the winner's winning-reserve expected revenue on her line plus
    the highest-valued non-winner's value, averaged over the prior.  Undefined
    reserves (possible only off the support) contribute zero.
    """
    win = _as_rule(rule)
    quotes: dict = {}
    total = 0.0
    for s, ps in prior.support():
        vals = v.values_at(s)
        w = win(s)
        if w is None:
            runner = float(vals.max())
            reserve_rev = 0.0
        else:
            runner = max((float(vals[j]) for j in range(v.n) if j != w), default=0.0)
            context = tuple(x for b, x in enumerate(s) if b != w)
            # keyed on ``win``: a table holds an array, so it is not hashable
            quote = _quote(quotes, prior, v, win, w, context)
            reserve_rev = 0.0 if quote is None else quote.expected_revenue
        total += ps * (reserve_rev + runner)
    return total


def lookahead_benchmark_family(
    prior: JointPrior, v: ValuationInstance, family: RuleFamily
) -> float:
    """Lookahead averaged over the family's full-market rule realizations."""
    total = 0.0
    for prob, rule in family.realizations(tuple(range(v.n))):
        total += prob * lookahead_benchmark(prior, v, rule)
    return total


def expected_payment_revenue(
    rule: Union[Rule, AllocationTable], v: ValuationInstance, prior: JointPrior
) -> float:
    """Expected critical-signal payment revenue of a rule under truthful play.

    The winner's payment depends only on her line, so it is settled once per
    (winner, others' signals); profiles without a winner pay nothing.
    """
    win = _as_rule(rule)
    payments: dict[tuple[int, tuple[int, ...]], float] = {}
    total = 0.0
    for s, ps in prior.support():
        w = win(s)
        if w is None:
            continue
        line = (w, tuple(x for b, x in enumerate(s) if b != w))
        if line not in payments:
            payments[line] = outcome(rule, v, s).payment
        total += ps * payments[line]
    return total
