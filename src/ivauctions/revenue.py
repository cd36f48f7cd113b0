"""Revenue via conditional monopoly reserves on top of any monotone rule.

Given a discrete prior over signal profiles, a bidder's winning conditional
monopoly reserve is the posted price maximizing price times acceptance
probability over her posterior, conditioned on her signal being at or above
her critical signal on the line.  The reserve-backed mechanism offers the
base rule's winner her winning reserve with one probability, and otherwise
draws a uniform bidder subset, reruns the base rule restricted to it, and
offers that winner her reserve under the restricted rule.  Expected revenue
is exact whenever support profiles times branches (the internal branch,
subsets and rule realizations) is small, and seeded Monte Carlo otherwise.

Every sale is settled by one array pass per bidder over the lines through
some profiles (the prior's support, a chunk of Monte Carlo draws, or one
profile), a chunk of stacked rules at a time: each line a bidder wins on at
one of the profiles gets its critical signal and winning reserve once, and
rules and values are read nowhere else.  Sums follow the one-line quote's
order and the profiles' order, so every float equals the one-profile-at-a-time
evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import accumulate, permutations
from typing import Iterator, Optional, Sequence

import numpy as np

# lazy_winner is bound here, as in ``oracle``: sampled grid rules and the
# benchmark's tracer reach the lazy chain through this module's namespace.
from .mechanisms import (
    NO_WINNER,
    AllocationTable,
    IncompatibleMechanism,
    Rule,
    _called_at,
    _critical_signals,
    _grid_tables,
    _high_if_possible_winners,
    _on_grid,
    _ratios,
    _required_c,
    _trusted,
    _winner_values,
    as_table,
    lazy_winner,
)
from .model import (
    DEFAULT_PROFILE_CAP,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    _sample_count,
    _sequential_sums,
    mean_and_stderr,
    validate_permutation,
)
from .oracle import MC_CHUNK

PROB_TOL = 1e-12


class UndefinedReserve(ValidationError):
    """The conditioning event of a reserve quote has probability zero (or no critical signal)."""


@dataclass(frozen=True, eq=False)
class JointPrior:
    """Discrete joint distribution over signal profiles.

    Built from either per-bidder ``marginals`` (a product prior) or an explicit
    sparse ``atoms`` mapping, and stored as one read-only dense array ``probs``
    over the grid, and nothing else: marginals multiplied in bidder order,
    repeated atoms summed in insertion order.  Probabilities must be
    nonnegative (not NaN) and sum to 1 within 1e-12.  Priors compare by identity.
    """

    space: SignalSpace
    marginals: InitVar[Optional[Sequence[np.ndarray]]] = None
    atoms: InitVar[Optional[dict[tuple[int, ...], float]]] = None
    probs: np.ndarray = field(init=False, repr=False)

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
                if not np.all(arr >= 0):  # NaN fails too
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
                if not p >= 0:  # NaN fails too
                    raise ValidationError("probabilities must be nonnegative")
                probs[profile] += float(p)
                total += float(p)
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(f"atom probabilities sum to {total}, not 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def from_json(obj: dict, space: SignalSpace) -> "JointPrior":
        """Parse the wire form on ``space``, the instance's grid; missing or ill-typed
        keys raise ``ValidationError``."""
        try:
            kind = obj.get("kind")
            if kind == "product":
                marginals = [np.array([_json_prob(x) for x in m]) for m in obj["marginals"]]
                return JointPrior(space=space, marginals=tuple(marginals))
            if kind == "sparse":
                atoms: dict[tuple, float] = {}
                for a in obj["atoms"]:  # a repeated profile sums its atoms in file order
                    key = tuple(a["profile"])
                    atoms[key] = atoms.get(key, 0.0) + _json_prob(a["p"])
                return JointPrior(space=space, atoms=atoms)
        except KeyError as e:
            raise ValidationError(f"prior is missing key {e}") from e
        except ValidationError:
            raise
        except (AttributeError, TypeError, ValueError) as e:
            raise ValidationError(f"malformed prior: {e}") from e
        raise ValidationError(f"unknown prior kind {kind!r}")


def _json_prob(p) -> float:
    """A probability of the wire form: a JSON number, not a string or a bool."""
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        raise ValidationError(f"probability {p!r} is not a number")
    return float(p)


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


#: Cells one chunk of an array pass may hold, half a MB per float array: a quote chunk's
#: (candidate price, line entry) block, or a rule chunk's tables at points and functions' pairs.
_CHUNK_CELLS = 1 << 16

def _row_sums(entries: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.sum`` of each row of a ragged array, bit for bit.

    Row r is the next ``counts[r]`` entries of ``entries``.  The rows of one
    length are gathered into one C-contiguous block and summed along its
    rows, which NumPy does exactly as it sums each row as a 1-D array.  When
    few rows share a length (one line's candidate prices), each row is
    summed as its own slice instead, which takes fewer NumPy calls.
    """
    lengths = np.flatnonzero(np.bincount(counts))
    ends = np.cumsum(counts)
    if counts.size <= 4 * lengths.size:
        return np.array([entries[e - c : e].sum() for c, e in zip(counts.tolist(), ends.tolist())])
    starts = ends - counts
    sums = np.empty(counts.size)
    for c in lengths:
        rows = np.flatnonzero(counts == c)
        sums[rows] = entries[starts[rows, None] + np.arange(c)].sum(axis=1)
    return sums


def _monopoly_quotes(
    values: np.ndarray, probs: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Winning reserves of many lines at once: (price, expected revenue) per row.

    Row r quotes the line ``values[r]`` under the joint probabilities
    ``probs[r]``, conditioned on the own signal being at least ``start[r]``
    (a signal of the line).  The price is the support value of the posterior
    that maximizes price times acceptance probability; prices ascend, so
    revenue ties go to the higher price.  The price always sits on a value of
    the line.  NaN marks a conditioning event of probability zero.  Each mass
    and each acceptance probability sums the same entries in the same order
    as ``np.sum`` over the row's suffix, so every float equals the one-line
    loop's.
    """
    m, width = values.shape
    price, gain = np.full((2, m), np.nan)
    step = max(1, _CHUNK_CELLS // (width * width))
    for lo in range(0, m, step):
        vals, joint, first = values[lo : lo + step], probs[lo : lo + step], start[lo : lo + step]
        on = np.arange(width) >= first[:, None]
        mass = _row_sums(joint[on], width - first)
        rows = np.flatnonzero(mass > 0)
        if rows.size < mass.size:  # drop the undefined quotes
            vals, joint, on, mass = vals[rows], joint[rows], on[rows], mass[rows]
        posterior = joint / mass[:, None]
        line, t = np.nonzero(on & (posterior > 0))  # each candidate price, by line
        offer = vals[line, t]
        accepts = np.where(on, vals, -np.inf)[line] >= offer[:, None]
        rev = np.full(vals.shape, -np.inf)
        rev[line, t] = offer * _row_sums(posterior[line][accepts], accepts.sum(axis=1))
        best = rev.max(axis=1)
        price[lo + rows] = np.where(rev == best[:, None], vals, -np.inf).max(axis=1)
        gain[lo + rows] = best
    return price, gain


def _distinct(flat: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D integer array.

    A sort and a neighbour comparison: ``np.unique`` without an inverse takes
    a hashing path that is several times slower on these arrays.
    """
    flat = np.sort(flat)
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


class _SupportLines:
    """Every line through some profiles (flat grid indices), for each bidder.

    A bidder's line is her own signal's axis at fixed others' signals; the
    profiles default to the prior's support, row-major.  Each bidder's lines
    are numbered after the previous bidder's, ``column[i, j]`` is the number
    of bidder i's line through the j-th profile, and ``probs[j]`` that
    profile's probability.  No winner (-1) reads line ``count``, always NaN.
    """

    def __init__(self, prior: JointPrior, v: ValuationInstance, profiles=None):
        _on_grid(prior.space, v, "prior")
        shape = v.space.shape
        flat_probs = prior.probs.reshape(-1)
        self.profiles = np.flatnonzero(flat_probs > 0) if profiles is None else profiles
        signals = np.unravel_index(self.profiles, shape)
        strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]  # flat steps
        firsts, columns, points = [], [], []
        self.count = 0
        for i, (width, stride) in enumerate(zip(shape, strides)):
            starts = self.profiles - signals[i] * stride
            heads = _distinct(starts)
            firsts.append(self.count)
            columns.append(self.count + np.searchsorted(heads, starts))
            points.append(heads[:, None] + stride * np.arange(width))
            self.count += len(heads)
        self.column = np.stack(columns + [np.full(self.profiles.size, self.count)])
        self.near = _distinct(np.concatenate([p.ravel() for p in points]))
        self.at_profile = np.searchsorted(self.near, self.profiles)
        values = v.values_at_batch(np.stack(np.unravel_index(self.near, shape), axis=1))
        self.values = values[self.at_profile]  # (profiles, n)
        self.probs = flat_probs[self.profiles]
        # per bidder: her first line's number, then per line its points' places in
        # ``near``, her values and the joint probabilities
        near_at = [np.searchsorted(self.near, at) for at in points]
        self.bidders = [(first, p, values[p, i], flat_probs[at])
                        for i, (first, p, at) in enumerate(zip(firsts, near_at, points))]


def _line_quotes(
    lines: _SupportLines, v: ValuationInstance, rules: Sequence, at=None, quote: bool = True
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Quotes of R rules at the lines' profiles, one pass per bidder and chunk of rules.

    Rule r is read at the j-th profile for each key ``r * len(profiles) + j``
    of the sorted array ``at`` (default: every pair): a table is gathered at
    the lines' points, a function called at its profiles and where the
    bisection probes.  Yields, per chunk of rules, the winners at its pairs
    and a (3, pairs) array: the winner's value at her critical signal and (if
    ``quote``) her winning reserve's price and expected revenue, NaN for none.
    Every price is checked to dominate the critical value.
    """
    size, m = lines.near.size, lines.profiles.size
    npairs = [m] * len(rules) if at is None else np.bincount(at // m, minlength=len(rules)).tolist()
    cells = accumulate(size if isinstance(r, AllocationTable) else k for r, k in zip(rules, npairs))
    chunk_of = [c // _CHUNK_CELLS for c in cells]
    splits = [r for r in range(1, len(rules)) if chunk_of[r] != chunk_of[r - 1]]
    ends = [first for first, *_ in lines.bidders] + [lines.count]  # each bidder's lines
    for lo, hi in zip([0] + splits, splits + [len(rules)]):
        chunk = rules[lo:hi]
        calls = [_trusted(r, v) for r in chunk]
        span = [lo * m, hi * m]
        pairs = np.arange(*span) if at is None else at[slice(*np.searchsorted(at, span))]
        rule, place = np.divmod(pairs - span[0], m)
        tables = [r for r, t in enumerate(chunk) if isinstance(t, AllocationTable)]
        row = np.full(len(chunk), -1)  # a function's row is read, then called over
        row[tables], lazy = range(len(tables)), len(tables) < len(chunk)
        read = (np.array([chunk[r].winner.reshape(-1)[lines.near] for r in tables]) if tables
                else np.broadcast_to(NO_WINNER, (1, size)))
        called: dict = {}  # a function's winners, by rule * size + point

        def winners(rows, points):
            """Rule ``rows[e]``'s winner at ``points[e]``; a function is called once a point."""
            got = read[row[rows], points]
            if lazy:
                ask = np.flatnonzero(row[rows] < 0)
                asked = (rows[ask] * size + points[ask]).tolist()
                new = np.array(sorted({k for k in asked if k not in called}), dtype=np.intp)
                cuts = np.flatnonzero(np.diff(new // size)) + 1  # one part per rule
                for part in np.split(new, cuts) if new.size else ():
                    found = _called_at(calls[part[0] // size], v, lines.near[part % size])
                    called.update(zip(part.tolist(), found.tolist()))
                got[ask] = [called[k] for k in asked]
            return got

        won = winners(rule, lines.at_profile[place])
        line = lines.column[won, place]
        pair = line * len(chunk) + rule
        keys = _distinct(pair)  # line-major, so each bidder's lines are one block
        kline, krule = np.divmod(keys, len(chunk))
        per_key = np.full((3, keys.size), np.nan)
        bounds = np.searchsorted(kline, ends).tolist()
        for i, (first, points, values, joint) in enumerate(lines.bidders):
            a, b = bounds[i : i + 2]
            if a == b:  # she wins on none of the chunk's lines
                continue
            ln, rr = kline[a:b] - first, krule[a:b]
            crit = _critical_signals(
                lambda e, t: winners(rr[e], points[ln[e], t]) == i, points.shape[1] - 1
            )
            ok = crit >= 0
            ln, crit, keyed = ln[ok], crit[ok], per_key[:, a:b]  # a view
            keyed[0, ok] = values[ln, crit]
            if quote:
                keyed[1:, ok] = _monopoly_quotes(values[ln], joint[ln], crit)
        assert not np.any(per_key[1] < per_key[0]), "reserve must dominate the critical value"
        yield won, per_key[:, np.searchsorted(keys, pair)]


def winning_reserve(
    prior: JointPrior, v: ValuationInstance, rule: Rule, i: int, s_minus_i: Sequence[int]
) -> ReserveQuote:
    """Monopoly price for bidder i given others at s_minus_i and s_i at least critical.

    The price dominates her value at her critical signal, so posting it keeps
    the rule truthful.  It is the pass at the line's top, where the bisection starts.
    """
    context = v.space.validate_line(i, s_minus_i)
    top = np.ravel_multi_index(context[:i] + (v.space.sizes[i],) + context[i:], v.space.shape)
    [(won, quotes)] = _line_quotes(_SupportLines(prior, v, np.array([top])), v, [rule])
    if won[0] != i:
        raise UndefinedReserve(f"bidder {i} never wins on line {context}")
    _, price, gain = quotes[:, 0].tolist()
    if math.isnan(price):
        raise UndefinedReserve("conditioning event has zero probability")
    return ReserveQuote(price=price, expected_revenue=gain)


# ---------------------------------------------------------------------------
# Rule families: a base rule plus its restriction to any bidder subset.
# ---------------------------------------------------------------------------


class RuleFamily:
    """A monotone allocation rule defined for every sub-market of an instance.

    ``realizations(Z)`` yields (probability, rule) pairs covering the family's
    internal randomness for a non-empty bidder subset Z; each rule (a function
    or a table on ``v``'s grid) maps a full reported profile to a winner in Z.
    Restricted rules rerun the same algorithm over the bidders in Z, with the
    others' reported signals held fixed in every evaluation and never winning.
    """

    def __init__(self, v: ValuationInstance):
        self.v = v
        # One rule object per key, so the pass settles each drawn rule's repeats together.
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
    table itself: ``realizations`` colors the tables of a subset's orderings
    (or of its one induced ordering) in one lockstep ``_grid_tables`` call and
    keeps one table object per ordering.  A sampled draw reads one profile's
    lines, so there the rule is the lazy chain, which keeps nothing grid-sized
    per ordering.
    """

    def __init__(
        self, v: ValuationInstance, pi: Optional[Sequence[int]] = None, c: Optional[float] = None
    ):
        super().__init__(v)
        self.pi = None if pi is None else validate_permutation(pi, v.n)
        self.c = _required_c(v, c)

    def realizations(self, bidders):
        if self.pi is None:
            orders = list(permutations(bidders))
        else:
            orders = [tuple(b for b in self.pi if b in bidders)]
        new = [order for order in orders if (order, True) not in self._rules]
        if new:  # every new ordering's table in one call
            for order, winner in zip(new, _grid_tables(self.v, np.array(new, dtype=np.intp), self.c)):
                self._rules[order, True] = AllocationTable(space=self.v.space, winner=winner)
        return [(1.0 / len(orders), self._rules[order, True]) for order in orders]

    def sample_rule(self, bidders, rng):
        if self.pi is None:
            order = list(bidders)
            rng.shuffle(order)
        else:
            order = [b for b in self.pi if b in bidders]
        return self._lazy_rule(tuple(order))

    def _lazy_rule(self, order: tuple[int, ...]) -> Rule:
        if (order, False) not in self._rules:
            self._rules[order, False] = lambda profile: lazy_winner(self.v, order, profile, c=self.c)
        return self._rules[order, False]

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

        Each table is ``high_if_possible``'s winner array of the slice of ``v``
        at those signals, read with one ``values_at_batch`` call, which checks
        the values: only the slices a caller reaches are evaluated.
        """
        v = self.v
        dropped = tuple(b for b in range(v.n) if b not in keep)
        shape = (2,) * len(keep)
        on = np.array([b in keep for b in range(v.n)])
        grid = np.indices(np.where(on, 2, 1)).reshape(v.n, -1).T  # sub-profiles, row-major
        tables: dict[tuple[int, ...], np.ndarray] = {}

        def rule(profile: tuple[int, ...]) -> Optional[int]:
            fixed = tuple(profile[b] for b in dropped)
            if fixed not in tables:
                full = np.where(on, grid, profile)  # the slice's profiles
                values = v.values_at_batch(full)[:, keep].T.reshape((len(keep),) + shape)
                tables[fixed] = _high_if_possible_winners(values, self.c)
            return keep[tables[fixed][tuple(profile[b] for b in keep)]]

        return rule


def family_worst_ratio(family: RuleFamily, v: ValuationInstance) -> float:
    """Worst per-profile welfare ratio of a deterministic family over all sub-markets.

    This is the approximation constant the revenue reduction actually needs:
    every restriction of the rule must cover the best bidder of its own
    sub-market at every profile.  Each sub-market is one array pass over its
    rule's table.
    """
    _on_grid(family.v.space, v, "family")
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
    #: The empty subset's rule: no one is offered the item.
    _nobody = staticmethod(lambda profile: None)

    def __post_init__(self):
        finite = math.isfinite(self.alpha) and math.isfinite(self.d)
        if not finite or self.alpha < 1 or self.d < 1 or not 0 < self.p <= 1:
            raise ValidationError("need finite alpha >= 1 and d >= 1, and 0 < p <= 1")
        _on_grid(self.prior.space, self.v, "prior")
        _on_grid(self.family.v.space, self.v, "family")

    @property
    def branch_a_prob(self) -> float:
        a, d, p = self.alpha, self.d, self.p
        return (a * a + 1.0) / (a * a + 4.0 * a * d / (p * p) + 1.0)

    @cached_property
    def _heads(self) -> list:
        """Every internal branch as (prob, branch, rule, row), in ``profile_events`` order.

        The full market's realizations, the empty subset (``_nobody``, row 0),
        then each subset's realizations.  A rule that serves several branches
        (the full market is also a subset) has one row of the stacked pass.
        """
        n = self.v.n
        qa = self.branch_a_prob
        qb = (1.0 - qa) / 2**n
        branches = [(qa * pr, "full", rule) for pr, rule in self.family.realizations(tuple(range(n)))]
        branches.append((qb, "subset", self._nobody))
        for mask in range(1, 2**n):
            keep = tuple(b for b in range(n) if mask >> b & 1)
            branches += [(qb * pr, "subset", rule) for pr, rule in self.family.realizations(keep)]
        rows: dict = {self._nobody: 0}
        return [(*branch, rows.setdefault(branch[2], len(rows))) for branch in branches]

    @cached_property
    def _branches(self) -> tuple:
        """One stacked pass over the support's lines for the rows of ``_heads``.

        Each (rule, bidder, line) is quoted once; row 0 offers no one a price.
        Kept, from first use: the support profiles' probabilities and, per
        (row, support profile), the sale: the offered price where the winner's
        value reaches it, else 0 (a NaN price is no offer).
        """
        rules = {r: rule for *_, rule, r in self._heads}
        lines = _SupportLines(self.prior, self.v)
        # filled row by row as the pass yields, so pages are touched as they are needed
        sale = np.empty((len(rules), lines.probs.size))
        cells = sale.reshape(-1)
        cells[: lines.probs.size], lo = 0.0, lines.probs.size
        offers = _line_quotes(lines, self.v, [rules[r] for r in range(1, len(rules))])
        for won, (_, price, _) in offers:
            value = np.take_along_axis(lines.values.T, won.reshape(-1, lines.probs.size), axis=0)
            cells[lo : lo + price.size] = np.where(value.reshape(-1) >= price, price, 0.0)
            lo += price.size
        return lines.probs, sale

    def _settle(self, rules: Sequence, flat: np.ndarray) -> tuple:
        """Each draw's winner, offered price (NaN: no offer) and, under an offer, her
        value: draw d is rule ``rules[d]`` at flat profile ``flat[d]``, and each (rule,
        profile) drawn is settled once, in one pass at the draws' profiles."""
        row: dict = {}
        ids = np.array([row.setdefault(rule, len(row)) for rule in rules])
        profiles = _distinct(flat)
        key = ids * profiles.size + np.searchsorted(profiles, flat)
        pairs = _distinct(key)  # rule-major, then profile
        lines = _SupportLines(self.prior, self.v, profiles)
        parts = zip(*_line_quotes(lines, self.v, list(row), pairs))
        won, quotes = (np.concatenate(x, axis=-1) for x in parts)
        pick = np.searchsorted(pairs, key)
        return won[pick], quotes[1, pick], lines.values[pairs % profiles.size, won][pick]

    def _events(self, branches: Sequence, s: tuple[int, ...]) -> list[RevenueEvent]:
        """Each (prob, branch, rule, ...) at the validated profile s as an event, in one pass."""
        flat = np.full(len(branches), np.ravel_multi_index(s, self.v.space.shape))
        settled = (x.tolist() for x in self._settle([b[2] for b in branches], flat))
        return [
            RevenueEvent(prob, 0.0, None, None, None, branch) if math.isnan(p)  # no offer
            else RevenueEvent(prob, p if x >= p else 0.0, i if x >= p else None, p, x, branch)
            for (prob, branch, *_), i, p, x in zip(branches, *settled)
        ]

    def profile_events(self, s: Sequence[int]) -> list[RevenueEvent]:
        """Every internal branch at one reported profile as an event object."""
        s = self.v.space.validate_profile(s)
        return self._events(self._heads, s)

    def enumeration_size(self) -> int:
        n = self.v.n
        subset_realizations = sum(
            math.comb(n, m) * self.family.realization_count(m) for m in range(n + 1)
        )
        per_profile = self.family.realization_count(n) + subset_realizations
        return int(np.count_nonzero(self.prior.probs)) * per_profile

    def _draw(self, rng: random.Random) -> tuple[float, str, Rule]:
        """One internal-randomness draw as (1.0, branch, rule)."""
        if rng.random() < self.branch_a_prob:
            return 1.0, "full", self.family.sample_rule(tuple(range(self.v.n)), rng)
        keep = tuple(b for b in range(self.v.n) if rng.random() < 0.5)
        return 1.0, "subset", self.family.sample_rule(keep, rng) if keep else self._nobody

    def sample_event(self, s: Sequence[int], rng: random.Random) -> RevenueEvent:
        """One internal-randomness draw at one reported profile."""
        s = self.v.space.validate_profile(s)
        return self._events([self._draw(rng)], s)[0]


def expected_revenue(
    mechanism: ReserveBackedMechanism,
    cap: int = DEFAULT_PROFILE_CAP,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Expected revenue with its standard error (zero when computed exactly).

    Under the cap on support profiles times branches it is exact: one
    sequential sum of ``ps * prob * sale`` over the stacked pass, profiles
    row-major and branches in ``profile_events`` order, as an event loop adds
    them; each chunk's terms carry the running total and are summed in place.
    Otherwise profiles are drawn by a seeded search of the prior's cumulative
    probabilities, then branches with ``sample_event``'s ``rng`` calls, and
    each chunk of ``MC_CHUNK`` draws is settled by one pass, in draw order.
    """
    if mechanism.enumeration_size() <= cap:
        heads = mechanism._heads
        ps, sale = mechanism._branches
        probs = np.array([prob for prob, *_ in heads])
        assert abs(_sequential_sums(probs) - 1.0) < 1e-9, "branch probabilities must sum to 1"
        rows = [r for *_, r in heads]
        total, step = 0.0, max(1, _CHUNK_CELLS // len(heads))
        for lo in range(0, ps.size, step):
            terms = ps[lo : lo + step, None] * probs
            terms *= sale[rows, lo : lo + step].T
            terms = terms.reshape(-1)
            terms[0] += total
            total = 0.0 + float(np.cumsum(terms, out=terms)[-1])
        return total, 0.0
    samples = _sample_count(samples)
    rng = random.Random(seed)
    support = np.flatnonzero(mechanism.prior.probs)  # row-major
    cum = np.cumsum(mechanism.prior.probs.reshape(-1)[support])

    def draws():
        for lo in range(0, samples, MC_CHUNK):
            at, rules = [], []  # per draw: its place in the support, its rule
            for _ in range(min(MC_CHUNK, samples - lo)):
                at.append(min(int(np.searchsorted(cum, rng.random() * cum[-1])), support.size - 1))
                rules.append(mechanism._draw(rng)[2])
            _, price, value = mechanism._settle(rules, support[at])
            yield from np.where(value >= price, price, 0.0).tolist()

    return mean_and_stderr(draws())


def _lookahead_totals(prior: JointPrior, v: ValuationInstance, rules: Sequence) -> np.ndarray:
    """Lookahead of each of R rules, summed over the support in row-major order.

    The runner-up is read from each support profile's two highest values,
    the second one when the rule's winner holds the first, so no array
    grows with R beyond one chunk of rules.
    """
    lines = _SupportLines(prior, v)
    top = lines.values.argmax(axis=1)
    held = np.arange(v.n) == top[:, None]  # who holds each profile's top value
    first = lines.values[held]
    second = np.where(held, -np.inf, lines.values).max(axis=1)
    second[second == -np.inf] = 0.0  # a lone bidder's win has no rival
    totals = []
    for winners, quotes in _line_quotes(lines, v, rules):
        winners, gain = (x.reshape(-1, lines.probs.size) for x in (winners, quotes[2]))
        reserve = np.where(np.isnan(gain), 0.0, gain)  # undefined reserves earn nothing
        runner = np.where(winners == top, second, first)
        totals.append(_sequential_sums(lines.probs * (reserve + runner)))
    return np.concatenate(totals)


def lookahead_benchmark(prior: JointPrior, v: ValuationInstance, rule: Rule) -> float:
    """Upper bound on optimal revenue for a deterministic monotone rule.

    Per profile: the winner's winning-reserve expected revenue on her line plus
    the highest-valued non-winner's value, averaged over the prior.  Undefined
    reserves (possible only off the support) contribute zero.  The rule is
    read only on the lines through the support.
    """
    return float(_lookahead_totals(prior, v, [rule])[0])


def lookahead_benchmark_family(
    prior: JointPrior, v: ValuationInstance, family: RuleFamily
) -> float:
    """Lookahead averaged over the family's full-market rule realizations.

    The realizations are settled together, one pass per bidder.
    """
    _on_grid(family.v.space, v, "family")
    probs, rules = zip(*family.realizations(tuple(range(v.n))))
    return float(_sequential_sums(np.array(probs) * _lookahead_totals(prior, v, rules)))


def expected_payment_revenue(rule: Rule, v: ValuationInstance, prior: JointPrior) -> float:
    """Expected critical-signal payment revenue of a rule under truthful play.

    The winner's payment depends only on her line, so it is settled once per
    (winner, others' signals) line the support reaches; profiles without a
    winner pay nothing.
    """
    lines = _SupportLines(prior, v)
    [(winners, quotes)] = _line_quotes(lines, v, [rule], quote=False)
    won, paid = winners != NO_WINNER, quotes[0]
    assert not np.isnan(paid[won]).any(), "winner must have a critical signal on her own line"
    return float(_sequential_sums(lines.probs * np.where(won, paid, 0.0)))
