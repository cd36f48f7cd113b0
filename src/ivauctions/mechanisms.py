"""Allocation mechanisms: monotone coloring rules, payments, and verifiers.

Every mechanism here outputs a deterministic allocation that is monotone in
each bidder's own signal, which is exactly what makes it implementable with
the critical-signal payment (the winner pays her value at the smallest own
signal that still wins).  Ties in argmax comparisons always break to the
lowest bidder index, and "fails to alpha-approximate" always means the strict
inequality v_j > alpha * v_i, so every run is replayable.

The randomized mechanism draws a uniform bidder ordering with a seeded
generator and runs the deterministic grid mechanism for that ordering, so it
is universally truthful: each realized ordering yields a monotone rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .model import (
    _TABULATE_CHUNK,
    DEFAULT_PROFILE_CAP,
    INFINITE,
    CapExceeded,
    SignalSpace,
    ValidationError,
    ValuationInstance,
    _bidders,
    _context_profile,
    compute_c,
)

NO_WINNER = -1

#: Utility slack of the truthfulness sweep, relative to the largest value (at least 1).
REL_TOL = 1e-9

#: A winner function of a profile (None: the item is kept); an ``AllocationTable`` is one.
Rule = Callable[[tuple[int, ...]], Optional[int]]


class IncompatibleMechanism(ValidationError):
    """Mechanism preconditions (bidder count, signal sizes, finite c) not met."""


@dataclass(frozen=True, eq=False)
class AllocationTable:
    """Winner for every profile of the grid; NO_WINNER entries mean the item is kept.

    A table is a ``Rule`` (calling it checks the profile) and is hashed by identity.
    """

    space: SignalSpace
    winner: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.winner)
        if arr.dtype.kind not in "iu":
            raise ValidationError("winner entries must be integers")
        arr = arr.astype(np.int32)  # a copy
        if arr.shape != self.space.shape:
            raise ValidationError(f"winner shape {arr.shape} != {self.space.shape}")
        if arr.max(initial=NO_WINNER) >= self.space.n or arr.min(initial=0) < NO_WINNER:
            raise ValidationError("winner entries must be NO_WINNER or valid bidders")
        arr.flags.writeable = False
        object.__setattr__(self, "winner", arr)

    def __call__(self, profile: Sequence[int]) -> Optional[int]:
        return self._lookup(self.space.validate_profile(profile))

    def _lookup(self, profile: tuple[int, ...]) -> Optional[int]:
        """The table's winner at a profile already checked to lie on the grid."""
        w = int(self.winner[profile])
        return None if w == NO_WINNER else w

    def to_json(self) -> dict:
        flat = self.winner.reshape(-1).tolist()
        return {
            "sizes": list(self.space.sizes),
            "winner": [None if w == NO_WINNER else w + 1 for w in flat],
        }


@dataclass(frozen=True)
class Outcome:
    """Realized winner, payment, and the winner's critical signal for one profile."""

    winner: Optional[int]
    payment: float
    critical_signal: Optional[int]

    def __post_init__(self):
        if self.winner is None and self.payment != 0.0:
            raise ValidationError("no winner implies zero payment")
        if self.payment < 0:
            raise ValidationError("payments are nonnegative")

    def to_json(self) -> dict:
        return {
            "winner": None if self.winner is None else self.winner + 1,
            "payment": self.payment,
            "critical_signal": self.critical_signal,
        }


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def random_permutation(n: int, seed: int) -> tuple[int, ...]:
    """Uniform ordering via seeded Fisher-Yates."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return tuple(order)


def _required_c(v: ValuationInstance, c: Optional[float]) -> float:
    c = compute_c(v) if c is None else float(c)
    if not c >= 1:  # NaN fails too
        raise ValidationError("c must be >= 1")
    if c == math.inf:
        raise IncompatibleMechanism(
            "instance has an infinite crossing constant; no approximation "
            "mechanism applies"
        )
    return c


def generalized_vcg(v: ValuationInstance) -> AllocationTable:
    """Allocate to the highest-valued bidder everywhere.

    Only sound when the crossing constant is 1: then the argmax bidder keeps
    the argmax as her signal grows, so the table is monotone and welfare is
    exact at every profile.
    """
    c = compute_c(v)
    if c != 1.0:
        raise IncompatibleMechanism(
            f"argmax allocation needs crossing constant 1, measured {c}; "
            "monotonicity is not guaranteed otherwise"
        )
    dense = v.tabulated().values
    winner = np.argmax(dense, axis=0).astype(np.int32)
    return AllocationTable(space=v.space, winner=winner)


def two_bidder_coloring(v: ValuationInstance, c: Optional[float] = None) -> AllocationTable:
    """Frontier walk for two bidders.

    Starting at (0,0), allocate the current cell to the argmax bidder,
    propagate along that bidder's axis, and advance the loser's signal.  The
    walk fills the grid exactly once and the result is monotone with a
    per-profile welfare ratio of at most the crossing constant.
    """
    if v.n != 2:
        raise IncompatibleMechanism(f"two-bidder walk needs n=2, got n={v.n}")
    _required_c(v, c)
    dense = v.tabulated().values
    k1, k2 = v.space.sizes
    winner = np.full(v.space.shape, NO_WINNER, dtype=np.int32)
    s = [0, 0]
    while s[0] <= k1 and s[1] <= k2:
        i = int(np.argmax(dense[:, s[0], s[1]]))  # the first maximizer
        j = 1 - i
        if i == 0:
            ray = winner[s[0] :, s[1]]
        else:
            ray = winner[s[0], s[1] :]
        assert np.all(ray == NO_WINNER), "walk revisited a colored cell"
        ray[...] = i
        s[j] += 1
    assert np.all(winner != NO_WINNER), "walk left the grid partially colored"
    return AllocationTable(space=v.space, winner=winner)


def high_if_possible(v: ValuationInstance, c: Optional[float] = None) -> AllocationTable:
    """Two-signal mechanism favoring bidders whose signal is already high.

    Profiles are settled by increasing number of high signals.  At an
    undetermined profile the best high bidder wins if the overall argmax is
    within a factor c of her value; otherwise the argmax bidder wins and the
    win is propagated to her high-signal neighbor.  High winners need no
    propagation, which is what keeps the allocation conflict-free.
    """
    if any(k != 1 for k in v.space.sizes):
        raise IncompatibleMechanism("high-if-possible needs two signals per bidder")
    c = _required_c(v, c)
    return AllocationTable(space=v.space, winner=_high_if_possible_winners(v.tabulated().values, c))


def _high_if_possible_winners(values: np.ndarray, c: float) -> np.ndarray:
    """``high_if_possible``'s winners on an (n, 2, ..., 2) value array, without an instance.

    Every profile's own choice is settled at once, then the propagations, one
    array step per weight class (profiles of one weight write only themselves
    and the next weight); two reaching one profile raise the walk's conflict.
    Besides the values it keeps one bool per (bidder, profile) and a few per profile.
    """
    n, shape = len(values), values.shape[1:]
    vals = values.reshape(n, -1)  # (n, profiles), a row-major view
    high = np.indices(shape, dtype=bool).reshape(n, -1)
    best, ih = np.full(vals.shape[1], -np.inf), np.zeros(vals.shape[1], dtype=np.intp)
    for i in range(n):
        better = high[i] & (vals[i] > best)  # ties stay with the lowest; -inf without one
        best = np.where(better, vals[i], best)
        ih = np.where(better, i, ih)
    top = vals.max(axis=0)
    istar = (vals == top).argmax(axis=0)  # vals.argmax(axis=0) would copy vals
    moves = top > c * best  # never with a high argmax bidder, as c >= 1
    winner = np.where(moves, istar, ih)
    weight = high.sum(axis=0)
    for w in range(n):
        src = np.flatnonzero(moves & (weight == w))
        i = istar[src]
        to = src + (1 << (n - 1 - i))  # the argmax bidder's high neighbour, in row-major order
        moves[to] = False  # settled by the propagation
        winner[to] = i
        clash = to[winner[to] != i]  # two sources of one profile differ in their argmax
        if clash.size:
            q = tuple(int(x) for x in np.unravel_index(clash[0], shape))
            raise AssertionError(f"propagation conflict at {q}")
    return winner.reshape(shape)


def hypergrid_coloring(
    v: ValuationInstance, pi: Sequence[int], c: Optional[float] = None
) -> AllocationTable:
    """Order-driven grid coloring: a deterministic (n-1)c-approximation.

    Bidders enter in the order ``pi``.  The first bidder tentatively wins its
    whole axis.  When bidder number j enters, each cell of its zero layer has
    a standing winner w, and the cell's winner at entrant level s is j iff some
    level 0..s trips the lazy chain's test ``_reallocates`` against w: the best
    of the first j bidders beats (j-1)c times w, or the entrant alone beats c
    times w.  A trigger sticks, since the test against j itself can only pick
    j again, so this is the chain's rule at every cell.

    ``pi`` may order any non-empty subset of the bidders (``lazy_winner``'s
    contract): the others keep their whole axis in every iteration and never
    win, so each slice of the table is the sub-market at their reports.  The
    table is ``_grid_tables``' one-row call.
    """
    order = _validate_order(pi, v.n)
    c = _required_c(v, c)
    [winner] = _grid_tables(v, np.array([order], dtype=np.intp), c)
    return AllocationTable(space=v.space, winner=winner)


#: Cells of grid tables colored together by ``_grid_tables``; bounds its temporaries.
_TABLE_CELLS = 1 << 16


def _grid_tables(v, orders, c):
    """``hypergrid_coloring``'s winner arrays for each row of a (R, m) array of orderings.

    The rows are colored in lockstep, in chunks of about ``_TABLE_CELLS`` cells.
    At entrant number it, the rows that order the same subset and have entered
    the same set with the same entrant j work on the same sub-grid (the rest of
    their subset at 0, everyone else on their whole axis), so one array step
    colors such a group against each row's own standing winners.  The first
    entrant's fill covers the whole table: the last entrant recolors every
    cell, and each earlier one reads only its predecessor's sub-grid.
    """
    dense = v.tabulated().values
    n, (R, m) = v.n, orders.shape
    flat, cells = dense.reshape(n, -1), np.arange(dense[0].size).reshape(v.space.shape)
    out = np.empty((R,) + v.space.shape, dtype=np.int32)
    chunk = max(1, _TABLE_CELLS // cells.size)
    for lo in range(0, R, chunk):
        P, tables = orders[lo : lo + chunk], out[lo : lo + chunk]
        tables[...] = P[:, :1].reshape((-1,) + (1,) * n)
        rows = P.tolist()
        subsets = [sum(1 << b for b in order) for order in rows]
        entered = [1 << order[0] for order in rows]
        for it in range(1, m):
            groups: dict = {}
            for r, order in enumerate(rows):
                entered[r] |= 1 << order[it]
                groups.setdefault((subsets[r], entered[r], order[it]), []).append(r)
            for g in groups.values():
                order = rows[g[0]]
                j, later = order[it], order[it + 1 :]
                # bidders yet to enter sit at signal 0, the rest keep their whole axis (a view)
                sub = (slice(None),) + tuple(0 if a in later else slice(None) for a in range(n))
                ax = sum(a not in later for a in range(j))  # the view keeps its axes in bidder order
                layers, vals = tables[sub], dense[sub]
                at = slice(g[0], g[-1] + 1) if g[-1] - g[0] < len(g) else g  # the group's rows
                w = layers[(at,) + (slice(None),) * ax + (slice(0, 1),)]  # standing winners: j at 0
                vw = flat[w, cells[sub[1:]]]  # w's value at every level
                hit = _reallocates(vals[order[: it + 1]].max(axis=0), vals[j], vw, it, c)
                layers[at] = np.where(np.logical_or.accumulate(hit, axis=ax + 1), j, w)
    return out


def lazy_winner(
    v: ValuationInstance, pi: Sequence[int], s: Sequence[int], c: Optional[float] = None
) -> int:
    """Winner of the grid coloring at one profile, without building the table.

    Follows the tentative winner along the chain of intermediate profiles: a
    one-row ``lazy_winners``, at most (n-1)(k+1) profile evaluations in n-1
    batched calls.  Without ``c=``, ``c`` is measured once per instance
    object: the first call tabulates and scans the grid, later calls on ``v``
    look it up.

    ``pi`` may order any non-empty subset of the bidders: the rule is then the
    grid coloring of that sub-market, the others held at their reports.
    """
    order = _validate_order(pi, v.n)
    p = np.asarray(v.space.validate_profile(s), dtype=np.intp)
    c = _required_c(v, c)
    return int(_lazy_chain(v, np.array([order], dtype=np.intp), p, c)[0])


def lazy_winners(
    v: ValuationInstance,
    orders: Union[np.ndarray, Sequence[Sequence[int]]],
    s: Sequence[int],
    c: Optional[float] = None,
) -> np.ndarray:
    """Grid-mechanism winners at one profile for a batch of orderings.

    Entry b is ``lazy_winner(v, orders[b], s, c)`` for every row of the
    (B, n) array ``orders``: the same chain, run once over all rows.
    Evaluates at most B (1 + (n-1)k) profiles for B > 1 (one row: (n-1)(k+1))
    in n-1 ``values_at_batch`` calls.
    """
    P = _validate_orders(orders, v.n)
    p = np.asarray(v.space.validate_profile(s), dtype=np.intp)
    c = _required_c(v, c)
    return _lazy_chain(v, P, p, c)


def _validate_order(pi: Sequence[int], n: int) -> tuple[int, ...]:
    """An ordering of a non-empty subset of the bidders 0..n-1."""
    order = _bidders(pi)
    if not order or len(set(order)) != len(order) or not all(0 <= b < n for b in order):
        raise ValidationError(f"{order} is not an ordering of distinct bidders in 0..{n - 1}")
    return order


def _validate_orders(orders, n: int) -> np.ndarray:
    P = np.asarray(orders)
    if P.ndim != 2 or P.shape[1] != n or (P.size and P.dtype.kind not in "iu"):
        raise ValidationError(f"orderings must form a (B, {n}) integer array, got {P.shape}")
    P = P.astype(np.intp)
    bad = np.flatnonzero((np.sort(P, axis=1) != np.arange(n)).any(axis=1))
    if bad.size:
        row = tuple(P[bad[0]].tolist())
        raise ValidationError(f"row {int(bad[0])}: {row} is not a permutation of 0..{n - 1}")
    return P


def _lazy_chain(v, orders, p, c):
    """Grid winners at profile ``p`` for each row of a (B, m) array of orderings.

    Bidders outside a row's ordering keep their reports; its entrants after
    the first start at signal 0, and j takes over iff some level 0..p_j of
    j trips the reallocation test, one ``values_at_batch`` call per entrant.
    A batch evaluates each intermediate profile once: from the third entrant
    on, j's level 0 is the previous entrant's top level, whose values the
    chain carries, so j evaluates levels 1..p_j, at most 1 + (m-1)k rows per
    ordering.  A batch's second entrant, and every entrant of one row,
    evaluate levels 0..p_j: one row at most (m-1)(k+1) rows, since there one
    more row in the same call costs less than the carry's NumPy calls.  When
    every row has one level left, it is the row's profile in ``base`` (later
    entrants at 0, everyone else at their report), so a copy of ``base`` is
    evaluated; otherwise one gather of ``base`` rows holds every level.  The
    best entered value is a max over values plus a row that is 0 for
    entered bidders and -inf for the rest, exact since values are finite and
    non-negative.  The evaluator is only handed fresh arrays, and the chain
    writes into none it returned.
    """
    B, m = orders.shape
    rows = np.arange(B)
    carry = B > 1
    w = orders[:, 0].copy()
    base = np.repeat(p[None], B, axis=0)
    base[rows[:, None], orders[:, 1:]] = 0
    penalty = np.empty(base.shape)  # np.full takes a microsecond longer at one row
    penalty.fill(-np.inf)
    penalty[rows, w] = 0.0
    for it in range(1, m):
        j = orders[:, it]
        penalty[rows, j] = 0.0
        base[rows, j] = pj = p[j]  # so each row of base is its entrant's top level
        levels = span = pj + 1  # j's levels 0..p_j
        if carry and it > 1:  # level 0 from the carried values and their best entered bidder
            # best leaves out entrants at 0 since the row's last evaluation: with
            # c >= 1 each of them is worth at most best or c vw, so trips no test
            took = _reallocates(best, carried[rows, j], carried[rows, w], it, c)
            levels = pj  # j's levels 1..p_j
        else:
            took = np.zeros(B, dtype=bool)
        at = np.repeat(rows, levels)  # the row of each evaluated profile
        tops = np.count_nonzero(levels)  # rows with a level to evaluate
        if at.size == tops == B:  # one level in every row: the rows of base
            vals = v.values_at_batch(base.copy())
            top = (vals + penalty).max(axis=1)
            took |= _reallocates(top, vals[rows, j], vals[rows, w], it, c)
            carried, best = vals, top
        elif tops:
            ev = np.arange(len(at))
            starts = np.cumsum(levels) - span  # where each row's level 0 sits, evaluated or not
            ja = j[at]
            profiles = base[at]
            profiles[ev, ja] = ev - starts[at]  # j at each level evaluated
            vals = v.values_at_batch(profiles)
            top = (vals + penalty[at]).max(axis=1)
            took[at[_reallocates(top, vals[ev, ja], vals[ev, w[at]], it, c)]] = True
            if carry:  # j's top level is the next entrant's level 0
                last = starts + pj  # each row's top evaluated profile
                if tops == B:  # rebinding takes half the time of a masked copy
                    carried, best = vals[last], top[last]
                else:  # a row whose entrant reports 0 keeps its level-0 values
                    has = levels > 0
                    carried = carried.copy()  # it may be an array the evaluator returned
                    carried[has], best[has] = vals[last[has]], top[last[has]]
        w = np.where(took, j, w)
    return w


def _reallocates(top, vj, vw, m, c):
    """The chain's strict float64 test: entrant j, worth ``vj``, takes over from a
    standing winner worth ``vw`` when ``top``, the best of the m entered bidders
    and j, exceeds (m c) vw or j alone exceeds c vw."""
    return (top > (m * c) * vw) | (vj > c * vw)


def _entry_table(v, p, c):
    """The lazy chain's transitions at profile ``p``, keyed by entered set.

    ``T[S, w, j]`` is the standing winner after entrant j (not in the bitmask
    S) meets standing winner w (in S); other entries are -1.  The chain is
    Markov in (S, w): j's profiles hold S at its reports, j at each level
    0..p_j and everyone else at 0, and its test reads the best of S and j
    against |S| c.  So every ordering's winner is a walk through ``T``.  One
    ``values_at_batch`` call per layer |S| = 1..n-1 evaluates exactly
    sum over non-empty proper S, and j not in S, of (p_j + 1) profiles.
    """
    n = len(p)
    masks = np.arange(1 << n)
    member = (masks[:, None] >> np.arange(n)) & 1 == 1
    size = member.sum(axis=1)
    T = np.full((1 << n, n, n), -1, dtype=np.int8)
    for m in range(1, n):
        S = masks[size == m]
        inS = member[S]
        ws = np.nonzero(inS)[1].reshape(len(S), m)  # each set's members, ascending
        pair, j = np.nonzero(~inS)  # every (S, j) with j outside S
        levels = p[j] + 1
        starts = np.cumsum(levels) - levels
        at = np.repeat(np.arange(len(j)), levels)  # the pair of each evaluated profile
        ev = np.arange(len(at))
        ja = j[at]
        entered = inS[pair][at]
        profiles = np.where(entered, p, 0)
        profiles[ev, ja] = ev - starts[at]
        entered[ev, ja] = True
        vals = v.values_at_batch(profiles)
        top = np.where(entered, vals, -np.inf).max(axis=1)
        wa = ws[pair][at]  # every candidate standing winner of the row's set
        hit = _reallocates(top[:, None], vals[ev, ja][:, None], vals[ev[:, None], wa], m, c)
        took = np.logical_or.reduceat(hit, starts, axis=0)
        T[S[pair][:, None], ws[pair], j[:, None]] = np.where(took, j[:, None], ws[pair])
    return T


def critical_signal(
    rule: Rule,
    v: ValuationInstance,
    i: int,
    s_minus_i: Sequence[int],
) -> Optional[int]:
    """Smallest own signal at which bidder i wins, or None if she never does.

    ``_critical_signals`` on the one line, valid because winning is upward
    closed for a monotone rule: at most ceil(log2(k + 1)) + 1 rule calls.
    """
    win = _trusted(rule, v)
    line = list(v.space.validate_line(i, s_minus_i))

    def won_at(_, signals):
        return [win(tuple(line[:i] + [b] + line[i:])) == i for b in signals.tolist()]

    [b] = _critical_signals(won_at, v.space.sizes[i]).tolist()
    return None if b < 0 else b


def _critical_signals(won_at: Callable, k: int) -> np.ndarray:
    """The critical signal of each of many lines by one bisection; -1 where she never wins.

    ``won_at(lines, signals)`` says whether each listed line's bidder wins at
    the paired own signal (two integer arrays).  It is called once at every
    line's top signal (``lines`` a full slice, ``signals`` the array ``[k]``),
    then once per halving while some line is open, at most ceil(log2(k + 1))
    of them, with only the lines still open: a line costs one probe per step
    it is open, and a non-monotone line gets the signal the bisection lands
    on, not its first win.
    """
    top = np.asarray(won_at(slice(None), np.full(1, k)), dtype=bool).reshape(-1)
    out = np.where(top, k, -1)
    lines = np.flatnonzero(top)  # the open lines, with their bounds lo..hi
    lo, hi = np.zeros_like(lines), out[lines]
    for _ in range(k.bit_length()):
        if not lines.size:
            break
        mid = (lo + hi) // 2
        won = np.asarray(won_at(lines, mid), dtype=bool)
        hi = np.where(won, mid, hi)
        lo = np.where(won, lo, mid + 1)
        out[lines] = lo  # final for the lines that close at this step
        live = lo < hi
        lines, lo, hi = lines[live], lo[live], hi[live]
    return out


def critical_signal_scan(
    rule: Rule,
    v: ValuationInstance,
    i: int,
    s_minus_i: Sequence[int],
) -> Optional[int]:
    """Linear-scan twin of critical_signal: first winning signal from below."""
    win = _trusted(rule, v)
    line = list(v.space.validate_line(i, s_minus_i))
    for b in range(v.space.sizes[i] + 1):
        p = line[:i] + [b] + line[i:]
        if win(tuple(p)) == i:
            return b
    return None


def outcome(rule: Rule, v: ValuationInstance, s: Sequence[int]) -> Outcome:
    """Winner and critical-signal payment at one reported profile."""
    win = _trusted(rule, v)
    p = v.space.validate_profile(s)
    w = win(p)
    if w is None:
        return Outcome(winner=None, payment=0.0, critical_signal=None)
    rest = [x for b, x in enumerate(p) if b != w]
    b_star = critical_signal(win, v, w, rest)
    assert b_star is not None, "winner must have a critical signal on her own line"
    paid = rest[:w] + [b_star] + rest[w:]
    return Outcome(winner=w, payment=v.value(w, tuple(paid)), critical_signal=b_star)


def random_hypergrid_outcome(
    v: ValuationInstance, s: Sequence[int], rng_seed: int, c: Optional[float] = None
) -> tuple[Outcome, tuple[int, ...]]:
    """Draw a uniform ordering from the seed, run the lazy grid rule, settle payment.

    Returns the outcome together with the realized ordering; replaying the same
    seed reproduces both.
    """
    pi = random_permutation(v.n, rng_seed)
    c = _required_c(v, c)
    rule = lambda p: lazy_winner(v, pi, p, c=c)
    return outcome(rule, v, s), pi


def check_allocation_monotone(table: AllocationTable) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Violations (bidder, losing profile, winning profile below it).

    Empty iff whenever a bidder wins, she keeps winning as her own signal
    rises.  Adjacent layers suffice: one-step monotonicity composes.
    """
    w = table.winner
    violations = []
    for i in range(table.space.n):
        lower = np.take(w, range(0, w.shape[i] - 1), axis=i)
        upper = np.take(w, range(1, w.shape[i]), axis=i)
        bad = np.argwhere((lower == i) & (upper != i))
        for loc in bad:
            lo = tuple(int(x) for x in loc)
            hi = list(lo)
            hi[i] += 1
            violations.append((i, tuple(hi), lo))
    return violations


def welfare_ratio(rule: Rule, v: ValuationInstance) -> tuple[float, np.ndarray]:
    """Per-profile max value over winner value, and the worst ratio.

    Conventions: 0/0 is 1; a positive max with a zero-valued (or absent)
    winner is INFINITE.
    """
    dense = v.tabulated().values
    ratios = _ratios(dense.max(axis=0), _winner_values(dense, as_table(rule, v).winner))
    return float(ratios.max()), ratios


def _winner_values(dense: np.ndarray, winner: np.ndarray) -> np.ndarray:
    """The winner's value at every profile; an absent winner counts as a zero-valued one."""
    has_winner = winner != NO_WINNER
    picked = np.take_along_axis(dense, np.where(has_winner, winner, 0)[None], axis=0)[0]
    return np.where(has_winner, picked, 0.0)


def _ratios(top: np.ndarray, won: np.ndarray) -> np.ndarray:
    """``top / won`` over arrays, with the welfare conventions: 0/0 is 1, x/0 is INFINITE."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(top == 0, 1.0, np.where(won == 0, INFINITE, top / won))


def check_expost_truthful(
    rule: Rule,
    v: ValuationInstance,
    payment: Union[str, Callable[[int, tuple[int, ...]], float]] = "critical",
) -> list[tuple[tuple[int, ...], int, int, float, float]]:
    """Profitable deviations (profile, bidder, misreport, truthful u, deviating u).

    Sweeps every profile, bidder, and misreport.  Utilities use true values
    with the rule's payments at the reported profile; individual-rationality
    failures are reported as deviations to the bidder's own signal.  With the
    default "critical" payment the winner pays her value at the first signal
    that wins on her line.
    """
    table = as_table(rule, v)
    dense = v.tabulated().values
    scale = float(dense.max(initial=0.0))
    tol = REL_TOL * max(scale, 1.0)
    violations = []
    for i in range(v.n):
        # bidder i's lines: (*other signals, own signal), contexts in row-major order
        wins = np.moveaxis(table.winner, i, -1) == i
        vals = np.moveaxis(dense[i], i, -1)
        contexts, k1 = wins.shape[:-1], wins.shape[-1]
        if payment == "critical":
            first = np.argmax(wins, axis=-1)[..., None]
            pays = np.where(wins, np.take_along_axis(vals, first, axis=-1), 0.0)
        else:
            pays = np.array(
                [[payment(i, _context_profile(ctx, i, b)) for b in range(k1)]
                 for ctx in np.ndindex(*contexts)],
                dtype=np.float64,
            ).reshape(wins.shape)
        truthful = np.where(wins, vals, 0.0) - pays
        # the best report's utility at every true signal at once: fl(a - b) falls
        # as b rises, so the cheapest winning report is the best one that wins
        cheapest = np.min(pays, axis=-1, where=wins, initial=np.inf, keepdims=True)
        losing = np.max(0.0 - pays, axis=-1, where=~wins, initial=-np.inf, keepdims=True)
        top = np.maximum(vals - cheapest, losing)
        deviates = top > truthful + tol
        unfair = wins & (truthful < -tol)  # individual rationality fails
        flagged = np.argwhere(deviates | unfair)
        at, lines = tuple(flagged.T), tuple(flagged[:, :-1].T)
        # the first best report, read off each flagged cell's line
        best = np.argmax(np.where(wins[lines], vals[at][:, None], 0.0) - pays[lines], axis=-1)
        for loc, b, dev, bad, u, u_top in zip(
            flagged.tolist(), best.tolist(), deviates[at].tolist(), unfair[at].tolist(),
            truthful[at].tolist(), top[at].tolist(),
        ):
            p = _context_profile(loc[:-1], i, loc[-1])
            if dev:
                violations.append((p, i, b, u, u_top))
            if bad:
                violations.append((p, i, loc[-1], u, 0.0))
    return violations


def _on_grid(space: SignalSpace, v: ValuationInstance, what: str) -> None:
    """Refuse a table, prior or family whose grid is not ``v``'s."""
    if space != v.space:
        raise ValidationError(f"{what} lies on grid {space.sizes}, the instance on {v.space.sizes}")


def _trusted(rule: Rule, v: ValuationInstance) -> Rule:
    """``rule`` for profiles already checked to lie on ``v``'s grid: a table's unchecked lookup."""
    if isinstance(rule, AllocationTable):
        _on_grid(rule.space, v, "table")
        return rule._lookup
    return rule


def as_table(rule: Rule, v: ValuationInstance) -> AllocationTable:
    """Materialize a winner function over the whole grid (subject to the profile cap).

    A table on ``v``'s grid is returned as it is; a function is called at
    every profile in row-major order by ``_called_at``, and above the cap
    refused with ``CapExceeded``, as ``tabulated`` refuses.
    """
    win = _trusted(rule, v)
    if isinstance(rule, AllocationTable):
        return rule
    count = v.space.profile_count
    if count > DEFAULT_PROFILE_CAP:
        raise CapExceeded(f"cannot tabulate a rule on {count} profiles (cap {DEFAULT_PROFILE_CAP})")
    winner = _called_at(win, v, np.arange(count))
    return AllocationTable(space=v.space, winner=winner.reshape(v.space.shape))


def _called_at(rule: Rule, v: ValuationInstance, flat: np.ndarray) -> np.ndarray:
    """A winner function called at the flat grid indices ``flat``, NO_WINNER for None; winners
    are read as ``_bidders`` reads bidders, and one no table could hold raises ValidationError."""
    out = np.empty(flat.size, dtype=np.int32)
    for lo in range(0, flat.size, _TABULATE_CHUNK):
        signals = np.unravel_index(flat[lo : lo + _TABULATE_CHUNK], v.space.shape)
        winners = map(rule, zip(*(s.tolist() for s in signals)))  # profiles as tuples of ints
        winners = _bidders(NO_WINNER if w is None else w for w in winners)
        if min(winners) < NO_WINNER or max(winners) >= v.n:
            raise ValidationError(f"a rule's winners must be None or bidders 0..{v.n - 1}")
        out[lo : lo + len(winners)] = winners
    return out
