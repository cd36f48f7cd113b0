"""Literal reference implementations that tests compare the package against.

The package never imports this module.  ``lazy_winner`` is the grid
mechanism's chain written one profile and one signal level at a time, the
way the paper states it; ``ivauctions.lazy_winner`` and ``lazy_winners`` run
the same chain as array passes and are tested against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ivauctions import ValidationError, ValuationInstance, compute_c
from ivauctions.model import validate_permutation


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
