"""Brute-force ground truth for the mechanisms.

Exhaustive search over all monotone deterministic allocations certifies the
impossibility instances (no monotone table can beat the claimed ratio), exact
averages over all n! bidder orderings certify the randomized bounds, and the
closed forms for the no-crossing construction are checked against direct
enumeration.  The search and the closed forms share no code with the
mechanisms they judge; the ordering averages run the grid mechanism's own lazy
chain, which tests tie to the materialized ``hypergrid_coloring`` tables.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional, Sequence

import numpy as np

# lazy_winner stays importable from here: callers and the benchmark's tracer
# reach the scalar chain through this module's namespace.
from .mechanisms import NO_WINNER, AllocationTable, lazy_winner, lazy_winners  # noqa: F401
from .model import (
    INFINITE,
    CapExceeded,
    ValidationError,
    ValuationInstance,
    compute_c,
    mean_and_stderr,
)

DEFAULT_TABLE_CAP = 10_000_000

#: Orderings evaluated per batch by the Monte Carlo path; bounds its memory.
MC_CHUNK = 4096


def optimal_welfare(v: ValuationInstance, s: Sequence[int]) -> float:
    """Highest value at the profile; the per-profile benchmark every ratio is against."""
    return float(v.values_at(v.space.validate_profile(s)).max())


@dataclass(frozen=True)
class SearchReport:
    """Result of the exhaustive monotone-table search.

    ``tables_scanned`` counts partial-table extension attempts (DFS nodes);
    ``monotone_count`` counts the complete monotone tables, all of which are
    visited.  The witness, when present, is monotone and attains
    ``best_ratio`` exactly.
    """

    best_ratio: float
    witness_table: Optional[AllocationTable]
    tables_scanned: int
    monotone_count: int

    def to_json(self) -> dict:
        return {
            "best_ratio": "INFINITE" if math.isinf(self.best_ratio) else self.best_ratio,
            "tables_scanned": self.tables_scanned,
            "monotone_count": self.monotone_count,
            "has_witness": self.witness_table is not None,
        }


def _lower_neighbors(v: ValuationInstance) -> list[list[tuple[int, int]]]:
    """Per flat profile index, the (axis, flat index) of each one-step-lower neighbor."""
    space = v.space
    neighbors = []
    for p in space.profiles():
        neigh = []
        for axis in range(space.n):
            if p[axis] >= 1:
                q = list(p)
                q[axis] -= 1
                neigh.append((axis, space.index_of(q)))
        neighbors.append(neigh)
    return neighbors


def _forced_winner(assignment: np.ndarray, neighbors: list[tuple[int, int]]) -> Optional[int]:
    """The only admissible winner at a cell, if a lower own-axis win forces one.

    Returns NO_WINNER when two different bidders are forced (dead end).
    """
    forced = None
    for axis, idx in neighbors:
        if assignment[idx] == axis:
            if forced is not None and forced != axis:
                return NO_WINNER
            forced = axis
    return forced


def _monotone_tables(
    v: ValuationInstance, cap: int, cost: Optional[np.ndarray], nodes: list[int]
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield every fully-assigned monotone winner table, by pruned extension.

    Profiles are filled in row-major order; a candidate winner at a profile is
    rejected exactly when some lower neighbor along a bidder's own axis was won
    by that bidder and the candidate differs, so only (and all) monotone tables
    are completed.  Each flat table comes with the max of ``cost[winner,
    profile]`` over its cells (1.0 without ``cost``), carried along the path.
    The yielded array is reused: copy it to keep it.  ``nodes[0]`` counts the
    candidate assignments tried.
    """
    neighbors = _lower_neighbors(v)
    count = len(neighbors)
    n = v.space.n
    assignment = np.full(count, NO_WINNER, dtype=np.int32)
    rows = None if cost is None else cost.tolist()  # list lookups beat NumPy scalar indexing
    path = [1.0] * (count + 1)  # path[pos]: worst cost of the cells before pos
    todo: list[Iterator[int]] = [iter(())] * count  # untried candidates per cell
    complete = 0

    def candidates(pos: int) -> Iterator[int]:
        forced = _forced_winner(assignment, neighbors[pos])
        if forced == NO_WINNER:
            return iter(())
        return iter(range(n) if forced is None else (forced,))

    pos = 0
    todo[0] = candidates(0)
    while pos >= 0:
        w = next(todo[pos], None)
        if w is None:
            assignment[pos] = NO_WINNER
            pos -= 1
            continue
        nodes[0] += 1
        assignment[pos] = w
        path[pos + 1] = path[pos] if rows is None else max(path[pos], rows[w][pos])
        if pos + 1 < count:
            pos += 1
            todo[pos] = candidates(pos)
            continue
        complete += 1
        if complete > cap:
            raise CapExceeded(
                f"more than {cap} monotone tables; try a smaller instance or raise the cap"
            )
        yield assignment, path[count]


def enumerate_monotone_tables(v: ValuationInstance, cap: int = DEFAULT_TABLE_CAP) -> Iterator[np.ndarray]:
    """Yield a copy of every fully-assigned monotone winner table (flat, row-major)."""
    for table, _ in _monotone_tables(v, cap, None, [0]):
        yield table.copy()


def best_monotone_ratio(v: ValuationInstance, cap: int = DEFAULT_TABLE_CAP) -> SearchReport:
    """Minimum worst-case welfare ratio over all monotone full-support tables.

    The monotone-table search with each cell's welfare ratio as its cost, so
    the running worst ratio is carried along the path.  Every monotone table
    is visited, so the minimum is exact.
    """
    dense = v.tabulated().values
    space = v.space
    n = space.n
    flat_vals = dense.reshape(n, -1)
    flat_max = flat_vals.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = flat_max[None, :] / flat_vals
    ratio_of = np.where(flat_max[None, :] == 0, 1.0, raw)  # 0/0 line := 1, x/0 := inf

    best = INFINITE
    best_table: Optional[np.ndarray] = None
    nodes = [0]
    monotone = 0
    for table, worst in _monotone_tables(v, cap, ratio_of, nodes):
        monotone += 1
        if worst < best:
            best = worst
            best_table = table.copy()
    witness = None
    if best_table is not None:
        witness = AllocationTable(space=space, winner=best_table.reshape(space.shape))
    return SearchReport(
        best_ratio=best,
        witness_table=witness,
        tables_scanned=nodes[0],
        monotone_count=monotone,
    )


def exact_random_hypergrid_stats(
    v: ValuationInstance, s: Sequence[int], c: Optional[float] = None
) -> tuple[float, dict[tuple[int, ...], float]]:
    """Average winner value at s over all n! orderings of the grid mechanism.

    All orderings run as one batch of the lazy chain, with c measured once.
    """
    if v.n > 8:
        raise CapExceeded("n! enumeration limited to n <= 8; use the Monte Carlo path")
    p = v.space.validate_profile(s)
    orders = list(permutations(range(v.n)))
    c = compute_c(v) if c is None else c
    winners = lazy_winners(v, orders, p, c=c).tolist()
    worth = v.values_at(p).tolist()
    per_pi = {pi: worth[w] for pi, w in zip(orders, winners)}
    mean = sum(per_pi.values()) / len(per_pi)
    return mean, per_pi


def monte_carlo_random_hypergrid(
    v: ValuationInstance,
    s: Sequence[int],
    samples: int,
    seed: int,
    c: Optional[float] = None,
) -> tuple[float, float]:
    """Seeded i.i.d. ordering draws; mean winner value at s with its standard error.

    Orderings come from one ``random.Random(seed).shuffle`` stream and are
    evaluated in batches of at most ``MC_CHUNK`` through the lazy chain, with
    c measured once; values are accumulated in draw order.
    """
    if samples < 1:
        raise ValidationError("need at least one sample")
    p = v.space.validate_profile(s)
    c = compute_c(v) if c is None else c
    rng = random.Random(seed)
    order = list(range(v.n))
    worth = v.values_at(p).tolist()

    def draws():
        left = samples
        while left:
            batch = []
            for _ in range(min(left, MC_CHUNK)):
                rng.shuffle(order)
                batch.append(tuple(order))
            left -= len(batch)
            for w in lazy_winners(v, batch, p, c=c).tolist():
                yield worth[w]

    return mean_and_stderr(draws())


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

    from .instances import gen_rand_impossibility

    inst = gen_rand_impossibility(n)
    uniform = 0.0
    for p in inst.space.profiles():
        prob = 1.0
        for bit in p:
            prob *= epsilon if bit == 1 else 1 - epsilon
        uniform += prob * float(inst.values_at(p).sum()) / n
    return opt, bound, uniform
