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
from .mechanisms import AllocationTable, lazy_winner, lazy_winners  # noqa: F401
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

    ``tables_scanned`` counts the candidate assignments the search tried:
    one per child of a frontier step, the same count as a one-cell-at-a-time
    depth-first walk.  ``monotone_count`` counts the complete monotone
    tables, all of which are visited.  The witness, when present, is
    monotone, attains ``best_ratio`` exactly and is the first such table in
    lexicographic order.
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


#: Most partial tables one frontier step extends.
_BLOCK = 16_384
#: Bytes of pending partial tables: the stack keeps at most one parent block of
#: `step` rows per cell, one byte per profile, so step <= budget / profiles^2.
_STACK_BYTES = 1 << 26


def _monotone_tables(
    v: ValuationInstance, cap: int, cost: np.ndarray, nodes: list[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield every fully-assigned monotone winner table, in blocks, by pruned extension.

    Profiles are filled in row-major order; a candidate winner at a profile is
    rejected exactly when some lower neighbor along a bidder's own axis was won
    by that bidder and the candidate differs, so only (and all) monotone tables
    are completed.  The walk is depth-first over blocks of partial tables that
    share the next cell.  One array step extends a block of at most ``_BLOCK``
    rows by that cell, children in parent-then-candidate order, and pushes the
    children as contiguous slices, last slice first; a slice is kept as parent
    rows plus candidates until it is popped.  So complete tables come out in
    lexicographic order, as ``(tables, worst)`` blocks: ``tables`` is (rows,
    profiles) int8 and ``worst`` the max of ``cost[winner, profile]`` over each
    row's cells (at least 1.0).  ``nodes[0]`` counts the candidate assignments
    tried.  The first ``cap`` complete tables are yielded before CapExceeded.
    """
    n, shape = v.space.n, v.space.shape
    count = math.prod(shape)
    step = max(1, min(_BLOCK, _STACK_BYTES // (count * count)))
    strides = np.array([math.prod(shape[axis + 1:]) for axis in range(n)])
    coords = np.indices(shape).reshape(n, count)
    lower = []  # per cell: the bidders with a lower own-axis neighbor, and those neighbors
    for pos in range(count):
        axes = np.flatnonzero(coords[:, pos])
        lower.append((axes, pos - strides[axes]))
    # a stack entry is the block src[parent] with cell pos - 1 set to cand
    root = np.zeros((1, count), np.int8)  # n <= log2(profiles), so bidders fit int8
    stack = [(0, root, np.zeros(1, np.intp), None, np.ones(1))]
    complete = 0
    while stack:
        pos, src, parent, cand, worst = stack.pop()
        tables = src[parent]
        if pos:
            tables[:, pos - 1] = cand
        axes, neighbors = lower[pos]
        hits = tables[:, neighbors] == axes  # own-axis lower wins: each forces its bidder
        nhit = hits.sum(axis=1)
        kids = np.where(nhit == 0, n, nhit == 1)  # all n candidates, the forced one, or none
        parent = np.repeat(np.arange(len(tables)), kids)
        if not len(parent):
            continue
        rank = np.arange(len(parent)) - (np.cumsum(kids) - kids)[parent]
        cand = np.where(nhit[parent] == 0, rank, (hits @ axes)[parent])
        worst = np.maximum(worst[parent], cost[cand, pos])
        nodes[0] += len(parent)
        if pos + 1 < count:
            for start in reversed(range(0, len(parent), step)):
                part = slice(start, start + step)
                stack.append((pos + 1, tables, parent[part], cand[part], worst[part]))
            continue
        tables = tables[parent]
        tables[:, pos] = cand
        room = cap - complete
        if len(tables) > room:
            if room:
                yield tables[:room], worst[:room]
            raise CapExceeded(
                f"more than {cap} monotone tables; try a smaller instance or raise the cap"
            )
        complete += len(tables)
        yield tables, worst


def enumerate_monotone_tables(v: ValuationInstance, cap: int = DEFAULT_TABLE_CAP) -> Iterator[np.ndarray]:
    """Yield a copy of every fully-assigned monotone winner table (flat, row-major, int32).

    Tables come in lexicographic order, bidder 0 first at each cell.
    """
    for tables, _ in _monotone_tables(v, cap, np.ones((v.n, v.space.profile_count)), [0]):
        for table in tables:
            yield table.astype(np.int32)


def best_monotone_ratio(v: ValuationInstance, cap: int = DEFAULT_TABLE_CAP) -> SearchReport:
    """Minimum worst-case welfare ratio over all monotone full-support tables.

    The monotone-table search with each cell's welfare ratio as its cost, so
    the running worst ratio is carried along the path.  Every monotone table
    is visited, so the minimum is exact; the witness is the first table, in
    the search's lexicographic order, that attains it.
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
    for tables, worst in _monotone_tables(v, cap, ratio_of, nodes):
        monotone += len(tables)
        first = int(worst.argmin())
        if worst[first] < best:
            best = float(worst[first])
            best_table = tables[first].astype(np.int32)
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
