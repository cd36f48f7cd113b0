"""Brute-force ground truth for the mechanisms.

Exhaustive search over all monotone deterministic allocations certifies the
impossibility instances (no monotone table can beat the claimed ratio), and
exact averages over all n! bidder orderings certify the randomized bounds.
The search shares no code with the mechanisms it judges.  The exact ordering
oracles walk the lazy chain's subset entry table (``_entry_table``), which
shares the reallocation test with the chain; tests tie it to the
materialized ``hypergrid_coloring`` tables and to an n! batch of the chain
kept outside the package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

# lazy_winner stays importable from here: callers and the benchmark's tracer
# reach the one-row lazy chain through this module's namespace.
from .mechanisms import (  # noqa: F401
    AllocationTable,
    _entry_table,
    _required_c,
    lazy_winner,
    lazy_winners,
)
from .model import (
    DEFAULT_PROFILE_CAP,
    INFINITE,
    CapExceeded,
    ValuationInstance,
    _sample_count,
    _sequential_sums,
    mean_and_stderr,
)

#: Orderings evaluated per batch by the Monte Carlo path; bounds its memory.
MC_CHUNK = 4096


def optimal_welfare(v: ValuationInstance, s: Sequence[int]) -> float:
    """Highest value at the profile; the per-profile benchmark every ratio is against."""
    return float(v.values_at(v.space.validate_profile(s)).max())


@dataclass(frozen=True)
class SearchReport:
    """Result of the exhaustive monotone-table search.

    ``tables_scanned`` counts the candidate assignments a one-cell-at-a-time
    depth-first walk tries, one per child of each partial table; the search
    computes it from memoized subtree sizes (a frontier state's node count is
    its children plus their subtrees' nodes), so it is the same count as that
    walk's.  ``monotone_count`` counts the complete monotone tables, summed
    the same way.  The witness, when present, is monotone, attains
    ``best_ratio`` exactly and is the first such table in lexicographic order.
    """

    best_ratio: float
    witness_table: Optional[AllocationTable]
    tables_scanned: int
    monotone_count: int


#: Most partial tables in one block that the enumerator grows or joins.
_BLOCK = 16_384
#: Bytes of int8 partial tables the enumerator holds, shared by its nested calls:
#: half of each share for grown and joined blocks, half for a suffix block.
_STACK_BYTES = 1 << 26


def _cap_message(cap: int) -> str:
    return f"more than {cap} monotone tables; try a smaller instance or raise the cap"


def _candidates(rows: np.ndarray, pos: int, walk: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Each monotone child of the partial tables ``rows`` at cell ``pos``, as (parent
    row, bidder) arrays in parent-then-bidder order.  ``walk`` is ``(reads, bidders,
    1 - eye(n))``: ``reads[pos, a]`` is the column of pos's lower neighbor on bidder a's
    axis, or the sentinel's, which no bidder owns.  A bidder may win pos unless
    another bidder won such a neighbor."""
    reads, bidders, others = walk
    hits = rows[:, reads[pos]] == bidders
    return np.nonzero(hits @ others == 0)


def enumerate_monotone_tables(v: ValuationInstance, cap: int = DEFAULT_PROFILE_CAP) -> Iterator[np.ndarray]:
    """Yield every fully-assigned monotone winner table (flat, row-major, int32),
    in lexicographic order, by meeting in the middle.

    Profiles are filled in row-major order; a candidate winner at a profile is
    rejected exactly when some lower neighbor along a bidder's own axis was won
    by that bidder and the candidate differs, so only (and all) monotone tables
    are completed.  A cell reads only cells up to one largest own-axis stride
    (``window``) before it, and each only as to whether the reading bidder won
    it.  So partial tables that agree on those reads by the cells of a range,
    their context, have the same completions over it.  ``complete`` grows a
    block of partial tables breadth-first to the middle cell ``m`` of its
    range, children in parent-then-bidder order; ``join`` grows each distinct
    context of those prefixes once, in one batch, to the end of the range and
    repeats every prefix, in order, over its context's suffixes.  The first
    ``cap`` tables are yielded, from int32 copies of the int8 blocks, before
    CapExceeded.

    Memory follows sizes the walk observes.  Ranges halve, so at most
    ``levels`` calls nest, and each holds at most its ``share`` of
    ``_STACK_BYTES``.  Half of it is for its grown and joined blocks, of at
    most ``block`` and 2 ``block`` rows: prefixes that would outgrow a block
    are taken to ``m`` by ``complete`` on the rest of that range.  The other
    half is for its suffix block, kept only if it fits and no context has over
    ``block`` completions; otherwise ``complete`` takes the prefixes over the
    suffix range.
    """
    n, shape = v.space.n, v.space.shape
    count = math.prod(shape)
    window, width = count // shape[0], count + 1  # column `count` is the sentinel, -1
    strides = np.array([math.prod(shape[axis + 1:]) for axis in range(n)])
    coords = np.indices(shape).reshape(n, count).T
    reads = np.where(coords > 0, np.arange(count)[:, None] - strides, count)
    read_later = coords < np.array(shape) - 1  # cell + strides[a] reads the cell on a's axis
    walk = (reads, np.arange(n), 1 - np.eye(n, dtype=np.int64))
    levels = (count - 1).bit_length() + 1  # ranges halve, so at most this many calls nest
    share = _STACK_BYTES // levels
    block = max(n, min(_BLOCK, share // (6 * width)))

    def grow(rows, lo, hi, most):  # breadth-first while a step cannot pass `most` rows
        source = np.arange(len(rows), dtype=np.int32)
        while lo < hi and len(rows) * n <= most:
            parent, cand = _candidates(rows, lo, walk)
            rows, source = rows[parent], source[parent]
            rows[:, lo] = cand
            lo += 1
        return rows, source, lo

    def complete(rows, lo, hi):  # every extension of rows through cell hi - 1, as ordered blocks
        m = (lo + hi + 1) // 2
        for start in range(0, len(rows), block // n):  # so that a step fits a block
            prefix, _, pos = grow(rows[start:start + block // n], lo, m, block)
            for part in [prefix] if pos == m else complete(prefix, pos, m):
                yield from [part] if m == hi else join(part, m, hi)

    def join(part, m, hi):  # complete(part, m, hi), each distinct context's suffixes grown once
        cols = np.arange(max(0, m - window), m)
        reach = cols[:, None] + strides  # the cell that reads each column on each bidder's axis
        kept = read_later[cols] & (reach >= m) & (reach < hi)
        context = np.where(kept[np.arange(len(cols)), part[:, cols]], part[:, cols], -1)
        order = np.lexsort(context.T)
        ordered = context[order]
        new = np.ones(len(part), bool)
        new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        inverse = np.empty(len(part), np.intp)
        inverse[order] = np.cumsum(new) - 1  # each prefix's context
        first = order[new]  # a prefix of each context
        if len(first) < len(part):
            suffix, source, pos = grow(part[first], m, hi, share // (2 * width))
            sizes = np.bincount(source, minlength=len(first))
            if pos == hi and sizes.max() <= block:
                reps = sizes[inverse]
                head = np.cumsum(reps) - reps  # each prefix's first joined row
                shift = (np.cumsum(sizes) - sizes)[inverse] - head  # its first suffix row, less that
                cuts = np.flatnonzero(np.diff(head // block)) + 1
                for a, b in zip([0, *cuts], [*cuts, len(part)]):
                    out = np.repeat(part[a:b], reps[a:b], axis=0)
                    rows = np.arange(len(out)) + np.repeat(shift[a:b] + head[a], reps[a:b])
                    out[:, m:hi] = suffix[rows, m:hi]
                    yield out
                return
        yield from complete(part, m, hi)

    emitted = 0
    root = np.array([[0] * count + [-1]], np.int8)  # n <= log2(profiles), so bidders fit int8
    for tables in complete(root, 0, count):
        room = cap - emitted
        yield from tables[:room, :count].astype(np.int32)
        if len(tables) > room:
            raise CapExceeded(_cap_message(cap))
        emitted += len(tables)


def _children(pos: int, state: int, frontier: tuple) -> list[tuple[int, int]]:
    """The candidates at cell ``pos`` from frontier ``state``, lowest bidder first, as
    (bidder, next state) pairs.  ``frontier`` is ``(forcing, owner, keep, successor)``:
    the bits that force their bidder to win ``pos``, the bidder of each such bit,
    the mask of bits the shifted state keeps, and per cell each bidder's new bit
    (0 where the cell has no successor on her axis)."""
    forcing, owner, keep, successor = frontier
    base = (state << 1) & keep
    forced = state & forcing
    if not forced:
        return [(b, base | bit) for b, bit in enumerate(successor[pos])]
    if forced & (forced - 1):  # two bidders forced: no monotone completion
        return []
    b = owner[forced]
    return [(b, base | successor[pos][b])]


def best_monotone_ratio(v: ValuationInstance, cap: int = DEFAULT_PROFILE_CAP) -> SearchReport:
    """Minimum worst-case welfare ratio over all monotone full-support tables.

    Cells are filled in row-major order, as ``enumerate_monotone_tables``
    fills them, but a cell reads only one bit per bidder of the cells before
    it: the frontier state before cell ``pos`` says, for each bidder a and
    d = 1..stride_a, whether cell pos - d is a's and has an a-successor.  So
    the search is a memoized walk in which each (cell, frontier state) is
    expanded once (``_children``) and keeps its subtree's table count, node
    count and worst-to-go: the least, over completions, of the largest cell
    ratio (1.0 past the last cell).  CapExceeded, with the enumerator's
    message, is raised once an expanded subtree holds more than ``cap``
    tables.  The witness takes, from the root down, the first candidate
    whose ratio and worst-to-go are at most the best, so it is the first
    table in lexicographic order that attains it.
    """
    dense = v.tabulated().values
    space = v.space
    n, shape = space.n, space.shape
    count = math.prod(shape)
    flat_vals = dense.reshape(n, -1)
    flat_max = flat_vals.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = flat_max[None, :] / flat_vals
    cost = np.where(flat_max[None, :] == 0, 1.0, raw).T.tolist()  # 0/0 line := 1, x/0 := inf

    strides = [math.prod(shape[a + 1:]) for a in range(n)]
    offsets = [sum(strides[:a]) for a in range(n)]  # bidder a's bit for cell pos - d: offset + d - 1
    owner = {1 << (off + stride - 1): a for a, (off, stride) in enumerate(zip(offsets, strides))}
    keep = (1 << sum(strides)) - 1 - sum(1 << off for off in offsets)
    has_next = (np.indices(shape).reshape(n, count) < np.array(shape)[:, None] - 1).T.tolist()
    successor = [[1 << off if nxt else 0 for off, nxt in zip(offsets, row)] for row in has_next]
    frontier = (sum(owner), owner, keep, successor)

    # solved[pos][state] = (tables, worst-to-go, nodes, children); past the last
    # cell no bidder has a successor left, so the only state there is 0
    solved: list[dict] = [{} for _ in range(count)] + [{0: (1, 1.0, 0, ())}]
    stack = [(0, 0, None)]
    while stack:
        pos, state, kids = stack.pop()
        if kids is None:
            if state not in solved[pos]:
                kids = _children(pos, state, frontier)
                stack.append((pos, state, kids))
                stack.extend((pos + 1, s, None) for _, s in reversed(kids))
            continue
        below, row = solved[pos + 1], cost[pos]
        tables = nodes = 0
        worst = INFINITE
        for b, s in kids:
            more, rest, deeper, _ = below[s]
            tables += more
            nodes += 1 + deeper
            worst = min(worst, max(row[b], rest))
        if tables > cap:
            raise CapExceeded(_cap_message(cap))
        solved[pos][state] = (tables, worst, nodes, kids)

    tables, best, nodes, _ = solved[0][0]
    witness = None
    if best < INFINITE:
        winner, state = [], 0
        for pos in range(count):
            below, row = solved[pos + 1], cost[pos]
            b, state = next((b, s) for b, s in solved[pos][state][3] if max(row[b], below[s][1]) <= best)
            winner.append(b)
        witness = AllocationTable(space=space, winner=np.array(winner, np.int32).reshape(shape))
    return SearchReport(best_ratio=best, witness_table=witness, tables_scanned=nodes, monotone_count=tables)


#: Largest n the exact ordering average takes: it walks all n! orderings.
STATS_MAX_N = 8


def exact_random_hypergrid_stats(
    v: ValuationInstance, s: Sequence[int], c: Optional[float] = None
) -> tuple[float, np.ndarray]:
    """Mean winner value at s over all n! orderings of the grid mechanism, and the
    per-ordering values (float64) in ``itertools.permutations(range(n))`` order.

    The chain's entry table is built once, with c measured once; each
    ordering's winner is then a walk through it, prefixes expanded in that order.
    """
    if v.n > STATS_MAX_N:
        raise CapExceeded(f"n! enumeration limited to n <= {STATS_MAX_N}; use the Monte Carlo path")
    p = v.space.validate_profile(s)
    T = _entry_table(v, np.asarray(p, dtype=np.intp), _required_c(v, c))
    n = v.n
    mask, w = 1 << np.arange(n), np.arange(n)  # the one-bidder prefixes
    for d in range(1, n):
        rest = np.nonzero((mask[:, None] >> np.arange(n)) & 1 == 0)[1]  # children, ascending
        mask, w = np.repeat(mask, n - d), np.repeat(w, n - d)
        w = T[mask, w, rest]
        mask |= 1 << rest
    won = v.values_at(p)[w]
    return float(_sequential_sums(won)) / won.size, won  # left to right: 3.12's sum() compensates


#: Largest n the subset DP takes: its entry table has 2^n n^2 one-byte cells.
COUNTS_MAX_N = 16


def exact_random_hypergrid_counts(
    v: ValuationInstance, s: Sequence[int], c: Optional[float] = None
) -> np.ndarray:
    """How many of the n! orderings each bidder wins at s under the grid mechanism.

    A DP over entered sets on the chain's entry table: ``count[{j}, j] = 1``,
    then ``count[S | {j}, T[S, w, j]] += count[S, w]`` one layer |S| at a
    time.  Returns int64 counts that sum to n!; n is capped at 16.
    """
    n = v.n
    if n > COUNTS_MAX_N:
        raise CapExceeded(f"subset DP limited to n <= {COUNTS_MAX_N}; use the Monte Carlo path")
    p = v.space.validate_profile(s)
    T = _entry_table(v, np.asarray(p, dtype=np.intp), _required_c(v, c))
    masks = np.arange(1 << n)
    size = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    count = np.zeros((1 << n, n), dtype=np.int64)
    count[1 << np.arange(n), np.arange(n)] = 1
    for m in range(1, n):
        S = masks[size == m]
        si, w, j = np.nonzero(T[S] >= 0)
        np.add.at(count, (S[si] | (1 << j), T[S[si], w, j]), count[S[si], w])
    return count[-1].copy()


def _orderings(rng: random.Random, n: int) -> Iterator[tuple[int, ...]]:
    """The orderings ``rng.shuffle`` leaves on ``list(range(n))`` shuffled again
    and again, from the same draws: Fisher-Yates step i = n-1..1 takes the
    first ``getrandbits((i + 1).bit_length())`` below i + 1, as CPython's
    ``_randbelow`` does, without a Python call per step."""
    bits = rng.getrandbits
    order = list(range(n))
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    while True:
        for i, m, k in steps:
            r = bits(k)
            while r >= m:
                r = bits(k)
            order[i], order[r] = order[r], order[i]
        yield tuple(order)


def monte_carlo_random_hypergrid(
    v: ValuationInstance,
    s: Sequence[int],
    samples: int,
    seed: int,
    c: Optional[float] = None,
) -> tuple[float, float]:
    """Seeded i.i.d. ordering draws; mean winner value at s with its standard error.

    Orderings replay ``random.Random(seed).shuffle`` on one list bit for bit
    (``_orderings``) and are evaluated in batches of at most ``MC_CHUNK``
    through the lazy chain, with c measured once; values are accumulated in
    draw order.
    """
    samples = _sample_count(samples)
    p = v.space.validate_profile(s)
    c = _required_c(v, c)
    stream = _orderings(random.Random(seed), v.n)
    worth = v.values_at(p).tolist()

    def draws():
        left = samples
        while left:
            batch = list(islice(stream, min(left, MC_CHUNK)))
            left -= len(batch)
            for w in lazy_winners(v, batch, p, c=c).tolist():
                yield worth[w]

    return mean_and_stderr(draws())
