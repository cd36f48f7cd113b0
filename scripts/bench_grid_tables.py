#!/usr/bin/env python3
"""Time the grid tables on source trees side by side; write BENCH_grid_tables.json.

Cases:

  one_ordering_n{n}_k{k}  ``hypergrid_coloring`` on ``gen_random_tabulated(n,
                          k, seed=n)`` for (n, k) = (2, 70), (3, 16), the
                          grid shapes of the benchmark's ``grid_certify``
                          workload: every ordering of the n bidders, each
                          called ``120 // n!`` times per pass; us per call
  sub_orderings_n{n}_k1   the tables of every ordering of every bidder
                          subset of ``gen_random_separable(n, 1, 2.0,
                          seed=3)``, 15 at n = 3 (the benchmark's
                          ``revenue`` shape) and 1,956 at n = 6: a fresh
                          ``HypergridFamily`` and its ``realizations`` of
                          each subset; ms per call
  exact_revenue_n{n}      exact ``expected_revenue(mech, cap=10**8)`` plus
                          ``lookahead_benchmark_family`` on
                          ``gen_random_separable(n, 1, 2.0, seed=3)`` under
                          the uniform prior, with the randomized grid family,
                          alpha = 2c, d = ``compute_d`` and p = 1/2, for
                          n = 6, 7; a fresh family and mechanism per call;
                          s per call

The rounds, the workers, the reference-speed scaling and the file's layout
are those of ``scripts/bench_lazy_chain.py``, whose helpers this script
runs, with two changes: each case runs in a worker of its own, which builds
only that case's instance (at its first call), so its ``peak_rss_mb`` is
the case's own (the exact revenue cases' peak is the figure to watch), and
a worker times one pass after its warm-up pass, over ``ROUNDS`` rounds.
The digests cover every call's output (each table's winners, each revenue
figure), so equal digests mean the trees built the same tables and sums.
Compare a parent commit with a change by

  git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
  python scripts/bench_grid_tables.py --src parent=/tmp/parent/src --src change=src

Without ``--src`` it times this checkout's ``src`` alone.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from itertools import permutations

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_lazy_chain  # noqa: E402

ONE_ORDERING = ((2, 70), (3, 16))
SUB_ORDERINGS = (3, 6)
EXACT_REVENUE = (6, 7)
ROUNDS = 20  # worker runs per tree and case
NAMES = ([f"one_ordering_n{n}_k{k}" for n, k in ONE_ORDERING]
         + [f"sub_orderings_n{n}_k1" for n in SUB_ORDERINGS]
         + [f"exact_revenue_n{n}" for n in EXACT_REVENUE])


def _cases():
    """Each case as (name, unit, calls): one timed pass makes every call once."""
    from ivauctions import compute_c, compute_d, hypergrid_coloring
    from ivauctions import instances as gen
    from ivauctions.revenue import (
        HypergridFamily,
        ReserveBackedMechanism,
        expected_revenue,
        lookahead_benchmark_family,
        uniform_product_prior,
    )

    @functools.lru_cache(maxsize=None)
    def tabulated(n, k):
        v = gen.gen_random_tabulated(n, k, seed=n)[0]
        return v, compute_c(v)

    @functools.lru_cache(maxsize=None)
    def separable(n):
        v = gen.gen_random_separable(n, 1, 2.0, seed=3)
        return v, uniform_product_prior(v.space), compute_c(v), compute_d(v)

    def table(n, k, pi):
        v, c = tabulated(n, k)
        return hypergrid_coloring(v, pi, c=c).winner

    def tables(n):
        v, _, c, _ = separable(n)
        family = HypergridFamily(v, c=c)
        return [rule.winner for mask in range(1, 2**n)
                for _, rule in family.realizations(tuple(b for b in range(n) if mask >> b & 1))]

    def exact(n):
        v, prior, c, d = separable(n)
        family = HypergridFamily(v, c=c)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=2 * c, d=d, p=0.5)
        return (*expected_revenue(mech, cap=10**8), lookahead_benchmark_family(prior, v, family))

    cases = []
    for n, k in ONE_ORDERING:
        calls = [lambda n=n, k=k, pi=pi: table(n, k, pi) for pi in permutations(range(n))]
        cases.append((f"one_ordering_n{n}_k{k}", "us/call", calls * (120 // math.factorial(n))))
    for n in SUB_ORDERINGS:
        calls = [lambda n=n: tables(n)] * (100 if n == 3 else 5)
        cases.append((f"sub_orderings_n{n}_k1", "ms/call", calls))
    for n in EXACT_REVENUE:
        cases.append((f"exact_revenue_n{n}", "s/call", [lambda n=n: exact(n)]))
    return cases


if __name__ == "__main__":
    sys.exit(bench_lazy_chain.main(script=__file__, cases=_cases, out="BENCH_grid_tables.json",
                                   doc=__doc__, names=NAMES, rounds=ROUNDS, repeats=1))
