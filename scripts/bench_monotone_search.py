#!/usr/bin/env python3
"""Time the exhaustive monotone-table search and enumeration on source trees side by side; write BENCH_monotone_search.json.

Search cases, each one ``best_monotone_ratio`` call (ms per call):

  workload_n2_k7        ``gen_random_tabulated(2, 7, seed=6)``, the 8x8 grid
                        of the benchmark's ``monotone_search`` workload
                        (12,870 tables, 115,821 nodes); 20 calls per pass
  three_bidder_no_c     ``gen_three_bidder_no_c()`` (3,158 tables, 7,579
                        nodes); 20 calls per pass
  tight_n4_cap1e7       ``gen_tight_hypergrid(4, 2.0)`` at the default cap of
                        10^7 (4,595,984 tables, 8,713,739 nodes)
  tabulated_n3_k2       ``gen_random_tabulated(3, 2, seed=1)``
  tabulated_n2_k10      ``gen_random_tabulated(2, 10, seed=2)``
  cap_hit_n6_k1         ``gen_random_tabulated(6, 1, seed=1)`` at the default
                        cap of 10^7, which it exceeds; the CapExceeded
                        message is the call's output

Enumeration cases, each one ``enumerate_monotone_tables`` call that counts the
tables as the benchmark's workload does (ms per call):

  enumerate_n2_k7       the workload's 8x8 grid (12,870 tables); 20 calls per
                        pass
  enumerate_three_bidder_no_c
                        ``gen_three_bidder_no_c()`` (3,158 tables); 20 calls
                        per pass
  enumerate_n3_k2       ``gen_random_tabulated(3, 2, seed=1)`` (2,715,798
                        tables)
  enumerate_n4_k1       ``gen_random_tabulated(4, 1, seed=1)`` (4,595,984
                        tables), whose prefixes share no context at the
                        middle cell

The rounds, the workers, the reference-speed scaling and the file's layout
are those of ``scripts/bench_lazy_chain.py``, whose helpers this script
runs, with each case in a worker of its own as in
``scripts/bench_sampled_revenue.py``.  The digests cover each call's best
ratio, flat witness, node count and table count (or its cap message), so
equal digests mean the trees found the same reports; an enumeration case
digests the sha256 of its tables' concatenated int32 bytes, outside the
timed calls, so equal digests mean the same tables in the same order.  Compare a parent
commit with a change by

  git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
  python scripts/bench_monotone_search.py --src parent=/tmp/parent/src --src change=src

Without ``--src`` it times this checkout's ``src`` alone.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_lazy_chain  # noqa: E402

NAMES = ("workload_n2_k7", "three_bidder_no_c", "tight_n4_cap1e7", "tabulated_n3_k2",
         "tabulated_n2_k10", "cap_hit_n6_k1", "enumerate_n2_k7", "enumerate_three_bidder_no_c",
         "enumerate_n3_k2", "enumerate_n4_k1")
FAST_CALLS = 20  # calls per pass of the millisecond cases
ROUNDS = 20  # worker runs per tree and case
REPEATS = 3  # timed passes per worker


def _cases():
    """Each case as (name, unit, calls[, output]): one timed pass makes every call once."""
    from ivauctions import CapExceeded, best_monotone_ratio
    from ivauctions import instances as gen
    from ivauctions.oracle import enumerate_monotone_tables

    def search(v):
        try:
            report = best_monotone_ratio(v)
        except CapExceeded as e:
            return str(e)
        witness = report.witness_table
        flat = None if witness is None else witness.winner.reshape(-1).tolist()
        return repr((report.best_ratio, flat, report.tables_scanned, report.monotone_count))

    work = {
        "workload_n2_k7": (gen.gen_random_tabulated(2, 7, seed=6)[0], FAST_CALLS),
        "three_bidder_no_c": (gen.gen_three_bidder_no_c(), FAST_CALLS),
        "tight_n4_cap1e7": (gen.gen_tight_hypergrid(4, 2.0), 1),
        "tabulated_n3_k2": (gen.gen_random_tabulated(3, 2, seed=1)[0], 1),
        "tabulated_n2_k10": (gen.gen_random_tabulated(2, 10, seed=2)[0], 1),
        "cap_hit_n6_k1": (gen.gen_random_tabulated(6, 1, seed=1)[0], 1),
    }

    def stream(v):
        digest = hashlib.sha256()
        for table in enumerate_monotone_tables(v):
            digest.update(table)
        return digest.hexdigest()

    listed = {
        "enumerate_n2_k7": (work["workload_n2_k7"][0], FAST_CALLS),
        "enumerate_three_bidder_no_c": (work["three_bidder_no_c"][0], FAST_CALLS),
        "enumerate_n3_k2": (work["tabulated_n3_k2"][0], 1),
        "enumerate_n4_k1": (gen.gen_random_tabulated(4, 1, seed=1)[0], 1),
    }
    return [(name, "ms/call", [lambda v=v: search(v)] * calls) for name, (v, calls) in work.items()] + [
        (name, "ms/call", [lambda v=v: sum(1 for _ in enumerate_monotone_tables(v))] * calls,
         lambda v=v: stream(v))
        for name, (v, calls) in listed.items()
    ]


if __name__ == "__main__":
    sys.exit(bench_lazy_chain.main(script=__file__, cases=_cases, out="BENCH_monotone_search.json",
                                   doc=__doc__, names=list(NAMES), rounds=ROUNDS, repeats=REPEATS))
