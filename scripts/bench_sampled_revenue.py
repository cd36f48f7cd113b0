#!/usr/bin/env python3
"""Time sampled revenue on source trees side by side; write BENCH_sampled_revenue.json.

Cases, for (n, k, draws) in ``CASES`` and each call in ``ONE_PROFILE``:

  sampled_n{n}_k{k}_S{draws}  ``expected_revenue(mech, cap=1, samples=draws,
                              seed=1)`` on ``gen_random_separable(n, k, 2.0,
                              seed=3)`` under the uniform prior, with the
                              randomized grid family (``HypergridFamily``, no
                              fixed ordering), alpha = 2c, d = ``compute_d``
                              and p = 1/2; the instance, c and d are built at
                              the first (warm-up) call, and each call builds a
                              fresh family and mechanism, so no rule or quote
                              is kept between calls; s per call
  {call}_n3_k2                ``sample_event``, ``profile_events`` and
                              ``winning_reserve`` on one mechanism over
                              ``gen_random_separable(3, 2, 1.5, seed=43)``,
                              set up as above: ``sample_event`` at each of
                              the 27 profiles with a fresh ``random.Random(j)``
                              for the j-th, ``profile_events`` at each
                              profile, and ``winning_reserve`` of the ordering
                              (0, 1, 2) for each bidder and line (a refusal's
                              message is its output); one pass makes these 27
                              calls ten times, after a warm-up pass on the same
                              mechanism, so a tree that keeps quotes between
                              calls reuses them; ms per call

The rounds, the workers, the reference-speed scaling and the file's layout
are those of ``scripts/bench_lazy_chain.py``, whose helpers this script
runs, with two changes: each case runs in a worker of its own, so its
``peak_rss_mb`` is the case's own, and a worker times one pass after its
warm-up pass (a sampled call takes seconds), over ``ROUNDS`` rounds.  The
digests cover every call's output (the (mean, standard error) pairs, the
events and the quotes), so equal digests mean the trees drew and settled
the same sales.  Compare a parent commit with a change by

  git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
  python scripts/bench_sampled_revenue.py --src parent=/tmp/parent/src --src change=src

Without ``--src`` it times this checkout's ``src`` alone.
"""

from __future__ import annotations

import functools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_lazy_chain  # noqa: E402

CASES = ((6, 1, 20000), (7, 2, 20000), (3, 8, 3000), (3, 20, 3000), (4, 4, 3000), (7, 2, 3000),
         (11, 2, 3000))
ONE_PROFILE = ("sample_event", "profile_events", "winning_reserve")
ROUNDS = 5  # worker runs per tree and case


def _name(n: int, k: int, draws: int) -> str:
    return f"sampled_n{n}_k{k}_S{draws}"


def _cases():
    """Each case as (name, unit, calls): one timed pass makes every call once."""
    import random

    from ivauctions import compute_c, compute_d
    from ivauctions import instances as gen
    from ivauctions.revenue import (
        HypergridFamily,
        ReserveBackedMechanism,
        UndefinedReserve,
        expected_revenue,
        uniform_product_prior,
        winning_reserve,
    )

    @functools.lru_cache(maxsize=None)
    def instance(n, k):
        v = gen.gen_random_separable(n, k, 2.0, seed=3)
        return v, uniform_product_prior(v.space), compute_c(v), compute_d(v)

    def sampled(n, k, draws):
        v, prior, c, d = instance(n, k)
        family = HypergridFamily(v, c=c)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=2 * c, d=d, p=0.5)
        return expected_revenue(mech, cap=1, samples=draws, seed=1)

    def mechanism(v):
        c = compute_c(v)
        family = HypergridFamily(v, c=c)
        prior = uniform_product_prior(v.space)
        return ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=2 * c, d=compute_d(v),
                                      p=0.5)

    def reserve(mech, i, s_minus_i):
        rule = mech.family.realizations(tuple(range(mech.v.n)))[0][1]  # the ordering (0, 1, 2)
        try:
            return winning_reserve(mech.prior, mech.v, rule, i, s_minus_i)
        except UndefinedReserve as e:
            return str(e)

    cases = [(_name(*case), "s/call", [lambda case=case: sampled(*case)]) for case in CASES]
    mech = mechanism(gen.gen_random_separable(3, 2, 1.5, seed=43))
    profiles = list(mech.v.space.profiles())
    calls = {
        "sample_event": [lambda j=j, s=s: mech.sample_event(s, random.Random(j))
                         for j, s in enumerate(profiles)],
        "profile_events": [lambda s=s: mech.profile_events(s) for s in profiles],
        "winning_reserve": [lambda i=i, s=s: reserve(mech, i, s[:i] + s[i + 1 :])
                            for s in profiles for i in range(3) if s[i] == 0],
    }
    return cases + [(f"{call}_n3_k2", "ms/call", calls[call] * 10) for call in ONE_PROFILE]


if __name__ == "__main__":
    sys.exit(bench_lazy_chain.main(script=__file__, cases=_cases, out="BENCH_sampled_revenue.json",
                                   doc=__doc__, names=[_name(*case) for case in CASES]
                                   + [f"{call}_n3_k2" for call in ONE_PROFILE],
                                   rounds=ROUNDS, repeats=1))
