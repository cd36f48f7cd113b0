#!/usr/bin/env python3
"""Reproduce the headline numbers: tightness, randomized averages, revenue ratios.

Writes three CSV files plus a JSON summary under --outdir (default results/).
Everything is seeded; reruns are byte-identical.  The tracked results/ are
the output of

  python scripts/run_experiments.py --instances-per-family 20

and tests/test_experiments.py regenerates them and compares byte for byte
(the default of 50 instances per family writes 150 random_bounds rows).

  tightness.csv      worst ratio of the identity-order grid mechanism on the
                     tight family against its (n-1)c ceiling, and the exact
                     ordering-average against OPT/(2c)
  random_bounds.csv  measured worst ratios of the three deterministic
                     mechanisms over seeded random instances vs their bounds
  revenue.csv        exact reserve-backed revenue vs lookahead/(a^2+4ad+1)
"""

import argparse
import csv
import json
import math
import os
import sys

from ivauctions import (
    compute_c,
    compute_d,
    exact_random_hypergrid_stats,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    optimal_welfare,
    two_bidder_coloring,
    welfare_ratio,
)
from ivauctions import instances as gen
from ivauctions.mechanisms import random_permutation
from ivauctions.revenue import (
    HighIfPossibleFamily,
    HypergridFamily,
    ReserveBackedMechanism,
    expected_revenue,
    family_worst_ratio,
    lookahead_benchmark_family,
    uniform_product_prior,
)


def tightness_rows():
    rows = []
    for n in (3, 4, 5):
        for c in (1.5, 2.0, 3.0):
            v = gen.gen_tight_hypergrid(n, c)
            worst, _ = welfare_ratio(hypergrid_coloring(v, identity_permutation(n)), v)
            ones = (1,) * n
            mean, _ = exact_random_hypergrid_stats(v, ones)
            opt = optimal_welfare(v, ones)
            rows.append(
                {
                    "n": n,
                    "c": c,
                    "identity_worst_ratio": worst,
                    "ceiling": (n - 1) * c,
                    "random_mean_at_ones": mean,
                    "random_floor": opt / (2 * c),
                }
            )
    return rows


def random_bound_rows(instances_per_family, base_seed):
    rows = []
    for idx in range(instances_per_family):
        v2, c2, _ = gen.gen_random_tabulated(2, 3 + idx % 4, seed=base_seed + idx)
        worst, _ = welfare_ratio(two_bidder_coloring(v2, c=c2), v2)
        rows.append({"family": "two-bidder", "seed": base_seed + idx, "c": c2,
                     "worst_ratio": worst, "bound": c2})
        vh, ch, _ = gen.gen_random_tabulated(3 + idx % 4, 1, seed=base_seed + 10_000 + idx)
        worst, _ = welfare_ratio(high_if_possible(vh, c=ch), vh)
        rows.append({"family": "high-if-possible", "seed": base_seed + 10_000 + idx,
                     "c": ch, "worst_ratio": worst, "bound": ch})
        vg, cg, _ = gen.gen_random_tabulated(2 + idx % 3, 1 + idx % 3,
                                             seed=base_seed + 20_000 + idx)
        pi = random_permutation(vg.n, seed=idx)
        worst, _ = welfare_ratio(hypergrid_coloring(vg, pi, c=cg), vg)
        rows.append({"family": "hypergrid", "seed": base_seed + 20_000 + idx, "c": cg,
                     "worst_ratio": worst, "bound": max(1.0, (vg.n - 1) * cg)})
    return rows


def revenue_rows():
    rows = []
    cases = [gen.gen_two_by_two_tight(c) for c in (1.5, 2.0, 4.0)]
    cases += [gen.gen_random_separable(3, 1, 2.0, seed=s) for s in (32, 34)]
    for v in cases:
        c = compute_c(v)
        d = compute_d(v)
        prior = uniform_product_prior(v.space)
        fam = HighIfPossibleFamily(v, c=c)
        alpha = family_worst_ratio(fam, v)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=fam, alpha=alpha, d=d)
        got, _ = expected_revenue(mech)
        look = lookahead_benchmark_family(prior, v, fam)
        rows.append({"instance": v.name, "base": "high-if-possible", "alpha": alpha,
                     "d": d, "revenue": got, "lookahead": look,
                     "floor": look / (alpha**2 + 4 * alpha * d + 1)})
        randomized = HypergridFamily(v, c=c)
        mech = ReserveBackedMechanism(v=v, prior=prior, family=randomized,
                                      alpha=2 * c, d=1.0, p=0.5)
        got, _ = expected_revenue(mech)
        look = lookahead_benchmark_family(prior, v, randomized)
        rows.append({"instance": v.name, "base": "random-hypergrid", "alpha": 2 * c,
                     "d": 1.0, "revenue": got, "lookahead": look,
                     "floor": look / (4 * c * c + 32 * c + 1)})
    return rows


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--instances-per-family", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    tight = tightness_rows()
    bounds = random_bound_rows(args.instances_per_family, 10_000 + args.seed)
    rev = revenue_rows()
    write_csv(os.path.join(args.outdir, "tightness.csv"), tight)
    write_csv(os.path.join(args.outdir, "random_bounds.csv"), bounds)
    write_csv(os.path.join(args.outdir, "revenue.csv"), rev)

    summary = {
        "tightness_all_exact": all(
            math.isclose(r["identity_worst_ratio"], r["ceiling"], rel_tol=1e-9) for r in tight
        ),
        "random_mean_clears_floor": all(
            r["random_mean_at_ones"] >= r["random_floor"] * (1 - 1e-9) for r in tight
        ),
        "bounds_violations": sum(
            1 for r in bounds if r["worst_ratio"] > r["bound"] * (1 + 1e-9)
        ),
        "revenue_violations": sum(1 for r in rev if r["revenue"] < r["floor"] * (1 - 1e-9)),
        "rows": {"tightness": len(tight), "random_bounds": len(bounds), "revenue": len(rev)},
    }
    with open(os.path.join(args.outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(json.dumps(summary, indent=2))
    ok = (
        summary["tightness_all_exact"]
        and summary["random_mean_clears_floor"]
        and summary["bounds_violations"] == 0
        and summary["revenue_violations"] == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
