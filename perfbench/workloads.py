"""The benchmark's four workloads: seeded certification jobs run through public calls.

Each workload class builds its inputs from the seed in ``__init__`` (the timed
set-up) and runs one op per ``op(index)`` call.  An op performs the same
sequence of steps every time, on inputs drawn from the seed and the op index,
checks the outputs, and returns a JSON-able summary of them; a failed check
raises ``CheckFailed``.  References used by the checks are written here with
NumPy on the raw value arrays, so they share no code with the steps they judge.

Workloads, and why each one is here:

* ``orderings`` - the randomized grid mechanism's averages over orderings:
  Monte Carlo over an evaluator-backed 65-bidder instance and all 7! orderings
  of a 7-bidder table.  The lazy chain and valuation access do the work;
  table builders, revenue and search are bypassed.
* ``revenue`` - the revenue layer used two ways: many short sub-markets (the
  reserve-backed mechanism with the randomized base, exact enumeration) and a
  few long lines (critical payments and the lookahead on a 2-bidder k=22 grid).
* ``grid_certify`` - certifying the deterministic grid mechanism on ~5k-profile
  tables: c/d measurement, table builders, verification sweeps, lazy outcomes
  and the CLI's JSON round trip.  Revenue and oracles are bypassed.
* ``monotone_search`` - the exhaustive best-monotone-table search and the
  monotone-table enumeration, measured nowhere else.
"""

from __future__ import annotations

import json
import math
import os
import random
import numpy as np

from ivauctions import cli, mechanisms, model, oracle, revenue
from ivauctions import instances as gen

#: Distinct instances generated per input family; ops cycle through them.
POOL = 8

REL = 1e-9


class CheckFailed(AssertionError):
    """An op's output failed its correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}:setup")
    return [rng.getrandbits(31) for _ in range(count)]


# ---------------------------------------------------------------------------
# Independent references on raw value arrays.
# ---------------------------------------------------------------------------


def ref_worst_ratio(values: np.ndarray, winner: np.ndarray) -> float:
    """max over profiles of (top value) / (winner's value), 0/0 read as 1."""
    top = values.max(axis=0)
    won = np.take_along_axis(values, winner[None].astype(np.intp), axis=0)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(top == 0, 1.0, np.where(won == 0, np.inf, top / won))
    return float(ratio.max())


def ref_is_monotone(winner: np.ndarray) -> bool:
    """A bidder who wins keeps winning as her own signal rises."""
    for i in range(winner.ndim):
        wins = np.moveaxis(winner, i, -1) == i
        if np.any(wins[..., :-1] & ~wins[..., 1:]):
            return False
    return True


def ref_payment_and_lookahead(values: np.ndarray, winner: np.ndarray) -> tuple[float, float]:
    """Critical-payment revenue and lookahead of a full-support table under the uniform prior."""
    n = values.shape[0]
    payment = np.zeros(winner.shape)
    reserve = np.zeros(winner.shape)
    for i in range(n):
        wins = np.moveaxis(winner, i, -1) == i
        line_vals = np.moveaxis(values[i], i, -1)
        pay = np.moveaxis(payment, i, -1)  # views: writes land in payment/reserve
        res = np.moveaxis(reserve, i, -1)
        for ctx in np.ndindex(*wins.shape[:-1]):
            if not wins[ctx].any():
                continue
            b = int(np.argmax(wins[ctx]))
            upper = line_vals[ctx][b:]
            accept = (upper[None, :] >= upper[:, None]).sum(axis=1) / upper.size
            pay[ctx][wins[ctx]] = upper[0]
            res[ctx][wins[ctx]] = float((upper * accept).max())
    runner = np.where(
        np.arange(n).reshape((n,) + (1,) * winner.ndim) == winner[None], -np.inf, values
    ).max(axis=0)
    return float(payment.mean()), float((reserve + runner).mean())


def ref_crossing_witness(values: np.ndarray, report) -> None:
    """The reported witness attains the reported raw crossing ratio."""
    i, j, p = report.witness
    lower = list(p)
    lower[i] -= 1
    own = values[(i,) + tuple(p)] - values[(i,) + tuple(lower)]
    cross = values[(j,) + tuple(p)] - values[(j,) + tuple(lower)]
    require(own > 0 and close(cross / own, report.raw), f"crossing witness {report.witness}")


def ref_concavity_witness(values: np.ndarray, report) -> None:
    """Some context above the witness grows its increment by exactly the reported raw d."""
    i, j, p, _ = report.witness
    incr = np.diff(values[i], axis=j)  # incr[..., t, ...] is the step from t to t+1 on axis j
    t = p[j] - 1
    slab = np.take(incr, t, axis=j)
    ctx = tuple(x for a, x in enumerate(p) if a != j)
    low = slab[ctx]
    above = slab[tuple(slice(x, None) for x in ctx)]
    require(low > 0 and close(float(above.max()) / low, report.raw), f"concavity witness {p}")


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Orderings:
    op_size = ("Monte Carlo over 250 orderings, n=64 (+1 outlier), declared c=2; "
               "plus all 7! orderings on a 7-bidder two-signal table")
    MC_N, MC_C, MC_SAMPLES, EXACT_N = 64, 2.0, 250, 7

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.lb = gen.gen_random_mech_lb(self.MC_N, self.MC_C)
        self.ones = (1,) * (self.MC_N + 1)
        groups = self.MC_N // round(math.log2(self.MC_N) * math.sqrt(self.MC_N))
        self.lb_opt = self.MC_C * groups
        self.ceiling = (self.lb_opt * (math.log2(self.MC_N) + 2 * self.MC_C)
                        / (self.MC_C * math.sqrt(self.MC_N)) * 1.1)
        self.pool = [gen.gen_random_tabulated(self.EXACT_N, 1, seed=s)[:2]
                     for s in _seeds("orderings", seed, POOL)]

    def op(self, index: int) -> dict:
        rng = _op_rng("orderings", self.seed, index)
        mc_seed = rng.getrandbits(31)
        mean, se = oracle.monte_carlo_random_hypergrid(
            self.lb, self.ones, samples=self.MC_SAMPLES, seed=mc_seed, c=self.MC_C
        )
        require(0.0 <= mean <= self.lb_opt, f"MC mean {mean} outside [0, OPT={self.lb_opt}]")
        require(mean <= self.ceiling, f"MC mean {mean} above ceiling {self.ceiling}")

        v, c = self.pool[index % POOL]
        s = tuple(rng.randint(0, 1) for _ in range(self.EXACT_N))
        exact, per_pi = oracle.exact_random_hypergrid_stats(v, s, c=c)
        opt = float(v.values[(slice(None),) + s].max())
        require(len(per_pi) == math.factorial(self.EXACT_N), "not every ordering averaged")
        floor = opt / (2.0 * c**1.5 * math.sqrt(self.EXACT_N))
        require(floor <= exact <= opt, f"exact mean {exact} outside [{floor}, {opt}]")
        return {"mc_seed": mc_seed, "mc_mean": mean, "mc_se": se, "profile": s, "exact": exact}


class Revenue:
    op_size = ("(a) exact reserve-backed revenue + lookahead, randomized grid base, "
               "n=3 two-signal separable, 176 events; (b) critical-payment revenue + "
               "lookahead of the identity-order grid table, n=2, k=22")
    A_N, A_C, B_K = 3, 2.0, 22

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        seeds = _seeds("revenue", seed, 2 * POOL)
        self.sub_markets = []
        for s in seeds[:POOL]:
            v = gen.gen_random_separable(self.A_N, 1, self.A_C, seed=s)
            c, d = model.compute_c(v), model.compute_d(v)
            self.sub_markets.append((v, c, d, revenue.uniform_product_prior(v.space)))
        self.lines = []
        for s in seeds[POOL:]:
            v, c, _ = gen.gen_random_tabulated(2, self.B_K, seed=s)
            table = mechanisms.hypergrid_coloring(v, mechanisms.identity_permutation(2), c=c)
            self.lines.append((v, table, revenue.uniform_product_prior(v.space)))

    def op(self, index: int) -> dict:
        v, c, d, prior = self.sub_markets[index % POOL]
        alpha, p = 2.0 * c, 0.5
        family = revenue.HypergridFamily(v, c=c)
        mech = revenue.ReserveBackedMechanism(v=v, prior=prior, family=family, alpha=alpha, d=d, p=p)
        er, se = revenue.expected_revenue(mech)
        look_a = revenue.lookahead_benchmark_family(prior, v, family)
        require(se == 0.0, f"revenue was sampled (se {se}), not enumerated")
        factor = alpha * alpha + 4.0 * alpha * d / (p * p) + 1.0
        require(er >= look_a / factor, f"revenue {er} below lookahead/{factor} = {look_a / factor}")
        welfare = float(v.values.max(axis=0).mean())
        require(0.0 < er <= welfare, f"revenue {er} outside (0, expected max value {welfare}]")

        w, table, prior_b = self.lines[index % POOL]
        pay = revenue.expected_payment_revenue(table, w, prior_b)
        look_b = revenue.lookahead_benchmark(prior_b, w, table)
        require(look_b >= pay, f"lookahead {look_b} below payment revenue {pay}")
        ref_pay, ref_look = ref_payment_and_lookahead(w.values, table.winner)
        require(close(pay, ref_pay), f"payment revenue {pay} != reference {ref_pay}")
        require(close(look_b, ref_look), f"lookahead {look_b} != reference {ref_look}")
        return {"revenue": er, "lookahead": look_a, "payment_revenue": pay, "line_lookahead": look_b}


class GridCertify:
    op_size = ("certify a 2-bidder k=70 and a 3-bidder k=16 table (5041 and 4913 profiles): "
               "c/d, grid + two-bidder tables, sweeps, 3 lazy outcomes each, CLI check/evaluate/run")
    SHAPES = ((2, 70), (3, 16))
    LAZY_OUTCOMES = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.pool = []
        for slot, s in enumerate(_seeds("grid_certify", seed, POOL // 2)):
            pair = []
            for n, k in self.SHAPES:
                v, _, _ = gen.gen_random_tabulated(n, k, seed=s)
                path = os.path.join(workdir, f"instance-{slot}-n{n}.json")
                with open(path, "w") as fh:
                    json.dump(model.instance_to_json(v), fh)
                pair.append((v, path))
            self.pool.append(pair)

    def op(self, index: int) -> dict:
        rng = _op_rng("grid_certify", self.seed, index)
        return {f"n{v.n}": self._certify(v, path, rng)
                for v, path in self.pool[index % len(self.pool)]}

    def _certify(self, v, path: str, rng: random.Random) -> dict:
        n, k = v.n, v.space.sizes[0]
        vals = v.values
        crossing = model.single_crossing_report(v)
        concavity = model.concavity_report(v)
        ref_crossing_witness(vals, crossing)
        ref_concavity_witness(vals, concavity)
        c = crossing.c

        pi = tuple(rng.sample(range(n), n))
        table = mechanisms.hypergrid_coloring(v, pi, c=c)
        require(not mechanisms.check_allocation_monotone(table), "grid table not monotone")
        require(ref_is_monotone(table.winner), "grid table not monotone (reference)")
        worst, _ = mechanisms.welfare_ratio(table, v)
        require(worst == ref_worst_ratio(vals, table.winner), f"worst ratio {worst} != reference")
        require(worst <= (n - 1) * c * (1 + REL), f"worst ratio {worst} above (n-1)c")
        require(not mechanisms.check_expost_truthful(table, v), "profitable deviation found")
        out = {"c": c, "d": concavity.d, "pi": pi, "worst": worst}
        if n == 2:
            two = mechanisms.two_bidder_coloring(v, c=c)
            require(ref_is_monotone(two.winner), "two-bidder table not monotone")
            out["two_bidder_worst"] = ref_worst_ratio(vals, two.winner)
            require(out["two_bidder_worst"] <= c * (1 + REL), "two-bidder ratio above c")

        lazy_rule = lambda p: mechanisms.lazy_winner(v, pi, p)
        outcomes = []
        for _ in range(self.LAZY_OUTCOMES):
            s = tuple(rng.randint(0, k) for _ in range(n))
            lazy = mechanisms.outcome(lazy_rule, v, s)
            require(lazy == mechanisms.outcome(table, v, s), f"lazy outcome differs at {s}")
            rest = [x for b, x in enumerate(s) if b != lazy.winner]
            scan = mechanisms.critical_signal_scan(table, v, lazy.winner, rest)
            require(lazy.critical_signal == scan, f"binary-search payment differs at {s}")
            outcomes.append((s, lazy.to_json()))
        out["outcomes"] = outcomes

        pi_arg = ",".join(str(b + 1) for b in pi)
        check = self._cli(["check", "--instance", path])
        require(check["c"] == c and check["d"] == concavity.d and check["monotone"],
                f"CLI check {check['c']}, {check['d']} != library {c}, {concavity.d}")
        evaluated = self._cli(["evaluate", "--mechanism", "hypergrid", "--instance", path,
                               "--pi", pi_arg])
        winners = [row["winner"] for row in evaluated["per_profile"]]
        require(evaluated["worst_ratio"] == worst, "CLI worst ratio differs from library")
        require(winners == (table.winner.reshape(-1) + 1).tolist(), "CLI winners differ")
        s, expected = outcomes[0]
        ran = self._cli(["run", "--mechanism", "hypergrid", "--instance", path, "--pi", pi_arg,
                         "--profile", ",".join(map(str, s))])
        require({key: ran[key] for key in expected} == expected, f"CLI run differs at {s}")
        return out

    def _cli(self, argv: list[str]) -> dict:
        out = os.path.join(self.workdir, "cli-out.json")
        code = cli.main(argv + ["--out", out])
        require(code == 0, f"CLI {argv[0]} exited {code}")
        with open(out) as fh:
            return json.load(fh)


class MonotoneSearch:
    op_size = ("best monotone table on a 2-bidder k=7 grid (115,821 nodes) and on the "
               "three-bidder no-c table (7,579 nodes); enumerate a 2-bidder k=7 grid's tables")
    K = 7

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        seeds = _seeds("monotone_search", seed, 2 * POOL)
        self.searched = [gen.gen_random_tabulated(2, self.K, seed=s)[:2] for s in seeds[:POOL]]
        self.enumerated = [gen.gen_random_tabulated(2, self.K, seed=s)[0] for s in seeds[POOL:]]
        self.three = gen.gen_three_bidder_no_c()

    def op(self, index: int) -> dict:
        v, c = self.searched[index % POOL]
        report = oracle.best_monotone_ratio(v)
        three = oracle.best_monotone_ratio(self.three)
        count = sum(1 for _ in oracle.enumerate_monotone_tables(self.enumerated[index % POOL]))

        expected = math.comb(2 * self.K + 2, self.K + 1)
        require(report.monotone_count == expected == count,
                f"monotone tables {report.monotone_count} / enumerated {count} != {expected}")
        two = mechanisms.two_bidder_coloring(v, c=c)
        two_ratio = ref_worst_ratio(v.values, two.winner)
        require(report.best_ratio <= two_ratio <= c * (1 + REL),
                f"best {report.best_ratio} <= two-bidder {two_ratio} <= c {c} fails")
        witness = report.witness_table.winner
        require(ref_is_monotone(witness), "search witness not monotone")
        require(ref_worst_ratio(v.values, witness) == report.best_ratio, "witness ratio differs")
        require(three.best_ratio > 2.0 and round(three.best_ratio, 5) == 2.19935,
                f"three-bidder best ratio {three.best_ratio} != 2.19935")
        return {"best": report.best_ratio, "nodes": report.tables_scanned,
                "three_best": three.best_ratio, "three_nodes": three.tables_scanned,
                "enumerated": count}


WORKLOADS = {
    "orderings": Orderings,
    "revenue": Revenue,
    "grid_certify": GridCertify,
    "monotone_search": MonotoneSearch,
}
