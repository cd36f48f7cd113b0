"""Batch command-line front end.

Subcommands: check, generate, run, table, evaluate, search, revenue.  All
output is deterministic given the inputs and seed: JSON objects are emitted
with a fixed field order and floats printed in shortest round-trip form, so
reruns are byte-identical.  Errors go to stderr as machine-readable JSON
objects and flip the exit code to 1.  Bidders and signals are 0-based inside
the library; winner indices and orderings cross the CLI boundary 1-based.

The enumeration cap obeys: command-line flag > MECHLIB_CAP environment
variable > built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional

from . import instances, oracle, revenue
from .mechanisms import (
    AllocationTable,
    generalized_vcg,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    lazy_winner,
    outcome,
    random_hypergrid_outcome,
    random_permutation,
    two_bidder_coloring,
    welfare_ratio,
)
from .model import (
    DEFAULT_PROFILE_CAP,
    INFINITE,
    CapExceeded,
    ValidationError,
    compute_c,
    compute_d,
    check_value_monotone,
    instance_to_json,
    validate_permutation,
)

MECHANISMS = ("vcg", "two-bidder", "high-if-possible", "hypergrid", "random-hypergrid")


class CliError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _num(x: float):
    return "INFINITE" if math.isinf(x) else x


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError("io", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise CliError("parse", f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def _load_instance(path: str, cap: int):
    # the cap bounds enumerations; for loading it can only raise the
    # profile ceiling, so a small search cap never breaks parsing
    obj = _load_json_file(path)
    try:
        return instances.load_instance(obj, profile_cap=max(cap, DEFAULT_PROFILE_CAP))
    except (ValidationError, TypeError) as e:
        raise CliError("instance", f"{path}: {e}")


def _load_prior(path: str, space) -> revenue.JointPrior:
    obj = _load_json_file(path)
    try:
        return revenue.JointPrior.from_json(obj, space=space)
    except ValidationError as e:
        raise CliError("prior", f"{path}: {e}")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError("usage", f"cannot parse {what} {text!r}; expected comma-separated integers")


def _parse_pi(text: Optional[str], n: int) -> tuple[int, ...]:
    if text is None:
        return identity_permutation(n)
    order = tuple(x - 1 for x in _parse_ints(text, "--pi"))
    try:
        return validate_permutation(order, n)
    except ValidationError as e:
        raise CliError("usage", f"--pi: {e} (orderings are 1-based)")


def _mechanism_table(name: str, v, pi) -> AllocationTable:
    if name == "vcg":
        return generalized_vcg(v)
    if name == "two-bidder":
        return two_bidder_coloring(v)
    if name == "high-if-possible":
        return high_if_possible(v)
    if name == "hypergrid":
        return hypergrid_coloring(v, pi)
    raise CliError("usage", f"mechanism {name!r} has no deterministic table")


def _emit(obj: dict, out: Optional[str]):
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(rows: list[dict], columns: list[str], out: Optional[str]):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    text = "\n".join(lines)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (list, tuple)):
        return " ".join(str(v) for v in x)
    return str(x)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_check(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    v = v.tabulated()
    violations = check_value_monotone(v)
    report = {
        "c": None,
        "d": None,
        "monotone": not violations,
        "n": v.n,
        "sizes": list(v.space.sizes),
        "profile_count": v.space.profile_count,
    }
    if violations:
        report["monotone_violations"] = [
            {"bidder": i + 1, "axis": j + 1, "profile": list(s), "from": lo, "to": hi}
            for i, j, s, lo, hi in violations[:10]
        ]
    else:
        report["c"] = _num(compute_c(v))
        report["d"] = _num(compute_d(v))
    _emit(report, args.out)
    return report


def cmd_generate(args) -> dict:
    params = {}
    for tok in args.params or []:
        if "=" not in tok:
            raise CliError("usage", f"--params entries are key=value, got {tok!r}")
        key, raw = tok.split("=", 1)
        try:
            params[key] = int(raw)
        except ValueError:
            try:
                params[key] = float(raw)
            except ValueError:
                raise CliError("usage", f"--params {key}: {raw!r} is not a number")
    try:
        v = instances.make_instance(args.name, **params)
    except (ValidationError, TypeError) as e:
        raise CliError("generate", str(e))
    obj = {"generator": args.name, "params": params,
           "provenance": instances.PROVENANCE.get(args.name, "")}
    if v.space.profile_count <= args.cap:
        obj.update(instance_to_json(v.tabulated()))
        obj["name"] = v.name
    _emit(obj, args.out)
    return obj


def _check_compat(name: str, v):
    if name == "two-bidder" and v.n != 2:
        raise CliError("incompatible", f"two-bidder needs n=2, instance has n={v.n}")
    if name == "high-if-possible" and any(k != 1 for k in v.space.sizes):
        raise CliError("incompatible", "high-if-possible needs two signals per bidder")
    if name in ("two-bidder", "high-if-possible", "hypergrid", "random-hypergrid"):
        if math.isinf(compute_c(v.tabulated()) if v.is_tabulated else 1.0):
            raise CliError("incompatible", "instance has an infinite crossing constant")


def cmd_run(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    profile = _parse_ints(args.profile, "--profile")
    try:
        v.space.validate_profile(profile)
    except ValidationError as e:
        raise CliError("usage", str(e))
    name = args.mechanism
    _check_compat(name, v)
    try:
        if name == "random-hypergrid":
            out, pi = random_hypergrid_outcome(v, profile, args.seed)
            result = out.to_json()
            result["pi"] = [b + 1 for b in pi]
        elif name == "hypergrid":
            pi = _parse_pi(args.pi, v.n)
            c = compute_c(v)
            rule = lambda p: lazy_winner(v, pi, p, c=c)
            out = outcome(rule, v, profile)
            result = out.to_json()
            result["pi"] = [b + 1 for b in pi]
        else:
            table = _mechanism_table(name, v, None)
            out = outcome(table, v, profile)
            result = out.to_json()
    except ValidationError as e:
        raise CliError("incompatible", str(e))
    _emit(result, args.out)
    return result


def cmd_table(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    pi = _parse_pi(args.pi, v.n)
    name = args.mechanism
    _check_compat(name, v)
    try:
        if name == "random-hypergrid":
            pi = random_permutation(v.n, args.seed)
            table = hypergrid_coloring(v, pi)
        else:
            table = _mechanism_table(name, v, pi)
    except ValidationError as e:
        raise CliError("incompatible", str(e))
    obj = table.to_json()
    if name in ("hypergrid", "random-hypergrid"):
        obj["pi"] = [b + 1 for b in pi]
    _emit(obj, args.out)
    return obj


def cmd_evaluate(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    v = v.tabulated()
    name = args.mechanism
    _check_compat(name, v)
    pi = _parse_pi(args.pi, v.n)
    prior = _load_prior(args.prior, v.space) if args.prior else None
    per_profile = []
    try:
        if name == "random-hypergrid":
            c = compute_c(v)
            worst = 1.0
            for p in v.space.profiles():
                opt = oracle.optimal_welfare(v, p)
                if v.n <= 8:
                    mean, _ = oracle.exact_random_hypergrid_stats(v, p, c=c)
                else:
                    mean, _ = oracle.monte_carlo_random_hypergrid(
                        v, p, samples=args.samples, seed=args.seed, c=c
                    )
                ratio = 1.0 if opt == 0 else (INFINITE if mean == 0 else opt / mean)
                worst = max(worst, ratio)
                per_profile.append(
                    {"profile": list(p), "expected_value": mean, "ratio": _num(ratio)}
                )
            table = None
        else:
            table = _mechanism_table(name, v, pi)
            worst, ratios = welfare_ratio(table, v)
            for p in v.space.profiles():
                w = table.winner_at(p)
                per_profile.append(
                    {
                        "profile": list(p),
                        "winner": None if w is None else w + 1,
                        "ratio": _num(float(ratios[p])),
                    }
                )
    except (ValidationError, CapExceeded) as e:
        raise CliError("evaluate", str(e))
    result = {"mechanism": name, "worst_ratio": _num(worst), "per_profile": per_profile}
    if prior is not None and table is None:
        means = {tuple(row["profile"]): row["expected_value"] for row in per_profile}
        result["expected_welfare"] = sum(ps * means[s] for s, ps in prior.support())
    if prior is not None and table is not None:
        # each prior metric degrades independently: a cap hit on one is
        # reported in its place while the others are still emitted
        def metric(key, fn):
            try:
                result[key] = fn()
            except (ValidationError, CapExceeded) as e:
                result[key] = {"error": str(e)}

        def welfare():
            total = 0.0
            for s, ps in prior.support():
                w = table.winner_at(s)
                total += ps * (0.0 if w is None else v.value(w, s))
            return total

        metric("expected_welfare", welfare)
        metric("expected_revenue", lambda: revenue.expected_payment_revenue(table, v, prior))
        metric("lookahead", lambda: revenue.lookahead_benchmark(prior, v, table))
        rev_val = result.get("expected_revenue")
        look_val = result.get("lookahead")
        if isinstance(rev_val, float) and isinstance(look_val, float):
            result["revenue_ratio"] = _num(look_val / rev_val) if rev_val > 0 else "INFINITE"
    if args.format == "csv":
        cols = ["profile", "winner", "ratio"]
        if name == "random-hypergrid":
            cols = ["profile", "expected_value", "ratio"]
        _emit_csv(per_profile, cols, args.out)
    else:
        _emit(result, args.out)
    return result


def cmd_search(args) -> dict:
    path = args.instance_pos or args.instance
    if not path:
        raise CliError("usage", "search needs an instance file")
    v = _load_instance(path, args.cap)
    try:
        report = oracle.best_monotone_ratio(v.tabulated(), cap=args.cap)
    except CapExceeded as e:
        raise CliError("cap", str(e))
    obj = report.to_json()
    if args.witness and report.witness_table is not None:
        with open(args.witness, "w") as fh:
            json.dump(report.witness_table.to_json(), fh, indent=2)
            fh.write("\n")
    _emit(obj, args.out)
    return obj


def cmd_revenue(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    v = v.tabulated()
    if not args.prior:
        raise CliError("usage", "revenue needs --prior")
    prior = _load_prior(args.prior, v.space)
    name = args.mechanism or "hypergrid"
    c = compute_c(v)
    if math.isinf(c):
        raise CliError("incompatible", "instance has an infinite crossing constant")
    try:
        if name == "high-if-possible":
            family = revenue.HighIfPossibleFamily(v)
            default_alpha = revenue.family_worst_ratio(family, v)
            default_p = 1.0
        elif name == "hypergrid":
            family = revenue.HypergridFamily(v, pi=_parse_pi(args.pi, v.n))
            default_alpha = revenue.family_worst_ratio(family, v)
            default_p = 1.0
        elif name == "random-hypergrid":
            family = revenue.HypergridFamily(v)
            default_alpha = 2.0 * c
            default_p = 0.5
        else:
            raise CliError("usage", f"revenue supports high-if-possible, hypergrid, random-hypergrid; got {name!r}")
        alpha = args.alpha if args.alpha is not None else default_alpha
        d = args.d if args.d is not None else compute_d(v)
        p = args.p if args.p is not None else default_p
        if math.isinf(d):
            raise CliError("incompatible", "instance has an infinite concavity constant")
        mech = revenue.ReserveBackedMechanism(
            v=v, prior=prior, family=family, alpha=alpha, d=d, p=p
        )
        er, se = revenue.expected_revenue(
            mech, cap=args.cap, samples=args.samples, seed=args.seed
        )
        look = revenue.lookahead_benchmark_family(prior, v, family)
    except (ValidationError, CapExceeded) as e:
        raise CliError("revenue", str(e))
    result = {
        "expected_revenue": er,
        "lookahead": look,
        "ratio": _num(look / er) if er > 0 else "INFINITE",
        "alpha": alpha,
        "d": d,
        "p": p,
    }
    if se:
        result["stderr"] = se
    _emit(result, args.out)
    return result


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _default_cap() -> int:
    env = os.environ.get("MECHLIB_CAP")
    if env:
        try:
            return int(env)
        except ValueError:
            pass
    return 10_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivauctions",
        description="Interdependent-value auction mechanisms and verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mechanism=False, profile=False, prior=False):
        p.add_argument("--config", help="JSON file of flag defaults (flags override it)")
        p.add_argument("--instance", help="instance JSON file")
        if mechanism:
            p.add_argument("--mechanism", choices=MECHANISMS, help="mechanism name")
        if profile:
            p.add_argument("--profile", help="comma-separated signals, e.g. 1,0,2")
        p.add_argument("--pi", help="1-based bidder ordering, e.g. 2,1,3")
        if prior:
            p.add_argument("--prior", help="prior JSON file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--cap", type=int, default=None)
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None)

    p = sub.add_parser("check", help="measure c, d, and monotonicity of an instance")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", help="write a named instance to JSON")
    p.add_argument("name", choices=sorted(instances.GENERATORS))
    p.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="one mechanism outcome at one reported profile")
    common(p, mechanism=True, profile=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table", help="materialize a mechanism's full allocation table")
    common(p, mechanism=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("evaluate", help="per-profile welfare ratios and prior expectations")
    common(p, mechanism=True, prior=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="exhaustive best monotone allocation search")
    p.add_argument("instance_pos", nargs="?", metavar="instance.json")
    p.add_argument("--witness", help="write the witness table to this file")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("revenue", help="reserve-backed mechanism revenue against the lookahead")
    common(p, mechanism=True, prior=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--p", type=float)
    p.set_defaults(func=cmd_revenue)

    return parser


_CONFIG_KEYS = ("instance", "mechanism", "profile", "pi", "prior", "seed",
                "samples", "cap", "out", "format")
_HARD_DEFAULTS = {"seed": 0, "samples": 100_000, "format": "json"}


def _apply_config(args):
    """Settle flag values: explicit flags beat the config file beat defaults."""
    if getattr(args, "config", None):
        conf = _load_json_file(args.config)
        unknown = set(conf) - set(_CONFIG_KEYS)
        if unknown:
            raise CliError("usage", f"unknown config keys {sorted(unknown)}")
        for key, value in conf.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, value)
    for key, value in _HARD_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if hasattr(args, "cap") and args.cap is None:
        args.cap = _default_cap()


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        args.func(args)
    except CliError as e:
        json.dump({"error": {"type": e.kind, "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except (ValidationError, CapExceeded) as e:
        json.dump({"error": {"type": "validation", "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
