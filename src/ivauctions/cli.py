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
from typing import Callable, NamedTuple, Optional

from . import instances, oracle, revenue
from .mechanisms import (
    NO_WINNER,
    IncompatibleMechanism,
    generalized_vcg,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    lazy_winner,
    outcome,
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


class Mechanism(NamedTuple):
    """How the commands run one ``--mechanism`` name.

    ``table(v, pi)`` builds the allocation table and ``family(v, pi, c)`` the
    revenue rule family (None: no revenue path); both check the mechanism's
    preconditions and raise ``IncompatibleMechanism``.  ``ordering`` says where
    the bidder ordering comes from: ``"pi"`` (the ``--pi`` flag), ``"seed"`` (a
    uniform draw from ``--seed``: the randomized mechanism) or None.  Entries
    look the library functions up when called, so wrappers installed on this
    module's names (a tracer, a test double) see every call.
    """

    table: Callable
    family: Optional[Callable]
    ordering: Optional[str]


MECHANISMS = {
    "vcg": Mechanism(lambda v, pi: generalized_vcg(v), None, None),
    "two-bidder": Mechanism(lambda v, pi: two_bidder_coloring(v), None, None),
    "high-if-possible": Mechanism(
        lambda v, pi: high_if_possible(v),
        lambda v, pi, c: revenue.HighIfPossibleFamily(v, c=c),
        None,
    ),
    "hypergrid": Mechanism(
        lambda v, pi: hypergrid_coloring(v, pi),
        lambda v, pi, c: revenue.HypergridFamily(v, pi=pi, c=c),
        "pi",
    ),
    "random-hypergrid": Mechanism(
        lambda v, pi: hypergrid_coloring(v, pi),
        lambda v, pi, c: revenue.HypergridFamily(v, c=c),
        "seed",
    ),
}


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


def _load_instance(path: Optional[str], cap: int):
    # the cap bounds enumerations; for loading it can only raise the
    # profile ceiling, so a small search cap never breaks parsing
    if path is None:
        raise CliError("usage", "--instance is required")
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


def _parse_ints(text: Optional[str], what: str) -> tuple[int, ...]:
    if text is None:
        raise CliError("usage", f"{what} is required")
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


def _mechanism(name: Optional[str]) -> Mechanism:
    if name not in MECHANISMS:  # missing, or an unknown name from --config
        problem = "--mechanism is required" if name is None else f"unknown mechanism {name!r}"
        raise CliError("usage", f"{problem}; choose one of {', '.join(MECHANISMS)}")
    return MECHANISMS[name]


def _ordering(mech: Mechanism, args, n: int) -> tuple[int, ...]:
    """The mechanism's bidder ordering; a given ``--pi`` is validated either way."""
    pi = _parse_pi(args.pi, n)
    return random_permutation(n, args.seed) if mech.ordering == "seed" else pi


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj: dict, out: Optional[str]):
    _write(json.dumps(obj, indent=2), out)


def _emit_csv(rows: list[dict], columns: list[str], out: Optional[str]):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in columns))
    _write("\n".join(lines), out)


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
    v = _load_instance(args.instance, args.cap).tabulated()
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


def cmd_run(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    profile = _parse_ints(args.profile, "--profile")
    try:
        v.space.validate_profile(profile)
    except ValidationError as e:
        raise CliError("usage", str(e))
    mech = _mechanism(args.mechanism)
    pi = _ordering(mech, args, v.n)
    if mech.ordering:
        c = compute_c(v)
        rule = lambda p: lazy_winner(v, pi, p, c=c)
    else:
        rule = mech.table(v, pi)
    result = outcome(rule, v, profile).to_json()
    if mech.ordering:
        result["pi"] = [b + 1 for b in pi]
    _emit(result, args.out)
    return result


def cmd_table(args) -> dict:
    v = _load_instance(args.instance, args.cap)
    mech = _mechanism(args.mechanism)
    pi = _ordering(mech, args, v.n)
    obj = mech.table(v, pi).to_json()
    if mech.ordering:
        obj["pi"] = [b + 1 for b in pi]
    _emit(obj, args.out)
    return obj


def cmd_evaluate(args) -> dict:
    v = _load_instance(args.instance, args.cap).tabulated()
    name = args.mechanism
    mech = _mechanism(name)
    pi = _ordering(mech, args, v.n)
    if mech.ordering == "seed":  # the randomized mechanism: its mean over orderings
        c = compute_c(v)
        table = None
    else:
        table = mech.table(v, pi)
    prior = _load_prior(args.prior, v.space) if args.prior else None
    per_profile = []
    try:
        if table is None:
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
        else:
            worst, ratios = welfare_ratio(table, v)
            for p in v.space.profiles():
                w = int(table.winner[p])
                per_profile.append(
                    {
                        "profile": list(p),
                        "winner": None if w == NO_WINNER else w + 1,
                        "ratio": _num(float(ratios[p])),
                    }
                )
    except IncompatibleMechanism:
        raise  # reported as "incompatible" by main, like in every command
    except (ValidationError, CapExceeded) as e:
        raise CliError("evaluate", str(e))
    result = {"mechanism": name, "worst_ratio": _num(worst), "per_profile": per_profile}
    if prior is not None and table is None:
        means = {tuple(row["profile"]): row["expected_value"] for row in per_profile}
        result["expected_welfare"] = sum(ps * means[s] for s, ps in prior.support())
    if prior is not None and table is not None:
        welfare = 0.0
        for s, ps in prior.support():
            w = int(table.winner[s])
            welfare += ps * (0.0 if w == NO_WINNER else v.value(w, s))
        rev = revenue.expected_payment_revenue(table, v, prior)
        look = revenue.lookahead_benchmark(prior, v, table)
        result["expected_welfare"] = welfare
        result["expected_revenue"] = rev
        result["lookahead"] = look
        result["revenue_ratio"] = _num(look / rev) if rev > 0 else "INFINITE"
    if args.format == "csv":
        cols = ["profile", "winner" if table is not None else "expected_value", "ratio"]
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
    v = _load_instance(args.instance, args.cap).tabulated()
    if not args.prior:
        raise CliError("usage", "revenue needs --prior")
    prior = _load_prior(args.prior, v.space)
    name = args.mechanism or "hypergrid"
    mech = MECHANISMS.get(name)
    c = compute_c(v)
    if mech is None or mech.family is None:
        supported = ", ".join(sorted(m for m in MECHANISMS if MECHANISMS[m].family))
        raise CliError("usage", f"revenue supports {supported}; got {name!r}")
    pi = _parse_pi(args.pi, v.n)
    try:
        family = mech.family(v, pi, c)
        if mech.ordering == "seed":
            default_alpha, default_p = 2.0 * c, 0.5
        else:
            default_alpha, default_p = revenue.family_worst_ratio(family, v), 1.0
        alpha = args.alpha if args.alpha is not None else default_alpha
        d = args.d if args.d is not None else compute_d(v)
        p = args.p if args.p is not None else default_p
        if math.isinf(d):
            raise CliError("incompatible", "instance has an infinite concavity constant")
        backed = revenue.ReserveBackedMechanism(
            v=v, prior=prior, family=family, alpha=alpha, d=d, p=p
        )
        er, se = revenue.expected_revenue(
            backed, cap=args.cap, samples=args.samples, seed=args.seed
        )
        look = revenue.lookahead_benchmark_family(prior, v, family)
    except IncompatibleMechanism:
        raise
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
            raise CliError("usage", f"MECHLIB_CAP must be an integer, got {env!r}") from None
    return 10_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivauctions",
        description="Interdependent-value auction mechanisms and verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, help):
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, "config instance cap out",
            "measure c, d, and monotonicity of an instance")
    p = command("generate", cmd_generate, "config cap out", "write a named instance to JSON")
    p.add_argument("name", choices=sorted(instances.GENERATORS))
    p.add_argument("--params", nargs="*", metavar="KEY=VALUE")
    command("run", cmd_run, "config instance mechanism profile pi seed cap out",
            "one mechanism outcome at one reported profile")
    command("table", cmd_table, "config instance mechanism pi seed cap out",
            "materialize a mechanism's full allocation table")
    command("evaluate", cmd_evaluate,
            "config instance mechanism pi prior seed samples cap out format",
            "per-profile welfare ratios and prior expectations")
    p = command("search", cmd_search, "config instance cap out",
                "exhaustive best monotone allocation search")
    p.add_argument("instance_pos", nargs="?", metavar="instance.json")
    p.add_argument("--witness", help="write the witness table to this file")
    p = command("revenue", cmd_revenue,
                "config instance mechanism pi prior seed samples cap out",
                "reserve-backed mechanism revenue against the lookahead")
    p.add_argument("--alpha", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--p", type=float)

    return parser


# Every flag a subcommand may declare; each subcommand lists the ones it reads.
_FLAGS = {
    "config": dict(help="JSON file of flag defaults (flags override it)"),
    "instance": dict(help="instance JSON file"),
    "mechanism": dict(choices=MECHANISMS, help="mechanism name"),
    "profile": dict(help="comma-separated signals, e.g. 1,0,2"),
    "pi": dict(help="1-based bidder ordering, e.g. 2,1,3"),
    "prior": dict(help="prior JSON file"),
    "seed": dict(type=int, default=None),
    "samples": dict(type=int, default=None),
    "cap": dict(type=int, default=None),
    "out": dict(help="write output to this file instead of stdout"),
    "format": dict(choices=("json", "csv"), default=None),
}
_CONFIG_KEYS = tuple(flag for flag in _FLAGS if flag != "config")
_HARD_DEFAULTS = {"seed": 0, "samples": 100_000, "format": "json"}


def _apply_config(args):
    """Settle flag values: explicit flags beat the config file beat defaults."""
    if getattr(args, "config", None):
        conf = _load_json_file(args.config)
        if not isinstance(conf, dict):
            raise CliError("usage", "config must be a JSON object of flag values")
        unknown = set(conf) - set(_CONFIG_KEYS)
        if unknown:
            raise CliError("usage", f"unknown config keys {sorted(unknown)}")
        for key, value in conf.items():
            spec = _FLAGS[key]
            if spec.get("type") is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            elif key == "format":
                ok = value in spec["choices"]
            else:  # a path or a name; an unknown mechanism name is refused where it is read
                ok = isinstance(value, str)
            if not ok:
                raise CliError("usage", f"config key {key!r} cannot take the value {value!r}")
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, value)
    for key, value in _HARD_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if hasattr(args, "cap") and args.cap is None:
        args.cap = _default_cap()


def _error_type(e: Exception) -> str:
    if isinstance(e, CliError):
        return e.kind
    return "incompatible" if isinstance(e, IncompatibleMechanism) else "validation"


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        args.func(args)
    except (CliError, ValidationError, CapExceeded) as e:
        json.dump({"error": {"type": _error_type(e), "message": str(e)}}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
