"""Batch command-line front end.

Subcommands: check, generate, run, table, evaluate, search, revenue.  All
output is deterministic given the inputs and seed: JSON objects are emitted
with a fixed field order and floats printed in shortest round-trip form, as
the text of ``json.dumps(obj, indent=2)``, so reruns are byte-identical.
Errors go to stderr as machine-readable JSON objects and flip the exit code
to 1.  Bidders and signals are 0-based inside the library; winner indices and
orderings cross the CLI boundary 1-based.

The enumeration cap obeys: command-line flag > MECHLIB_CAP environment
variable > built-in default.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import instances, oracle, revenue
from .mechanisms import (
    NO_WINNER,
    IncompatibleMechanism,
    _ratios,
    _winner_values,
    generalized_vcg,
    high_if_possible,
    hypergrid_coloring,
    identity_permutation,
    lazy_winner,
    outcome,
    random_permutation,
    two_bidder_coloring,
)
from .model import (
    DEFAULT_PROFILE_CAP,
    CapExceeded,
    ValidationError,
    _sequential_sums,
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
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError("io", f"file not found: {path}")
    except OSError as e:  # a directory, an unreadable file
        raise CliError("io", f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliError("parse", f"{path}: not UTF-8 text at byte {e.start}")
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
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise CliError("io", f"cannot write {out}: {e.strerror or e}")
    else:
        print(text)


def _emit(obj: dict, out: Optional[str]):
    _write(_dumps(obj), out)


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without its per-item generators.

    A list is rendered column by column (see ``_layout``); any shape or type not
    handled here falls back to the stdlib encoder for that subtree.  Any error
    is left to the stdlib encoder on the whole object, so it raises exactly what
    it raises.  ``Rows`` stand for the lists of records they hold.
    """
    try:
        return _encode(obj, 0)
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, indent=2)


class Rows:
    """A list of records held by column, for the JSON and CSV writers.

    Row b is the object ``{key: col[b] for key, col in zip(keys, columns)}``,
    or, with ``keys`` None, the list ``[col[b] for col in columns]``.  A column
    is a list of values or itself a ``Rows``.
    """

    __slots__ = ("columns", "keys")

    def __init__(self, columns: list, keys: Optional[tuple[str, ...]] = None):
        self.columns, self.keys = columns, keys

    def __len__(self) -> int:
        return len(self.columns[0])


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _encode(o, level: int) -> str:
    """One value whose first line sits at indent ``level``, checked in the stdlib's order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _FLOAT_WORDS.get(text, text)
    if isinstance(o, Rows) or (isinstance(o, (list, tuple)) and o):
        if not len(o):
            return "[]"
        pieces, cols = _layout(o if isinstance(o, Rows) else list(o), level + 1)
        inner = _indent(level + 1)
        return "[" + inner + _interleave(pieces, cols, "," + inner) + _indent(level) + "]"
    if isinstance(o, dict) and o and all(isinstance(k, str) for k in o):
        inner = _indent(level + 1)
        items = (encode_basestring_ascii(k) + ": " + _encode(x, level + 1) for k, x in o.items())
        return "{" + inner + ("," + inner).join(items) + _indent(level) + "}"
    # empty containers, non-str keys, unknown types: the stdlib, re-indented
    # (its text has no raw newline inside a string, so every newline is a line break)
    return json.dumps(o, indent=2).replace("\n", _indent(level))


def _layout(cells, level: int) -> tuple[list[str], list[list[str]]]:
    """Literal pieces and leaf columns of a list's cells (a list or ``Rows``).

    Cell b's text is ``pieces[0] + cols[0][b] + pieces[1] + ... + cols[-1][b] +
    pieces[-1]``.  A column of one scalar type is encoded in one pass; records
    with the same keys and lists of the same length become ``Rows``, whose
    cells' pieces nest, so no cell is formatted on its own.
    """
    if isinstance(cells, Rows):
        inner = _indent(level + 1)
        subs = [_layout(col, level + 1) for col in cells.columns]
        if cells.keys is None:
            heads, (opening, closing) = [""] * len(subs), "[]"
        else:
            heads, (opening, closing) = [encode_basestring_ascii(k) + ": " for k in cells.keys], "{}"
        return _joined(subs, heads, "," + inner, opening + inner, _indent(level) + closing)
    kinds = set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int:
        return ["", ""], [list(map(int.__repr__, cells))]
    if kind is float:
        return ["", ""], [_float_texts(cells)]
    if kind is str:
        return ["", ""], [list(map(encode_basestring_ascii, cells))]
    if kind is dict:
        keys = tuple(cells[0])
        if keys and all(isinstance(k, str) for k in keys) and all(map(keys.__eq__, map(tuple, cells))):
            return _layout(Rows([[c[key] for c in cells] for key in keys], keys), level)
    if kind in (list, tuple):
        width = len(cells[0])
        if width and set(map(len, cells)) == {width}:
            return _layout(Rows([list(col) for col in zip(*cells)]), level)
    return ["", ""], [[_encode(c, level) for c in cells]]


def _float_texts(cells: list) -> list[str]:
    """The JSON texts of floats, each distinct value formatted once.

    A shortest round-trip text costs about 1 us a float.  0.0 and -0.0 are one
    dict key with two texts, so a column holding a zero is formatted cell by cell.
    """
    distinct = dict.fromkeys(cells)
    values = cells if 0.0 in distinct else list(distinct)
    texts = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        texts = [_FLOAT_WORDS.get(t, t) for t in texts]
    return texts if values is cells else list(map(dict(zip(values, texts)).__getitem__, cells))


def _joined(subs: list, heads: list[str], sep: str, opening: str, closing: str):
    """The layout of cells made of ``subs``' cells side by side: ``opening``, each
    sub's cell behind its head, split by ``sep``, then ``closing``."""
    pieces, cols = [opening], []
    for j, ((sub_pieces, sub_cols), head) in enumerate(zip(subs, heads)):
        pieces[-1] += (sep if j else "") + head + sub_pieces[0]
        pieces += sub_pieces[1:]
        cols += sub_cols
    pieces[-1] += closing
    return pieces, cols


def _interleave(pieces: list[str], cols: list[list[str]], sep: str) -> str:
    """Every cell's text (pieces and column texts alternating), cells split by ``sep``,
    as one ``str.join`` over slices filled column by column."""
    rows, step = len(cols[0]), 2 * len(cols)
    flat = [""] * (rows * step)
    # the last literal of a cell, the separator and the next cell's first literal are one string
    literals = pieces[1:-1] + [pieces[-1] + sep + pieces[0]]
    for j, (col, literal) in enumerate(zip(cols, literals)):
        flat[2 * j :: step] = col
        flat[2 * j + 1 :: step] = [literal] * rows
    flat[-1] = pieces[-1]
    return pieces[0] + "".join(flat)


def _emit_csv(rows: Rows, out: Optional[str]):
    """One line per record: its leaf texts split by commas, a list's items by spaces."""

    def layout(cells: Rows, sep: str):
        subs = [layout(col, " ") if isinstance(col, Rows)
                else (["", ""], [["" if x is None else str(x) for x in col]])
                for col in cells.columns]
        return _joined(subs, [""] * len(subs), sep, "", "")

    _write(",".join(rows.keys) + "\n" + _interleave(*layout(rows, ","), "\n"), out)


def _column(values: np.ndarray, blank: np.ndarray, token) -> list:
    """``values`` as a list, with ``token`` where ``blank`` holds."""
    col = values.tolist()
    for j in np.flatnonzero(blank).tolist():
        col[j] = token
    return col


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_check(args):
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


def cmd_generate(args):
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


def cmd_run(args):
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


def cmd_table(args):
    v = _load_instance(args.instance, args.cap)
    mech = _mechanism(args.mechanism)
    pi = _ordering(mech, args, v.n)
    obj = mech.table(v, pi).to_json()
    if mech.ordering:
        obj["pi"] = [b + 1 for b in pi]
    _emit(obj, args.out)


def cmd_evaluate(args):
    v = _load_instance(args.instance, args.cap).tabulated()
    name = args.mechanism
    mech = _mechanism(name)
    pi = _ordering(mech, args, v.n)
    table = None if mech.ordering == "seed" else mech.table(v, pi)  # random: mean over orderings
    c = compute_c(v) if table is None else None
    prior = _load_prior(args.prior, v.space) if args.prior else None
    # each profile's winner value, row-major, and the column that shows it
    if table is None:
        try:
            cells = [
                oracle.exact_random_hypergrid_stats(v, p, c=c)[0] if v.n <= oracle.STATS_MAX_N
                else oracle.monte_carlo_random_hypergrid(v, p, args.samples, args.seed, c=c)[0]
                for p in v.space.profiles()
            ]
        except IncompatibleMechanism:
            raise  # reported as "incompatible" by main, like in every command
        except (ValidationError, CapExceeded) as e:
            raise CliError("evaluate", str(e))
        shown, won = "expected_value", np.array(cells)
    else:
        flat = table.winner.reshape(-1)
        shown, cells = "winner", _column(flat + 1, flat == NO_WINNER, None)
        won = _winner_values(v.values, table.winner).reshape(-1)
    ratios = _ratios(v.values.max(axis=0).reshape(-1), won)
    profiles = Rows([axis.tolist() for axis in np.indices(v.space.shape).reshape(v.n, -1)])
    per_profile = Rows(
        [profiles, cells, _column(ratios, np.isinf(ratios), "INFINITE")], ("profile", shown, "ratio")
    )
    worst = _num(max(1.0, float(ratios.max())))
    result = {"mechanism": name, "worst_ratio": worst, "per_profile": per_profile}
    if prior is not None:
        on = np.flatnonzero(prior.probs)  # the support, row-major
        result["expected_welfare"] = float(_sequential_sums(prior.probs.flat[on] * won[on]))
        if table is not None:
            rev = result["expected_revenue"] = revenue.expected_payment_revenue(table, v, prior)
            look = result["lookahead"] = revenue.lookahead_benchmark(prior, v, table)
            result["revenue_ratio"] = _num(look / rev) if rev > 0 else "INFINITE"
    if args.format == "csv":
        _emit_csv(per_profile, args.out)
    else:
        _emit(result, args.out)


def cmd_search(args):
    path = args.instance_pos or args.instance
    if not path:
        raise CliError("usage", "search needs an instance file")
    v = _load_instance(path, args.cap)
    try:
        report = oracle.best_monotone_ratio(v.tabulated(), cap=args.cap)
    except CapExceeded as e:
        raise CliError("cap", str(e))
    obj = {
        "best_ratio": _num(report.best_ratio),
        "tables_scanned": report.tables_scanned,
        "monotone_count": report.monotone_count,
        "has_witness": report.witness_table is not None,
    }
    if args.witness and report.witness_table is not None:
        _write(_dumps(report.witness_table.to_json()), args.witness)
    _emit(obj, args.out)


def cmd_revenue(args):
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


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _default_cap() -> int:
    env = os.environ.get("MECHLIB_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise CliError("usage", f"MECHLIB_CAP must be an integer, got {env!r}") from None
        if cap < 1:
            raise CliError("usage", f"MECHLIB_CAP must be at least 1, got {env!r}")
        return cap
    return DEFAULT_PROFILE_CAP


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
    if getattr(args, "cap", None) is not None and args.cap < 1:
        raise CliError("usage", f"--cap must be at least 1, got {args.cap}")
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
                ok = ok and (key != "cap" or value >= 1)
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
    if isinstance(e, CapExceeded):
        return "cap"
    return "incompatible" if isinstance(e, IncompatibleMechanism) else "validation"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use (parsing leaves it unchanged)."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
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
