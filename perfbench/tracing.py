"""In-memory tracer for the benchmark's traced run.

The tracer wraps the public functions of the six ``ivauctions`` modules from
outside the package: each wrapped call opens a span (name, start, end, parent,
op id), and the span's self time is its duration minus the time its child
spans cover.  Every module-level name bound to a wrapped function is patched,
so calls that go through another module's import (``lazy_winner`` in
``oracle``, ``revenue`` and ``cli``; ``compute_c`` in ``mechanisms``,
``revenue`` and ``cli``) are seen too.  ``uninstall`` restores every binding.
In ``cli`` only ``main`` is wrapped, so its self time is argument parsing,
file I/O and JSON emission around the library calls.

Valuation access (``ValuationInstance.value`` / ``values_at``) runs hundreds
of thousands of times per op, so those calls are counted and timed into the
aggregates but not stored as individual spans.  A call nested inside another
access (a restricted instance delegating to its parent) is counted but its
time stays with the outer call.

The tracer also counts what the docstrings claim and what later work needs:
valuation evaluations per ``lazy_winner`` call against n^2 (k+1), rule calls
per ``critical_signal`` call against ceil(log2(k+1)) + 1, and the share of
distinct keys among calls to valuation access, ``restrict_bidders`` and
``winning_reserve`` within one op.  A breached complexity bound is recorded
against the op that made it, and the runner counts that op as failed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from typing import Any, Callable, Optional

MODULES = ("model", "mechanisms", "revenue", "oracle", "instances", "cli")

#: Stored spans beyond this count are counted but dropped, to bound memory.
SPAN_LIMIT = 200_000

# (module, class, method) triples wrapped in addition to the public functions.
_METHODS = (
    ("model", "ValuationInstance", "value"),
    ("model", "ValuationInstance", "values_at"),
    ("model", "ValuationInstance", "tabulated"),
    ("revenue", "ReserveBackedMechanism", "profile_events"),
)

# Span names aggregated without storing one span per call.
_HOT = ("model.value", "model.values_at")

EVALS_PER_CALL = "mechanisms.lazy_winner.evals_per_call_max"
RULE_CALLS_PER_CALL = "mechanisms.critical_signal.rule_calls_per_call_max"


class _Frame:
    __slots__ = ("name", "start", "child", "index", "evals", "extra")

    def __init__(self, name: str, start: float, index: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.evals = 0
        self.extra = None


class Tracer:
    """Spans and counters for one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.op: Any = "setup"
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.breaches: list[tuple[Any, str]] = []
        self._hot_depth = 0
        self._distinct: dict[str, set] = defaultdict(set)
        self._keep_alive: list = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (not the stored spans), e.g. between set-up and ops."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, dict[Any, float]] = defaultdict(lambda: defaultdict(float))
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ivauctions.{m}") for m in MODULES}
        every = [importlib.import_module("ivauctions")] + list(mods.values())
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or (short == "cli" and name != "main"):
                    continue
                wrapped = self._wrap(f"{short}.{name}", fn)
                for other in every:
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, alias, wrapped)
        for short, cls_name, meth in _METHODS:
            cls = getattr(mods[short], cls_name)
            fn = vars(cls)[meth]
            name = f"{short}.{meth}"
            wrapped = self._wrap_hot(name, fn) if name in _HOT else self._wrap(name, fn)
            self._patch(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def begin_op(self, op: Any) -> None:
        """Attribute what follows to ``op``; distinct-key sets start empty per op."""
        self.op = op
        self._distinct.clear()
        self._keep_alive.clear()

    def op_breaches(self, op: Any) -> list[str]:
        return [msg for o, msg in self.breaches if o == op]

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, store: bool = True) -> _Frame:
        parent = self.stack[-1].index if self.stack else -1
        frame = _Frame(name, time.perf_counter(), -1)
        if store:
            frame.index = self._store(name, frame.start, None, parent)
        self.stack.append(frame)
        return frame

    def _store(self, name: str, start: float, end: Optional[float], parent: Optional[int] = None) -> int:
        """Keep one span; returns its index, or -1 once ``SPAN_LIMIT`` spans are kept."""
        if parent is None:
            parent = self.stack[-1].index if self.stack else -1
        if len(self.spans) >= SPAN_LIMIT:
            self.spans_dropped += 1
            return -1
        self.spans.append((name, start, end, parent, self.op))
        return len(self.spans) - 1

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        self.calls[frame.name] += 1
        self.self_s[frame.name][self.op] += dur - frame.child
        if frame.index >= 0:
            name, start, _, parent, op = self.spans[frame.index]
            self.spans[frame.index] = (name, start, end, parent, op)
        if self.stack:
            self.stack[-1].child += dur

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, after)

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                if before is not None:
                    args = before(frame, args)
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_generator(self, name: str, fn: Callable, after) -> Callable:
        """Times every resumption; one span covers the first to the last, ``after`` sees each item."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = None
            try:
                while True:
                    frame = tracer._enter(name, store=False)
                    first = frame.start if first is None else first
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    if after is not None:
                        after(frame, args, item)
                    yield item
            finally:
                if first is not None:
                    tracer._store(name, first, time.perf_counter())

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_hot(self, name: str, fn: Callable) -> Callable:
        tracer = self
        weight_is_n = name == "model.values_at"
        clock = time.perf_counter

        def wrapper(inst, *args):
            tracer.calls[name] += 1
            tracer._key("model.evals", (id(inst), tuple(args[-1])), inst)
            if tracer._hot_depth:
                return fn(inst, *args)
            tracer._hot_depth = 1
            start = clock()
            try:
                return fn(inst, *args)
            finally:
                dur = clock() - start
                tracer._hot_depth = 0
                tracer.self_s[name][tracer.op] += dur
                if tracer.stack:
                    top = tracer.stack[-1]
                    top.child += dur
                    top.evals += inst.n if weight_is_n else 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _key(self, counter: str, key, keep) -> None:
        self.counts[counter + ".keys"] += 1
        seen = self._distinct[counter]
        if key not in seen:
            seen.add(key)
            self.counts[counter + ".distinct"] += 1
            self._keep_alive.append(keep)  # holds the object so its id() stays unique in the op

    # -- per-function counters -------------------------------------------

    def _after_mechanisms_lazy_winner(self, frame, args, result) -> None:
        v = args[0]
        bound = v.n * v.n * (max(v.space.sizes) + 1)
        self.maxima[EVALS_PER_CALL] = max(self.maxima[EVALS_PER_CALL], frame.evals)
        if frame.evals > bound:
            self.breaches.append(
                (self.op, f"lazy_winner used {frame.evals} evaluations > n^2(k+1) = {bound}")
            )

    def _before_mechanisms_critical_signal(self, frame, args):
        rule, v, i = args[0], args[1], args[2]
        win = rule.winner_at if hasattr(rule, "winner_at") else rule
        frame.extra = [0, v.space.sizes[i]]

        def counted(profile):
            frame.extra[0] += 1
            return win(profile)

        return (counted,) + tuple(args[1:])

    def _after_mechanisms_critical_signal(self, frame, args, result) -> None:
        used, k = frame.extra
        bound = math.ceil(math.log2(k + 1)) + 1
        self.maxima[RULE_CALLS_PER_CALL] = max(self.maxima[RULE_CALLS_PER_CALL], used)
        if used > bound:
            self.breaches.append(
                (self.op, f"critical_signal made {used} rule calls > ceil(log2(k+1))+1 = {bound}")
            )

    def _after_model_restrict_bidders(self, frame, args, result) -> None:
        v, keep, fixed = args[0], tuple(args[1]), tuple(args[2])
        dropped = tuple((b, s) for b, s in enumerate(fixed) if b not in keep)
        self._key("model.restrict_bidders", (id(v), keep, dropped), v)

    def _after_revenue_winning_reserve(self, frame, args, result) -> None:
        v, i, context = args[1], args[3], tuple(args[4])
        self._key("revenue.winning_reserve", (id(v), i, context), v)

    def _after_model_tabulated(self, frame, args, result) -> None:
        if result is not args[0]:
            self.counts["model.tabulated.profiles"] += args[0].space.profile_count

    def _after_revenue_profile_events(self, frame, args, result) -> None:
        self.counts["revenue.events"] += len(result)

    def _after_oracle_best_monotone_ratio(self, frame, args, result) -> None:
        self.counts["oracle.best_monotone_ratio.nodes"] += result.tables_scanned
        self.counts["oracle.best_monotone_ratio.monotone"] += result.monotone_count

    def _after_oracle_enumerate_monotone_tables(self, frame, args, item) -> None:
        self.counts["oracle.enumerate_monotone_tables.tables"] += 1

    # -- results -----------------------------------------------------------

    def total_self_s(self, name: str) -> float:
        return sum(self.self_s[name].values()) if name in self.self_s else 0.0

    def write(self, path: str, summary: dict) -> None:
        """One header line holding ``summary``, then the spans as JSON lines."""
        with open(path, "w") as fh:
            header = dict(summary, spans=len(self.spans), spans_dropped=self.spans_dropped,
                          span_fields=["name", "start_s", "end_s", "parent", "op"])
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
