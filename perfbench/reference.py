"""A fixed reference load that tracks how fast the shared machine runs right now.

The benchmark's host is a few cores of a shared machine whose speed drifts by
tens of percent within seconds, as neighbours come and go; ivauctions' ops
and a plain Python loop slow down together.  So every timed interval is
bracketed by ``slowness()`` calls and divided by their geometric mean: times
are reported at reference speed, the speed at which each component below takes
its ``NOMINAL_S``.  Nothing here touches ivauctions, so a change to the
program moves the reported times and a change in the machine does not.

The components cover the kinds of work the program does: dict and tuple
churn, Python function calls, small NumPy calls, and pointer chasing through
a working set larger than the caches.  Each is weighted equally.
"""

from __future__ import annotations

import math
import time

import numpy as np

_ROW = np.arange(4096, dtype=float).reshape(64, 64)
_HEAP = list(range(1 << 19))
_WALK = [(i * 7919) % len(_HEAP) for i in range(40000)]
_FLOATS = [i * 0.5 for i in range(2000)]


def _dicts() -> int:
    table: dict = {}
    acc = 0
    for i in range(12000):
        key = (i & 127, i % 61)
        table[key] = table.get(key, 0) + i
        acc += len(key) * (i ^ 3) % 7
    return acc


def _step(x: float, y: float) -> float:
    return x * 3.0 + y


def _calls() -> float:
    acc = 0.0
    for _ in range(20):
        for x in _FLOATS:
            acc = _step(acc, x) % 1000.0
            if x > acc:
                acc -= 1.0
    return acc


def _numpy() -> float:
    acc = 0.0
    for i in range(1000):
        row = _ROW[i % 64] * 1.5 + _ROW[:, i % 64]
        acc += float(row.max()) + float(np.argmax(row))
    return acc


def _walk() -> int:
    heap, total = _HEAP, 0
    for j in _WALK:
        total += heap[j]
    return total


#: Each component's time at reference speed: its typical time on a 2-core
#: shared x86-64 sandbox running CPython 3 (measured once, then fixed).
NOMINAL_S = {_dicts: 0.0045, _calls: 0.0055, _numpy: 0.0050, _walk: 0.0090}


def slowness() -> float:
    """How many times slower than reference speed the machine runs now (about 25 ms of work)."""
    logs = 0.0
    for work, nominal in NOMINAL_S.items():
        t = time.perf_counter()
        work()
        logs += math.log((time.perf_counter() - t) / nominal)
    return math.exp(logs / len(NOMINAL_S))

