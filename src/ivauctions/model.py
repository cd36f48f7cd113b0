"""Core model: signal grids, valuation instances, and structural parameters.

A valuation instance holds, for each of n bidders, a nonnegative value for
every point of the discrete signal grid {0..k_1} x ... x {0..k_n}.  This
module measures the two structural constants everything else depends on:

* the crossing constant ``c``: how much faster a bidder's own signal can move
  someone else's value than her own (clamped below at 1, INFINITE when an
  own-increment of zero coexists with a positive cross-increment);
* the concavity constant ``d``: how much an increment in one direction can
  grow as the remaining signals rise (d = 1 means concave).

Both are exact suprema over the tabulated grid, not estimates.  Each is
measured once per instance object: the first report is kept on the immutable
instance, so later calls (every ``lazy_winner`` without ``c=``, say) look it
up instead of tabulating and scanning the grid again.  An evaluator-backed
instance keeps its dense copy too, and the monotonicity check is run once, so
the second report, and every grid table built on the instance, neither
evaluates the grid nor checks monotonicity again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

INFINITE = math.inf

#: The one default cap: grid points a dense instance may have, terms an exact
#: revenue sum may add and monotone tables the exhaustive search may visit.
DEFAULT_PROFILE_CAP = 10_000_000

#: Profiles per batched call when tabulating an evaluator-backed instance.
_TABULATE_CHUNK = 1 << 14


class ValidationError(ValueError):
    """Raised when an instance, profile, or parameter is malformed."""


class CapExceeded(RuntimeError):
    """Raised when an enumeration would exceed its configured cap."""


@dataclass(frozen=True)
class SignalSpace:
    """Discrete signal grid.  Bidder i draws signals from {0, 1, ..., sizes[i]}."""

    sizes: tuple[int, ...]
    profile_cap: int = field(default=DEFAULT_PROFILE_CAP, compare=False)

    def __post_init__(self):
        try:  # integer types only, as ``validate_profile`` reads signals: 1.5 or "1" is refused
            object.__setattr__(self, "sizes", tuple(operator.index(k) for k in self.sizes))
        except TypeError as e:
            raise ValidationError(f"signal bounds must be integers: {e}") from None
        if len(self.sizes) < 1:
            raise ValidationError("need at least one bidder")
        if any(k < 1 for k in self.sizes):
            raise ValidationError(f"every signal bound must be >= 1, got {self.sizes}")
        count = 1
        for k in self.sizes:
            count *= k + 1
            if count > self.profile_cap:
                raise ValidationError(
                    f"profile count exceeds cap {self.profile_cap}; "
                    "raise the cap explicitly for larger grids"
                )

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(k + 1 for k in self.sizes)

    @property
    def profile_count(self) -> int:
        return int(np.prod([k + 1 for k in self.sizes], dtype=object))

    def profiles(self) -> Iterator[tuple[int, ...]]:
        """All profiles in row-major order (last coordinate fastest)."""
        return itertools.product(*map(range, self.shape))

    def validate_profile(self, profile: Sequence[int]) -> tuple[int, ...]:
        """``profile`` as a tuple of ints on the grid; anything else raises ValidationError.

        Integer types other than ``int`` (a bool, a NumPy integer) are read
        through ``operator.index``, so ``True`` is signal 1 and ``np.True_``
        is refused.
        """
        p = tuple(profile)
        if len(p) == self.n and all(type(s) is int and 0 <= s <= k for s, k in zip(p, self.sizes)):
            return p  # plain ints on the grid: the common case, nothing to convert
        try:
            p = tuple(operator.index(s) for s in p)
        except TypeError as e:
            raise ValidationError(f"signals must be integers: {e}") from None
        if len(p) != self.n:
            raise ValidationError(f"profile length {len(p)} != {self.n} bidders")
        for i, (s, k) in enumerate(zip(p, self.sizes)):
            if not 0 <= s <= k:
                raise ValidationError(f"signal {s} out of range [0, {k}] for bidder {i}")
        return p

    def validate_line(self, i: int, s_minus_i: Sequence[int]) -> tuple[int, ...]:
        """Bidder i's line at fixed others' signals: the validated ``s_minus_i``.

        Checks the bidder and every other signal with one ``validate_profile``
        call, so every profile on the line is on the grid.
        """
        if not 0 <= i < self.n:
            raise ValidationError(f"bidder {i} out of range")
        line = tuple(s_minus_i)
        if len(line) != self.n - 1:
            raise ValidationError("s_minus_i must fix every other bidder's signal")
        p = self.validate_profile(line[:i] + (0,) + line[i:])
        return p[:i] + p[i + 1 :]


@dataclass(frozen=True)
class ValuationInstance:
    """n bidders' valuations over a signal grid.

    Exactly one representation: tabulated (``values`` is a dense (n, *grid)
    array) or backed by a deterministic evaluator ``batch_evaluate`` mapping a
    (B, n) integer array of profiles to their (B, n) values.  Instances are
    immutable; all operations are pure and thread-safe.  ``_reports`` keeps
    what is measured on this object (the crossing and concavity reports, the
    monotonicity check, an evaluator-backed instance's dense copy); it takes
    no part in ``==`` or ``repr``.
    """

    space: SignalSpace
    values: Optional[np.ndarray] = None
    name: str = ""
    batch_evaluate: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _reports: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.values is None) == (self.batch_evaluate is None):
            raise ValidationError("instance needs exactly one of tabulated values or batch_evaluate")
        if self.values is not None:
            arr = np.asarray(self.values, dtype=np.float64)
            expected = (self.space.n,) + self.space.shape
            if arr.shape != expected:
                raise ValidationError(f"values shape {arr.shape} != {expected}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError("values must be finite")
            if np.any(arr < 0):
                raise ValidationError("values must be nonnegative")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.space.n

    def value(self, bidder: int, profile: Sequence[int]) -> float:
        """Bidder's value at one profile: an entry of ``values_at``'s row."""
        if not 0 <= bidder < self.n:
            raise ValidationError(f"bidder {bidder} out of range")
        return float(self.values_at(profile)[bidder])

    def values_at(self, profile: Sequence[int]) -> np.ndarray:
        """All n values at one profile, as one ``values_at_batch`` row (a fresh array);
        a profile off the grid raises ValidationError."""
        return self.values_at_batch(np.array([self.space.validate_profile(profile)]))[0]

    def values_at_batch(self, profiles: np.ndarray) -> np.ndarray:
        """All n values at each row of a (B, n) integer array of profiles, as (B, n).

        Profiles are not validated; callers pass rows already on the grid.  An
        evaluator's output is checked as a table is: a NaN, infinite or
        negative value raises ValidationError.
        """
        P = np.asarray(profiles)
        if self.values is not None:
            return self.values[(slice(None),) + tuple(P.T)].T
        out = np.asarray(self.batch_evaluate(P), dtype=np.float64)
        if out.size and not (out.min() >= 0 and out.max() < INFINITE):  # NaN fails too
            raise ValidationError("evaluator values must be finite and nonnegative")
        return out

    def tabulated(self) -> "ValuationInstance":
        """Dense copy, built once per instance object and kept in ``_reports``.

        Refuses above the global profile cap rather than sampling.  The cap is
        the global one, not the space's declared bound, so evaluator-backed
        instances on deliberately huge grids still refuse.
        """
        if self.values is not None:
            return self
        dense = self._reports.get("tabulated")
        if dense is not None:
            return dense
        count = self.space.profile_count
        if count > DEFAULT_PROFILE_CAP:
            raise CapExceeded(f"cannot tabulate {count} profiles (cap {DEFAULT_PROFILE_CAP})")
        arr = np.empty((self.n,) + self.space.shape, dtype=np.float64)
        flat = arr.reshape(self.n, count)  # a row-major view
        for lo in range(0, count, _TABULATE_CHUNK):
            hi = min(lo + _TABULATE_CHUNK, count)
            rows = np.stack(np.unravel_index(np.arange(lo, hi), self.space.shape), axis=1)
            flat[:, lo:hi] = self.values_at_batch(rows).T
        dense = ValuationInstance(space=self.space, values=arr, name=self.name)
        self._reports["tabulated"] = dense
        return dense


def _sample_count(samples) -> int:
    """``samples`` read as a signal is (through ``operator.index``); at least 1."""
    try:
        samples = operator.index(samples)
    except TypeError as e:
        raise ValidationError(f"samples must be an integer: {e}") from None
    if samples < 1:
        raise ValidationError("need at least one sample")
    return samples


def mean_and_stderr(draws: Iterable[float]) -> tuple[float, float]:
    """Sample mean of i.i.d. draws with its standard error (0.0 for a single draw).

    Accumulates the sum and the sum of squares in draw order, so a replayed
    seed gives the same two floats bit for bit.
    """
    total = 0.0
    total_sq = 0.0
    count = 0
    for x in draws:
        total += x
        total_sq += x * x
        count += 1
    if count == 0:
        raise ValidationError("need at least one sample")
    mean = total / count
    if count == 1:
        return mean, 0.0
    var = max(0.0, (total_sq - count * mean * mean) / (count - 1))
    return mean, math.sqrt(var / count)


def _sequential_sums(terms: np.ndarray) -> np.ndarray:
    """Each row's total as a Python loop adds it: ``0.0 + t[0] + t[1] + ...``."""
    return 0.0 + np.cumsum(terms, axis=-1)[..., -1]


def check_value_monotone(v: ValuationInstance) -> list[tuple[int, int, tuple[int, ...], float, float]]:
    """Violations of coordinate-wise monotonicity: (bidder, axis, profile, lower, upper).

    Empty list means every v_i is non-decreasing in every signal.
    """
    return _monotone_violations(v.tabulated().values)


def _monotone_violations(dense: np.ndarray) -> list[tuple[int, int, tuple[int, ...], float, float]]:
    violations = []
    for axis in range(dense.ndim - 1):
        diffs = np.diff(dense, axis=axis + 1)
        bad = np.argwhere(diffs < 0)
        for loc in bad:
            bidder = int(loc[0])
            lower_p = tuple(int(x) for x in loc[1:])
            upper_p = list(lower_p)
            upper_p[axis] += 1
            violations.append(
                (
                    bidder,
                    axis,
                    tuple(upper_p),
                    float(dense[(bidder,) + lower_p]),
                    float(dense[(bidder,) + tuple(upper_p)]),
                )
            )
    return violations


def _require_monotone(v: ValuationInstance) -> np.ndarray:
    """The dense table of a monotone ``v``, checked once per instance object."""
    dense = v.tabulated().values
    if "monotone" not in v._reports:
        bad = _monotone_violations(dense)
        if bad:
            i, j, s, lo, hi = bad[0]
            raise ValidationError(
                f"valuations not monotone: v_{i} drops {lo} -> {hi} "
                f"when bidder {j}'s signal rises to reach {s}"
            )
        v._reports["monotone"] = True
    return dense


@dataclass(frozen=True)
class CrossingReport:
    """Measured crossing constant with its witness.

    ``c`` is clamped below at 1; ``raw`` is the unclamped supremum ratio
    (0 when no cross-increment is ever positive).  The witness is the
    (direction bidder, target bidder, profile) triple attaining the supremum,
    or None for degenerate instances.
    """

    c: float
    raw: float
    witness: Optional[tuple[int, int, tuple[int, ...]]]


def single_crossing_report(v: ValuationInstance) -> CrossingReport:
    """Measured crossing constant, once per instance object.

    The first call on ``v`` tabulates and scans the grid and keeps the report
    on ``v``; later calls return it.  A non-monotone instance raises on every
    call.
    """
    report = v._reports.get("c")
    if report is None:
        report = v._reports["c"] = _measure_crossing(_require_monotone(v))
    return report


def _measure_crossing(dense: np.ndarray) -> CrossingReport:
    best_raw = 0.0
    witness = None
    for i in range(dense.shape[0]):
        # axes (target j, profiles...); one pass compares every target with bidder i's own step
        diffs = np.diff(dense, axis=i + 1)
        own = diffs[i]
        blow_up = (own == 0) & (diffs > 0)  # never on row i itself
        if blow_up.any():
            j, *loc = np.unravel_index(int(np.argmax(blow_up)), diffs.shape)
            return CrossingReport(c=INFINITE, raw=INFINITE, witness=(i, int(j), _raised(loc, i)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(own > 0, diffs / np.where(own > 0, own, 1.0), 0.0)
        ratios[i] = 0.0  # the own ratio is not a crossing
        at = int(np.argmax(ratios))
        if ratios.flat[at] > best_raw:
            best_raw = float(ratios.flat[at])
            j, *loc = np.unravel_index(at, diffs.shape)
            witness = (i, int(j), _raised(loc, i))
    return CrossingReport(c=max(1.0, best_raw), raw=best_raw, witness=witness)


def _raised(loc: Sequence[int], axis: int) -> tuple[int, ...]:
    """The upper profile of the step at ``loc`` along ``axis`` (diff t compares t and t+1)."""
    p = [int(x) for x in loc]
    p[axis] += 1
    return tuple(p)


def compute_c(v: ValuationInstance) -> float:
    """Smallest c >= 1 with c * own-increment >= cross-increment everywhere.

    INFINITE when a zero own-increment coexists with a positive cross-increment.
    Measured once per instance object (see ``single_crossing_report``).
    """
    return single_crossing_report(v).c


@dataclass(frozen=True)
class ConcavityReport:
    d: float
    raw: float
    witness: Optional[tuple[int, int, tuple[int, ...], tuple[int, ...]]]


def _upset_max(arr: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """out[a] = max of arr over the up-set of a along ``axes`` (the others held fixed)."""
    out = arr
    for axis in axes:
        out = np.flip(np.maximum.accumulate(np.flip(out, axis=axis), axis=axis), axis=axis)
    return out


def concavity_report(v: ValuationInstance) -> ConcavityReport:
    """Measured concavity constant d, once per instance object.

    For every value owner i, direction j, and signal level s_j >= 1, compares
    the j-increment at every context against the same increment at every
    coordinate-wise higher context.  d = max growth ratio (clamped at 1);
    INFINITE when a zero increment sits below a positive one.  The witness is
    the first maximizer (or the first blow-up) in (j, i, level, row-major
    context) order.  Like ``single_crossing_report``, the first call keeps the
    report on ``v`` and a non-monotone instance raises on every call.
    """
    report = v._reports.get("d")
    if report is None:
        report = v._reports["d"] = _measure_concavity(_require_monotone(v))
    return report


def _measure_concavity(dense: np.ndarray) -> ConcavityReport:
    n = dense.shape[0]
    best_raw = 0.0
    witness = None
    for j in range(n):
        # axes (i, s_j level, contexts...); one up-set max along every context axis
        low = np.moveaxis(np.diff(dense, axis=j + 1), j + 1, 1)
        high = _upset_max(low, range(2, low.ndim))
        blow_up = (low == 0) & (high > 0)
        if blow_up.any():
            i, t, *ctx = np.unravel_index(int(np.argmax(blow_up)), low.shape)
            profile = _context_profile(tuple(map(int, ctx)), j, int(t) + 1)
            return ConcavityReport(d=INFINITE, raw=INFINITE, witness=(int(i), j, profile, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(low > 0, high / np.where(low > 0, low, 1.0), 1.0)
        at = int(np.argmax(ratios))
        if ratios.flat[at] > best_raw:
            best_raw = float(ratios.flat[at])
            i, t, *ctx = np.unravel_index(at, low.shape)
            witness = (int(i), j, _context_profile(tuple(map(int, ctx)), j, int(t) + 1), None)
    return ConcavityReport(d=max(1.0, best_raw), raw=best_raw, witness=witness)


def _context_profile(context: tuple[int, ...], axis: int, level: int) -> tuple[int, ...]:
    p = list(context)
    p.insert(axis, level)
    return tuple(p)


def compute_d(v: ValuationInstance) -> float:
    """Smallest d >= 1 bounding how much increments grow as other signals rise.

    Measured once per instance object (see ``concavity_report``).
    """
    return concavity_report(v).d


def _bidders(pi: Sequence[int]) -> tuple[int, ...]:
    """``pi``'s bidders as ints, read as ``validate_profile`` reads signals: 1.5 is refused."""
    try:
        return tuple(operator.index(b) for b in pi)
    except TypeError as e:
        raise ValidationError(f"bidders must be integers: {e}") from None


def validate_permutation(pi: Sequence[int], n: int) -> tuple[int, ...]:
    order = _bidders(pi)
    if sorted(order) != list(range(n)):
        raise ValidationError(f"{order} is not a permutation of 0..{n - 1}")
    return order


# ---------------------------------------------------------------------------
# JSON wire format.  Tables of values are row-major per bidder:
# index = sum_i s_i * prod_{j>i} (k_j + 1).
# ---------------------------------------------------------------------------


def instance_to_json(v: ValuationInstance) -> dict:
    dense = v.tabulated().values
    n = v.n
    flat = dense.reshape(n, -1)  # C order == row-major contract
    return {
        "sizes": list(v.space.sizes),
        "values": [[float(x) for x in row] for row in flat],
    }


def instance_from_json(obj: dict, profile_cap: int = DEFAULT_PROFILE_CAP) -> ValuationInstance:
    """Parse the wire form; missing keys or malformed entries raise ``ValidationError``."""
    if "sizes" not in obj or "values" not in obj:
        raise ValidationError("instance JSON needs 'sizes' and 'values'")
    try:
        space = SignalSpace(tuple(obj["sizes"]), profile_cap=profile_cap)
        rows = obj["values"]
        if len(rows) != space.n:
            raise ValidationError(f"expected {space.n} value rows, got {len(rows)}")
        count = space.profile_count
        arr = np.empty((space.n,) + space.shape, dtype=np.float64)
        for i, row in enumerate(rows):
            if len(row) != count:
                raise ValidationError(f"bidder {i} row has {len(row)} entries, expected {count}")
            arr[i] = np.asarray(row, dtype=np.float64).reshape(space.shape)
    except ValidationError:
        raise
    except (TypeError, ValueError) as e:
        raise ValidationError(f"malformed instance: {e}") from e
    name = obj.get("name")
    return ValuationInstance(space=space, values=arr, name="" if name is None else str(name))
