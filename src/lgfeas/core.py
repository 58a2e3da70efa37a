"""Core domain types for joint distributions over dichotomic outcomes.

A run of n measurements of a two-valued quantity yields outcomes described
by sign vectors s in {-1,+1}^n.  Any real assignment p over the 2^n
outcomes has the exact moment expansion

    p(s) = 2^{-n} * (1 + sum_T m_T * prod_{i in T} s_i),

with T ranging over the non-empty subsets of {1..n}.  Singleton
coefficients are the one-time averages B_i, pair coefficients are the
two-time correlators C_ij, and higher coefficients carry the remaining
degrees of freedom.  This module holds both representations and the exact
conversions between them.  A conversion is one Walsh-Hadamard transform
plus array passes over the subset keys: no check or conversion step runs
once per subset in Python, whatever the size of the map.

Outcome indexing convention (fixes file formats and iteration order):
sign vectors map to integers little-endian in the time index, with bit
k = 0 meaning s_{k+1} = +1 and bit k = 1 meaning s_{k+1} = -1.

Tolerance policy: normalization and algebraic round-trips are checked at
1e-12; non-negativity decisions are made at 1e-9.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

MAX_TIMES = 20
NORMALIZATION_TOL = 1e-12
NONNEGATIVITY_TOL = 1e-9


class LgError(Exception):
    """Base error for this package."""


class DimensionError(LgError, ValueError):
    """Number of times is out of range or inconsistent between objects."""


class ValidationError(LgError, ValueError):
    """A value violates a type invariant (range, key format, sum)."""


class MissingCorrelatorError(LgError, KeyError):
    """Requested a correlator that the data set does not fix."""


class MarginalError(LgError, ValueError):
    """Pairwise marginals are negative or mutually incompatible."""


class OracleError(LgError, RuntimeError):
    """The feasibility oracle failed to converge or to certify its answer."""


def _check_n(n: int, minimum: int = 1) -> None:
    if not isinstance(n, int) or n < minimum or n > MAX_TIMES:
        raise DimensionError(f"n must be an integer in [{minimum}, {MAX_TIMES}], got {n!r}")


def chain_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The standard measurement pattern: (1,2), (2,3), ..., (n-1,n), (1,n)."""
    _check_n(n, minimum=2)
    pairs = [(i, i + 1) for i in range(1, n)]
    if (1, n) not in pairs:
        pairs.append((1, n))
    return tuple(pairs)


def complete_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All n(n-1)/2 index pairs in lexicographic order."""
    _check_n(n, minimum=2)
    return tuple(combinations(range(1, n + 1), 2))


# ---------------------------------------------------------------------------
# subset keys <-> JSON keys
# ---------------------------------------------------------------------------

def format_subset_key(subset: Sequence[int]) -> str:
    return ",".join(str(i) for i in subset)


def _check_integer(name: str, value) -> int:
    """``value`` if it is an int; a bool or any other type raises ValidationError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return value


def _check_real(name: str, value):
    """``value`` if it is a finite real number, a ``Fraction`` kept exact; a
    bool, a str, nan, +-inf or any other type raises ValidationError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not isinstance(value, numbers.Rational) and not math.isfinite(value)):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    return value


def parse_subset_key(key: str) -> tuple[int, ...]:
    try:
        subset = tuple(int(part) for part in key.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad subset key {key!r}") from exc
    if not subset or any(b <= a for a, b in zip(subset, subset[1:])):
        raise ValidationError(f"subset key {key!r} is not strictly increasing")
    if format_subset_key(subset) != key:  # " 1", "+1", "01" would merge with "1"
        raise ValidationError(f"subset key {key!r} must be written {format_subset_key(subset)!r}")
    return subset


def _validate_coefficient(value, what: str) -> float:
    """``value`` as a float if it passes ``_check_real`` and lies in [-1, 1]
    within NORMALIZATION_TOL; anything else raises ValidationError."""
    if type(value) is not float:  # a float needs only the range test, which nan fails
        _check_real(what, value)
    try:
        number = float(value)
    except OverflowError:  # a rational beyond the float range
        number = math.inf
    if not abs(number) <= 1.0 + NORMALIZATION_TOL:
        raise ValidationError(f"{what} must lie in [-1, 1], got {value!r}")
    return number


def _is_time(value) -> bool:
    """A time index is an integer (anything with ``__index__``), not a bool."""
    return type(value) is int or hasattr(type(value), "__index__") and not isinstance(value, bool)


def _check_subset(subset, n: int) -> None:
    """The checks of one moment key, in order, each with its message."""
    if not isinstance(subset, tuple) or not all(map(_is_time, subset)):
        raise ValidationError(f"subset {subset!r} is not a tuple of integer times")
    if not subset or any(b <= a for a, b in zip(subset, subset[1:])):
        raise ValidationError(f"subset {subset} is not strictly increasing")
    if subset[0] < 1 or subset[-1] > n:
        raise ValidationError(f"subset {subset} out of range for n={n}")


def _flatten(keys: Collection[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The size of each key and all their times one after another, as int8.

    The times stream into a bytearray, one byte each and no intermediate
    list; a time without ``__index__`` raises TypeError and one outside
    0..255 ValueError, while 128..255 read back negative.  A bool passes as
    0 or 1.  A key of more than 127 times raises OverflowError."""
    sizes = np.fromiter(map(len, keys), np.int8, count=len(keys))
    return sizes, np.frombuffer(bytearray(chain.from_iterable(keys)), np.int8)


def _masks(keys: Collection[tuple[int, ...]]) -> np.ndarray:
    """The bit mask of each key of times 0..n: one or-``reduceat`` of
    (1 << t) >> 1 over its flattened times, so that time 0 (s_0 = +1) and
    the empty key add no bit.  Each array is dropped once used; at n = 18
    the int32 bits alone take 9 MB."""
    sizes, times = _flatten(keys)
    starts = np.cumsum(sizes)
    starts -= sizes
    bits = times.astype(np.int32)
    del times
    np.left_shift(1, bits, out=bits)
    bits >>= 1
    if sizes.all():
        return np.bitwise_or.reduceat(bits, starts)
    # reduceat gives an empty segment the next entry: skip the empty keys
    masks = np.zeros(sizes.size, dtype=np.int32)
    nonempty = sizes > 0
    masks[nonempty] = np.bitwise_or.reduceat(bits, starts[nonempty]) if bits.size else 0
    return masks


def _well_formed(n: int, keys: Collection, values: Collection, value_types: set) -> bool:
    """Whether every entry passes ``_check_subset`` and ``_validate_coefficient``,
    decided by array passes over the keys, their flattened times and the
    values (whose distinct types are ``value_types``), with no Python step
    per entry."""
    # the types ``_check_subset`` and ``_check_real`` accept
    if not (all(issubclass(kind, tuple) for kind in set(map(type, keys)))
            and all(issubclass(kind, numbers.Real) and not issubclass(kind, bool)
                    for kind in value_types)):
        return False
    try:
        sizes, times = _flatten(keys)
        floats = np.fromiter(values, np.float64, count=sizes.size)
    except (TypeError, ValueError, OverflowError):
        return False
    if sizes.min(initial=1) < 1 or times.min(initial=1) < 1 or times.max(initial=n) > n:
        return False
    # every step inside a key must be positive; the step from one key's last
    # time to the next key's first belongs to neither
    steps = np.diff(times)
    steps[np.cumsum(sizes[:-1]) - 1] = 1
    # True reads as time 1, which only a key's first time can be; the
    # maximum is nan if any value is, and nan fails the comparison
    return bool(steps.min(initial=1) >= 1
                and bool not in set(map(type, map(itemgetter(0), keys)))
                and np.abs(floats).max(initial=0.0) <= 1.0 + NORMALIZATION_TOL)


def _checked_moments(n: int, moments: Mapping, what: str) -> dict:
    """``moments`` as a dict of floats once ``_well_formed`` accepts it; a map
    it refuses is walked entry by entry, naming the first malformed one as
    ``what`` and its subset.  Float values are shared, not copied, and the
    arrays of the checks are freed before the copy."""
    keys, values = moments.keys(), moments.values()
    value_types = set(map(type, values))
    if not _well_formed(n, keys, values, value_types):
        cleaned = {}
        for subset, value in moments.items():
            _check_subset(subset, n)
            cleaned[subset] = _validate_coefficient(value, f"{what} {subset}")
        return cleaned
    if value_types == {float}:
        return dict(moments)
    return dict(zip(keys, map(float, values)))


@dataclass(frozen=True)
class MomentSpec:
    """Moment coefficients indexed by non-empty subsets of {1..n}.

    Keys are tuples of 1-based time indices, strictly increasing and within
    1..n; a time is a Python or NumPy integer, not a bool.  Singletons hold
    B_i, pairs hold C_ij, larger subsets hold the higher coefficients.
    Values are real numbers as ``_check_real`` accepts them (int, float,
    ``Fraction``, NumPy integers and floats; not bool, str or None), finite
    and within [-1, 1] up to NORMALIZATION_TOL; they are stored as floats
    in the given key order.  Any other key or value raises ValidationError,
    naming the first malformed entry.  Absent subsets are read as 0, which
    expresses the symmetric case (all odd coefficients zero) by simply
    omitting the odd keys.

    The checks and ``to_dense`` are array passes over the keys' flattened
    times and the values, not a Python step per subset, at every size; the
    checks walk the entries only to name a malformed one.
    """

    n: int
    moments: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        _check_n(self.n, minimum=2)
        object.__setattr__(self, "moments", _checked_moments(self.n, self.moments, "moment"))

    def get(self, subset: Sequence[int]) -> float:
        return self.moments.get(tuple(subset), 0.0)

    def b(self, i: int) -> float:
        return self.get((i,))

    def c(self, i: int, j: int) -> float:
        return self.get((i, j))

    def singles(self) -> tuple[float, ...]:
        return tuple(self.get((i,)) for i in range(1, self.n + 1))

    def pair_values(self) -> dict[tuple[int, int], float]:
        return {k: v for k, v in self.moments.items() if len(k) == 2}

    def max_order(self) -> int:
        return max((len(k) for k in self.moments), default=0)

    def to_dense(self) -> np.ndarray:
        """Coefficient vector indexed by subset bit mask; entry 0 is the unit."""
        masks = _masks(self.moments.keys())
        dense = np.zeros(1 << self.n)
        dense[masks] = np.fromiter(self.moments.values(), np.float64, count=masks.size)
        dense[0] = 1.0
        return dense

    def to_json_dict(self) -> dict:
        keys = sorted(self.moments, key=lambda s: (len(s), s))
        return {"n": self.n, "moments": {format_subset_key(k): self.moments[k] for k in keys}}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> MomentSpec:
        try:
            n = _check_integer("n", payload["n"])
            items = payload.get("moments", {}).items()
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValidationError(f"malformed moment payload: {exc}") from exc
        return cls(n, {parse_subset_key(k): v for k, v in items})


@dataclass(frozen=True)
class CorrelatorSet:
    """The pairwise correlators C_ij, either the chain pattern or complete.

    The chain pattern is the standard test layout (1,2), ..., (n-1,n), (1,n);
    the complete pattern fixes all n(n-1)/2 pairs.  Keys are tuples (i, j)
    of integer times with 1 <= i < j <= n; keys and values are checked as
    ``MomentSpec`` checks its own, and values are stored as floats.

    ``pattern`` is decided once, at construction: "complete" when every
    pair is fixed, else "chain".  At n <= 3 the chain fixes every pair, so
    the set reads "complete".
    """

    n: int
    entries: Mapping[tuple[int, int], float]
    pattern: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_n(self.n, minimum=2)
        cleaned = _checked_moments(self.n, self.entries, "correlator")
        keys = cleaned.keys()
        if len(keys) == self.n * (self.n - 1) // 2 and keys == set(complete_pairs(self.n)):
            pattern = "complete"
        elif keys == set(chain_pairs(self.n)):
            pattern = "chain"
        else:
            raise ValidationError(
                "correlator key set must follow the chain pattern or be complete; "
                f"got {sorted(keys)} for n={self.n}"
            )
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "pattern", pattern)

    def value(self, i: int, j: int) -> float:
        try:
            return self.entries[(i, j)]
        except KeyError:
            raise MissingCorrelatorError(f"correlator ({i},{j}) is not fixed") from None

    def sorted_items(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self.entries.items())


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A real vector over the 2^n outcomes, normalized to total 1.

    Values may be negative (a quasi-distribution produced by the moment
    expansion).
    """

    n: int
    p: np.ndarray

    def __post_init__(self) -> None:
        _check_n(self.n)
        arr = np.array(self.p, dtype=np.float64)
        if arr.shape != (1 << self.n,):
            raise DimensionError(f"expected {1 << self.n} values for n={self.n}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("distribution values must be finite")
        total = _exact_sum(arr)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"distribution must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "p": [float(v) for v in self.p]}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> JointDistribution:
        try:
            n, p = _check_integer("n", payload["n"]), np.asarray(payload["p"])
            if p.ndim == 0:
                raise ValueError(f"p must be a list of numbers, got {payload['p']!r}")
            if p.dtype.kind in "bOSU":
                raise ValueError(f"distribution entries must be numbers, got {p.dtype} entries")
            p = p.astype(np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed distribution payload: {exc}") from exc
        return cls(n, p)


# ---------------------------------------------------------------------------
# exact conversions
# ---------------------------------------------------------------------------

def _butterfly(table: np.ndarray) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform along the first axis of a
    C-contiguous array, in place and in its own dtype, returned; each stage
    adds and subtracts whole runs of the trailing axes in a few passes."""
    run = math.prod(table.shape[1:])
    while run < table.size:
        halves = table.reshape(-1, 2, run)
        top = halves[:, 0].copy()
        halves[:, 0] += halves[:, 1]
        np.subtract(top, halves[:, 1], out=halves[:, 1])
        run *= 2
    return table


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized transform: out[t] = sum_m in[m] * (-1)^popcount(m & t),
    self-inverse up to the factor 2^n, along the last axis of a float64 copy
    of ``values``, whose axes ``_butterfly`` sees reversed."""
    return _butterfly(np.array(np.asarray(values, dtype=np.float64).T, order="C")).T


# Vectors shorter than this are summed by ``math.fsum`` over a list, the
# faster way there: 44 against 70 us at 2^10 entries, 167 against 68 us at
# 2^12 (2-core x86 VM).
_EXACT_SUM_MIN = 1 << 11
# entries per ``bincount`` pass of ``_exact_sum``: a pass adds at most 2^16
# halves below 2^32, so every float64 count is an integer below 2^48, exact
_EXACT_SUM_CHUNK = 1 << 16
# frexp exponents of finite float64 values lie in -1073..1024
_EXPONENT_OFFSET, _EXPONENTS = 1074, 2099


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float64 vector, bit for bit: the exact sum,
    rounded once (a zero sum is +0.0), with no Python float per entry.

    Each entry is an integer d below 2^53 times 2^(e - 53) (``np.frexp``).
    Per chunk, ``np.bincount`` counts the high and the low 32 bits of d per
    exponent e; the counts add up in int64 and then in one Python integer,
    and one int / int division rounds the total half to even, as fsum
    does.  Non-finite entries give NumPy's sum, nan or +-inf."""
    if values.size < _EXACT_SUM_MIN:
        return math.fsum(values.tolist())
    if not np.isfinite(values).all():
        return float(values.sum())
    high = np.zeros(_EXPONENTS, dtype=np.int64)
    low = np.zeros(_EXPONENTS, dtype=np.int64)
    for start in range(0, values.size, _EXACT_SUM_CHUNK):
        mantissa, exponent = np.frexp(values[start:start + _EXACT_SUM_CHUNK])
        digits = np.ldexp(mantissa, 53).astype(np.int64)
        exponent += _EXPONENT_OFFSET
        high += np.bincount(exponent, digits >> 32, _EXPONENTS).astype(np.int64)
        low += np.bincount(exponent, digits & 0xFFFFFFFF, _EXPONENTS).astype(np.int64)
    total = 0
    for e in np.flatnonzero(high | low).tolist():
        total += ((int(high[e]) << 32) + int(low[e])) << e
    return total / (1 << (_EXPONENT_OFFSET + 53))


def _drift_corrected(p: np.ndarray) -> np.ndarray:
    """Shift uniformly so the vector sums to exactly 1 (fsum sense).

    A uniform shift adjusts only the empty-subset coefficient, which owns
    normalization; every other moment is untouched.
    """
    drift = _exact_sum(p) - 1.0
    if drift != 0.0:
        p = p - drift / p.size
    return p


def _moment_dict(dist: JointDistribution) -> dict[tuple[int, ...], float]:
    """The transform's coefficients keyed by subset, in mask order."""
    coeffs = _walsh_hadamard(dist.p)
    # subsets[mask] is the subset of the set bits: doubling appends time i
    # to every subset of the times before it
    subsets: list[tuple[int, ...]] = [()]
    for i in range(1, dist.n + 1):
        subsets += [s + (i,) for s in subsets]
    return dict(zip(islice(subsets, 1, None), coeffs[1:].tolist()))


def moments_from_distribution(dist: JointDistribution) -> MomentSpec:
    """All 2^n - 1 moment coefficients m_T = sum_s p(s) prod_{i in T} s_i.
    ``_moment_dict`` drops its subset list and coefficients before
    ``MomentSpec`` copies the dict, 4 MB less at the n = 18 peak."""
    return MomentSpec(dist.n, _moment_dict(dist))


def distribution_from_moments(spec: MomentSpec) -> JointDistribution:
    """Evaluate the moment expansion; absent subsets contribute 0.

    The result always sums to exactly 1 (the unit coefficient owns the
    normalization) but may have negative entries when the coefficients do
    not come from an actual probability distribution.
    """
    p = _walsh_hadamard(spec.to_dense()) / (1 << spec.n)
    return JointDistribution(spec.n, _drift_corrected(p))


def pairwise_probability(b_i: float, b_j: float, c_ij: float, s_i: int, s_j: int) -> float:
    """Two-time probability assembled from the moment expansion."""
    return (1.0 + b_i * s_i + b_j * s_j + c_ij * s_i * s_j) / 4.0


def marginalize(dist: JointDistribution, keep: Iterable[int]) -> JointDistribution:
    """Sum out every time index not in ``keep``; order within ``keep`` is ascending."""
    kept = sorted(set(keep))
    if not kept:
        raise ValidationError("keep must be a non-empty set of indices")
    if kept[0] < 1 or kept[-1] > dist.n:
        raise DimensionError(f"keep indices {kept} out of range for n={dist.n}")
    idx = np.arange(1 << dist.n, dtype=np.int64)
    target = np.zeros_like(idx)
    for pos, t in enumerate(kept):
        target |= ((idx >> (t - 1)) & 1) << pos
    out = np.zeros(1 << len(kept))
    np.add.at(out, target, dist.p)
    return JointDistribution(len(kept), _drift_corrected(out))
