"""Core domain types for joint distributions over dichotomic outcomes.

A run of n measurements of a two-valued quantity yields outcomes described
by sign vectors s in {-1,+1}^n.  Any real assignment p over the 2^n
outcomes has the exact moment expansion

    p(s) = 2^{-n} * (1 + sum_T m_T * prod_{i in T} s_i),

with T ranging over the non-empty subsets of {1..n}.  Singleton
coefficients are the one-time averages B_i, pair coefficients are the
two-time correlators C_ij, and higher coefficients carry the remaining
degrees of freedom.  This module holds both representations and the exact
conversions between them.

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
from itertools import combinations
from typing import Iterable, Mapping, Sequence

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
# subset keys <-> bit masks <-> JSON keys
# ---------------------------------------------------------------------------

def subset_to_mask(subset: Sequence[int]) -> int:
    return sum(1 << (i - 1) for i in subset)


def mask_to_subset(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


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
    return subset


@dataclass(frozen=True)
class SignVector:
    """An outcome assignment (s_1, ..., s_n), each entry -1 or +1."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) < 1 or len(self.signs) > MAX_TIMES:
            raise DimensionError(f"sign vector length must be in [1, {MAX_TIMES}]")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValidationError(f"sign vector entries must be -1 or +1, got {self.signs}")

    @classmethod
    def from_index(cls, index: int, n: int) -> SignVector:
        _check_n(n)
        if not 0 <= index < (1 << n):
            raise ValidationError(f"index {index} out of range for n={n}")
        return cls(tuple(1 if not (index >> k) & 1 else -1 for k in range(n)))

    @property
    def index(self) -> int:
        return sum(1 << k for k, s in enumerate(self.signs) if s < 0)

    @property
    def n(self) -> int:
        return len(self.signs)

    def __iter__(self):
        return iter(self.signs)

    def __len__(self) -> int:
        return len(self.signs)


def _validate_coefficient(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or abs(value) > 1.0 + NORMALIZATION_TOL:
        raise ValidationError(f"{what} must lie in [-1, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class MomentSpec:
    """Moment coefficients indexed by non-empty subsets of {1..n}.

    Keys are strictly increasing tuples of 1-based time indices.  Singletons
    hold B_i, pairs hold C_ij, larger subsets hold the higher coefficients.
    Absent subsets are read as 0, which expresses the symmetric case (all
    odd coefficients zero) by simply omitting the odd keys.
    """

    n: int
    moments: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        _check_n(self.n, minimum=2)
        cleaned: dict[tuple[int, ...], float] = {}
        for subset, value in self.moments.items():
            subset = tuple(subset)
            if not subset or any(b <= a for a, b in zip(subset, subset[1:])):
                raise ValidationError(f"subset {subset} is not strictly increasing")
            if subset[0] < 1 or subset[-1] > self.n:
                raise ValidationError(f"subset {subset} out of range for n={self.n}")
            cleaned[subset] = _validate_coefficient(value, f"moment {subset}")
        object.__setattr__(self, "moments", cleaned)

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
        dense = np.zeros(1 << self.n)
        dense[0] = 1.0
        for subset, value in self.moments.items():
            dense[subset_to_mask(subset)] = value
        return dense

    def to_json_dict(self) -> dict:
        keys = sorted(self.moments, key=lambda s: (len(s), s))
        return {"n": self.n, "moments": {format_subset_key(k): self.moments[k] for k in keys}}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> MomentSpec:
        try:
            n = _check_integer("n", payload["n"])
            values = {key: float(value) for key, value in payload.get("moments", {}).items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed moment payload: {exc}") from exc
        return cls(n, {parse_subset_key(k): v for k, v in values.items()})


@dataclass(frozen=True)
class CorrelatorSet:
    """The pairwise correlators C_ij, either the chain pattern or complete.

    The chain pattern is the standard test layout (1,2), ..., (n-1,n), (1,n);
    the complete pattern fixes all n(n-1)/2 pairs.
    """

    n: int
    entries: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        _check_n(self.n, minimum=2)
        cleaned: dict[tuple[int, int], float] = {}
        for pair, value in self.entries.items():
            i, j = pair
            if not (1 <= i < j <= self.n):
                raise ValidationError(f"pair {pair} out of range for n={self.n}")
            cleaned[(i, j)] = _validate_coefficient(value, f"correlator {pair}")
        keys = frozenset(cleaned)
        if keys != frozenset(complete_pairs(self.n)) and keys != frozenset(chain_pairs(self.n)):
            raise ValidationError(
                "correlator key set must follow the chain pattern or be complete; "
                f"got {sorted(keys)} for n={self.n}"
            )
        object.__setattr__(self, "entries", cleaned)

    @property
    def pattern(self) -> str:
        if frozenset(self.entries) == frozenset(complete_pairs(self.n)):
            return "complete"
        return "chain"

    @property
    def is_complete(self) -> bool:
        return self.pattern == "complete"

    def value(self, i: int, j: int) -> float:
        try:
            return self.entries[(i, j)]
        except KeyError:
            raise MissingCorrelatorError(f"correlator ({i},{j}) is not fixed") from None

    def get(self, pair: tuple[int, int], default: float | None = None) -> float | None:
        return self.entries.get(pair, default)

    def sorted_items(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self.entries.items())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "correlators": {format_subset_key(k): v for k, v in self.sorted_items()},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> CorrelatorSet:
        try:
            n = _check_integer("n", payload["n"])
            values = {key: float(value) for key, value in payload.get("correlators", {}).items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed correlator payload: {exc}") from exc
        entries = {}
        for key, value in values.items():
            subset = parse_subset_key(key)
            if len(subset) != 2:
                raise ValidationError(f"correlator key {key!r} is not a pair")
            entries[subset] = value
        return cls(n, entries)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A real vector over the 2^n outcomes, normalized to total 1.

    Values may be negative (a quasi-distribution produced by the moment
    expansion); ``is_nonnegative`` reports whether the vector is an actual
    probability distribution at the decision tolerance.
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
        total = math.fsum(arr.tolist())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValidationError(f"distribution must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @classmethod
    def uniform(cls, n: int) -> JointDistribution:
        _check_n(n)
        return cls(n, np.full(1 << n, 1.0 / (1 << n)))

    @classmethod
    def point_mass(cls, signs: Sequence[int]) -> JointDistribution:
        sv = SignVector(tuple(signs))
        p = np.zeros(1 << sv.n)
        p[sv.index] = 1.0
        return cls(sv.n, p)

    def total(self) -> float:
        return math.fsum(self.p.tolist())

    def min_value(self) -> float:
        return float(self.p.min())

    def is_nonnegative(self, tol: float = NONNEGATIVITY_TOL) -> bool:
        return bool(self.p.min() >= -tol)

    def p_of(self, signs: SignVector | Sequence[int]) -> float:
        sv = signs if isinstance(signs, SignVector) else SignVector(tuple(signs))
        if sv.n != self.n:
            raise DimensionError(f"sign vector length {sv.n} != n={self.n}")
        return float(self.p[sv.index])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "p": [float(v) for v in self.p]}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> JointDistribution:
        try:
            n, p = _check_integer("n", payload["n"]), np.asarray(payload["p"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed distribution payload: {exc}") from exc
        return cls(n, p)


# ---------------------------------------------------------------------------
# exact conversions
# ---------------------------------------------------------------------------

def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized transform: out[t] = sum_m in[m] * (-1)^popcount(m & t).

    Self-inverse up to the factor 2^n.  Works on the last axis.
    """
    arr = np.array(values, dtype=np.float64)
    size = arr.shape[-1]
    flat = arr.reshape(-1, size)
    h = 1
    while h < size:
        flat = flat.reshape(flat.shape[0] * (size // (2 * h)), 2, h)
        top = flat[:, 0, :].copy()
        flat[:, 0, :] = top + flat[:, 1, :]
        flat[:, 1, :] = top - flat[:, 1, :]
        flat = flat.reshape(-1, size)
        h *= 2
    return flat.reshape(arr.shape)


def _drift_corrected(p: np.ndarray) -> np.ndarray:
    """Shift uniformly so the vector sums to exactly 1 (fsum sense).

    A uniform shift adjusts only the empty-subset coefficient, which owns
    normalization; every other moment is untouched.
    """
    drift = math.fsum(p.tolist()) - 1.0
    if drift != 0.0:
        p = p - drift / p.size
    return p


def moments_from_distribution(dist: JointDistribution) -> MomentSpec:
    """All 2^n - 1 moment coefficients m_T = sum_s p(s) prod_{i in T} s_i."""
    coeffs = _walsh_hadamard(dist.p)
    moments = {mask_to_subset(mask): float(coeffs[mask]) for mask in range(1, coeffs.size)}
    return MomentSpec(dist.n, moments)


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
