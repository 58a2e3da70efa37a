"""Inequality families over two-time correlators.

Four families constrain the correlators of a macrorealistic model:

* ``lg``: the 2^{n-1} chain inequalities sum_k a_k C_{k,k+1} + a_n C_{1n}
  <= n-2 with coefficients a_k = +-1 whose product is -1.
* ``ngon``: for every sign vector s, n + 2 sum_{i<j} s_i s_j C_ij >= 1
  (n odd) or >= 0 (n even); stored here in the normalized <= form with
  integer coefficients -s_i s_j and bound (n-1)/2 resp. n/2.
* ``three_time``: non-negativity of every three-time block,
  1 + s_i s_j C_ij + s_i s_k C_ik + s_j s_k C_jk >= 0 for all i<j<k.
* ``two_time``: non-negativity of every pair probability,
  1 + B_i s_i + B_j s_j + C_ij s_i s_j >= 0; these members carry linear
  B terms alongside the correlator terms.

Every member is normalized to "sum of terms <= bound" so that a positive
slack uniformly signals a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CorrelatorSet,
    MomentSpec,
    ValidationError,
    _check_n,
    chain_pairs,
    complete_pairs,
)

_ALLOWED_COEFFS = (-2, -1, 1, 2)
_LABEL_TAGS = {"lg": "lg", "ngon": "ngon", "three_time": "three", "two_time": "two"}


def _pattern(code: int, width: int) -> str:
    """Sign pattern of a sign code: bit k set means the (k+1)-th sign is -1."""
    return "".join("-" if (code >> k) & 1 else "+" for k in range(width))


def _signs(n: int, size: int, codes: np.ndarray) -> np.ndarray:
    """(codes x n) int8 signs, zero off each code's times.  The low ``size``
    bits of a code are the sign code of a size-subset of the n times, and
    the bits above them rank that subset in lexicographic order."""
    subsets = np.array(list(combinations(range(n), size)))
    signs = np.zeros((codes.size, n), dtype=np.int8)
    rows = np.arange(codes.size)
    for k in range(size):
        signs[rows, subsets[codes >> size, k]] = 1 - 2 * ((codes >> k) & 1)
    return signs


def _sign_products(signs: np.ndarray) -> np.ndarray:
    """Coefficients -s_i s_j over ``complete_pairs(n)`` for (members x n) signs."""
    i, j = np.array(complete_pairs(signs.shape[1])).T - 1
    return -(signs[:, i] * signs[:, j])


@dataclass(frozen=True)
class LinearInequality:
    """One member: sum of integer-weighted correlators (plus optional linear
    B terms) bounded above.  Slack = value - bound; violation <=> slack > 0."""

    terms: Mapping[tuple[int, int], int]
    bound: float
    label: str = ""
    linear: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValidationError("an inequality needs at least one correlator term")
        for pair, coeff in self.terms.items():
            i, j = pair
            if i >= j:
                raise ValidationError(f"term key {pair} must have i < j")
            if coeff not in _ALLOWED_COEFFS:
                raise ValidationError(f"coefficient {coeff} for {pair} outside {{-2..2}}\\{{0}}")
        object.__setattr__(self, "terms", dict(self.terms))
        object.__setattr__(self, "linear", dict(self.linear))

    def canonical_key(self) -> tuple:
        return (
            frozenset(self.terms.items()),
            frozenset(self.linear.items()),
            float(self.bound),
        )


@dataclass(frozen=True, eq=False)
class InequalityFamily:
    """Members as rows: row r reads sum_c coefficients[r, c] * C_{pairs[c]}
    + sum_i linear[r, i - 1] * B_i <= bounds[r], with int8 matrices.

    ``pairs`` is ``chain_pairs(n)`` for ``lg``, else ``complete_pairs(n)``;
    ``linear`` has no columns except for ``two_time``.  ``codes[r]`` is the
    sign code row r was generated from and fixes its label: the signs of
    all n times for ``lg`` and ``ngon``, else the signs of the triple's or
    pair's times in the low bits and its rank above them.  Labels and
    ``LinearInequality`` objects are built from the rows on demand.
    """

    name: str
    n: int
    pairs: tuple[tuple[int, int], ...]
    coefficients: np.ndarray
    linear: np.ndarray
    bounds: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        if self.name not in _LABEL_TAGS:
            raise ValidationError(f"unknown family name {self.name!r}")
        for array in (self.coefficients, self.linear, self.bounds, self.codes):
            array.setflags(write=False)

    def __len__(self) -> int:
        return self.bounds.size

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, row: int) -> LinearInequality:
        """One member, built without building the others."""
        row = range(len(self))[row]
        return self._member(row, self.labels([row])[0])

    @cached_property
    def members(self) -> tuple[LinearInequality, ...]:
        return tuple(map(self._member, range(len(self)), self.labels()))

    def _member(self, row: int, label: str) -> LinearInequality:
        terms = {p: c for p, c in zip(self.pairs, self.coefficients[row].tolist()) if c}
        linear = {i: c for i, c in enumerate(self.linear[row].tolist(), start=1) if c}
        return LinearInequality(terms, float(self.bounds[row]), label, linear)

    def labels(self, rows: Sequence[int] | np.ndarray | None = None) -> list[str]:
        """Labels of the given rows (all rows by default), in row order."""
        codes = (self.codes if rows is None else self.codes[rows]).tolist()
        tag = f"{_LABEL_TAGS[self.name]}{self.n}"
        if self.name in ("lg", "ngon"):
            return [f"{tag}:{_pattern(code, self.n)}" for code in codes]
        size = 3 if self.name == "three_time" else 2
        subsets = [".".join(map(str, s)) for s in combinations(range(1, self.n + 1), size)]
        return [f"{tag}:{subsets[code >> size]}:{_pattern(code, size)}" for code in codes]

    def take(self, rows: np.ndarray) -> InequalityFamily:
        """The sub-family of the given rows, in the given order."""
        arrays = ("coefficients", "linear", "bounds", "codes")
        return replace(self, **{name: getattr(self, name)[rows] for name in arrays})

    def slacks(self, data: CorrelatorSet | MomentSpec) -> np.ndarray:
        """Signed slack of every member on the data; positive means violated."""
        return _slacks(self.pairs, self.coefficients, self.linear, self.bounds, data)


def _slacks(pairs: Sequence[tuple[int, int]], coefficients: np.ndarray, linear: np.ndarray,
            bounds: np.ndarray, data: CorrelatorSet | MomentSpec) -> np.ndarray:
    """coefficients @ C + linear @ B - bounds, with C read at ``pairs``, B at
    the times 1..linear.shape[1], and the data conventions of ``evaluate``."""
    times = range(1, linear.shape[1] + 1)
    if isinstance(data, CorrelatorSet):
        values, singles = [data.value(i, j) for i, j in pairs], [0.0 for _ in times]
    elif isinstance(data, MomentSpec):
        values, singles = [data.get(pair) for pair in pairs], [data.get((i,)) for i in times]
    else:
        raise TypeError(f"cannot evaluate against {type(data).__name__}")
    # equal values enter once with an integer weight, so equal term multisets tie exactly
    unique, inverse = np.unique(values + singles, return_inverse=True)
    onehot = (inverse[:, None] == np.arange(unique.size)).astype(np.float64)
    return (np.hstack([coefficients, linear]) @ onehot) @ unique - bounds


def _family(name, n, pairs, coefficients, bound, codes, linear=None) -> InequalityFamily:
    """A family whose members share one bound; no linear matrix means no B terms."""
    if linear is None:
        linear = np.zeros((codes.size, 0), dtype=np.int8)
    return InequalityFamily(name, n, pairs, coefficients, linear, np.full(codes.size, bound), codes)


def lg_family(n: int) -> InequalityFamily:
    """All 2^{n-1} chain inequalities with coefficient product -1, bound n-2.

    Generation order: member k has a_{j+1} = +1 where bit j of k is 0
    (j = 0..n-2) and the closing coefficient a_n = -prod(a_1..a_{n-1}).
    """
    _check_n(n, minimum=3)
    chain = np.arange(1 << (n - 1))
    # a_n = -1 exactly when a_1..a_{n-1} hold an even number of minus signs
    codes = np.where(np.bitwise_count(chain) & 1, chain, chain | (1 << (n - 1)))
    return _family("lg", n, chain_pairs(n), _signs(n, n, codes), float(n - 2), codes)


def ngon_family(n: int, raw: bool = False) -> InequalityFamily:
    """Sign-vector conditions over the complete correlator set.

    With ``raw=False`` (default) the 2^{n-1} canonical members with
    s_1 = +1 are generated; s and -s induce the same inequality, so the raw
    2^n listing only duplicates each member and exists for count checks and
    figure reproduction.
    """
    _check_n(n, minimum=3)
    bound = float((n - 1) // 2) if n % 2 else float(n // 2)
    codes = np.arange(1 << n) if raw else np.arange(0, 1 << n, 2)
    return _family("ngon", n, complete_pairs(n), _sign_products(_signs(n, n, codes)), bound, codes)


def three_time_complete(n: int) -> InequalityFamily:
    """Every three-time condition 1 + sum of signed pair correlators >= 0.

    Sign vectors are canonicalized by the global flip s <-> -s (the first
    index of each triple carries +1), so each triple contributes 4 members
    and the family has 2n(n-1)(n-2)/3 of them.
    """
    _check_n(n, minimum=3)
    codes = np.arange(0, 8 * math.comb(n, 3), 2)
    coefficients = _sign_products(_signs(n, 3, codes))
    return _family("three_time", n, complete_pairs(n), coefficients, 1.0, codes)


def two_time_complete(n: int) -> InequalityFamily:
    """Every pair-probability condition 1 + B_i s_i + B_j s_j + C_ij s_i s_j >= 0.

    All four sign choices per pair are distinct members (the B terms break
    the global-flip symmetry), giving 2n(n-1) members.
    """
    _check_n(n, minimum=2)
    codes = np.arange(4 * math.comb(n, 2))
    signs = _signs(n, 2, codes)
    return _family("two_time", n, complete_pairs(n), _sign_products(signs), 1.0, codes, -signs)


def evaluate(ineq: LinearInequality, data: CorrelatorSet | MomentSpec) -> float:
    """Signed slack of one member on the data; positive means violated.

    A CorrelatorSet must fix every referenced pair and carries no B data
    (linear terms evaluate against 0).  A MomentSpec reads pairs and
    singletons with the usual absent-means-zero convention.
    """
    linear = np.array([[ineq.linear.get(i, 0) for i in range(1, max(ineq.linear, default=0) + 1)]])
    coefficients = np.array([list(ineq.terms.values())])
    return float(_slacks(tuple(ineq.terms), coefficients, linear, np.array([ineq.bound]), data)[0])


def coefficient_arrays(
    family: InequalityFamily,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Dense float64 (members x pairs) term matrix over ``complete_pairs(n)``,
    (members x n) linear matrix and bound vector for batch slack
    evaluation: slack = A @ c + L @ b - bounds."""
    pairs = complete_pairs(family.n)
    a = np.zeros((len(family), len(pairs)))
    a[:, [pairs.index(pair) for pair in family.pairs]] = family.coefficients
    lin = np.zeros((len(family), family.n))
    lin[:, : family.linear.shape[1]] = family.linear
    return a, lin, family.bounds.copy(), pairs


def gap_weights(family: InequalityFamily) -> np.ndarray:
    """(members x n-1) int8 per-gap coefficient sums: under equal spacing
    C_ij = g(j - i) member r reads sum_d w[r, d - 1] * g(d) <= bound."""
    weights = np.zeros((len(family), family.n - 1), dtype=np.int8)
    for col, (i, j) in enumerate(family.pairs):
        weights[:, j - i - 1] += family.coefficients[:, col]
    return weights


def distinct_under_equal_spacing(family: InequalityFamily) -> InequalityFamily:
    """One representative per class of members whose slacks agree for every
    equal-spacing assignment C_ij = g(j - i).

    Under equal spacing a member's slack is the linear functional
    sum_d (per-gap coefficient sum) * g(d) minus the bound, so two members
    coincide for all g exactly when those per-gap sums and the bound match.
    Every lg or ngon member carries its family's one bound, so the per-gap
    sums alone fix the class.  The representative is the class's first
    member, and classes keep the order of their representatives.
    """
    if family.name not in ("lg", "ngon"):
        raise ValidationError("equal-spacing deduplication applies to lg and ngon families")
    weights = gap_weights(family)
    # one opaque bytes value per row: np.unique sorts those far faster than rows
    _, first = np.unique(weights.view(f"V{weights.shape[1]}").ravel(), return_index=True)
    return family.take(np.sort(first))


def max_violation(
    family: InequalityFamily, data: CorrelatorSet | MomentSpec
) -> tuple[LinearInequality, float]:
    """The member with the largest slack; ties go to the earliest member."""
    if not len(family):
        raise ValidationError("family has no members")
    slacks = family.slacks(data)
    row = int(np.argmax(slacks))
    return family[row], float(slacks[row])


def inequality_to_json_dict(ineq: LinearInequality) -> dict:
    payload: dict = {
        "label": ineq.label,
        "terms": {f"{i},{j}": coeff for (i, j), coeff in sorted(ineq.terms.items())},
        "bound": ineq.bound,
    }
    if ineq.linear:
        payload["linear"] = {str(i): coeff for i, coeff in sorted(ineq.linear.items())}
    return payload


def family_to_json_list(family: InequalityFamily) -> list[dict]:
    return [inequality_to_json_dict(member) for member in family.members]
