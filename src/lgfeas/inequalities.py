"""Inequality families over two-time correlators.

The one-time averages enter as correlators with a reference time 0 whose
sign is always +1: B_i = C_{0i}.  Every family is then an integer
coefficient matrix over pairs of times, with a bound and sign codes.
Four families constrain the correlators of a macrorealistic model:

* ``lg``: the 2^{n-1} chain inequalities sum_k a_k C_{k,k+1} + a_n C_{1n}
  <= n-2 with coefficients a_k = +-1 whose product is -1.
* ``ngon``: for every sign vector s, n + 2 sum_{i<j} s_i s_j C_ij >= 1
  (n odd) or >= 0 (n even); stored here in the normalized <= form with
  integer coefficients -s_i s_j and bound (n-1)/2 resp. n/2.
* ``three_time``: non-negativity of every three-time block,
  1 + s_i s_j C_ij + s_i s_k C_ik + s_j s_k C_jk >= 0 for all i<j<k.
* ``two_time``: non-negativity of every pair probability,
  1 + B_i s_i + B_j s_j + C_ij s_i s_j >= 0; this is the three-time
  condition on the times (0, i, j), and the only family that reads B.

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
    """Coefficients -s_i s_j over the lexicographic pairs of the columns of
    (members x times) signs."""
    i, j = np.array(list(combinations(range(signs.shape[1]), 2))).T
    return -(signs[:, i] * signs[:, j])


@dataclass(frozen=True)
class LinearInequality:
    """One member: sum of integer-weighted correlators (plus the B terms
    ``linear``, which a family stores as its (0, i) columns) bounded above.
    Slack = value - bound; violation <=> slack > 0."""

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
    <= bounds[r], with an int8 matrix and C_{0i} = B_i.

    ``pairs`` is ``chain_pairs(n)`` for ``lg``, the pairs of the times 0..n
    for ``two_time``, else ``complete_pairs(n)``.  ``codes[r]`` is the sign
    code row r was generated from and fixes its label: the signs of all n
    times for ``lg`` and ``ngon``, else the signs of the triple's or pair's
    times in the low bits and its rank above them.  Labels and
    ``LinearInequality`` objects are built from the rows on demand.
    """

    name: str
    n: int
    pairs: tuple[tuple[int, int], ...]
    coefficients: np.ndarray
    bounds: np.ndarray
    codes: np.ndarray

    def __post_init__(self) -> None:
        if self.name not in _LABEL_TAGS:
            raise ValidationError(f"unknown family name {self.name!r}")
        for array in (self.coefficients, self.bounds, self.codes):
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
        """The (0, i) columns map back to the B terms ``linear``."""
        entries = [(p, c) for p, c in zip(self.pairs, self.coefficients[row].tolist()) if c]
        terms = {p: c for p, c in entries if p[0]}
        linear = {j: c for (i, j), c in entries if not i}
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
        arrays = ("coefficients", "bounds", "codes")
        return replace(self, **{name: getattr(self, name)[rows] for name in arrays})

    def slacks(self, data: CorrelatorSet | MomentSpec) -> np.ndarray:
        """Signed slack of every member on the data; positive means violated.
        Terms add in column order, so members tie when their slacks are
        bit-equal; slacks equal in exact arithmetic can differ by an ulp."""
        groups = _term_groups(self.coefficients)
        return _gather_slacks(groups, self.bounds, _pair_values(self.pairs, data))


def _pair_values(pairs: Sequence[tuple[int, int]], data: CorrelatorSet | MomentSpec) -> np.ndarray:
    """C at each pair under the data conventions of ``evaluate``; C_{0j} is B_j."""
    if isinstance(data, CorrelatorSet):
        return np.array([data.value(i, j) if i else 0.0 for i, j in pairs])
    if isinstance(data, MomentSpec):
        return np.array([data.moments.get((i, j) if i else (j,), 0.0) for i, j in pairs])
    raise TypeError(f"cannot evaluate against {type(data).__name__}")


def _term_groups(coefficients: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The rows of an integer matrix grouped by term count, as pairs of row
    numbers and a C-contiguous (terms x rows) int16 table of columns in
    ascending order: j for c > 0, width + j for c < 0, listed |c| times."""
    width = coefficients.shape[1]
    weights = np.abs(coefficients)
    counts, unit = weights.sum(axis=1), weights.max(initial=1) == 1
    groups = []
    for count in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == count)
        block = coefficients if rows.size == counts.size else coefficients[rows]
        if unit and count == width:
            # every entry is one term: no index arrays over the whole block
            columns, negative = np.arange(width, dtype=np.int16), block < 0
        else:
            at, columns = np.nonzero(block)
            copies = np.abs(block[at, columns])
            columns, negative = np.repeat(columns, copies), np.repeat(block[at, columns] < 0, copies)
        signed = np.where(negative, columns + width, columns).astype(np.int16, copy=False)
        groups.append((rows, np.ascontiguousarray(signed.reshape(rows.size, count).T)))
    return tuple(groups)


def _gather_slacks(groups: tuple, bounds: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Slacks, rows first, of the rows of ``_term_groups`` on ``values``,
    1-D over the columns or (columns x samples).  Each row adds its terms
    one at a time in table order, gathered from the values stacked on their
    negatives (-x is x * -1.0 exactly), then subtracts its bound, so each
    sample's bits depend on that sample alone.  For coefficients in
    {-1, 0, 1} they equal a dense sum in column order: a zero term can only
    flip the sign of a zero partial sum, which a non-zero bound erases."""
    signed = np.concatenate((values, -values))
    slacks = np.empty(bounds.shape + values.shape[1:])
    for rows, table in groups:
        total = signed[table[0]]
        for column in table[1:]:
            total += signed[column]
        slacks[rows] = (total.T - bounds[rows]).T
    return slacks


def _family(name, n, pairs, coefficients, bound, codes) -> InequalityFamily:
    """A family whose members share one bound."""
    return InequalityFamily(name, n, pairs, coefficients, np.full(codes.size, bound), codes)


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

    This is the three-time family on the times 0..n, restricted to the
    triples (0, i, j) with s_0 = +1: those are the first C(n, 2) triples,
    and their three-time codes are the codes here shifted left by one bit.
    All four sign choices per pair are distinct members, giving 2n(n-1).
    """
    _check_n(n, minimum=2)
    codes = np.arange(4 * math.comb(n, 2))
    coefficients = _sign_products(_signs(n + 1, 3, codes << 1))
    return _family("two_time", n, tuple(combinations(range(n + 1), 2)), coefficients, 1.0, codes)


def evaluate(ineq: LinearInequality, data: CorrelatorSet | MomentSpec) -> float:
    """Signed slack of one member on the data; positive means violated.

    A CorrelatorSet must fix every referenced pair and carries no B data
    (linear terms evaluate against 0).  A MomentSpec reads pairs and
    singletons with the usual absent-means-zero convention.  Terms add in
    the member's order, B terms first, so the value is bit-identical to the
    member's row of ``InequalityFamily.slacks``.
    """
    pairs = [(0, i) for i in ineq.linear] + list(ineq.terms)
    groups = _term_groups(np.array([[*ineq.linear.values(), *ineq.terms.values()]]))
    return float(_gather_slacks(groups, np.array([ineq.bound]), _pair_values(pairs, data))[0])


def gap_weights(family: InequalityFamily) -> np.ndarray:
    """(members x n-1) int8 per-gap coefficient sums: under equal spacing
    C_ij = g(j - i) member r reads sum_d w[r, d - 1] * g(d) <= bound.
    The averages B_i = C_{0i} are no function of a gap."""
    if family.name == "two_time":
        raise ValidationError("gap weights need a family without B terms")
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
    """The member with the largest slack; ties, meaning bit-equal slacks
    from ``InequalityFamily.slacks``, go to the earliest member."""
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
