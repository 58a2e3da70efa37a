"""Existence of a joint distribution matching fixed one- and two-time data.

Two independent routes answer the same question:

* an LP feasibility oracle (``lp_feasible``) over the 2^n outcome
  probabilities, built on the in-package phase-1 simplex, which first
  tries the condition rows of ``_conditions`` that hold at every +-1
  outcome: a row violated past the band refutes the data with no LP.
  Float chain data go to ``fine_build`` instead; and
* Fine's theorem over chain data (``fine_build``): the data are feasible
  exactly when the two-time rows on the chain triangles and the lg family
  hold (``_chain_conditions``), and then the product construction fixes
  each free closing correlator inside its closure windows
  (``_closure_windows``) and each three-time block's triple coefficient
  inside ``_d_bounds``, and multiplies the blocks into an explicit
  distribution.

Every +-1 expansion is one in-place ``core._butterfly``.  A negative
verdict names the violated rows by the labels that ``_Conditions``
carries.

``conjecture_check`` samples random data, evaluates the candidate
sufficient-condition set for n = 5 (two-time, three-time and n-gon
families) against the oracle, and reports disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    CorrelatorSet,
    DimensionError,
    JointDistribution,
    MarginalError,
    MomentSpec,
    NONNEGATIVITY_TOL,
    OracleError,
    ValidationError,
    _butterfly,
    _check_integer,
    _drift_corrected,
    _masks,
    _validate_coefficient,
    _walsh_hadamard,
    chain_pairs,
    complete_pairs,
    pairwise_probability,
)
from .inequalities import _slacks, ngon_family, three_time_complete, two_time_complete
from .simplex import FEASIBILITY_TOL, _fractions, solve_phase1

ORACLE_MAX_TIMES = 12
EXACT_MAX_TIMES = 6
BOUNDARY_TOL = 1e-7
# the largest slack of a Fine condition at which ``fine_build`` still
# builds the product
EMPTY_TOL = 1e-9
# samples drawn and screened together in the sampling experiment; the
# bound caps the memory of the draws and of the screen in long runs
CONJECTURE_BLOCK = 256


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility question, with a certificate when positive.

    ``violated`` names family members (by label) that explain a negative
    verdict: the condition rows that refute the data before the oracle
    builds a tableau, or every Fine condition that chain data violate.  An
    infeasible verdict of the LP itself leaves it as None.
    ``phase1_objective`` is the LP's residual infeasibility measure when an
    LP ran (0 means feasible outright), and None otherwise.
    """

    feasible: bool
    certificate: JointDistribution | None = None
    violated: tuple[str, ...] | None = None
    phase1_objective: float | None = None

    def __post_init__(self) -> None:
        if self.feasible and self.certificate is None:
            raise ValidationError("a feasible verdict must carry a certificate")
        if self.violated is not None:
            object.__setattr__(self, "violated", tuple(self.violated))


@dataclass(frozen=True)
class ConjectureReport:
    """Tallies of condition-set vs oracle agreement over random samples.

    The four-way tally partitions all samples.  ``boundary`` counts samples
    whose smallest condition slack or oracle residual sits inside the
    knife-edge band; those are excluded from the counterexample list.
    Counterexamples are recorded verbatim as moment data.
    """

    n: int
    mode: str
    samples: int
    seed: int
    condition_holds_and_feasible: int
    condition_holds_and_infeasible: int
    condition_fails_and_feasible: int
    condition_fails_and_infeasible: int
    boundary: int
    counterexamples: tuple[MomentSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        four_way = (
            self.condition_holds_and_feasible
            + self.condition_holds_and_infeasible
            + self.condition_fails_and_feasible
            + self.condition_fails_and_infeasible
        )
        if four_way != self.samples:
            raise ValidationError(f"four-way tally {four_way} != samples {self.samples}")
        object.__setattr__(self, "counterexamples", tuple(self.counterexamples))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "condition_holds_and_feasible": self.condition_holds_and_feasible,
            "condition_holds_and_infeasible": self.condition_holds_and_infeasible,
            "condition_fails_and_feasible": self.condition_fails_and_feasible,
            "condition_fails_and_infeasible": self.condition_fails_and_infeasible,
            "boundary": self.boundary,
            "counterexamples": [spec.to_json_dict() for spec in self.counterexamples],
        }


# ---------------------------------------------------------------------------
# the LP feasibility oracle
# ---------------------------------------------------------------------------

def _suspended(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pairs (0, i), whose correlators are the averages B_i, then ``pairs``."""
    return tuple((0, i) for i in range(1, n + 1)) + tuple(pairs)


@lru_cache(maxsize=128)
def _constraint_rows(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Rows of the moment-matching system over the 2^n outcome columns, in
    int8: normalization, then one character row prod_{i in p} s_i per pair
    p (s_0 = +1); a pair (0, i) fixes B_i."""
    masks = _masks(((),) + pairs)
    a = 1 - 2 * (np.bitwise_count(masks[:, None] & np.arange(1 << n)) & 1).astype(np.int8)
    a.setflags(write=False)
    return a


def _certified(n: int, pairs: Sequence[tuple[int, int]], rhs: np.ndarray,
               p: np.ndarray) -> JointDistribution:
    """``p`` shifted to sum to 1, if it is non-negative and its moments at
    the rows of ``_constraint_rows(n, _suspended(n, pairs))``, Walsh
    characters all read by one transform, match ``rhs``; else OracleError."""
    p = _drift_corrected(p)
    residual = float(np.abs(_walsh_hadamard(p)[_masks(((),) + _suspended(n, pairs))] - rhs).max())
    if residual > FEASIBILITY_TOL:
        raise OracleError(f"certificate residual {residual:.3e} above tolerance")
    if p.min() < -NONNEGATIVITY_TOL:
        raise OracleError(f"certificate has a negative entry, {p.min():.3e}")
    return JointDistribution(n, p)


def _validate_b(b: Sequence[float] | None, n: int) -> np.ndarray:
    if b is None:
        return np.zeros(n)
    entries = np.asarray(b, dtype=object)
    if entries.shape != (n,):
        raise DimensionError(f"expected {n} one-time averages, got shape {entries.shape}")
    # B_i = C_0i, so an average takes a correlator's checks
    return np.array([_validate_coefficient(value, f"one-time average B_{i}")
                     for i, value in enumerate(entries.tolist(), 1)])


# Rows checked for validity at a time: (2^n x rows) int16 blocks of at most
# 2^18 entries, 512 KB.  One int64 product over all rows of complete n = 12
# data, 3,192 x 4,096, would take 105 MB.
_VALIDITY_BLOCK = 1 << 18


class _Conditions(NamedTuple):
    """Labelled condition rows over the pairs of the times 0..n that data
    fix, columns in the order of ``_suspended(n, sorted pairs)``."""

    bounds: np.ndarray
    scales: np.ndarray
    terms: np.ndarray  # int8 (rows x pairs)
    labels: tuple[str, ...]


def _outcome_maxima(n: int, masks: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The largest value over the 2^n +-1 outcomes s of each row h of
    ``terms``, sum_p h_p prod_{i in p} s_i over the pairs p with bit masks
    ``masks``: one in-place ``_butterfly`` of the rows' (outcomes x rows)
    coefficient table.  Every partial sum is a signed sum of some of a
    row's coefficients, at most 210 in magnitude for coefficients in
    {-1, 0, 1} over the pairs of times 0..20, so int16 holds them exactly."""
    table = np.zeros((1 << n, len(terms)), dtype=np.int16)
    table[masks] = terms.T
    return _butterfly(table).max(axis=0)


@lru_cache(maxsize=32)
def _conditions(n: int) -> _Conditions:
    """The condition rows of complete data at n times, over the pairs of
    the times 0..n: the two-time, three-time and n-gon families (the
    two-time family alone at n = 2).

    A row's scale is max(|bound|, 1) when the row holds at every +-1
    outcome, checked exactly, and +inf otherwise, so that only a valid row
    can refute data: for a valid row, h . (b, c) - bound <= scale * (the
    phase-1 objective) on the n-time system; pair the row (-bound, h) with
    A x = rhs - r.  The check runs ``_outcome_maxima`` on blocks of rows."""
    two = two_time_complete(n)
    families = (two, three_time_complete(n), ngon_family(n)) if n >= 3 else (two,)
    pairs = _suspended(n, complete_pairs(n))
    column = {pair: k for k, pair in enumerate(pairs)}
    blocks = []
    for family in families:
        block = np.zeros((len(family), len(pairs)), dtype=np.int8)
        block[:, [column[pair] for pair in family.pairs]] = family.coefficients
        blocks.append(block)
    terms = np.concatenate(blocks)
    bounds = np.concatenate([family.bounds for family in families])
    if np.abs(terms).max(initial=0) > 1:
        raise ValidationError("condition coefficients must be 0 or +-1")
    masks, step = _masks(pairs), max(1, _VALIDITY_BLOCK >> n)
    valid = np.concatenate([
        _outcome_maxima(n, masks, terms[start:start + step]) <= bounds[start:start + step]
        for start in range(0, len(terms), step)])
    scales = np.where(valid, np.maximum(np.abs(bounds), 1.0), np.inf)
    for array in (bounds, scales, terms):
        array.setflags(write=False)
    return _Conditions(bounds, scales, terms, tuple(label for f in families for label in f.labels()))


@lru_cache(maxsize=32)
def _chain_triangles(n: int) -> _Conditions:
    """The two-time rows on the chain triangles (0, i, j), (i, j) a chain
    pair, over the columns of ``_suspended(n, sorted chain pairs)``."""
    two = two_time_complete(n)
    columns = [two.pairs.index(pair) for pair in _suspended(n, sorted(chain_pairs(n)))]
    rows = np.flatnonzero(two.coefficients[:, columns[n:]].any(axis=1))
    terms, bounds = two.coefficients[np.ix_(rows, columns)], two.bounds[rows]
    for array in (bounds, terms):
        array.setflags(write=False)
    return _Conditions(bounds, np.ones(rows.size), terms, tuple(two.labels(rows)))


def _chain_conditions(n: int, values: np.ndarray) -> _Conditions:
    """Fine's conditions on chain data ``values``, the averages and then the
    correlators in the order of ``_suspended(n, sorted chain pairs)``: the
    rows of ``_chain_triangles``, then the lg member with the largest slack
    (Barahona & Mahjoub, Math. Programming 36 (1986): the wheel's triangles
    and its rim).  Two lg members differ in at least two signs, so their
    slacks sum to at most 0 and no other member can be violated.  That
    member takes sign(C) on each pair, with the smallest |C| flipped when
    the minus signs are even in number; at n = 3 it is labelled as the
    three-time member it equals."""
    triangles, rim = _chain_triangles(n), values[n:]
    signs = np.where(rim < 0, -1, 1).astype(np.int8)
    if np.count_nonzero(signs < 0) % 2 == 0:
        signs[np.argmin(np.abs(rim))] *= -1
    # sorted (1, 2), (1, n), (2, 3), ... in chain order (1, 2), ..., (n - 1, n), (1, n)
    minus = (signs < 0).tolist()
    if n == 3:  # a_12 C_12 + a_23 C_23 + a_13 C_13 <= 1 with s_2 = -a_12, s_3 = -a_13
        label = "three3:1.2.3:+" + "".join("+-"[not m] for m in minus[:2])
    else:
        label = f"lg{n}:" + "".join("+-"[m] for m in minus[:1] + minus[2:] + minus[1:2])
    return _Conditions(np.append(triangles.bounds, n - 2.0), np.append(triangles.scales, max(n - 2.0, 1.0)),
                       np.vstack((triangles.terms, np.r_[np.zeros(n, np.int8), signs])),
                       triangles.labels + (label,))


def _refuting_rows(conditions: _Conditions, values: np.ndarray, exact: bool) -> np.ndarray:
    """The rows of ``conditions`` whose slack on ``values``, from
    ``_slacks``, exceeds twice ``BOUNDARY_TOL`` times the row's scale, as
    ``_screen`` decides; with ``exact``, those of them whose slack is also
    positive in ``Fraction``s (the bounds too: ``Fraction`` - float is a
    float)."""
    terms, bounds = conditions.terms, conditions.bounds
    rows = np.flatnonzero(_slacks(terms, bounds, values) / conditions.scales > 2 * BOUNDARY_TOL)
    if exact and rows.size:
        rows = rows[_slacks(terms[rows], _fractions(bounds[rows]), _fractions(values)) > 0]
    return rows


def lp_feasible(
    b: Sequence[float] | None,
    correlators: CorrelatorSet,
    *,
    exact: bool = False,
) -> FeasibilityVerdict:
    """Decide whether some distribution matches the fixed averages and
    correlators, by phase-1 simplex over the 2^n outcome probabilities.

    ``b`` fixes every one-time average (None means all zero).  The stored
    correlator keys are the fixed pairs; absent pairs are unconstrained.
    ``exact=True`` (n <= 6) re-solves in rational arithmetic from the basis
    the float solve ends on, which settles verdicts on knife-edge inputs.

    Float chain data (n >= 4) get ``fine_build``'s verdict, up to n = 20;
    the LP decides them only when the construction refuses a knife-edge
    product (``OracleError`` or ``MarginalError``) at n <= ``ORACLE_MAX_TIMES``.

    Other data first go through condition rows by ``_screen``'s rule: the
    rows of ``_conditions`` for complete data, of ``_chain_conditions`` for
    exact chain data.  A valid row whose slack exceeds twice
    ``BOUNDARY_TOL`` times its scale proves a phase-1 optimum above 2e-7,
    so the verdict is infeasible with no LP and ``violated`` names those
    rows.  With ``exact=True`` a named row's slack is also confirmed
    positive in ``Fraction``s.  Float data at n = 3, where the chain fixes
    every pair, that the rows leave get ``fine_build``'s verdict too.
    Complete data go to the LP up to n = ``ORACLE_MAX_TIMES``.
    """
    n = correlators.n
    if exact and n > EXACT_MAX_TIMES:
        raise DimensionError(f"exact mode handles n <= {EXACT_MAX_TIMES}, got {n}")
    chain = correlators.pattern == "chain"
    if n > ORACLE_MAX_TIMES and not chain:
        raise DimensionError(f"oracle handles n <= {ORACLE_MAX_TIMES} for complete data, got {n}")
    bvec = _validate_b(b, n)
    pairs = tuple(sorted(correlators.entries))
    rhs = np.concatenate(([1.0], bvec, [correlators.entries[p] for p in pairs]))
    if exact or not chain:
        conditions = _chain_conditions(n, rhs[1:]) if chain else _conditions(n)
        refuting = _refuting_rows(conditions, rhs[1:], exact)
        if refuting.size:
            return FeasibilityVerdict(False, violated=tuple(conditions.labels[k] for k in refuting.tolist()))
    if not exact and (chain or n == 3):
        try:
            return fine_build(bvec, correlators)
        except (OracleError, MarginalError):
            if n > ORACLE_MAX_TIMES:
                raise
            # a knife-edge product: the LP decides

    rows = _constraint_rows(n, _suspended(n, pairs))
    if exact:
        result = solve_phase1(rows.astype(object), rhs.astype(object))
    else:
        result = solve_phase1(rows, rhs)

    if not result.feasible:
        return FeasibilityVerdict(False, phase1_objective=result.objective)
    return FeasibilityVerdict(True, _certified(n, pairs, rhs, result.x), phase1_objective=result.objective)


def _oracle_input(spec: MomentSpec) -> tuple[tuple[float, ...], CorrelatorSet]:
    """The averages and correlators of moment data that fix singletons and pairs only."""
    if spec.max_order() > 2:
        raise ValidationError("oracle input must fix only one- and two-time moments")
    return spec.singles(), CorrelatorSet(spec.n, spec.pair_values())


def lp_feasible_from_spec(spec: MomentSpec, *, exact: bool = False) -> FeasibilityVerdict:
    """Oracle entry point for moment data holding singletons and pairs only."""
    return lp_feasible(*_oracle_input(spec), exact=exact)


# ---------------------------------------------------------------------------
# interval bounds of the chain construction
# ---------------------------------------------------------------------------

def _negative_pair(b_i: float, b_j: float, c_ij: float) -> tuple[int, int] | None:
    """The first signs (s_i, s_j) whose pair probability is negative, if any."""
    for s_i in (1, -1):
        for s_j in (1, -1):
            if pairwise_probability(b_i, b_j, c_ij, s_i, s_j) < -NONNEGATIVITY_TOL:
                return s_i, s_j
    return None


# the signs of the terms (B_1, B_2, B_3, C_12, C_13, C_23) of A(s) at each
# outcome s, by mask, and whether the outcome's sign product is even
_D_OUTCOMES = tuple(
    ((s[0], s[1], s[2], s[0] * s[1], s[0] * s[2], s[1] * s[2]), s[0] * s[1] * s[2] == 1)
    for s in ([1 if not (mask >> k) & 1 else -1 for k in range(3)] for mask in range(8)))


def _d_bounds(b1: float, b2: float, b3: float,
              c12: float, c13: float, c23: float) -> tuple[float, float]:
    """The admissible range (lo, hi) of the triple coefficient of a
    three-time block.

    The three pair probabilities are checked first (MarginalError).  With
    A(s) = 1 + sum B_i s_i + sum C_ij s_i s_j, each the ``math.fsum`` of
    its six signed terms, outcomes with even sign product give lower bounds
    -A(s) and odd ones give upper bounds A(s), within [-1, 1]."""
    b = (b1, b2, b3)
    for (i, j), value in (((1, 2), c12), ((1, 3), c13), ((2, 3), c23)):
        if signs := _negative_pair(b[i - 1], b[j - 1], value):
            raise MarginalError(f"pair probability for {(i, j)} at signs ({signs[0]},{signs[1]}) is negative")
    terms = (b1, b2, b3, c12, c13, c23)
    lower, upper = -1.0, 1.0
    for signs, even in _D_OUTCOMES:
        a_val = 1.0 + math.fsum([term * sign for term, sign in zip(terms, signs)])
        if even:
            lower = max(lower, -a_val)
        else:
            upper = min(upper, a_val)
    return lower, upper


def _parity_max(values: Sequence[float], parity: int) -> float:
    """Max of sum a_k v_k over a_k = +-1 with the minus-sign count of the
    given parity; flipping the smallest-magnitude entry pays for a parity
    mismatch."""
    total = math.fsum(abs(v) for v in values)
    negatives = sum(1 for v in values if v < 0)
    if negatives % 2 == parity or any(v == 0.0 for v in values):
        return total
    return total - 2.0 * min(abs(v) for v in values)


def _closure_windows(chain: Sequence[float], c_next: float, c_closure: float,
                     b_first: float, b_last: float) -> tuple[tuple[float, float], ...]:
    """The three (lo, hi) windows of the free closing correlator C_1k of a
    chain block.

    ``chain`` holds the fixed consecutive correlators C_12 .. C_{k-1,k},
    at least two; ``c_next`` and ``c_closure`` are the correlators
    C_{k,k+1} and C_{1,k+1} of the adjoining three-time block.  Returned in
    order: the chain-family window, the three-time window, and the
    pair-probability window, which is the three-time window on the times
    (0, 1, k) with C_{01} = B_1 and C_{0k} = B_k.  A triangle (i, j, k)
    with C_ij = x and C_ik = y admits C_jk in [-1 + |x + y|, 1 - |x - y|].
    """
    bound = float(len(chain) - 1)
    triangles = ((c_next, c_closure), (b_first, b_last))
    return ((-bound + _parity_max(chain, 0), bound - _parity_max(chain, 1)),
            *[(-1.0 + abs(x + y), 1.0 - abs(x - y)) for x, y in triangles])


# ---------------------------------------------------------------------------
# constructive solver over chain data
# ---------------------------------------------------------------------------

def _block_expansions(rows: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """The three-time moment expansion of each row of eight coefficients in
    subset-mask order (the unit first): one transform over all rows, then
    each shifted to sum to 1, as ``distribution_from_moments`` does."""
    return [_drift_corrected(block) for block in _walsh_hadamard(rows) / 8]


def fine_build(b: Sequence[float] | None, chain: CorrelatorSet) -> FeasibilityVerdict:
    """Decide chain-pattern data by Fine's theorem, and build a joint
    distribution matching them by the product construction.

    The data are infeasible when a condition of ``_chain_conditions`` has a
    slack above ``EMPTY_TOL``, and the verdict names every such row.
    Otherwise, working down from the closing block, each free correlator
    C_{1k} is fixed at the midpoint of the intersection of its
    ``_closure_windows``; each three-time block then gets its triple
    coefficient from the midpoint of ``_d_bounds``, and the blocks multiply
    into the joint with the 0/0 -> 0 convention.  ``_certified`` judges the
    product: a knife-edge product that fails it raises ``OracleError``.
    """
    n = chain.n
    if n < 3:
        raise DimensionError(f"fine_build needs n >= 3, got {n}")
    if n > 3 and chain.pattern != "chain":
        raise ValidationError("fine_build requires the chain correlator pattern")
    bs = _validate_b(b, n).tolist()
    c_in = dict(chain.entries)
    pairs = sorted(c_in)
    rhs = np.array([1.0] + bs + [c_in[pair] for pair in pairs])
    conditions = _chain_conditions(n, rhs[1:])
    failing = np.flatnonzero(_slacks(conditions.terms, conditions.bounds, rhs[1:]) > EMPTY_TOL)
    if failing.size:
        return FeasibilityVerdict(False, violated=tuple(conditions.labels[k] for k in failing.tolist()))

    # closures[k] is C_1k for k = 2..n: the fixed C_12 and C_1n, and between
    # them the chosen midpoints, from k = n - 1 down
    closures = [0.0] * (n + 1)
    closures[2], closures[n] = c_in[(1, 2)], c_in[(1, n)]
    for k in range(n - 1, 2, -1):
        chain_part = [c_in[(i, i + 1)] for i in range(1, k)]
        los, his = zip(*_closure_windows(chain_part, c_in[(k, k + 1)], closures[k + 1],
                                         bs[0], bs[k - 1]))
        closures[k] = 0.5 * (max(los) + min(his))

    rows = []
    for k in range(2, n):
        c_k, c_next, c_step = closures[k], closures[k + 1], c_in[(k, k + 1)]
        lo, hi = _d_bounds(bs[0], bs[k - 1], bs[k], c_k, c_next, c_step)
        rows.append([1.0, bs[0], bs[k - 1], c_k, bs[k], c_next, c_step, 0.5 * (lo + hi)])
    blocks = _block_expansions(rows)  # on the times (1, k, k + 1), k = 2..n-1

    idx = np.arange(1 << n)
    bit = lambda t: (idx >> (t - 1)) & 1  # noqa: E731
    sign = lambda t: 1.0 - 2.0 * bit(t)  # noqa: E731

    p = blocks[0][bit(1) | (bit(2) << 1) | (bit(3) << 2)]
    for k in range(3, n):
        numerator = blocks[k - 2][bit(1) | (bit(k) << 1) | (bit(k + 1) << 2)]
        denominator = pairwise_probability(bs[0], bs[k - 1], closures[k], sign(1), sign(k))
        ratio = np.zeros_like(p)
        usable = denominator > 1e-14
        ratio[usable] = numerator[usable] / denominator[usable]
        p *= ratio
    return FeasibilityVerdict(True, _certified(n, pairs, rhs, p))


# ---------------------------------------------------------------------------
# the n = 5 sampling experiment
# ---------------------------------------------------------------------------

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx: hashmix, mix,
# mix_entropy, generate_state) and PCG64 LCG multiplier (pcg64.h, pcg64_set_seed);
# array operands are NumPy scalars, so no Python int is converted per pass
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_LOW32, _HALF, _ONE = np.uint64(_MASK32), np.uint64(32), np.uint64(1)


def _seed_words(x: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, at least one: the
    words ``np.random.SeedSequence`` reads from each int of a list seed."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hash_constants(start: int, mult: int, count: int) -> list[int]:
    """start * mult^t mod 2^32 for t = 0..count-1."""
    out = [start]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return out


@lru_cache(maxsize=8)
def _mixing_schedule(words: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (xor, multiply) hash constants that each step of SeedSequence's
    pool mixing applies to each of the four pool words, as (4 x 1) columns
    for a (words x rows) layout, for ``words`` >= 4 entropy words: the hash
    of the first four words, one step per source word of the pool, then one
    step per remaining entropy word.  The last pair, (2 x 4 x 1), is
    ``generate_state``'s over its eight 32-bit output words."""
    size = _POOL_SIZE
    h = np.array(_hash_constants(_INIT_A, _MULT_A, size * words + 2), dtype=np.uint32)
    # hashmix xors constant t and multiplies by constant t + 1; a source
    # word is hashed into the other three, and its own slot is discarded
    steps = [np.arange(size)]
    steps += [size + (size - 1) * src + np.array([d - (d > src) for d in range(size)])
              for src in range(size)]
    steps += [size * (size + k) + np.arange(size) for k in range(words - size)]
    g = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * size + 1), dtype=np.uint32)
    schedule = tuple((h[t, None], h[t + 1, None]) for t in steps)
    schedule += ((g[:-1].reshape(2, size, 1), g[1:].reshape(2, size, 1)),)
    for constants in schedule:
        for array in constants:
            array.setflags(write=False)
    return schedule


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_MULT_L - y * _MIX_MULT_R
    return x ^ (x >> _XSHIFT)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """(rows x 4) ``SeedSequence(column).generate_state(4, np.uint64)`` of
    each column of a (words x rows) uint32 entropy array with at least four
    words; entropy shorter than the pool is the same padded with zero
    words.  All arithmetic wraps in uint32 arrays, one pass per hash step
    over whole (4 x rows) pools."""
    schedule = _mixing_schedule(entropy.shape[0])
    pool = _hashmix(entropy[:_POOL_SIZE], *schedule[0])
    for src, constants in enumerate(schedule[1:_POOL_SIZE + 1]):
        kept = pool[src]
        pool = _mix(pool, _hashmix(kept, *constants))
        pool[src] = kept
    for src, constants in enumerate(schedule[_POOL_SIZE + 1:-1], _POOL_SIZE):
        pool = _mix(pool, _hashmix(entropy[src], *constants))
    # eight output words cycle over the pool; pairs of them, little-endian,
    # are the four uint64 words
    state = _hashmix(pool, *schedule[-1]).reshape(2 * _POOL_SIZE, -1)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


@lru_cache(maxsize=8)
def _pcg64_jumps(width: int) -> tuple[np.ndarray, ...]:
    """Limbs of (A_k, C_k) = (M^{k+2}, 1 + M + ... + M^{k+1}) mod 2^128 for
    k < ``width``, stacked on a leading axis of 2: the state that yields a
    generator's k-th output is A_k T + C_k inc, with T = initstate + inc.
    Returned as (high 64 bits, low 64 bits, its low and high 32 bits)."""
    mod = 1 << 128
    powers = [pow(_PCG64_MULT, j, mod) for j in range(width + 2)]
    sums = list(accumulate(powers))
    jumps = [x % mod for x in powers[2:] + sums[1:width + 1]]
    hi = np.array([x >> 64 for x in jumps], dtype=np.uint64).reshape(2, 1, width)
    lo = np.array([x & _MASK64 for x in jumps], dtype=np.uint64).reshape(2, 1, width)
    limbs = hi, lo, lo & _LOW32, lo >> _HALF
    for array in limbs:
        array.setflags(write=False)
    return limbs


def _pcg64_random(states: np.ndarray, width: int) -> np.ndarray:
    """(rows x width) ``uniform(-1, 1)`` draws of generators seeded with the
    rows of ``_seed_states``, each the -1 + 2u of a ``PCG64.random()``
    double u: 128-bit states as (high, low) uint64 limbs, products by
    32-bit halves."""
    s_hi, s_lo, q_hi, q_lo = states.T
    inc_hi, inc_lo = q_hi << _ONE | q_lo >> np.uint64(63), q_lo << _ONE | _ONE
    t_lo = s_lo + inc_lo
    t_hi = s_hi + inc_hi + (t_lo < s_lo)
    y_hi, y_lo = np.array((t_hi, inc_hi))[:, :, None], np.array((t_lo, inc_lo))[:, :, None]
    k_hi, k_lo, k0, k1 = _pcg64_jumps(width)
    y0, y1 = y_lo & _LOW32, y_lo >> _HALF
    p01, p10 = k0 * y1, k1 * y0
    mid = (k0 * y0 >> _HALF) + (p01 & _LOW32) + (p10 & _LOW32)
    p_hi = (k1 * y1 + (p01 >> _HALF) + (p10 >> _HALF) + (mid >> _HALF)
            + k_lo * y_hi + k_hi * y_lo)
    p_lo = k_lo * y_lo
    lo = p_lo[0] + p_lo[1]
    hi = p_hi[0] + p_hi[1] + (lo < p_lo[0])
    # XSL-RR output; its top 53 bits times 2^-53 are u, and 2u is exact
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return (x >> np.uint64(11)) * (1.0 / 4503599627370496.0) - 1.0


def _draw_block(n: int, mode: str, seed: int, first: int, stop: int) -> np.ndarray:
    """One (samples x (n + pairs)) array of the averages, then the pair
    correlators in lexicographic pair order, of samples ``first`` to
    ``stop`` - 1 (``stop`` at most 2^64); symmetric mode leaves the
    averages at zero.

    Row k holds the first values of ``default_rng([seed, first + k])``,
    bit for bit, without building a generator.  The indices below 2^32 and
    those from 2^32 on, each a contiguous slice of the range, need one and
    two 32-bit entropy words; each slice runs SeedSequence's hashes and
    PCG64's seeding as uint32 and uint64 passes over all its samples at
    once, and output k of every sample is one 128-bit multiply-add from its
    seeded state (``_pcg64_jumps``).  General mode draws the averages
    first."""
    pairs = n * (n - 1) // 2
    width = pairs + (n if mode == "general" else 0)
    block = np.zeros((stop - first, n + pairs))
    head = _seed_words(seed)
    split = min(max(first, 1 << 32), stop)
    for lo, hi, index_words in ((first, split, 1), (split, stop, 2)):
        if lo < hi:
            index = np.arange(lo, hi, dtype=np.uint64)
            words = len(head) + index_words
            entropy = np.zeros((max(words, _POOL_SIZE), hi - lo), dtype=np.uint32)
            entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
            entropy[len(head)] = index & _LOW32
            if index_words == 2:
                entropy[len(head) + 1] = index >> _HALF
            block[lo - first:hi - first, n + pairs - width:] = _pcg64_random(
                _seed_states(entropy), width)
    return block


# Each condition row of n = 5 adds at most 11 terms, its bound one of them,
# of magnitude at most 12 in total: up to ten +-1 multiples of values in
# [-1, 1] and a bound of at most 2.  In any order of summation, with or
# without fused multiply-adds (a product by +-1 or 0 is exact), the float sum
# is within 10 * 2^-53 * 12 < 1.4e-14 of the exact one (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sec. 4.2), and so is each
# screen statistic, a max or min over rows of slacks divided by scales >= 1.
# A BLAS slack and a ``_slacks`` slack thus differ by < 2.8e-14, and a
# statistic farther than this margin from its threshold decides the same way
# under both; the samples within it are re-decided from ``_slacks``.
_SCREEN_MARGIN = 1e-12
_SCREEN_THRESHOLDS = np.array([[0.0], [BOUNDARY_TOL], [2 * BOUNDARY_TOL]])
_SCREEN_THRESHOLDS.setflags(write=False)


def _screen_statistics(slacks: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(3 x samples) largest slack, smallest |slack| and largest slack over
    its row's scale of (rows x samples) slacks: the statistics that
    ``_SCREEN_THRESHOLDS`` decide."""
    return np.array((slacks.max(axis=0), np.abs(slacks).min(axis=0),
                     (slacks / scales[:, None]).max(axis=0)))


def _screen(n: int, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(holds, boundary, refuted) bool arrays over the samples in the rows
    of ``bc``, averages then correlators as ``_draw_block`` writes them:
    every condition holds, some slack lies within ``BOUNDARY_TOL`` of zero,
    and some valid row is violated by more than twice ``BOUNDARY_TOL``
    relative to its scale in ``_conditions``.

    The slacks of a block are one BLAS product, and a sample with a
    statistic within ``_SCREEN_MARGIN`` of its threshold is re-decided
    from the slacks of ``_slacks``, whose bits depend on that sample
    alone; so every decision equals the one from ``_slacks`` on
    every sample, whatever the BLAS build and however samples are blocked."""
    bounds, scales, terms, _ = _conditions(n)
    stats = _screen_statistics(terms.astype(np.float64) @ bc.T - bounds[:, None], scales)
    near = (np.abs(stats - _SCREEN_THRESHOLDS) <= _SCREEN_MARGIN).any(axis=0)
    if near.any():
        stats[:, near] = _screen_statistics(_slacks(terms, bounds, bc[near].T), scales)
    return stats[0] <= 0.0, stats[1] < BOUNDARY_TOL, stats[2] > 2 * BOUNDARY_TOL


def _classify_stack(n: int, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(holds, feasible, boundary) bool arrays over the samples in the rows
    of ``bc``, averages then correlators as ``_draw_block`` writes them.

    A sample that ``_screen`` refutes has a phase-1 optimum above the
    band, so it is infeasible with no LP: a violated row is itself a
    certificate of infeasibility once it holds at every +-1 outcome, and
    the band keeps the screen apart from the LP's tolerance.  Each other
    sample gets its own float phase-1 solve on the oracle rows of
    ``lp_feasible``; a block that the screen settles whole makes no LP
    call.  Every verdict is independent of how samples are blocked and of
    the BLAS build."""
    holds, boundary, refuted = _screen(n, bc)
    feasible = np.zeros(len(bc), dtype=bool)
    if not refuted.all():
        rows = _constraint_rows(n, _suspended(n, complete_pairs(n)))
        for k in np.flatnonzero(~refuted).tolist():
            result = solve_phase1(rows, np.concatenate(([1.0], bc[k])))
            feasible[k] = result.feasible
            boundary[k] |= FEASIBILITY_TOL < result.objective < BOUNDARY_TOL
    return holds, feasible, boundary


def _sample_to_spec(n: int, mode: str, b: Sequence[float], c: Sequence[float]) -> MomentSpec:
    moments: dict[tuple[int, ...], float] = {}
    if mode == "general":
        moments.update({(i,): float(b[i - 1]) for i in range(1, n + 1)})
    moments.update({pair: float(v) for pair, v in zip(complete_pairs(n), c)})
    return MomentSpec(n, moments)


def conjecture_check(
    samples: int,
    seed: int,
    mode: str = "symmetric",
    *,
    n: int = 5,
    workers: int = 1,
) -> ConjectureReport:
    """Sample complete correlator sets (plus averages in general mode),
    test the candidate condition set against the oracle, and tally.

    Sample i draws from ``default_rng([seed, i])`` for i < ``samples``, and
    the four tallies cross whether every condition holds with the oracle's
    verdict.  The samples are drawn and classified ``CONJECTURE_BLOCK`` at
    a time, in one serial loop: one ``_draw_block`` array and one
    ``_classify_stack`` call per block.  ``boundary`` counts samples with a
    condition slack within ``BOUNDARY_TOL`` of zero or a phase-1 optimum
    between the LP's tolerance and ``BOUNDARY_TOL``.  Only the rare
    non-boundary disagreements leave array code: the oracle re-decides
    each in rational arithmetic (``lp_feasible_from_spec`` with
    ``exact=True``; its pre-screen applies ``_screen``'s rule to the same
    slacks, so it refutes none of them), and those that still disagree are the
    counterexamples, in ascending sample index; "conditions hold, oracle
    infeasible" is the direction the sufficiency claim forbids, while the
    converse would indicate a necessity bug.  Reports are reproducible bit
    for bit for a fixed (seed, samples, mode) and independent of the block
    size and the BLAS build: ``_screen`` takes the condition slacks from
    one BLAS product, and re-decides from exact-order sums each sample
    whose statistics lie within ``_SCREEN_MARGIN`` of a threshold.
    ``workers`` accepts only 1.
    """
    for name, value in (("samples", samples), ("seed", seed), ("workers", workers)):
        _check_integer(name, value)
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if mode not in ("symmetric", "general"):
        raise ValidationError(f"mode must be symmetric or general, got {mode!r}")
    if workers != 1:
        raise ValidationError(f"the experiment runs serially: workers must be 1, got {workers}")
    if n != 5:
        raise DimensionError("the sampling experiment is defined for n = 5")

    held = fed = both = boundary_count = 0
    counterexamples: list[MomentSpec] = []
    for first in range(0, samples, CONJECTURE_BLOCK):
        bc = _draw_block(n, mode, seed, first, min(first + CONJECTURE_BLOCK, samples))
        holds, feasible, boundary = _classify_stack(n, bc)
        # knife-edge floats can misclassify the oracle side; settle it exactly.
        # ``holds`` needs no re-check: off the band every slack is at least
        # BOUNDARY_TOL from zero, and a float sum of at most ten terms in
        # [-1, 1] is off by less than 1e-13, so each slack's sign is exact
        for k in np.flatnonzero((holds != feasible) & ~boundary).tolist():
            spec = _sample_to_spec(n, mode, bc[k, :n], bc[k, n:])
            feasible[k] = lp_feasible_from_spec(spec, exact=True).feasible
            if holds[k] != feasible[k]:
                counterexamples.append(spec)
        # three counts fix the four-way tally
        held += int(np.count_nonzero(holds))
        fed += int(np.count_nonzero(feasible))
        both += int(np.count_nonzero(holds & feasible))
        boundary_count += int(np.count_nonzero(boundary))

    return ConjectureReport(
        n=n,
        mode=mode,
        samples=samples,
        seed=seed,
        condition_holds_and_feasible=both,
        condition_holds_and_infeasible=held - both,
        condition_fails_and_feasible=fed - both,
        condition_fails_and_infeasible=samples - held - fed + both,
        boundary=boundary_count,
        counterexamples=tuple(counterexamples),
    )
