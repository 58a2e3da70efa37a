"""Existence of a joint distribution matching fixed one- and two-time data.

Two independent routes answer the same question:

* an LP feasibility oracle (``lp_feasible``) over the 2^n outcome
  probabilities, built on the in-package phase-1 simplex; and
* constructive solvers that assemble an explicit distribution: the
  three-time coefficient interval (``d_interval``), the free-correlator
  interval of the chain recursion (``c1n_interval``), the product
  construction over chain data (``fine_build``), and the symmetric
  even-coefficient search for complete correlator sets
  (``symmetric_e_feasible``).

``conjecture_check`` samples random data, evaluates the candidate
sufficient-condition set for n = 5 (two-time, three-time and n-gon
families) against the oracle, and reports disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from typing import Sequence

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
    _check_integer,
    _drift_corrected,
    _validate_coefficient,
    _walsh_hadamard,
    chain_pairs,
    complete_pairs,
    distribution_from_moments,
    pairwise_probability,
)
from .inequalities import (
    InequalityFamily,
    _gather_slacks,
    _term_groups,
    max_violation,
    lg_family,
    ngon_family,
    three_time_complete,
    two_time_complete,
)
from .simplex import FEASIBILITY_TOL, solve_phase1

ORACLE_MAX_TIMES = 12
EXACT_MAX_TIMES = 6
BOUNDARY_TOL = 1e-7
# samples drawn and screened together in the sampling experiment; the
# bound caps the memory of the draws and of the screen in long runs
CONJECTURE_BLOCK = 256


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; empty when lo exceeds hi beyond tolerance."""

    lo: float
    hi: float

    EMPTY_TOL = 1e-9

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi + self.EMPTY_TOL

    def intersect(self, other: Interval) -> Interval:
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a feasibility question, with a certificate when positive.

    ``violated`` names family members (by label) that explain a negative
    verdict when a constructive solver can point at them; the LP oracle
    leaves it as None.  ``phase1_objective`` is the oracle's residual
    infeasibility measure when available (0 means feasible outright).
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

def _masks(subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """The outcome bit mask of each subset of the times 0..n; s_0 = +1 adds no bit."""
    return np.array([sum((1 << i) >> 1 for i in t) for t in subsets], dtype=np.int64)


def _characters(n: int, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """One int8 row prod_{i in T} s_i over the 2^n outcomes per subset T
    of the times 0..n."""
    return 1 - 2 * (np.bitwise_count(_masks(subsets)[:, None] & np.arange(1 << n)) & 1).astype(np.int8)


def _suspended(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pairs (0, i), whose correlators are the averages B_i, then ``pairs``."""
    return tuple((0, i) for i in range(1, n + 1)) + tuple(pairs)


@lru_cache(maxsize=128)
def _constraint_rows(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Rows of the moment-matching system over the 2^n outcome columns:
    normalization, then one character row per pair; a pair (0, i) fixes B_i."""
    a = _characters(n, ((),) + pairs)
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
    arr = np.asarray(b, dtype=np.float64)
    if arr.shape != (n,):
        raise DimensionError(f"expected {n} one-time averages, got shape {arr.shape}")
    # B_i = C_0i, so an average takes a correlator's tolerance
    for i, value in enumerate(arr.tolist(), 1):
        _validate_coefficient(value, f"one-time average B_{i}")
    return arr


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
    """
    n = correlators.n
    if n > ORACLE_MAX_TIMES:
        raise DimensionError(f"oracle handles n <= {ORACLE_MAX_TIMES}, got {n}")
    if exact and n > EXACT_MAX_TIMES:
        raise DimensionError(f"exact mode handles n <= {EXACT_MAX_TIMES}, got {n}")
    bvec = _validate_b(b, n)
    pairs = tuple(sorted(correlators.entries))
    rows = _constraint_rows(n, _suspended(n, pairs))
    rhs = np.concatenate(([1.0], bvec, [correlators.entries[p] for p in pairs]))

    if exact:
        result = solve_phase1(rows.astype(object), rhs.astype(object))
    else:
        result = solve_phase1(rows, rhs)

    if not result.feasible:
        return FeasibilityVerdict(False, phase1_objective=result.objective)
    return FeasibilityVerdict(True, _certified(n, pairs, rhs, result.x), phase1_objective=result.objective)


def lp_feasible_from_spec(spec: MomentSpec, *, exact: bool = False) -> FeasibilityVerdict:
    """Oracle entry point for moment data holding singletons and pairs only."""
    if spec.max_order() > 2:
        raise ValidationError("oracle input must fix only one- and two-time moments")
    correlators = CorrelatorSet(spec.n, spec.pair_values())
    return lp_feasible(spec.singles(), correlators, exact=exact)


# ---------------------------------------------------------------------------
# interval solvers
# ---------------------------------------------------------------------------

def _triangle_interval(x: float, y: float) -> Interval:
    """Range of C_jk on a triangle (i, j, k) with C_ij = x and C_ik = y."""
    return Interval(-1.0 + abs(x + y), 1.0 - abs(x - y))


def _check_pair_nonneg(b_i: float, b_j: float, c_ij: float, pair: tuple[int, int]) -> None:
    for s_i in (1, -1):
        for s_j in (1, -1):
            if pairwise_probability(b_i, b_j, c_ij, s_i, s_j) < -NONNEGATIVITY_TOL:
                raise MarginalError(f"pair probability for {pair} at signs ({s_i},{s_j}) is negative")


def d_interval(spec: MomentSpec) -> Interval:
    """Admissible range of the triple coefficient for a three-time block.

    With A(s) = 1 + sum B_i s_i + sum C_ij s_i s_j, outcomes with even sign
    product give lower bounds -A(s) and odd ones give upper bounds A(s);
    the result is additionally intersected with [-1, 1].  Requires the
    three pair probabilities to be non-negative.
    """
    if spec.n != 3:
        raise DimensionError(f"d_interval needs n=3, got n={spec.n}")
    b = [spec.b(i) for i in (1, 2, 3)]
    c = {pair: spec.c(*pair) for pair in ((1, 2), (1, 3), (2, 3))}
    for (i, j), value in c.items():
        _check_pair_nonneg(b[i - 1], b[j - 1], value, (i, j))

    lower, upper = -1.0, 1.0
    for mask in range(8):
        s = [1 if not (mask >> k) & 1 else -1 for k in range(3)]
        a_val = 1.0 + math.fsum(
            [b[0] * s[0], b[1] * s[1], b[2] * s[2]]
            + [c[(i, j)] * s[i - 1] * s[j - 1] for (i, j) in c]
        )
        if s[0] * s[1] * s[2] == 1:
            lower = max(lower, -a_val)
        else:
            upper = min(upper, a_val)
    return Interval(lower, upper)


def _parity_max(values: Sequence[float], parity: int) -> float:
    """Max of sum a_k v_k over a_k = +-1 with the minus-sign count of the
    given parity; flipping the smallest-magnitude entry pays for a parity
    mismatch."""
    total = math.fsum(abs(v) for v in values)
    negatives = sum(1 for v in values if v < 0)
    if negatives % 2 == parity or any(v == 0.0 for v in values):
        return total
    return total - 2.0 * min(abs(v) for v in values)


def c1n_intervals(
    chain: Sequence[float],
    c_next: float,
    c_closure: float,
    b_first: float,
    b_last: float,
) -> tuple[Interval, Interval, Interval]:
    """The three bounds on the free closing correlator of a chain block.

    ``chain`` holds the fixed consecutive correlators C_12 .. C_{k-1,k} of
    the block whose closure C_1k is free; ``c_next`` and ``c_closure`` are
    the correlators C_{k,k+1} and C_{1,k+1} of the adjoining three-time
    block.  Returned in order: the chain-family bound, the three-time
    bound, and the pair-probability bound, which is the three-time bound
    on the times (0, 1, k) with C_{01} = B_1 and C_{0k} = B_k.
    """
    if len(chain) < 2:
        raise DimensionError("chain must fix at least two consecutive correlators")
    bound = float(len(chain) - 1)
    chain_iv = Interval(-bound + _parity_max(chain, 0), bound - _parity_max(chain, 1))
    return chain_iv, _triangle_interval(c_next, c_closure), _triangle_interval(b_first, b_last)


def c1n_interval(
    chain: Sequence[float],
    c_next: float,
    c_closure: float,
    b_first: float,
    b_last: float,
) -> Interval:
    """Intersection of the three bounds from ``c1n_intervals``."""
    return reduce(Interval.intersect, c1n_intervals(chain, c_next, c_closure, b_first, b_last))


# ---------------------------------------------------------------------------
# constructive solver over chain data
# ---------------------------------------------------------------------------

def _violated_labels(family: InequalityFamily, data: CorrelatorSet | MomentSpec) -> tuple:
    """Labels of the members whose slack on the data exceeds 1e-12."""
    return tuple(family.labels(np.flatnonzero(family.slacks(data) > 1e-12)))


def _named_violations(family: InequalityFamily, data: CorrelatorSet | MomentSpec) -> tuple:
    """The violated members' labels, or the first best member's when none is violated."""
    return _violated_labels(family, data) or (max_violation(family, data)[0].label,)


def fine_build(b: Sequence[float] | None, chain: CorrelatorSet) -> FeasibilityVerdict:
    """Build a joint distribution matching chain-pattern data by the product
    construction, or report the violated family members.

    Working down from the closing block, each free correlator C_{1k} is
    fixed at the midpoint of its admissible interval; each three-time block
    then gets its triple coefficient from the midpoint of ``d_interval``,
    and the blocks multiply into the joint with the 0/0 -> 0 convention.
    The verdict is feasible exactly when every interval on the way is
    non-empty, and the certificate reproduces all fixed marginals.
    """
    n = chain.n
    if n < 3:
        raise DimensionError(f"fine_build needs n >= 3, got {n}")
    if frozenset(chain.entries) != frozenset(chain_pairs(n)):
        raise ValidationError("fine_build requires the chain correlator pattern")
    bvec = _validate_b(b, n)
    for (i, j), value in chain.sorted_items():
        _check_pair_nonneg(bvec[i - 1], bvec[j - 1], value, (i, j))

    c_in = dict(chain.entries)
    chosen: dict[int, float] = {}
    for k in range(n - 1, 2, -1):
        chain_part = [c_in[(i, i + 1)] for i in range(1, k)]
        c_next = c_in[(k, k + 1)]
        c_closure = c_in[(1, n)] if k + 1 == n else chosen[k + 1]
        interval = c1n_interval(chain_part, c_next, c_closure, bvec[0], bvec[k - 1])
        if interval.is_empty:
            values = [c_in[(i, i + 1)] for i in range(1, k + 1)] + [c_closure]
            block = CorrelatorSet(k + 1, dict(zip(chain_pairs(k + 1), values)))
            return FeasibilityVerdict(False, violated=_named_violations(lg_family(k + 1), block))
        chosen[k] = interval.midpoint()

    def c_1k(k: int) -> float:
        if k == 2:
            return c_in[(1, 2)]
        if k == n:
            return c_in[(1, n)]
        return chosen[k]

    blocks: dict[int, JointDistribution] = {}
    for k in range(2, n):
        moments = {
            (1,): float(bvec[0]),
            (2,): float(bvec[k - 1]),
            (3,): float(bvec[k]),
            (1, 2): c_1k(k),
            (2, 3): c_in[(k, k + 1)],
            (1, 3): c_1k(k + 1),
        }
        interval = d_interval(MomentSpec(3, moments))
        if interval.is_empty:
            pairs = [(1, k), (1, k + 1), (k, k + 1)]
            block = MomentSpec(n, dict(zip(pairs, [c_1k(k), c_1k(k + 1), c_in[(k, k + 1)]])))
            three = three_time_complete(n)
            in_block = three.coefficients[:, [three.pairs.index(p) for p in pairs]].all(axis=1)
            return FeasibilityVerdict(False, violated=_named_violations(three.take(in_block), block))
        moments[(1, 2, 3)] = interval.midpoint()
        blocks[k] = distribution_from_moments(MomentSpec(3, moments))

    idx = np.arange(1 << n)
    bit = lambda t: (idx >> (t - 1)) & 1  # noqa: E731
    sign = lambda t: 1.0 - 2.0 * bit(t)  # noqa: E731

    p = blocks[2].p[bit(1) | (bit(2) << 1) | (bit(3) << 2)].copy()
    for k in range(3, n):
        numerator = blocks[k].p[bit(1) | (bit(k) << 1) | (bit(k + 1) << 2)]
        denominator = pairwise_probability(bvec[0], bvec[k - 1], c_1k(k), sign(1), sign(k))
        ratio = np.zeros_like(p)
        usable = denominator > 1e-14
        ratio[usable] = numerator[usable] / denominator[usable]
        p *= ratio

    pairs = sorted(c_in)
    rhs = np.concatenate(([1.0], bvec, [c_in[pair] for pair in pairs]))
    return FeasibilityVerdict(True, _certified(n, pairs, rhs, p))


# ---------------------------------------------------------------------------
# symmetric even-coefficient search over complete correlator sets
# ---------------------------------------------------------------------------

def symmetric_e_feasible(correlators: CorrelatorSet) -> FeasibilityVerdict:
    """Search the even four-subset coefficients making the moment expansion
    non-negative, for a complete correlator set with vanishing odd moments.

    For n = 4 the single coefficient is boxed by sixteen explicit bounds
    and the midpoint is taken; for n = 5 the five coefficients are found by
    the same phase-1 kernel used by the oracle.  The feasibility question
    is solved directly in the coefficients, not by the condition families.
    """
    n = correlators.n
    if n not in (4, 5):
        raise DimensionError(f"symmetric coefficient search covers n=4 or 5, got {n}")
    if not correlators.is_complete:
        raise ValidationError("symmetric coefficient search needs the complete pattern")

    pairs = complete_pairs(n)
    cvec = np.array([correlators.entries[p] for p in pairs])
    f = 1.0 + _characters(n, pairs).T @ cvec  # f(s) = 1 + sum s_i s_j C_ij over all outcomes

    quads = tuple(combinations(range(1, n + 1), 4))
    quad_chars = _characters(n, quads).T

    if n == 4:
        parity = quad_chars[:, 0]
        interval = Interval(float(np.max(-f[parity > 0])), float(np.min(f[parity < 0])))
        feasible, objective, e_values = not interval.is_empty, None, [interval.midpoint()]
    else:
        a = np.hstack([quad_chars, -quad_chars, -np.eye(1 << n)])
        result = solve_phase1(a, -f)
        feasible, objective = result.feasible, result.objective
        e_values = result.x[:len(quads)] - result.x[len(quads):2 * len(quads)]
    if not feasible:
        families = (three_time_complete(n), ngon_family(n))
        violated = [label for f in families for label in _violated_labels(f, correlators)]
        return FeasibilityVerdict(False, violated=violated, phase1_objective=objective)

    # the moment expansion p(s) = 2^-n (f(s) + sum_q e_q prod_{i in q} s_i)
    p = (f + quad_chars @ e_values) / (1 << n)
    rhs = np.concatenate(([1.0], np.zeros(n), cvec))
    return FeasibilityVerdict(True, _certified(n, pairs, rhs, p))


# ---------------------------------------------------------------------------
# the n = 5 sampling experiment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _conditions(n: int) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], np.ndarray, np.ndarray]:
    """The candidate condition set over the pairs of the times 0..n, rows
    stacked two-time, three-time, n-gon, as (``_term_groups`` of the rows,
    bounds, scales).

    A row's scale is max(|bound|, 1) when the row holds at every +-1
    outcome, checked exactly in integers, and +inf otherwise, so that only
    a valid row can refute a sample: for a valid row, h . (b, c) - bound <=
    scale * (the phase-1 objective) on the n-time system; pair the row
    (-bound, h) with A x = rhs - r."""
    pairs = _suspended(n, complete_pairs(n))
    families = (two_time_complete(n), three_time_complete(n), ngon_family(n))
    blocks = []
    for family in families:
        block = np.zeros((len(family), len(pairs)), dtype=np.int64)
        block[:, [pairs.index(pair) for pair in family.pairs]] = family.coefficients
        blocks.append(block)
    terms = np.concatenate(blocks)
    bounds = np.concatenate([family.bounds for family in families])
    if not np.isin(terms, (-1, 0, 1)).all():
        raise ValidationError("condition coefficients must be 0 or +-1")
    valid = (terms @ _characters(n, pairs) <= bounds[:, None]).all(axis=1)
    scales = np.where(valid, np.maximum(np.abs(bounds), 1.0), np.inf)
    groups = _term_groups(terms)
    for array in (bounds, scales, *(array for group in groups for array in group)):
        array.setflags(write=False)
    return groups, bounds, scales


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


def _classify_stack(n: int, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(holds, feasible, boundary) bool arrays over the samples in the rows
    of ``bc``, averages then correlators as ``_draw_block`` writes them.

    A sample that violates a valid condition row by more than twice the
    boundary band, relative to the row's scale in ``_conditions``, has a
    phase-1 optimum above the band, so it is infeasible with no LP: a
    violated row is itself a certificate of infeasibility once it holds at
    every +-1 outcome, and the band keeps the screen apart from the LP's
    tolerance.  Each other sample gets its own float phase-1 solve on the
    oracle rows of ``lp_feasible``; a block that the screen settles whole
    makes no LP call.  The slacks from ``_gather_slacks`` are reduced over
    the rows of their (rows x samples) layout, so every verdict is
    independent of how samples are blocked."""
    slacks = _gather_slacks(*_conditions(n)[:2], bc.T)
    holds = slacks.max(axis=0) <= 0.0
    boundary = np.abs(slacks).min(axis=0) < BOUNDARY_TOL
    feasible = np.zeros(len(bc), dtype=bool)
    refuted = (slacks / _conditions(n)[2][:, None]).max(axis=0) > 2 * BOUNDARY_TOL
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
    ``exact=True``), and those that still disagree are the
    counterexamples, in ascending sample index; "conditions hold, oracle
    infeasible" is the direction the sufficiency claim forbids, while the
    converse would indicate a necessity bug.  Reports are reproducible bit
    for bit for a fixed (seed, samples, mode) and independent of the block
    size and the BLAS build.  ``workers`` accepts only 1.
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
