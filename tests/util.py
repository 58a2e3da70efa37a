"""Shared samplers for the randomized suites.

All sampling is done with explicitly seeded numpy generators so every test
run sees the same stream.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from lgfeas import JointDistribution, MomentSpec, pairwise_probability
from lgfeas.core import _walsh_hadamard


def pair_table_nonneg(b_i: float, b_j: float, c_ij: float) -> bool:
    return all(
        pairwise_probability(b_i, b_j, c_ij, s_i, s_j) >= 0.0
        for s_i in (1, -1)
        for s_j in (1, -1)
    )


def sample_nonneg_pair_moments(rng, n, pairs, block=256):
    """Rejection-sample averages and correlators whose listed pair tables
    are all non-negative (the standard precondition of the feasibility
    questions).

    Each attempt draws ``uniform(-1, 1)`` n averages, then one correlator
    per pair.  Attempts are drawn ``block`` at a time and tested at once;
    the generator is then rewound to just past the accepted attempt, so
    the values and the final state are those of drawing one at a time."""
    width = n + len(pairs)
    i, j = (np.array(pairs) - 1).T
    while True:
        state = rng.bit_generator.state
        x = rng.uniform(-1.0, 1.0, (block, width))
        b_i, b_j, c = x[:, i], x[:, j], x[:, n:]
        ok = np.ones(block, dtype=bool)
        for s_i in (1, -1):
            for s_j in (1, -1):
                ok &= (pairwise_probability(b_i, b_j, c, s_i, s_j) >= 0.0).all(axis=1)
        if ok.any():
            k = int(ok.argmax())
            rng.bit_generator.state = state
            rng.bit_generator.advance((k + 1) * width)
            return x[k, :n].copy(), {pair: float(v) for pair, v in zip(pairs, x[k, n:])}


def outcome_index(signs) -> int:
    """The index of the outcome (s_1, ..., s_n): bit k set means s_{k+1} = -1."""
    return sum(1 << k for k, s in enumerate(signs) if s < 0)


def outcome_signs(index: int, n: int) -> tuple[int, ...]:
    """The outcome (s_1, ..., s_n) at ``index``, the inverse of ``outcome_index``."""
    return tuple(-1 if index >> k & 1 else 1 for k in range(n))


def random_nonneg_distribution(rng, n) -> JointDistribution:
    weights = rng.exponential(1.0, 1 << n)
    return JointDistribution(n, weights / weights.sum())


def dense_conditions(families):
    """Dense float64 (rows x pairs) term matrix over the pairs of the times
    0..n and the bound vector of the families' rows stacked in order: a
    row's slack on averages b and correlators c is a @ concat(b, c) - bound."""
    pairs = list(combinations(range(families[0].n + 1), 2))
    blocks = []
    for family in families:
        block = np.zeros((len(family), len(pairs)))
        block[:, [pairs.index(pair) for pair in family.pairs]] = family.coefficients
        blocks.append(block)
    return np.concatenate(blocks), np.concatenate([family.bounds for family in families])


def reference_slacks(coefficients, bounds, values) -> np.ndarray:
    """Slacks, rows first, of the rows of an integer matrix on float values,
    1-D over the columns or (columns x samples), one row at a time: its
    non-zero terms c * x added in column order to -0.0, then minus its
    bound.  The reference for ``inequalities._slacks``."""
    slacks = np.empty(bounds.shape + values.shape[1:])
    for row, (terms, bound) in enumerate(zip(coefficients.tolist(), bounds.tolist())):
        total = np.full(values.shape[1:], -0.0)
        for column in np.flatnonzero(terms).tolist():
            total = total + terms[column] * values[column]
        slacks[row] = total - bound
    return slacks


# signed zeros, +-1, and values off every coarse grid, so that the order of
# the terms shows in the bits
SLACK_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 2.0**-53, 1.0 - 2.0**-53, 0.1, -0.7])


def slack_inputs(width, rng):
    """1-D and (columns x 7) values for ``_slacks`` over ``width`` columns."""
    yield np.full(width, -0.0)
    yield rng.choice(SLACK_VALUES, width)
    yield rng.uniform(-1.0, 1.0, width)
    yield rng.choice(SLACK_VALUES, (width, 7))
    yield rng.uniform(-1.0, 1.0, (width, 7))


def reference_walsh_hadamard(values) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform along the last axis of a
    float64 copy, one stage at a time, each stage writing freshly computed
    sums and differences: the reference for ``core._walsh_hadamard``."""
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


def subset_to_mask(subset) -> int:
    """The outcome bit mask of a subset of the times 1..n."""
    return sum(1 << (i - 1) for i in subset)


def mask_to_subset(mask: int) -> tuple[int, ...]:
    """The subset of the times 1..n whose bits are set in ``mask``."""
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def reference_moments(dist: JointDistribution) -> dict:
    """The moment dict of ``dist`` built one subset at a time, in mask order:
    the reference for ``moments_from_distribution``."""
    coeffs = _walsh_hadamard(dist.p)
    return {mask_to_subset(mask): float(coeffs[mask]) for mask in range(1, coeffs.size)}


def reference_dense(spec: MomentSpec) -> np.ndarray:
    """``spec`` as a mask-indexed coefficient vector, one subset at a time:
    the reference for ``MomentSpec.to_dense``."""
    dense = np.zeros(1 << spec.n)
    dense[0] = 1.0
    for subset, value in spec.moments.items():
        dense[subset_to_mask(subset)] = value
    return dense


def markov_chain_data(rng, n, averages=True):
    """Averages and chain correlators of a random two-state Markov chain over
    the times 1..n: moments of an actual distribution, so feasible.  With
    ``averages`` the start and each step's transition matrix are random;
    without, the chain starts uniform and flips each state with the same
    probability, so every average is zero and ``b`` is None."""
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    up = rng.uniform(0.2, 0.8) if averages else 0.5
    joint = np.diag([up, 1.0 - up])  # the (s_1, s_k) joint, +1 first
    b = [2.0 * up - 1.0]
    entries = {}
    for k in range(1, n):
        stay = rng.uniform(0.1, 0.9, 2) if averages else np.full(2, rng.uniform(0.1, 0.9))
        step = np.array([[stay[0], 1 - stay[0]], [1 - stay[1], stay[1]]])
        entries[(k, k + 1)] = float((np.diag(joint.sum(axis=0)) @ step * parity).sum())
        joint = joint @ step
        marginal = joint.sum(axis=0)
        b.append(float(marginal[0] - marginal[1]))
    entries[(1, n)] = float((joint * parity).sum())
    return (b if averages else None), entries


def gauss_jordan(a, b) -> list[Fraction]:
    """The solution x of the square system a x = b in ``Fraction``s, by
    Gauss-Jordan elimination: the reference vertex of a simplex basis."""
    m = len(b)
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for k in range(m):
        p = next((i for i in range(k, m) if rows[i][k] != 0), None)
        if p is None:
            raise ValueError("singular system")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [v / pivot for v in rows[k]]
        for i in range(m):
            f = rows[i][k]
            if i != k and f != 0:
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[k])]
    return [row[m] for row in rows]
