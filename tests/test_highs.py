"""The LP oracle against HiGHS, an independent solver (scipy, tests only).

HiGHS solves a margin LP over a moment system built here from sign
vectors, not from the package's builder: max t such that some x with
A x = rhs has every entry >= t.  A positive margin means a strictly
positive distribution matches the data, a negative one that none does;
inputs within ``MARGIN_BAND`` of zero are boundary cases and are skipped.
"""

import math

import numpy as np
import pytest

from lgfeas import CorrelatorSet, chain_pairs, complete_pairs, lp_feasible, moments_from_distribution
from lgfeas.feasibility import ORACLE_MAX_TIMES
from util import random_nonneg_distribution

linprog = pytest.importorskip("scipy.optimize").linprog

MARGIN_BAND = 1e-7


def _moment_system(n, pairs):
    """Normalization, the n averages, then one row per pair, over all 2^n
    sign vectors in any column order."""
    s = 1.0 - 2.0 * ((np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1)
    return np.vstack([np.ones(1 << n), s] + [s[i - 1] * s[j - 1] for i, j in pairs])


def _highs_margin(a, rhs):
    # x = y + t with y >= 0 keeps the moment rows as the only constraints
    a_eq = np.hstack([a, a.sum(axis=1, keepdims=True)])
    cost = np.zeros(a_eq.shape[1])
    cost[-1] = -1.0
    bounds = [(0.0, None)] * a.shape[1] + [(None, 1.0)]
    res = linprog(cost, A_eq=a_eq, b_eq=rhs, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.x[-1])


def _inputs(n, pairs, rng):
    """(b, correlators) pairs: zero, cosine, moments of random
    distributions, and uniform random data."""
    gaps = [j - i for i, j in pairs]
    yield None, dict.fromkeys(pairs, 0.0)
    for tau in (0.4, math.pi / 3):
        yield None, {pair: math.cos(tau * gap) for pair, gap in zip(pairs, gaps)}
    for _ in range(2):
        spec = moments_from_distribution(random_nonneg_distribution(rng, n))
        yield [spec.b(i) for i in range(1, n + 1)], {pair: spec.c(*pair) for pair in pairs}
    for _ in range(2):
        yield rng.uniform(-1.0, 1.0, n), dict(zip(pairs, rng.uniform(-1.0, 1.0, len(pairs))))


@pytest.mark.parametrize("pattern", [chain_pairs, complete_pairs])
def test_lp_verdicts_match_highs(pattern):
    rng = np.random.default_rng(31)
    decided = {True: 0, False: 0}
    for n in range(3, ORACLE_MAX_TIMES + 1):
        pairs = pattern(n)
        a = _moment_system(n, pairs)
        for b, c in _inputs(n, pairs, rng):
            rhs = np.concatenate(([1.0], np.zeros(n) if b is None else b, [c[p] for p in pairs]))
            margin = _highs_margin(a, rhs)
            if abs(margin) < MARGIN_BAND:
                continue
            assert lp_feasible(b, CorrelatorSet(n, c)).feasible == (margin > 0), (n, b, c)
            decided[margin > 0] += 1
    assert min(decided.values()) >= 10
