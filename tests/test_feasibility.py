import hashlib
import json
import math
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from lgfeas import (
    CorrelatorSet,
    DimensionError,
    JointDistribution,
    MomentSpec,
    ValidationError,
    chain_pairs,
    complete_pairs,
    conjecture_check,
    distribution_from_moments,
    fine_build,
    lg_family,
    lp_feasible,
    lp_feasible_from_spec,
    max_violation,
    moments_from_distribution,
    ngon_family,
    three_time_complete,
    two_time_complete,
)
from lgfeas import feasibility
from lgfeas.feasibility import (
    BOUNDARY_TOL,
    CONJECTURE_BLOCK,
    EMPTY_TOL,
    ORACLE_MAX_TIMES,
    ConjectureReport,
    _block_expansions,
    _certified,
    _chain_conditions,
    _classify_stack,
    _closure_windows,
    _conditions,
    _constraint_rows,
    _d_bounds,
    _draw_block,
    _sample_to_spec,
    _screen,
    _suspended,
)
from lgfeas.core import OracleError, _masks
from lgfeas.inequalities import _slacks
from lgfeas.simplex import FEASIBILITY_TOL, solve_phase1
from util import (dense_conditions, markov_chain_data, outcome_signs, pair_table_nonneg,
                  reference_slacks, sample_nonneg_pair_moments, slack_inputs)


# ---------------------------------------------------------------------------
# the triple-coefficient interval
# ---------------------------------------------------------------------------

def _d_interval_oracle(b, c):
    """Brute-force enumeration of the bounds over the 8 outcomes."""
    lower, upper = -1.0, 1.0
    for mask in range(8):
        s = [1 if not (mask >> k) & 1 else -1 for k in range(3)]
        a_val = 1.0
        for i in range(3):
            a_val += b[i] * s[i]
        for i, j in combinations(range(3), 2):
            a_val += c[(i + 1, j + 1)] * s[i] * s[j]
        if s[0] * s[1] * s[2] == 1:
            lower = max(lower, -a_val)
        else:
            upper = min(upper, a_val)
    return lower, upper


def _d_bounds_of(b, c):
    lo, hi = _d_bounds(np.array([[1.0, b[0], b[1], c[(1, 2)], b[2], c[(1, 3)], c[(2, 3)], 0.0]]))
    return float(lo[0]), float(hi[0])


def test_d_interval_zero_data():
    assert _d_bounds_of([0.0] * 3, {pair: 0.0 for pair in complete_pairs(3)}) == (-1.0, 1.0)


def test_d_interval_all_minus_half_is_empty():
    c = {p: -0.5 for p in complete_pairs(3)}
    lo, hi = _d_bounds_of([0.0] * 3, c)
    assert (lo, hi) == _d_interval_oracle([0.0, 0.0, 0.0], c) == (0.5, -0.5)


def test_d_interval_perfect_correlations_pin_the_triple_coefficient():
    # all pair correlators +1 admit only the equal mixture of the two
    # aligned outcomes, whose triple moment vanishes
    c = {p: 1.0 for p in complete_pairs(3)}
    lo, hi = _d_bounds_of([0.0] * 3, c)
    assert _d_interval_oracle([0.0, 0.0, 0.0], c) == (0.0, 0.0)
    assert abs(lo) == 0.0 and abs(hi) == 0.0


def test_d_interval_agrees_with_oracle_on_random_data():
    rng = np.random.default_rng(101)
    for _ in range(300):
        b, c = sample_nonneg_pair_moments(rng, 3, complete_pairs(3))
        lo, hi = _d_interval_oracle(list(b), c)
        got_lo, got_hi = _d_bounds_of(b, c)
        assert got_lo == pytest.approx(max(lo, -1.0), abs=1e-12)
        assert got_hi == pytest.approx(min(hi, 1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# the closure windows of the chain recursion
# ---------------------------------------------------------------------------

def _meet(*windows):
    """The intersection of (lo, hi) windows, as ``fine_build`` takes it."""
    return max(lo for lo, _ in windows), min(hi for _, hi in windows)


def _window(*args):
    return _meet(*_closure_windows(*args))


def test_c1n_interval_zero_data():
    assert _window([0.0, 0.0, 0.0], 0.0, 0.0, 0.0, 0.0) == (-1.0, 1.0)


def test_c1n_interval_perfect_chain_pins_closure():
    assert _window([1.0, 1.0], 0.0, 0.0, 0.0, 0.0) == (1.0, 1.0)


def test_c1n_interval_chsh_point_is_empty():
    s = 1 / math.sqrt(2)
    lo, hi = _window([s, s], s, -s, 0.0, 0.0)
    assert lo > hi + EMPTY_TOL
    assert lo == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert hi == pytest.approx(1 - math.sqrt(2), abs=1e-12)


def test_c1n_pair_bound_never_cuts_a_valid_window():
    # with non-negative fixed pair tables the pair bound is compatible with
    # each of the other two windows, so whenever the chain and three-time
    # windows themselves overlap (the chain-family condition) a value
    # satisfying all three sets of bounds exists
    def empty(window):
        return window[0] > window[1] + EMPTY_TOL

    rng = np.random.default_rng(202)
    checked = 0
    while checked < 400:
        k = int(rng.integers(3, 7))
        b = rng.uniform(-1, 1, k + 1)
        chain = [float(rng.uniform(-1, 1)) for _ in range(k - 1)]
        c_next = float(rng.uniform(-1, 1))
        c_closure = float(rng.uniform(-1, 1))
        tables = [
            (b[i - 1], b[i], chain[i - 1]) for i in range(1, k)
        ] + [(b[k - 1], b[k], c_next), (b[0], b[k], c_closure)]
        if not all(pair_table_nonneg(*t) for t in tables):
            continue
        checked += 1
        chain_w, three_w, pair_w = _closure_windows(chain, c_next, c_closure, b[0], b[k - 1])
        if not empty(chain_w):
            assert not empty(_meet(chain_w, pair_w))
        if not empty(three_w):
            assert not empty(_meet(three_w, pair_w))
        if not empty(_meet(chain_w, three_w)):
            assert not empty(_meet(chain_w, three_w, pair_w))


# ---------------------------------------------------------------------------
# lp oracle
# ---------------------------------------------------------------------------

def test_lp_zero_moments_feasible():
    verdict = lp_feasible(None, CorrelatorSet(3, {p: 0.0 for p in complete_pairs(3)}))
    assert verdict.feasible
    cert = verdict.certificate
    assert cert.p.min() >= -1e-9
    spec = moments_from_distribution(cert)
    assert all(abs(spec.b(i)) < 1e-9 for i in (1, 2, 3))
    assert all(abs(spec.c(i, j)) < 1e-9 for i, j in complete_pairs(3))


def test_lp_tsirelson_point_infeasible():
    data = CorrelatorSet(3, {(1, 2): 0.5, (2, 3): 0.5, (1, 3): -0.5})
    verdict = lp_feasible([0.0, 0.0, 0.0], data)
    assert not verdict.feasible


def test_lp_chsh_chain_infeasible():
    s = 1 / math.sqrt(2)
    data = CorrelatorSet(4, {(1, 2): s, (2, 3): s, (3, 4): s, (1, 4): -s})
    assert not lp_feasible(None, data).feasible


def test_lp_exact_mode_agrees_with_float():
    rng = np.random.default_rng(303)
    for _ in range(40):
        b, c = sample_nonneg_pair_moments(rng, 3, complete_pairs(3))
        data = CorrelatorSet(3, c)
        assert lp_feasible(b, data).feasible == lp_feasible(b, data, exact=True).feasible


def test_averages_one_ulp_above_one_are_decided():
    # all mass on s_1 = +1: rounding puts B_1 one ulp above 1 on some draws
    rng = np.random.default_rng(0)
    specs = []
    for _ in range(200):
        weights = rng.exponential(1.0, 8)
        weights[1::2] = 0.0
        spec = moments_from_distribution(JointDistribution(3, weights / weights.sum()))
        if spec.b(1) > 1.0:
            specs.append(MomentSpec(3, {k: v for k, v in spec.moments.items() if len(k) < 3}))
    assert specs and all(spec.b(1) == 1.0000000000000002 for spec in specs)
    for spec in specs:
        assert lp_feasible_from_spec(spec).feasible
        chain = CorrelatorSet(3, {pair: spec.c(*pair) for pair in chain_pairs(3)})
        assert fine_build(spec.singles(), chain).feasible


@pytest.mark.parametrize("bad", [1.1, -1.1, math.nan, math.inf])
def test_averages_outside_the_correlator_range_are_refused(bad):
    zero = CorrelatorSet(3, {pair: 0.0 for pair in complete_pairs(3)})
    with pytest.raises(ValidationError):
        lp_feasible([0.0, bad, 0.0], zero)
    with pytest.raises(ValidationError):
        fine_build([bad, 0.0, 0.0], CorrelatorSet(3, {pair: 0.0 for pair in chain_pairs(3)}))


def test_averages_that_are_not_real_numbers_are_refused():
    # the same entries that CorrelatorSet and MomentSpec refuse
    for bad, shown in ((True, "True"), ("0.5", "'0.5'"), (None, "None")):
        with pytest.raises(ValidationError, match=f"B_1 must be a finite real number, got {shown}"):
            lp_feasible([bad, 0, 0], CorrelatorSet(3, {pair: 0.0 for pair in complete_pairs(3)}))
        with pytest.raises(ValidationError, match=f"B_1 must be a finite real number, got {shown}"):
            fine_build([bad, 0, 0], CorrelatorSet(3, {pair: 0.0 for pair in chain_pairs(3)}))


def test_averages_of_the_wrong_length_are_refused():
    zero = CorrelatorSet(3, {pair: 0.0 for pair in complete_pairs(3)})
    for b in ([0.0, 0.0], [0.0] * 4):
        with pytest.raises(DimensionError, match="expected 3 one-time averages"):
            lp_feasible(b, zero)


def test_lp_from_spec_rejects_higher_moments():
    with pytest.raises(ValidationError):
        lp_feasible_from_spec(MomentSpec(3, {(1, 2, 3): 0.5}))


def _assert_certified(verdict, b, correlators):
    assert verdict.feasible
    cert = verdict.certificate
    assert cert.p.min() >= -1e-9
    spec = moments_from_distribution(cert)
    residuals = [abs(spec.b(i) - b_i) for i, b_i in enumerate(b, start=1)]
    residuals += [abs(spec.c(i, j) - value) for (i, j), value in correlators.entries.items()]
    assert max(residuals) < FEASIBILITY_TOL


@pytest.mark.parametrize("n", range(9, 13))
def test_lp_decides_complete_zero_data_up_to_the_oracle_cap(n):
    # all-zero data makes every pivot degenerate; the uniform distribution answers it
    data = CorrelatorSet(n, {p: 0.0 for p in complete_pairs(n)})
    _assert_certified(lp_feasible(None, data), [0.0] * n, data)


@pytest.mark.parametrize("n", range(9, 13))
def test_lp_certifies_complete_moments_of_a_distribution(n):
    # half uniform, half Dirichlet: every outcome keeps mass >= 2^-(n+1)
    rng = np.random.default_rng(n)
    p = 0.5 / (1 << n) + 0.5 * rng.dirichlet(np.ones(1 << n))
    spec = moments_from_distribution(JointDistribution(n, p / p.sum()))
    b = [spec.b(i) for i in range(1, n + 1)]
    data = CorrelatorSet(n, {pair: spec.c(*pair) for pair in complete_pairs(n)})
    _assert_certified(lp_feasible(b, data), b, data)


def _cosine(n, pairs, tau):
    return CorrelatorSet(n, {(i, j): math.cos(tau * (j - i)) for i, j in pairs})


@pytest.mark.parametrize("n", range(9, 13))
def test_lp_refutes_complete_cosine_data(n):
    # tau = pi/3: 1 + C13 - C12 - C23 = -1/2 breaks the (1,2,3) three-time
    # member; the first call builds the tables, well inside a second
    data = _cosine(n, complete_pairs(n), math.pi / 3)
    _conditions.cache_clear()
    started = time.perf_counter()
    verdict = lp_feasible(None, data)
    assert time.perf_counter() - started < 1.0
    assert not verdict.feasible and verdict.phase1_objective is None
    assert f"three{n}:1.2.3:+-+" in verdict.violated


@pytest.mark.parametrize("n", [9, 10])
def test_phase1_refutes_complete_cosine_data(n):
    # the LP alone, which the oracle no longer reaches on this data
    rows = _constraint_rows(n, _suspended(n, complete_pairs(n)))
    values = [math.cos(math.pi / 3 * (j - i)) for i, j in complete_pairs(n)]
    result = solve_phase1(rows, np.concatenate(([1.0], np.zeros(n), values)))
    assert not result.feasible and result.objective > FEASIBILITY_TOL


def _band_data(pattern, n, past):
    """Zero averages and correlators on which one valid row's slack over
    its scale is ``past``: the all-plus lg member on chain data, the
    (1, 2, 3) three-time member 1 + C_12 + C_13 + C_23 >= 0 on complete
    data."""
    if pattern == "chain":
        # (n - 1) x + x <= n - 2 with scale n - 2
        x = (n - 2) * (1 + past) / n
        values = {pair: (-x if pair == (1, n) else x) for pair in chain_pairs(n)}
    else:
        values = {pair: 0.0 for pair in complete_pairs(n)}
        values.update({(1, 2): -(1 + past) / 3, (1, 3): -(1 + past) / 3, (2, 3): -(1 + past) / 3})
    return CorrelatorSet(n, values)


def _oracle_cases(pattern, n, rng):
    pairs = complete_pairs(n) if pattern == "complete" else chain_pairs(n)
    for _ in range(2):
        p = 0.5 / (1 << n) + 0.5 * rng.dirichlet(np.ones(1 << n))
        spec = moments_from_distribution(JointDistribution(n, p / p.sum()))
        yield [spec.b(i) for i in range(1, n + 1)], CorrelatorSet(n, {q: spec.c(*q) for q in pairs})
    for _ in range(2):
        b, c = sample_nonneg_pair_moments(rng, n, pairs)
        yield b, CorrelatorSet(n, c)
    yield None, _cosine(n, pairs, (math.pi / n if pattern == "chain" else math.pi / 3))
    for past in (1e-3, 3e-7, 1e-7, 1e-8):
        yield None, _band_data(pattern, n, past)


@pytest.mark.parametrize("pattern, n", [("chain", n) for n in range(3, 11)]
                         + [("complete", n) for n in range(3, 8)])
def test_oracle_verdicts_equal_a_direct_phase1_solve(pattern, n):
    # random moments (feasible), uniform draws (mostly refuted), cosine
    # data, and slacks above and below the band of the pre-screen
    rng = np.random.default_rng(n)
    refuted = solved = 0
    for b, data in _oracle_cases(pattern, n, rng):
        pairs = tuple(sorted(data.entries))
        rows = _constraint_rows(n, _suspended(n, pairs))
        rhs = np.concatenate(([1.0], np.zeros(n) if b is None else b, [data.entries[q] for q in pairs]))
        for exact in (False, True) if n <= 5 else (False,):
            verdict = lp_feasible(b, data, exact=exact)
            direct = solve_phase1(*((rows.astype(object), rhs.astype(object)) if exact else (rows, rhs)))
            assert verdict.feasible == direct.feasible
            if verdict.violated is None:
                solved += 1
            else:
                refuted += 1
                assert not verdict.feasible and verdict.phase1_objective is None
    assert refuted and solved


def _refuse_construction(monkeypatch):
    """Make ``fine_build``, as the oracle calls it, refuse a knife-edge
    product; the returned list records the refused calls."""
    refused = []

    def refusing(*args):
        refused.append(args)
        raise OracleError("knife edge")

    monkeypatch.setattr(feasibility, "fine_build", refusing)
    return refused


@pytest.mark.parametrize("n, pairs, routed", [(3, chain_pairs, 1), (4, chain_pairs, 1),
                                               (4, complete_pairs, 0)])
def test_n3_data_reach_fine_build_through_the_oracle(monkeypatch, n, pairs, routed):
    # at n = 3 the chain fixes every pair, and the set reads "chain": Fine's
    # construction decides it in both arithmetics, as it does chain data at n >= 4
    calls = []
    real = feasibility.fine_build
    monkeypatch.setattr(feasibility, "fine_build", lambda *args: calls.append(args) or real(*args))
    data = CorrelatorSet(n, {pair: 0.25 for pair in pairs(n)})
    for exact in (False, True):
        calls.clear()
        assert lp_feasible(None, data, exact=exact).feasible
        assert len(calls) == routed


@pytest.mark.parametrize("pattern", ["chain", "complete"])
def test_only_data_past_the_band_skips_the_lp(monkeypatch, pattern):
    # the float screen of complete data leaves the band to the LP; Fine's
    # conditions on chain data, and exact slacks in either pattern, name
    # every violated row with no LP
    calls = []

    def recording(rows, rhs):
        calls.append(rhs)
        return solve_phase1(rows, rhs)

    monkeypatch.setattr(feasibility, "solve_phase1", recording)
    label = "lg6:+++++-" if pattern == "chain" else "three6:1.2.3:+++"
    for exact in (False, True):
        for past, beyond in ((1e-3, True), (3e-7, True), (1e-7, False), (1e-8, False)):
            calls.clear()
            verdict = lp_feasible(None, _band_data(pattern, 6, past), exact=exact)
            assert not verdict.feasible
            refuted = beyond or exact or pattern == "chain"
            assert (verdict.violated, len(calls)) == ((label,) if refuted else None, 0 if refuted else 1)


def test_exact_refutation_confirms_the_named_slacks(monkeypatch):
    # float slacks pushed up by 1 name rows that hold on this feasible
    # data; exact mode recomputes them in Fractions and goes to the LP
    data = _band_data("complete", 4, -1e-3)

    def pushed(coefficients, bounds, values):
        slacks = _slacks(coefficients, bounds, values)
        return slacks + 1.0 if values.dtype == np.float64 else slacks

    monkeypatch.setattr(feasibility, "_slacks", pushed)
    assert lp_feasible(None, data).violated
    verdict = lp_feasible(None, data, exact=True)
    assert verdict.feasible and verdict.violated is None


@pytest.mark.parametrize("pattern, family, n", [("complete", "three_time_complete", 5)])
def test_a_corrupted_row_gets_an_infinite_scale_and_never_refutes(monkeypatch, pattern, family, n):
    # the band data's row with its bound lowered by 1 cuts off feasible data
    original, row = getattr(feasibility, family)(n), 0
    assert original.labels([row]) == ["three5:1.2.3:+++"]
    lowered = original.bounds.copy()
    lowered[row] -= 1.0
    monkeypatch.setattr(feasibility, family, lambda n: replace(original, bounds=lowered))
    _conditions.cache_clear()
    try:
        conditions = _conditions(n)
        offset = len(two_time_complete(n))
        assert conditions.labels[offset + row] == "three5:1.2.3:+++"
        assert np.isinf(conditions.scales[offset + row])
        assert np.isfinite(np.delete(conditions.scales, offset + row)).all()
        # slack -1e-3 under the true bound, +1 - 1e-3 under the lowered one
        data = _band_data(pattern, n, -1e-3)
        verdict = lp_feasible(None, data)
        assert verdict.feasible and verdict.violated is None
    finally:
        _conditions.cache_clear()


@pytest.mark.parametrize("n", [3, 6, 8])
def test_outcome_maxima_equal_the_dense_product(n):
    pairs = _suspended(n, complete_pairs(n))
    terms = np.random.default_rng(n).integers(-1, 2, (50, len(pairs))).astype(np.int8)
    dense = terms.astype(np.int64) @ _constraint_rows(n, pairs)[1:].astype(np.int64)
    got = feasibility._outcome_maxima(n, _masks(pairs), terms)
    assert got.tolist() == dense.max(axis=1).tolist()


def test_outcome_maxima_hold_the_largest_sums_at_n_20():
    # all 210 coefficients +1 reach 210 at s = +1; all -1 give
    # -(S + (S^2 - 20) / 2) with S = sum s_i, largest (10) at S = 0 or -2
    pairs = _suspended(20, complete_pairs(20))
    terms = np.array([[1] * 210, [-1] * 210], dtype=np.int8)
    assert feasibility._outcome_maxima(20, _masks(pairs), terms).tolist() == [210, 10]


def _chain_values(n, rng, averages=True):
    """Uniform averages (zeros without ``averages``) and chain correlators,
    in the columns of ``_suspended(n, sorted chain pairs)``."""
    b = rng.uniform(-1, 1, n) if averages else np.zeros(n)
    return np.concatenate((b, rng.uniform(-1, 1, n)))


def test_chain_conditions_are_the_chain_triangles_and_the_lg_family():
    values = _chain_values(6, np.random.default_rng(6))
    conditions = _chain_conditions(6, values)
    # four pair-probability rows on each of the six triangles (0, i, j),
    # the rows of two_time_complete(6) on those pairs in its order
    two = two_time_complete(6)
    columns = [two.pairs.index(pair) for pair in _suspended(6, sorted(chain_pairs(6)))]
    rows = [k for k, label in enumerate(two.labels())
            if tuple(map(int, label.split(":")[1].split("."))) in chain_pairs(6)]
    assert conditions.labels[:24] == tuple(two.labels(rows))
    assert np.array_equal(conditions.terms[:24], two.coefficients[np.ix_(rows, columns)])
    # then one member of the lg family, over the correlator columns only
    lg = lg_family(6)
    member = lg.labels().index(conditions.labels[24])
    order = [sorted(chain_pairs(6)).index(pair) for pair in lg.pairs]
    assert conditions.terms.shape == (25, 12) and not conditions.terms[24, :6].any()
    assert np.array_equal(conditions.terms[24, 6:][order], lg.coefficients[member])
    assert (conditions.bounds == np.r_[np.ones(24), 4.0]).all()
    assert (conditions.scales == np.r_[np.ones(24), 4.0]).all()


@pytest.mark.parametrize("n", range(3, 15))
def test_the_rim_row_holds_at_every_outcome(n):
    # the rim row is built per call, so the validity check of ``_conditions``
    # never sees it: its largest value over the 2^n outcomes is its bound
    rng = np.random.default_rng(300 + n)
    pairs = _suspended(n, sorted(chain_pairs(n)))
    for averages in (True, False):
        for _ in range(10):
            conditions = _chain_conditions(n, _chain_values(n, rng, averages))
            maxima = feasibility._outcome_maxima(n, _masks(pairs), conditions.terms)
            assert (maxima == conditions.bounds).all()


@pytest.mark.parametrize("n", range(4, 13))
def test_the_rim_row_is_the_most_violated_lg_member(n):
    rng = np.random.default_rng(400 + n)
    lg, violated = lg_family(n), 0
    for trial in range(60):
        values = _chain_values(n, rng)
        if trial % 2:  # near the +-1 vertex of a random member, past its face on most draws
            signs = rng.choice([-1, 1], n)
            signs[-1] = -np.prod(signs[:-1])
            values[n:] = signs * (1 - rng.uniform(0, 3 / n, n))
        conditions = _chain_conditions(n, values)
        slack = _slacks(conditions.terms[-1:], conditions.bounds[-1:], values)[0]
        data = CorrelatorSet(n, dict(zip(sorted(chain_pairs(n)), values[n:].tolist())))
        member, most = max_violation(lg, data)
        assert slack == pytest.approx(most, abs=1e-12)
        if slack > 0:
            violated += 1
            assert conditions.labels[-1] == member.label
    assert violated >= 5


def test_lp_respects_oracle_scale_cap():
    # chain data past n = 12 go to fine_build in both arithmetics; complete
    # data keep the caps of both
    with pytest.raises(DimensionError, match="oracle handles n <= 12 for complete data"):
        lp_feasible(None, CorrelatorSet(13, {p: 0.0 for p in complete_pairs(13)}))
    with pytest.raises(DimensionError, match="exact mode handles n <= 6 for complete data"):
        lp_feasible(None, CorrelatorSet(7, {p: 0.0 for p in complete_pairs(7)}), exact=True)
    for n in (7, 13):
        assert lp_feasible(None, CorrelatorSet(n, {p: 0.0 for p in chain_pairs(n)}), exact=True).feasible


def test_certified_rejects_a_moment_off_by_1e_6_and_an_entry_at_minus_1e_6():
    # every one- and two-time moment of the uniform distribution is zero
    pairs = complete_pairs(3)
    rhs = np.zeros(7)
    rhs[0] = 1.0
    uniform = np.full(8, 0.125)
    assert _certified(3, pairs, rhs, uniform).p.tolist() == uniform.tolist()
    off = rhs.copy()
    off[5] = 1e-6
    with pytest.raises(OracleError, match="residual"):
        _certified(3, pairs, off, uniform)
    # moving mass along s_1 s_2 s_3 keeps every checked moment at zero
    parity = np.array([(-1) ** bin(k).count("1") for k in range(8)])
    negative = uniform - (0.125 + 1e-6) * parity
    assert negative.min() == pytest.approx(-1e-6, rel=1e-9)
    with pytest.raises(OracleError, match="negative"):
        _certified(3, pairs, rhs, negative)


def test_lp_refuses_exact_mode_before_building_rows():
    # an n = 12 refusal must not leave a 79 x 4096 table in the row cache
    cached = _constraint_rows.cache_info().currsize
    with pytest.raises(DimensionError):
        lp_feasible(None, CorrelatorSet(12, {p: 0.0 for p in complete_pairs(12)}), exact=True)
    assert _constraint_rows.cache_info().currsize == cached


# ---------------------------------------------------------------------------
# chain data: Fine's construction before the LP
# ---------------------------------------------------------------------------

def _chain_cases(n, rng, draws):
    """``draws`` pairs of Markov-chain data with and without averages
    (feasible), then cosine data that breaks the all-plus lg member
    (infeasible)."""
    for averages in (True, False) * draws:
        b, entries = markov_chain_data(rng, n, averages)
        yield b, CorrelatorSet(n, entries)
    yield None, _cosine(n, chain_pairs(n), math.pi / n)


def _phase1_verdict(b, data):
    n, pairs = data.n, tuple(sorted(data.entries))
    rhs = np.concatenate(([1.0], np.zeros(n) if b is None else b, [data.entries[q] for q in pairs]))
    return solve_phase1(_constraint_rows(n, _suspended(n, pairs)), rhs).feasible


def _same_verdict(got, want):
    assert (got.feasible, got.violated, got.phase1_objective) == (
        want.feasible, want.violated, want.phase1_objective)
    if want.certificate is not None:
        assert got.certificate.p.tobytes() == want.certificate.p.tobytes()


@pytest.mark.parametrize("n", range(3, 13))
def test_chain_verdicts_are_certified_by_the_construction(n):
    rng = np.random.default_rng(1000 + n)
    certified = 0
    for b, data in _chain_cases(n, rng, 2):
        verdict = lp_feasible(b, data)
        assert verdict.feasible == _phase1_verdict(b, data)
        if verdict.feasible:
            certified += 1
            assert verdict.phase1_objective is None
            _same_verdict(verdict, fine_build(b, data))
        else:
            assert verdict.violated and verdict.phase1_objective is None
    assert certified == 4


def _spies(monkeypatch):
    calls = {"fine_build": [], "solve_phase1": []}

    def spy(name):
        original = getattr(feasibility, name)

        def recording(*args):
            result = original(*args)
            calls[name].append(result)
            return result
        monkeypatch.setattr(feasibility, name, recording)

    spy("fine_build")
    spy("solve_phase1")
    return calls


@pytest.mark.parametrize("n", [3, 6, 12])
def test_chain_data_inside_the_band_get_the_construction_verdict(monkeypatch, n):
    # the screen leaves these; the construction names the failing block, with no LP
    label = {3: "three3:1.2.3:+-+", 6: "lg6:+++++-", 12: "lg12:+++++++++++-"}[n]
    calls = _spies(monkeypatch)
    for past in (1e-7, 1e-8):
        data = _band_data("chain", n, past)
        verdict = lp_feasible(None, data)
        assert calls["solve_phase1"] == [] and calls["fine_build"][-1] is verdict
        _same_verdict(verdict, fine_build(None, data))
        assert verdict.violated == (label,) and verdict.phase1_objective is None


def test_chain_data_past_an_lg_member_by_1e_9_are_named():
    # lg4:+++- is broken by 1e-9, inside the LP's tolerance: the LP's own
    # certificate for it fails the 1e-9 residual check
    data = CorrelatorSet(4, {(1, 2): 0.2728497376881426, (2, 3): 0.5006847746056972,
                             (3, 4): 0.7430094637473558, (1, 4): -0.4834560249588047})
    verdict = lp_feasible(None, data)
    assert not verdict.feasible and verdict.violated == ("lg4:+++-",)


def _pushed_markov(rng, n, slack, averages, face="lg"):
    """Markov-chain data moved straight toward the +-1 vertex of its
    largest-slack row, where that slack is 2, until the slack is
    ``slack``: the row is an lg member, or with ``face="pair"`` (and
    ``averages``) a two-time row on a chain triangle (0, i, j), and every
    value off the row moves toward 0.  Every other condition holds at both
    ends, so along the way."""
    b, entries = markov_chain_data(rng, n, averages)
    family = lg_family(n) if face == "lg" else two_time_complete(n)
    values = {} if face == "lg" else dict(zip(_suspended(n, ()), b))
    values.update(entries)
    columns = [k for k, pair in enumerate(family.pairs) if pair in values]
    # the rows over the values alone: every lg row, the chain-triangle two-time rows
    rows = np.flatnonzero(~np.delete(family.coefficients, columns, axis=1).any(axis=1))
    coefficients = family.coefficients[np.ix_(rows, columns)]
    slacks = _slacks(coefficients, family.bounds[rows], np.array([values[family.pairs[k]] for k in columns]))
    top = int(np.argmax(slacks))
    t = (slack - slacks[top]) / (2.0 - slacks[top])
    target = dict(zip((family.pairs[k] for k in columns), coefficients[top].tolist()))
    moved = {pair: float((1 - t) * value + t * target[pair]) for pair, value in values.items()}
    if face == "lg":
        b = None if b is None else [float((1 - t) * value) for value in b]
    else:
        b = [moved[(0, i)] for i in range(1, n + 1)]
    return b, CorrelatorSet(n, {pair: moved[pair] for pair in entries})


def _assert_construction_verdicts(monkeypatch, rng, n, faces):
    """Data pushed to slacks around 1e-9 on each (averages, face) of
    ``faces`` turn infeasible past 1e-9, and get the construction's
    verdict with no LP.  Past n = 12 no LP could take over a refused
    product, so the construction certifies every slack up to 1e-9."""
    calls = _spies(monkeypatch)
    for slack in (-2e-9, 0.0, 6e-10, 9e-10, 9.9e-10, 1e-9, 4e-9, 1.1e-9):
        for averages, face in faces:
            b, data = _pushed_markov(rng, n, slack, averages, face)
            verdict = lp_feasible(b, data)
            _same_verdict(verdict, fine_build(b, data))
            if slack != 1e-9:
                assert verdict.feasible == (slack < 1e-9)
    assert calls["solve_phase1"] == [] and len(calls["fine_build"]) == 8 * len(faces)


@pytest.mark.parametrize("n", range(3, 17))
def test_chain_data_near_an_lg_face_get_the_construction_verdict(monkeypatch, n):
    # slacks up to 1e-9 lie inside the LP's tolerance; the construction
    # turns the data infeasible past a slack of 1e-9 at every n, the
    # three-time block of n = 3 included
    _assert_construction_verdicts(monkeypatch, np.random.default_rng(2029 + n), n,
                                  ((True, "lg"), (False, "lg")))


@pytest.mark.parametrize("n", range(3, 17))
def test_chain_data_near_a_two_time_face_get_the_construction_verdict(monkeypatch, n):
    # a pair probability of -2.5e-10 at a slack of 1e-9, where the
    # construction still certifies the data
    _assert_construction_verdicts(monkeypatch, np.random.default_rng(2129 + n), n, ((True, "pair"),))


def test_interval_emptiness_tolerance():
    # three3:1.2.3:+-+ reads 1 - C_12 + C_13 - C_23 = -eps, so its slack is
    # eps and the block's lo - hi is 2 eps: the data turn infeasible past a
    # slack of 1e-9, as chain data at n >= 4 do
    for eps, feasible in ((6e-10, True), (9e-10, True), (9.9e-10, True), (1.1e-9, False),
                          (2e-9, False)):
        data = CorrelatorSet(3, {(1, 2): 0.6, (2, 3): 0.6, (1, 3): 0.2 - eps})
        verdict = fine_build(None, data)
        _same_verdict(lp_feasible(None, data), verdict)
        assert verdict.feasible == feasible
        if feasible:
            assert verdict.certificate.p.min() > -EMPTY_TOL
        else:
            assert verdict.violated == ("three3:1.2.3:+-+",)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_an_infeasible_chain_inside_the_band_reaches_the_lp(monkeypatch, n):
    # when the construction refuses, the LP decides infeasible data too
    refused = _refuse_construction(monkeypatch)
    calls = _spies(monkeypatch)
    verdict = lp_feasible(None, _band_data("chain", n, 1e-7))
    assert not verdict.feasible and verdict.violated is None
    assert len(refused) == 1 and calls["fine_build"] == []
    assert len(calls["solve_phase1"]) == 1
    assert verdict.phase1_objective == calls["solve_phase1"][0].objective


@pytest.mark.parametrize("n, objective, label", [
    (3, "0x1.ad7f29c000000p-24", "three3:1.2.3:+-+"),
    (6, "0x1.ad7f29a000000p-22", "lg6:+++++-"),
    (12, "0x1.0c6f7a1000000p-20", "lg12:+++++++++++-"),
])
def test_the_oracle_does_not_name_the_failing_block_it_discards(monkeypatch, n, objective, label):
    # a refused construction leaves the LP's unnamed verdict; the
    # construction on its own names the violated member
    named = []
    original = feasibility._chain_conditions
    monkeypatch.setattr(feasibility, "_chain_conditions",
                        lambda *args: named.append(args) or original(*args))
    _refuse_construction(monkeypatch)
    data = _band_data("chain", n, 1e-7)
    verdict = lp_feasible(None, data)
    assert named == []
    assert not verdict.feasible and verdict.violated is None
    assert verdict.phase1_objective.hex() == objective
    assert fine_build(None, data).violated == (label,) and len(named) == 1


@pytest.mark.parametrize("target", ["_certified", "_d_bounds"])
def test_a_refused_construction_falls_back_to_the_lp(monkeypatch, target):
    # ``_certified`` refuses the product outright, or refuses it for the
    # negative entry of a block given an empty triple range
    b, entries = markov_chain_data(np.random.default_rng(77), 7)
    data = CorrelatorSet(7, entries)
    certified, bounds, refused = feasibility._certified, feasibility._d_bounds, []

    def certifying(*args):
        if target == "_certified" and not refused:  # the first call belongs to the construction
            error = OracleError("knife edge")
        else:
            try:
                return certified(*args)
            except OracleError as raised:
                error = raised
        refused.append(str(error))
        raise error

    def emptied(rows):
        # the first block's triple coefficient, 2.5, passes A(s) at some odd
        # outcome, as the four odd A(s) sum to 4
        lo, hi = bounds(rows)
        lo[0], hi[0] = 3.0, 2.0
        return lo, hi

    monkeypatch.setattr(feasibility, "_certified", certifying)
    if target == "_d_bounds":
        monkeypatch.setattr(feasibility, "_d_bounds", emptied)
    calls = _spies(monkeypatch)
    verdict = lp_feasible(b, data)
    # the spy records only what returns, so fine_build's refusal leaves no entry
    assert len(refused) == 1 and calls["fine_build"] == [] and len(calls["solve_phase1"]) == 1
    if target == "_d_bounds":
        assert refused[0].startswith("certificate has a negative entry")
    assert verdict.feasible and verdict.phase1_objective is not None
    _assert_certified(verdict, b, data)


@pytest.mark.parametrize("n", range(13, 21))
def test_chain_data_past_the_lp_range_are_decided_by_the_construction(monkeypatch, n):
    rng = np.random.default_rng(2000 + n)
    calls = _spies(monkeypatch)
    conditions = _conditions.cache_info().currsize
    for b, data in _chain_cases(n, rng, 1):
        _same_verdict(lp_feasible(b, data), fine_build(b, data))
    # the spy sees the oracle's calls only: no screen and no LP ran
    assert calls["solve_phase1"] == [] and _conditions.cache_info().currsize == conditions
    assert [v.feasible for v in calls["fine_build"]] == [True, True, False]


def _exact_chain_cases(n, rng):
    """Uniform draws (mostly infeasible), Markov-chain data (feasible) and
    Markov data pushed to knife-edge slacks on its top lg member, each with
    and without averages."""
    for averages in (True, False):
        values = _chain_values(n, rng, averages)
        yield (values[:n].tolist() if averages else None), CorrelatorSet(
            n, dict(zip(sorted(chain_pairs(n)), values[n:].tolist())))
        b, entries = markov_chain_data(rng, n, averages)
        yield b, CorrelatorSet(n, entries)
        for slack in (-1e-12, 1e-12, 5e-10, 1e-9, 1e-7):
            yield _pushed_markov(rng, n, slack, averages)


@pytest.mark.parametrize("n", range(3, 7))
def test_exact_chain_verdicts_equal_a_rational_phase1_solve(monkeypatch, n):
    # Fine's conditions in Fractions decide, with no LP; every name has a
    # positive exact slack, summed here term by term
    rng = np.random.default_rng(3400 + n)
    calls = _spies(monkeypatch)
    infeasible = 0
    for b, data in _exact_chain_cases(n, rng):
        pairs = tuple(sorted(data.entries))
        rhs = np.concatenate(([1.0], np.zeros(n) if b is None else b, [data.entries[q] for q in pairs]))
        direct = solve_phase1(_constraint_rows(n, _suspended(n, pairs)).astype(object), rhs.astype(object))
        verdict = lp_feasible(b, data, exact=True)
        assert verdict.feasible == direct.feasible
        assert verdict.feasible or verdict.violated
        infeasible += not verdict.feasible
        conditions = _chain_conditions(n, rhs[1:])
        for label in verdict.violated or ():
            k = conditions.labels.index(label)
            total = sum(int(c) * Fraction(v) for c, v in zip(conditions.terms[k], rhs[1:]))
            assert total > conditions.bounds[k]
    assert calls["solve_phase1"] == [] and 0 < infeasible < 14


@pytest.mark.parametrize("n", range(7, 21))
def test_exact_chain_data_past_n_6_are_decided(monkeypatch, n):
    rng = np.random.default_rng(3500 + n)
    calls = _spies(monkeypatch)
    for b, data in _chain_cases(n, rng, 1):
        verdict = lp_feasible(b, data, exact=True)
        if verdict.feasible:
            assert calls["fine_build"][-1] is verdict
        else:
            assert verdict.violated == lp_feasible(b, data).violated == (f"lg{n}:" + "+" * (n - 1) + "-",)
    assert calls["solve_phase1"] == []
    assert [v.feasible for v in calls["fine_build"]] == [True, True, False]


@pytest.mark.parametrize("n", [3, 6, 7, 12])
def test_a_refused_exact_product_reaches_the_exact_lp_up_to_n_6(monkeypatch, n):
    b, entries = markov_chain_data(np.random.default_rng(80 + n), n)
    data = CorrelatorSet(n, entries)
    original, refused = feasibility._certified, []

    def refusing(*args):
        if not refused:  # the first call belongs to the construction
            refused.append(args)
            raise OracleError("knife edge")
        return original(*args)

    monkeypatch.setattr(feasibility, "_certified", refusing)
    systems, solve = [], feasibility.solve_phase1
    monkeypatch.setattr(feasibility, "solve_phase1",
                        lambda rows, rhs: systems.append(rows.dtype) or solve(rows, rhs))
    if n > 6:
        with pytest.raises(OracleError, match="knife edge"):
            lp_feasible(b, data, exact=True)
        assert systems == []
    else:
        verdict = lp_feasible(b, data, exact=True)
        assert systems == [object]
        assert verdict.feasible and verdict.phase1_objective == 0.0
        _assert_certified(verdict, b, data)
    assert len(refused) == 1


def test_fan_blocks_match_the_moment_spec_route_bit_for_bit():
    rng = np.random.default_rng(2406)
    rows, dists = [], []
    for trial in range(400):
        b, c = sample_nonneg_pair_moments(rng, 3, complete_pairs(3))
        if trial % 4 == 0:  # signed zeros and exact +-1 values
            b = np.where(rng.random(3) < 0.5, -0.0, np.sign(b))
            c = {pair: float(np.sign(value)) for pair, value in c.items()}
        b = [float(v) for v in b]
        spec = MomentSpec(3, {**{(i,): b[i - 1] for i in (1, 2, 3)}, **c})
        if not all(pair_table_nonneg(b[i - 1], b[j - 1], c[(i, j)]) for i, j in c):
            continue
        lo, hi = _d_bounds_of(b, c)
        d = 0.5 * (lo + hi)
        rows.append([1.0, b[0], b[1], c[(1, 2)], b[2], c[(1, 3)], c[(2, 3)], d])
        dists.append(distribution_from_moments(MomentSpec(3, {**spec.moments, (1, 2, 3): d})))
    assert len(rows) > 200
    for block, dist in zip(_block_expansions(rows), dists):
        assert block.tobytes() == dist.p.tobytes()


# ---------------------------------------------------------------------------
# fine_build
# ---------------------------------------------------------------------------

def test_fine_build_uniform_marginals():
    chain = CorrelatorSet(5, {p: 0.0 for p in chain_pairs(5)})
    verdict = fine_build(None, chain)
    assert verdict.feasible
    assert np.abs(verdict.certificate.p - 1 / 32).max() < 1e-12


def test_fine_build_perfectly_correlated_chain():
    chain = CorrelatorSet(4, {p: 1.0 for p in chain_pairs(4)})
    verdict = fine_build([0.0] * 4, chain)
    assert verdict.feasible
    p = verdict.certificate.p
    assert p[0] == pytest.approx(0.5, abs=1e-12)
    assert p[15] == pytest.approx(0.5, abs=1e-12)
    assert np.abs(np.delete(p, [0, 15])).max() < 1e-12


def test_fine_build_chsh_point_names_the_violated_member():
    s = 1 / math.sqrt(2)
    chain = CorrelatorSet(4, {(1, 2): s, (2, 3): s, (3, 4): s, (1, 4): -s})
    verdict = fine_build(None, chain)
    assert not verdict.feasible
    assert verdict.violated == ("lg4:+++-",)


def test_fine_build_rejects_negative_pair_inputs():
    # P(s_i = s_j = -1) = (1 - 0.9 - 0.9 - 1) / 4 < 0 on every pair, and
    # C_12 + C_13 + C_23 = -3 breaks 1 + C_12 + C_13 + C_23 >= 0
    chain = CorrelatorSet(3, {p: -1.0 for p in chain_pairs(3)})
    verdict = fine_build([0.9, 0.9, 0.9], chain)
    assert not verdict.feasible and verdict.certificate is None
    assert verdict.violated == ("two3:1.2:--", "two3:1.3:--", "two3:2.3:--", "three3:1.2.3:+++")
    # only the pair (2, 3) is negative, at (s_2, s_3) = (-1, +1); the labels
    # are those of the violated two-time members on the data
    b = [0.0, 0.9, -0.9, 0.0]
    chain = CorrelatorSet(4, {(1, 2): 0.0, (2, 3): 0.5, (3, 4): 0.0, (1, 4): 0.0})
    spec = MomentSpec(4, {**{(i,): v for i, v in enumerate(b, 1)}, **chain.entries})
    two = two_time_complete(4)
    expected = tuple(two.labels(np.flatnonzero(two.slacks(spec) > 1e-12)))
    verdict = fine_build(b, chain)
    assert expected == verdict.violated == ("two4:2.3:-+",)
    assert not lp_feasible(b, chain).feasible


def test_fine_build_requires_chain_pattern():
    full = CorrelatorSet(4, {p: 0.0 for p in complete_pairs(4)})
    with pytest.raises(ValidationError, match="fine_build requires the chain correlator pattern"):
        fine_build(None, full)


def test_fine_build_refuses_two_times():
    with pytest.raises(DimensionError, match="fine_build needs n >= 3"):
        fine_build(None, CorrelatorSet(2, {(1, 2): 0.0}))


def test_fine_build_certificate_matches_marginals():
    rng = np.random.default_rng(404)
    built = 0
    for _ in range(400):
        n = int(rng.integers(3, 7))
        b, c = sample_nonneg_pair_moments(rng, n, chain_pairs(n))
        verdict = fine_build(b, CorrelatorSet(n, c))
        if not verdict.feasible:
            continue
        built += 1
        spec = moments_from_distribution(verdict.certificate)
        for i in range(1, n + 1):
            assert abs(spec.b(i) - b[i - 1]) < 1e-9
        for pair, value in c.items():
            assert abs(spec.get(pair) - value) < 1e-9
        assert verdict.certificate.p.min() >= -1e-9
    assert built > 50


def test_fine_build_equivalent_to_oracle_and_chain_family():
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(4, 7))
        b, c = sample_nonneg_pair_moments(rng, n, chain_pairs(n))
        slacks = lg_family(n).slacks(MomentSpec(n, dict(c)))
        family_ok = bool((slacks <= 0).all())
        verdict = fine_build(b, CorrelatorSet(n, c))
        margin = np.abs(slacks).min()
        if margin < 1e-7:
            continue
        assert verdict.feasible == family_ok
        assert lp_feasible(b, CorrelatorSet(n, c)).feasible == family_ok


def test_fine_build_names_the_violated_member_at_n20():
    tau = math.pi / 20
    values = [math.cos(tau)] * 19 + [math.cos(19 * tau)]
    verdict = fine_build(None, CorrelatorSet(20, dict(zip(chain_pairs(20), values))))
    assert not verdict.feasible
    assert verdict.violated == ("lg20:+++++++++++++++++++-",)


def test_fine_build_violated_labels_match_brute_force_evaluation():
    # data scaled from one member's own coefficients breaks that member, so
    # the whole chain (the first block fine_build examines) is infeasible
    family = lg_family(10)
    for row in (0, 5, 300, 511):
        pattern = family.members[row].terms
        for scale in (0.81, 0.9, 1.0):
            chain = CorrelatorSet(10, {pair: scale * coeff for pair, coeff in pattern.items()})
            slacks = list(zip(family.slacks(chain).tolist(), family.labels()))
            expected = tuple(label for slack, label in slacks if slack > 1e-12)
            expected = expected or (max(slacks, key=lambda item: item[0])[1],)
            verdict = fine_build(None, chain)
            assert not verdict.feasible
            assert verdict.violated == expected


def _knife_edge_chains():
    """A 4-cycle through time 0 and pair probabilities of about -5e-10,
    each violated by a few 1e-9 in slack, on pairs that no lg member
    reads."""
    yield [0.500000003, 0.0, -0.500000003, 0.0], CorrelatorSet(
        4, {(1, 2): 0.5, (2, 3): 0.5, (3, 4): 0.0, (1, 4): 0.0})
    for n in (3, 4, 8):
        for eps in (1.5e-9, 4e-9):
            entries = {pair: 0.0 for pair in chain_pairs(n)}
            entries[(1, 2)] = 0.5
            yield [0.5 + eps] + [0.0] * (n - 1), CorrelatorSet(n, entries)


def _named_slacks(verdict, b, data):
    """The slack on the data of each member that ``verdict`` names, read
    through the families' own ``slacks``."""
    n = data.n
    spec = MomentSpec(n, {**{(i,): v for i, v in enumerate(b or (), 1)}, **data.entries})
    families = (two_time_complete(n),) + (
        (three_time_complete(3), ngon_family(3)) if n == 3 else (lg_family(n),))
    slacks = {label: slack for family in families
              for label, slack in zip(family.labels(), family.slacks(spec).tolist())}
    return [slacks[label] for label in verdict.violated or ()]


@pytest.mark.parametrize("n", range(3, 13))
def test_every_printed_name_is_violated(n):
    rng = np.random.default_rng(500 + n)
    cases = [(b, data) for b, data in _knife_edge_chains() if data.n == n]
    for averages in (True, False):
        for _ in range(10):
            values = _chain_values(n, rng, averages)
            data = CorrelatorSet(n, dict(zip(sorted(chain_pairs(n)), values[n:].tolist())))
            cases.append((values[:n].tolist() if averages else None, data))
    named = 0
    for b, data in cases:
        verdicts = [fine_build(b, data), lp_feasible(b, data)]
        if n <= 6:
            verdicts.append(lp_feasible(b, data, exact=True))
        for verdict in verdicts:
            slacks = _named_slacks(verdict, b, data)
            assert all(slack > 0 for slack in slacks), (verdict.violated, slacks)
            named += len(slacks)
    assert named


def test_knife_edge_chains_name_the_pair_probabilities_they_break():
    names = [fine_build(b, data).violated for b, data in _knife_edge_chains()]
    assert names == [("two4:1.2:-+", "two4:2.3:-+")] + [
        (f"two{n}:1.2:-+",) for n in (3, 4, 8) for _ in range(2)]


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("pattern", [chain_pairs, complete_pairs])
def test_constraint_rows_are_sign_products(pattern, n):
    pairs = _suspended(n, pattern(n))
    columns = []
    for index in range(1 << n):
        s = (1,) + outcome_signs(index, n)  # s_0 = +1
        columns.append([1] + [s[i] * s[j] for i, j in pairs])
    assert np.array_equal(_constraint_rows(n, pairs), np.array(columns, dtype=float).T)


def test_fine_build_residual_does_not_build_the_dense_system():
    before = _constraint_rows.cache_info()
    verdict = fine_build(None, CorrelatorSet(20, {pair: 0.5 for pair in chain_pairs(20)}))
    assert verdict.feasible
    assert _constraint_rows.cache_info() == before


# ---------------------------------------------------------------------------
# zero-average complete data at n = 4 and 5
# ---------------------------------------------------------------------------

def test_symmetric_zero_correlators_feasible():
    for n in (4, 5):
        verdict = lp_feasible(None, CorrelatorSet(n, {p: 0.0 for p in complete_pairs(n)}))
        assert verdict.feasible
        assert verdict.certificate.p.min() >= -1e-9


def test_symmetric_n5_pentagon_violation_infeasible():
    # every three-time member +++ and the all-plus n-gon member break
    data = CorrelatorSet(5, {p: -0.5 for p in complete_pairs(5)})
    verdict = lp_feasible(None, data)
    assert not verdict.feasible
    assert verdict.violated == tuple(
        f"three5:{i}.{j}.{k}:+++" for i, j, k in combinations(range(1, 6), 3)) + ("ngon5:+++++",)


def test_symmetric_n4_three_time_violation_infeasible():
    entries = {p: 0.0 for p in complete_pairs(4)}
    entries.update({(1, 2): -0.5, (1, 3): -0.5, (2, 3): -0.5})
    verdict = lp_feasible(None, CorrelatorSet(4, entries))
    assert not verdict.feasible
    assert verdict.violated == ("three4:1.2.3:+++",)


def test_symmetric_matches_condition_set_and_oracle():
    # zero averages: the three-time and n-gon conditions hold exactly when
    # the data are feasible
    rng = np.random.default_rng(606)
    for n in (4, 5):
        families = (three_time_complete(n), ngon_family(n))
        agreements = 0
        for _ in range(120):
            data = CorrelatorSet(
                n, {p: float(rng.uniform(-1, 1)) for p in complete_pairs(n)}
            )
            slacks = np.concatenate([family.slacks(data) for family in families])
            if np.abs(slacks).min() < 1e-7:
                continue
            assert lp_feasible(None, data).feasible == (slacks.max() <= 0)
            agreements += 1
        assert agreements > 60


# ---------------------------------------------------------------------------
# the sampling experiment
# ---------------------------------------------------------------------------

def test_classify_zero_sample_holds_and_feasible():
    [holds], [feasible], [boundary] = _classify_stack(5, np.zeros((1, 15)))
    assert holds and feasible and not boundary


def test_draw_sample_is_reproducible_per_index():
    x1 = _draw_block(5, "general", 42, 17, 18)
    x2 = _draw_block(5, "general", 42, 16, 18)
    assert np.array_equal(x1[0, :5], x2[1, :5]) and np.array_equal(x1[0, 5:], x2[1, 5:])
    x3 = _draw_block(5, "general", 42, 18, 19)
    assert not np.array_equal(x1[:, 5:], x3[:, 5:])


def _reference_draw(mode, seed, index):
    # the documented seed convention, one list-seeded generator per sample
    rng = np.random.default_rng([seed, index])
    b = rng.uniform(-1.0, 1.0, 5) if mode == "general" else np.zeros(5)
    return b, rng.uniform(-1.0, 1.0, 10)


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_draw_samples_match_list_seeded_generators(mode):
    # 0, 1 and 17; 2^31; across 2^32 (2^32 - 1 and 2^32); 2^33 + 7; up to 2^64 - 1
    ranges = [(0, 18), (2**31, 2**31 + 1), (2**32 - 3, 2**32 + 3), (2**33 + 7, 2**33 + 8),
              (2**64 - 4, 2**64)]
    for seed in (0, 42, 2**32 - 1, 2**32, 2**40 + 5, 10**20):
        for first, stop in ranges:
            x = _draw_block(5, mode, seed, first, stop)
            assert x.shape == (stop - first, 15)
            for b_k, c_k, index in zip(x[:, :5], x[:, 5:], range(first, stop)):
                ref_b, ref_c = _reference_draw(mode, seed, index)
                assert b_k.tobytes() == ref_b.tobytes() and c_k.tobytes() == ref_c.tobytes()


def test_draw_samples_match_default_rng_on_random_seeds_and_indices():
    # 50 ranges of 10 indices per width: seeds of 1 to 4 words, ranges of
    # 1-word indices, of 2-word indices and, every fifth, across 2^32 with
    # both in one range; no wraparound may warn
    rng = np.random.default_rng(2024)
    seed_words, index_words = set(), set()
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for mode, width in (("symmetric", 10), ("general", 15)):
            for block in range(50):
                seed = int(rng.integers(0, 1 << 32)) | int(rng.integers(0, 1 << 62)) << 66
                seed >>= int(rng.integers(0, 128))
                seed_words.add(max(1, -(-seed.bit_length() // 32)))
                if block % 5:
                    first = int(rng.integers(0, 2**64 - 10, dtype=np.uint64)) >> int(rng.integers(0, 64))
                else:
                    first = 2**32 - int(rng.integers(1, 10))
                index_words.add(tuple(sorted({1 + (i >> 32 > 0) for i in (first, first + 9)})))
                x = _draw_block(5, mode, seed, first, first + 10)[:, -width:]
                for row, index in zip(x, range(first, first + 10)):
                    u = np.random.default_rng([seed, index]).random(width)
                    assert row.tobytes() == (2.0 * u - 1.0).tobytes()
    assert seed_words == {1, 2, 3, 4}
    assert index_words == {(1,), (2,), (1, 2)}


def _screen_slacks(bc):
    # (samples x rows) slacks of the screen on the (samples x columns) draws
    conditions = _conditions(5)
    return _slacks(conditions.terms, conditions.bounds, bc.T).T


def test_condition_slacks_depend_on_each_row_alone():
    bc = _draw_block(5, "general", 11, 0, CONJECTURE_BLOCK)
    block = _screen_slacks(bc)
    assert block.tobytes() == _screen_slacks(bc[::-1])[::-1].tobytes()
    for k, row in enumerate(block):
        assert row.tobytes() == _screen_slacks(bc[k:k + 1])[0].tobytes()


def _condition_families():
    # read through the module, so that a patched family applies here too
    return two_time_complete(5), three_time_complete(5), feasibility.ngon_family(5)


@pytest.fixture
def lowered_ngon_bound(monkeypatch):
    # lowering an n-gon bound from 2 to 1 (row 80) makes the row cut off
    # feasible data; yields the scales of the unchanged rows
    valid = _conditions(5).scales
    ngon = ngon_family(5)
    lowered = ngon.bounds.copy()
    lowered[0] = 1.0
    monkeypatch.setattr(feasibility, "ngon_family", lambda n: replace(ngon, bounds=lowered))
    _conditions.cache_clear()
    try:
        yield valid
    finally:
        _conditions.cache_clear()


def _dense_slacks(bc):
    # every product over all 15 columns, summed in column order from +0.0
    a, bounds = dense_conditions(_condition_families())
    total = np.zeros((bc.shape[0], a.shape[0]))
    for column, terms in zip(bc.T, a.T):
        total += column[:, None] * terms
    return total - bounds


def test_condition_rows_match_evaluate_on_each_family_member():
    # general-mode data, so the two-time rows read the averages
    bc = _draw_block(5, "general", 3, 0, 20)
    families = _condition_families()
    slacks = _screen_slacks(bc)
    assert slacks.shape == (20, sum(map(len, families))) == (20, 96)
    a, bounds = dense_conditions(families)
    for row, x in zip(slacks, bc):
        spec = _sample_to_spec(5, "general", x[:5], x[5:])
        by_family = np.concatenate([family.slacks(spec) for family in families])
        assert by_family.tobytes() == row.tobytes()
        assert reference_slacks(a, bounds, x).tobytes() == row.tobytes()


@pytest.mark.parametrize("pattern", ["chain", "complete"])
def test_condition_slacks_match_the_per_row_reference_bit_for_bit(pattern):
    for n in range(3, ORACLE_MAX_TIMES + 1):
        rng = np.random.default_rng(n)
        if pattern == "chain":
            conditions = _chain_conditions(n, _chain_values(n, rng))
        else:
            conditions = _conditions(n)
        for values in slack_inputs(conditions.terms.shape[1], rng):
            got = _slacks(conditions.terms, conditions.bounds, values)
            want = reference_slacks(conditions.terms, conditions.bounds, values)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_conditions_refuse_a_coefficient_outside_unit_range(monkeypatch):
    ngon = ngon_family(5)
    doubled = ngon.coefficients.copy()
    doubled[0, 0] = 2
    monkeypatch.setattr(feasibility, "ngon_family", lambda n: replace(ngon, coefficients=doubled))
    _conditions.cache_clear()
    try:
        with pytest.raises(ValidationError):
            _conditions(5)
    finally:
        _conditions.cache_clear()


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_float_condition_slacks_are_within_1e_13_of_exact(mode):
    # draws are multiples of 2^-53 in [-1, 1), and so is every float slack
    # (a rounding above magnitude 1 lands on a coarser grid), so both sides
    # are exact rationals over 2^53, compared by their integer numerators
    scale = 2**53
    a, bounds = dense_conditions(_condition_families())
    bc = _draw_block(5, mode, 77, 0, 2000)
    floats = _screen_slacks(bc)
    for x in (bc, floats):
        assert (np.round(x * scale) == x * scale).all()
    exact = ((bc * scale).astype(np.int64) @ a.T.astype(np.int64)
             - (bounds * scale).astype(np.int64))
    gap = np.abs((floats * scale).astype(np.int64) - exact).max()
    assert Fraction(int(gap), scale) < Fraction(1, 10**13)
    off_band = np.abs(floats) >= BOUNDARY_TOL
    assert ((floats <= 0.0) == (exact <= 0))[off_band].all()


def test_condition_slacks_match_the_dense_sum_bit_for_bit():
    # 20 blocks per mode, then rows of zeros, -0.0, +-1 and terms that cancel
    blocks = [_draw_block(5, mode, 1000 + k, k, k + CONJECTURE_BLOCK)
              for mode in ("symmetric", "general") for k in range(20)]
    hand = np.zeros((6, 15))
    hand[1] = -0.0
    hand[2] = 1.0
    hand[3] = -1.0
    hand[4, ::2] = -0.0
    hand[4, 1::2] = 1.0
    # C_12 + C_13 + C_23 = 0 with non-zero terms, so 1 + ... cancels to the bound
    hand[5, [5, 6, 9]] = 0.375, -0.25, -0.125
    # draws are multiples of 2^-52 in [-1, 1), so every partial sum of three
    # of them is exact; off-grid values make the term order show in each group
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0**-53, -(2.0**-53), 1.0 - 2.0**-53, 0.1])
    mixed = np.random.default_rng(7).choice(values, size=(400, 15))
    for bc in blocks + [hand, mixed]:
        assert _screen_slacks(bc).tobytes() == _dense_slacks(bc).tobytes()


def test_conjecture_small_run_tallies():
    report = conjecture_check(300, 12345, "symmetric")
    total = (
        report.condition_holds_and_feasible
        + report.condition_holds_and_infeasible
        + report.condition_fails_and_feasible
        + report.condition_fails_and_infeasible
    )
    assert total == 300
    assert report.counterexamples == ()
    assert report.condition_fails_and_feasible == 0  # necessity
    payload = report.to_json_dict()
    assert payload["samples"] == 300 and payload["counterexamples"] == []


def _reference_report(samples, seed, mode):
    # one sample at a time: dense slacks, a 1-D float solve, and exact
    # re-adjudication of both sides, the slacks in Fractions
    a, bounds = dense_conditions(_condition_families())
    rows = _constraint_rows(5, _suspended(5, complete_pairs(5)))
    tallies, boundary_count, counterexamples = [0, 0, 0, 0], 0, []
    for index in range(samples):
        b, c = _reference_draw(mode, seed, index)
        slacks = a @ np.concatenate((b, c)) - bounds
        result = solve_phase1(rows, np.concatenate(([1.0], b, c)))
        holds, feasible = bool(slacks.max() <= 0.0), result.feasible
        if (np.abs(slacks).min() < BOUNDARY_TOL
                or FEASIBILITY_TOL < result.objective < BOUNDARY_TOL):
            boundary_count += 1
        elif holds != feasible:
            bc = [Fraction(float(v)) for v in np.concatenate((b, c))]
            exact = a.astype(int).astype(object) @ bc - [Fraction(v) for v in bounds.tolist()]
            holds = bool((exact <= 0).all())
            rhs = np.concatenate(([1.0], b, c)).astype(object)
            feasible = solve_phase1(rows.astype(object), rhs).feasible
            if holds != feasible:
                counterexamples.append(_sample_to_spec(5, mode, b, c))
        tallies[(0 if holds else 2) + (0 if feasible else 1)] += 1
    return ConjectureReport(5, mode, samples, seed, *tallies, boundary_count, counterexamples)


def test_conjecture_blocks_match_a_per_sample_reference():
    # seed 6 puts one sample where the conditions hold
    samples = 2 * CONJECTURE_BLOCK + 3
    report = conjecture_check(samples, 6, "general")
    assert report == _reference_report(samples, 6, "general")
    assert report.condition_holds_and_feasible == 1


def test_symmetric_blocks_match_a_per_sample_reference():
    # seed 8 puts three samples where the conditions hold
    samples = 2 * CONJECTURE_BLOCK + 3
    report = conjecture_check(samples, 8, "symmetric")
    assert report == _reference_report(samples, 8, "symmetric")
    assert report.condition_holds_and_feasible == 3


def test_screen_scales_pin_every_n5_condition_row_as_valid():
    # 40 two-time and 40 three-time rows with bound 1, then 16 n-gon rows with bound 2
    assert _conditions(5).scales.tolist() == [1.0] * 80 + [2.0] * 16


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_screened_samples_have_a_phase1_optimum_above_their_scaled_slack(mode):
    a, bounds = dense_conditions(_condition_families())
    rows = _constraint_rows(5, _suspended(5, complete_pairs(5)))
    bc = _draw_block(5, mode, 3, 0, 3000)
    scaled = ((bc @ a.T - bounds) / _conditions(5).scales).max(axis=1)
    screened = np.flatnonzero(scaled > 2 * BOUNDARY_TOL)
    assert screened.size > 2900
    objectives = np.array([solve_phase1(rows, np.concatenate(([1.0], bc[k]))).objective
                           for k in screened])
    assert (objectives >= scaled[screened] * (1 - 1e-12)).all()


@pytest.mark.parametrize("past, solved", [(1e-8, True), (1e-3, False)])
def test_only_samples_past_the_band_skip_the_lp(monkeypatch, past, solved):
    # the triangle (1, 2, 3) row 1 + C_12 + C_13 + C_23 >= 0, overstepped by ``past``
    c = np.zeros((1, 10))
    c[0, [0, 1, 4]] = -(1.0 + past) / 3.0
    calls = []

    def recording(rows, rhs):
        calls.append(rhs)
        return solve_phase1(rows, rhs)

    monkeypatch.setattr(feasibility, "solve_phase1", recording)
    [holds], [feasible], [boundary] = _classify_stack(5, np.hstack((np.zeros((1, 5)), c)))
    assert len(calls) == (1 if solved else 0)
    assert not holds and not feasible and boundary == solved


def _gathered_decisions(bc):
    # (holds, boundary, refuted) from the slacks of ``_slacks``
    slacks = _screen_slacks(bc)
    return (slacks.max(axis=1) <= 0.0, np.abs(slacks).min(axis=1) < BOUNDARY_TOL,
            (slacks / _conditions(5).scales).max(axis=1) > 2 * BOUNDARY_TOL)


@pytest.fixture
def fallback(monkeypatch):
    """Records the (columns x samples) values the screen re-decides from
    ``_slacks``."""
    seen = []

    def recording(coefficients, bounds, values):
        seen.append(values.copy())
        return _slacks(coefficients, bounds, values)

    monkeypatch.setattr(feasibility, "_slacks", recording)
    return seen


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_blas_screen_decides_as_the_gathered_slacks(fallback, mode):
    # 10^5 draws, then halved draws rounded to multiples of 1/4: their
    # slacks are multiples of 1/4, and over a third of them have a largest
    # slack of exactly 0, which sends them through the fallback
    blocks = [_draw_block(5, mode, 29, first, first + 10_000) for first in range(0, 100_000, 10_000)]
    blocks.append(np.round(blocks[0][:2000] * 2) / 4)
    for bc in blocks:
        for got, want in zip(_screen(5, bc), _gathered_decisions(bc)):
            assert np.array_equal(got, want)
    assert sum(values.shape[1] for values in fallback) > 600


def test_a_slack_pinned_on_zero_is_re_decided_from_the_gathered_sums(fallback):
    # C_12 = C_13 = -1/2 and C_23 = 0 put the triangle (1, 2, 3) row
    # 1 + C_12 + C_13 + C_23 >= 0 exactly on its bound, so the largest slack
    # is 0; the drawn samples around it sit far from every threshold
    bc = _draw_block(5, "general", 4, 0, 9)
    bc[4] = 0.0
    bc[4, [5, 6]] = -0.5
    decisions = _screen(5, bc)
    assert len(fallback) == 1 and np.array_equal(fallback[0], bc[4:5].T)
    for got, want in zip(decisions, _gathered_decisions(bc)):
        assert np.array_equal(got, want)
    assert [d[4] for d in decisions] == [True, True, False]
    [holds], [feasible], [boundary] = _classify_stack(5, bc[4:5])
    assert holds and feasible and boundary


def test_screen_ignores_an_invalid_row_so_necessity_bugs_still_show(lowered_ngon_bound):
    samples = 2 * CONJECTURE_BLOCK + 3
    scales = _conditions(5).scales
    report = conjecture_check(samples, 8, "symmetric")
    reference = _reference_report(samples, 8, "symmetric")
    valid = lowered_ngon_bound
    assert np.isinf(scales[80]) and np.array_equal(np.delete(scales, 80), np.delete(valid, 80))
    assert report.condition_fails_and_feasible > 0
    assert len(report.counterexamples) == report.condition_fails_and_feasible
    assert report == reference


@pytest.mark.parametrize("block", [1, 7, 300, 5000])
def test_block_size_does_not_change_the_report(lowered_ngon_bound, monkeypatch, block):
    # the lowered bound gives counterexamples at samples 386, 4152 and 4868;
    # every block size must list them in that order, with the same tallies
    default = conjecture_check(5000, 8, "symmetric")
    monkeypatch.setattr(feasibility, "CONJECTURE_BLOCK", block)
    report = conjecture_check(5000, 8, "symmetric")
    draws = [_draw_block(5, "symmetric", 8, i, i + 1)[0] for i in (386, 4152, 4868)]
    assert report.counterexamples == tuple(
        _sample_to_spec(5, "symmetric", bc[:5], bc[5:]) for bc in draws)
    assert report == default


# SHA-256 of each sorted-key report; 10^4 samples reach blocks that need
# LPs, which the 200-sample golden files do not
REPORT_SHA256 = {
    "symmetric": "fdeab5f888cb22189057a656e4a9d4f0fe8db58894a629784bf983d95f62a948",
    "general": "19598d02c40ecbf4beabf938316022b1271ec752e7b40a8e91d551f95e8c6707",
}


@pytest.mark.parametrize("mode", sorted(REPORT_SHA256))
def test_conjecture_report_hash_at_ten_thousand_samples(mode):
    payload = json.dumps(conjecture_check(10_000, 42, mode).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == REPORT_SHA256[mode]


def test_conjecture_validates_arguments():
    with pytest.raises(ValidationError):
        conjecture_check(0, 1)
    # non-integers, bool included, are refused before any draw
    for samples, seed in ((10, 1.5), (2.5, 1), (True, 1), (10, False), (10, "1")):
        with pytest.raises(ValidationError):
            conjecture_check(samples, seed)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        conjecture_check(10, -1)
    with pytest.raises(ValidationError):
        conjecture_check(10, 1, "typo")
    with pytest.raises(DimensionError):
        conjecture_check(10, 1, n=4)
    for workers in (0, -4, 2, 2.5, "2", True):
        with pytest.raises(ValidationError):
            conjecture_check(10, 1, workers=workers)
