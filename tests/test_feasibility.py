import hashlib
import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lgfeas import (
    CorrelatorSet,
    DimensionError,
    Interval,
    JointDistribution,
    MarginalError,
    MomentSpec,
    SignVector,
    ValidationError,
    c1n_interval,
    c1n_intervals,
    chain_pairs,
    complete_pairs,
    conjecture_check,
    d_interval,
    evaluate,
    fine_build,
    lg_family,
    lp_feasible,
    lp_feasible_from_spec,
    moments_from_distribution,
    ngon_family,
    symmetric_e_feasible,
    three_time_complete,
    two_time_complete,
)
from lgfeas import feasibility
from lgfeas.feasibility import (
    BOUNDARY_TOL,
    CONJECTURE_BLOCK,
    ConjectureReport,
    _certified,
    _classify_stack,
    _conditions,
    _constraint_rows,
    _draw_block,
    _sample_to_spec,
    _suspended,
)
from lgfeas.core import OracleError
from lgfeas.inequalities import _gather_slacks
from lgfeas.simplex import FEASIBILITY_TOL, solve_phase1
from util import dense_conditions, pair_table_nonneg, sample_nonneg_pair_moments


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

finite = st.floats(-5.0, 5.0)


@given(finite, finite, finite, finite)
def test_interval_intersection_commutes(a, b, c, d):
    x, y = Interval(a, b), Interval(c, d)
    assert x.intersect(y) == y.intersect(x)


@given(finite, finite, finite, finite, finite, finite)
def test_interval_intersection_associates(a, b, c, d, e, f):
    x, y, z = Interval(a, b), Interval(c, d), Interval(e, f)
    assert x.intersect(y).intersect(z) == x.intersect(y.intersect(z))


def test_interval_emptiness_tolerance():
    assert not Interval(0.0, 0.0).is_empty
    assert not Interval(1e-10, 0.0).is_empty
    assert Interval(1e-8, 0.0).is_empty


# ---------------------------------------------------------------------------
# d_interval
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


def test_d_interval_zero_data():
    assert d_interval(MomentSpec(3, {})) == Interval(-1.0, 1.0)


def test_d_interval_all_minus_half_is_empty():
    spec = MomentSpec(3, {(1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5})
    interval = d_interval(spec)
    lo, hi = _d_interval_oracle([0.0, 0.0, 0.0], {p: -0.5 for p in complete_pairs(3)})
    assert (interval.lo, interval.hi) == (lo, hi) == (0.5, -0.5)
    assert interval.is_empty


def test_d_interval_perfect_correlations_pin_the_triple_coefficient():
    # all pair correlators +1 admit only the equal mixture of the two
    # aligned outcomes, whose triple moment vanishes
    spec = MomentSpec(3, {(1, 2): 1.0, (2, 3): 1.0, (1, 3): 1.0})
    interval = d_interval(spec)
    lo, hi = _d_interval_oracle([0.0, 0.0, 0.0], {p: 1.0 for p in complete_pairs(3)})
    assert (lo, hi) == (0.0, 0.0)
    assert abs(interval.lo) == 0.0 and abs(interval.hi) == 0.0
    assert not interval.is_empty


def test_d_interval_requires_nonneg_pairs():
    with pytest.raises(MarginalError):
        d_interval(MomentSpec(3, {(1,): 1.0, (1, 2): -1.0}))
    with pytest.raises(DimensionError):
        d_interval(MomentSpec(4, {}))


def test_d_interval_agrees_with_oracle_on_random_data():
    rng = np.random.default_rng(101)
    for _ in range(300):
        b, c = sample_nonneg_pair_moments(rng, 3, complete_pairs(3))
        spec = MomentSpec(
            3, {**{(i,): float(b[i - 1]) for i in (1, 2, 3)}, **c}
        )
        lo, hi = _d_interval_oracle(list(b), c)
        interval = d_interval(spec)
        assert interval.lo == pytest.approx(max(lo, -1.0), abs=1e-12)
        assert interval.hi == pytest.approx(min(hi, 1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# c1n_interval
# ---------------------------------------------------------------------------

def test_c1n_interval_zero_data():
    assert c1n_interval([0.0, 0.0, 0.0], 0.0, 0.0, 0.0, 0.0) == Interval(-1.0, 1.0)


def test_c1n_interval_perfect_chain_pins_closure():
    interval = c1n_interval([1.0, 1.0], 0.0, 0.0, 0.0, 0.0)
    assert (interval.lo, interval.hi) == (1.0, 1.0)


def test_c1n_interval_chsh_point_is_empty():
    s = 1 / math.sqrt(2)
    interval = c1n_interval([s, s], s, -s, 0.0, 0.0)
    assert interval.is_empty
    assert interval.lo == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    assert interval.hi == pytest.approx(1 - math.sqrt(2), abs=1e-12)


def test_c1n_pair_bound_never_cuts_a_valid_window():
    # with non-negative fixed pair tables the pair bound is compatible with
    # each of the other two windows, so whenever the chain and three-time
    # windows themselves overlap (the chain-family condition) a value
    # satisfying all three sets of bounds exists
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
        chain_iv, three_iv, pair_iv = c1n_intervals(chain, c_next, c_closure, b[0], b[k - 1])
        if not chain_iv.is_empty:
            assert not chain_iv.intersect(pair_iv).is_empty
        if not three_iv.is_empty:
            assert not three_iv.intersect(pair_iv).is_empty
        if not chain_iv.intersect(three_iv).is_empty:
            assert not chain_iv.intersect(three_iv).intersect(pair_iv).is_empty


# ---------------------------------------------------------------------------
# lp oracle
# ---------------------------------------------------------------------------

def test_lp_zero_moments_feasible():
    verdict = lp_feasible(None, CorrelatorSet(3, {p: 0.0 for p in complete_pairs(3)}))
    assert verdict.feasible
    cert = verdict.certificate
    assert cert.is_nonnegative()
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


def test_lp_from_spec_rejects_higher_moments():
    with pytest.raises(ValidationError):
        lp_feasible_from_spec(MomentSpec(3, {(1, 2, 3): 0.5}))


def _assert_certified(verdict, b, correlators):
    assert verdict.feasible
    cert = verdict.certificate
    assert cert.is_nonnegative()
    spec = moments_from_distribution(cert)
    residuals = [abs(spec.b(i) - b_i) for i, b_i in enumerate(b, start=1)]
    residuals += [abs(spec.c(i, j) - value) for (i, j), value in correlators.sorted_items()]
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


@pytest.mark.parametrize("n", [9, 10])
def test_lp_refutes_complete_cosine_data(n):
    # tau = pi/3: 1 + C13 - C12 - C23 = -1/2 breaks the (1,2,3) three-time member
    tau = math.pi / 3
    data = CorrelatorSet(n, {(i, j): math.cos(tau * (j - i)) for i, j in complete_pairs(n)})
    verdict = lp_feasible(None, data)
    assert not verdict.feasible
    assert verdict.phase1_objective > FEASIBILITY_TOL


def test_lp_respects_oracle_scale_cap():
    with pytest.raises(DimensionError):
        lp_feasible(None, CorrelatorSet(13, {p: 0.0 for p in chain_pairs(13)}))
    with pytest.raises(DimensionError):
        lp_feasible(None, CorrelatorSet(7, {p: 0.0 for p in chain_pairs(7)}), exact=True)


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
    chain = CorrelatorSet(3, {p: -1.0 for p in chain_pairs(3)})
    with pytest.raises(MarginalError):
        fine_build([0.9, 0.9, 0.9], chain)


def test_fine_build_requires_chain_pattern():
    full = CorrelatorSet(4, {p: 0.0 for p in complete_pairs(4)})
    with pytest.raises(ValidationError):
        fine_build(None, full)


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
        assert verdict.certificate.is_nonnegative()
    assert built > 50


def test_fine_build_equivalent_to_oracle_and_chain_family():
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(4, 7))
        b, c = sample_nonneg_pair_moments(rng, n, chain_pairs(n))
        family_ok = all(
            evaluate(m, MomentSpec(n, dict(c))) <= 0 for m in lg_family(n).members
        )
        verdict = fine_build(b, CorrelatorSet(n, c))
        margin = min(
            abs(evaluate(m, MomentSpec(n, dict(c)))) for m in lg_family(n).members
        )
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
            slacks = [(evaluate(m, chain), m.label) for m in family.members]
            expected = tuple(label for slack, label in slacks if slack > 1e-12)
            expected = expected or (max(slacks, key=lambda item: item[0])[1],)
            verdict = fine_build(None, chain)
            assert not verdict.feasible
            assert verdict.violated == expected


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("pattern", [chain_pairs, complete_pairs])
def test_constraint_rows_are_sign_products(pattern, n):
    pairs = _suspended(n, pattern(n))
    columns = []
    for index in range(1 << n):
        s = (1,) + SignVector.from_index(index, n).signs  # s_0 = +1
        columns.append([1] + [s[i] * s[j] for i, j in pairs])
    assert np.array_equal(_constraint_rows(n, pairs), np.array(columns, dtype=float).T)


def test_fine_build_residual_does_not_build_the_dense_system():
    before = _constraint_rows.cache_info()
    verdict = fine_build(None, CorrelatorSet(20, {pair: 0.5 for pair in chain_pairs(20)}))
    assert verdict.feasible
    assert _constraint_rows.cache_info() == before


# ---------------------------------------------------------------------------
# symmetric even-coefficient search
# ---------------------------------------------------------------------------

def test_symmetric_zero_correlators_feasible():
    for n in (4, 5):
        verdict = symmetric_e_feasible(CorrelatorSet(n, {p: 0.0 for p in complete_pairs(n)}))
        assert verdict.feasible
        assert verdict.certificate.is_nonnegative()


def test_symmetric_n5_pentagon_violation_infeasible():
    data = CorrelatorSet(5, {p: -0.5 for p in complete_pairs(5)})
    verdict = symmetric_e_feasible(data)
    assert not verdict.feasible
    assert verdict.violated
    assert lp_feasible(None, data).feasible is False


def test_symmetric_n4_three_time_violation_infeasible():
    entries = {p: 0.0 for p in complete_pairs(4)}
    entries.update({(1, 2): -0.5, (1, 3): -0.5, (2, 3): -0.5})
    verdict = symmetric_e_feasible(CorrelatorSet(4, entries))
    assert not verdict.feasible
    assert any(label.startswith("three4:1.2.3") for label in verdict.violated)


def test_symmetric_matches_condition_set_and_oracle():
    rng = np.random.default_rng(606)
    for n in (4, 5):
        families = (three_time_complete(n), ngon_family(n))
        agreements = 0
        for _ in range(120):
            data = CorrelatorSet(
                n, {p: float(rng.uniform(-1, 1)) for p in complete_pairs(n)}
            )
            slacks = [evaluate(m, data) for f in families for m in f.members]
            if min(abs(s) for s in slacks) < 1e-7:
                continue
            condition = max(slacks) <= 0
            verdict = symmetric_e_feasible(data)
            assert verdict.feasible == condition
            assert lp_feasible(None, data).feasible == condition
            agreements += 1
        assert agreements > 60


def test_symmetric_validates_input():
    with pytest.raises(DimensionError):
        symmetric_e_feasible(CorrelatorSet(3, {p: 0.0 for p in complete_pairs(3)}))
    with pytest.raises(ValidationError):
        symmetric_e_feasible(CorrelatorSet(4, {p: 0.0 for p in chain_pairs(4)}))


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
    groups, bounds, _ = _conditions(5)
    return _gather_slacks(groups, bounds, bc.T).T


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
    valid = _conditions(5)[2]
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


def test_condition_terms_cover_every_row_once_in_column_order():
    a, _ = dense_conditions(_condition_families())
    groups = _conditions(5)[0]
    seen = []
    for rows, table in groups:
        assert table.shape == (table.shape[0], rows.size)
        for row, signed in zip(rows.tolist(), table.T):
            columns, negative = signed % 15, signed >= 15
            assert columns.tolist() == np.flatnonzero(a[row]).tolist()
            assert a[row, columns].tolist() == np.where(negative, -1.0, 1.0).tolist()
            seen.append(row)
    assert sorted(seen) == list(range(a.shape[0]))
    assert sorted(table.shape[0] for _, table in groups) == [3, 10]


def test_condition_rows_match_evaluate_on_each_family_member():
    # general-mode data, so the two-time rows read the averages
    bc = _draw_block(5, "general", 3, 0, 20)
    families = _condition_families()
    members = [member for family in families for member in family.members]
    slacks = _screen_slacks(bc)
    assert slacks.shape == (20, len(members)) == (20, 96)
    for row, x in zip(slacks, bc):
        spec = _sample_to_spec(5, "general", x[:5], x[5:])
        by_family = np.concatenate([family.slacks(spec) for family in families])
        assert by_family.tobytes() == row.tobytes()
        for member, fast in zip(members, row):
            assert np.float64(evaluate(member, spec)).tobytes() == fast.tobytes()


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
    assert _conditions(5)[2].tolist() == [1.0] * 80 + [2.0] * 16


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_screened_samples_have_a_phase1_optimum_above_their_scaled_slack(mode):
    a, bounds = dense_conditions(_condition_families())
    rows = _constraint_rows(5, _suspended(5, complete_pairs(5)))
    bc = _draw_block(5, mode, 3, 0, 3000)
    scaled = ((bc @ a.T - bounds) / _conditions(5)[2]).max(axis=1)
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


def test_screen_ignores_an_invalid_row_so_necessity_bugs_still_show(lowered_ngon_bound):
    samples = 2 * CONJECTURE_BLOCK + 3
    scales = _conditions(5)[2]
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
    with pytest.raises(ValidationError):
        conjecture_check(10, 1, "typo")
    with pytest.raises(DimensionError):
        conjecture_check(10, 1, n=4)
    for workers in (0, -4, 2, 2.5, "2", True):
        with pytest.raises(ValidationError):
            conjecture_check(10, 1, workers=workers)
