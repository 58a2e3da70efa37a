"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
lines and timing.  Randomized criteria use fixed seeds and exclude
knife-edge samples (smallest decision quantity below 1e-7) from the
agreement counts, as the tolerances prescribe.
"""

import math
import time

import numpy as np

from lgfeas import (
    CorrelatorSet,
    chain_pairs,
    complete_pairs,
    conjecture_check,
    cosine_correlators,
    distinct_under_equal_spacing,
    fine_build,
    lg_family,
    lp_feasible,
    max_violation,
    mc_violation_fraction,
    moments_from_distribution,
    ngon_family,
    nu_versus_n,
    sweep,
    SpinSweepConfig,
    three_time_complete,
    two_time_complete,
    v_lg,
    v_ngon,
)
from lgfeas.cltvolume import exact_uniform_sum_tail
from lgfeas.core import _walsh_hadamard
from lgfeas.feasibility import _constraint_rows, _d_bounds, _suspended
from lgfeas.simplex import FEASIBILITY_TOL, solve_phase1
from util import dense_conditions, sample_nonneg_pair_moments, subset_to_mask

BOUNDARY = 1e-7


def _report(num: int, message: str, started: float) -> None:
    print(f"PASS criterion {num}: {message} [{time.perf_counter() - started:.1f}s]")


def test_criterion_1_family_counts():
    started = time.perf_counter()
    assert len(lg_family(3).members) == 4
    assert len(lg_family(4).members) == 8
    assert len(lg_family(10).members) == 512
    assert len(three_time_complete(5).members) == 40
    assert len(two_time_complete(5).members) == 40
    assert time.perf_counter() - started < 1.0
    _report(1, "family sizes 4/8/512 and 40/40", started)


def test_criterion_2_equal_spacing_deduplication():
    started = time.perf_counter()
    assert len(distinct_under_equal_spacing(lg_family(10)).members) == 10
    assert len(distinct_under_equal_spacing(ngon_family(5)).members) == 10
    assert len(distinct_under_equal_spacing(ngon_family(10)).members) == 272
    assert time.perf_counter() - started < 5.0
    _report(2, "distinct members 10/10/272", started)


def _phase1(n, pairs, b, c):
    # the oracle's LP, solved directly: an independent check of verdicts
    # that the oracle may reach from the condition rows with no LP
    rhs = np.concatenate(([1.0], b, [c[pair] for pair in sorted(pairs)]))
    return solve_phase1(_constraint_rows(n, _suspended(n, tuple(sorted(pairs)))), rhs)


def test_criterion_3_three_time_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    family = lg_family(3)
    boundary = 0
    checked = 0
    for _ in range(10_000):
        b, c = sample_nonneg_pair_moments(rng, 3, complete_pairs(3))
        slacks = [
            sum(coeff * c[pair] for pair, coeff in m.terms.items()) - m.bound
            for m in family.members
        ]
        family_ok = max(slacks) <= 0.0
        lo, hi = _d_bounds(*b.tolist(), c[(1, 2)], c[(1, 3)], c[(2, 3)])
        verdict = lp_feasible(b, CorrelatorSet(3, c))
        lp = _phase1(3, complete_pairs(3), b, c)
        near_edge = (
            min(abs(s) for s in slacks) < BOUNDARY
            or abs(lo - hi) < BOUNDARY
            or FEASIBILITY_TOL < lp.objective < BOUNDARY
        )
        if near_edge:
            boundary += 1
            continue
        checked += 1
        assert family_ok == (lo <= hi) == verdict.feasible == lp.feasible
    assert time.perf_counter() - started < 120.0
    _report(3, f"three-way agreement on {checked} samples ({boundary} boundary)", started)


def test_criterion_4_chain_equivalence_n4_to_n7():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    total_boundary = 0
    for n in range(4, 8):
        family = lg_family(n)
        checked = 0
        for _ in range(1_000):
            b, c = sample_nonneg_pair_moments(rng, n, chain_pairs(n))
            slacks = [
                sum(coeff * c[pair] for pair, coeff in m.terms.items()) - m.bound
                for m in family.members
            ]
            family_ok = max(slacks) <= 0.0
            built = fine_build(b, CorrelatorSet(n, c))
            verdict = lp_feasible(b, CorrelatorSet(n, c))
            lp = _phase1(n, chain_pairs(n), b, c)
            near_edge = (
                min(abs(s) for s in slacks) < BOUNDARY
                or FEASIBILITY_TOL < lp.objective < BOUNDARY
            )
            if near_edge:
                total_boundary += 1
                continue
            checked += 1
            assert built.feasible == family_ok == verdict.feasible == lp.feasible
            if built.feasible:
                spec = moments_from_distribution(built.certificate)
                assert all(abs(spec.b(i) - b[i - 1]) <= 1e-9 for i in range(1, n + 1))
                assert all(abs(spec.get(p) - v) <= 1e-9 for p, v in c.items())
                assert built.certificate.p.min() >= -1e-9
        assert checked > 900
    assert time.perf_counter() - started < 600.0
    _report(4, f"chain equivalence for n=4..7 ({total_boundary} boundary)", started)


def test_criterion_5_conjecture_experiment():
    started = time.perf_counter()
    report = conjecture_check(10_000, 42, "symmetric")
    assert report.counterexamples == ()
    assert report.condition_fails_and_feasible == 0
    assert (
        report.condition_holds_and_feasible
        + report.condition_holds_and_infeasible
        + report.condition_fails_and_feasible
        + report.condition_fails_and_infeasible
        == 10_000
    )
    assert time.perf_counter() - started < 900.0
    _report(
        5,
        "no counterexamples in 10^4 symmetric samples "
        f"(holds+feasible={report.condition_holds_and_feasible}, "
        f"boundary fraction={report.boundary / 10_000:.4f})",
        started,
    )


def test_criterion_6_tsirelson_point():
    started = time.perf_counter()
    corr = cosine_correlators(1.0, (0.0, math.pi / 3, 2 * math.pi / 3))
    member, slack = max_violation(lg_family(3), corr)
    assert abs(slack - 0.5) <= 1e-12
    assert not lp_feasible([0.0, 0.0, 0.0], corr).feasible
    _report(6, f"cosine data at a third-period spacing: slack {slack:.12f}, infeasible", started)


def test_criterion_7_clt_figures():
    started = time.perf_counter()
    limit = 0.5 * (1.0 - math.erf(math.sqrt(3.0) / 2.0))
    assert abs(limit - 0.110) < 5e-4
    for n in (200, 350, 500, 1000):
        assert abs(v_ngon(n).value - limit) < 1e-3

    lg_values = [v_lg(n).value for n in range(3, 51)]
    assert all(a >= b for a, b in zip(lg_values, lg_values[1:]))
    assert all(a > b for a, b in zip(lg_values[:20], lg_values[1:21]))
    assert lg_values[-1] < 1e-10

    for j in range(3, 9):
        for b in range(0, j + 1):
            clt = 0.5 * (1.0 - math.erf(math.sqrt(1.5) * b / math.sqrt(j)))
            exact = float(exact_uniform_sum_tail(b, j))
            assert abs(clt - exact) <= 0.02

    estimate = mc_violation_fraction(lg_family(3).members[0], 1_000_000, seed=7)
    assert abs(estimate.value - 1.0 / 6.0) <= 4 * estimate.stderr
    assert time.perf_counter() - started < 60.0
    _report(7, f"asymptote {limit:.4f}, CLT-exact gap <= 0.02, MC within 4 sigma", started)


def test_criterion_8_spin_regimes():
    started = time.perf_counter()
    extend = nu_versus_n(4, 14, "extend", steps=2048)
    fixed = nu_versus_n(4, 14, "fixed_window", steps=2048)
    assert all(a[1] >= b[1] for a, b in zip(extend, extend[1:]))
    assert all(a[1] <= b[1] for a, b in zip(fixed, fixed[1:]))

    result = sweep(SpinSweepConfig(n=10, family="lg", regime="extend", steps=2048))
    assert len(result.labels) == 10
    violated = [(result.slacks[k] > 0).any() for k in range(10)]
    assert sum(violated) == 2
    assert time.perf_counter() - started < 300.0
    _report(
        8,
        f"nu(4..14) extend {extend[0][1]:.3f}->{extend[-1][1]:.3f} non-increasing, "
        f"fixed {fixed[0][1]:.3f}->{fixed[-1][1]:.3f} non-decreasing, 2/10 violated",
        started,
    )


def test_criterion_9_necessity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    counts = {n: 10_000 // 6 for n in range(3, 9)}
    counts[3] += 10_000 - sum(counts.values())
    worst = -math.inf
    for n, count in counts.items():
        weights = rng.exponential(1.0, (count, 1 << n))
        p = weights / weights.sum(axis=1, keepdims=True)
        coeffs = _walsh_hadamard(p)
        b = coeffs[:, [subset_to_mask((i,)) for i in range(1, n + 1)]]
        c = coeffs[:, [subset_to_mask(pair) for pair in complete_pairs(n)]]
        for family in (
            lg_family(n),
            ngon_family(n),
            three_time_complete(n),
            two_time_complete(n),
        ):
            a, bounds = dense_conditions((family,))
            slack = np.hstack((b, c)) @ a.T - bounds
            worst = max(worst, float(slack.max()))
    assert worst <= 1e-9

    # quantum sign-vector bound on cosine-model sweeps up to n=10
    min_p = math.inf
    for n in range(3, 11):
        grid = SpinSweepConfig(n=n, steps=512).grid()
        cosines = np.cos(np.outer(np.arange(1, n), grid))
        members = ngon_family(n).members
        weights = np.zeros((len(members), n - 1))
        for row, member in enumerate(members):
            for (i, j), coeff in member.terms.items():
                weights[row, j - i - 1] += coeff
        p_values = n - 2.0 * (weights @ cosines)
        min_p = min(min_p, float(p_values.min()))
    assert min_p >= -1e-9
    _report(
        9,
        f"worst family slack {worst:.2e} over 10^4 distributions; "
        f"min sign-vector value {min_p:.2e} on cosine sweeps",
        started,
    )
