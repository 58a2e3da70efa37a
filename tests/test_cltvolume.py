import math
from fractions import Fraction

import mpmath
import pytest

from lgfeas import (
    LinearInequality,
    ValidationError,
    VolumeEstimate,
    clt_violation_fraction,
    exact_violation_fraction,
    lg_family,
    mc_violation_fraction,
    v_lg,
    v_ngon,
)
from lgfeas.cltvolume import exact_uniform_sum_tail


def _erf_series_oracle(x: float, terms: int = 60) -> float:
    """Taylor series summed in 50-digit arithmetic, independent of the
    implementation under test."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = xm
        for k in range(terms):
            total += term / (2 * k + 1)
            term *= -xm * xm / (k + 1)
        value = 2 / mpmath.sqrt(mpmath.pi) * total
        return float(value)


def test_clt_fraction_values():
    assert clt_violation_fraction(0.0, 5).value == 0.5
    expected = 0.5 * (1.0 - _erf_series_oracle(1.0 / math.sqrt(2.0)))
    assert clt_violation_fraction(1.0, 3).value == pytest.approx(expected, abs=1e-14)
    assert clt_violation_fraction(1.0, 3).value == pytest.approx(0.15865525393145707, abs=1e-12)
    assert clt_violation_fraction(80.0, 3).value == 0.0


def test_v_lg_values_and_monotonicity():
    assert v_lg(3).value == pytest.approx(0.15865525393145707, abs=1e-12)
    values = [v_lg(n).value for n in range(3, 61)]
    # strictly decreasing until the complement saturates below float
    # resolution, never increasing after that
    assert all(a > b or a == b == 0.0 for a, b in zip(values, values[1:]))
    assert all(a > b for a, b in zip(values[:20], values[1:21]))
    assert v_lg(50).value < 1e-10


def test_v_ngon_limit_and_coincidence_at_three():
    assert v_ngon(3).value == v_lg(3).value
    limit = 0.5 * (1.0 - math.erf(math.sqrt(3.0) / 2.0))
    assert limit == pytest.approx(0.110, abs=5e-4)
    for n in (200, 500, 1000):
        assert abs(v_ngon(n).value - limit) < 1e-3


def test_v_ngon_even_formula():
    n = 8
    expected = 0.5 * (1.0 - math.erf((math.sqrt(3) / 2) * n / math.sqrt(n * (n - 1))))
    assert v_ngon(n).value == pytest.approx(expected, abs=1e-14)


def test_exact_tail_closed_forms():
    assert exact_uniform_sum_tail(1, 3) == Fraction(1, 6)
    assert exact_uniform_sum_tail(0, 2) == Fraction(1, 2)
    assert exact_uniform_sum_tail(2, 2) == 0
    assert exact_uniform_sum_tail(-3, 3) == 1
    assert exact_violation_fraction(1.0, 3).value == float(Fraction(1, 6))


def test_exact_tail_matches_symmetry():
    # P(S > b) + P(S > -b) = 1 for the symmetric sum
    for j in range(1, 9):
        for b in (0.25, 0.5, 1.25):
            total = exact_uniform_sum_tail(b, j) + exact_uniform_sum_tail(-b, j)
            assert total == 1


def test_exact_tail_has_no_cap_on_j():
    # the all-plus lg member's violating fraction: U_1 + ... + U_n > n - 2
    # only near the corner, a simplex of volume 2^n / n! in [-1, 1]^n
    for n in range(3, 21):
        assert exact_uniform_sum_tail(n - 2, n) == Fraction(1, math.factorial(n))
    with pytest.raises(ValidationError, match="j must be >= 1"):
        exact_uniform_sum_tail(1, 0)


def test_exact_tail_rejects_non_integer_j():
    # True would otherwise be read as j = 1
    for j in (2.5, True, "2"):
        with pytest.raises(ValidationError):
            exact_uniform_sum_tail(1, j)


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
def test_exact_tail_rejects_a_non_finite_bound(bound):
    with pytest.raises(ValidationError):
        exact_uniform_sum_tail(bound, 3)
    with pytest.raises(ValidationError):
        exact_violation_fraction(bound, 3)


@pytest.mark.parametrize("bound", ["1/2", "1", True, None, [0.5]])
def test_exact_tail_rejects_a_bound_that_is_not_a_real_number(bound):
    # '1/2' would otherwise be parsed as a rational and True read as 1
    with pytest.raises(ValidationError):
        exact_uniform_sum_tail(bound, 3)
    # a Fraction stays exact: P(U_1 + U_2 > 1/3) = (2 - 1/3)^2 / 8
    assert exact_uniform_sum_tail(Fraction(1, 3), 2) == Fraction(25, 72)


@pytest.mark.parametrize("b", [math.nan, math.inf, "1", True, None])
def test_clt_rejects_a_bound_that_is_not_a_finite_real(b):
    with pytest.raises(ValidationError, match="bound must be a finite real number"):
        clt_violation_fraction(b, 3)


def test_clt_rejects_a_non_integer_term_count():
    # 2.5 and True would otherwise read as fractional and single sums
    for j in (2.5, True, "3"):
        with pytest.raises(ValidationError):
            clt_violation_fraction(1.0, j)


@pytest.mark.parametrize("estimator", [v_lg, v_ngon])
def test_family_estimates_reject_a_non_integer_n(estimator):
    for n in (3.5, 4.5, True, "4"):
        with pytest.raises(ValidationError):
            estimator(n)


def test_clt_and_family_estimates_reject_out_of_range_arguments():
    for j, b in ((0, 1.0), (3, -1.0)):
        with pytest.raises(ValidationError):
            clt_violation_fraction(b, j)
    for estimator in (v_lg, v_ngon):
        with pytest.raises(ValidationError, match="n must be >= 3"):
            estimator(2)


def test_clt_close_to_exact_for_small_sums():
    for j in range(3, 9):
        for b in range(0, j + 1):
            clt = clt_violation_fraction(float(b), j).value
            exact = float(exact_uniform_sum_tail(b, j))
            assert abs(clt - exact) <= 0.02


def test_clt_monotonicity():
    for j in (3, 6):
        values = [clt_violation_fraction(b / 4.0, j).value for b in range(0, 4 * j)]
        assert all(a > b for a, b in zip(values, values[1:]))
    for b in (1.0, 2.0):
        values = [clt_violation_fraction(b, j).value for j in range(1, 12)]
        assert all(a < b_ for a, b_ in zip(values, values[1:]))


def test_mc_against_exact_value():
    member = lg_family(3).members[0]
    estimate = mc_violation_fraction(member, 200_000, seed=7)
    assert estimate.method == "monte_carlo"
    assert estimate.stderr == pytest.approx(
        math.sqrt(estimate.value * (1 - estimate.value) / 200_000)
    )
    assert abs(estimate.value - 1.0 / 6.0) < 4 * estimate.stderr


def test_mc_unreachable_bound_is_exactly_zero():
    # a bound equal to the term count cannot be exceeded
    member = LinearInequality(
        terms={(1, 2): 1, (2, 3): 1, (1, 3): 1}, bound=3.0, label="test"
    )
    estimate = mc_violation_fraction(member, 50_000, seed=3)
    assert estimate.value == 0.0


def test_mc_sign_flip_equivalence():
    # flipping term signs leaves the violated-volume distribution unchanged
    flipped = lg_family(3).members[3]  # all-minus member, same bound
    straight = lg_family(3).members[0]
    est_a = mc_violation_fraction(straight, 100_000, seed=21)
    est_b = mc_violation_fraction(flipped, 100_000, seed=22)
    sigma = math.hypot(est_a.stderr, est_b.stderr)
    assert abs(est_a.value - est_b.value) < 5 * sigma


def test_mc_validates_arguments():
    member = lg_family(3).members[0]
    for samples, seed in ((0, 1), (10, -1), (True, 1), (10, 1.5), (2.5, 1), (10, False)):
        with pytest.raises(ValidationError):
            mc_violation_fraction(member, samples, seed)


def test_mc_is_reproducible():
    member = lg_family(4).members[0]
    a = mc_violation_fraction(member, 70_000, seed=5)
    b = mc_violation_fraction(member, 70_000, seed=5)
    assert a == b


def test_volume_estimate_validation():
    with pytest.raises(ValidationError):
        VolumeEstimate(0.5, "guess")
    with pytest.raises(ValidationError):
        VolumeEstimate(1.5, "clt")
    with pytest.raises(ValidationError):
        VolumeEstimate(0.5, "clt", stderr=0.1)
    with pytest.raises(ValidationError):
        VolumeEstimate(0.5, "monte_carlo")
