import math
from dataclasses import replace

import numpy as np
import pytest

from lgfeas import (
    DimensionError,
    SpinSweepConfig,
    ValidationError,
    cosine_correlators,
    distinct_under_equal_spacing,
    lg_family,
    ngon_family,
    nu_versus_n,
    sweep,
)


def test_cosine_full_periods_give_unit_correlators():
    corr = cosine_correlators(1.0, (0.0, 2 * math.pi, 4 * math.pi))
    assert all(v == pytest.approx(1.0, abs=1e-12) for _, v in corr.sorted_items())


def test_cosine_tsirelson_point():
    corr = cosine_correlators(1.0, (0.0, math.pi / 3, 2 * math.pi / 3))
    assert corr.value(1, 2) == pytest.approx(0.5, abs=1e-12)
    assert corr.value(2, 3) == pytest.approx(0.5, abs=1e-12)
    assert corr.value(1, 3) == pytest.approx(-0.5, abs=1e-12)


def test_cosine_quarter_period():
    corr = cosine_correlators(2.0, (0.0, math.pi / 4))
    assert corr.value(1, 2) == pytest.approx(0.0, abs=1e-12)


def test_cosine_rejects_unordered_times():
    with pytest.raises(ValidationError):
        cosine_correlators(1.0, (0.0, 1.0, 1.0))


@pytest.mark.parametrize("omega, times", [
    (math.nan, (0.0, 1.0, 2.0)), ("1", (0.0, 1.0, 2.0)), (True, (0.0, 1.0, 2.0)),
    (1.0, (0.0, "1", 2.0)), (1.0, (0.0, 1.0, math.inf)), (1.0, (False, 1.0, 2.0)),
])
def test_cosine_rejects_a_value_that_is_not_a_finite_real(omega, times):
    with pytest.raises(ValidationError):
        cosine_correlators(omega, times)


def test_grid_excludes_endpoints_and_is_uniform():
    config = SpinSweepConfig(n=3, tau_min=0.0, tau_max=1.0, steps=9)
    grid = config.grid()
    assert grid[0] > 0.0 and grid[-1] < 1.0
    assert np.allclose(np.diff(grid), 0.1)


def test_sweep_n3_max_slack_half_at_third_period():
    # 2 cos(t) - cos(2t) - 1 peaks at exactly 1/2 for t = pi/3, which the
    # default 2048-point grid over (0, pi) contains (2049 = 3 * 683)
    config = SpinSweepConfig(n=3, tau_max=math.pi)
    result = sweep(config)
    peak = float(result.slacks.max())
    assert peak == pytest.approx(0.5, abs=1e-12)
    tau_at_peak = result.grid[np.unravel_index(result.slacks.argmax(), result.slacks.shape)[1]]
    assert tau_at_peak == pytest.approx(math.pi / 3, abs=1e-12)


def test_sweep_ngon5_violated_almost_everywhere():
    result = sweep(SpinSweepConfig(n=5, family="ngon"))
    assert result.nu > 0.999


def test_sweep_lg10_exactly_two_members_violated():
    result = sweep(SpinSweepConfig(n=10, family="lg", regime="extend"))
    violated = [lab for k, lab in enumerate(result.labels) if (result.slacks[k] > 0).any()]
    assert len(result.labels) == 10
    assert sorted(violated) == ["lg10:+++++++++-", "lg10:---------+"]


def test_sweep_matches_direct_evaluation():
    # the gap-weight fast path must agree with building the correlators and
    # taking the family's slacks on them
    config = SpinSweepConfig(n=6, family="ngon", steps=16, tau_max=5.0)
    result = sweep(config)
    family = distinct_under_equal_spacing(ngon_family(6))
    for p, tau in enumerate(result.grid):
        corr = cosine_correlators(config.omega, [k * tau for k in range(6)])
        assert result.slacks[:, p] == pytest.approx(family.slacks(corr), abs=1e-12)


def test_slacks_are_periodic_in_the_spacing():
    rng = np.random.default_rng(8)
    omega = 1.7
    for n in (4, 5, 6):
        for family in (lg_family(n), ngon_family(n)):
            for tau in rng.uniform(0.1, 4.0, 5):
                times_a = [k * tau for k in range(n)]
                shifted = tau + 2 * math.pi / omega
                times_b = [k * shifted for k in range(n)]
                corr_a = cosine_correlators(omega, times_a)
                corr_b = cosine_correlators(omega, times_b)
                assert family.slacks(corr_a) == pytest.approx(family.slacks(corr_b), abs=1e-12)


def test_equal_spacing_reduction_for_lg_members():
    # at equal spacing an lg slack is (sum of chain coefficients) * cos(wt)
    # + (closure coefficient) * cos((n-1) wt) - (n-2)
    omega = 1.0
    for n in (4, 7):
        family = lg_family(n)
        for tau in (0.3, 1.1, 2.9):
            corr = cosine_correlators(omega, [k * tau for k in range(n)])
            for member, slack in zip(family.members, family.slacks(corr)):
                chain_sum = sum(
                    coeff for (i, j), coeff in member.terms.items() if j - i == 1
                )
                closure = member.terms[(1, n)]
                reduced = (
                    chain_sum * math.cos(omega * tau)
                    + closure * math.cos((n - 1) * omega * tau)
                    - (n - 2)
                )
                assert slack == pytest.approx(reduced, abs=1e-12)


def test_regimes_only_differ_by_default_span():
    # with explicit spacing bounds the two regimes describe identical grids
    a = sweep(SpinSweepConfig(n=3, tau_min=0.1, tau_max=2.0, steps=64, regime="extend"))
    b = sweep(SpinSweepConfig(n=3, tau_min=0.1, tau_max=2.0, steps=64, regime="fixed_window"))
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.slacks, b.slacks)
    assert a.nu == b.nu


def test_window_bounds_scale_with_n():
    config = SpinSweepConfig(n=5, regime="fixed_window")
    lo, hi = config.tau_bounds()
    assert hi == pytest.approx(1.5 * math.pi / 4)
    wlo, whi = config.window_bounds()
    assert whi == pytest.approx(1.5 * math.pi)


def test_nu_versus_n_qualitative_shapes():
    extend = nu_versus_n(4, 9, "extend", steps=512)
    fixed = nu_versus_n(4, 9, "fixed_window", steps=512)
    assert all(a[1] >= b[1] for a, b in zip(extend, extend[1:]))
    assert all(a[1] <= b[1] for a, b in zip(fixed, fixed[1:]))
    assert extend[0][1] > 0.5
    assert fixed[-1][1] > 0.9


def test_normalized_peak_slack_decays_with_n():
    # peak slack scaled by n shrinks monotonically toward zero as the
    # chain family lengthens in the extend regime
    peaks = []
    for n in range(5, 21):
        result = sweep(SpinSweepConfig(n=n, family="lg", regime="extend", steps=1024))
        peaks.append(result.slacks.max() / n)
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))
    assert peaks[-1] < peaks[0] / 2


def test_quantum_bound_holds_for_cosine_data():
    # n + 2 sum s_i s_j C_ij is a squared magnitude in this model, so no
    # sign vector can push it below zero at any spacing
    for n in (3, 5, 8, 10):
        members = ngon_family(n).members
        grid = SpinSweepConfig(n=n, steps=256).grid()
        gaps = np.arange(1, n)
        cosines = np.cos(np.outer(gaps, grid))
        weights = np.zeros((len(members), n - 1))
        for row, member in enumerate(members):
            for (i, j), coeff in member.terms.items():
                weights[row, j - i - 1] += coeff
        # the stored terms are -s_i s_j, so sum s_i s_j C_ij = -(w . cos)
        signed_sums = -(weights @ cosines)
        p_values = n + 2.0 * signed_sums
        assert p_values.min() >= -1e-9


def test_nu_convergence_at_default_resolution():
    # doubling the default 2048-point grid moves nu by well under 1e-3
    config = SpinSweepConfig(n=10, family="lg")
    assert abs(sweep(replace(config, steps=2 * config.steps)).nu - sweep(config).nu) < 1e-3


def test_config_validation():
    with pytest.raises(DimensionError):
        SpinSweepConfig(n=2)
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, omega=0.0)
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, steps=1)
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, regime="sideways")
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, tau_min=2.0, tau_max=1.0)
    with pytest.raises(DimensionError):
        nu_versus_n(5, 4)


def test_config_rejects_non_integer_sizes():
    # steps=2.5 would otherwise build a 3-point grid
    for field, value in (("n", 4.5), ("n", True), ("steps", 2.5), ("steps", True)):
        with pytest.raises(ValidationError):
            SpinSweepConfig(**{"n": 4, field: value})


@pytest.mark.parametrize("n_min, n_max", [(3, 5.5), (3.0, 5), (True, 5), (3, "5")])
def test_nu_versus_n_rejects_non_integer_bounds(n_min, n_max):
    with pytest.raises(ValidationError):
        nu_versus_n(n_min, n_max, steps=8)


@pytest.mark.parametrize("tau_min, tau_max", [(-3.0, -1.0), (-2.0, 2.0), (-0.5, None)])
def test_config_rejects_negative_spacings(tau_min, tau_max):
    # a negative spacing would mirror positive ones into the grid and count them twice in nu
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, tau_min=tau_min, tau_max=tau_max)
    with pytest.raises(ValidationError):
        nu_versus_n(3, 4, steps=8, tau_min=tau_min, tau_max=tau_max)


@pytest.mark.parametrize("field", ["omega", "tau_min", "tau_max"])
@pytest.mark.parametrize("value", ["1", True, [1.0]])
def test_config_rejects_a_value_that_is_not_a_real_number(field, value):
    # True would otherwise be read as 1
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, **{field: value})


@pytest.mark.parametrize("field", ["omega", "tau_min", "tau_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValidationError):
        SpinSweepConfig(n=4, **{field: value})
    with pytest.raises(ValidationError):
        nu_versus_n(3, 4, steps=8, **{field: value})
