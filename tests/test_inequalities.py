import math
from fractions import Fraction

import numpy as np
import pytest

from lgfeas import (
    CorrelatorSet,
    DimensionError,
    MissingCorrelatorError,
    MomentSpec,
    ValidationError,
    chain_pairs,
    complete_pairs,
    distinct_under_equal_spacing,
    lg_family,
    max_violation,
    moments_from_distribution,
    ngon_family,
    three_time_complete,
    two_time_complete,
)
from lgfeas.inequalities import _slacks, family_to_json_list, gap_weights
from lgfeas.simplex import _fractions
from util import SLACK_VALUES, random_nonneg_distribution, reference_slacks, slack_inputs


def _as_set(family):
    """The members up to their labels."""
    return {(frozenset(m.terms.items()), frozenset(m.linear.items()), m.bound) for m in family.members}


@pytest.mark.parametrize("n", range(3, 13))
def test_family_counts(n):
    assert len(lg_family(n).members) == 2 ** (n - 1)
    assert len(ngon_family(n).members) == 2 ** (n - 1)
    assert len(three_time_complete(n).members) == 2 * n * (n - 1) * (n - 2) // 3
    assert len(two_time_complete(n).members) == 2 * n * (n - 1)


def test_family_range_checks():
    for build in (lg_family, ngon_family, three_time_complete):
        with pytest.raises(DimensionError):
            build(2)
        with pytest.raises(DimensionError):
            build(21)
    assert len(two_time_complete(2).members) == 4


def test_lg3_members_match_known_set():
    # the four three-time inequalities, written out one by one
    expected = {
        frozenset({((1, 2), 1), ((1, 3), 1), ((2, 3), -1)}),
        frozenset({((1, 2), 1), ((1, 3), -1), ((2, 3), 1)}),
        frozenset({((1, 2), -1), ((1, 3), 1), ((2, 3), 1)}),
        frozenset({((1, 2), -1), ((1, 3), -1), ((2, 3), -1)}),
    }
    got = {frozenset(m.terms.items()) for m in lg_family(3).members}
    assert got == expected
    assert all(m.bound == 1.0 for m in lg_family(3).members)


def test_lg4_members_match_expanded_two_sided_forms():
    # each two-sided inequality |a.C| <= 2 contributes a pattern and its
    # negation; writing all eight out explicitly
    base_patterns = [
        (1, 1, 1, -1),
        (1, 1, -1, 1),
        (1, -1, 1, 1),
        (-1, 1, 1, 1),
    ]
    expected = set()
    for pattern in base_patterns:
        for sign in (1, -1):
            a = tuple(sign * v for v in pattern)
            expected.add(
                frozenset({((1, 2), a[0]), ((2, 3), a[1]), ((3, 4), a[2]), ((1, 4), a[3])})
            )
    got = {frozenset(m.terms.items()) for m in lg_family(4).members}
    assert got == expected
    assert all(m.bound == 2.0 for m in lg_family(4).members)


def test_lg_coefficient_product_is_negative():
    for n in (3, 5, 8):
        for member in lg_family(n).members:
            assert math.prod(member.terms.values()) == -1
            assert len(member.terms) == n


def test_ngon3_coincides_with_lg3():
    assert _as_set(ngon_family(3)) == _as_set(lg_family(3))


def test_ngon_bounds_match_parity_rule():
    # n=4 and n=5 share the same functional bound
    assert {m.bound for m in ngon_family(4).members} == {2.0}
    assert {m.bound for m in ngon_family(5).members} == {2.0}
    assert {m.bound for m in ngon_family(6).members} == {3.0}
    assert {m.bound for m in ngon_family(7).members} == {3.0}


def test_ngon_all_plus_member_is_first():
    member = ngon_family(5).members[0]
    assert member.label == "ngon5:+++++"
    assert all(coeff == -1 for coeff in member.terms.values())
    assert len(member.terms) == 10


def test_ngon_raw_flag():
    raw = ngon_family(6, raw=True)
    assert len(raw.members) == 64
    # raw listing only duplicates the canonical members
    assert _as_set(raw) == _as_set(ngon_family(6))


def test_two_time_satisfied_with_margin():
    spec = MomentSpec(3, {(1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5})
    assert (two_time_complete(3).slacks(spec) <= -0.5 + 1e-15).all()


def test_evaluate_tsirelson_point():
    data = CorrelatorSet(3, {(1, 2): 0.5, (2, 3): 0.5, (1, 3): -0.5})
    member, slack = max_violation(lg_family(3), data)
    assert slack == pytest.approx(0.5, abs=1e-15)
    assert member.terms == {(1, 2): 1, (2, 3): 1, (1, 3): -1}


def test_evaluate_zero_data_gives_minus_bound():
    zeros = CorrelatorSet(5, {pair: 0.0 for pair in complete_pairs(5)})
    for family in (lg_family(5), ngon_family(5), three_time_complete(5)):
        assert np.array_equal(family.slacks(zeros), -family.bounds)
    # all slacks tie at -bound, so the first member in generation order wins
    member, slack = max_violation(lg_family(5), zeros)
    assert slack == -3.0
    assert member.label == "lg5:++++-"


def test_evaluate_chsh_point():
    s = 1 / math.sqrt(2)
    data = CorrelatorSet(4, {(1, 2): s, (2, 3): s, (3, 4): s, (1, 4): -s})
    member, slack = max_violation(lg_family(4), data)
    assert slack == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)


def test_evaluate_missing_correlator_raises():
    chain = CorrelatorSet(4, {pair: 0.0 for pair in chain_pairs(4)})
    with pytest.raises(MissingCorrelatorError):
        ngon_family(4).slacks(chain)


def test_evaluate_momentspec_defaults_missing_to_zero():
    family = ngon_family(4)
    assert np.array_equal(family.slacks(MomentSpec(4, {})), -family.bounds)


def test_distinct_counts():
    assert len(distinct_under_equal_spacing(lg_family(3)).members) == 3
    assert len(distinct_under_equal_spacing(lg_family(10)).members) == 10
    assert len(distinct_under_equal_spacing(ngon_family(5)).members) == 10
    assert len(distinct_under_equal_spacing(ngon_family(10)).members) == 272


def test_gap_weights_refuse_the_b_terms():
    with pytest.raises(ValidationError):
        gap_weights(two_time_complete(3))


def test_distinct_classes_agree_on_random_equal_spacing():
    # every collapsed member must match its representative's slack for any
    # gap-dependent assignment C_ij = g(j - i)
    rng = np.random.default_rng(20240817)
    for family in (lg_family(6), ngon_family(5)):
        groups = {}
        for row, member in enumerate(family.members):
            weights = [0] * family.n
            for (i, j), coeff in member.terms.items():
                weights[j - i] += coeff
            groups.setdefault((tuple(weights[1:]), member.bound), []).append(row)
        reps = distinct_under_equal_spacing(family)
        assert len(reps.members) == len(groups)
        for _ in range(100):
            g = rng.uniform(-1.0, 1.0, family.n)
            data = CorrelatorSet(
                family.n, {(i, j): float(g[j - i]) for i, j in complete_pairs(family.n)}
            )
            slacks = family.slacks(data)
            for rows in groups.values():
                assert slacks[rows].max() - slacks[rows].min() < 1e-12


def test_necessity_on_random_distributions():
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = int(rng.integers(3, 7))
        spec = moments_from_distribution(random_nonneg_distribution(rng, n))
        for family in (lg_family(n), ngon_family(n), three_time_complete(n), two_time_complete(n)):
            assert (family.slacks(spec) <= 1e-9).all()


def test_ngon4_slack_is_half_the_three_time_average():
    # the n=4 sign-vector condition is the average of the four inherited
    # three-time conditions; with the members normalized to integer
    # coefficients the slack relation carries a fixed factor 2
    rng = np.random.default_rng(11)
    three, ngon = three_time_complete(4), ngon_family(4)
    three_row = {label: row for row, label in enumerate(three.labels())}
    for row, member in enumerate(ngon.members):
        s = [1] + [1 if member.terms[(1, j)] == -1 else -1 for j in (2, 3, 4)]
        data = CorrelatorSet(
            4, {pair: float(rng.uniform(-1, 1)) for pair in complete_pairs(4)}
        )
        three_slacks = three.slacks(data)
        partner_slacks = []
        for i, j, k in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            signs = (s[i - 1], s[j - 1], s[k - 1])
            if signs[0] < 0:
                signs = tuple(-v for v in signs)
            pattern = "".join("+" if v > 0 else "-" for v in signs)
            partner_slacks.append(three_slacks[three_row[f"three4:{i}.{j}.{k}:{pattern}"]])
        average = sum(partner_slacks) / 4.0
        assert ngon.slacks(data)[row] == pytest.approx(2.0 * average, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_two_time_is_three_time_with_a_reference_time(n):
    # times 1..n+1 relabelled t -> t - 1: the triples (1, i, j) become
    # (0, i - 1, j - 1), whose (0, k) terms are the B_k terms
    def relabelled(member):
        terms = {(i - 1, j - 1): c for (i, j), c in member.terms.items() if i > 1}
        linear = {j - 1: c for (i, j), c in member.terms.items() if i == 1}
        return terms, linear, member.bound

    three = [m for m in three_time_complete(n + 1) if any(i == 1 for i, _ in m.terms)]
    two = [(m.terms, m.linear, m.bound) for m in two_time_complete(n)]
    assert [relabelled(m) for m in three] == two


def test_family_json_shape():
    payload = family_to_json_list(lg_family(3))
    assert len(payload) == 4
    assert payload[0]["terms"] == {"1,2": 1, "1,3": -1, "2,3": 1}
    assert payload[0]["bound"] == 1.0
    two = family_to_json_list(two_time_complete(2))
    assert two[0]["linear"] == {"1": -1, "2": -1}


def test_len_and_indexing_do_not_build_members():
    big = lg_family(20)
    assert len(big) == 2**19
    assert big[0].label == "lg20:+++++++++++++++++++-"
    assert big[-1].label == "lg20:-------------------+"
    with pytest.raises(IndexError):
        big[2**19]
    assert "members" not in vars(big)
    for family in (lg_family(5), ngon_family(4, raw=True), three_time_complete(4),
                   two_time_complete(3)):
        assert [family[k] for k in range(len(family))] == list(family.members)
        assert family.members is family.members


def test_a_sub_family_slacks_its_own_rows():
    family = lg_family(6)
    data = CorrelatorSet(6, {pair: 0.3 for pair in chain_pairs(6)})
    first = family.slacks(data)
    rows = np.arange(len(family) - 1, -1, -3)
    assert family.take(rows).slacks(data).tobytes() == first[rows].tobytes()


@pytest.mark.parametrize("build", [lg_family, ngon_family, three_time_complete, two_time_complete])
def test_slacks_match_the_per_row_reference_bit_for_bit(build):
    for n in range(3, 9):
        family = build(n)
        rng = np.random.default_rng(n)
        for values in slack_inputs(len(family.pairs), rng):
            got = _slacks(family.coefficients, family.bounds, values)
            want = reference_slacks(family.coefficients, family.bounds, values)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_slacks_start_from_negative_zero():
    # with a zero bound the sign of a zero sum shows: -0.0 + -0.0 + -0.0
    # stays -0.0, where a start from +0.0 would give +0.0
    coefficients = np.array([[1, -1], [1, 1]], dtype=np.int8)
    slacks = _slacks(coefficients, np.zeros(2), np.array([-0.0, 0.0]))
    assert slacks.tolist() == [0.0, 0.0] and np.signbit(slacks).tolist() == [True, False]


def test_fraction_values_give_exact_fraction_slacks():
    family = two_time_complete(4)
    rng = np.random.default_rng(5)
    bounds = _fractions(family.bounds)
    for values in (rng.uniform(-1.0, 1.0, 10), rng.choice(SLACK_VALUES, (10, 3))):
        got = _slacks(family.coefficients, bounds, _fractions(values))
        exact = [[sum((Fraction(float(x)) * c for c, x in zip(row.tolist(), column)), Fraction(0))
                  - int(bound) for column in np.atleast_2d(values.T)]
                 for row, bound in zip(family.coefficients, family.bounds)]
        assert all(type(slack) is Fraction for slack in got.flat)
        assert got.reshape(len(family), -1).tolist() == exact
