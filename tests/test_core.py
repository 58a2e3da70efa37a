from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lgfeas import (
    CorrelatorSet,
    DimensionError,
    JointDistribution,
    MissingCorrelatorError,
    MomentSpec,
    SignVector,
    ValidationError,
    chain_pairs,
    complete_pairs,
    distribution_from_moments,
    marginalize,
    moments_from_distribution,
    pairwise_probability,
)
from util import random_nonneg_distribution


def test_sign_vector_index_convention():
    # bit k = 0 means s_{k+1} = +1, little-endian in the time index
    assert SignVector.from_index(0, 3).signs == (1, 1, 1)
    assert SignVector.from_index(1, 3).signs == (-1, 1, 1)
    assert SignVector.from_index(4, 3).signs == (1, 1, -1)
    for idx in range(8):
        assert SignVector.from_index(idx, 3).index == idx


def test_sign_vector_validation():
    with pytest.raises(ValidationError):
        SignVector((1, 0, -1))
    with pytest.raises(DimensionError):
        SignVector(())
    with pytest.raises(DimensionError):
        SignVector((1,) * 21)


def test_chain_pairs_layout():
    assert chain_pairs(4) == ((1, 2), (2, 3), (3, 4), (1, 4))
    assert chain_pairs(2) == ((1, 2),)
    assert len(complete_pairs(6)) == 15


def test_moments_of_uniform_are_zero():
    spec = moments_from_distribution(JointDistribution.uniform(3))
    assert spec.n == 3
    assert all(abs(v) < 1e-15 for v in spec.moments.values())
    assert len(spec.moments) == 7


def test_moments_of_point_mass():
    spec = moments_from_distribution(JointDistribution.point_mass((1, 1, 1)))
    assert all(v == 1.0 for v in spec.moments.values())


def test_moments_of_equal_mixture():
    # direct sum over the two supported outcomes: odd subsets cancel,
    # even subsets add to 1
    p = np.zeros(8)
    p[SignVector((1, 1, 1)).index] = 0.5
    p[SignVector((-1, -1, -1)).index] = 0.5
    spec = moments_from_distribution(JointDistribution(3, p))
    for i in (1, 2, 3):
        assert spec.b(i) == 0.0
    for pair in complete_pairs(3):
        assert spec.c(*pair) == 1.0
    assert spec.get((1, 2, 3)) == 0.0


def test_distribution_from_zero_moments_is_uniform():
    dist = distribution_from_moments(MomentSpec(2, {}))
    assert np.allclose(dist.p, 0.25, atol=1e-15)


def test_distribution_perfect_correlation():
    dist = distribution_from_moments(MomentSpec(2, {(1, 2): 1.0}))
    assert dist.p_of((1, 1)) == pytest.approx(0.5, abs=1e-15)
    assert dist.p_of((-1, -1)) == pytest.approx(0.5, abs=1e-15)
    assert dist.p_of((1, -1)) == pytest.approx(0.0, abs=1e-15)
    assert dist.p_of((-1, 1)) == pytest.approx(0.0, abs=1e-15)


def test_distribution_can_go_negative():
    # all pair moments -1/2: the expansion gives (1 - 3/2)/8 at the
    # aligned outcomes, a quasi-distribution
    spec = MomentSpec(3, {(1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5})
    dist = distribution_from_moments(spec)
    assert dist.p_of((1, 1, 1)) == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert not dist.is_nonnegative()
    assert dist.total() == pytest.approx(1.0, abs=1e-12)


def test_pairwise_probability_values():
    assert pairwise_probability(0, 0, 0, 1, 1) == 0.25
    assert pairwise_probability(0, 0, 1, 1, -1) == 0.0
    assert pairwise_probability(1, 0, 0, -1, 1) == 0.0


def test_marginalize_examples():
    uniform2 = marginalize(JointDistribution.uniform(3), {1, 2})
    assert np.allclose(uniform2.p, 0.25)

    single = marginalize(JointDistribution.point_mass((1, 1, 1)), {2})
    assert single.n == 1
    assert single.p_of((1,)) == 1.0

    p = np.zeros(8)
    p[SignVector((1, 1, 1)).index] = 0.5
    p[SignVector((-1, -1, -1)).index] = 0.5
    pair = marginalize(JointDistribution(3, p), {1, 3})
    assert pair.p_of((1, 1)) == 0.5
    assert pair.p_of((-1, -1)) == 0.5
    assert pair.p_of((1, -1)) == 0.0


def test_marginalize_rejects_bad_subsets():
    with pytest.raises(ValidationError):
        marginalize(JointDistribution.uniform(3), set())
    with pytest.raises(DimensionError):
        marginalize(JointDistribution.uniform(3), {4})


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_round_trip_distribution_moments(n, seed):
    dist = random_nonneg_distribution(np.random.default_rng(seed), n)
    back = distribution_from_moments(moments_from_distribution(dist))
    assert np.abs(back.p - dist.p).max() < 1e-12


@given(st.integers(2, 5), st.data())
def test_normalization_holds_for_any_moments(n, data):
    coeff = st.floats(-1.0, 1.0)
    moments = {}
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            moments[subset] = data.draw(coeff)
    dist = distribution_from_moments(MomentSpec(n, moments))
    assert abs(dist.total() - 1.0) <= 1e-12


@given(st.integers(2, 5), st.data())
def test_pair_marginal_matches_pairwise_probability(n, data):
    # the expansion's pair marginals agree with the two-time formula built
    # from the same coefficients, for arbitrary (quasi) moment data
    coeff = st.floats(-1.0, 1.0)
    moments = {(i,): data.draw(coeff) for i in range(1, n + 1)}
    moments.update({pair: data.draw(coeff) for pair in complete_pairs(n)})
    dist = distribution_from_moments(MomentSpec(n, moments))
    for i, j in complete_pairs(n):
        pair_dist = marginalize(dist, {i, j})
        for s_i in (1, -1):
            for s_j in (1, -1):
                expected = pairwise_probability(
                    moments[(i,)], moments[(j,)], moments[(i, j)], s_i, s_j
                )
                assert pair_dist.p_of((s_i, s_j)) == pytest.approx(expected, abs=1e-12)


@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_moment_bound_for_nonneg_distributions(n, seed):
    dist = random_nonneg_distribution(np.random.default_rng(seed), n)
    spec = moments_from_distribution(dist)
    assert max(abs(v) for v in spec.moments.values()) <= 1.0 + 1e-12


def test_moment_spec_validation():
    with pytest.raises(ValidationError):
        MomentSpec(3, {(2, 1): 0.5})
    with pytest.raises(ValidationError):
        MomentSpec(3, {(1, 4): 0.5})
    with pytest.raises(ValidationError):
        MomentSpec(3, {(1, 2): 1.5})
    with pytest.raises(DimensionError):
        MomentSpec(21, {})


def test_moment_spec_json_round_trip():
    spec = MomentSpec(5, {(1,): 0.25, (1, 2): -0.5, (1, 2, 3): 0.125})
    payload = spec.to_json_dict()
    assert payload["moments"]["1,2,3"] == 0.125
    again = MomentSpec.from_json_dict(payload)
    assert again.moments == spec.moments


def test_correlator_set_patterns():
    chain = CorrelatorSet(4, {pair: 0.1 for pair in chain_pairs(4)})
    assert chain.pattern == "chain"
    full = CorrelatorSet(4, {pair: 0.1 for pair in complete_pairs(4)})
    assert full.pattern == "complete"
    # n=3 chain and complete coincide
    assert CorrelatorSet(3, {pair: 0.0 for pair in chain_pairs(3)}).is_complete
    with pytest.raises(ValidationError):
        CorrelatorSet(4, {(1, 2): 0.1, (3, 4): 0.2})


def test_correlator_set_from_json_rejects_non_numeric_value():
    with pytest.raises(ValidationError):
        CorrelatorSet.from_json_dict({"n": 3, "correlators": {"1,2": "x"}})


def test_correlator_set_from_json_rejects_non_mapping_correlators():
    with pytest.raises(ValidationError):
        CorrelatorSet.from_json_dict({"n": 3, "correlators": [1]})


_JSON_READERS = [
    lambda n: MomentSpec.from_json_dict({"n": n, "moments": {"1,2": 0.5}}),
    lambda n: CorrelatorSet.from_json_dict({"n": n, "correlators": {"1,2": 0.5}}),
    lambda n: JointDistribution.from_json_dict({"n": n, "p": [0.25] * 4}),
]


@pytest.mark.parametrize("n", [2.9, 2.0, "2", True])
@pytest.mark.parametrize("read", _JSON_READERS)
def test_json_n_must_be_a_json_integer(read, n):
    with pytest.raises(ValidationError):
        read(n)


def test_joint_distribution_from_json_rejects_non_numeric_p():
    with pytest.raises(ValidationError):
        JointDistribution.from_json_dict({"n": 2, "p": ["x", 0.5, 0.25, 0.25]})


def test_correlator_set_lookup():
    chain = CorrelatorSet(4, {pair: 0.1 for pair in chain_pairs(4)})
    assert chain.value(1, 4) == 0.1
    with pytest.raises(MissingCorrelatorError):
        chain.value(1, 3)


def test_joint_distribution_validation():
    with pytest.raises(ValidationError):
        JointDistribution(2, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(DimensionError):
        JointDistribution(2, np.array([1.0]))
    quasi = JointDistribution(2, np.array([1.25, 0.25, -0.25, -0.25]))
    assert not quasi.is_nonnegative()
    assert quasi.min_value() == -0.25


def test_joint_distribution_json_round_trip():
    dist = JointDistribution.uniform(3)
    again = JointDistribution.from_json_dict(dist.to_json_dict())
    assert np.array_equal(again.p, dist.p)
