import math
import re
from fractions import Fraction
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
    ValidationError,
    chain_pairs,
    complete_pairs,
    distribution_from_moments,
    marginalize,
    moments_from_distribution,
    pairwise_probability,
)
from lgfeas import core
from lgfeas.core import _walsh_hadamard, parse_subset_key
from util import (
    outcome_index,
    random_nonneg_distribution,
    reference_dense,
    reference_moments,
    reference_walsh_hadamard,
)


def test_sign_vector_index_convention():
    # bit k = 0 means s_{k+1} = +1, little-endian in the time index: the
    # point mass at an index has B_{k+1} = -1 exactly when bit k is set
    assert outcome_index((1, 1, 1)) == 0
    assert outcome_index((-1, 1, 1)) == 1
    assert outcome_index((1, 1, -1)) == 4
    for idx in range(8):
        p = np.zeros(8)
        p[idx] = 1.0
        spec = moments_from_distribution(JointDistribution(3, p))
        assert spec.singles() == tuple(-1.0 if idx >> k & 1 else 1.0 for k in range(3))


def test_chain_pairs_layout():
    assert chain_pairs(4) == ((1, 2), (2, 3), (3, 4), (1, 4))
    assert chain_pairs(2) == ((1, 2),)
    assert len(complete_pairs(6)) == 15


def test_moments_of_uniform_are_zero():
    spec = moments_from_distribution(JointDistribution(3, np.full(8, 1 / 8)))
    assert spec.n == 3
    assert all(abs(v) < 1e-15 for v in spec.moments.values())
    assert len(spec.moments) == 7


def test_moments_of_point_mass():
    p = np.zeros(8)
    p[outcome_index((1, 1, 1))] = 1.0
    spec = moments_from_distribution(JointDistribution(3, p))
    assert all(v == 1.0 for v in spec.moments.values())


def test_moments_of_equal_mixture():
    # direct sum over the two supported outcomes: odd subsets cancel,
    # even subsets add to 1
    p = np.zeros(8)
    p[outcome_index((1, 1, 1))] = 0.5
    p[outcome_index((-1, -1, -1))] = 0.5
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
    assert dist.p[outcome_index((1, 1))] == pytest.approx(0.5, abs=1e-15)
    assert dist.p[outcome_index((-1, -1))] == pytest.approx(0.5, abs=1e-15)
    assert dist.p[outcome_index((1, -1))] == pytest.approx(0.0, abs=1e-15)
    assert dist.p[outcome_index((-1, 1))] == pytest.approx(0.0, abs=1e-15)


def test_distribution_can_go_negative():
    # all pair moments -1/2: the expansion gives (1 - 3/2)/8 at the
    # aligned outcomes, a quasi-distribution
    spec = MomentSpec(3, {(1, 2): -0.5, (2, 3): -0.5, (1, 3): -0.5})
    dist = distribution_from_moments(spec)
    assert dist.p[outcome_index((1, 1, 1))] == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert dist.p.min() < -1e-9
    assert math.fsum(dist.p.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_pairwise_probability_values():
    assert pairwise_probability(0, 0, 0, 1, 1) == 0.25
    assert pairwise_probability(0, 0, 1, 1, -1) == 0.0
    assert pairwise_probability(1, 0, 0, -1, 1) == 0.0


def test_marginalize_examples():
    uniform2 = marginalize(JointDistribution(3, np.full(8, 1 / 8)), {1, 2})
    assert np.allclose(uniform2.p, 0.25)

    point = np.zeros(8)
    point[outcome_index((1, 1, 1))] = 1.0
    single = marginalize(JointDistribution(3, point), {2})
    assert single.n == 1
    assert single.p[outcome_index((1,))] == 1.0

    p = np.zeros(8)
    p[outcome_index((1, 1, 1))] = 0.5
    p[outcome_index((-1, -1, -1))] = 0.5
    pair = marginalize(JointDistribution(3, p), {1, 3})
    assert pair.p[outcome_index((1, 1))] == 0.5
    assert pair.p[outcome_index((-1, -1))] == 0.5
    assert pair.p[outcome_index((1, -1))] == 0.0


def test_marginalize_rejects_bad_subsets():
    with pytest.raises(ValidationError):
        marginalize(JointDistribution(3, np.full(8, 1 / 8)), set())
    with pytest.raises(DimensionError):
        marginalize(JointDistribution(3, np.full(8, 1 / 8)), {4})


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
    assert abs(math.fsum(dist.p.tolist()) - 1.0) <= 1e-12


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
                assert pair_dist.p[outcome_index((s_i, s_j))] == pytest.approx(expected, abs=1e-12)


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


def _bits(values) -> bytes:
    return np.array(list(values), dtype=np.float64).tobytes()


def _quasi_distribution(rng, n) -> JointDistribution:
    """The expansion of random coefficients in [-1, 1]: a quasi-distribution
    with negative entries for n >= 2."""
    dense = np.concatenate(([1.0], rng.uniform(-1.0, 1.0, (1 << n) - 1)))
    p = _walsh_hadamard(dense) / (1 << n)
    return JointDistribution(n, p - (math.fsum(p.tolist()) - 1.0) / p.size)


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("kind", ["random", "quasi"])
def test_conversions_match_the_per_subset_reference(n, kind):
    # keys, key order and float bits of the old one-subset-at-a-time builders,
    # on both sides of the entry count where the array passes take over
    rng = np.random.default_rng([n, kind == "quasi"])
    dist = random_nonneg_distribution(rng, n) if kind == "random" else _quasi_distribution(rng, n)
    if kind == "quasi":
        assert dist.p.min() < 0.0
    spec = moments_from_distribution(dist)
    expected = reference_moments(dist)
    assert spec.moments == expected
    assert list(spec.moments) == list(expected)
    assert _bits(spec.moments.values()) == _bits(expected.values())
    assert spec.to_dense().tobytes() == reference_dense(spec).tobytes()
    # a sparse spec in shuffled key order, holding ints, Fractions and numpy floats
    keys = list(expected)
    picked = [keys[k] for k in rng.permutation(len(keys))[: max(1, len(keys) // 3)]]
    kinds = [float, np.float64, np.float32, lambda v: Fraction(round(v * 64), 64), lambda v: int(v)]
    sparse = MomentSpec(n, {key: kinds[k % 5](expected[key]) for k, key in enumerate(picked)})
    assert list(sparse.moments) == picked
    assert all(type(v) is float for v in sparse.moments.values())
    assert sparse.to_dense().tobytes() == reference_dense(sparse).tobytes()


def _full_moments(n: int) -> dict:
    return reference_moments(JointDistribution(n, np.full(1 << n, 1.0 / (1 << n))))


_BAD_KEYS = [
    ((2, 1), "subset (2, 1) is not strictly increasing"),
    ((1, 1), "subset (1, 1) is not strictly increasing"),
    ((), "subset () is not strictly increasing"),
    ((0, 2), "subset (0, 2) out of range for n=6"),
    ((-1, 2), "subset (-1, 2) out of range for n=6"),
    ((2, 7), "subset (2, 7) out of range for n=6"),
    ((2, 300), "subset (2, 300) out of range for n=6"),
    ((1.5, 2), "subset (1.5, 2) is not a tuple of integer times"),
    ((1.0, 2), "subset (1.0, 2) is not a tuple of integer times"),
    ((True, 2), "subset (True, 2) is not a tuple of integer times"),
    ((1, "2"), "subset (1, '2') is not a tuple of integer times"),
    (1, "subset 1 is not a tuple of integer times"),
    ("12", "subset '12' is not a tuple of integer times"),
    (frozenset({1, 2}), "is not a tuple of integer times"),
]


@pytest.mark.parametrize("size", ["small", "large"])
@pytest.mark.parametrize(("key", "message"), _BAD_KEYS)
def test_each_malformed_key_gets_its_message(size, key, message):
    # a one-entry map is walked; 63 valid entries take the array passes
    # first, then the walk names the bad key
    moments = _full_moments(6) if size == "large" else {}
    moments.pop(key, None)  # (1.0, 2) and (True, 2) equal the key (1, 2)
    moments[key] = 0.5
    with pytest.raises(ValidationError, match=re.escape(message)):
        MomentSpec(6, moments)


@pytest.mark.parametrize("size", ["small", "large"])
@pytest.mark.parametrize("value", [None, "0.5", True, np.True_, math.nan, math.inf, -1.5,
                                   Fraction(3, 2), pytest.param(10**400, id="10**400"),
                                   pytest.param(Fraction(10**400), id="Fraction(10**400)")])
def test_malformed_values_are_refused(size, value):
    moments = _full_moments(6) if size == "large" else {}
    moments[(2, 3)] = value
    with pytest.raises(ValidationError, match=re.escape("moment (2, 3) must")):
        MomentSpec(6, moments)


@pytest.mark.parametrize("size", ["small", "large"])
def test_the_first_malformed_entry_is_named(size):
    moments = _full_moments(6) if size == "large" else {(1,): 0.0}
    moments.pop((1, 2), None)  # so that it follows (3, 2)
    moments.update({(3, 2): 0.5, (1, 2): 2.0, (9,): 0.0})
    with pytest.raises(ValidationError, match=re.escape("subset (3, 2) is not strictly")):
        MomentSpec(6, moments)
    del moments[(3, 2)]
    with pytest.raises(ValidationError, match=re.escape("moment (1, 2) must lie in [-1, 1]")):
        MomentSpec(6, moments)


@pytest.mark.parametrize("size", ["small", "large"])
def test_real_values_are_stored_as_floats(size):
    moments = _full_moments(6) if size == "large" else {}
    moments.update({(1,): Fraction(1, 3), (2,): np.float32(0.25), (3,): 1, (4,): np.int64(-1),
                    (np.int64(2), np.int64(5)): 1.0 + 1e-13})
    spec = MomentSpec(6, moments)
    assert spec.b(1) == 1 / 3 and spec.b(2) == 0.25 and spec.b(3) == 1.0 and spec.b(4) == -1.0
    assert spec.c(2, 5) == 1.0 + 1e-13
    assert all(type(v) is float for v in spec.moments.values())


@pytest.mark.parametrize("mixed", [False, True])
def test_valid_large_maps_are_not_walked(monkeypatch, mixed):
    # the array passes accept every well-formed map on their own; the walk
    # runs only to name a malformed entry
    moments = _full_moments(7)
    if mixed:
        moments.update({(1,): Fraction(1, 3), (2,): np.float32(0.25), (3,): 1,
                        (np.int64(2), np.int64(5)): np.float64(-0.5)})
    monkeypatch.setattr(core, "_check_subset", None)
    spec = MomentSpec(7, moments)
    assert spec.moments == {key: float(value) for key, value in moments.items()}


def test_valid_small_maps_and_correlator_sets_are_not_walked(monkeypatch):
    # one check at every size: a 3-entry map and both correlator patterns
    # take the array passes alone, as the large maps do
    monkeypatch.setattr(core, "_check_subset", None)
    monkeypatch.setattr(core, "_validate_coefficient", None)
    moments = {(1,): Fraction(1, 3), (np.int64(2), np.int64(5)): np.float32(0.25), (1, 2, 3): 1}
    assert MomentSpec(7, moments).moments == {(1,): 1 / 3, (2, 5): 0.25, (1, 2, 3): 1.0}
    for n, pairs in ((3, chain_pairs), (7, complete_pairs)):
        entries = {pair: 0.125 * (k % 9 - 4) for k, pair in enumerate(pairs(n))}
        assert CorrelatorSet(n, entries).entries == entries


def test_conversions_at_n_18_match_the_reference_on_a_sample():
    dist = _quasi_distribution(np.random.default_rng(18), 18)
    spec = moments_from_distribution(dist)
    coeffs = _walsh_hadamard(dist.p)
    masks = np.random.default_rng(0).integers(1, 1 << 18, 500).tolist()
    keys = list(spec.moments)
    for mask in masks:
        subset = keys[mask - 1]
        assert sum(1 << (t - 1) for t in subset) == mask
        assert np.float64(spec.moments[subset]).tobytes() == coeffs[mask].tobytes()
    dense = spec.to_dense()
    assert dense[0] == 1.0 and dense[1:].tobytes() == coeffs[1:].tobytes()


def test_masks_of_subsets_of_the_times_0_to_n_match_a_per_subset_sum():
    # time 0 (s_0 = +1) and the empty key add no bit; the oracle's rows and
    # certificate check read their pair masks from here
    subsets = [s for size in range(7) for s in combinations(range(7), size)]
    rng = np.random.default_rng(5)
    for keys in (subsets, subsets[1:], [()], [(), ()], [(0,), (), (0, 3)],
                 [subsets[k] for k in rng.integers(0, len(subsets), 300).tolist()]):
        assert core._masks(keys).tolist() == [sum((1 << t) >> 1 for t in key) for key in keys]


def _exact_sum_cases(rng, size):
    # ordinary distributions, values over the whole exponent range, values
    # on a few binades with subnormals and exact cancellations, and
    # alternating halves whose partial sums tie between two floats
    yield rng.dirichlet(np.ones(size))
    yield rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-300, 300, size)
    yield rng.choice([0.1, -0.1, 2.0**-1074, -(2.0**-1074), 1.0, -1.0, 2.0**-53, 3.0, 0.0], size)
    yield np.where(np.arange(size) % 2, 2.0**-53, 1.0) * rng.choice([1.0, -1.0], size)


@pytest.mark.parametrize("size", [1, 2047, 2048, 2049, 1 << 16, (1 << 16) + 5, 1 << 18])
def test_exact_sum_equals_fsum_bit_for_bit(size):
    rng = np.random.default_rng(size)
    for values in _exact_sum_cases(rng, size):
        want = math.fsum(values.tolist())
        if want:
            assert np.float64(core._exact_sum(values)).tobytes() == np.float64(want).tobytes()
        else:
            assert core._exact_sum(values) == 0.0


def test_exact_sum_of_non_finite_values_follows_numpy():
    values = np.zeros(4096)
    values[7] = math.inf
    assert core._exact_sum(values) == math.inf
    values[9] = math.nan
    assert math.isnan(core._exact_sum(values))


def test_drift_correction_keeps_the_fsum_shift():
    # the shift of the list-based fsum, bit for bit, at 2^14 entries
    for seed in range(4):
        p = _quasi_distribution(np.random.default_rng(seed), 14).p * (1 + 1e-13)
        want = p - (math.fsum(p.tolist()) - 1.0) / p.size
        assert core._drift_corrected(p).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 21))
def test_walsh_hadamard_equals_the_copying_reference_byte_for_byte(n):
    values = np.random.default_rng(n).standard_normal(1 << n)
    before = values.tobytes()
    got = _walsh_hadamard(values)
    assert got.dtype == np.float64 and got.shape == values.shape
    assert got.tobytes() == reference_walsh_hadamard(values).tobytes()
    assert values.tobytes() == before  # the input is not transformed in place


@pytest.mark.parametrize("k", [1, 2, 7, 18, 64])
def test_walsh_hadamard_of_block_rows_equals_the_reference_byte_for_byte(k):
    # fine_build's three-time blocks: (k x 8) rows, passed as a list or an array
    rows = np.random.default_rng(k).uniform(-1.0, 1.0, (k, 8))
    want = reference_walsh_hadamard(rows)
    for values in (rows, rows.tolist(), rows.T.copy().T):
        got = _walsh_hadamard(values)
        assert got.shape == (k, 8)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


# " 1", "+1", "01", the Arabic-Indic one and a trailing newline all parse
# as 1, so a second spelling of a key would overwrite the first
@pytest.mark.parametrize("key", ["1,x", "2,1", "1, 4", "+1,4", "01,4", "\u0661,4", "1,4\n"])
def test_parse_subset_key_refuses_a_malformed_key(key):
    with pytest.raises(ValidationError):
        parse_subset_key(key)


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
    assert CorrelatorSet(3, {pair: 0.0 for pair in chain_pairs(3)}).pattern == "complete"
    with pytest.raises(ValidationError):
        CorrelatorSet(4, {(1, 2): 0.1, (3, 4): 0.2})


def test_correlator_set_pattern_is_decided_at_construction(monkeypatch):
    built = {(n, pairs.__name__): CorrelatorSet(n, {pair: 0.0 for pair in pairs(n)})
             for n in (2, 3, 4, 20) for pairs in (chain_pairs, complete_pairs)}

    def refuse(n):
        raise AssertionError("the pattern was decided again")

    monkeypatch.setattr(core, "chain_pairs", refuse)
    monkeypatch.setattr(core, "complete_pairs", refuse)
    for (n, pairs), data in built.items():
        assert data.pattern == ("chain" if n > 3 and pairs == "chain_pairs" else "complete")


@pytest.mark.parametrize("value", ["0.5", True, None, math.nan, 1.5, "x"])
def test_correlator_values_follow_the_moment_rule(value):
    entries = {(1, 2): value, (2, 3): 0.0, (1, 3): 0.0}
    with pytest.raises(ValidationError, match=re.escape("correlator (1, 2) must")):
        CorrelatorSet(3, entries)
    # a moment file, the one way correlators come in from JSON
    payload = {"n": 3, "moments": {"1,2": value, "2,3": 0.0, "1,3": 0.0}}
    with pytest.raises(ValidationError, match=re.escape("moment (1, 2) must")):
        MomentSpec.from_json_dict(payload)


# a key that is no subset gets the moment key message; a subset of one or
# three times gets the pattern message
_BAD_PAIR_KEYS = {
    1: "subset 1 is not a tuple of integer times",
    (1,): "correlator key set must follow the chain pattern or be complete",
    (1, 2, 3): "correlator key set must follow the chain pattern or be complete",
    (1.5, 2): "subset (1.5, 2) is not a tuple of integer times",
    (True, 2): "subset (True, 2) is not a tuple of integer times",
}


@pytest.mark.parametrize("key", list(_BAD_PAIR_KEYS))
def test_correlator_keys_must_be_pairs_of_integer_times(key):
    with pytest.raises(ValidationError, match=re.escape(_BAD_PAIR_KEYS[key])):
        CorrelatorSet(3, {key: 0.0, (2, 3): 0.0, (1, 3): 0.0})


def test_an_empty_correlator_set_gets_the_pattern_message():
    with pytest.raises(ValidationError, match="must follow the chain pattern or be complete"):
        CorrelatorSet(4, {})


def test_correlator_values_are_stored_as_floats():
    data = CorrelatorSet(3, {(1, 2): Fraction(1, 2), (2, 3): 1, (1, 3): np.float32(0.25)})
    assert data.entries == {(1, 2): 0.5, (2, 3): 1.0, (1, 3): 0.25}
    assert all(type(v) is float for v in data.entries.values())


def test_moment_spec_from_json_rejects_non_mapping_moments():
    with pytest.raises(ValidationError, match="malformed moment payload"):
        MomentSpec.from_json_dict({"n": 3, "moments": [1]})


_JSON_READERS = [
    lambda n: MomentSpec.from_json_dict({"n": n, "moments": {"1,2": 0.5}}),
    # no moments to range-check: n alone must still be refused
    lambda n: MomentSpec.from_json_dict({"n": n}),
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


@pytest.mark.parametrize("p", [["0.5", "0.5"], [True, False]])
def test_joint_distribution_from_json_follows_the_moment_value_rule(p):
    # both once read as numbers: [0.5, 0.5] and [1.0, 0.0] sum to 1
    with pytest.raises(ValidationError, match="must be numbers"):
        JointDistribution.from_json_dict({"n": 1, "p": p})
    assert JointDistribution.from_json_dict({"n": 1, "p": [1, 0]}).p.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("p", [None, True, "0.5", 0.5], ids=["null", "true", "string", "number"])
def test_joint_distribution_from_json_refuses_a_scalar_p(p):
    with pytest.raises(ValidationError, match="malformed distribution payload"):
        JointDistribution.from_json_dict({"n": 1, "p": p})


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
    with pytest.raises(ValidationError, match="finite"):
        JointDistribution(2, np.array([0.5, math.nan, 0.25, 0.25]))
    quasi = JointDistribution(2, np.array([1.25, 0.25, -0.25, -0.25]))
    assert quasi.p.min() == -0.25


def test_joint_distribution_json_round_trip():
    dist = JointDistribution(3, np.full(8, 1 / 8))
    again = JointDistribution.from_json_dict(dist.to_json_dict())
    assert np.array_equal(again.p, dist.p)
