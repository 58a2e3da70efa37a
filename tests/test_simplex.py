from fractions import Fraction

import numpy as np
import pytest

import lgfeas.simplex as simplex
from lgfeas.core import complete_pairs
from lgfeas.feasibility import _constraint_rows, _draw_block, _suspended
from lgfeas.simplex import solve_phase1
from util import gauss_jordan


def _fractions(values):
    return np.frompyfunc(Fraction, 1, 1)(np.array(values, dtype=object))


@pytest.fixture
def routes(monkeypatch):
    """Records, per exact solve, whether the float basis could be rebuilt."""
    seen = []
    enter_basis = simplex._enter_basis

    def spy(*args):
        seen.append(enter_basis(*args))
        return seen[-1]

    monkeypatch.setattr(simplex, "_enter_basis", spy)
    return seen


def test_feasible_square_system():
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 0.0])
    result = solve_phase1(a, b)
    assert result.feasible
    assert np.allclose(result.x, [0.5, 0.5])


def test_infeasible_negative_requirement():
    # x1 + x2 = -1 has no non-negative solution
    result = solve_phase1(np.array([[1.0, 1.0]]), np.array([-1.0]))
    assert not result.feasible
    assert result.objective == pytest.approx(1.0)


def test_infeasible_contradictory_rows():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    result = solve_phase1(a, b)
    assert not result.feasible
    assert result.objective > 0.4


def test_underdetermined_feasible_certificate_residual():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = 4, 12
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 1.0, n)
        b = a @ x0
        result = solve_phase1(a, b)
        assert result.feasible
        assert np.all(result.x >= -1e-12)
        assert np.abs(a @ result.x - b).max() < 1e-9


def test_degenerate_rhs_zero():
    a = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    result = solve_phase1(a, np.zeros(2))
    assert result.feasible
    assert np.allclose(result.x, 0.0, atol=1e-12)


def test_exact_matches_float_on_small_rationals():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m, n = 3, 6
        a = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-3, 4, size=m).astype(float)
        float_result = solve_phase1(a, b)
        exact_result = solve_phase1(_fractions(a), _fractions(b))
        assert float_result.feasible == exact_result.feasible
        if exact_result.feasible:
            residual = a @ exact_result.x - b
            assert np.abs(residual).max() < 1e-9


def test_exact_is_decisive_on_knife_edge():
    # x1 - x2 = 0, x1 + x2 = 1 forces x = (1/2, 1/2); exact objective is 0
    a = [[1, -1], [1, 1]]
    result = solve_phase1(_fractions(a), _fractions([0, 1]))
    assert result.feasible
    assert result.objective == 0.0
    assert np.allclose(result.x, [0.5, 0.5])


def _triangle_rhs(c12):
    # complete n = 3 with zero averages; C12 + C13 + C23 >= -1 is the binding facet
    third = Fraction(-1, 3)
    return np.array([Fraction(1), 0, 0, 0, c12, third, third], dtype=object)


def test_exact_confirms_float_basis_on_the_triangle_facet(routes):
    a = _constraint_rows(3, _suspended(3, complete_pairs(3))).astype(object)
    on_facet = solve_phase1(a, _triangle_rhs(Fraction(-1, 3)))
    assert on_facet.feasible and on_facet.objective == 0.0
    assert on_facet.iterations == 0
    assert routes == [True]


def _interior_distributions(n):
    """Random distributions with every outcome at least 2^-(n+1), then the
    uniform one, whose averages and correlators are all zero."""
    rng = np.random.default_rng(n)
    for _ in range(3):
        k = rng.integers(1, 16, 1 << n)
        yield [Fraction(1, 2 << n) + Fraction(int(v), 2 * int(k.sum())) for v in k]
    yield [Fraction(1, 1 << n)] * (1 << n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_stops_on_the_float_basis_of_interior_complete_data(routes, n):
    a = _constraint_rows(n, _suspended(n, complete_pairs(n))).astype(object)
    for p in _interior_distributions(n):
        rhs = a.dot(np.array(p, dtype=object))
        basis = simplex._phase1(a.astype(float), rhs.astype(float))[1]
        # the vertex of that basis, the artificial of a row with negative rhs negated
        system = np.hstack([a, np.diag(np.where(rhs < 0, -1, 1))])
        vertex = np.zeros(system.shape[1], dtype=object)
        vertex[basis] = gauss_jordan(system[:, basis], rhs)
        assert min(vertex) >= 0 and not vertex[a.shape[1]:].any()
        routes.clear()
        result = solve_phase1(a, rhs)
        assert routes == [True]
        assert result.iterations == 0
        assert result.feasible and result.objective == 0.0
        assert np.array_equal(result.x, vertex[: a.shape[1]].astype(float))


@pytest.mark.parametrize("n", [4, 5])
def test_exact_keeps_the_artificials_of_an_infeasible_float_basis(routes, n):
    # the float basis keeps artificials at positive level; evicting one while
    # rebuilding would leave a different basis and cost further rational pivots
    a = _constraint_rows(n, _suspended(n, complete_pairs(n)))
    rhs = np.concatenate(([1.0] + [0.0] * n,
                          [np.cos(1.2 * (j - i)) for i, j in complete_pairs(n)]))
    result = solve_phase1(a.astype(object), rhs.astype(object))
    assert routes == [True]
    assert not result.feasible
    assert result.iterations == 0


def test_exact_continues_pivoting_from_the_float_basis(routes):
    # the float run stops with reduced cost -2^-40 on x2; exact pivots it in
    delta = Fraction(1, 2**40)
    a = _fractions([[1, 1], [1, 1 - delta]])
    b = _fractions([1, 1 - delta])
    float_result = solve_phase1(a.astype(float), b.astype(float))
    assert float_result.feasible and np.array_equal(float_result.x, [1 - 2.0**-40, 0.0])
    result = solve_phase1(a, b)
    assert routes == [True]
    assert result.iterations == 1
    assert result.feasible and result.objective == 0.0
    assert np.array_equal(result.x, [0.0, 1.0])


def test_exact_restarts_cold_when_float_basis_is_infeasible(routes):
    # B = (1/3, 1/3, -2/3) and C_12 = 1, C_13 = C_23 = 0, read from floats
    a = _constraint_rows(3, _suspended(3, complete_pairs(3))).astype(object)
    rhs = np.array([1.0, 0.3333333333333333, 0.3333333333333333, -0.6666666666666666,
                    1.0, 0.0, 0.0], dtype=object)
    assert solve_phase1(a, rhs).feasible
    # 2^-60 beyond the facet the float run still ends feasible, on a basis
    # with a negative basic value in rationals
    beyond = _triangle_rhs(Fraction(-1, 3) - Fraction(1, 2**60))
    assert solve_phase1(a.astype(float), beyond.astype(float)).feasible
    result = solve_phase1(a, beyond)
    assert not result.feasible
    assert result.objective > 0.0
    assert routes == [False, False]


def _dense_pivot(tableau, basis, row, col):
    # reference: eliminate over every row, the reduced-cost row m included, and
    # every column, whatever is zero
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _complete_systems(rng):
    """Complete n = 3..5 systems with data inside, on a face and just off it."""
    for n in (3, 4, 5):
        a = _constraint_rows(n, _suspended(n, complete_pairs(n))).astype(object)
        weights = rng.exponential(1.0, 1 << n)
        yield a, (a.astype(float) @ (weights / weights.sum())).astype(object)
        for nudge in (0, 1, -1, 0, 1, -1):
            w = np.zeros(1 << n, dtype=object)
            support = rng.choice(1 << n, size=int(rng.integers(1, 4)), replace=False)
            w[support] = [Fraction(int(k), 8) for k in rng.integers(1, 8, support.size)]
            rhs = a.dot(w / w.sum())
            rhs[int(rng.integers(1, len(rhs)))] += nudge * Fraction(1, 2 ** int(rng.integers(45, 62)))
            yield a, rhs


@pytest.fixture
def checked_pivots(monkeypatch):
    """Checks every pivot against ``_dense_pivot``, bit for bit, and counts
    the pivots of each arithmetic."""
    pivot = simplex._pivot
    counts = {"exact": 0, "float": 0}

    def checked(tableau, basis, row, col):
        assert tableau.shape[0] == len(basis) + 1
        expected = (tableau.copy(), basis.copy())
        pivot(tableau, basis, row, col)
        _dense_pivot(*expected, row, col)
        if tableau.dtype == object:
            assert all(type(v) is Fraction for v in tableau.flat)
            for got, want in zip((tableau, basis), expected):
                assert (got == want).all()
            counts["exact"] += 1
        else:
            for got, want in zip((tableau, basis), expected):
                assert got.tobytes() == want.tobytes()
            counts["float"] += 1

    monkeypatch.setattr(simplex, "_pivot", checked)
    return counts


def test_exact_pivots_match_a_dense_rational_elimination(routes, checked_pivots):
    # the float run of this system stops one exact pivot short (see above)
    delta = Fraction(1, 2**40)
    systems = [(_fractions([[1, 1], [1, 1 - delta]]), _fractions([1, 1 - delta]))]
    systems += _complete_systems(np.random.default_rng(18))
    seen = set()
    for a, rhs in systems:
        routes.clear()
        result = solve_phase1(a, rhs)
        seen.add("cold" if not routes[0] else "continued" if result.iterations else "warm")
    assert seen == {"warm", "continued", "cold"}
    assert checked_pivots["exact"] > 100


def test_float_pivots_match_a_dense_outer_product_update(checked_pivots):
    # the n = 5 probe below, then float runs of the complete systems
    a = _constraint_rows(5, _suspended(5, complete_pairs(5)))
    for mode in ("symmetric", "general"):
        for bc in _draw_block(5, mode, 190604865, 0, 16):
            solve_phase1(a, np.concatenate(([1.0], bc)))
    assert checked_pivots["float"] == 427
    for system, rhs in _complete_systems(np.random.default_rng(18)):
        solve_phase1(system.astype(float), rhs.astype(float))
    assert checked_pivots["float"] > 500


def test_float_pivot_path_on_the_n5_probe():
    # the total the benchmark's complete-n5 simplex probe reports
    a = _constraint_rows(5, _suspended(5, complete_pairs(5)))
    total = 0
    for mode in ("symmetric", "general"):
        for bc in _draw_block(5, mode, 190604865, 0, 16):
            total += solve_phase1(a, np.concatenate(([1.0], bc))).iterations
    assert total == 427


def test_stack_of_exact_or_mismatched_rows_is_refused():
    a = np.array([[1.0, 1.0], [1.0, -1.0]])
    for rhs in (np.ones((2, 2)), _fractions([[1, 0], [0, 1]]), np.ones(3), _fractions([1, 0, 1])):
        with pytest.raises(ValueError):
            solve_phase1(a, rhs)
