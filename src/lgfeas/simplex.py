"""Phase-1 simplex for linear feasibility: find x >= 0 with A x = b.

One dense-tableau kernel.  The entering column has the most negative
reduced cost (Dantzig's rule); the leaving row is the lexicographically
smallest of the min-ratio ties over the columns of the starting basis
(Dantzig, Orden & Wolfe, *The generalized simplex method*, 1955), which
cannot cycle.  The reduced costs are the tableau's last row, so one
elimination updates them with the constraint rows.  float64 input pivots
with tolerances and a dense update.  Object input pivots exactly in
``Fraction``s, starting from the basis on which a float solve of the same
system ends; an exact pivot updates only the entries in the non-zero
columns of the pivot row and the non-zero rows of the pivot column, since
x - f*0 = x leaves every other entry as it is, so the tableau is that of a
dense elimination bit for bit.  Only phase 1 is needed: the minimum of
the artificial-variable sum is zero exactly when the system is feasible,
and the final basic solution is the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import OracleError

FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-10
_TIE_TOL = 1e-12

# int / int in an object array gives a float, so every exact entry is a Fraction
_fractions = np.frompyfunc(Fraction, 1, 1)


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    x: np.ndarray
    objective: float
    iterations: int


def solve_phase1(a: np.ndarray, b: np.ndarray) -> Phase1Result:
    """Minimize the artificial-variable sum for A x = b, x >= 0.

    The column with the most negative reduced cost enters, the lowest
    index on ties.  The leaving row is the min-ratio row, ties broken
    lexicographically over the tableau columns of the starting basis taken
    in row order; the start is lexicographically positive, so in exact
    arithmetic no basis repeats and the run terminates.  The iteration cap
    is a safety net reported as oracle non-convergence, distinct from an
    infeasible verdict.  If ``a`` or ``b`` is an object array the run is
    exact (``x`` is rounded to float64 on return) and ``iterations``
    counts the pivots after the start; it starts from the artificial basis
    only when the float solve fails or its basis cannot be rebuilt
    feasibly in rationals.  ``b`` is one right-hand side, of length the
    number of rows of ``a``.
    """
    a, b = np.asarray(a), np.asarray(b)
    exact = a.dtype == object or b.dtype == object
    if not exact:
        return _phase1(a, b.astype(np.float64, copy=False))[0]
    try:
        warm = _phase1(a.astype(np.float64), b.astype(np.float64))[1]
    except OracleError:
        warm = None
    return _phase1(_fractions(a), _fractions(b), warm)[0]


def _start(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tableau and basis of the artificial start: rows :m hold the system,
    row m the reduced costs.  The tableau is exact for object ``a`` and
    float64 otherwise."""
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} does not match {m} rows")
    exact = a.dtype == object

    flip = b < 0
    tableau = np.full((m + 1, n + m + 1), Fraction(0) if exact else 0.0,
                      dtype=object if exact else np.float64)
    body = tableau[:m, :n]
    body[...] = a
    np.negative(body, out=body, where=flip[:, None])
    tableau[:m, n : n + m] = _fractions(np.eye(m, dtype=int)) if exact else np.eye(m)
    # a row with b < 0 enters negated; abs also stores a zero rhs as +0.0, so
    # the sign of a zero objective does not depend on the sign of a zero in b
    tableau[:m, -1] = np.abs(b)
    basis = np.arange(n, n + m)

    # reduced costs for min sum(artificials) with the artificial basis
    tableau[m, :n] = -body.sum(axis=0)
    tableau[m, -1] = -tableau[:m, -1].sum()
    return tableau, basis


def _result(tableau: np.ndarray, basis: np.ndarray, iterations: int) -> Phase1Result:
    m = len(basis)
    n = tableau.shape[1] - m - 1
    objective = -tableau[m, -1]
    x = np.zeros(n + m, dtype=tableau.dtype)
    x[basis] = tableau[:m, -1]
    feasible = bool(objective <= (0 if tableau.dtype == object else FEASIBILITY_TOL))
    return Phase1Result(feasible, x[:n].astype(np.float64), float(objective), iterations)


def _phase1(a: np.ndarray, b: np.ndarray, warm: np.ndarray | None = None):
    """The pivot loop in the arithmetic of ``a``, from the artificial basis
    or from ``warm``; returns the result and the final basis."""
    m, n = a.shape
    tableau, basis = _start(a, b)
    exact = a.dtype == object
    tol, pivot_tol, tie_tol = (0, 0, 0) if exact else (FEASIBILITY_TOL, _PIVOT_TOL, _TIE_TOL)
    if warm is not None and not _enter_basis(tableau, basis, warm):
        return _phase1(a, b)
    # the ratio column, then the columns of the starting basis in row order
    keys = [-1] + basis.tolist()

    cap = 200 * (m + n + 10)
    iterations = 0
    while True:
        col = int(tableau[m, : n + m].argmin())
        if not tableau[m, col] < -tol:
            break
        column = tableau[:m, col]
        ties = (column > pivot_tol).nonzero()[0]
        if ties.size == 0:
            raise OracleError("phase-1 objective unbounded below; numerical breakdown")
        if ties.size > 1:
            pivots = column[ties]
            for key in keys:
                values = tableau[ties, key] / pivots
                kept = values <= values.min() + tie_tol
                ties, pivots = ties[kept], pivots[kept]
                if ties.size == 1:
                    break
        _pivot(tableau, basis, int(ties[0]), col)

        iterations += 1
        if iterations > cap:
            raise OracleError(f"phase-1 simplex exceeded {cap} iterations")

    return _result(tableau, basis, iterations), basis


def _enter_basis(tableau: np.ndarray, basis: np.ndarray, target: np.ndarray) -> bool:
    """Pivot each real column of ``target`` into a row held by an artificial
    that ``target`` does not keep; False if some column finds no such row or
    the basis reached has a negative basic value."""
    n = tableau.shape[1] - len(basis) - 1
    keep = set(target[target >= n].tolist())
    for col in target[target < n].tolist():
        rows = [i for i, var in enumerate(basis.tolist())
                if var >= n and var not in keep and tableau[i, col] != 0]
        if not rows:
            return False
        _pivot(tableau, basis, rows[0], col)
    return not (tableau[: len(basis), -1] < 0).any()


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    # exact: rational arithmetic dominates the cost and x - f*0 = x exactly, so
    # only the columns where the pivot row is non-zero, and of those only the
    # rows non-zero in col (the cost row among them), are updated
    exact = tableau.dtype == object
    cols = np.flatnonzero(tableau[row]) if exact else slice(None)
    tableau[row, cols] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0
    if exact:
        rows = np.flatnonzero(factors)
        tableau[np.ix_(rows, cols)] -= np.outer(factors[rows], tableau[row, cols])
    else:
        tableau -= factors[:, None] * tableau[row]
    basis[row] = col
