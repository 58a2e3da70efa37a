"""Phase-1 simplex for linear feasibility: find x >= 0 with A x = b.

One dense-tableau kernel.  The entering column has the most negative
reduced cost (Dantzig's rule); the leaving row is the lexicographically
smallest of the min-ratio ties over the columns of the starting basis
(Dantzig, Orden & Wolfe, *The generalized simplex method*, 1955), which
cannot cycle.  float64 input pivots with tolerances; object input pivots
exactly in ``Fraction``s, starting from the basis on which a float solve
of the same system ends.
A stack of float right-hand sides against one matrix pivots in lock step,
each row taking the pivots its own solve would take.  Only phase 1 is
needed: the minimum of the artificial-variable sum is zero exactly when
the system is feasible, and the final basic solution is the certificate.
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


def solve_phase1(a: np.ndarray, b: np.ndarray) -> Phase1Result | list[Phase1Result]:
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
    feasibly in rationals.

    A 2-D float ``b`` of shape (S, m) is a stack of right-hand sides: the
    result is a list of S results, each identical to the solve of that row
    alone, and the call raises if the solve of any row would.  Exact input
    takes one right-hand side.
    """
    a, b = np.asarray(a), np.asarray(b)
    exact = a.dtype == object or b.dtype == object
    if b.ndim == 2:
        if exact:
            raise ValueError("a stack of right-hand sides takes float input only")
        return _phase1_stacked(a, b.astype(np.float64, copy=False))
    if not exact:
        return _phase1(a, b.astype(np.float64, copy=False))[0]
    try:
        warm = _phase1(a.astype(np.float64), b.astype(np.float64))[1]
    except OracleError:
        warm = None
    return _phase1(_fractions(a), _fractions(b), warm)[0]


def _start(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tableau, reduced costs and basis of the artificial start, for one
    right-hand side or for each row of a stack of them.  The tableau is
    exact for object ``a`` and float64 otherwise."""
    m, n = a.shape
    if b.ndim > 2 or b.shape[-1:] != (m,):
        raise ValueError(f"rhs shape {b.shape} does not match {m} rows")
    exact = a.dtype == object
    stack = b.shape[:-1]

    flip = b < 0
    tableau = np.empty(stack + (m, n + m + 1), dtype=object if exact else np.float64)
    body = tableau[..., :n]
    body[...] = a
    np.negative(body, out=body, where=flip[..., None])
    tableau[..., n : n + m] = _fractions(np.eye(m, dtype=int)) if exact else np.eye(m)
    tableau[..., -1] = np.where(flip, -b, b)
    basis = np.tile(np.arange(n, n + m), stack + (1,))

    # reduced costs for min sum(artificials) with the artificial basis
    obj = np.zeros(stack + (n + m + 1,), dtype=tableau.dtype)
    obj[..., :n] = -body.sum(axis=-2)
    obj[..., -1] = -tableau[..., -1].sum(axis=-1)
    return tableau, obj, basis


def _result(tableau: np.ndarray, obj: np.ndarray, basis: np.ndarray, iterations: int) -> Phase1Result:
    m, width = tableau.shape
    n = width - m - 1
    objective = -obj[-1]
    x = np.zeros(n + m, dtype=tableau.dtype)
    x[basis] = tableau[:, -1]
    feasible = bool(objective <= (0 if tableau.dtype == object else FEASIBILITY_TOL))
    return Phase1Result(feasible, x[:n].astype(np.float64), float(objective), iterations)


def _phase1(a: np.ndarray, b: np.ndarray, warm: np.ndarray | None = None):
    """The pivot loop in the arithmetic of ``a``, from the artificial basis
    or from ``warm``; returns the result and the final basis."""
    m, n = a.shape
    tableau, obj, basis = _start(a, b)
    exact = a.dtype == object
    tol, pivot_tol, tie_tol = (0, 0, 0) if exact else (FEASIBILITY_TOL, _PIVOT_TOL, _TIE_TOL)
    if warm is not None and not _enter_basis(tableau, obj, basis, warm):
        return _phase1(a, b)
    # the ratio column, then the columns of the starting basis in row order
    keys = [-1] + basis.tolist()

    cap = 200 * (m + n + 10)
    iterations = 0
    while True:
        col = int(np.argmin(obj[: n + m]))
        if not obj[col] < -tol:
            break
        ties = np.flatnonzero(tableau[:, col] > pivot_tol)
        if ties.size == 0:
            raise OracleError("phase-1 objective unbounded below; numerical breakdown")
        for key in keys:
            values = tableau[ties, key] / tableau[ties, col]
            ties = ties[values <= values.min() + tie_tol]
            if ties.size == 1:
                break
        _pivot(tableau, obj, basis, int(ties[0]), col)

        iterations += 1
        if iterations > cap:
            raise OracleError(f"phase-1 simplex exceeded {cap} iterations")

    return _result(tableau, obj, basis, iterations), basis


def _phase1_stacked(a: np.ndarray, b: np.ndarray) -> list[Phase1Result]:
    """The float pivot loop of ``_phase1`` over the rows of ``b`` in lock
    step.  Each pass pivots every unfinished row on the column and row its
    own run would choose, with the same arithmetic, so every row ends as
    its own run would; a row leaves the stack once no reduced cost is
    negative."""
    m, n = a.shape
    tableau, obj, basis = _start(a, b)
    order = np.arange(len(b))  # input row of each stack row
    results: list[Phase1Result | None] = [None] * len(b)
    keys = [-1] + list(range(n, n + m))  # as in _phase1: the artificial basis

    cap = 200 * (m + n + 10)
    iterations = 0
    while True:
        cols = obj[:, : n + m].argmin(axis=1)
        done = ~(obj[np.arange(order.size), cols] < -FEASIBILITY_TOL)
        if done.any():
            for k in np.flatnonzero(done).tolist():
                results[order[k]] = _result(tableau[k], obj[k], basis[k], iterations)
            live = ~done
            tableau, obj, basis, order, cols = (
                tableau[live], obj[live], basis[live], order[live], cols[live]
            )
        if order.size == 0:
            return results
        stack = np.arange(order.size)
        column = tableau[stack, :, cols]
        ties = column > _PIVOT_TOL
        if not ties.any(axis=1).all():
            raise OracleError("phase-1 objective unbounded below; numerical breakdown")
        # a row already down to one tie keeps it, so going on for the others
        # changes nothing it would have chosen alone
        for key in keys:
            values = np.divide(tableau[:, :, key], column, out=np.full(column.shape, np.inf),
                               where=ties)
            ties &= values <= values.min(axis=1, keepdims=True) + _TIE_TOL
            if ties.sum(axis=1).max() == 1:
                break
        rows = ties.argmax(axis=1)

        # _pivot on every stack row at once
        tableau[stack, rows] /= tableau[stack, rows, cols][:, None]
        factors = tableau[stack, :, cols]
        factors[stack, rows] = 0
        tableau -= factors[:, :, None] * tableau[stack, rows][:, None, :]
        obj -= obj[stack, cols][:, None] * tableau[stack, rows]
        basis[stack, rows] = cols

        iterations += 1
        if iterations > cap:
            raise OracleError(f"phase-1 simplex exceeded {cap} iterations")


def _enter_basis(
    tableau: np.ndarray, obj: np.ndarray, basis: np.ndarray, target: np.ndarray
) -> bool:
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
        _pivot(tableau, obj, basis, rows[0], col)
    return not (tableau[:, -1] < 0).any()


def _pivot(tableau: np.ndarray, obj: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0
    if tableau.dtype == object:
        # rational arithmetic dominates the cost, so rows already zero in col stay as they are
        rows = np.flatnonzero(factors)
        tableau[rows] -= np.outer(factors[rows], tableau[row])
    else:
        tableau -= np.outer(factors, tableau[row])
    obj -= obj[col] * tableau[row]
    basis[row] = col
