"""Reference computations and output checkers for the lgfeas benchmark.

Nothing here imports lgfeas: every check recomputes what it needs from
the inputs with its own code (sign matrices, closed forms, HiGHS via
scipy) and compares.  Each ``check_*`` function returns a list of problem
strings; an empty list means the output passed.

Outcome convention (the same as the package documents): bit k of the
outcome index is 0 when s_{k+1} = +1 and 1 when s_{k+1} = -1.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

CERT_TOL = 1e-9          # moments reproduced by a certificate
NEGATIVE_TOL = 1e-12     # certificate entries allowed below zero
MARGIN_BAND = 1e-7       # |HiGHS margin| below this is a boundary case
CONDITION_BAND = 1e-7    # |condition slack| below this is a boundary case


def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def complete(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def signs(n: int, t: int) -> np.ndarray:
    """s_t over all 2^n outcomes, as int8."""
    idx = np.arange(1 << n, dtype=np.int64)
    return (1 - 2 * ((idx >> (t - 1)) & 1)).astype(np.int8)


def moment_vector(p: np.ndarray, n: int, pairs) -> np.ndarray:
    """[sum p, B_1..B_n, C_pairs] of a vector over the 2^n outcomes,
    computed one sign row at a time so that n = 20 stays small."""
    s = [signs(n, t) for t in range(1, n + 1)]
    out = [float(p.sum())] + [float(p @ s[t]) for t in range(n)]
    out += [float(p @ (s[i - 1] * s[j - 1])) for i, j in pairs]
    return np.array(out)


def system(n: int, pairs) -> np.ndarray:
    """Dense moment-matching matrix: normalization, sign rows, pair rows."""
    s = [signs(n, t).astype(np.float64) for t in range(1, n + 1)]
    rows = [np.ones(1 << n)] + s + [s[i - 1] * s[j - 1] for i, j in pairs]
    return np.vstack(rows)


def rhs_vector(n: int, b, pair_values) -> np.ndarray:
    bvec = np.zeros(n) if b is None else np.asarray(b, dtype=np.float64)
    return np.concatenate(([1.0], bvec, np.asarray(pair_values, dtype=np.float64)))


def highs_margin(n: int, pairs, rhs: np.ndarray) -> float:
    """max t such that some x with A x = rhs has every entry >= t.

    Positive means the data admits a strictly positive distribution,
    negative means no distribution matches it; solved with HiGHS as
    x = y + t, y >= 0, so the LP keeps the moment rows only."""
    from scipy.optimize import linprog

    a = system(n, pairs)
    a_eq = np.hstack([a, a.sum(axis=1, keepdims=True)])
    cost = np.zeros(a_eq.shape[1])
    cost[-1] = -1.0
    bounds = [(0.0, None)] * (1 << n) + [(None, 1.0)]
    res = linprog(cost, A_eq=a_eq, b_eq=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the margin LP: {res.message}")
    return float(res.x[-1])


def highs_verdict(margin: float) -> bool | None:
    """Feasible, infeasible, or None inside the boundary band."""
    if margin > MARGIN_BAND:
        return True
    if margin < -MARGIN_BAND:
        return False
    return None


# ---------------------------------------------------------------------------
# condition families, written out directly
# ---------------------------------------------------------------------------

def _sign_vectors(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return 1 - 2 * ((idx[:, None] >> np.arange(n)[None, :]) & 1)


def condition_min(n: int, b: np.ndarray, c: np.ndarray) -> float:
    """Smallest value over the two-time, three-time and n-gon conditions,
    each written as an expression that must be >= 0; c follows the
    lexicographic complete pair order."""
    pairs = complete(n)
    cmat = np.zeros((n, n))
    for (i, j), v in zip(pairs, c):
        cmat[i - 1, j - 1] = cmat[j - 1, i - 1] = v
    values = []
    for i, j in pairs:
        for si in (1, -1):
            for sj in (1, -1):
                values.append(1 + si * b[i - 1] + sj * b[j - 1] + si * sj * cmat[i - 1, j - 1])
    for i, j, k in combinations(range(n), 3):
        for sj in (1, -1):
            for sk in (1, -1):
                values.append(1 + sj * cmat[i, j] + sk * cmat[i, k] + sj * sk * cmat[j, k])
    s = _sign_vectors(n)
    quad = np.einsum("ki,ij,kj->k", s, np.triu(cmat, 1), s)
    values.extend(n + 2 * quad - (1 if n % 2 else 0))
    return float(min(values))


def lg_max_slack(c_chain, c_close: float) -> float:
    """max over +-1 coefficients a_k with product -1 of
    sum a_k C_{k,k+1} + a_n C_{1n} - (n-2): take every a_k = sign(C), and
    when that product is +1 flip the smallest |C|."""
    values = list(c_chain) + [c_close]
    n = len(values)
    total = sum(abs(v) for v in values)
    negatives = sum(1 for v in values if v < 0)
    if negatives % 2 == 1:
        best = total
    else:
        best = total - 2 * min(abs(v) for v in values)
    return best - (n - 2)


def lg_class_slack(n: int, k: int, x: np.ndarray) -> np.ndarray:
    """The lg class with k minus signs on the n-1 chain terms, at equal
    spacing with cos argument x: (n-1-2k) cos x - (-1)^k cos((n-1)x) - (n-2)."""
    return (n - 1 - 2 * k) * np.cos(x) - (-1) ** k * np.cos((n - 1) * x) - (n - 2)


def lg_nu_closed_form(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Any-violation flags and the largest |slack| near zero, per grid point."""
    slacks = np.stack([lg_class_slack(n, k, x) for k in range(n)])
    return (slacks > 0).any(axis=0), np.abs(slacks).min(axis=0)


def ngon_gap_classes(n: int) -> np.ndarray:
    """Distinct per-gap weight rows of the n-gon family (s_1 = +1), in the
    normalized <= form: member value = sum_d w_d g(d)."""
    s = _sign_vectors(n - 1)
    s = np.hstack([np.ones((s.shape[0], 1), dtype=s.dtype), s])
    w = np.stack([-(s[:, :-d] * s[:, d:]).sum(axis=1) for d in range(1, n)], axis=1)
    return np.unique(w, axis=0)


def ngon_bound(n: int) -> float:
    return float((n - 1) // 2) if n % 2 else float(n // 2)


def irwin_hall_tail(bound: float, j: int) -> float:
    """P(U_1 + ... + U_j > bound), U_i uniform on [-1, 1], in floats."""
    x = (bound + j) / 2.0
    if x <= 0:
        return 1.0
    if x >= j:
        return 0.0
    cdf = sum((-1) ** k * math.comb(j, k) * (x - k) ** j for k in range(int(x) + 1))
    return 1.0 - cdf / math.factorial(j)


def clt_fraction(bound: float, j: int) -> float:
    return 0.5 * (1.0 - math.erf(math.sqrt(1.5) * bound / math.sqrt(j)))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_certificate(p, n: int, pairs, rhs: np.ndarray, what: str) -> list[str]:
    """Non-negative entries and every fixed moment reproduced."""
    p = np.asarray(p, dtype=np.float64)
    problems = []
    if p.shape != (1 << n,):
        return [f"{what}: certificate has shape {p.shape}, expected {(1 << n,)}"]
    if p.min() < -NEGATIVE_TOL:
        problems.append(f"{what}: certificate entry {p.min():.3e} is negative")
    err = float(np.abs(moment_vector(p, n, pairs) - rhs).max())
    if not err <= CERT_TOL:
        problems.append(f"{what}: certificate misses its moments by {err:.3e}")
    return problems


def check_verdict(feasible: bool, expected: bool, margin: float, what: str) -> list[str]:
    """The program's verdict against the answer known by construction and HiGHS."""
    problems = []
    if feasible != expected:
        problems.append(f"{what}: verdict {feasible}, known answer {expected}")
    highs = highs_verdict(margin)
    if highs != expected:
        problems.append(f"{what}: HiGHS margin {margin:.3e} does not confirm {expected}")
    return problems


def check_tallies(report: dict) -> list[str]:
    """Partition, necessity, and no symmetric counterexamples."""
    what = f"conjecture {report['mode']} seed {report['seed']}"
    keys = ("condition_holds_and_feasible", "condition_holds_and_infeasible",
            "condition_fails_and_feasible", "condition_fails_and_infeasible")
    problems = []
    if sum(report[k] for k in keys) != report["samples"]:
        problems.append(f"{what}: tallies do not partition {report['samples']} samples")
    if report["condition_fails_and_feasible"] != 0:
        problems.append(f"{what}: {report['condition_fails_and_feasible']} feasible samples "
                        "fail a necessary condition")
    if report["mode"] == "symmetric" and report["counterexamples"]:
        problems.append(f"{what}: {len(report['counterexamples'])} symmetric counterexamples")
    return problems


def draw_sample(n: int, mode: str, seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``index`` by the documented convention: its own generator
    seeded with (seed, index); averages first (general mode), then the
    pair correlators in lexicographic order."""
    rng = np.random.default_rng([seed, index])
    b = rng.uniform(-1.0, 1.0, n) if mode == "general" else np.zeros(n)
    c = rng.uniform(-1.0, 1.0, n * (n - 1) // 2)
    return b, c


def check_sample_verdicts(n: int, mode: str, seed: int, cells, boundary) -> list[str]:
    """Per-sample (holds, feasible) cells from the program against the own
    condition evaluation and HiGHS, skipping boundary samples."""
    problems = []
    for index, (cell, on_boundary) in enumerate(zip(cells, boundary)):
        if on_boundary:
            continue
        b, c = draw_sample(n, mode, seed, index)
        cond = condition_min(n, b, c)
        margin = highs_margin(n, complete(n), rhs_vector(n, b, c))
        if abs(cond) < CONDITION_BAND or highs_verdict(margin) is None:
            continue
        expected = (cond >= 0, margin > 0)
        if tuple(cell) != expected:
            problems.append(f"conjecture {mode} seed {seed} sample {index}: program "
                            f"(holds, feasible) = {tuple(cell)}, reference {expected}")
    return problems


def check_lg_nu(n: int, x: np.ndarray, nu: float, what: str) -> list[str]:
    """nu of an lg sweep against the closed form on its grid (x is omega * tau);
    grid points within 1e-9 of a class boundary may go either way."""
    ref, near = lg_nu_closed_form(n, np.asarray(x))
    ambiguous = int((near <= 1e-9).sum())
    ref_nu = float(ref.mean())
    if abs(nu - ref_nu) * ref.size > ambiguous + 1e-6:
        return [f"{what}: nu {nu!r} != closed form {ref_nu!r}"]
    return []


def check_lg_sweep(n: int, x: np.ndarray, any_violation, nu: float, what: str) -> list[str]:
    """Any-violation flags and nu of an lg sweep against the closed form."""
    ref, near = lg_nu_closed_form(n, np.asarray(x))
    flags = np.asarray(any_violation, dtype=bool)
    if flags.shape != ref.shape:
        return [f"{what}: {flags.size} flags for {ref.size} grid points"]
    problems = check_lg_nu(n, x, nu, what)
    bad = np.flatnonzero((flags != ref) & (near > 1e-9))
    if bad.size:
        problems.append(f"{what}: {bad.size} grid points disagree with the closed form")
    if abs(nu - float(flags.mean())) > 1e-15:
        problems.append(f"{what}: nu {nu!r} is not the share of violated points")
    return problems


def check_ngon_sweep(n: int, x: np.ndarray, any_violation, nu: float, what: str) -> list[str]:
    w = ngon_gap_classes(n)
    slacks = w @ np.cos(np.outer(np.arange(1, n), x)) - ngon_bound(n)
    ref = (slacks > 0).any(axis=0)
    near = np.abs(slacks).min(axis=0)
    flags = np.asarray(any_violation, dtype=bool)
    bad = np.flatnonzero((flags != ref) & (near > 1e-9))
    problems = []
    if bad.size:
        problems.append(f"{what}: {bad.size} grid points disagree with the own n-gon evaluation")
    if abs(nu - float(flags.mean())) > 1e-15:
        problems.append(f"{what}: nu {nu!r} is not the share of violated points")
    return problems


def check_nu_curve(curve, regime: str, what: str) -> list[str]:
    """Monotone in n: non-increasing when the window extends, non-decreasing
    from n = 4 when the window is fixed."""
    values = [nu for _, nu in curve]
    ns = [n for n, _ in curve]
    problems = []
    if regime == "extend":
        pairs = list(zip(values, values[1:]))
        if any(b > a for a, b in pairs):
            problems.append(f"{what}: extend curve increases somewhere: {values}")
    else:
        tail = [nu for n, nu in curve if n >= 4]
        if any(b < a for a, b in zip(tail, tail[1:])):
            problems.append(f"{what}: fixed-window curve decreases after n = 4: {values}")
    if ns != list(range(ns[0], ns[0] + len(ns))):
        problems.append(f"{what}: curve skips values of n: {ns}")
    return problems


def check_mc(value: float, samples: int, target: float, what: str, sigmas: float = 4.0) -> list[str]:
    sigma = math.sqrt(target * (1 - target) / samples)
    if abs(value - target) > sigmas * sigma:
        return [f"{what}: {value!r} is {abs(value - target) / sigma:.1f} sigma from {target!r}"]
    return []


def check_close(value: float, ref: float, tol: float, what: str) -> list[str]:
    if not abs(value - ref) <= tol:
        return [f"{what}: {value!r} differs from reference {ref!r} by {abs(value - ref):.3e}"]
    return []
