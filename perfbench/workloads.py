"""The benchmark's workloads and the per-layer metrics read from their spans.

Each workload makes its inputs from the run seed while it sets up, then
repeats rounds of the same operations on those inputs, calling lgfeas
through its public functions, and keeps what it needs to check the
outputs once the timed phase is over.  Every round is the same list of
operations, so the share of failed operations is the same in every run,
and each operation can be timed by its fastest repeat.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lgfeas import (
    CorrelatorSet,
    JointDistribution,
    OracleError,
    SpinSweepConfig,
    chain_pairs,
    cli,
    complete_pairs,
    conjecture_check,
    distinct_under_equal_spacing,
    distribution_from_moments,
    exact_violation_fraction,
    fine_build,
    lg_family,
    lp_feasible,
    mc_violation_fraction,
    moments_from_distribution,
    ngon_family,
    nu_versus_n,
    sweep,
    v_lg,
    v_ngon,
)
from lgfeas.simplex import solve_phase1

import reference as ref

PROBE_SEED = 1906_04865  # fixed inputs of the simplex probes, so iterations repeat

# On a shared virtual machine a core can switch between two speeds 1.5 to
# 1.8 times apart every few seconds, independently of the other cores (see
# "Reference seconds" in README.md).  Each operation is timed
# between two runs of a fixed calibration piece; the worker keeps the
# repeats taken at the fast speed and scales them by
# REFERENCE_CALIBRATION_S over the pieces' mean: "reference seconds", the
# time the operation takes on a core that runs the piece in 2 ms.
REFERENCE_CALIBRATION_S = 0.002


def calibration_seconds() -> float:
    """Wall time of a fixed mix of interpreter work, small-array NumPy
    calls and passes over a 1 MB array, the three kinds of work lgfeas does."""
    start = time.perf_counter()
    table = {}
    for i in range(1500):
        table[(i, i % 7)] = (i * i) % 11
    a = np.ones(64)
    for _ in range(75):
        a = a * 1.0000001 + 0.5
        a[3] = a.sum() * 1e-9
    big = np.arange(1 << 17, dtype=np.float64)
    for _ in range(4):
        big = big * 0.5 + 1.0
    return time.perf_counter() - start


@dataclass
class RoundStats:
    # per operation: (wall s, mean calibration s around it, items); None times: failed
    ops: list[tuple[float | None, float | None, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Workload:
    name = ""
    tag = 0

    def __init__(self, seed: int, tracer, scratch: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, self.tag])
        self.records: list[dict] = []
        self.last_calibration = calibration_seconds()

    def warm_up(self) -> None:
        """Draw the run's inputs and call every code path once at small size."""
        raise NotImplementedError

    def round(self, r: int) -> RoundStats:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def probe(self) -> None:
        """Traced runs only: layer calls outside the timed rounds."""

    def op(self, stats: RoundStats, items: int, fn):
        """One timed operation that must succeed; returns its result."""
        stats.attempted += items
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        stats.ops.append((wall, self.calibrate(), items))
        return result

    def calibrate(self) -> float:
        """Mean of the calibration pieces before and after the last operation."""
        before, self.last_calibration = self.last_calibration, calibration_seconds()
        return 0.5 * (before + self.last_calibration)


def _random_distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    # half uniform, half Dirichlet: every entry >= 2^-(n+1), so the moments
    # sit well inside the feasible set and survive exact conversion
    p = 0.5 / (1 << n) + 0.5 * rng.dirichlet(np.ones(1 << n))
    return p / p.sum()


def _cosine_values(tau: float, pairs) -> list[float]:
    return [math.cos(tau * (j - i)) for i, j in pairs]


def _certificate(verdict):
    return None if verdict.certificate is None else verdict.certificate.p


# ---------------------------------------------------------------------------
# conjecture-n5
# ---------------------------------------------------------------------------

CONJ_INPUTS = 8      # conjecture_check seeds per mode
CONJ_SAMPLES = 75    # samples per conjecture_check call
CONJ_SUBSET = 24     # samples per mode redrawn and checked against HiGHS
MODES = ("symmetric", "general")


class ConjectureN5(Workload):
    """The paper's n = 5 experiment on complete correlators."""

    name = "conjecture-n5"
    tag = 1

    def conj_seed(self, u: int, mode: str) -> int:
        return self.seed * 1000 + 2 * u + MODES.index(mode)

    def warm_up(self) -> None:
        for mode in MODES:
            conjecture_check(16, self.seed * 1000 + 999, mode, n=5, workers=1)

    def round(self, r: int) -> RoundStats:
        stats = RoundStats()
        for u in range(CONJ_INPUTS):
            for mode in MODES:
                seed = self.conj_seed(u, mode)

                def run():
                    with self.tracer.span("feasibility.conjecture_check", label=mode,
                                          samples=CONJ_SAMPLES):
                        return conjecture_check(CONJ_SAMPLES, seed, mode, n=5, workers=1)

                self.records.append(self.op(stats, CONJ_SAMPLES, run).to_json_dict())
        return stats

    def sample_cells(self, mode: str, seed: int, count: int):
        """Per-sample (holds, feasible) cells and boundary flags of the first
        ``count`` samples, read off the tallies of growing prefixes."""
        keys = ("condition_holds_and_feasible", "condition_holds_and_infeasible",
                "condition_fails_and_feasible", "condition_fails_and_infeasible")
        cells, boundary = [], []
        before = np.zeros(5, dtype=int)
        for k in range(1, count + 1):
            report = conjecture_check(k, seed, mode, n=5, workers=1).to_json_dict()
            now = np.array([report[key] for key in keys] + [report["boundary"]])
            step = now - before
            before = now
            cell = int(np.flatnonzero(step[:4])[0])
            cells.append((cell < 2, cell % 2 == 0))
            boundary.append(bool(step[4]))
        return cells, boundary

    def check(self) -> list[str]:
        problems = []
        for report in self.records:
            problems += ref.check_tallies(report)
        for mode in MODES:
            seed = self.conj_seed(0, mode)
            cells, boundary = self.sample_cells(mode, seed, CONJ_SUBSET)
            problems += ref.check_sample_verdicts(5, mode, seed, cells, boundary)
        return problems

    def probe(self) -> None:
        a = ref.system(5, ref.complete(5))
        for mode in MODES:
            for index in range(16):
                b, c = ref.draw_sample(5, mode, PROBE_SEED, index)
                with self.tracer.span("simplex.solve_phase1", label="complete-n5") as span:
                    result = solve_phase1(a, ref.rhs_vector(5, b, c))
                span["iterations"] = result.iterations


# ---------------------------------------------------------------------------
# oracle-ladder
# ---------------------------------------------------------------------------

LADDER = (
    [("chain", n, False) for n in range(3, 13)]
    + [("complete", n, False) for n in range(3, 9)]
    + [("complete", n, True) for n in range(3, 7)]
)
KINDS = ("random", "zero", "cosine")
LADDER_PASSES = 4  # passes over the ladder per round; the fault is tried once per round
FAULT_N = 9        # complete pattern, all-zero correlators: raises OracleError today


def _pairs(pattern: str, n: int):
    return chain_pairs(n) if pattern == "chain" else complete_pairs(n)


class OracleLadder(Workload):
    """One lp_feasible verdict per data set across the advertised range."""

    name = "oracle-ladder"
    tag = 2

    def draw(self, pattern: str, n: int, kind: str):
        """Inputs of one data set: a distribution to take moments of, or the
        correlators themselves."""
        pairs = _pairs(pattern, n)
        if kind == "random":
            return _random_distribution(self.rng, n)
        if kind == "zero":
            return [0.0] * len(pairs)
        # chain: tau near pi/n breaks the all-plus LG member by 0.4 or more;
        # complete: tau near pi/3 breaks the (1,2,3) three-time one by as much
        base = math.pi / n if pattern == "chain" else math.pi / 3
        return _cosine_values(base * self.rng.uniform(0.8, 1.2), pairs)

    def verdict(self, pattern: str, n: int, exact: bool, kind: str, drawn) -> dict:
        pairs = _pairs(pattern, n)
        b, round_trip = None, None
        if kind == "random":
            with self.tracer.span("core.moments_from_distribution", label=f"n{n}"):
                spec = moments_from_distribution(JointDistribution(n, drawn))
            with self.tracer.span("core.distribution_from_moments", label=f"n{n}"):
                back = distribution_from_moments(spec)
            b = [spec.b(i) for i in range(1, n + 1)]
            values = [spec.c(i, j) for i, j in pairs]
            round_trip = (drawn, back.p)
        else:
            values = drawn
        data = CorrelatorSet(n, dict(zip(pairs, values)))
        name = "feasibility.lp_exact" if exact else "feasibility.lp_feasible"
        with self.tracer.span(name, label=f"{pattern}-n{n}", kind=kind):
            verdict = lp_feasible(b, data, exact=exact)
        return {"pattern": pattern, "n": n, "exact": exact, "kind": kind, "b": b,
                "values": values, "round_trip": round_trip, "feasible": verdict.feasible,
                "p": _certificate(verdict)}

    def warm_up(self) -> None:
        self.inputs = [(pattern, n, exact, kind, self.draw(pattern, n, kind))
                       for pattern, n, exact in LADDER for kind in KINDS]
        for pattern, exact in (("chain", False), ("complete", False), ("complete", True)):
            for kind in KINDS:
                self.verdict(pattern, 3, exact, kind, self.draw(pattern, 3, kind))

    def round(self, r: int) -> RoundStats:
        stats = RoundStats()
        for _ in range(LADDER_PASSES):
            for case in self.inputs:
                self.records.append(self.op(stats, 1, lambda: self.verdict(*case)))
        zero = CorrelatorSet(FAULT_N, {pair: 0.0 for pair in complete_pairs(FAULT_N)})
        stats.attempted += 1
        started = time.perf_counter()
        with self.tracer.span("feasibility.lp_feasible", label=f"complete-n{FAULT_N}", kind="zero"):
            try:
                verdict = lp_feasible(None, zero)
            except OracleError as exc:
                verdict = exc
        if isinstance(verdict, OracleError):
            stats.failed += 1
            stats.ops.append((None, None, 0))
            self.calibrate()
            self.records.append({"fault": type(verdict).__name__})
        else:
            wall = time.perf_counter() - started
            stats.ops.append((wall, self.calibrate(), 1))
            self.records.append({"pattern": "complete", "n": FAULT_N, "exact": False,
                                 "kind": "zero", "b": None, "values": [0.0] * len(zero.entries),
                                 "round_trip": None, "feasible": verdict.feasible,
                                 "p": _certificate(verdict)})
        return stats

    def check(self) -> list[str]:
        problems = []
        margins: dict = {}
        for rec in self.records:
            if "fault" in rec:
                if rec["fault"] != "OracleError":
                    problems.append(f"complete-n{FAULT_N}: unexpected {rec['fault']}")
                continue
            pattern, n = rec["pattern"], rec["n"]
            pairs = ref.chain(n) if pattern == "chain" else ref.complete(n)
            what = f"{'exact ' if rec['exact'] else ''}{pattern}-n{n} {rec['kind']}"
            rhs = ref.rhs_vector(n, rec["b"], rec["values"])
            key = (pattern, n, tuple(rhs))
            if key not in margins:
                margins[key] = ref.highs_margin(n, pairs, rhs)
            expected = rec["kind"] != "cosine"
            problems += ref.check_verdict(rec["feasible"], expected, margins[key], what)
            if rec["feasible"]:
                problems += ref.check_certificate(rec["p"], n, pairs, rhs, what)
            if rec["kind"] == "cosine":
                c = dict(zip(pairs, rec["values"]))
                if pattern == "chain":
                    slack = ref.lg_max_slack([c[(i, i + 1)] for i in range(1, n)], c[(1, n)])
                else:
                    slack = -(1 + c[(1, 3)] - c[(1, 2)] - c[(2, 3)])
                if slack < 0.1:
                    problems.append(f"{what}: input breaks no inequality (slack {slack:.3e})")
            if rec["round_trip"] is not None:
                p, back = rec["round_trip"]
                problems += ref.check_close(float(np.abs(back - p).max()), 0.0, 1e-12,
                                            f"{what}: moments round trip")
                problems += ref.check_close(
                    float(np.abs(ref.moment_vector(p, n, pairs) - rhs).max()), 0.0, 1e-12,
                    f"{what}: moments of the drawn distribution")
        if any("fault" in rec for rec in self.records):
            zero_rhs = ref.rhs_vector(FAULT_N, None, [0.0] * len(ref.complete(FAULT_N)))
            margin = ref.highs_margin(FAULT_N, ref.complete(FAULT_N), zero_rhs)
            if ref.highs_verdict(margin) is not True:
                problems.append(f"complete-n{FAULT_N} zero: HiGHS margin {margin:.3e} is not feasible")
        return problems

    def probe(self) -> None:
        n = 12
        pairs = ref.chain(n)
        a = ref.system(n, pairs)
        p = _random_distribution(np.random.default_rng(PROBE_SEED), n)
        inputs = [
            ref.moment_vector(p, n, pairs),
            ref.rhs_vector(n, None, [0.0] * len(pairs)),
            ref.rhs_vector(n, None, _cosine_values(math.pi / n, pairs)),
        ]
        for rhs in inputs:
            with self.tracer.span("simplex.solve_phase1", label=f"chain-n{n}") as span:
                result = solve_phase1(a, rhs)
            span["iterations"] = result.iterations


# ---------------------------------------------------------------------------
# large-n
# ---------------------------------------------------------------------------

LG_N = 16          # largest lg family that fits a round
NGON_N = 14        # largest n-gon family that fits a round
SWEEPS = (("lg", 14), ("ngon", 12))  # sized so that a run repeats every operation 4 times or more
NU_N_MAX = 12
CORE_NS = (14,)
FINE_NS = (5, 10, 16, 20)
# fine_build names violated members by building the whole lg family of the
# failing block, so an infeasible input at n = 20 costs about 17 s and
# 1.5 GB; infeasible inputs stop at n = 16, where the same waste shows
FINE_INFEASIBLE_MAX_N = 16
EXACT_JS = (3, 4, 5, 6, 7, 8)
MC_SAMPLES = 200_000
CLI_MC_SAMPLES = 100_000
CLT_N_MAX = 50


def _markov_chain_data(rng, n: int) -> tuple[list[float], dict]:
    """Averages and chain correlators of a random two-state Markov chain:
    moments of an actual distribution, so feasible by construction."""
    up = rng.uniform(0.2, 0.8)
    joint = np.diag([up, 1.0 - up])  # (s_1, s_k) joint, + first
    parity = np.array([[1.0, -1.0], [-1.0, 1.0]])
    b = [2.0 * up - 1.0]
    entries = {}
    for k in range(1, n):
        stay = rng.uniform(0.1, 0.9, 2)
        step = np.array([[stay[0], 1 - stay[0]], [1 - stay[1], stay[1]]])
        marginal = joint.sum(axis=0)
        entries[(k, k + 1)] = float((np.diag(marginal) @ step * parity).sum())
        joint = joint @ step
        marginal = joint.sum(axis=0)
        b.append(float(marginal[0] - marginal[1]))
    entries[(1, n)] = float((joint * parity).sum())
    return b, entries


class LargeN(Workload):
    """The limit of many measurement times: families, sweeps, nu(n),
    fine_build up to n = 20, volume estimates and the CLI."""

    name = "large-n"
    tag = 3

    def __init__(self, seed: int, tracer, scratch: Path) -> None:
        super().__init__(seed, tracer, scratch)
        self.lg3_first = lg_family(3).members[0]

    def warm_up(self) -> None:
        rng = self.rng
        self.omega = float(rng.uniform(0.5, 2.0))
        self.core_inputs = {n: _random_distribution(rng, n) for n in CORE_NS}
        self.fine_inputs = []
        for n in FINE_NS:
            b, entries = _markov_chain_data(rng, n)
            self.fine_inputs.append((n, "markov", b, entries))
            if n <= FINE_INFEASIBLE_MAX_N:
                tau = math.pi / n * rng.uniform(0.8, 1.2)
                cosine = dict(zip(chain_pairs(n), _cosine_values(tau, chain_pairs(n))))
                self.fine_inputs.append((n, "cosine", None, cosine))
        self.mc_seed = int(rng.integers(0, 2**31))

        distinct_under_equal_spacing(lg_family(5))
        distinct_under_equal_spacing(ngon_family(5))
        for family in ("lg", "ngon"):
            sweep(SpinSweepConfig(n=5, family=family, steps=64))
        for regime in ("extend", "fixed_window"):
            nu_versus_n(3, 5, regime, steps=64)
        small = _random_distribution(rng, 5)
        distribution_from_moments(moments_from_distribution(JointDistribution(5, small)))
        b, entries = _markov_chain_data(rng, 5)
        fine_build(b, CorrelatorSet(5, entries))
        v_lg(5), v_ngon(5), exact_violation_fraction(1.0, 3)
        mc_violation_fraction(self.lg3_first, 1000, self.mc_seed)
        cli.main(["gen", "--family", "lg", "--n", "3", "--out", str(self.scratch / "warm.json")])

    def _family(self, stats: RoundStats, family: str, n: int) -> None:
        build = lg_family if family == "lg" else ngon_family

        def run():
            with self.tracer.span(f"inequalities.{family}_family", label=f"n{n}") as span:
                members = build(n)
            span["members"] = len(members)
            return members

        members = self.op(stats, 1, run)

        def dedup():
            with self.tracer.span("inequalities.distinct_under_equal_spacing", label=f"{family}-n{n}"):
                return distinct_under_equal_spacing(members)

        distinct = self.op(stats, 1, dedup)
        self.records.append({"op": "family", "family": family, "n": n, "members": len(members),
                             "distinct": len(distinct)})

    def round(self, r: int) -> RoundStats:
        stats = RoundStats()
        omega = self.omega
        span = self.tracer.span

        self._family(stats, "lg", LG_N)
        self._family(stats, "ngon", NGON_N)

        for family, n in SWEEPS:
            def run():
                with span("spinmodel.sweep", label=f"{family}-n{n}"):
                    return sweep(SpinSweepConfig(n=n, omega=omega, family=family))

            result = self.op(stats, 1, run)
            self.records.append({"op": "sweep", "family": family, "n": n, "x": omega * result.grid,
                                 "flags": result.any_violation, "nu": result.nu})

        for regime in ("extend", "fixed_window"):
            def run():
                with span("spinmodel.nu_versus_n", label=regime):
                    return nu_versus_n(3, NU_N_MAX, regime, omega)

            curve = self.op(stats, 1, run)
            self.records.append({"op": "nu", "regime": regime, "omega": omega, "curve": curve})

        for n, p in self.core_inputs.items():
            def run():
                with span("core.moments_from_distribution", label=f"n{n}"):
                    spec = moments_from_distribution(JointDistribution(n, p))
                with span("core.distribution_from_moments", label=f"n{n}"):
                    return spec, distribution_from_moments(spec)

            spec, back = self.op(stats, 1, run)
            moments = [spec.b(i) for i in range(1, n + 1)] + [spec.c(i, j) for i, j in ref.chain(n)]
            self.records.append({"op": "round_trip", "n": n, "p": p, "back": back.p,
                                 "chain": moments})

        for n, kind, b, entries in self.fine_inputs:
            def run():
                with span("feasibility.fine_build", label=f"n{n}", kind=kind):
                    return fine_build(b, CorrelatorSet(n, entries))

            verdict = self.op(stats, 1, run)
            self.records.append({"op": "fine_build", "n": n, "kind": kind, "b": b,
                                 "values": [entries[pair] for pair in ref.chain(n)],
                                 "feasible": verdict.feasible, "p": _certificate(verdict)})

        for family, estimator in (("lg", v_lg), ("ngon", v_ngon)):
            def run():
                with span("cltvolume.clt_curve", label=family):
                    return [estimator(n).value for n in range(3, CLT_N_MAX + 1)]

            self.records.append({"op": "clt", "family": family, "curve": self.op(stats, 1, run)})
        for j in EXACT_JS:
            def run():
                with span("cltvolume.exact_violation_fraction", label=f"j{j}"):
                    return exact_violation_fraction(float(j - 2), j).value

            self.records.append({"op": "exact", "j": j, "value": self.op(stats, 1, run)})

        def run():
            with span("cltvolume.mc_violation_fraction", draws=MC_SAMPLES):
                return mc_violation_fraction(self.lg3_first, MC_SAMPLES, self.mc_seed)

        self.records.append({"op": "mc", "seed": self.mc_seed, "value": self.op(stats, 1, run).value})

        for sub, argv in self.cli_calls(r):
            def run():
                with span("cli.main", label=sub):
                    return cli.main(argv)

            self.records.append({"op": "cli", "sub": sub, "code": self.op(stats, 1, run), "argv": argv})
        return stats

    def cli_calls(self, r: int):
        out = lambda sub, ext: ["--out", str(self.scratch / f"r{r}-{sub}.{ext}")]  # noqa: E731
        omega = repr(self.omega)
        return [
            ("gen", ["gen", "--family", "lg", "--n", "12", "--distinct"] + out("gen", "json")),
            ("spin", ["spin", "--n", "12", "--family", "lg", "--omega", omega] + out("spin", "csv")),
            ("nu", ["nu", "--n-min", "3", "--n-max", "12", "--regime", "fixed", "--omega", omega]
             + out("nu", "csv")),
            ("clt", ["clt", "--family", "ngon", "--n-min", "3", "--n-max", str(CLT_N_MAX)]
             + out("clt", "csv")),
            ("mc", ["mc", "--n", "3", "--member", "0", "--samples", str(CLI_MC_SAMPLES),
                    "--seed", str(self.mc_seed), "--exact"] + out("mc", "json")),
        ]

    def check(self) -> list[str]:
        problems = []
        for rec in self.records:
            problems += getattr(self, f"_check_{rec['op']}")(rec)
        return problems

    def _check_family(self, rec) -> list[str]:
        n, what = rec["n"], f"{rec['family']}-n{rec['n']}"
        problems = []
        if rec["members"] != 1 << (n - 1):
            problems.append(f"{what}: {rec['members']} members, expected {1 << (n - 1)}")
        classes = n if rec["family"] == "lg" else len(ref.ngon_gap_classes(n))
        if rec["distinct"] != classes:
            problems.append(f"{what}: {rec['distinct']} equal-spacing classes, expected {classes}")
        return problems

    def _check_sweep(self, rec) -> list[str]:
        check = ref.check_lg_sweep if rec["family"] == "lg" else ref.check_ngon_sweep
        return check(rec["n"], rec["x"], rec["flags"], rec["nu"], f"sweep {rec['family']}-n{rec['n']}")

    def _check_nu(self, rec) -> list[str]:
        what = f"nu {rec['regime']}"
        problems = ref.check_nu_curve(rec["curve"], rec["regime"], what)
        for n, nu in rec["curve"]:
            grid = SpinSweepConfig(n=n, omega=rec["omega"], regime=rec["regime"]).grid()
            problems += ref.check_lg_nu(n, rec["omega"] * grid, nu, f"{what} n={n}")
        return problems

    def _check_round_trip(self, rec) -> list[str]:
        n, what = rec["n"], f"core round trip n={rec['n']}"
        own = ref.moment_vector(rec["p"], n, ref.chain(n))[1:]
        return (ref.check_close(float(np.abs(rec["back"] - rec["p"]).max()), 0.0, 1e-12, what)
                + ref.check_close(float(np.abs(own - np.array(rec["chain"])).max()), 0.0, 1e-12,
                                  f"{what}: chain moments"))

    def _check_fine_build(self, rec) -> list[str]:
        n, what = rec["n"], f"fine_build n={rec['n']} {rec['kind']}"
        pairs = ref.chain(n)
        expected = rec["kind"] == "markov"
        if rec["feasible"] != expected:
            return [f"{what}: verdict {rec['feasible']}, known answer {expected}"]
        if expected:
            rhs = ref.rhs_vector(n, rec["b"], rec["values"])
            return ref.check_certificate(rec["p"], n, pairs, rhs, what)
        slack = ref.lg_max_slack(rec["values"][:-1], rec["values"][-1])
        if slack < 0.1:
            return [f"{what}: input breaks no LG inequality (slack {slack:.3e})"]
        return []

    def _check_clt(self, rec) -> list[str]:
        problems = []
        for n, value in zip(range(3, CLT_N_MAX + 1), rec["curve"]):
            if rec["family"] == "lg":
                bound, j = n - 2, n
            else:
                bound, j = ref.ngon_bound(n), n * (n - 1) // 2
            problems += ref.check_close(value, ref.clt_fraction(bound, j), 1e-14,
                                        f"v_{rec['family']}({n})")
        return problems

    def _check_exact(self, rec) -> list[str]:
        j = rec["j"]
        return ref.check_close(rec["value"], ref.irwin_hall_tail(j - 2.0, j), 1e-12,
                               f"exact tail j={j}")

    def _check_mc(self, rec) -> list[str]:
        return ref.check_mc(rec["value"], MC_SAMPLES, 1 / 6, f"mc lg3 member 0 seed {rec['seed']}")

    def _check_cli(self, rec) -> list[str]:
        sub, argv = rec["sub"], rec["argv"]
        what = f"cli {sub}"
        if rec["code"] != 0:
            return [f"{what}: exit code {rec['code']}"]
        text = Path(argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        omega = self.omega
        problems = []
        if sub == "gen":
            labels = [m["label"] for m in json.loads(text)]
            expected = [m.label for m in distinct_under_equal_spacing(lg_family(12)).members]
            if labels != expected or len(labels) != 12:
                problems.append(f"{what}: labels differ from the library family")
        elif sub == "spin":
            rows = list(csv.reader(text.splitlines()))
            lib = sweep(SpinSweepConfig(n=12, omega=omega))
            data = np.array([[float(v) for v in row] for row in rows[1:]])
            err = np.abs(data[:, 1:-1].T - lib.slacks).max()
            problems += ref.check_close(float(err), 0.0, 1e-9, f"{what}: slacks")
            flags = data[:, -1].astype(bool)
            if not np.array_equal(flags, lib.any_violation):
                problems.append(f"{what}: any_violation column differs from the library")
            problems += ref.check_lg_sweep(12, omega * data[:, 0], flags, float(flags.mean()), what)
        elif sub == "nu":
            got = [(int(n), float(nu)) for n, nu in list(csv.reader(text.splitlines()))[1:]]
            lib = nu_versus_n(3, 12, "fixed_window", omega)
            if [n for n, _ in got] != [n for n, _ in lib] or any(
                abs(a[1] - b[1]) > 1e-12 for a, b in zip(got, lib)
            ):
                problems.append(f"{what}: curve differs from the library")
        elif sub == "clt":
            for n, v in list(csv.reader(text.splitlines()))[1:]:
                problems += ref.check_close(float(v), v_ngon(int(n)).value, 1e-11, f"{what} n={n}")
        elif sub == "mc":
            payload = json.loads(text)
            lib = mc_violation_fraction(self.lg3_first, CLI_MC_SAMPLES, self.mc_seed)
            problems += ref.check_close(payload["value"], lib.value, 1e-11, f"{what}: value")
            problems += ref.check_close(payload["exact"], 1 / 6, 1e-12, f"{what}: exact")
            problems += ref.check_mc(payload["value"], CLI_MC_SAMPLES, 1 / 6, what)
        return problems


WORKLOADS = {cls.name: cls for cls in (ConjectureN5, OracleLadder, LargeN)}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _durations(spans, name: str, label: str | None = None) -> list[float]:
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name and (label is None or s.get("label") == label)]


def _median(name: str, label: str | None, scale: float):
    return lambda spans: statistics.median(_durations(spans, name, label)) * scale


def _rate(names: tuple[str, ...], count: str, label: str | None = None):
    def value(spans):
        chosen = [s for s in spans if s["name"] in names
                  and (label is None or s.get("label") == label)]
        return sum(s[count] for s in chosen) / sum(s["end"] - s["start"] for s in chosen)
    return value


def _total(name: str, label: str, key: str):
    return lambda spans: sum(s[key] for s in spans if s["name"] == name and s.get("label") == label)


def _per_layer() -> list[tuple[str, str, str, object]]:
    rows = [
        (f"inequalities.lg_family_s.n{LG_N}", "s", "lower", _median("inequalities.lg_family", f"n{LG_N}", 1)),
        (f"inequalities.ngon_family_s.n{NGON_N}", "s", "lower",
         _median("inequalities.ngon_family", f"n{NGON_N}", 1)),
        (f"inequalities.distinct_s.lg-n{LG_N}", "s", "lower",
         _median("inequalities.distinct_under_equal_spacing", f"lg-n{LG_N}", 1)),
        (f"inequalities.distinct_s.ngon-n{NGON_N}", "s", "lower",
         _median("inequalities.distinct_under_equal_spacing", f"ngon-n{NGON_N}", 1)),
        ("inequalities.members_per_s", "1/s", "higher",
         _rate(("inequalities.lg_family", "inequalities.ngon_family"), "members")),
    ] + [
        (f"spinmodel.sweep_s.{family}-n{n}", "s", "lower", _median("spinmodel.sweep", f"{family}-n{n}", 1))
        for family, n in SWEEPS
    ] + [
        ("spinmodel.nu_versus_n_s.extend", "s", "lower", _median("spinmodel.nu_versus_n", "extend", 1)),
        ("spinmodel.nu_versus_n_s.fixed_window", "s", "lower",
         _median("spinmodel.nu_versus_n", "fixed_window", 1)),
        ("cltvolume.mc_draws_per_s", "1/s", "higher", _rate(("cltvolume.mc_violation_fraction",), "draws")),
        ("cltvolume.exact_tail_ms", "ms", "lower", _median("cltvolume.exact_violation_fraction", None, 1e3)),
        ("cltvolume.clt_curve_ms", "ms", "lower", _median("cltvolume.clt_curve", None, 1e3)),
    ]
    core_ns = list(range(3, 13)) + list(CORE_NS)
    for fn in ("moments_from_distribution", "distribution_from_moments"):
        rows += [(f"core.{fn}_ms.n{n}", "ms", "lower", _median(f"core.{fn}", f"n{n}", 1e3))
                 for n in core_ns]
    for label in ("complete-n5", "chain-n12"):
        rows += [
            (f"simplex.phase1_ms.{label}", "ms", "lower", _median("simplex.solve_phase1", label, 1e3)),
            (f"simplex.iterations.{label}", "count", "lower", _total("simplex.solve_phase1", label, "iterations")),
        ]
    for pattern, n, exact in LADDER:
        kind = "lp_exact" if exact else "lp_feasible"
        rows.append((f"feasibility.{kind}_ms.{pattern}-n{n}", "ms", "lower",
                     _median(f"feasibility.{kind}", f"{pattern}-n{n}", 1e3)))
    rows.append((f"feasibility.lp_failed_s.complete-n{FAULT_N}", "s", "lower",
                 _median("feasibility.lp_feasible", f"complete-n{FAULT_N}", 1)))
    for mode in MODES:
        rows.append((f"feasibility.conjecture_samples_per_s.{mode}", "1/s", "higher",
                     _rate(("feasibility.conjecture_check",), "samples", mode)))
    rows += [(f"feasibility.fine_build_ms.n{n}", "ms", "lower", _median("feasibility.fine_build", f"n{n}", 1e3))
             for n in FINE_NS]
    rows += [(f"cli.{sub}_ms", "ms", "lower", _median("cli.main", sub, 1e3))
             for sub in ("gen", "spin", "nu", "clt", "mc")]
    return rows


PER_LAYER = _per_layer()
TRACED_RATE = ("trace.items_per_s", "1/s", "higher")


def layer_metrics(spans: list[dict], traced_rate: float) -> dict:
    metrics = {name: {"value": float(rule(spans)), "unit": unit} for name, unit, _, rule in PER_LAYER}
    metrics[TRACED_RATE[0]] = {"value": traced_rate, "unit": TRACED_RATE[1]}
    return metrics
