"""The benchmark's checks must reject the failures they look for.

    PYTHONPATH=src python -m pytest perfbench/test_reference.py

Each test runs a check once on a genuine output, which must pass, and
once on a copy corrupted in one place, which must fail.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

import reference as ref
import workloads
from lgfeas import SpinSweepConfig, conjecture_check, nu_versus_n, sweep
from tracing import NullTracer


def _ladder_record(n: int = 4) -> tuple[workloads.OracleLadder, dict]:
    ladder = workloads.OracleLadder(7, NullTracer(), Path("."))
    record = ladder.verdict("chain", n, False, "random", ladder.draw("chain", n, "random"))
    record["p"] = np.array(record["p"])
    return ladder, record


def _ladder_problems(ladder, record) -> list[str]:
    ladder.records = [record]
    return ladder.check()


def test_ladder_check_passes_a_genuine_verdict():
    ladder, record = _ladder_record()
    assert _ladder_problems(ladder, record) == []


def test_flipped_verdict_is_rejected():
    ladder, record = _ladder_record()
    record["feasible"] = False
    assert any("known answer" in p for p in _ladder_problems(ladder, record))


def test_negative_certificate_entry_is_rejected():
    ladder, record = _ladder_record()
    p = record["p"].copy()
    p[0], p[-1] = -1e-6, p[-1] + p[0] + 1e-6  # total unchanged
    record["p"] = p
    assert any("negative" in msg for msg in _ladder_problems(ladder, record))


def test_moment_off_by_1e6_is_rejected():
    ladder, record = _ladder_record()
    # the certificate now misses C_12 by 1e-6 and every other moment by nothing
    record["values"] = [record["values"][0] + 1e-6] + record["values"][1:]
    assert any("misses its moments" in p for p in _ladder_problems(ladder, record))


def _sweep_record(n: int = 8) -> tuple[workloads.LargeN, dict]:
    large = workloads.LargeN(7, NullTracer(), Path("."))
    result = sweep(SpinSweepConfig(n=n, omega=1.3))
    return large, {"op": "sweep", "family": "lg", "n": n, "x": 1.3 * result.grid,
                   "flags": result.any_violation.copy(), "nu": result.nu}


def test_sweep_check_passes_a_genuine_sweep():
    large, record = _sweep_record()
    assert large._check_sweep(record) == []


def test_nu_off_by_one_grid_point_is_rejected():
    large, record = _sweep_record()
    record["nu"] += 1.0 / record["flags"].size
    assert large._check_sweep(record)


def test_one_flipped_grid_flag_is_rejected():
    large, record = _sweep_record()
    record["flags"][17] = not record["flags"][17]
    assert large._check_sweep(record)


def test_nu_curve_off_by_one_grid_point_is_rejected():
    large = workloads.LargeN(7, NullTracer(), Path("."))
    curve = nu_versus_n(3, 8, "extend", 0.9)
    record = {"op": "nu", "regime": "extend", "omega": 0.9, "curve": curve}
    assert large._check_nu(record) == []
    bad = copy.deepcopy(record)
    bad["curve"][-1] = (curve[-1][0], curve[-1][1] + 1.0 / 2048)
    assert large._check_nu(bad)


def test_mc_value_five_sigma_away_is_rejected():
    samples = workloads.MC_SAMPLES
    sigma = math.sqrt((1 / 6) * (5 / 6) / samples)
    large = workloads.LargeN(7, NullTracer(), Path("."))
    assert large._check_mc({"value": 1 / 6 + 3 * sigma, "seed": 0}) == []
    assert large._check_mc({"value": 1 / 6 + 5 * sigma, "seed": 0})
    assert large._check_mc({"value": 1 / 6 - 5 * sigma, "seed": 0})


def test_infeasible_fine_build_must_break_an_lg_inequality():
    large = workloads.LargeN(7, NullTracer(), Path("."))
    n = 6
    record = {"op": "fine_build", "n": n, "kind": "cosine", "b": None,
              "values": [math.cos(math.pi / n)] * (n - 1) + [math.cos(math.pi * (n - 1) / n)],
              "feasible": False, "p": None}
    assert large._check_fine_build(record) == []
    assert large._check_fine_build({**record, "feasible": True})
    assert large._check_fine_build({**record, "values": [0.0] * n})


def test_conjecture_sample_verdict_flip_is_rejected():
    seed = 3
    conj = workloads.ConjectureN5(0, NullTracer(), Path("."))
    cells, boundary = conj.sample_cells("general", seed, 6)
    assert ref.check_sample_verdicts(5, "general", seed, cells, boundary) == []
    flipped = [(holds, not feasible) if k == 2 else (holds, feasible)
               for k, (holds, feasible) in enumerate(cells)]
    assert not boundary[2]
    assert ref.check_sample_verdicts(5, "general", seed, flipped, boundary)


def test_tally_checks_reject_a_broken_report():
    report = conjecture_check(20, 5, "symmetric").to_json_dict()
    assert ref.check_tallies(report) == []
    assert ref.check_tallies({**report, "condition_fails_and_feasible": 1})
    assert ref.check_tallies({**report, "samples": 21})
    assert ref.check_tallies({**report, "counterexamples": [{"n": 5, "moments": {}}]})


def test_benchmark_file_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [row[0] for row in workloads.PER_LAYER] + [workloads.TRACED_RATE[0]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
