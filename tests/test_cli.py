import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lgfeas
from lgfeas.cli import main
from util import markov_chain_data


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_lg3_stdout(capsys):
    code, out = _run(capsys, "gen", "--family", "lg", "--n", "3")
    assert code == 0
    members = json.loads(out)
    assert len(members) == 4
    assert {"label", "terms", "bound"} <= set(members[0])


def test_gen_distinct_lg10(capsys):
    code, out = _run(capsys, "gen", "--family", "lg", "--n", "10", "--distinct")
    assert code == 0
    assert len(json.loads(out)) == 10


def test_gen_raw_count_and_misuse(capsys):
    code, out = _run(capsys, "gen", "--family", "ngon", "--n", "4", "--raw")
    assert code == 0
    assert len(json.loads(out)) == 16
    code, _ = _run(capsys, "gen", "--family", "lg", "--n", "4", "--raw")
    assert code == 2


def test_gen_distinct_refuses_the_triple_family(capsys):
    assert main(["gen", "--family", "three", "--n", "4", "--distinct"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lgfeas: error: --distinct applies to the lg and ngon families\n"


def test_gen_out_of_range_n(capsys):
    code, _ = _run(capsys, "gen", "--family", "lg", "--n", "25")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_check_uniform_feasible(tmp_path, capsys):
    spec = tmp_path / "uniform3.json"
    spec.write_text(
        json.dumps({"n": 3, "moments": {"1": 0.0, "1,2": 0.0, "2,3": 0.0, "1,3": 0.0}})
    )
    code, out = _run(capsys, "check", "--moments", str(spec))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["feasible"] is True
    assert len(verdict["certificate"]["p"]) == 8


def test_check_strict_maps_infeasible_to_exit_1(tmp_path, capsys):
    spec = tmp_path / "tsirelson.json"
    spec.write_text(
        json.dumps({"n": 3, "moments": {"1,2": 0.5, "2,3": 0.5, "1,3": -0.5}})
    )
    code, out = _run(capsys, "check", "--moments", str(spec))
    assert code == 0
    assert json.loads(out)["feasible"] is False
    code, _ = _run(capsys, "check", "--moments", str(spec), "--strict")
    assert code == 1


def test_check_exact_mode(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": {"1,2": 1.0, "2,3": 1.0, "1,3": 1.0}}))
    code, out = _run(capsys, "check", "--moments", str(spec), "--exact")
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_check_decides_an_average_one_ulp_above_one(tmp_path, capsys):
    # 1 + 2^-52, as moments_from_distribution rounds B_1 of mass on s_1 = +1
    spec = tmp_path / "m.json"
    moments = {"1": 1.0000000000000002, "2": 0.25, "1,2": 0.25, "2,3": 0.5, "1,3": 0.0}
    spec.write_text(json.dumps({"n": 3, "moments": moments}))
    code, out = _run(capsys, "check", "--moments", str(spec))
    assert code == 0
    assert json.loads(out)["feasible"] is True


@pytest.mark.parametrize("bad", [1.1, math.nan])
def test_check_refuses_an_average_outside_the_range(tmp_path, capsys, bad):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": {"1": bad, "1,2": 0.0}}))
    code, _ = _run(capsys, "check", "--moments", str(spec))
    assert code == 2


def test_check_rejects_higher_order_moments(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": {"1,2,3": 0.5}}))
    code, _ = _run(capsys, "check", "--moments", str(spec))
    assert code == 2


def test_fine_build_rejects_higher_order_moments_as_check_does(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": {"1,2": 0.5, "2,3": 0.5, "1,3": 0.5, "1,2,3": 0.5}}))
    for sub in ("check", "fine-build"):
        assert main([sub, "--moments", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "lgfeas: error: oracle input must fix only one- and two-time moments\n")


def test_fine_build_writes_certificate_and_manifest(tmp_path, capsys):
    spec = tmp_path / "chain.json"
    spec.write_text(
        json.dumps({"n": 4, "moments": {"1,2": 1.0, "2,3": 1.0, "3,4": 1.0, "1,4": 1.0}})
    )
    out = tmp_path / "cert.json"
    code, _ = _run(capsys, "fine-build", "--moments", str(spec), "--out", str(out))
    assert code == 0
    verdict = json.loads(out.read_text())
    assert verdict["feasible"] is True
    assert verdict["certificate"]["p"][0] == pytest.approx(0.5)
    manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
    assert manifest["tool"] == "lgfeas"
    assert "--moments" in manifest["command"]


def test_fine_build_infeasible_names_members(tmp_path, capsys):
    s = 1 / math.sqrt(2)
    spec = tmp_path / "chsh.json"
    spec.write_text(
        json.dumps({"n": 4, "moments": {"1,2": s, "2,3": s, "3,4": s, "1,4": -s}})
    )
    code, out = _run(capsys, "fine-build", "--moments", str(spec))
    assert code == 0
    assert json.loads(out)["violated"] == ["lg4:+++-"]


def test_check_and_fine_build_agree_on_a_negative_pair_probability(tmp_path, capsys):
    # P(s_1 = s_2 = -1) = (1 - 0.9 - 0.9 - 0.9) / 4 < 0
    spec = tmp_path / "negative_pair.json"
    spec.write_text(
        json.dumps({"n": 3, "moments": {"1": 0.9, "2": 0.9, "3": 0.0,
                                        "1,2": -0.9, "2,3": 0.0, "1,3": 0.0}})
    )
    verdicts = []
    for command in ("check", "fine-build"):
        code, out = _run(capsys, command, "--moments", str(spec))
        assert code == 0
        verdicts.append(json.loads(out))
    assert [v["feasible"] for v in verdicts] == [False, False]
    assert verdicts[1]["violated"] == ["two3:1.2:--"]


@pytest.mark.parametrize("n", [12, 15])
def test_check_prints_the_fine_build_payload_on_feasible_chain_data(tmp_path, capsys, n):
    # feasible chain data share one route, past the LP's n <= 12 too: the
    # construction's certificate and no phase1_objective
    b, entries = markov_chain_data(np.random.default_rng(n), n)
    moments = {**{str(i): v for i, v in enumerate(b, 1)},
               **{f"{i},{j}": v for (i, j), v in entries.items()}}
    spec = tmp_path / "markov.json"
    spec.write_text(json.dumps({"n": n, "moments": moments}))
    payloads = []
    for command in ("check", "fine-build"):
        code, out = _run(capsys, command, "--moments", str(spec))
        assert code == 0
        payloads.append(out)
    assert payloads[0] == payloads[1]
    assert set(json.loads(payloads[0])) == {"feasible", "certificate"}


def test_conjecture_writes_report_deterministically(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    args = ["conjecture", "--samples", "40", "--seed", "42", "--mode", "symmetric",
            "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    report = json.loads(first)
    assert report["samples"] == 40 and report["seed"] == 42
    assert not (tmp_path / "counterexamples.jsonl").exists()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_spin_csv_shape_and_determinism(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["spin", "--n", "10", "--family", "lg", "--regime", "extend",
            "--steps", "32", "--out", str(out)]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau," + ",".join(f"member_{k}" for k in range(10)) + ",any_violation"
    assert len(lines) == 33
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["member_columns"]["member_0"] == "lg10:+++++++++-"
    payload = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == payload


def test_spin_strict_flags_violations(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["spin", "--n", "4", "--steps", "64", "--strict", "--out", str(out)])
    assert code == 1


def test_nu_csv(tmp_path, capsys):
    out = tmp_path / "nu.csv"
    assert main(["nu", "--n-min", "4", "--n-max", "6", "--regime", "fixed",
                 "--steps", "128", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,nu"
    assert len(lines) == 4


def test_clt_csv(capsys):
    code, out = _run(capsys, "clt", "--family", "lg", "--n-min", "3", "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,v"
    assert lines[1].startswith("3,0.158655253931")


def test_mc_json_with_exact_reference(capsys):
    code, out = _run(capsys, "mc", "--n", "3", "--member", "0", "--samples", "20000",
                     "--seed", "7", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] == "lg3:++-"
    assert payload["exact"] == pytest.approx(1 / 6, abs=1e-12)
    assert abs(payload["value"] - 1 / 6) < 0.02


def test_mc_exact_reference_past_eight_terms(capsys):
    code, out = _run(capsys, "mc", "--n", "9", "--member", "0", "--samples", "1000", "--exact")
    assert code == 0
    assert json.loads(out)["exact"] == pytest.approx(1 / math.factorial(9), rel=1e-11)


def test_mc_member_index_out_of_range(capsys):
    code, _ = _run(capsys, "mc", "--n", "3", "--member", "99", "--samples", "10")
    assert code == 2


def test_lg_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LG_SEED", "42")
    monkeypatch.chdir(tmp_path)
    out_env = tmp_path / "a.json"
    assert main(["conjecture", "--samples", "25", "--out", str(out_env)]) == 0
    out_flag = tmp_path / "b.json"
    assert main(["conjecture", "--samples", "25", "--seed", "42", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_conjecture_runs_serially_by_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.json"
    assert main(["conjecture", "--samples", "10", "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["config"]["samples"] == 10 and "threads" not in manifest["config"]


def test_flags_outside_a_subcommand_exit_2(capsys):
    # the sampling experiment runs serially, so no subcommand takes --threads
    assert main(["conjecture", "--samples", "10", "--seed", "3", "--threads", "1"]) == 2
    assert main(["gen", "--family", "lg", "--n", "3", "--threads", "2"]) == 2
    assert main(["mc", "--n", "3", "--member", "0", "--samples", "10", "--strict"]) == 2


def _assert_input_error(capsys, code):
    assert code == 2
    assert capsys.readouterr().err.startswith("lgfeas: error:")


@pytest.mark.parametrize("content", [b'{"n": 3, "moments": {"1,2": 0.5,', b"\xff\xfe\x00"])
@pytest.mark.parametrize("sub", ["check", "fine-build"])
def test_malformed_json_exits_2(tmp_path, capsys, sub, content):
    spec = tmp_path / "broken.json"
    spec.write_bytes(content)
    _assert_input_error(capsys, main([sub, "--moments", str(spec)]))


def test_non_numeric_moment_exits_2(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": {"1,2": "x"}}))
    _assert_input_error(capsys, main(["check", "--moments", str(spec)]))


@pytest.mark.parametrize("value", [True, "0.5", None])
@pytest.mark.parametrize("sub", ["check", "fine-build"])
def test_a_moment_value_that_is_no_real_number_exits_2(tmp_path, capsys, sub, value):
    # true and "0.5" once read as 1.0 and 0.5
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": {"1,2": value, "2,3": 0.0, "1,3": 0.0}}))
    _assert_input_error(capsys, main([sub, "--moments", str(spec)]))


@pytest.mark.parametrize("n", [3.9, "3", True])
@pytest.mark.parametrize("sub", ["check", "fine-build"])
def test_non_integer_n_exits_2(tmp_path, capsys, sub, n):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": n, "moments": {"1,2": 0.5, "2,3": 0.5, "1,3": 0.5}}))
    _assert_input_error(capsys, main([sub, "--moments", str(spec)]))


@pytest.mark.parametrize("sub", ["check", "fine-build"])
def test_a_second_spelling_of_a_moment_key_exits_2(tmp_path, capsys, sub):
    # "1, 4" once overwrote "1,4" and made the CHSH data feasible
    s = 1 / math.sqrt(2)
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 4, "moments": {"1,2": s, "2,3": s, "3,4": s, "1,4": -s,
                                                    "1, 4": 0.5}}))
    _assert_input_error(capsys, main([sub, "--moments", str(spec)]))


def test_non_mapping_moments_exits_2(tmp_path, capsys):
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"n": 3, "moments": [1]}))
    _assert_input_error(capsys, main(["check", "--moments", str(spec)]))


def test_non_integer_lg_seed_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LG_SEED", "abc")
    monkeypatch.chdir(tmp_path)
    _assert_input_error(capsys, main(["conjecture", "--samples", "5"]))


# ---------------------------------------------------------------------------
# the runner: manifests and --strict exits, for every subcommand
# ---------------------------------------------------------------------------

_CHAIN4 = {"n": 4, "moments": {"1,2": 1.0, "2,3": 1.0, "3,4": 1.0, "1,4": 1.0}}
_CHSH = {"n": 4, "moments": {"1,2": 1 / math.sqrt(2), "2,3": 1 / math.sqrt(2),
                             "3,4": 1 / math.sqrt(2), "1,4": -1 / math.sqrt(2)}}

MANIFEST_CASES = {
    "gen": (["gen", "--family", "lg", "--n", "4"], {"members"}),
    "check": (["check", "--moments", "@chain4.json"], set()),
    "fine-build": (["fine-build", "--moments", "@chain4.json"], set()),
    "conjecture": (["conjecture", "--samples", "10", "--seed", "3"], {"seed_used"}),
    "spin": (["spin", "--n", "5", "--steps", "16"],
             {"member_columns", "nu", "window_bounds"}),
    "nu": (["nu", "--n-min", "3", "--n-max", "4", "--steps", "16"], set()),
    "clt": (["clt", "--family", "ngon", "--n-min", "3", "--n-max", "6"], set()),
    "mc": (["mc", "--n", "3", "--member", "1", "--samples", "100", "--seed", "5"],
           {"seed_used"}),
}


@pytest.mark.parametrize("sub", sorted(MANIFEST_CASES))
def test_every_subcommand_writes_its_manifest(tmp_path, capsys, monkeypatch, sub):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain4.json").write_text(json.dumps(_CHAIN4))
    argv, extras = MANIFEST_CASES[sub]
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    out = tmp_path / "payload.out"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes()
    manifest = json.loads((tmp_path / "payload.out.manifest.json").read_text())
    base = {"tool", "version", "command", "config", "wall_time_s"}
    assert set(manifest) == base | extras
    assert manifest["tool"] == "lgfeas"
    assert manifest["command"] == argv + ["--out", str(out)]
    assert manifest["config"]["command"] == sub
    assert "func" not in manifest["config"]
    assert manifest["wall_time_s"] >= 0.0
    if sub == "gen":
        assert manifest["members"] == len(json.loads(out.read_text()))
    if sub in ("conjecture", "mc"):
        assert manifest["seed_used"] == int(argv[argv.index("--seed") + 1])
    if sub == "spin":
        assert manifest["window_bounds"] == pytest.approx([0.0, 4 * 2 * math.pi])
        assert 0.0 <= manifest["nu"] <= 1.0
        header = out.read_text().splitlines()[0].split(",")
        assert list(manifest["member_columns"]) == header[1:-1]
        assert manifest["member_columns"]["member_0"].startswith("lg5:")


def test_fine_build_strict_exits_1_on_chsh(tmp_path, capsys):
    spec = tmp_path / "chsh.json"
    spec.write_text(json.dumps(_CHSH))
    assert main(["fine-build", "--moments", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is False
    assert main(["fine-build", "--moments", str(spec), "--strict"]) == 1
    assert json.loads(capsys.readouterr().out)["violated"] == ["lg4:+++-"]


def test_nu_strict_exits_1_on_violation(tmp_path, capsys):
    out = tmp_path / "nu.csv"
    argv = ["nu", "--n-min", "3", "--n-max", "5", "--steps", "64", "--out", str(out)]
    assert main(argv) == 0
    assert any(float(line.split(",")[1]) > 0 for line in out.read_text().splitlines()[1:])
    assert main(argv + ["--strict"]) == 1


def test_conjecture_strict_writes_counterexamples(tmp_path, capsys, monkeypatch):
    from lgfeas import cli
    from lgfeas.core import MomentSpec
    from lgfeas.feasibility import ConjectureReport

    counter = MomentSpec(5, {(1, 2): 0.25, (2, 3): -0.5, (4, 5): 0.125})

    def fake_check(samples, seed, mode="symmetric", **kwargs):
        return ConjectureReport(5, mode, samples, seed, 0, 1, 0, 0, 0, (counter,))

    monkeypatch.setattr(cli, "conjecture_check", fake_check)
    monkeypatch.chdir(tmp_path)
    argv = ["conjecture", "--samples", "1", "--seed", "9", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    jsonl = tmp_path / "counterexamples.jsonl"
    assert [json.loads(line) for line in jsonl.read_text().splitlines()] == [
        counter.to_json_dict()
    ]
    jsonl.unlink()
    assert main(argv + ["--strict"]) == 1
    assert jsonl.read_text() == json.dumps(counter.to_json_dict()) + "\n"
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["condition_holds_and_infeasible"] == 1
    assert report["counterexamples"] == [counter.to_json_dict()]


@pytest.mark.parametrize("flag, value", [("--omega", "nan"), ("--omega", "inf"),
                                         ("--tau-min", "nan"), ("--tau-max", "inf"),
                                         ("--tau-max", "nan")])
@pytest.mark.parametrize("head", [["spin", "--n", "4"], ["nu", "--n-min", "3", "--n-max", "4"]])
def test_non_finite_sweep_flags_exit_2(capsys, head, flag, value):
    _assert_input_error(capsys, main(head + ["--steps", "8", flag, value, "--strict"]))


@pytest.mark.parametrize("argv", [
    ["nu", "--n-min", "3", "--n-max", "4", "--steps", "8", "--tau-min", "-3", "--tau-max", "-1"],
    ["spin", "--n", "4", "--steps", "8", "--tau-min", "-2", "--tau-max", "2"],
])
def test_negative_spacing_exits_2(capsys, argv):
    _assert_input_error(capsys, main(argv))


def test_clt_reversed_range_exits_2(capsys):
    _assert_input_error(capsys, main(["clt", "--family", "lg", "--n-min", "6", "--n-max", "3"]))


def _run_python(*argv):
    # the package directory's parent goes first on the path, so the child
    # imports the same lgfeas as this test
    env = dict(os.environ)
    path = [str(Path(lgfeas.__file__).parent.parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _run_module(*argv):
    return _run_python("-m", "lgfeas", *argv)


def test_python_dash_m_runs_the_cli():
    version = _run_module("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == f"lgfeas {lgfeas.__version__}"
    bad = _run_module("conjecture", "--samples", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("lgfeas: error:")


def test_import_leaves_the_process_pool_unloaded():
    # importing the package pulls in no process pool: nothing in it runs
    # work in other processes
    probe = _run_python("-c", "import sys, lgfeas; print('concurrent.futures' in sys.modules)")
    assert probe.returncode == 0
    assert probe.stdout.strip() == "False"
