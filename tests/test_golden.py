"""Byte-for-byte CLI payloads against checked-in golden files.

Each case runs one subcommand in-process with ``--out`` and compares the
data payload (never the manifest, which carries wall time) with the file
of the same name under ``tests/golden/``.  After a deliberate change of
output, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from lgfeas.cli import main

GOLDEN = Path(__file__).with_name("golden")

_S = 1 / math.sqrt(2)
MOMENT_FILES = {
    "chsh.json": {"n": 4, "moments": {"1,2": _S, "2,3": _S, "3,4": _S, "1,4": -_S}},
    "chain6.json": {
        "n": 6,
        "moments": {"1": 0.2, "2": -0.1, "3": 0.0, "4": 0.3, "5": -0.2, "6": 0.1,
                    "1,2": 0.6, "2,3": 0.5, "3,4": 0.4, "4,5": 0.3, "5,6": 0.2, "1,6": 0.1},
    },
    "cosine8.json": {
        "n": 8,
        "moments": {**{f"{k},{k + 1}": math.cos(math.pi / 8) for k in range(1, 8)},
                    "1,8": math.cos(7 * math.pi / 8)},
    },
    "tsirelson3.json": {"n": 3, "moments": {"1,2": 0.5, "2,3": 0.5, "1,3": -0.5}},
    "complete5.json": {
        "n": 5,
        "moments": {"1": 0.1, "2": -0.2, "3": 0.05, "4": 0.0, "5": 0.15,
                    "1,2": 0.27, "1,3": 0.22, "1,4": 0.17, "1,5": 0.12, "2,3": 0.29,
                    "2,4": 0.24, "2,5": 0.19, "3,4": 0.31, "3,5": 0.26, "4,5": 0.33},
    },
    "cosine4-complete.json": {
        "n": 4,
        "moments": {f"{i},{j}": math.cos((j - i) * math.pi / 4)
                    for i in range(1, 5) for j in range(i + 1, 5)},
    },
}

CASES = {
    "gen-lg3.json": ["gen", "--family", "lg", "--n", "3"],
    "gen-lg5.json": ["gen", "--family", "lg", "--n", "5"],
    "gen-lg8.json": ["gen", "--family", "lg", "--n", "8"],
    "gen-lg10-distinct.json": ["gen", "--family", "lg", "--n", "10", "--distinct"],
    "gen-ngon5.json": ["gen", "--family", "ngon", "--n", "5"],
    "gen-ngon4-raw.json": ["gen", "--family", "ngon", "--n", "4", "--raw"],
    "gen-ngon6-distinct.json": ["gen", "--family", "ngon", "--n", "6", "--distinct"],
    "gen-three5.json": ["gen", "--family", "three", "--n", "5"],
    "gen-two4.json": ["gen", "--family", "two", "--n", "4"],
    "spin-lg10.csv": ["spin", "--n", "10", "--family", "lg", "--steps", "128"],
    "spin-ngon6.csv": ["spin", "--n", "6", "--family", "ngon", "--steps", "96",
                       "--omega", "1.3", "--tau-max", "3.0"],
    "nu-fixed.csv": ["nu", "--n-min", "3", "--n-max", "12", "--regime", "fixed",
                     "--steps", "256"],
    "mc-lg4-m3.json": ["mc", "--n", "4", "--member", "3", "--samples", "20000",
                       "--seed", "7", "--exact"],
    "mc-ngon4-m5.json": ["mc", "--family", "ngon", "--n", "4", "--member", "5",
                         "--samples", "20000", "--seed", "11", "--exact"],
    "mc-two3-m5.json": ["mc", "--family", "two", "--n", "3", "--member", "5",
                        "--samples", "20000", "--seed", "1", "--exact"],
    "check-complete5.json": ["check", "--moments", "@complete5.json"],
    "check-complete5-exact.json": ["check", "--moments", "@complete5.json", "--exact"],
    "check-cosine4-complete.json": ["check", "--moments", "@cosine4-complete.json"],
    "check-cosine4-complete-exact.json": ["check", "--moments", "@cosine4-complete.json",
                                          "--exact"],
    "check-chsh.json": ["check", "--moments", "@chsh.json"],
    "check-chsh-exact.json": ["check", "--moments", "@chsh.json", "--exact"],
    "fine-build-chsh.json": ["fine-build", "--moments", "@chsh.json"],
    "fine-build-chain6.json": ["fine-build", "--moments", "@chain6.json"],
    "fine-build-cosine8.json": ["fine-build", "--moments", "@cosine8.json"],
    "fine-build-tsirelson3.json": ["fine-build", "--moments", "@tsirelson3.json"],
    "conjecture-symmetric.json": ["conjecture", "--samples", "200", "--seed", "42",
                                  "--mode", "symmetric"],
    "conjecture-general.json": ["conjecture", "--samples", "200", "--seed", "42",
                                "--mode", "general"],
}


def _payload(name: str, workdir: Path) -> bytes:
    for file_name, content in MOMENT_FILES.items():
        (workdir / file_name).write_text(json.dumps(content), encoding="utf-8")
    argv = [str(workdir / arg[1:]) if arg.startswith("@") else arg for arg in CASES[name]]
    out = workdir / name
    argv += ["--out", str(out)]
    if argv[0] == "conjecture":
        argv += ["--counterexamples", str(workdir / "counterexamples.jsonl")]
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, tmp_path):
    assert _payload(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / case).write_bytes(_payload(case, Path(tmp)))
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
