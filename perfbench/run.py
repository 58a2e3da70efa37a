"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs from the root of a checkout.  The workload runs in a fresh,
single-threaded worker process that imports lgfeas from the checkout's
src/; with --trace 0 a few more workers only set up, and the reported
set-up time is the median over all of them.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import FAST_MARGIN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the same names as workloads.WORKLOADS; this process never imports lgfeas
WORKLOADS = ("conjecture-n5", "oracle-ladder", "large-n")
SETUP_PROBES = 6          # set-up-only workers besides the measured one
DEADLINE_S = 170.0        # the whole run, probes included
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunError(Exception):
    pass


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    try:
        done = subprocess.run(
            [sys.executable, "-s", str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def setup_seconds(setups: list[dict]) -> float:
    """Median set-up time in reference seconds over the workers whose
    calibration shows the fast CPU speed (see workloads.py)."""
    fast = min(s["calibration_s"] for s in setups) * FAST_MARGIN
    return statistics.median(s["setup_s"] for s in setups if s["calibration_s"] <= fast)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "lgfeas" / "__init__.py").is_file():
        print(f"no lgfeas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({name: "1" for name in SINGLE_THREAD})
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(common + ["--setup-only"], env, deadline))
        run = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    env, deadline)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run)

    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": setup_seconds(setups), "unit": "s"},
            "items_per_s": {"value": run["items_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: {run['rounds']} rounds, {run['wall_items_per_s']:.4g} items per "
          "wall second, set-up wall seconds "
          + ", ".join(f"{s['setup_wall_s']:.4f}" for s in setups), file=sys.stderr)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
