"""One workload in one process: set up, run timed rounds, check, report.

Started by run.py with BLAS threads pinned to one and PYTHONPATH pointing
at the checkout's src/.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAST_MARGIN = 1.15  # calibration within this factor of the run's fast speed


def rates(rounds: list[list[tuple]], reference_s: float) -> tuple[float, float]:
    """Items per reference second and items per wall second.

    For the first, each operation counts at the median of its repeats in
    reference seconds, taken over the repeats whose calibration shows the
    fast speed (within FAST_MARGIN of the run's 5th percentile) when it
    has any.  For the second, each operation counts at its fastest repeat.
    Failed operations add no items and no time."""
    calibrations = sorted(cal for ops in rounds for wall, cal, _ in ops if wall is not None)
    fast = calibrations[len(calibrations) // 20] * FAST_MARGIN
    items = ref_total = wall_total = 0.0
    for repeats in zip(*rounds):
        done = [(wall, cal) for wall, cal, _ in repeats if wall is not None]
        if done:
            chosen = [(wall, cal) for wall, cal in done if cal <= fast] or done
            items += repeats[0][2]
            ref_total += statistics.median(wall * reference_s / cal for wall, cal in chosen)
            wall_total += min(wall for wall, _ in done)
    return items / ref_total, items / wall_total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import lgfeas
    import workloads
    from tracing import NullTracer, Tracer

    src = HERE.parent / "src"
    if Path(lgfeas.__file__).resolve().parent.parent != src:
        print(f"lgfeas was imported from {lgfeas.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else NullTracer()
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer, Path(scratch))
        workload.warm_up()
        setup_wall_s = time.perf_counter() - started
        # in reference seconds, like the operations; calibrated right after
        calibration = statistics.median(workloads.calibration_seconds() for _ in range(5))
        setup = {"setup_s": setup_wall_s * workloads.REFERENCE_CALIBRATION_S / calibration,
                 "setup_wall_s": setup_wall_s, "calibration_s": calibration}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        ops = []  # per round: (wall s, calibration s, items) per operation
        attempted = failed = 0
        phase_start = time.perf_counter()
        r = 0
        while True:
            with tracer.span("round", workload=args.workload, round=r):
                stats = workload.round(r)
            ops.append(stats.ops)
            attempted += stats.attempted
            failed += stats.failed
            r += 1
            if time.perf_counter() - phase_start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        items_per_s, wall_items_per_s = rates(ops, workloads.REFERENCE_CALIBRATION_S)
        problems = workload.check()

        result = {"rounds": r, "attempted": attempted, "failed": failed, **setup,
                  "items_per_s": items_per_s, "wall_items_per_s": wall_items_per_s,
                  "peak_rss_mb": peak_rss_mb}
        if args.trace:
            # every per-layer metric in every traced run: one round of each
            # other workload, then the simplex probes, all under the tracer
            for name, cls in workloads.WORKLOADS.items():
                if name != args.workload:
                    other = cls(args.seed, tracer, Path(scratch))
                    other.warm_up()
                    other.round(0)
                    problems += other.check()
                    other.probe()
            workload.probe()
            result["per_layer"] = workloads.layer_metrics(tracer.spans, items_per_s)
            tracer.write(out_root / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result["correct"] = not problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
