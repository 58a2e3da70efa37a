"""Command-line entry point.

Subcommands: gen, check, fine-build, conjecture, spin, nu, clt, mc.
Structured verdicts and inequality families are emitted as JSON, sweep and
series data as CSV (UTF-8, LF line endings, %.12g numbers).  Every file
written via --out gets a sidecar <out>.manifest.json recording the command
line, seeds and effective configuration; with fixed flags and seeds the
data payloads are byte-identical across runs (manifests carry wall time
and are excluded from that guarantee).

Exit codes: 0 success, 1 negative scientific verdict under --strict
(infeasible data, counterexamples found, violations on a sweep), 2 usage
or input errors.  The LG_SEED environment variable is the fallback for
omitted --seed flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .core import (
    CorrelatorSet,
    LgError,
    MomentSpec,
)
from .feasibility import (
    FeasibilityVerdict,
    conjecture_check,
    fine_build,
    lp_feasible_from_spec,
)
from .inequalities import (
    InequalityFamily,
    family_to_json_list,
    lg_family,
    ngon_family,
    three_time_complete,
    two_time_complete,
    distinct_under_equal_spacing,
)
from .cltvolume import exact_violation_fraction, mc_violation_fraction, v_lg, v_ngon
from .spinmodel import SpinSweepConfig, nu_versus_n, sweep

_FAMILY_BUILDERS = {
    "lg": lg_family,
    "ngon": ngon_family,
    "three": three_time_complete,
    "two": two_time_complete,
}


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round_floats(obj):
    """Apply the %.12g policy to every float in a JSON-ready structure."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _json_bytes(payload, *, verbatim: bool = False) -> bytes:
    if not verbatim:
        payload = _round_floats(payload)
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return buffer.getvalue().encode("utf-8")


def _emit(out: str | None, payload: bytes, manifest: dict) -> None:
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
        return
    path = Path(out)
    path.write_bytes(payload)
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_bytes(_json_bytes(manifest, verbatim=True))


def _manifest(args: argparse.Namespace, started: float, argv: list[str], **extra) -> dict:
    manifest = {
        "tool": "lgfeas",
        "version": __version__,
        "command": list(argv),
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "wall_time_s": time.monotonic() - started,
    }
    manifest.update(extra)
    return manifest


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    try:
        return int(os.environ.get("LG_SEED") or 0)
    except ValueError:
        raise LgError(f"LG_SEED must be an integer, got {os.environ['LG_SEED']!r}") from None


def _load_moments(path: str) -> MomentSpec:
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise LgError(f"{path} is not valid JSON: {exc}") from None
    return MomentSpec.from_json_dict(payload)


def _verdict_payload(verdict: FeasibilityVerdict) -> dict:
    payload: dict = {"feasible": verdict.feasible}
    if verdict.certificate is not None:
        payload["certificate"] = verdict.certificate.to_json_dict()
    if verdict.violated is not None:
        payload["violated"] = list(verdict.violated)
    if verdict.phase1_objective is not None:
        payload["phase1_objective"] = verdict.phase1_objective
    return payload


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    if args.raw and args.family != "ngon":
        raise LgError("--raw applies to the ngon family only")
    if args.distinct and args.family not in ("lg", "ngon"):
        raise LgError("--distinct applies to the lg and ngon families")
    family: InequalityFamily
    if args.family == "ngon":
        family = ngon_family(args.n, raw=args.raw)
    else:
        family = _FAMILY_BUILDERS[args.family](args.n)
    if args.distinct:
        family = distinct_under_equal_spacing(family)
    payload = _json_bytes(family_to_json_list(family))
    _emit(args.out, payload, _manifest(args, started, argv=argv, members=len(family)))
    return 0


def _cmd_check(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    spec = _load_moments(args.moments)
    verdict = lp_feasible_from_spec(spec, exact=args.exact)
    _emit(args.out, _json_bytes(_verdict_payload(verdict)), _manifest(args, started, argv=argv))
    if args.strict and not verdict.feasible:
        return 1
    return 0


def _cmd_fine_build(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    spec = _load_moments(args.moments)
    if spec.max_order() > 2:
        raise LgError("fine-build input must fix only one- and two-time moments")
    b = [spec.b(i) for i in range(1, spec.n + 1)]
    chain = CorrelatorSet(spec.n, spec.pair_values())
    verdict = fine_build(b, chain)
    _emit(args.out, _json_bytes(_verdict_payload(verdict)), _manifest(args, started, argv=argv))
    if args.strict and not verdict.feasible:
        return 1
    return 0


def _cmd_conjecture(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    seed = _default_seed(args.seed)
    report = conjecture_check(
        args.samples, seed, args.mode, n=args.n, workers=args.threads or 1
    )
    payload = report.to_json_dict()
    # counterexamples, if any, are persisted verbatim (full float precision)
    payload_bytes = _json_bytes(
        {**_round_floats({k: v for k, v in payload.items() if k != "counterexamples"}),
         "counterexamples": payload["counterexamples"]},
        verbatim=True,
    )
    manifest = _manifest(args, started, argv=argv, seed_used=seed)
    _emit(args.out, payload_bytes, manifest)
    if report.counterexamples:
        counter_path = Path(args.counterexamples)
        lines = [json.dumps(spec.to_json_dict()) for spec in report.counterexamples]
        counter_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if args.strict:
            return 1
    return 0


def _normalize_regime(value: str) -> str:
    return "fixed_window" if value in ("fixed", "fixed_window") else value


def _cmd_spin(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    config = SpinSweepConfig(
        n=args.n,
        omega=args.omega,
        tau_min=args.tau_min,
        tau_max=args.tau_max,
        steps=args.steps,
        regime=_normalize_regime(args.regime),
        family=args.family,
    )
    result = sweep(config)
    header = ["tau"] + [f"member_{k}" for k in range(len(result.labels))] + ["any_violation"]
    rows = [
        [float(result.grid[p])]
        + [float(result.slacks[m, p]) for m in range(len(result.labels))]
        + [int(result.any_violation[p])]
        for p in range(result.grid.size)
    ]
    manifest = _manifest(
        args,
        started,
        argv=argv,
        member_columns={f"member_{k}": label for k, label in enumerate(result.labels)},
        nu=result.nu,
        window_bounds=list(config.window_bounds()),
    )
    _emit(args.out, _csv_bytes(header, rows), manifest)
    if args.strict and result.nu > 0:
        return 1
    return 0


def _cmd_nu(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    curve = nu_versus_n(
        args.n_min,
        args.n_max,
        regime=_normalize_regime(args.regime),
        omega=args.omega,
        steps=args.steps,
        family=args.family,
        tau_min=args.tau_min,
        tau_max=args.tau_max,
    )
    payload = _csv_bytes(["n", "nu"], [[n, float(nu)] for n, nu in curve])
    _emit(args.out, payload, _manifest(args, started, argv=argv))
    if args.strict and any(nu > 0 for _, nu in curve):
        return 1
    return 0


def _cmd_clt(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    estimator = v_lg if args.family == "lg" else v_ngon
    rows = [[n, estimator(n).value] for n in range(args.n_min, args.n_max + 1)]
    _emit(args.out, _csv_bytes(["n", "v"], rows), _manifest(args, started, argv=argv))
    return 0


def _cmd_mc(args: argparse.Namespace, argv: list[str]) -> int:
    started = time.monotonic()
    seed = _default_seed(args.seed)
    family = _FAMILY_BUILDERS[args.family](args.n)
    if not 0 <= args.member < len(family):
        raise LgError(f"member index {args.member} out of range for {len(family)} members")
    member = family[args.member]
    estimate = mc_violation_fraction(member, args.samples, seed)
    payload = estimate.to_json_dict()
    payload["member"] = member.label
    if args.exact and len(set(abs(c) for c in member.terms.values())) == 1:
        payload["exact"] = exact_violation_fraction(
            member.bound, len(member.terms)
        ).value
    _emit(args.out, _json_bytes(payload), _manifest(args, started, argv=argv, seed_used=seed))
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgfeas",
        description="Generate temporal-correlation inequality families, test joint-"
        "distribution feasibility, and run spacing sweeps and volume estimates.",
    )
    parser.add_argument("-V", "--version", action="version", version=f"lgfeas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, strict: bool = False) -> None:
        p.add_argument("--out", help="output file (stdout when omitted)")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 1 on infeasible or violating verdicts")

    p = sub.add_parser("gen", help="generate an inequality family as JSON")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--distinct", action="store_true",
                   help="one representative per equal-spacing class (lg/ngon)")
    p.add_argument("--raw", action="store_true",
                   help="emit all 2^n sign vectors for the ngon family")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="decide feasibility of a moment file via the LP oracle")
    p.add_argument("--moments", required=True, help="MomentSpec JSON file")
    p.add_argument("--exact", action="store_true", help="rational arithmetic (n <= 6)")
    common(p, strict=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("fine-build", help="construct a joint distribution from chain data")
    p.add_argument("--moments", required=True, help="MomentSpec JSON file (chain pairs)")
    common(p, strict=True)
    p.set_defaults(func=_cmd_fine_build)

    p = sub.add_parser("conjecture", help="run the n=5 condition-vs-oracle sampling experiment")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["symmetric", "general"], default="symmetric")
    p.add_argument("--counterexamples", default="counterexamples.jsonl",
                   help="where to write disagreeing samples, one per line")
    p.add_argument("--threads", type=int, default=os.cpu_count(),
                   help="worker processes for the sampling")
    common(p, strict=True)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("spin", help="sweep cosine-model slacks over measurement spacing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=["lg", "ngon"], default="lg")
    p.add_argument("--regime", choices=["extend", "fixed", "fixed_window"], default="extend")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=2048)
    common(p, strict=True)
    p.set_defaults(func=_cmd_spin)

    p = sub.add_parser("nu", help="violated-fraction curve nu(n)")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--regime", choices=["extend", "fixed", "fixed_window"], default="extend")
    p.add_argument("--family", choices=["lg", "ngon"], default="lg")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--tau-min", type=float, default=0.0)
    p.add_argument("--tau-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=2048)
    common(p, strict=True)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("clt", help="normal-limit violating fractions per family")
    p.add_argument("--family", choices=["lg", "ngon"], required=True)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=50)
    common(p)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("mc", help="Monte Carlo violating fraction of one family member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--member", type=int, required=True, help="index in generation order")
    p.add_argument("--family", choices=sorted(_FAMILY_BUILDERS), default="lg")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exact", action="store_true",
                   help="include the exact convolution value when available")
    common(p)
    p.set_defaults(func=_cmd_mc)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (LgError, OSError) as exc:
        print(f"lgfeas: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
