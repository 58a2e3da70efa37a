"""Command-line entry point.

Subcommands: gen, check, fine-build, conjecture, spin, nu, clt, mc.
Structured verdicts and inequality families are emitted as JSON, sweep and
series data as CSV (UTF-8, LF line endings, %.12g numbers).  Every file
written via --out gets a sidecar <out>.manifest.json recording the command
line, seeds and effective configuration; with fixed flags and seeds the
data payloads are byte-identical across runs (manifests carry wall time
and are excluded from that guarantee).

Each subcommand maps its parsed arguments to a payload, its extra manifest
entries and whether its verdict is negative.  One runner, ``main``, does
the rest for all of them: it times the call, writes the payload and the
manifest, and turns a negative verdict into exit 1 under --strict.

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
from .core import LgError, MomentSpec
from .feasibility import (FeasibilityVerdict, _oracle_input, conjecture_check, fine_build,
                          lp_feasible_from_spec)
from .inequalities import (
    distinct_under_equal_spacing,
    family_to_json_list,
    lg_family,
    ngon_family,
    three_time_complete,
    two_time_complete,
)
from .cltvolume import exact_violation_fraction, mc_violation_fraction, v_lg, v_ngon
from .spinmodel import SpinSweepConfig, nu_versus_n, sweep

_FAMILY_BUILDERS = {
    "lg": lg_family,
    "ngon": ngon_family,
    "three": three_time_complete,
    "two": two_time_complete,
}

# what a subcommand hands the runner: payload bytes, extra manifest
# entries, and whether its verdict is negative (exit 1 under --strict)
Outcome = tuple[bytes, dict, bool]


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


def _manifest(args: argparse.Namespace, argv: list[str], wall_time_s: float, extra: dict) -> dict:
    return {
        "tool": "lgfeas",
        "version": __version__,
        "command": argv,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "wall_time_s": wall_time_s,
        **extra,
    }


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


def _verdict_outcome(verdict: FeasibilityVerdict) -> Outcome:
    payload: dict = {"feasible": verdict.feasible}
    if verdict.certificate is not None:
        payload["certificate"] = verdict.certificate.to_json_dict()
    if verdict.violated is not None:
        payload["violated"] = list(verdict.violated)
    if verdict.phase1_objective is not None:
        payload["phase1_objective"] = verdict.phase1_objective
    return _json_bytes(payload), {}, not verdict.feasible


def _sweep_options(args: argparse.Namespace) -> dict:
    """The shared sweep flags as keyword arguments of ``SpinSweepConfig``
    and ``nu_versus_n``; ``fixed`` is the CLI alias of ``fixed_window``."""
    return {
        "family": args.family,
        "regime": "fixed_window" if args.regime == "fixed" else args.regime,
        "omega": args.omega,
        "tau_min": args.tau_min,
        "tau_max": args.tau_max,
        "steps": args.steps,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args: argparse.Namespace) -> Outcome:
    if args.raw and args.family != "ngon":
        raise LgError("--raw applies to the ngon family only")
    if args.distinct and args.family not in ("lg", "ngon"):
        raise LgError("--distinct applies to the lg and ngon families")
    if args.family == "ngon":
        family = ngon_family(args.n, raw=args.raw)
    else:
        family = _FAMILY_BUILDERS[args.family](args.n)
    if args.distinct:
        family = distinct_under_equal_spacing(family)
    return _json_bytes(family_to_json_list(family)), {"members": len(family)}, False


def _cmd_check(args: argparse.Namespace) -> Outcome:
    return _verdict_outcome(lp_feasible_from_spec(_load_moments(args.moments), exact=args.exact))


def _cmd_fine_build(args: argparse.Namespace) -> Outcome:
    return _verdict_outcome(fine_build(*_oracle_input(_load_moments(args.moments))))


def _cmd_conjecture(args: argparse.Namespace) -> Outcome:
    seed = _default_seed(args.seed)
    report = conjecture_check(args.samples, seed, args.mode, n=args.n)
    payload = report.to_json_dict()
    # counterexamples, if any, are persisted verbatim (full float precision)
    counterexamples = payload.pop("counterexamples")
    if counterexamples:
        lines = "".join(json.dumps(spec) + "\n" for spec in counterexamples)
        Path(args.counterexamples).write_text(lines, encoding="utf-8")
    payload_bytes = _json_bytes(
        {**_round_floats(payload), "counterexamples": counterexamples}, verbatim=True
    )
    return payload_bytes, {"seed_used": seed}, bool(counterexamples)


def _cmd_spin(args: argparse.Namespace) -> Outcome:
    config = SpinSweepConfig(n=args.n, **_sweep_options(args))
    result = sweep(config)
    columns = [f"member_{k}" for k in range(len(result.labels))]
    rows = [
        [tau, *slacks, int(hit)]
        for tau, slacks, hit in zip(
            result.grid.tolist(), result.slacks.T.tolist(), result.any_violation.tolist()
        )
    ]
    extra = {
        "member_columns": dict(zip(columns, result.labels)),
        "nu": result.nu,
        "window_bounds": list(config.window_bounds()),
    }
    return _csv_bytes(["tau", *columns, "any_violation"], rows), extra, result.nu > 0


def _cmd_nu(args: argparse.Namespace) -> Outcome:
    curve = nu_versus_n(args.n_min, args.n_max, **_sweep_options(args))
    payload = _csv_bytes(["n", "nu"], [[n, float(nu)] for n, nu in curve])
    return payload, {}, any(nu > 0 for _, nu in curve)


def _cmd_clt(args: argparse.Namespace) -> Outcome:
    if args.n_min > args.n_max:
        raise LgError(f"need n_min <= n_max, got [{args.n_min}, {args.n_max}]")
    estimator = v_lg if args.family == "lg" else v_ngon
    rows = [[n, estimator(n).value] for n in range(args.n_min, args.n_max + 1)]
    return _csv_bytes(["n", "v"], rows), {}, False


def _cmd_mc(args: argparse.Namespace) -> Outcome:
    seed = _default_seed(args.seed)
    family = _FAMILY_BUILDERS[args.family](args.n)
    if not 0 <= args.member < len(family):
        raise LgError(f"member index {args.member} out of range for {len(family)} members")
    member = family[args.member]
    payload = mc_violation_fraction(member, args.samples, seed).to_json_dict()
    payload["member"] = member.label
    if args.exact and len(set(abs(c) for c in member.terms.values())) == 1:
        payload["exact"] = exact_violation_fraction(member.bound, len(member.terms)).value
    return _json_bytes(payload), {"seed_used": seed}, False


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

    def command(name: str, func, help: str, *, strict: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output file (stdout when omitted)")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 1 on infeasible or violating verdicts")
        return p

    def sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=["lg", "ngon"], default="lg")
        p.add_argument("--regime", choices=["extend", "fixed", "fixed_window"], default="extend")
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--tau-min", type=float, default=0.0)
        p.add_argument("--tau-max", type=float, default=None)
        p.add_argument("--steps", type=int, default=2048)

    p = command("gen", _cmd_gen, "generate an inequality family as JSON")
    p.add_argument("--family", required=True, choices=sorted(_FAMILY_BUILDERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--distinct", action="store_true",
                   help="one representative per equal-spacing class (lg/ngon)")
    p.add_argument("--raw", action="store_true",
                   help="emit all 2^n sign vectors for the ngon family")

    p = command("check", _cmd_check, "decide feasibility of a moment file via the oracle",
                strict=True)
    p.add_argument("--moments", required=True, help="MomentSpec JSON file")
    p.add_argument("--exact", action="store_true", help="rational arithmetic (n <= 6)")

    p = command("fine-build", _cmd_fine_build, "construct a joint distribution from chain data",
                strict=True)
    p.add_argument("--moments", required=True, help="MomentSpec JSON file (chain pairs)")

    p = command("conjecture", _cmd_conjecture,
                "run the n=5 condition-vs-oracle sampling experiment", strict=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=["symmetric", "general"], default="symmetric")
    p.add_argument("--counterexamples", default="counterexamples.jsonl",
                   help="where to write disagreeing samples, one per line")

    p = command("spin", _cmd_spin, "sweep cosine-model slacks over measurement spacing",
                strict=True)
    p.add_argument("--n", type=int, required=True)
    sweep_flags(p)

    p = command("nu", _cmd_nu, "violated-fraction curve nu(n)", strict=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    sweep_flags(p)

    p = command("clt", _cmd_clt, "normal-limit violating fractions per family")
    p.add_argument("--family", choices=["lg", "ngon"], required=True)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=50)

    p = command("mc", _cmd_mc, "Monte Carlo violating fraction of one family member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--member", type=int, required=True, help="index in generation order")
    p.add_argument("--family", choices=sorted(_FAMILY_BUILDERS), default="lg")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exact", action="store_true",
                   help="include the exact convolution value when available")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        payload, extra, negative = args.func(args)
        _emit(args.out, payload, _manifest(args, argv, time.monotonic() - started, extra))
    except (LgError, OSError) as exc:
        print(f"lgfeas: error: {exc}", file=sys.stderr)
        return 2
    return 1 if negative and getattr(args, "strict", False) else 0


if __name__ == "__main__":
    raise SystemExit(main())
