"""Command-line interface.

Subcommands: ``norm`` (evaluate a space-expression norm on a function file),
``stft`` (transform a function file to a time-frequency array file),
``verify`` (run a registered verification suite), ``identify`` (normalize a
space expression, optionally with the rewrite trace), ``report`` (aggregate
saved verification reports and cross-check the rewrite rules against their
numeric suites). Exit codes: 0 pass, 1 fail, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bupu import SpacingError
from .evaluate import UnsupportedSpaceError, eval_space_norm
from .harness import (
    ConfigError,
    SUITE_LOCATIONS,
    emit_report,
    registered_suites,
    run_verification,
)
from .identify.ast import render
from .identify.engine import explain, normalize, trace_to_json
from .identify.parser import SpaceSyntaxError, parse_space
from .identify.rules import RULE_NUMERIC_SUITE
from .io_json import load_function, tf_to_dict
from .stft import TimeFrequencySizeError, stft
from .windows import bump, normalized_gaussian

USAGE_ERROR = 2


def _add_verify_flags(p: argparse.ArgumentParser):
    p.add_argument("theorem_id", help="registered suite id; see `tfnorm verify list`")
    p.add_argument("--p1", default=None, help="first exponent (number, inf, inf0)")
    p.add_argument("--p2", default=None, help="second exponent (number, inf, inf0)")
    p.add_argument("--p", default=None, help="global exponent for single-exponent suites")
    p.add_argument("--s", type=float, default=None, help="weight power")
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--s2", type=float, default=None)
    p.add_argument("--local", default=None, help="lemma3.3 local atom, e.g. L1, FL3[1], C0[2]")
    p.add_argument("--E", dest="E", default=None, help="thm4.2/thm5.1 local atom, e.g. FL3, C0[1]")
    p.add_argument("--N", type=int, default=None, help="samples per axis")
    p.add_argument("--L", type=float, default=None, help="domain half width")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dual-count", type=int, default=None)
    p.add_argument("--spread-bound", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _exponent_arg(v):
    """A number, or the text itself ("inf", "inf0", or one the suite rejects)."""
    if v in ("inf", "inf0"):
        return v
    try:
        return float(v)
    except ValueError:
        return v


def _load_input(path: str):
    """The function in ``path``, or None after printing why it is unreadable."""
    try:
        return load_function(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(
            f"error: cannot read function file {path}: {type(e).__name__}: {e}",
            file=sys.stderr,
        )
        return None


def _cmd_norm(args) -> int:
    try:
        expr = parse_space(args.space)
    except SpaceSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    f = _load_input(args.input)
    if f is None:
        return USAGE_ERROR
    try:
        result, nf, trace = eval_space_norm(expr, f)
    except (UnsupportedSpaceError, SpacingError, TimeFrequencySizeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    out = {
        "space": args.space,
        "normal_form": render(nf),
        "value": result.value,
        "method": result.method,
        "truncation_error_estimate": result.truncation_error_estimate,
        "diagnostics": result.diagnostics,
    }
    if trace:
        out["trace"] = trace_to_json(trace)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_stft(args) -> int:
    f = _load_input(args.input)
    if f is None:
        return USAGE_ERROR
    if args.window == "gaussian":
        g = normalized_gaussian(f.grid)
    elif args.window == "bump":
        g = bump(f.grid, radius=1.0, normalize="peak")
    else:
        print(f"error: unknown window {args.window!r}", file=sys.stderr)
        return USAGE_ERROR
    try:
        tf = stft(f, g)
    except TimeFrequencySizeError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(tf_to_dict(tf), fh)
    print(f"wrote {args.out} ({tf.values.shape[0]}x{tf.values.shape[1]} samples)")
    return 0


def _cmd_verify(args) -> int:
    if args.theorem_id == "list":
        for tid in registered_suites():
            print(f"{tid:18s} {SUITE_LOCATIONS[tid]}")
        return 0
    cfg = {}
    for key in ("p1", "p2", "p", "s", "s1", "s2", "local", "E", "N", "L", "seed", "dual_count",
                "spread_bound", "tol"):
        v = getattr(args, key)
        if v is not None:
            cfg[key] = _exponent_arg(v) if key in ("p1", "p2", "p") else v
    try:
        report = run_verification(args.theorem_id, **cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    blob = emit_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
        print(f"wrote {args.out}; passed={report.passed} ({report.runtime_s:.2f}s)")
    else:
        sys.stdout.write(blob.decode())
    return 0 if report.passed else 1


def _cmd_identify(args) -> int:
    try:
        expr = parse_space(args.expression)
    except SpaceSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    nf, trace = normalize(expr)
    print(render(nf))
    if args.trace:
        print(explain(trace))
        print(json.dumps(trace_to_json(trace), indent=2))
    return 0


def _cmd_report(args) -> int:
    reports = []
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(args.dir, name), "r", encoding="utf-8") as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError:
                continue
        if isinstance(d, dict) and {"theorem_id", "location", "passed"} <= d.keys():
            reports.append(d)
    if not reports:
        print(f"no reports found in {args.dir}", file=sys.stderr)
        return USAGE_ERROR
    all_passed = True
    print(f"{'suite':16s} {'location':28s} {'passed':7s} spreads")
    for d in reports:
        spreads = {
            k: (round(v["spread"], 3) if v["spread"] != float("inf") else "inf")
            for k, v in d.get("stats", {}).items()
        }
        print(f"{d['theorem_id']:16s} {d['location']:28s} {str(d['passed']):7s} {spreads}")
        all_passed = all_passed and d["passed"]
    passed_suites = {d["theorem_id"] for d in reports if d["passed"]}
    seen_suites = {d["theorem_id"] for d in reports}
    print("\nrule verification (rule: paired suite -> status):")
    for rule, suite in sorted(RULE_NUMERIC_SUITE.items()):
        if suite in passed_suites:
            status = "verified"
        elif suite in seen_suites:
            status = "FAILED"
        else:
            status = "not run"
        print(f"  {rule:8s} {suite:10s} {status}")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tfnorm",
        description="time-frequency norms, amalgam/modulation space checks, "
        "and symbolic space identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="evaluate a space norm on a function file")
    p_norm.add_argument("--space", required=True, help='expression, e.g. "W(FL2[0], l1[0])"')
    p_norm.add_argument("--input", required=True, help="function JSON file")
    p_norm.set_defaults(func=_cmd_norm)

    p_stft = sub.add_parser("stft", help="compute the transform of a function file")
    p_stft.add_argument("--window", default="gaussian", help="gaussian or bump")
    p_stft.add_argument("--input", required=True)
    p_stft.add_argument("--out", required=True)
    p_stft.set_defaults(func=_cmd_stft)

    p_verify = sub.add_parser("verify", help="run a registered verification suite")
    _add_verify_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_id = sub.add_parser("identify", help="normalize a space expression")
    p_id.add_argument("expression")
    p_id.add_argument("--trace", action="store_true", help="print the rewrite trace")
    p_id.set_defaults(func=_cmd_identify)

    p_rep = sub.add_parser("report", help="summarize saved verification reports")
    p_rep.add_argument("--dir", required=True)
    p_rep.set_defaults(func=_cmd_report)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as e:  # an --out or --dir path that cannot be written, listed or read
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
