"""Command line front end for the verification suite."""

import argparse
import json
import os
import sys

from .presets import preset_names
from .suite import (
    CHECK_IDS,
    CORRUPTIONS,
    REPORT_VERSION,
    ConfigError,
    InternalError,
    SuiteConfig,
    mutation_smoke,
    run_suite,
)


def _parse_subgroup(text):
    if text is None:
        return None
    s = text.strip()
    if not s:
        return ()
    try:
        return tuple(int(t) for t in s.split(","))
    except ValueError:
        raise ConfigError(f"--subgroup expects comma-separated element indices, got {text!r}")


def _parse_checks(text):
    if text is None or text.strip() == "all":
        return ()
    ids = tuple(t.strip() for t in text.split(",") if t.strip())
    if not ids:
        raise ConfigError(f"--checks selects no check, got {text!r}; give 'all' or check ids")
    return ids


def build_parser():
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification of the coinduction adjunction, the coset "
        "function ring, and the module-category equivalence for a finite group pair.",
    )
    parser.add_argument(
        "--group",
        default="s3",
        help=f"preset name ({', '.join(preset_names())}) or path to a JSON group file",
    )
    parser.add_argument(
        "--subgroup",
        default=None,
        help="comma-separated generator element indices; default is the preset's "
        "documented subgroup, or the whole group for a file",
    )
    parser.add_argument("--field", default="q", help="q for the rationals, fp:P for a prime field")
    parser.add_argument("--seed", type=int, default=0, help="seed for every generated family")
    parser.add_argument("--family-size", type=int, default=10, help="objects per generated family")
    parser.add_argument(
        "--checks",
        default="all",
        help=f"'all' or a comma-separated subset of: {', '.join(CHECK_IDS)}",
    )
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument(
        "--mutation-smoke",
        action="store_true",
        help="corrupt the data three ways and require the suite to notice each one",
    )
    return parser


def _emit(text):
    """Print text to stdout; a reader that has closed it does not change the exit status.

    Once a write fails on the closed pipe, stdout is pointed at the null
    device, so the flush at interpreter exit finds nothing to fail on.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run_mutation(cfg, fmt):
    rows = []
    for corruption in CORRUPTIONS:
        report = mutation_smoke(cfg, corruption)
        failed = [c for c in report.checks if c.status != "pass"]
        rows.append(
            {
                "corruption": corruption,
                "detected": bool(failed),
                "failed_checks": [c.id for c in failed],
                "witness": failed[0].witness if failed else None,
            }
        )
    ok = all(r["detected"] for r in rows)
    if fmt == "json":
        # the env names the case, which no corruption changes
        _emit(json.dumps({"version": REPORT_VERSION, "env": report.env, "mutation_smoke": rows},
                         indent=2))
    else:
        _emit(report.header())
        for r in rows:
            mark = "detected" if r["detected"] else "MISSED"
            names = ", ".join(r["failed_checks"]) or "-"
            _emit(f"  corruption {r['corruption']:<12} {mark}: failing checks: {names}")
        _emit(f"mutation smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = SuiteConfig(
            group=args.group,
            subgroup=_parse_subgroup(args.subgroup),
            field=args.field,
            seed=args.seed,
            family_size=args.family_size,
            checks=_parse_checks(args.checks),
        )
        if args.mutation_smoke:
            return _run_mutation(cfg, args.report)
        report = run_suite(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    _emit(report.to_json() if args.report == "json" else report.to_text())
    return 0 if report.passed else 1
