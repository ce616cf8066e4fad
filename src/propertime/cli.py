"""Command line front end.

    propertime verify    <scenario> [--seed N] [--out PATH] [--format json|csv] [--quiet]
    propertime propagate <scenario> ...
    propertime frame     <scenario> ...

Exit status: 0 all checks passed, 1 a check failed, 2 usage or scenario error.
The report goes to --out (or stdout); the human-readable check summary and
timing go to stderr so stdout stays machine-parseable.
"""

import argparse
import sys
import time
from dataclasses import replace

from .report import emit, to_csv, to_json
from .runner import run
from .scenario import ScenarioError, parse_scenario

USAGE_ERROR = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="propertime",
        description="Proper-time quantum evolution scenarios: verification "
        "suites, spectral propagation, accelerating-frame phases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "propagate", "frame"):
        cmd = sub.add_parser(name, help=f"run a {name} scenario")
        cmd.add_argument("scenario", help="path to the scenario file")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--quiet", action="store_true", help="suppress the summary on stderr")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize anything else
        return USAGE_ERROR if exc.code not in (0,) else 0

    # a ValueError that gets past the parser (ScenarioError is one) is bad input too
    try:
        scenario = parse_scenario(args.scenario)
        if scenario.kind != args.command:
            raise ScenarioError(
                f"scenario {scenario.name!r} has kind {scenario.kind!r}, "
                f"but the {args.command!r} command was requested"
            )
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        started = time.perf_counter()
        report = run(scenario)
        elapsed = time.perf_counter() - started
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    if args.out:
        emit(report, args.format, args.out)
    else:
        sys.stdout.write(to_json(report) if args.format == "json" else to_csv(report))

    if not args.quiet:
        for chk in report.sorted_checks():
            verdict = "PASS" if chk.passed else "FAIL"
            op = "<=" if chk.mode == "le" else ">="
            print(
                f"{verdict} {chk.name}: {chk.value:.3e} {op} {chk.tolerance:.3e}",
                file=sys.stderr,
            )
        print(
            f"{scenario.kind} scenario {scenario.name!r}: "
            f"{'all checks passed' if report.passed else 'CHECK FAILURES'} "
            f"({elapsed:.2f} s)",
            file=sys.stderr,
        )

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
