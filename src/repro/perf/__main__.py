"""CLI for the perf harness: ``python -m repro.perf``.

Examples::

    python -m repro.perf                         # full suite -> BENCH_perf.json
    python -m repro.perf --scenario fig8         # one scenario
    python -m repro.perf --fast-only             # skip the reference runs
    python -m repro.perf --check benchmarks/perf/baseline.json
    python -m repro.perf --update-baseline benchmarks/perf/baseline.json

    # parallel multi-seed sweep -> one deterministic merged BENCH file
    python -m repro.perf sweep --scenario trace_replay --seeds 1-8 --processes 4
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import check_report, run_suite, write_report


def sweep_main(argv) -> int:
    from .sweep import parse_seed_list, run_sweep, write_sweep_report

    parser = argparse.ArgumentParser(
        prog="python -m repro.perf sweep",
        description="run one scenario at N seeds across worker processes",
    )
    parser.add_argument(
        "--scenario",
        default="trace_replay",
        help="scenario to sweep (default: trace_replay)",
    )
    parser.add_argument(
        "--seeds",
        default="1-4",
        help='seed list/ranges, e.g. "1,2,5-8" (default: 1-4)',
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=4,
        help="worker processes (default: 4; 1 = in-process)",
    )
    parser.add_argument(
        "--slow",
        action="store_true",
        help="sweep in REPRO_SLOW_KERNEL reference mode",
    )
    parser.add_argument(
        "--out",
        default="BENCH_sweep.json",
        help="merged report path (default: BENCH_sweep.json)",
    )
    args = parser.parse_args(argv)
    report = run_sweep(
        args.scenario,
        parse_seed_list(args.seeds),
        processes=args.processes,
        slow=args.slow,
    )
    write_sweep_report(report, args.out)
    print(f"[sweep] merged report written to {args.out}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description="KubeShare-repro perf harness"
    )
    parser.add_argument(
        "--out",
        default="BENCH_perf.json",
        help="report path (default: BENCH_perf.json in the current directory)",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--fast-only",
        action="store_true",
        help="skip the REPRO_SLOW_KERNEL reference runs (no speedup/identical fields)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a baseline report; non-zero exit on regression",
    )
    parser.add_argument(
        "--update-baseline",
        metavar="BASELINE",
        help="also write the report to this baseline path",
    )
    args = parser.parse_args(argv)
    if args.fast_only and args.check:
        parser.error("--check needs the reference runs; drop --fast-only")

    report = run_suite(names=args.scenarios, reference=not args.fast_only)
    write_report(report, args.out)
    print(f"[perf] report written to {args.out}")

    if args.update_baseline:
        write_report(report, args.update_baseline)
        print(f"[perf] baseline updated at {args.update_baseline}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        errors = check_report(report, baseline)
        if errors:
            for err in errors:
                print(f"[perf] REGRESSION: {err}", file=sys.stderr)
            return 1
        print(f"[perf] regression check against {args.check}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
