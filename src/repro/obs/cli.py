"""``python -m repro.obs`` — inspect observability artifacts.

Subcommands:

* ``trace``   — summarize spans and write Chrome trace-event JSON
                (open in Perfetto / chrome://tracing);
* ``events``  — the run's Kubernetes-style events, kubectl-table style;
* ``explain`` — the full placement story of one SharePod: every
                Algorithm 1 candidate with verdicts and scores, the
                events, and the span timeline;
* ``export``  — write artifact + trace + events + Prometheus text
                (+ SLO report / flamegraph when present);
* ``report``  — latency-distribution table (p50/p95/p99/max) for every
                histogram metric in the run;
* ``slo``     — SLO attainment and the burn-rate alert log;
* ``profile`` — re-run a scenario under the wall-clock profiler, print
                the top-N subsystem attribution, and write a
                speedscope/flamegraph.pl-compatible ``.folded`` file.

Input is either ``--artifact FILE`` (saved by an armed benchmark, see
``REPRO_OBS=1``) or ``--scenario NAME`` to re-run a scenario from the
:mod:`repro.scenarios` catalogue in-process — the same definition the
capstone benchmarks run (``profile`` always re-runs — host timings cannot
come from a saved artifact). Only ``chaos`` and ``failover`` record an
obs snapshot; the other names exit with a one-line error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Dict, Optional

from . import artifact as artifact_mod
from .kevents import events_table
from .tracing import chrome_trace_json

__all__ = ["main"]


def _load(args) -> Dict[str, object]:
    if args.artifact:
        return artifact_mod.load(args.artifact)
    return _run(args.scenario or "failover")["obs"]  # type: ignore[return-value]


def _run(name: str, profile: bool = False) -> Dict[str, object]:
    """Run catalogue scenario *name* under a hub labeled *name*."""
    from ..scenarios import SCENARIOS

    observable = sorted(
        n for n, fn in SCENARIOS.items()
        if "obs_label" in inspect.signature(fn).parameters
    )
    if name not in observable:
        raise SystemExit(f"no obs snapshot for scenario {name!r}; choose from {observable}")
    what = "profiling" if profile else "running"
    print(f"{what} scenario {name!r} (seeded schedule)...", file=sys.stderr)
    return SCENARIOS[name](obs_label=name, profile=profile)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--artifact",
        help="artifact JSON saved by an armed benchmark (REPRO_OBS=1)",
    )
    p.add_argument(
        "--scenario",
        help="re-run a repro.scenarios entry in-process (default: failover)",
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="summarize spans / export Chrome trace")
    _add_source_args(p_trace)
    p_trace.add_argument("-o", "--output", help="write Chrome trace-event JSON here")

    p_events = sub.add_parser("events", help="print the run's events")
    _add_source_args(p_events)

    p_explain = sub.add_parser("explain", help="placement story of one SharePod")
    p_explain.add_argument("sharepod", help="SharePod name or namespace/name")
    _add_source_args(p_explain)

    p_export = sub.add_parser("export", help="write all artifact files")
    _add_source_args(p_export)
    p_export.add_argument("--dir", default="obs-artifacts", help="output directory")
    p_export.add_argument("--label", default=None, help="artifact file stem")

    p_report = sub.add_parser("report", help="histogram percentile table")
    _add_source_args(p_report)

    p_slo = sub.add_parser("slo", help="SLO attainment + burn-rate alerts")
    _add_source_args(p_slo)

    p_profile = sub.add_parser(
        "profile", help="wall-clock profile of a scenario (flamegraph)"
    )
    p_profile.add_argument(
        "--scenario",
        default="failover",
        help="scenario to run under the profiler (default: failover)",
    )
    p_profile.add_argument(
        "-o", "--output", default=None, help="write collapsed stacks here (.folded)"
    )
    p_profile.add_argument(
        "--top", type=int, default=15, help="rows in the attribution table"
    )

    args = parser.parse_args(argv)

    if args.command == "profile":
        return _profile(args)
    art = _load(args)

    if args.command == "trace":
        print(artifact_mod.trace_summary(art))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(chrome_trace_json(art["spans"]))  # type: ignore[arg-type]
            print(f"wrote {args.output}")
    elif args.command == "events":
        print(events_table(art["events"]))  # type: ignore[arg-type]
    elif args.command == "explain":
        print(artifact_mod.explain(art, args.sharepod))
    elif args.command == "export":
        label = args.label or str(art.get("label") or "run")
        paths = artifact_mod.export_all(art, args.dir, label)
        for path in paths:
            print(f"wrote {path}")
        counters = art.get("counters") or {}
        if counters:
            print(json.dumps(dict(sorted(counters.items())), indent=2))
    elif args.command == "report":
        print(artifact_mod.hist_report(art))
    elif args.command == "slo":
        print(artifact_mod.slo_report(art))
    return 0


def _profile(args) -> int:
    profile: Dict[str, object] = _run(args.scenario, profile=True)["profile"]  # type: ignore[assignment]
    total = float(profile["total_seconds"])  # type: ignore[arg-type]
    print(
        f"{profile['dispatches']} dispatches, {total * 1e3:.1f} ms measured, "
        f"{float(profile['attributed_fraction']):.1%} attributed"  # type: ignore[arg-type]
    )
    rows = [f"{'subsystem':<24} {'host ms':>10} {'share':>7}"]
    for row in profile["by_subsystem"][: args.top]:  # type: ignore[index]
        secs = float(row["seconds"])
        rows.append(
            f"{row['subsystem']:<24} {secs * 1e3:>10.2f} {secs / (total or 1.0):>6.1%}"
        )
    print("\n".join(rows))
    output = args.output or f"{args.scenario}.folded"
    with open(output, "w") as fh:
        fh.write("\n".join(profile["folded"]) + "\n")  # type: ignore[arg-type]
    print(f"wrote {output} (speedscope / flamegraph.pl compatible)")
    return 0
