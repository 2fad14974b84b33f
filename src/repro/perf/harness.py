"""Perf-regression harness: time the canonical scenarios, write BENCH_perf.json.

Each scenario runs once with the fast paths on and (unless disabled) once
in ``REPRO_SLOW_KERNEL=1`` reference mode, reporting per-scenario wall
clock, simulation events processed (``env.events_processed``), and the
derived events/sec. Two numbers matter downstream:

* ``speedup`` — reference wall clock over fast wall clock for the *same
  simulated outcome* (the fast run dispatches slightly fewer events —
  coalesced wakes and tombstoned timers never reach the queue head — but
  the summaries must match byte for byte). Because numerator and
  denominator are measured on the same machine back to back, the ratio is
  **hardware-independent**; the CI regression gate compares it against
  the checked-in baseline (``benchmarks/perf/baseline.json``) with a 20%
  tolerance. Raw events/sec is recorded too but never gated on, since it
  tracks the machine as much as the code.
* ``identical`` — whether the two modes produced byte-identical scenario
  summaries. A ``False`` here means an optimization changed simulation
  behavior and is always a failure.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Iterable, List, Optional

from . import fastpath
from .scenarios import SCENARIOS

__all__ = ["LAYERS", "run_scenario", "run_suite", "write_report", "check_report"]

#: which layer of the stack each scenario predominantly exercises.
LAYERS = {
    "fig8": "full stack (sim kernel + GPU engine + control plane)",
    "chaos": "failure recovery (GPU engine + node lifecycle)",
    "failover": "control plane (leases, scheduler, device-view index)",
    "trace_replay": "workload engine (trace replay + arrival flows + full stack)",
}

#: absolute speedup floors (fast vs reference wall clock) per scenario —
#: the end-to-end promises of the fast-path work, enforced
#: regardless of what the checked-in baseline says.
MIN_SPEEDUPS = {"fig8": 5.0, "chaos": 2.0, "failover": 2.0}
#: a scenario's speedup may drop at most this fraction below baseline.
TOLERANCE = 0.20


def run_scenario(name: str, slow: bool = False) -> Dict[str, Any]:
    """Run one scenario, timed, in fast or reference mode."""
    fn = SCENARIOS[name]
    with fastpath.force(slow):
        t0 = time.perf_counter()  # noqa: RPR001 - the harness measures host wall time by design
        out = fn()
        wall = time.perf_counter() - t0  # noqa: RPR001 - host wall time by design
    events = out["events"]
    return {
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "sim_time": out["sim_time"],
        "summary": out["summary"],
    }


def run_suite(
    names: Optional[Iterable[str]] = None,
    reference: bool = True,
    log=print,
) -> Dict[str, Any]:
    """Run the suite; returns the BENCH_perf.json report dict."""
    results: Dict[str, Any] = {}
    for name in names or SCENARIOS:
        if name not in SCENARIOS:
            raise KeyError(f"unknown scenario {name!r} (have {sorted(SCENARIOS)})")
        # Reference first: the first scenario run in a process pays the
        # one-off import/allocator warmup, which must not be charged to
        # the fast path's numerator.
        slow = None
        if reference:
            log(f"[perf] {name}: reference (REPRO_SLOW_KERNEL) ...")
            slow = run_scenario(name, slow=True)
        log(f"[perf] {name}: fast ...")
        fast = run_scenario(name, slow=False)
        entry: Dict[str, Any] = {
            "layer": LAYERS.get(name, ""),
            "fast": {k: fast[k] for k in ("wall_s", "events", "events_per_sec", "sim_time")},
        }
        if slow is not None:
            entry["slow"] = {
                k: slow[k] for k in ("wall_s", "events", "events_per_sec", "sim_time")
            }
            entry["speedup"] = round(slow["wall_s"] / fast["wall_s"], 2)
            entry["identical"] = _canon(fast["summary"]) == _canon(slow["summary"])
        results[name] = entry
        log(f"[perf] {name}: " + format_entry(name, entry))
    return {"suite": "repro-perf", "results": results}


def _canon(summary: Any) -> str:
    return json.dumps(summary, sort_keys=True, default=str)


def format_entry(name: str, entry: Dict[str, Any]) -> str:
    fast = entry["fast"]
    line = (
        f"{fast['wall_s']:.2f}s wall, {fast['events']} events, "
        f"{fast['events_per_sec']:.0f} ev/s"
    )
    if "speedup" in entry:
        line += (
            f", {entry['speedup']:.2f}x vs reference, "
            f"identical={entry['identical']}"
        )
    return line


def write_report(report: Dict[str, Any], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def check_report(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = TOLERANCE,
) -> List[str]:
    """Regression gate; returns a list of failures (empty = pass).

    Gates on the hardware-independent speedup ratio, never on raw
    events/sec (see the module docstring), plus two absolute checks:
    fast/reference summaries must be identical, and every scenario in
    :data:`MIN_SPEEDUPS` must keep the end-to-end speedup its
    optimization PR promised (fig8 ≥5x, chaos and failover ≥2x).
    """
    errors: List[str] = []
    base_results = baseline.get("results", {})
    results = report.get("results", {})
    for name, base in sorted(base_results.items()):
        cur = results.get(name)
        if cur is None:
            errors.append(f"{name}: present in baseline but was not run")
            continue
        if cur.get("identical") is False:
            errors.append(
                f"{name}: fast and reference runs diverged — an optimization "
                "changed simulation behavior"
            )
        base_speedup = base.get("speedup")
        cur_speedup = cur.get("speedup")
        if base_speedup and cur_speedup is not None:
            floor = base_speedup * (1.0 - tolerance)
            if cur_speedup < floor:
                errors.append(
                    f"{name}: speedup regressed to {cur_speedup:.2f}x "
                    f"(baseline {base_speedup:.2f}x, floor {floor:.2f}x)"
                )
    for name, floor in sorted(MIN_SPEEDUPS.items()):
        speedup = results.get(name, {}).get("speedup")
        if speedup is not None and speedup < floor:
            errors.append(
                f"{name}: end-to-end speedup {speedup:.2f}x is below the "
                f"required {floor:.1f}x"
            )
    return errors
