"""Parallel sweep runner: N independently-seeded sims, one merged report.

``python -m repro.perf sweep`` runs one scenario at several seeds across
worker processes (``multiprocessing`` with the spawn start method — each
worker imports the stack fresh, so no simulator state leaks between
runs) and merges the results into a single BENCH file.

The merged file is **deterministic**: runs are sorted by seed, host
timings are excluded (wall clock depends on the machine and on worker
scheduling; everything else — event counts, simulated time, summaries —
is a pure function of (scenario, seed)), and JSON keys are sorted.
Running the same sweep twice therefore produces byte-identical output,
which the CI smoke job asserts.
"""

from __future__ import annotations

import json
from multiprocessing import get_context
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["run_seed", "run_sweep", "write_sweep_report", "parse_seed_list"]

_Task = Tuple[str, int]


def run_seed(task: _Task) -> Dict[str, Any]:
    """Run one (scenario, seed) task; the worker entry point.

    Module-level so the spawn start method can pickle it. Imports are
    local: the worker pays them once, and the parent can build the task
    list without loading the cluster stack.
    """
    name, seed = task
    from ..scenarios import SCENARIOS

    out = SCENARIOS[name](seed=seed)
    return {
        "scenario": name,
        "seed": seed,
        "events": out["events"],
        "sim_time": out["sim_time"],
        "summary": out["summary"],
    }


def run_sweep(
    scenario: str,
    seeds: Sequence[int],
    processes: int = 1,
    log=print,
) -> Dict[str, Any]:
    """Run *scenario* at every seed; returns the merged report dict."""
    from ..scenarios import SCENARIOS

    if scenario not in SCENARIOS:
        raise KeyError(f"unknown scenario {scenario!r} (have {sorted(SCENARIOS)})")
    if not seeds:
        raise ValueError("at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be unique (the merge is keyed by seed)")
    tasks: List[_Task] = [(scenario, int(s)) for s in seeds]
    log(
        f"[sweep] {scenario}: {len(tasks)} seeds across "
        f"{max(1, processes)} processes"
    )
    if processes <= 1:
        runs = [run_seed(t) for t in tasks]
    else:
        # spawn, not fork: forked workers would inherit the parent's
        # already-imported module globals (obs hub, uid counters) and the
        # runs would stop being independent of parent history.
        with get_context("spawn").Pool(processes) as pool:
            runs = pool.map(run_seed, tasks)
    runs.sort(key=lambda r: r["seed"])
    for r in runs:
        log(f"[sweep] {scenario} seed={r['seed']}: {r['events']} events, "
            f"sim_time={r['sim_time']:.1f}s")
    return {
        "suite": "repro-perf-sweep",
        "scenario": scenario,
        "seeds": [int(s) for s in sorted(seeds)],
        "runs": runs,
    }


def write_sweep_report(report: Dict[str, Any], path: str) -> str:
    """Write the merged report; byte-stable for identical sweeps."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def parse_seed_list(spec: str) -> List[int]:
    """Parse ``"1,2,5-8"`` style seed specs into a sorted unique list."""
    seeds: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # allow negative single seeds like "-1"
            lo_s, hi_s = part.split("-", 1) if not part.startswith("-") else (
                part[: part.index("-", 1)],
                part[part.index("-", 1) + 1 :],
            )
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"bad seed range {part!r}")
            seeds.update(range(lo, hi + 1))
        else:
            seeds.add(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {spec!r}")
    return sorted(seeds)
