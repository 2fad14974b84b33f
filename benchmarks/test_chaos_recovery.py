"""Chaos recovery: throughput must return after losing a node mid-run.

The capstone for the failure-recovery machinery. A 4-node / 8-GPU cluster
serves six steady inference SharePods; at t=45 s the chaos engine crashes
the node hosting the most containers (deterministic, seeded). With the
recovery stack enabled (heartbeats → node-lifecycle controller → eviction
→ DevMgr teardown → Algorithm 1 rescheduling) cluster throughput returns
to ≥90% of steady state within a bounded virtual-time window. The control
run repeats the *same* fault schedule with the recovery machinery
disabled (``node_lifecycle=False``) and demonstrably does not recover.
"""

import pytest

from repro.chaos import FaultKind
from repro.cluster.objects import PodPhase
from repro.scenarios import CHAOS_FAULT_AT as FAULT_AT
from repro.scenarios import CHAOS_POST_WINDOW as POST_WINDOW
from repro.scenarios import chaos

pytestmark = pytest.mark.benchmark(group="chaos")


def run_scenario(recovery: bool) -> dict:
    # The scenario itself lives in repro.scenarios; REPRO_RACE_DETECT and
    # REPRO_OBS (set by the CI smoke jobs) arm the race detector and the
    # obs hub there, and the hub's artifacts land in REPRO_OBS_DIR.
    run = chaos(recovery=recovery)
    ks, obs = run["ks"], run["obs"]
    [(t_fault, fault, victim, outcome)] = run["engine"].log
    assert fault.kind is FaultKind.NODE_CRASH
    homes = run["homes"]
    return {
        "slo_alerts": obs["slo"]["alerts"] if obs else None,
        "pre_rate": run["summary"]["pre_rate"],
        "post_rate": run["summary"]["post_rate"],
        "victim": victim,
        "outcome": outcome,
        "displaced": [n for n in homes if homes[n] == victim],
        "placed": run["placed_at_bound"],
        "rescheduled": ks.devmgr.sharepods_rescheduled_total,
        "torn_down": ks.devmgr.vgpus_torn_down_total,
        "not_ready": (
            run["cluster"].node_lifecycle.not_ready_total if recovery else 0
        ),
    }


def _table(rec, ctl) -> str:
    lines = [
        "Chaos recovery — node crash at t=45 s (seed 11, busiest node)",
        f"{'':22s} {'recovery':>10s} {'no recovery':>12s}",
        f"{'steady rate (w/s)':22s} {rec['pre_rate']:>10.3f} {ctl['pre_rate']:>12.3f}",
        f"{'post-fault rate':22s} {rec['post_rate']:>10.3f} {ctl['post_rate']:>12.3f}",
        f"{'recovered fraction':22s} {rec['post_rate'] / rec['pre_rate']:>10.2f}"
        f" {ctl['post_rate'] / ctl['pre_rate']:>12.2f}",
        f"{'displaced SharePods':22s} {len(rec['displaced']):>10d} {len(ctl['displaced']):>12d}",
        f"{'rescheduled':22s} {rec['rescheduled']:>10d} {ctl['rescheduled']:>12d}",
    ]
    return "\n".join(lines)


def test_throughput_recovers_after_node_crash(report, benchmark):
    rec = benchmark.pedantic(run_scenario, args=(True,), rounds=1, iterations=1)
    ctl = run_scenario(recovery=False)
    report(_table(rec, ctl))

    # The fault fired and actually hit a busy node.
    assert rec["outcome"] == "crashed"
    assert rec["displaced"], "the crash must displace at least one SharePod"

    # Every displaced SharePod is RUNNING on a surviving node within the
    # bounded virtual-time window after the crash.
    for name in rec["displaced"]:
        phase, node = rec["placed"][name]
        assert phase is PodPhase.RUNNING, f"{name} not recovered: {phase}"
        assert node != rec["victim"], f"{name} still on the dead node"
    assert rec["rescheduled"] >= len(rec["displaced"])
    assert rec["torn_down"] >= 1
    assert rec["not_ready"] >= 1

    # Throughput back to ≥90% of steady state.
    assert rec["post_rate"] >= 0.9 * rec["pre_rate"]

    # With observability armed (REPRO_OBS=1, as in the CI smoke job), the
    # node loss burns through the schedule-latency error budget: exactly
    # one page-severity fast-burn alert fires and resolves once the
    # displaced SharePods are rescheduled.
    if rec["slo_alerts"] is not None:
        pages = [a for a in rec["slo_alerts"] if a["severity"] == "page"]
        assert len(pages) == 1, f"expected exactly one page alert, got {pages}"
        [page] = pages
        assert page["slo"] == "sharepod-schedule-latency"
        assert page["fired_at"] >= FAULT_AT
        assert page["state"] == "resolved", "page alert must resolve after recovery"
        assert page["resolved_at"] <= POST_WINDOW[1]

    # Same fault, no recovery machinery: the displaced work never comes
    # back, and cluster throughput stays depressed.
    assert ctl["displaced"]
    assert ctl["rescheduled"] == 0
    assert ctl["post_rate"] < 0.75 * ctl["pre_rate"]
