"""HA failover: kill the active DevMgr mid-burst, the standby takes over.

The capstone for the leader-elected control plane. A 4-node / 8-GPU
cluster runs KubeShare with two replicas of each controller; four steady
inference SharePods are joined by an eight-SharePod submission burst
starting at t=40 s, and at t=45 s the chaos engine kills the active
DevMgr replica. The hot standby must acquire the lease and finish the
burst: every SharePod scheduled and running, no vGPU double-bound, and
the new leader's first reconcile within the lease-expiry failover bound.
The control run repeats the same schedule with a single replica — the
control plane halts and the tail of the burst is never bound.

Failover runs are deterministic: the same seed produces identical
promotion times and an identical final placement map.
"""

import pytest

from repro.chaos import FaultKind
from repro.cluster.objects import PodPhase
from repro.core import PLACEHOLDER_PREFIX
from repro.scenarios import FAILOVER_BURST, FAILOVER_STEADY, failover
from repro.scenarios import FAILOVER_FAULT_AT as FAULT_AT

pytestmark = pytest.mark.benchmark(group="chaos")

EPS = 1e-6

_ACTIVE = (PodPhase.PENDING, PodPhase.RUNNING)


def run_scenario(replicas: int) -> dict:
    # The scenario itself lives in repro.scenarios (which also resets
    # process-global state, so placements replay bit-for-bit regardless
    # of what ran earlier); REPRO_RACE_DETECT and REPRO_OBS arm the race
    # detector and the obs hub there.
    run = failover(replicas=replicas)
    cluster, ks, obs = run["cluster"], run["ks"], run["obs"]
    steady, burst = list(FAILOVER_STEADY), list(FAILOVER_BURST)
    names = steady + burst
    sharepods = {n: ks.get(n) for n in names}
    pods = cluster.api.list("Pod")
    holder_uuids = {}
    for pod in pods:
        if (
            pod.name.startswith(PLACEHOLDER_PREFIX)
            and pod.status.phase is PodPhase.RUNNING
        ):
            uuid = pod.status.container_env.get("NVIDIA_VISIBLE_DEVICES")
            holder_uuids.setdefault(uuid, []).append(pod.name)
    load = {}
    for sp in sharepods.values():
        if sp.spec.gpu_id is not None and sp.status.phase in _ACTIVE:
            load[sp.spec.gpu_id] = load.get(sp.spec.gpu_id, 0.0) + sp.spec.gpu_request

    group = ks.devmgr_group
    new_leader = group.controllers[-1] if len(group.controllers) > 1 else None
    return {
        "slo_alerts": obs["slo"]["alerts"] if obs else None,
        "chaos_log": [(t, f.kind, v, o) for t, f, v, o in run["engine"].log],
        "promotions": list(group.promotions),
        "sched_promotions": list(ks.sched_group.promotions),
        "failover_bound": group.failover_bound,
        "first_reconcile_at": (
            new_leader.first_reconcile_at if new_leader is not None else None
        ),
        "placement": {
            n: (sp.status.phase, sp.spec.gpu_id, sp.status.pod_name)
            for n, sp in sharepods.items()
        },
        "holder_uuids": holder_uuids,
        "load": load,
        "pod_names": {p.name for p in pods},
        "steady": steady,
        "burst": burst,
    }


def _table(ha, ctl) -> str:
    t_promo = ha["promotions"][1][0] if len(ha["promotions"]) > 1 else float("nan")
    stuck = sum(
        1 for phase, _, _ in ctl["placement"].values() if phase is PodPhase.PENDING
    )
    lines = [
        "HA failover — DevMgr leader killed at t=45 s mid-burst (seed 13)",
        f"{'':28s} {'2 replicas':>12s} {'1 replica':>12s}",
        f"{'promotions':28s} {len(ha['promotions']):>12d} {len(ctl['promotions']):>12d}",
        f"{'standby promoted at (s)':28s} {t_promo:>12.2f} {'—':>12s}",
        f"{'failover bound (s)':28s} {ha['failover_bound']:>12.2f} {ctl['failover_bound']:>12.2f}",
        f"{'running SharePods at t=70':28s}"
        f" {sum(1 for p, _, _ in ha['placement'].values() if p is PodPhase.RUNNING):>12d}"
        f" {sum(1 for p, _, _ in ctl['placement'].values() if p is PodPhase.RUNNING):>12d}",
        f"{'stuck PENDING at t=70':28s} {0:>12d} {stuck:>12d}",
    ]
    return "\n".join(lines)


def test_standby_takes_over_and_finishes_the_burst(report, benchmark):
    ha = benchmark.pedantic(run_scenario, args=(2,), rounds=1, iterations=1)
    ctl = run_scenario(replicas=1)
    report(_table(ha, ctl))

    # The fault fired and killed the then-active DevMgr leader.
    [(t_fault, kind, victim, outcome)] = ha["chaos_log"]
    assert kind is FaultKind.CONTROLLER_CRASH and outcome == "crashed"
    assert ha["promotions"][0][1] == victim

    # The standby was promoted within the lease-expiry failover bound...
    assert len(ha["promotions"]) == 2
    t_promo, successor, epoch = ha["promotions"][1]
    assert successor != victim
    assert epoch == 2
    assert t_promo - FAULT_AT <= ha["failover_bound"]
    # ...and reconciled promptly after rebuilding state from the apiserver.
    assert ha["first_reconcile_at"] is not None
    assert ha["first_reconcile_at"] - FAULT_AT <= ha["failover_bound"] + 0.5

    # Zero lost SharePods: everything submitted — including the part of
    # the burst that landed during the failover window — is scheduled,
    # bound, and running.
    for name, (phase, gpu_id, pod_name) in ha["placement"].items():
        assert phase is PodPhase.RUNNING, f"{name}: {phase}"
        assert gpu_id is not None, f"{name} never scheduled"
        assert pod_name in ha["pod_names"], f"{name} has no pod"

    # With observability armed, a clean failover stays inside the error
    # budget: the standby takes over fast enough that no page-severity
    # burn alert ever fires (contrast with the chaos capstone, where node
    # loss must page).
    if ha["slo_alerts"] is not None:
        pages = [a for a in ha["slo_alerts"] if a["severity"] == "page"]
        assert not pages, f"failover should not page: {pages}"

    # Zero double-binding: each physical GPU backs at most one vGPU
    # placeholder, and no vGPU's admitted gpu_request exceeds capacity.
    for uuid, holders in ha["holder_uuids"].items():
        assert len(holders) == 1, f"GPU {uuid} double-bound: {holders}"
    for gpu_id, total in ha["load"].items():
        assert total <= 1.0 + EPS, f"vGPU {gpu_id} overcommitted: {total}"

    # Control: with a single replica the control plane halts — no second
    # promotion, and the tail of the burst is never bound to a pod.
    assert len(ctl["promotions"]) == 1
    stuck = [
        name
        for name, (phase, _, pod_name) in ctl["placement"].items()
        if phase is PodPhase.PENDING and pod_name is None
    ]
    assert stuck, "single-replica control run unexpectedly recovered"
    assert all(name in ctl["burst"] for name in stuck)
    # The data plane is untouched: steady SharePods keep running.
    for name in ctl["steady"]:
        assert ctl["placement"][name][0] is PodPhase.RUNNING


def test_failover_is_deterministic():
    first = run_scenario(replicas=2)
    second = run_scenario(replicas=2)
    # Identical promotion times, identities, and epochs...
    assert first["promotions"] == second["promotions"]
    assert first["sched_promotions"] == second["sched_promotions"]
    assert first["chaos_log"] == second["chaos_log"]
    # ...and an identical final state, down to the GPUIDs and the
    # per-vGPU admitted load.
    assert first["placement"] == second["placement"]
    assert first["load"] == second["load"]
    assert first["pod_names"] == second["pod_names"]
