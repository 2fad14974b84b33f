"""The one catalogue of canonical end-to-end scenarios.

Every harness runs the same four definitions: the sweep runner
(:mod:`repro.perf`), every ``python -m repro.obs`` subcommand, the golden
digests and determinism replay tests, and the chaos/failover capstone
benchmarks.

* :func:`fig8` — the paper's throughput experiment (Figure 8a at a heavy
  frequency factor) through both Native Kubernetes and KubeShare: the
  full stack, dominated by the sim kernel and the GPU compute engine.
* :func:`chaos` — node-crash recovery: heartbeats, node lifecycle,
  eviction, DevMgr teardown and rescheduling (control plane + GPU engine
  under churn); ``recovery=False`` is the capstone's control run.
* :func:`failover` — HA DevMgr leader failover mid-burst: leases,
  fencing, promotion, and a scheduling burst through the cached
  device-view index; ``replicas=1`` is the capstone's control run.
* :func:`trace_replay` — a Borg/Alibaba-shaped synthetic trace (diurnal
  arrivals, heavy-tailed durations, mixed demands) serialized through
  the JSON-lines trace engine and replayed through KubeShare via the
  batched arrival-flow scheduler (workload engine + full stack).

Each entry is ``fn(seed=<default>, *, <knobs>) -> dict``. Every scenario
resets process-global state (:func:`reset_all`) and returns::

    {"summary":  <JSON-serializable, deterministic>,
     "events":   <total simulation events processed>,
     "sim_time": <virtual seconds simulated>,
     "obs":      <ObsHub snapshot dict, or None>}

``chaos`` and ``failover`` add the live handles ``env``, ``cluster``,
``ks`` and ``engine``, the host-time ``profile`` (or None), and
scenario-specific checkpoint captures. They attach the race detector and
the obs hub at one point, :func:`_instrumented`: the detector when
``REPRO_RACE_DETECT`` is set, the hub when *obs_label* is given or
``REPRO_OBS`` is set (artifacts then go to ``REPRO_OBS_DIR``), the
profiler when *profile* is true or ``REPRO_OBS_PROFILE`` is set. The hub
is disarmed even when the scenario raises.

``summary`` (and ``obs``) is the replay contract: an identical-seed run
produces a byte-identical value. ``tests/test_scenarios.py`` pins both by
digest over a seed matrix.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .analysis import race
from .analysis.resets import reset_all
from .baselines.kubeshare_sys import KubeShareSystem
from .chaos import ChaosEngine
from .cluster import Cluster, ClusterConfig
from .core import HAKubeShare, KubeShare
from .experiments.common import run_inference_workload
from .experiments.fig8 import BASE_JOBS_PER_MINUTE, JOB_DURATION, SYSTEMS
from .obs import runtime as obs_runtime
from .sim import Environment
from .workloads.generator import InferenceWorkload, WorkloadGenerator
from .workloads.jobs import InferenceJob
from .workloads.trace import dumps_trace, loads_trace, synthetic_borg_trace

__all__ = ["fig8", "chaos", "failover", "trace_replay", "SCENARIOS"]

#: cluster shape of the workload scenarios (fig8, trace_replay).
NODES = 8
GPUS_PER_NODE = 4

FIG8_N_JOBS = 120
#: Figure 8a frequency factor: the heavy end of the paper's sweep.
FIG8_FACTOR = 9.0

TRACE_HORIZON = 360.0
TRACE_MEAN_RATE = 0.35

CHAOS_N_JOBS = 6
CHAOS_DEMAND = 0.35
CHAOS_FAULT_AT = 45.0
#: displaced SharePods must be RUNNING again within this many virtual
#: seconds of the crash (lease 4 s + eviction + reschedule + pod start).
CHAOS_RESCHEDULE_BOUND = 20.0
CHAOS_PRE_WINDOW = (25.0, 40.0)
CHAOS_POST_WINDOW = (70.0, 85.0)
#: who lived where, sampled just before the crash.
CHAOS_HOMES_AT = CHAOS_FAULT_AT - 0.5
#: placements, sampled at the end of the reschedule bound.
CHAOS_BOUND_AT = CHAOS_FAULT_AT + CHAOS_RESCHEDULE_BOUND
#: every instant the chaos drive stops the kernel at, in order.
CHAOS_CHECKPOINTS = tuple(sorted(
    CHAOS_PRE_WINDOW + (CHAOS_HOMES_AT, CHAOS_BOUND_AT) + CHAOS_POST_WINDOW
))

FAILOVER_STEADY = tuple(f"steady{i}" for i in range(4))
FAILOVER_BURST = tuple(f"burst{i}" for i in range(8))
FAILOVER_BURST_START = 40.0
FAILOVER_BURST_GAP = 1.25
FAILOVER_FAULT_AT = 45.0
FAILOVER_HORIZON = 70.0


def fig8(seed: int = 7) -> Dict[str, Any]:
    """One heavy Figure 8a point through both systems (full stack)."""
    reset_all()
    events = 0
    sim_time = 0.0
    summary: Dict[str, Any] = {}
    for system_cls in SYSTEMS:
        workload = WorkloadGenerator(seed).inference_workload(
            n_jobs=FIG8_N_JOBS,
            jobs_per_minute=BASE_JOBS_PER_MINUTE * FIG8_FACTOR,
            demand_mean=0.3,
            demand_std=0.1,
            duration=JOB_DURATION,
        )
        result = run_inference_workload(
            system_cls, workload, nodes=NODES, gpus_per_node=GPUS_PER_NODE
        )
        env = result.extras["cluster"].env
        events += env.events_processed
        sim_time += env.now
        summary[result.system] = {
            "throughput_jobs_per_min": result.throughput_jobs_per_min,
            "makespan": result.makespan,
            "failed": result.failed_jobs,
        }
    return {"summary": summary, "events": events, "sim_time": sim_time, "obs": None}


def chaos(
    seed: int = 11,
    *,
    recovery: bool = True,
    obs_label: Optional[str] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    """Node-crash recovery: the busiest node dies at t=45 s.

    *seed* feeds the chaos engine's fault-injection RNG, which only
    breaks ties among the nodes running the most containers: seeds 1–14
    give three distinct runs (victims node00, node01 and node02; seeds 4–7
    reach all three), and the workload is the same at every seed.
    ``recovery=False`` disables the node-lifecycle controller (the
    control run that must not recover). Besides the summary, the run
    records ``homes`` (SharePod → node just before the crash) and
    ``placed_at_bound`` (SharePod → (phase, node) at the end of the
    reschedule bound).
    """
    cluster = _cluster(node_lifecycle=recovery)
    env = cluster.env
    ks = KubeShare(cluster, isolation="token").start()
    label = "chaos-recovery" if recovery else "chaos-control"
    with _instrumented(cluster, ks, label, obs_label, profile) as run:
        names = [f"sp{i}" for i in range(CHAOS_N_JOBS)]
        stats = [
            _submit(ks, name, CHAOS_DEMAND, 0.6, 400.0, restart_policy="reschedule")
            for name in names
        ]
        engine = ChaosEngine(cluster, kubeshare=ks, seed=seed)
        engine.node_crash(at=CHAOS_FAULT_AT)
        engine.start()

        work = {}
        for t in CHAOS_CHECKPOINTS:
            env.run(until=t)
            work[t] = sum(s.work_done for s in stats)
            if t == CHAOS_HOMES_AT:
                run["homes"] = {n: ks.get(n).spec.node_name for n in names}
            elif t == CHAOS_BOUND_AT:
                run["placed_at_bound"] = {
                    n: (ks.get(n).status.phase, ks.get(n).spec.node_name)
                    for n in names
                }

        def rate(window) -> float:
            t0, t1 = window
            return (work[t1] - work[t0]) / (t1 - t0)

        run["engine"] = engine
        run["summary"] = {
            "pre_rate": rate(CHAOS_PRE_WINDOW),
            "post_rate": rate(CHAOS_POST_WINDOW),
            "chaos_log": [(t, f.kind.value, v, o) for t, f, v, o in engine.log],
            "placed": {
                n: (ks.get(n).status.phase.value, ks.get(n).spec.node_name)
                for n in names
            },
            "rescheduled": ks.devmgr.sharepods_rescheduled_total,
            "torn_down": ks.devmgr.vgpus_torn_down_total,
        }
    return run


def failover(
    seed: int = 13,
    *,
    replicas: int = 2,
    obs_label: Optional[str] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    """HA DevMgr leader killed at t=45 s, mid-way through a burst.

    *seed* feeds the chaos engine's fault-injection RNG, but the victim
    is always the single DevMgr leader, so every seed gives the same run
    (seeds 1–8 share one summary digest). ``replicas=1`` is the control
    run with no standby.
    """
    cluster = _cluster()
    env = cluster.env
    ks = HAKubeShare(cluster, replicas=replicas, isolation="token").start()
    with _instrumented(cluster, ks, f"failover-r{replicas}", obs_label, profile) as run:
        for name in FAILOVER_STEADY:
            _submit(ks, name, 0.35, 0.6, 400.0)

        def submitter():
            for name in FAILOVER_BURST:
                _submit(ks, name, 0.2, 0.4, 200.0)
                yield env.timeout(FAILOVER_BURST_GAP)

        def start_burst():
            yield env.timeout(FAILOVER_BURST_START)
            env.process(submitter(), name="burst-submitter")

        env.process(start_burst(), name="burst-starter")

        engine = ChaosEngine(cluster, kubeshare=ks, seed=seed)
        engine.register_controllers(ks.sched_group, ks.devmgr_group)
        engine.controller_crash(at=FAILOVER_FAULT_AT, target="kubeshare-devmgr")
        engine.start()

        env.run(until=FAILOVER_HORIZON)

        run["engine"] = engine
        run["summary"] = {
            "chaos_log": [(t, f.kind.value, v, o) for t, f, v, o in engine.log],
            "promotions": list(ks.devmgr_group.promotions),
            "sched_promotions": list(ks.sched_group.promotions),
            "placement": {
                n: (
                    ks.get(n).status.phase.value,
                    ks.get(n).spec.gpu_id,
                    ks.get(n).status.pod_name,
                )
                for n in FAILOVER_STEADY + FAILOVER_BURST
            },
            "pod_names": sorted(p.name for p in cluster.api.list("Pod")),
        }
    return run


def trace_replay(seed: int = 23) -> Dict[str, Any]:
    """Replay a canned Borg-shaped trace through KubeShare (full stack).

    The trace is generated at a fixed seed, round-tripped through the
    JSON-lines serializer (the replay always runs from the *canned* form,
    never the in-memory objects), and driven by the batched arrival-flow
    scheduler. The summary pins the trace bytes by digest, so a sampler
    or serializer change cannot slip through as a "perf" delta.
    """
    reset_all()
    canned = dumps_trace(synthetic_borg_trace(
        seed=seed,
        horizon=TRACE_HORIZON,
        mean_rate=TRACE_MEAN_RATE,
        diurnal_amplitude=0.6,
        period=TRACE_HORIZON / 2.0,
        max_duration=180.0,
    ))
    jobs = loads_trace(canned)
    workload = InferenceWorkload(
        jobs=jobs, jobs_per_minute=TRACE_MEAN_RATE * 60.0,
        demand_mean=0.0, demand_std=0.0, seed=seed,
    )
    result = run_inference_workload(
        KubeShareSystem, workload, nodes=NODES, gpus_per_node=GPUS_PER_NODE
    )
    env = result.extras["cluster"].env
    summary = {
        "trace_sha256": hashlib.sha256(canned.encode()).hexdigest(),
        "n_jobs": len(jobs),
        "throughput_jobs_per_min": result.throughput_jobs_per_min,
        "makespan": result.makespan,
        "failed": result.failed_jobs,
    }
    return {
        "summary": summary,
        "events": env.events_processed,
        "sim_time": env.now,
        "obs": None,
    }


def _cluster(node_lifecycle: bool = True) -> Cluster:
    """Fresh process state and a started 4-node / 8-GPU cluster."""
    reset_all()
    config = ClusterConfig(nodes=4, gpus_per_node=2, node_lifecycle=node_lifecycle)
    return Cluster(Environment(), config).start()


def _submit(ks, name: str, demand: float, limit: float, duration: float, **kw):
    """Submit one steady inference SharePod; returns its workload stats."""
    workload = InferenceJob.from_demand(name, demand=demand, duration=duration).workload()
    ks.submit(ks.make_sharepod(
        name, gpu_request=demand, gpu_limit=limit, gpu_mem=0.3,
        workload=workload, **kw,
    ))
    return workload.stats


@contextmanager
def _instrumented(
    cluster, ks, label: str, obs_label: Optional[str], profile: bool
) -> Iterator[Dict[str, Any]]:
    """Attach the race detector and obs hub, run the body, and finish the run.

    The hub is labeled *obs_label*, or *label* when only ``REPRO_OBS``
    armed it. Yields the run dict (live handles pre-filled) for the body
    to complete. On a clean exit the detector is checked, the hub is
    snapshotted (and exported when ``REPRO_OBS`` armed it), and
    ``events``/``sim_time`` are recorded. The hub is disabled — which
    also uninstalls the kernel profile hook — even when the body raises.
    """
    detector = race.install_from_env(cluster)
    hub = None
    if obs_label is not None or obs_runtime.env_armed():
        hub = obs_runtime.install(
            cluster, kubeshare=ks, label=obs_label or label, profile=profile
        )
    env = cluster.env
    run: Dict[str, Any] = {
        "env": env, "cluster": cluster, "ks": ks, "obs": None, "profile": None,
    }
    try:
        yield run
        if detector is not None:
            detector.check()  # fails loudly on any recorded violation
        if hub is not None:
            run["obs"] = hub.snapshot()
            if hub.profiler is not None:
                run["profile"] = hub.profiler.to_dict()
            if obs_runtime.env_armed():
                hub.export_dir(os.environ.get(obs_runtime.ENV_DIR, "obs-artifacts"))
    finally:
        if hub is not None:
            obs_runtime.disable()
    run["events"] = env.events_processed
    run["sim_time"] = env.now


#: name → scenario callable, in harness execution order.
SCENARIOS = {
    "fig8": fig8,
    "chaos": chaos,
    "failover": failover,
    "trace_replay": trace_replay,
}
