"""The benchmark's workloads: seeded input generation, one episode each,
and the output check.

An *episode* is one closed-loop unit of host work. Its inputs are plain
data generated from the seed (:func:`make_inputs`); the program receives
only those inputs, through its public layer APIs. Each episode returns an
:class:`Episode` whose ``summary`` is the modelled outcome (per-job
submit/start/finish, placements, chaos log) in canonical JSON form, so
its SHA-256 digest pins the modelled behaviour independently of how fast
the host ran.

Workloads:

* ``fig8_throughput`` — the Fig 8a heavy point (120 inference jobs,
  demand 0.3±0.1, factor 9) on 8×4 GPUs, through Native Kubernetes and
  through KubeShare with fluid isolation; obs off.
* ``churn_obs`` — a chaos episode (4×2 node-lifecycle cluster, 6
  token-isolated SharePods, one node crash) followed by a failover
  episode (HA KubeShare with 2 replicas, 4 steady + 8 burst SharePods,
  a devmgr leader crash), both with obs, sampler and SLO evaluator on.
* ``borg_scale`` — a Borg-shaped synthetic trace, round-tripped through
  JSON-lines and replayed through KubeShare on 32×4 GPUs; obs off.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List

import numpy as np

from repro.analysis.resets import reset_all
from repro.baselines.kubeshare_sys import KubeShareSystem
from repro.baselines.native import NativeKubernetes
from repro.chaos import ChaosEngine
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.objects import PodPhase
from repro.core import HAKubeShare, KubeShare
from repro.experiments.common import run_inference_workload
from repro.gpu.device import V100_MEMORY
from repro.obs import runtime as obs_runtime
from repro.sim import Environment
from repro.workloads import trace as wtrace
from repro.workloads.generator import InferenceWorkload, WorkloadGenerator
from repro.workloads.jobs import InferenceJob

__all__ = [
    "WORKLOADS",
    "DEFAULT_SEED",
    "Episode",
    "make_inputs",
    "run_episode",
    "digest",
    "check_sharepods",
    "output_problems",
]

WORKLOADS = ("fig8_throughput", "churn_obs", "borg_scale")

#: the seed whose episode digests are pinned in ``golden.json``.
DEFAULT_SEED = 1

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)

# Fig 8a heavy point: BASE_JOBS_PER_MINUTE (16/min) x factor 9, 40 s jobs.
FIG8_JOBS = 120
FIG8_JOBS_PER_MINUTE = 16.0 * 9.0
FIG8_JOB_DURATION = 40.0

# The Borg trace is truncated to a fixed job count so the episode's work
# does not swing with the Poisson draw of the arrival count; the mean
# rate is set so that 480 arrivals fall inside the horizon for almost
# every seed.
BORG_HORIZON = 360.0
BORG_MEAN_RATE = 1.5
BORG_JOBS = 480
BORG_NODES = 32


@dataclass
class Episode:
    """What one episode produced."""

    #: canonical, JSON-serializable modelled outcome (the digest input).
    summary: Dict[str, Any]
    #: virtual seconds simulated, summed over the episode's clusters.
    sim_s: float
    #: jobs or SharePods submitted.
    submitted: int
    #: of those, failed or unplaced at episode end.
    failed: int
    #: invariant violations found by the outside-in check.
    problems: List[str] = field(default_factory=list)
    #: modelled (virtual-time) metrics: name -> (value, unit).
    modelled: Dict[str, tuple] = field(default_factory=dict)


def digest(data: Any) -> str:
    """SHA-256 of the canonical JSON form (floats at full precision;
    dataclasses such as job arrivals as their field dicts)."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=asdict)
    return hashlib.sha256(text.encode()).hexdigest()


# -- input generation ------------------------------------------------------


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """Generate one workload's inputs from *seed* as plain data."""
    if workload == "fig8_throughput":
        wl = WorkloadGenerator(seed).inference_workload(
            n_jobs=FIG8_JOBS,
            jobs_per_minute=FIG8_JOBS_PER_MINUTE,
            demand_mean=0.3,
            demand_std=0.1,
            duration=FIG8_JOB_DURATION,
        )
        return {"jobs": wl.jobs}
    if workload == "churn_obs":
        return _churn_inputs(np.random.default_rng(seed))
    if workload == "borg_scale":
        jobs = wtrace.synthetic_borg_trace(
            seed=seed,
            horizon=BORG_HORIZON,
            mean_rate=BORG_MEAN_RATE,
            diurnal_amplitude=0.6,
            period=BORG_HORIZON / 2.0,
            max_duration=180.0,
            max_jobs=BORG_JOBS,
        )
        return {"trace": wtrace.dumps_trace(jobs)}
    raise ValueError(f"unknown workload {workload!r}")


def _pods(rng, prefix: str, n: int, lo: float, hi: float) -> List[Dict[str, Any]]:
    requests = rng.uniform(lo, hi, size=n)
    mems = rng.uniform(0.15, 0.3, size=n)
    return [
        {
            "name": f"{prefix}{i}",
            "request": round(float(r), 3),
            "limit": round(min(1.0, float(r) + 0.25), 3),
            "mem": round(float(m), 3),
        }
        for i, (r, m) in enumerate(zip(requests, mems))
    ]


def _churn_inputs(rng) -> Dict[str, Any]:
    crash = round(float(rng.uniform(40.0, 50.0)), 3)
    return {
        "chaos": {
            "pods": _pods(rng, "sp", 6, 0.25, 0.4),
            "crash_at": crash,
            # rate windows: before the crash, and after recovery settles.
            "pre": [crash - 20.0, crash - 5.0],
            "post": [crash + 25.0, crash + 40.0],
            "chaos_seed": int(rng.integers(1 << 30)),
        },
        "failover": {
            "steady": _pods(rng, "steady", 4, 0.25, 0.4),
            "burst": _pods(rng, "burst", 8, 0.15, 0.25),
            "burst_at": 40.0,
            "burst_gap": round(float(rng.uniform(1.0, 1.5)), 3),
            "crash_at": round(float(rng.uniform(42.0, 48.0)), 3),
            "horizon": 70.0,
            "chaos_seed": int(rng.integers(1 << 30)),
        },
    }


# -- output check ----------------------------------------------------------


def check_sharepods(sharepods) -> List[str]:
    """Invariants over SharePods listed from the apiserver.

    No vGPU holds a summed ``gpu_request`` above 1, and every SharePod is
    Running or terminal.
    """
    problems = []
    load: Dict[str, float] = {}
    for sp in sharepods:
        phase = sp.status.phase
        if phase not in _TERMINAL and phase is not PodPhase.RUNNING:
            problems.append(f"SharePod {sp.metadata.name} is {phase.value}")
        if sp.spec.gpu_id is not None and phase not in _TERMINAL:
            load[sp.spec.gpu_id] = load.get(sp.spec.gpu_id, 0.0) + sp.spec.gpu_request
    for gpuid in sorted(load):
        if load[gpuid] > 1.0 + 1e-9:
            problems.append(f"vGPU {gpuid} over-committed: {load[gpuid]:.3f}")
    return problems


def output_problems(episode: Episode, reference: str) -> List[str]:
    """Everything wrong with *episode*: its invariant violations, and a
    digest that differs from *reference*."""
    found = list(episode.problems)
    got = digest(episode.summary)
    if got != reference:
        found.append(f"episode digest {got} differs from {reference}")
    return found


def _check_pods(pods) -> List[str]:
    return [
        f"Pod {p.name} is {p.status.phase.value}"
        for p in pods
        if p.status.phase not in _TERMINAL and p.status.phase is not PodPhase.RUNNING
    ]


# -- fig8_throughput / borg_scale --------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _replay(system_cls, jobs, nodes: int) -> tuple:
    """Run *jobs* through *system_cls*; return the run's summary part,
    job stats, run result, failed count and invariant problems."""
    workload = InferenceWorkload(
        jobs=jobs, jobs_per_minute=0.0, demand_mean=0.0, demand_std=0.0, seed=0
    )
    result = run_inference_workload(system_cls, workload, nodes=nodes, gpus_per_node=4)
    api = result.extras["cluster"].api
    if system_cls is KubeShareSystem:
        objs = api.list("SharePod")
        problems = check_sharepods(objs)
        placements = [
            [o.metadata.name, o.status.phase.value, o.spec.gpu_id, o.spec.node_name]
            for o in objs
        ]
    else:
        objs = api.list("Pod")
        problems = _check_pods(objs)
        placements = [[o.name, o.status.phase.value, o.spec.node_name] for o in objs]
    stats = sorted(result.stats, key=lambda s: s.name)
    part = {
        "jobs": [
            [s.name, s.submitted_at, s.started_at, s.finished_at, s.failed]
            for s in stats
        ],
        "placements": placements,
    }
    failed = sum(1 for s in stats if s.failed or s.started_at is None)
    return part, stats, result, failed, problems


def _job_metrics(stats, result) -> Dict[str, tuple]:
    waits = [s.started_at - s.submitted_at for s in stats if s.started_at is not None]
    return {
        "jobs_per_min": (result.throughput_jobs_per_min, "jobs/min"),
        "job_wait_s.p50": (_percentile(waits, 50), "s"),
        # With 120 or more jobs, p90 has at least ten samples beyond it.
        "job_wait_s.p90": (_percentile(waits, 90), "s"),
        "job_wait_s.n": (len(waits), "count"),
        "makespan_s": (result.makespan, "s"),
    }


def _fig8(inputs: Dict[str, Any]) -> Episode:
    summary: Dict[str, Any] = {}
    sim_s = 0.0
    submitted = failed = 0
    problems: List[str] = []
    results = {}
    for system_cls in (NativeKubernetes, KubeShareSystem):
        part, stats, result, n_failed, found = _replay(system_cls, inputs["jobs"], 8)
        summary[result.system] = part
        sim_s += result.extras["cluster"].env.now
        submitted += len(stats)
        failed += n_failed
        problems += found
        results[result.system] = (stats, result)
    stats, ks = results["KubeShare"]
    native = results["Kubernetes"][1]
    modelled = _job_metrics(stats, ks)
    modelled["kubeshare_vs_native_x"] = (
        ks.throughput_jobs_per_min / native.throughput_jobs_per_min,
        "x",
    )
    return Episode(summary, sim_s, submitted, failed, problems, modelled)


def _borg(inputs: Dict[str, Any]) -> Episode:
    # The trace text is the input: parsing it is the program's work.
    jobs = wtrace.loads_trace(inputs["trace"])
    part, stats, result, failed, problems = _replay(KubeShareSystem, jobs, BORG_NODES)
    return Episode(
        {"KubeShare": part},
        result.extras["cluster"].env.now,
        len(stats),
        failed,
        problems,
        _job_metrics(stats, result),
    )


# -- churn_obs ----------------------------------------------------------------


def _install_obs(env, cluster, ks, label: str):
    hub = obs_runtime.ObsHub(env, label=label).attach_cluster(cluster)
    hub.attach_kubeshare(ks)
    hub.start_sampler()
    hub.start_slo()
    return obs_runtime.enable(hub)


def _finish_obs(hub) -> str:
    try:
        return digest(hub.snapshot())
    finally:
        obs_runtime.disable()


def _submit(ks, pod: Dict[str, Any], duration: float, restart_policy: str):
    job = InferenceJob.from_demand(
        pod["name"],
        demand=pod["request"],
        duration=duration,
        # the loaded model fits inside the SharePod's memory share
        model_memory=int(0.9 * pod["mem"] * V100_MEMORY),
    )
    workload = job.workload()
    ks.submit(
        ks.make_sharepod(
            pod["name"],
            gpu_request=pod["request"],
            gpu_limit=pod["limit"],
            gpu_mem=pod["mem"],
            workload=workload,
            restart_policy=restart_policy,
        )
    )
    return workload.stats


def _chaos_log(engine) -> List[list]:
    return [[t, f.kind.value, victim, outcome] for t, f, victim, outcome in engine.log]


def _chaos(inputs: Dict[str, Any]) -> tuple:
    env = Environment()
    cluster = Cluster(
        env, ClusterConfig(nodes=4, gpus_per_node=2, node_lifecycle=True)
    ).start()
    ks = KubeShare(cluster, isolation="token").start()
    hub = _install_obs(env, cluster, ks, "churn-chaos")
    try:
        stats = [_submit(ks, pod, 400.0, "reschedule") for pod in inputs["pods"]]
        engine = ChaosEngine(cluster, kubeshare=ks, seed=inputs["chaos_seed"])
        engine.node_crash(at=inputs["crash_at"])
        engine.start()

        def rate(t0: float, t1: float) -> float:
            env.run(until=t0)
            w0 = sum(s.work_done for s in stats)
            env.run(until=t1)
            return (sum(s.work_done for s in stats) - w0) / (t1 - t0)

        pre = rate(*inputs["pre"])
        post = rate(*inputs["post"])
    finally:
        obs_digest = _finish_obs(hub)
    sharepods = cluster.api.list("SharePod")
    summary = {
        "pre_rate": pre,
        "post_rate": post,
        "chaos_log": _chaos_log(engine),
        "placements": [
            [sp.metadata.name, sp.status.phase.value, sp.spec.gpu_id, sp.spec.node_name]
            for sp in sharepods
        ],
        "work_done": [s.work_done for s in stats],
        "rescheduled": ks.devmgr.sharepods_rescheduled_total,
        "torn_down": ks.devmgr.vgpus_torn_down_total,
        "obs_sha256": obs_digest,
    }
    return summary, env.now, sharepods, pre, post


def _failover(inputs: Dict[str, Any]) -> tuple:
    env = Environment()
    cluster = Cluster(env, ClusterConfig(nodes=4, gpus_per_node=2)).start()
    ks = HAKubeShare(cluster, replicas=2, isolation="token").start()
    hub = _install_obs(env, cluster, ks, "churn-failover")
    try:
        for pod in inputs["steady"]:
            _submit(ks, pod, 400.0, "never")

        def submitter():
            yield env.timeout(inputs["burst_at"])
            for pod in inputs["burst"]:
                _submit(ks, pod, 200.0, "never")
                yield env.timeout(inputs["burst_gap"])

        env.process(submitter(), name="workload:burst")
        engine = ChaosEngine(cluster, kubeshare=ks, seed=inputs["chaos_seed"])
        engine.register_controllers(ks.sched_group, ks.devmgr_group)
        engine.controller_crash(at=inputs["crash_at"], target="kubeshare-devmgr")
        engine.start()
        env.run(until=inputs["horizon"])
    finally:
        obs_digest = _finish_obs(hub)
    sharepods = cluster.api.list("SharePod")
    summary = {
        "chaos_log": _chaos_log(engine),
        "promotions": [list(p) for p in ks.devmgr_group.promotions],
        "sched_promotions": [list(p) for p in ks.sched_group.promotions],
        "placements": [
            [sp.metadata.name, sp.status.phase.value, sp.spec.gpu_id, sp.status.pod_name]
            for sp in sharepods
        ],
        "pods": sorted(p.name for p in cluster.api.list("Pod")),
        "obs_sha256": obs_digest,
    }
    return summary, env.now, sharepods


def _unplaced(sharepods) -> int:
    return sum(
        1
        for sp in sharepods
        if sp.status.phase is PodPhase.FAILED or sp.spec.node_name is None
    )


def _churn(inputs: Dict[str, Any]) -> Episode:
    chaos, chaos_s, chaos_sps, pre, post = _chaos(inputs["chaos"])
    failover, failover_s, failover_sps = _failover(inputs["failover"])
    sharepods = chaos_sps + failover_sps
    expected = len(inputs["chaos"]["pods"]) + len(inputs["failover"]["steady"]) + len(
        inputs["failover"]["burst"]
    )
    problems = check_sharepods(chaos_sps) + check_sharepods(failover_sps)
    if len(sharepods) != expected:
        problems.append(f"{len(sharepods)} SharePods listed, {expected} submitted")
    return Episode(
        {"chaos": chaos, "failover": failover},
        chaos_s + failover_s,
        expected,
        _unplaced(sharepods) + max(0, expected - len(sharepods)),
        problems,
        {"recovery_ratio": (post / pre, "x")},
    )


_RUNNERS: Dict[str, Callable[[Dict[str, Any]], Episode]] = {
    "fig8_throughput": _fig8,
    "churn_obs": _churn,
    "borg_scale": _borg,
}


def run_episode(workload: str, inputs: Dict[str, Any]) -> Episode:
    """Run one episode of *workload* on *inputs* from a clean slate."""
    reset_all()
    episode = _RUNNERS[workload](inputs)
    if episode.submitted:
        episode.modelled["failed_frac"] = (episode.failed / episode.submitted, "frac")
    return episode
