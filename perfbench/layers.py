"""Per-layer tracing for the benchmark's traced runs.

:class:`LayerTrace` wraps the public functions of each layer (the
apiserver's verbs, etcd's store operations, Algorithm 1, the device-view
index, the GPU share solvers, the token backend's release, the obs
hooks, the trace parser and the arrival-flow scheduler) and installs a
dispatch hook on the sim kernel through
:func:`repro.sim.environment.set_profile_hook`. It records counts and
host time at those boundaries and removes every wrapper on
:meth:`LayerTrace.uninstall`.

Host times are inclusive: a layer's time contains the time of any other
layer it calls (an apiserver write contains its etcd commit and obs
hook). Within one layer only the outermost call is counted and timed, so
``patch`` counts as one write although it calls ``get`` and ``update``.

Only a traced run imports this module.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter
from typing import Any, Dict, List, Optional

__all__ = ["LayerTrace", "PER_LAYER", "ACTORS"]

#: actors reported by name: the first ``:`` segment of a process name.
ACTORS = (
    "workload",
    "token-backend",
    "kubelet-hb",
    "node-lifecycle",
    "default-scheduler",
    "kubeshare-sched",
    "kubeshare-devmgr",
    "informer",
    "slo-evaluator",
    "obs-sampler",
)

#: every per-layer metric a traced run emits, with its unit.
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "sim.dispatch_host_s": "s",
    "sim.kernel_self_host_s": "s",
    "workloads.trace_parse_host_s": "s",
    "workloads.flow_schedule_host_s": "s",
    "cluster.api_writes": "count",
    "cluster.api_write_host_s": "s",
    "cluster.api_reads": "count",
    "cluster.api_read_host_s": "s",
    "cluster.api_lists": "count",
    "cluster.api_list_host_s": "s",
    "cluster.api_conflicts": "count",
    "cluster.etcd_cas": "count",
    "cluster.etcd_cas_failures": "count",
    "cluster.etcd_host_s": "s",
    "core.algo1_passes": "count",
    "core.algo1_host_s": "s",
    "core.algo1_candidates_mean": "count",
    "core.viewindex_host_s": "s",
    "core.sched_useful_ratio": "frac",
    "core.devmgr_rescheduled": "count",
    "core.devmgr_torn_down": "count",
    "gpu.rebalances": "count",
    "gpu.rebalance_host_s": "s",
    "gpu.rebalance_numpy_frac": "frac",
    "gpu.token_grants": "count",
    "gpu.token_handoffs": "count",
    "gpu.token_release_host_s": "s",
    "obs.hook_calls": "count",
    "obs.hook_host_s": "s",
    "obs.snapshot_host_s": "s",
    **{f"actor.{name}.host_s": "s" for name in ACTORS},
    "actor.attributed_frac": "frac",
    "trace.overhead_x": "x",
}

#: obs runtime functions that are lifecycle or guards, not hooks.
_OBS_NOT_HOOKS = frozenset(
    {
        "current",
        "enabled",
        "enable",
        "disable",
        "install_from_env",
        "install_federation_from_env",
    }
)


def _obs_hooks(module) -> List[str]:
    """Names of the hook functions the other layers call on obs."""
    return sorted(
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
        and name not in _OBS_NOT_HOOKS
    )


class _Cell:
    """Count, host time and nesting depth of one traced boundary."""

    __slots__ = ("depth", "calls", "host_s")

    def __init__(self) -> None:
        self.depth = 0
        self.calls = 0
        self.host_s = 0.0


class _Dispatch:
    """The kernel dispatch hook: times each callback and attributes it to
    the process it resumes. Callbacks run in the original order and
    exceptions propagate unchanged.

    It keeps only the actor totals that the metrics need. The program's
    :class:`repro.obs.profile.WallProfiler` groups callbacks the same way
    but also builds a frame tuple per callback for its flamegraph, and
    that bookkeeping runs outside the timed callback, so it lands in
    ``sim.kernel_self_host_s``. On a 2-core Xeon, hooked alone, it made a
    ``fig8_throughput`` episode 1.30x slower and doubled the kernel's
    self time (0.20 s to 0.41 s); this hook costs 1.03x there and 1.08x
    on ``borg_scale`` (WallProfiler: 1.28x)."""

    def __init__(self, process_cls) -> None:
        self._process_cls = process_cls
        self.by_actor: Dict[str, float] = {}
        self.total_s = 0.0

    def dispatch(self, event, callbacks) -> None:
        for callback in callbacks:
            t0 = perf_counter()
            try:
                callback(event)
            finally:
                dt = perf_counter() - t0
                self.total_s += dt
                receiver = getattr(callback, "__self__", None)
                if isinstance(receiver, self._process_cls) and receiver.name:
                    actor = receiver.name.split(":", 1)[0]
                else:
                    actor = "kernel"
                self.by_actor[actor] = self.by_actor.get(actor, 0.0) + dt


class LayerTrace:
    """Wrap the layers' public functions for one episode."""

    def __init__(self) -> None:
        self._cells: Dict[str, _Cell] = {}
        self._patches: List[tuple] = []
        self._instances: Dict[str, List[Any]] = {}
        self._dispatch: Optional[_Dispatch] = None

    # -- wrappers --------------------------------------------------------
    def _cell(self, name: str) -> _Cell:
        return self._cells.setdefault(name, _Cell())

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _time(self, owner, attr: str, layer: str, on_call=None) -> None:
        """Count and time the outermost calls of ``owner.attr`` as *layer*."""
        original = getattr(owner, attr)
        cell = self._cell(layer)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if cell.depth:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            cell.depth += 1
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                cell.host_s += perf_counter() - t0
                cell.calls += 1
                cell.depth -= 1

        self._patch(owner, attr, timed)

    def _count_raises(self, owner, attr: str, exc, name: str) -> None:
        """Count every call of ``owner.attr`` that raises *exc*."""
        original = getattr(owner, attr)
        cell = self._cell(name)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except exc:
                cell.calls += 1
                raise

        self._patch(owner, attr, counted)

    def _record(self, cls, kind: str) -> None:
        """Remember every instance of *cls* built while installed."""
        original = cls.__init__
        sink = self._instances.setdefault(kind, [])

        @functools.wraps(original)
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            sink.append(self)

        self._patch(cls, "__init__", init)

    # -- install / uninstall ----------------------------------------------
    def install(self) -> "LayerTrace":
        from repro.cluster.apiserver import APIServer, Conflict
        from repro.cluster.etcd import CasFailure, Etcd
        from repro.core import scheduler as core_scheduler
        from repro.core.devmgr import KubeShareDevMgr
        from repro.core.viewindex import DeviceViewIndex
        from repro.gpu import device as gpu_device
        from repro.gpu.backend import TokenBackend
        from repro.obs import runtime as obs_runtime
        from repro.sim import environment as sim_env
        from repro.sim.process import Process
        from repro.workloads import trace as wtrace
        from repro.workloads.flows import FlowScheduler

        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        try:
            self._record(sim_env.Environment, "env")
            self._record(core_scheduler.KubeShareSched, "sched")
            self._record(KubeShareDevMgr, "devmgr")
            self._record(TokenBackend, "backend")
            self._time(sim_env.Environment, "run", "sim.run")

            self._count_raises(APIServer, "update", Conflict, "cluster.api_conflicts")
            for verb in ("create", "update", "patch", "delete", "bind"):
                self._time(APIServer, verb, "cluster.api_write")
            for verb in ("get", "peek"):
                self._time(APIServer, verb, "cluster.api_read")
            self._time(APIServer, "list", "cluster.api_list")
            self._count_raises(Etcd, "put_if", CasFailure, "cluster.etcd_cas_failures")
            self._time(Etcd, "put_if", "cluster.etcd_cas_timed")
            for op in ("get", "range", "snapshot", "put", "put_if", "delete"):
                self._time(Etcd, op, "cluster.etcd")

            candidates = self._cell("core.algo1_candidates")

            def count_candidates(args, kwargs) -> None:
                devices = args[1] if len(args) > 1 else kwargs["devices"]
                candidates.calls += len(devices)

            self._time(core_scheduler, "schedule_request", "core.algo1", count_candidates)
            for name in ("device_views", "pool_view"):
                self._time(DeviceViewIndex, name, "core.viewindex")

            self._time(gpu_device, "elastic_shares_py", "gpu.rebalance_py")
            self._time(gpu_device, "elastic_shares", "gpu.rebalance_numpy")
            self._time(TokenBackend, "release", "gpu.token_release")

            for name in _obs_hooks(obs_runtime):
                self._time(obs_runtime, name, "obs.hook")
            self._time(obs_runtime.ObsHub, "snapshot", "obs.snapshot")

            self._time(wtrace, "loads_trace", "workloads.trace_parse")
            self._time(FlowScheduler, "schedule", "workloads.flow_schedule")

            self._dispatch = _Dispatch(Process)
            sim_env.set_profile_hook(self._dispatch)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute and remove the dispatch hook."""
        from repro.sim import environment as sim_env

        if self._dispatch is not None:
            sim_env.set_profile_hook(None)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the traced episode. The run-level figures
        ``sim.host_us_per_event`` and ``trace.overhead_x`` need untraced
        episodes too and are filled in by the caller."""
        c = self._cell
        inst = self._instances
        events = sum(env.events_processed for env in inst.get("env", []))
        dispatch = self._dispatch.total_s if self._dispatch is not None else 0.0
        passes = c("core.algo1").calls
        scheduled = sum(s.scheduled_total for s in inst.get("sched", []))
        solves_py = c("gpu.rebalance_py").calls
        solves_np = c("gpu.rebalance_numpy").calls
        grants = handoffs = 0
        for backend in inst.get("backend", []):
            for uuid in backend.device_uuids():
                stats = backend.stats(uuid)
                grants += stats["grants"]
                handoffs += stats["handoffs"]
        by_actor = self._dispatch.by_actor if self._dispatch is not None else {}
        devmgrs = inst.get("devmgr", [])
        out = {
            "sim.events": events,
            "sim.dispatch_host_s": dispatch,
            "sim.kernel_self_host_s": c("sim.run").host_s - dispatch,
            "workloads.trace_parse_host_s": c("workloads.trace_parse").host_s,
            "workloads.flow_schedule_host_s": c("workloads.flow_schedule").host_s,
            "cluster.api_writes": c("cluster.api_write").calls,
            "cluster.api_write_host_s": c("cluster.api_write").host_s,
            "cluster.api_reads": c("cluster.api_read").calls,
            "cluster.api_read_host_s": c("cluster.api_read").host_s,
            "cluster.api_lists": c("cluster.api_list").calls,
            "cluster.api_list_host_s": c("cluster.api_list").host_s,
            "cluster.api_conflicts": c("cluster.api_conflicts").calls,
            "cluster.etcd_cas": c("cluster.etcd_cas_timed").calls,
            "cluster.etcd_cas_failures": c("cluster.etcd_cas_failures").calls,
            "cluster.etcd_host_s": c("cluster.etcd").host_s,
            "core.algo1_passes": passes,
            "core.algo1_host_s": c("core.algo1").host_s,
            "core.algo1_candidates_mean": (
                c("core.algo1_candidates").calls / passes if passes else 0.0
            ),
            "core.viewindex_host_s": c("core.viewindex").host_s,
            "core.sched_useful_ratio": scheduled / passes if passes else 0.0,
            "core.devmgr_rescheduled": sum(d.sharepods_rescheduled_total for d in devmgrs),
            "core.devmgr_torn_down": sum(d.vgpus_torn_down_total for d in devmgrs),
            "gpu.rebalances": solves_py + solves_np,
            "gpu.rebalance_host_s": (
                c("gpu.rebalance_py").host_s + c("gpu.rebalance_numpy").host_s
            ),
            "gpu.rebalance_numpy_frac": (
                solves_np / (solves_py + solves_np) if solves_py + solves_np else 0.0
            ),
            "gpu.token_grants": grants,
            "gpu.token_handoffs": handoffs,
            "gpu.token_release_host_s": c("gpu.token_release").host_s,
            "obs.hook_calls": c("obs.hook").calls,
            "obs.hook_host_s": c("obs.hook").host_s,
            "obs.snapshot_host_s": c("obs.snapshot").host_s,
        }
        for name in ACTORS:
            out[f"actor.{name}.host_s"] = by_actor.get(name, 0.0)
        named = sum(by_actor.get(name, 0.0) for name in ACTORS)
        out["actor.attributed_frac"] = named / dispatch if dispatch else 0.0
        return out
