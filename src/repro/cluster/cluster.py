"""Cluster assembly: build a whole simulated Kubernetes cluster in one call.

Reproduces the paper's testbed shape by default: 8 nodes of the AWS
``p3.8xlarge`` flavour — 36 vCPU, 244 GB RAM, 4 Tesla V100 (16 GB) each —
for 32 GPUs total (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence

from ..gpu.backend import TokenBackend
from ..gpu.swap import SwapManager
from ..gpu.device import GPUDevice, V100_MEMORY
from ..sim import Environment
from .apiserver import APIServer
from .deviceplugin import DeviceManager, NvidiaDevicePlugin, ScalingFactorGPUPlugin
from .etcd import Etcd
from .kubelet import Kubelet
from .leaderelection import HAControllerGroup
from .nodelifecycle import NodeLifecycleController
from .objects import Pod, PodPhase
from .runtime import ContainerRuntime, RuntimeLatency
from .scheduler import KubeScheduler

__all__ = ["ClusterConfig", "WorkerNode", "Cluster"]


@dataclass
class ClusterConfig:
    """Knobs for :class:`Cluster` construction (defaults = paper testbed)."""

    nodes: int = 8
    gpus_per_node: int = 4
    #: prepended to every node name ("alpha-" → "alpha-node00"); the
    #: federation tier sets this so member clusters' nodes (and therefore
    #: their GPUs, "GPU-<node>-<i>") have globally unique names.
    node_prefix: str = ""
    gpu_memory: int = V100_MEMORY
    cpu_per_node: float = 36.0
    memory_per_node: float = 244e9
    #: "nvidia" = stock whole-GPU plugin; "scaling" = ×factor slice plugin
    #: (used by the baseline sharing systems).
    device_plugin: str = "nvidia"
    scaling_factor: int = 100
    #: kubelet device-pick policy when no extender pinned the device.
    device_policy: str = "packed"
    runtime_latency: RuntimeLatency = field(default_factory=RuntimeLatency)
    #: token backend parameters (KubeShare's §4.5 defaults).
    token_quota: float = 0.100
    token_window: float = 2.5
    token_handoff: float = 0.0015
    contention_per_peer: float = 0.05
    scheduler_score: str = "least_allocated"
    #: node-health machinery (heartbeats + the lifecycle controller).
    heartbeat_interval: float = 1.0
    lease_duration: float = 4.0
    node_monitor_interval: float = 0.5
    #: disable to study what happens with *no* recovery machinery.
    node_lifecycle: bool = True
    #: >1 runs the lifecycle controller leader-elected with hot standbys
    #: (see repro.cluster.leaderelection); 1 keeps the classic single
    #: instance.
    node_lifecycle_replicas: int = 1
    #: election parameters for HA control-plane controllers.
    controller_lease_duration: float = 3.0
    controller_renew_interval: float = 0.5
    controller_retry_interval: float = 0.5


class WorkerNode:
    """Everything that lives on one simulated machine."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        name: str,
        config: ClusterConfig,
    ) -> None:
        self.env = env
        self.name = name
        self.gpus: List[GPUDevice] = [
            GPUDevice(
                env,
                uuid=f"GPU-{name}-{i}",
                node_name=name,
                memory=config.gpu_memory,
                contention_per_peer=config.contention_per_peer,
            )
            for i in range(config.gpus_per_node)
        ]
        uuids = [g.uuid for g in self.gpus]
        if config.device_plugin == "nvidia":
            plugin = NvidiaDevicePlugin(uuids)
        elif config.device_plugin == "scaling":
            plugin = ScalingFactorGPUPlugin(uuids, factor=config.scaling_factor)
        else:
            raise ValueError(f"unknown device_plugin {config.device_plugin!r}")
        self.device_manager = DeviceManager(policy=config.device_policy)
        self.device_manager.register(plugin)
        self.runtime = ContainerRuntime(env, name, latency=config.runtime_latency)
        self.backend = TokenBackend(
            env,
            quota=config.token_quota,
            window=config.token_window,
            handoff_overhead=config.token_handoff,
        )
        self.swap = SwapManager(env)
        self.kubelet = Kubelet(
            env,
            api,
            name,
            runtime=self.runtime,
            device_manager=self.device_manager,
            cpu=config.cpu_per_node,
            memory=config.memory_per_node,
            gpu_registry={g.uuid: g for g in self.gpus},
            node_services={
                TokenBackend.SERVICE_NAME: self.backend,
                SwapManager.SERVICE_NAME: self.swap,
            },
            heartbeat_interval=config.heartbeat_interval,
        )
        self.crashed = False

    def gpu(self, uuid: str) -> GPUDevice:
        for g in self.gpus:
            if g.uuid == uuid:
                return g
        raise KeyError(uuid)

    # -- failure & recovery -----------------------------------------------
    def crash(self) -> None:
        """The machine loses power: kubelet goes silent, every container
        dies, the token daemon's state evaporates."""
        if self.crashed:
            return
        self.crashed = True
        self.kubelet.crash()
        self.runtime.crash(reason=f"node {self.name} crashed")
        self.backend.restart()

    def restart(self) -> Generator:
        """Process: power the machine back on with empty runtime state."""
        if not self.crashed:
            return
        self.device_manager.reset_allocations()
        for gpu in self.gpus:
            if not gpu.failed:
                gpu.reset()
        self.crashed = False
        yield from self.kubelet.restart()


class Cluster:
    """A running simulated cluster: control plane + worker nodes."""

    def __init__(
        self, env: Optional[Environment] = None, config: Optional[ClusterConfig] = None
    ) -> None:
        self.env = env or Environment()
        self.config = config or ClusterConfig()
        self.etcd = Etcd(self.env)
        self.api = APIServer(self.env, self.etcd)
        self.scheduler = KubeScheduler(
            self.env, self.api, score=self.config.scheduler_score
        )
        self.nodes: List[WorkerNode] = [
            WorkerNode(
                self.env,
                self.api,
                f"{self.config.node_prefix}node{i:02d}",
                self.config,
            )
            for i in range(self.config.nodes)
        ]
        self.node_lifecycle: Optional[NodeLifecycleController] = None
        self.node_lifecycle_ha: Optional[HAControllerGroup] = None
        if self.config.node_lifecycle:
            if self.config.node_lifecycle_replicas > 1:
                cfg = self.config

                def nlc_factory(api) -> NodeLifecycleController:
                    return NodeLifecycleController(
                        self.env,
                        api,
                        lease_duration=cfg.lease_duration,
                        monitor_interval=cfg.node_monitor_interval,
                    )

                self.node_lifecycle_ha = HAControllerGroup(
                    self.env,
                    self.api,
                    "node-lifecycle",
                    nlc_factory,
                    replicas=cfg.node_lifecycle_replicas,
                    lease_duration=cfg.controller_lease_duration,
                    renew_interval=cfg.controller_renew_interval,
                    retry_interval=cfg.controller_retry_interval,
                )
            else:
                self.node_lifecycle = NodeLifecycleController(
                    self.env,
                    self.api,
                    lease_duration=self.config.lease_duration,
                    monitor_interval=self.config.node_monitor_interval,
                )
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Cluster":
        """Start scheduler and kubelets (registers Node objects)."""
        if not self._started:
            self.scheduler.start()
            if self.node_lifecycle is not None:
                self.node_lifecycle.start()
            if self.node_lifecycle_ha is not None:
                self.node_lifecycle_ha.start()
            for node in self.nodes:
                node.kubelet.start()
            self._started = True
        return self

    # -- views -----------------------------------------------------------------
    @property
    def gpus(self) -> List[GPUDevice]:
        return [g for node in self.nodes for g in node.gpus]

    def gpu_by_uuid(self, uuid: str) -> GPUDevice:
        for g in self.gpus:
            if g.uuid == uuid:
                return g
        raise KeyError(uuid)

    def node(self, name: str) -> WorkerNode:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    # -- pod helpers ---------------------------------------------------------------
    def submit(self, pod: Pod) -> Pod:
        return self.api.create(pod)

    def pod_phase(self, name: str, namespace: str = "default") -> Optional[PodPhase]:
        pod = self.api.get("Pod", name, namespace)
        return pod.status.phase if pod is not None else None

    def wait_for_phase(
        self,
        name: str,
        phases: Sequence[PodPhase],
        namespace: str = "default",
        poll: float = 0.05,
    ) -> Generator:
        """Process helper: wait until the named pod reaches one of *phases*.

        Returns the pod (or ``None`` if it was deleted).
        """
        # Probe the phase read-only per tick and clone only the pod
        # actually returned to the caller.
        while True:
            pod = self.api.peek("Pod", name, namespace)
            if pod is None:
                return None
            if pod.status.phase in phases:
                return self.api.get("Pod", name, namespace)
            yield self.env.timeout(poll)

    def wait_all_terminal(
        self, names: Sequence[str], namespace: str = "default", poll: float = 0.25
    ) -> Generator:
        """Process helper: wait until every named pod finished (or is gone)."""
        terminal = (PodPhase.SUCCEEDED, PodPhase.FAILED)
        pending = set(names)
        while pending:
            done = set()
            for name in sorted(pending):
                pod = self.api.peek("Pod", name, namespace)
                if pod is None or pod.status.phase in terminal:
                    done.add(name)
            pending -= done
            if pending:
                yield self.env.timeout(poll)
