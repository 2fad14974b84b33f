"""Node lifecycle controller: lease monitoring + pod eviction.

The control-plane half of node health. Kubelets renew a lease
(``node.status.last_heartbeat``) every ``heartbeat_interval``; this
controller marks a node ``NotReady`` once the lease goes stale past
``lease_duration`` and evicts (deletes) the pods bound to it so their
owners — the scheduler for plain pods, KubeShare-Sched/DevMgr for
SharePods — can replace them on surviving nodes.

One production subtlety is modelled because chaos runs hit it
immediately: when *most* leases look stale at once, the likely culprit is
the control plane's own view (an apiserver outage ate the heartbeats),
not a simultaneous failure of half the fleet. Like kube-controller-
manager's large-cluster eviction rate limiting, the controller then
marks nodes NotReady but *pauses eviction* until the quorum of leases
looks fresh again.
"""

from __future__ import annotations

from typing import Generator, List

from ..obs import runtime as obs
from ..sim import Environment
from .apiserver import APIServer, Conflict, NotFound, ServiceUnavailable
from .objects import Node, Pod, PodPhase

__all__ = ["NodeLifecycleController"]


class NodeLifecycleController:
    """Watches node leases; marks stale nodes NotReady and evicts their pods."""

    def __init__(
        self,
        env: Environment,
        api: APIServer,
        lease_duration: float = 4.0,
        monitor_interval: float = 0.5,
        eviction_pause_fraction: float = 0.55,
    ) -> None:
        self.env = env
        self.api = api
        self.lease_duration = lease_duration
        self.monitor_interval = monitor_interval
        #: if more than this fraction of nodes is stale simultaneously,
        #: suspect the control plane and hold evictions.
        self.eviction_pause_fraction = eviction_pause_fraction
        self.not_ready_total = 0
        self.evictions_total = 0
        self.evicted_pods_total = 0
        #: node names whose pods were already evicted this NotReady spell.
        self._evicted: set[str] = set()
        self._proc = None

    def start(self) -> "NodeLifecycleController":
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="node-lifecycle")
        return self

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.kill()
        self._proc = None

    # -- monitor loop ------------------------------------------------------
    def _run(self) -> Generator:
        while True:
            yield self.env.timeout(self.monitor_interval)
            try:
                # Read-only scan: every write below re-reads through _mark.
                nodes = self.api.peek_list("Node")
            except ServiceUnavailable:
                continue
            stale: List[Node] = []
            fresh: List[Node] = []
            for n in nodes:
                (stale if self._is_stale(n) else fresh).append(n)
            quorum_lost = (
                len(nodes) > 1
                and len(stale) / len(nodes) >= self.eviction_pause_fraction
            )
            for node in stale:
                self._mark(node.name, ready=False)
                if not quorum_lost and node.name not in self._evicted:
                    self._evicted.add(node.name)
                    self.evictions_total += 1
                    self._evict_pods(node.name)
            for node in fresh:
                if not node.status.ready:
                    self._mark(node.name, ready=True)
                self._evicted.discard(node.name)

    def _is_stale(self, node: Node) -> bool:
        seen = node.status.last_heartbeat
        if seen is None:
            # Registered before heartbeats existed; age by creation time.
            seen = node.metadata.creation_time or 0.0
        return (self.env.now - seen) > self.lease_duration

    def _mark(self, node_name: str, ready: bool) -> None:
        def mutate(n: Node) -> None:
            n.status.ready = ready

        try:
            current = self.api.get("Node", node_name, namespace="")
            if current is None or current.status.ready == ready:
                return
            self.api.patch("Node", node_name, mutate, namespace="")
            if not ready:
                self.not_ready_total += 1
            obs.event(
                "NodeReady" if ready else "NodeNotReady",
                "heartbeat fresh again"
                if ready
                else f"no heartbeat for more than {self.lease_duration}s",
                involved_kind="Node",
                involved_name=node_name,
                involved_namespace="",
                type="Normal" if ready else "Warning",
                source="node-lifecycle",
            )
        except (NotFound, ServiceUnavailable, Conflict):
            pass

    def _evict_pods(self, node_name: str) -> None:
        """Delete every non-terminal pod bound to the dead node."""
        try:
            pods: List[Pod] = self.api.pods()
        except ServiceUnavailable:
            # Retry next tick: drop the evicted marker so we come back.
            self._evicted.discard(node_name)
            return
        for pod in pods:
            if pod.spec.node_name != node_name:
                continue
            if pod.status.phase in (PodPhase.SUCCEEDED, PodPhase.FAILED):
                continue
            try:
                self.api.delete("Pod", pod.name, pod.metadata.namespace)
                self.evicted_pods_total += 1
                obs.event(
                    "Evicted",
                    f"node {node_name} is NotReady",
                    involved_kind="Pod",
                    involved_name=pod.name,
                    involved_namespace=pod.metadata.namespace,
                    type="Warning",
                    source="node-lifecycle",
                )
            except (NotFound, ServiceUnavailable):
                pass
