"""Common interface for GPU-sharing systems (Table 1's rows).

Every system under comparison — native Kubernetes, Deepomatic, Aliyun
gpushare, GaiaGPU, and KubeShare itself — is wrapped behind
:class:`SharingSystem` so the benchmark harness can run identical
workloads through each and compare throughput, utilization, and feature
coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence

from ..cluster.cluster import Cluster, ClusterConfig
from ..cluster.objects import PodPhase
from ..sim import Environment
from ..workloads.jobs import JobStats

__all__ = ["GPURequirements", "JobHandle", "SharingSystem", "FEATURE_NAMES"]

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)

#: Table 1 feature keys, in the paper's row order.
FEATURE_NAMES = (
    "multi_gpu_per_node",
    "fine_grained_allocation",
    "memory_isolation",
    "compute_isolation",
    "first_class_identity",
    "locality_constraints",
    "coexists_with_kube_scheduler",
)


@dataclass(frozen=True)
class GPURequirements:
    """A job's fractional GPU ask (KubeShare's vocabulary; baselines map it
    onto whatever subset they support)."""

    request: float
    limit: float
    mem: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.request <= self.limit <= 1.0:
            raise ValueError(
                f"need 0 <= request <= limit <= 1, got ({self.request}, {self.limit})"
            )
        if not 0.0 < self.mem <= 1.0:
            raise ValueError(f"mem must be in (0,1], got {self.mem}")


@dataclass
class JobHandle:
    """A submitted job: its API object identity plus collected stats."""

    name: str
    kind: str  # "Pod" or "SharePod"
    stats: JobStats
    namespace: str = "default"


class SharingSystem:
    """Base class for a GPU management system attached to a cluster."""

    name: str = "abstract"
    #: Table 1 flags; values are True/False/"limited".
    features: Dict[str, object] = {}

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.api = cluster.api
        self.handles: List[JobHandle] = []

    # -- cluster shape this system needs -----------------------------------
    @classmethod
    def make_cluster(cls, env: Optional[Environment] = None, **overrides) -> Cluster:
        """Build a cluster configured the way this system requires."""
        return Cluster(env, ClusterConfig(**overrides))

    def start(self) -> "SharingSystem":
        """Start any controllers this system adds. Default: none."""
        return self

    # -- job submission -------------------------------------------------------
    def submit(
        self,
        name: str,
        workload: Callable,
        requirements: GPURequirements,
        affinity: Optional[str] = None,
        anti_affinity: Optional[str] = None,
        exclusion: Optional[str] = None,
    ) -> JobHandle:
        raise NotImplementedError

    def _track(self, handle: JobHandle) -> JobHandle:
        handle.stats.submitted_at = self.env.now
        self.handles.append(handle)
        return handle

    # -- completion tracking -----------------------------------------------------
    def job_phase(self, handle: JobHandle) -> Optional[PodPhase]:
        # The poll loop only reads status.phase, so it probes the stored
        # object read-only instead of cloning a Pod per handle per poll
        # tick; outage (503) semantics are those of ``get``.
        obj = self.api.peek(handle.kind, handle.name, handle.namespace)
        return obj.status.phase if obj is not None else None

    def wait_all(
        self, handles: Optional[Sequence[JobHandle]] = None, poll: float = 0.5
    ) -> Generator:
        """Process helper: wait until every handle reached a terminal phase."""
        pending = list(handles if handles is not None else self.handles)
        while pending:
            still = []
            for h in pending:
                phase = self.job_phase(h)
                if phase is None or phase in _TERMINAL:
                    if phase is PodPhase.FAILED:
                        h.stats.failed = True
                else:
                    still.append(h)
            pending = still
            if pending:
                yield self.env.timeout(poll)

    def stats(self) -> List[JobStats]:
        return [h.stats for h in self.handles]
