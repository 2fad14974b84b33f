"""Multi-tenant policy objects: Namespace quotas and PriorityClasses.

Two cluster-operator-owned kinds, stored through the apiserver like any
other object (the operator pattern — KubeShare's control plane is not
modified, it just watches more kinds):

* ``Namespace`` — a tenant. Its spec carries a GPU-time quota: the
  maximum *concurrent* sum of ``gpu_request`` across the tenant's
  non-terminal SharePods. Because the token backend guarantees each
  admitted container exactly its ``gpu_request`` share of kernel time in
  the sliding window, bounding the concurrent request sum by ``Q`` bounds
  the tenant's granted GPU-time in *any* window ``W`` by ``Q × W`` — the
  fairness invariant the quota property test checks.
* ``PriorityClass`` — a named integer priority, exactly like Kubernetes'
  ``scheduling.k8s.io/v1``. SharePods reference one by name; unknown or
  absent classes resolve to priority 0, and best-effort SharePods sit
  below every class (see :mod:`repro.policy.preemption`).

The module also owns the ``policy.kubeshare/*`` annotation vocabulary the
controllers coordinate through. Eviction state lives in annotations on
the SharePod itself — *not* in controller memory — so a controller crash
mid-preemption loses nothing: the promoted leader re-reads the
annotations and resumes the drain where its predecessor left off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster.objects import ObjectMeta

__all__ = [
    "Namespace",
    "NamespaceSpec",
    "PriorityClass",
    "PriorityClassSpec",
    "PolicyError",
    "ANN_QUEUED",
    "ANN_EVICT",
    "ANN_EVICT_DEADLINE",
    "ANN_EVICTED_BY",
    "ANN_REQUEUE_AFTER",
    "ANN_REQUEUE_COUNT",
    "ANN_TTL",
]

# -- the policy.kubeshare/* annotation vocabulary ---------------------------
#: SharePod parked by quota admission; the scheduler skips it until the
#: quota controller removes the annotation (value: human-readable reason).
ANN_QUEUED = "policy.kubeshare/queued"
#: eviction requested; value is the reason. DevMgr starts the drain.
ANN_EVICT = "policy.kubeshare/evict"
#: virtual-time deadline of the drain window (``repr(float)``); at the
#: deadline DevMgr forces teardown.
ANN_EVICT_DEADLINE = "policy.kubeshare/evict-deadline"
#: who requested the eviction: the preemptor SharePod's key, or "reaper".
ANN_EVICTED_BY = "policy.kubeshare/evicted-by"
#: virtual time before which the scheduler must not re-place this SharePod
#: (requeue backoff after an eviction, ``repr(float)``).
ANN_REQUEUE_AFTER = "policy.kubeshare/requeue-after"
#: how many times this SharePod has been evicted (drives the backoff).
ANN_REQUEUE_COUNT = "policy.kubeshare/requeue-count"
#: per-SharePod lifetime override in seconds (see the reaper).
ANN_TTL = "policy.kubeshare/ttl"


class PolicyError(ValueError):
    """A policy object fails validation."""


@dataclass
class NamespaceSpec:
    """Tenant policy for one namespace."""

    #: maximum concurrent sum of ``gpu_request`` over the namespace's
    #: non-terminal, non-queued SharePods, in GPUs. ``None`` = unlimited.
    gpu_quota: Optional[float] = None
    #: what admission does with a SharePod that would exceed the quota:
    #: ``"queue"`` — park it (annotation) until capacity frees;
    #: ``"reject"`` — refuse the create with :class:`AdmissionDenied`.
    on_exceeded: str = "queue"
    #: default SharePod lifetime for the reaper, seconds (``None`` = no
    #: namespace-level lifetime; the reaper's own default still applies).
    sharepod_ttl: Optional[float] = None

    def validate(self) -> None:
        if self.gpu_quota is not None and self.gpu_quota < 0:
            raise PolicyError(f"gpu_quota must be >= 0, got {self.gpu_quota}")
        if self.on_exceeded not in ("queue", "reject"):
            raise PolicyError(
                f"on_exceeded must be 'queue' or 'reject', got {self.on_exceeded!r}"
            )
        if self.sharepod_ttl is not None and self.sharepod_ttl <= 0:
            raise PolicyError(
                f"sharepod_ttl must be positive, got {self.sharepod_ttl}"
            )


@dataclass
class Namespace:
    """A tenant, stored through the apiserver (name = the namespace)."""

    metadata: ObjectMeta
    spec: NamespaceSpec = field(default_factory=NamespaceSpec)

    kind = "Namespace"

    @property
    def name(self) -> str:
        return self.metadata.name

    def clone(self) -> "Namespace":
        return Namespace(
            metadata=self.metadata.clone(),
            spec=NamespaceSpec(
                gpu_quota=self.spec.gpu_quota,
                on_exceeded=self.spec.on_exceeded,
                sharepod_ttl=self.spec.sharepod_ttl,
            ),
        )

    @classmethod
    def make(
        cls,
        name: str,
        gpu_quota: Optional[float] = None,
        on_exceeded: str = "queue",
        sharepod_ttl: Optional[float] = None,
    ) -> "Namespace":
        spec = NamespaceSpec(
            gpu_quota=gpu_quota, on_exceeded=on_exceeded, sharepod_ttl=sharepod_ttl
        )
        spec.validate()
        return cls(metadata=ObjectMeta(name=name), spec=spec)


@dataclass
class PriorityClassSpec:
    """A named scheduling priority."""

    value: int = 0
    #: whether SharePods of this class may preempt lower-priority ones.
    preempting: bool = True

    def validate(self) -> None:
        if not isinstance(self.value, int):
            raise PolicyError(f"priority value must be an int, got {self.value!r}")


@dataclass
class PriorityClass:
    """The PriorityClass object stored in the apiserver."""

    metadata: ObjectMeta
    spec: PriorityClassSpec = field(default_factory=PriorityClassSpec)

    kind = "PriorityClass"

    @property
    def name(self) -> str:
        return self.metadata.name

    def clone(self) -> "PriorityClass":
        return PriorityClass(
            metadata=self.metadata.clone(),
            spec=PriorityClassSpec(
                value=self.spec.value, preempting=self.spec.preempting
            ),
        )

    @classmethod
    def make(cls, name: str, value: int, preempting: bool = True) -> "PriorityClass":
        spec = PriorityClassSpec(value=value, preempting=preempting)
        spec.validate()
        return cls(metadata=ObjectMeta(name=name), spec=spec)
