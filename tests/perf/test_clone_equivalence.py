"""Every hand-written ``clone()`` must match a deepcopy of the object.

``apiserver._clone`` prefers an object's ``clone()`` method, and every
stored kind implements it with explicit field copies instead of
``copy.deepcopy``. These tests pin the contract against a deepcopy taken
here: identical field values, deep independence of every mutable field,
and the one deliberate exception — the workload factory is shared by
reference (the deepcopy oracle nulls it out around the copy for the same
reason: a factory may be a bound method of a stateful job).
"""

import copy

import pytest

from repro.cluster.controllers.deployment import Deployment
from repro.cluster.controllers.replicaset import ReplicaSet
from repro.cluster.leaderelection import Lease, LeaseSpec
from repro.cluster.objects import (
    ContainerSpec,
    LabelSelector,
    Node,
    NodeStatus,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
    PodStatus,
)
from repro.core.sharepod import SharePod, SharePodSpec, SharePodStatus
from repro.obs.kevents import EVENT_WARNING, KubeEvent
from repro.policy.objects import (
    Namespace,
    NamespaceSpec,
    PriorityClass,
    PriorityClassSpec,
)


def _workload(ctx):  # shared-by-reference sentinel
    yield None


def make_pod():
    return Pod(
        metadata=ObjectMeta(
            name="web-0",
            namespace="prod",
            labels={"app": "web"},
            annotations={"note": "x"},
            owner_references=["rs/web"],
        ),
        spec=PodSpec(
            containers=[
                ContainerSpec(name="main", image="img", requests={"cpu": 1.0})
            ],
            node_name="node0",
            node_selector={"zone": "a"},
            workload=_workload,
        ),
        status=PodStatus(
            phase=PodPhase.RUNNING,
            message="ok",
            start_time=1.5,
            container_env={"NVIDIA_VISIBLE_DEVICES": "GPU-0"},
        ),
    )


def make_node():
    return Node(
        metadata=ObjectMeta(name="node0", labels={"zone": "a"}),
        status=NodeStatus(
            capacity={"cpu": 8.0},
            allocatable={"cpu": 6.0},
            ready=True,
            last_heartbeat=12.0,
            unhealthy_gpus=["GPU-7"],
        ),
    )


def make_sharepod():
    return SharePod(
        metadata=ObjectMeta(name="sp0", labels={"tier": "inference"}),
        spec=SharePodSpec(
            pod_spec=PodSpec(workload=_workload),
            gpu_request=0.3,
            gpu_limit=0.6,
            gpu_mem=0.25,
            gpu_id="vgpu-1",
            node_name="node0",
            sched_affinity="blue",
            restart_policy="reschedule",
        ),
        status=SharePodStatus(
            phase=PodPhase.RUNNING,
            gpu_uuid="GPU-1",
            pod_name="vgpu-holder-1",
            start_time=3.0,
            scheduled_time=2.0,
        ),
    )


def make_lease():
    return Lease(
        metadata=ObjectMeta(name="kubeshare-sched", namespace="kube-system"),
        spec=LeaseSpec(
            holder="replica-0",
            lease_duration=3.0,
            acquire_time=1.0,
            renew_time=9.0,
            epoch=4,
        ),
    )


def make_deployment():
    return Deployment(
        metadata=ObjectMeta(name="web", owner_references=["team/a"]),
        replicas=3,
        selector=LabelSelector({"app": "web"}),
        template=PodSpec(
            containers=[ContainerSpec(name="main", image="img")],
            node_selector={"zone": "a"},
            workload=_workload,
        ),
        template_labels={"app": "web"},
        revision=2,
    )


def make_replicaset():
    return ReplicaSet(
        metadata=ObjectMeta(name="web-2", owner_references=["deployment/web"]),
        replicas=3,
        selector=LabelSelector({"app": "web", "rev": "2"}),
        template=PodSpec(workload=_workload),
        template_labels={"app": "web", "rev": "2"},
    )


def make_namespace():
    return Namespace(
        metadata=ObjectMeta(name="tenant-a", annotations={"owner": "a"}),
        spec=NamespaceSpec(gpu_quota=1.5, on_exceeded="reject", sharepod_ttl=60.0),
    )


def make_priorityclass():
    return PriorityClass(
        metadata=ObjectMeta(name="prod"),
        spec=PriorityClassSpec(value=100, preempting=False),
    )


def make_kubeevent():
    return KubeEvent(
        metadata=ObjectMeta(name="sp0.1", namespace="prod"),
        reason="FailedScheduling",
        message="unschedulable",
        type=EVENT_WARNING,
        involved_kind="SharePod",
        involved_namespace="prod",
        involved_name="sp0",
        source="kubeshare-sched",
        count=3,
        first_time=1.0,
        last_time=4.5,
    )


FACTORIES = [
    make_pod,
    make_node,
    make_sharepod,
    make_lease,
    make_deployment,
    make_replicaset,
    make_namespace,
    make_priorityclass,
    make_kubeevent,
]


def _factory_holder(obj):
    """The PodSpec carrying *obj*'s workload factory, if it has one."""
    if isinstance(obj, Pod):
        return obj.spec
    if isinstance(obj, SharePod):
        return obj.spec.pod_spec
    if isinstance(obj, (Deployment, ReplicaSet)):
        return obj.template
    return None


def deepcopy_clone(obj):
    """``copy.deepcopy`` with the workload factory nulled around the copy
    and then shared by reference."""
    holder = _factory_holder(obj)
    if holder is None:
        return copy.deepcopy(obj)
    workload, holder.workload = holder.workload, None
    try:
        dup = copy.deepcopy(obj)
    finally:
        holder.workload = workload
    _factory_holder(dup).workload = workload
    return dup


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__[5:])
def test_fast_clone_equals_deepcopy_clone(make):
    obj = make()
    fast = obj.clone()
    deep = deepcopy_clone(obj)
    # Dataclass repr covers every field recursively, so byte-equal reprs
    # mean field-equal objects (uid included: cloning must never draw a
    # fresh one).
    assert repr(fast) == repr(deep) == repr(obj)
    assert type(fast) is type(obj)
    assert fast is not obj


@pytest.mark.parametrize("make", FACTORIES, ids=lambda f: f.__name__[5:])
def test_fast_clone_is_deeply_independent(make):
    obj = make()
    dup = obj.clone()
    assert dup.metadata is not obj.metadata
    dup.metadata.labels["mutated"] = "yes"
    dup.metadata.owner_references.append("x")
    assert "mutated" not in obj.metadata.labels
    assert "x" not in obj.metadata.owner_references
    for attr in ("spec", "status", "template", "selector"):
        if hasattr(dup, attr):
            assert getattr(dup, attr) is not getattr(obj, attr)


def test_workload_factory_is_shared_by_reference():
    pod, sp = make_pod(), make_sharepod()
    dep, rs = make_deployment(), make_replicaset()
    assert pod.clone().spec.workload is _workload
    assert sp.clone().spec.pod_spec.workload is _workload
    assert dep.clone().template.workload is _workload
    assert rs.clone().template.workload is _workload
