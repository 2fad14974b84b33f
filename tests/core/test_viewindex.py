"""Property: the device-view index serves exactly what a relist would.

KubeShare-Sched reads Algorithm 1's inputs from the commit-invalidated
:class:`~repro.core.viewindex.DeviceViewIndex` instead of relisting the
apiserver on every pass. Over random histories of SharePod create, bind,
terminate and delete, placeholder and plain Pods, Node readiness and (in
the shared-pool wiring) pool membership, every cached read must equal a
brute force over ``api.list``: the device views field for field and in
order, the pool, the SharePod count, the assigned GPUIDs and the GPU
capacity of Ready nodes. Both wirings are covered: the classic shared
in-process pool and the HA wiring (``pool=None``), whose pool is derived
from placeholder pods.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.apiserver import AlreadyExists, APIServer
from repro.cluster.objects import (
    GPU_RESOURCE,
    Node,
    NodeStatus,
    ObjectMeta,
    Pod,
    PodPhase,
    PodSpec,
)
from repro.core.scheduler import build_device_views
from repro.core.sharepod import SharePod, SharePodSpec
from repro.core.viewindex import DeviceViewIndex
from repro.core.vgpu import PLACEHOLDER_PREFIX, VGPU, VGPUPool, placeholder_gpuid
from repro.sim import Environment

_TERMINAL = (PodPhase.SUCCEEDED, PodPhase.FAILED)

NAMES = [f"sp{i}" for i in range(5)]
GPUIDS = [f"vgpu-{c}" for c in "abcd"]
NODES = ["n0", "n1"]
LABELS = [None, "blue", "red"]
REQUESTS = [0.1, 0.25, 0.5]

OPS = [
    "create", "bind", "unbind", "terminate", "delete",
    "holder", "unholder", "plain_pod", "ready",
    "pool_add", "pool_remove", "tick", "read",
]

histories = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 4), st.integers(0, 4)),
    max_size=40,
)


def _exists(api, kind, name):
    return api.get(kind, name) is not None


def _apply(api, env, pool, op, i, j):
    name = NAMES[i]
    gpuid = GPUIDS[j % len(GPUIDS)]
    node = NODES[j % len(NODES)]
    if op == "create" and not _exists(api, "SharePod", name):
        api.create(SharePod(
            metadata=ObjectMeta(name=name),
            spec=SharePodSpec(
                gpu_request=REQUESTS[j % len(REQUESTS)],
                gpu_mem=REQUESTS[i % len(REQUESTS)],
                sched_affinity=LABELS[j % len(LABELS)],
                sched_anti_affinity=LABELS[i % len(LABELS)],
                sched_exclusion=LABELS[(i + j) % len(LABELS)],
            ),
        ))
    elif op in ("bind", "unbind") and _exists(api, "SharePod", name):
        def place(sp):
            sp.spec.gpu_id = gpuid if op == "bind" else None
            sp.spec.node_name = node if op == "bind" else None

        api.patch("SharePod", name, place)
    elif op == "terminate" and _exists(api, "SharePod", name):
        phase = _TERMINAL[j % 2]
        api.patch("SharePod", name, lambda sp: setattr(sp.status, "phase", phase))
    elif op == "delete":
        api.try_delete("SharePod", name)
    elif op in ("holder", "plain_pod"):
        pod_name = PLACEHOLDER_PREFIX + gpuid if op == "holder" else f"web-{i}"
        try:
            api.create(Pod(metadata=ObjectMeta(name=pod_name), spec=PodSpec(node_name=node)))
        except AlreadyExists:
            pass
    elif op == "unholder":
        api.try_delete("Pod", PLACEHOLDER_PREFIX + gpuid)
    elif op == "ready":
        ready = bool(i % 2)
        api.patch(
            "Node", node, lambda n: setattr(n.status, "ready", ready), namespace=""
        )
    elif op == "pool_add" and pool is not None and gpuid not in pool:
        pool.add(VGPU(gpuid=gpuid))
    elif op == "pool_remove" and pool is not None:
        pool.remove(gpuid)
    elif op == "tick":
        env.run(until=env.now + 1.0)  # later creation_time stamps


def _relisted_pool(api, pool):
    """The pool a relisting scheduler would use (HA: from placeholders)."""
    if pool is not None:
        return pool
    view = VGPUPool()
    for pod in api.list("Pod"):
        if pod.name.startswith(PLACEHOLDER_PREFIX):
            vgpu = VGPU(
                gpuid=placeholder_gpuid(pod.name),
                created_at=pod.metadata.creation_time,
            )
            vgpu.placeholder_pod = pod.name
            vgpu.node_name = pod.spec.node_name
            view.add(vgpu)
    return view


def _check(index, api, pool):
    sharepods = api.list("SharePod")
    want_pool = _relisted_pool(api, pool)
    devices = index.device_views()
    assert devices == build_device_views(want_pool, sharepods)
    got_pool = index.pool_view()
    if pool is not None:
        assert got_pool is pool
    else:
        assert got_pool.list() == want_pool.list()
    assert index.sharepod_count() == len(sharepods)
    assert index.assigned_gpuids() == {
        sp.spec.gpu_id
        for sp in sharepods
        if sp.spec.gpu_id is not None and sp.status.phase not in _TERMINAL
    }
    assert index.gpu_capacity() == int(sum(
        n.status.capacity.get(GPU_RESOURCE, 0.0)
        for n in api.list("Node")
        if n.status.ready
    ))
    # Algorithm 1 mutates the views it is handed; the cache must not see it.
    for d in devices:
        d.util -= 0.5
        d.aff.add("mutated")
        d.idle = False


@pytest.mark.parametrize("shared_pool", [True, False], ids=["shared-pool", "ha"])
@given(ops=histories)
@settings(max_examples=150, deadline=None)
def test_index_matches_brute_force_relist(shared_pool, ops):
    env = Environment()
    api = APIServer(env)
    api.register_crd("SharePod")
    for name in NODES:
        api.create(Node(
            metadata=ObjectMeta(name=name, namespace=""),
            status=NodeStatus(capacity={GPU_RESOURCE: 2.0}),
        ))
    pool = VGPUPool() if shared_pool else None
    index = DeviceViewIndex(api, pool)
    try:
        _check(index, api, pool)
        for op, i, j in ops:
            if op == "read":
                _check(index, api, pool)
            else:
                _apply(api, env, pool, op, i, j)
        _check(index, api, pool)
        _check(index, api, pool)  # a cache hit right after a refresh
    finally:
        index.close()
