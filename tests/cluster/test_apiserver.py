"""Unit tests for the API server (CRUD, optimistic concurrency, watches)."""
# repro-lint: disable=RPR004 - update/Conflict semantics are the test subject

import pytest

from repro.cluster.apiserver import (
    AlreadyExists,
    APIServer,
    Conflict,
    NotFound,
    ServiceUnavailable,
    UnknownKind,
    translate_event,
)
from repro.cluster.etcd import WatchEventType
from repro.cluster.objects import LabelSelector, Node, ObjectMeta, Pod, PodPhase
from repro.sim import Environment


@pytest.fixture
def api():
    return APIServer(Environment())


def make_pod(name, labels=None, namespace="default"):
    return Pod(metadata=ObjectMeta(name=name, namespace=namespace, labels=labels or {}))


class TestCrud:
    def test_create_returns_stored_copy_with_rv(self, api):
        stored = api.create(make_pod("p1"))
        assert stored.metadata.resource_version > 0
        assert stored.metadata.creation_time == 0.0

    def test_create_duplicate_raises(self, api):
        api.create(make_pod("p1"))
        with pytest.raises(AlreadyExists):
            api.create(make_pod("p1"))

    def test_get_returns_clone(self, api):
        api.create(make_pod("p1", labels={"k": "v"}))
        a = api.get("Pod", "p1")
        a.metadata.labels["k"] = "mutated"
        b = api.get("Pod", "p1")
        assert b.metadata.labels["k"] == "v"

    def test_get_missing_returns_none(self, api):
        assert api.get("Pod", "ghost") is None

    def test_unknown_kind_rejected(self, api):
        with pytest.raises(UnknownKind):
            api.get("Widget", "w")

    def test_register_crd_enables_kind(self, api):
        api.register_crd("Widget")

        class Widget:
            kind = "Widget"

            def __init__(self, name):
                self.metadata = ObjectMeta(name=name)

        api.create(Widget("w1"))
        assert api.get("Widget", "w1") is not None

    def test_list_filters_namespace_and_selector(self, api):
        api.create(make_pod("a", labels={"app": "x"}))
        api.create(make_pod("b", labels={"app": "y"}))
        api.create(make_pod("c", labels={"app": "x"}, namespace="other"))
        assert {p.name for p in api.list("Pod")} == {"a", "b", "c"}
        assert {p.name for p in api.list("Pod", namespace="default")} == {"a", "b"}
        sel = LabelSelector({"app": "x"})
        assert {p.name for p in api.list("Pod", selector=sel)} == {"a", "c"}

    def test_update_bumps_resource_version(self, api):
        api.create(make_pod("p1"))
        obj = api.get("Pod", "p1")
        obj.status.phase = PodPhase.RUNNING
        updated = api.update(obj)
        assert updated.metadata.resource_version > obj.metadata.resource_version
        assert api.get("Pod", "p1").status.phase is PodPhase.RUNNING

    def test_update_with_stale_rv_conflicts(self, api):
        api.create(make_pod("p1"))
        stale = api.get("Pod", "p1")
        fresh = api.get("Pod", "p1")
        fresh.status.message = "first"
        api.update(fresh)
        stale.status.message = "second"
        with pytest.raises(Conflict):
            api.update(stale)

    def test_update_deleted_object_raises_notfound(self, api):
        api.create(make_pod("p1"))
        obj = api.get("Pod", "p1")
        api.delete("Pod", "p1")
        with pytest.raises(NotFound):
            api.update(obj)

    def test_patch_retries_through_conflicts(self, api):
        api.create(make_pod("p1"))
        api.patch("Pod", "p1", lambda p: setattr(p.status, "message", "patched"))
        assert api.get("Pod", "p1").status.message == "patched"

    def test_patch_missing_raises(self, api):
        with pytest.raises(NotFound):
            api.patch("Pod", "nope", lambda p: None)

    def test_delete_returns_last_value(self, api):
        api.create(make_pod("p1"))
        gone = api.delete("Pod", "p1")
        assert gone.name == "p1"
        with pytest.raises(NotFound):
            api.delete("Pod", "p1")

    def test_try_delete(self, api):
        api.create(make_pod("p1"))
        assert api.try_delete("Pod", "p1") is True
        assert api.try_delete("Pod", "p1") is False


class TestBind:
    def test_bind_sets_node_name(self, api):
        api.create(make_pod("p1"))
        api.bind("p1", "node-7")
        assert api.get("Pod", "p1").spec.node_name == "node-7"

    def test_double_bind_conflicts(self, api):
        api.create(make_pod("p1"))
        api.bind("p1", "node-1")
        with pytest.raises(Conflict):
            api.bind("p1", "node-2")


class TestPeekList:
    """``peek_list`` is ``list`` without the clones, gated like ``peek``."""

    def test_returns_the_stored_objects_with_final_rv(self, api):
        api.create(make_pod("p2"))
        api.create(make_pod("p1"))
        api.patch("Pod", "p1", lambda p: setattr(p.status, "message", "patched"))
        api.create(Node(metadata=ObjectMeta(name="n1", namespace="")))
        peeked = api.peek_list("Pod")
        stored = api.etcd.range("/registry/Pod/")
        assert len(peeked) == len(stored) == 2
        for obj, kv in zip(peeked, stored):
            assert obj is kv.value
            assert obj.metadata.resource_version == kv.mod_revision
        listed = api.list("Pod")
        assert [o.name for o in peeked] == [o.name for o in listed] == ["p1", "p2"]
        assert [o.metadata.resource_version for o in peeked] == [
            o.metadata.resource_version for o in listed
        ]
        assert peeked[0].status.message == "patched"

    def test_outage_raises_service_unavailable(self, api):
        api.create(make_pod("p1"))
        api.set_outage(5.0)
        with pytest.raises(ServiceUnavailable):
            api.peek("Pod", "p1")
        with pytest.raises(ServiceUnavailable):
            api.peek_list("Pod")
        api.env.run(until=5.0)
        assert [p.name for p in api.peek_list("Pod")] == ["p1"]

    def test_unknown_kind_rejected(self, api):
        with pytest.raises(UnknownKind):
            api.peek("Widget", "w")
        with pytest.raises(UnknownKind):
            api.peek_list("Widget")


class TestWatch:
    def test_watch_translates_objects(self):
        env = Environment()
        api = APIServer(env)
        events = []

        def watcher():
            stream = api.watch("Pod")
            while True:
                raw = yield stream.get()
                events.append(translate_event(raw))

        def writer():
            yield env.timeout(1)
            api.create(make_pod("p1"))
            api.patch("Pod", "p1", lambda p: setattr(p.status, "phase", PodPhase.RUNNING))
            api.delete("Pod", "p1")

        env.process(watcher())
        env.process(writer())
        env.run(until=3)
        kinds = [(etype, obj.name) for etype, obj in events]
        assert kinds == [
            (WatchEventType.PUT, "p1"),
            (WatchEventType.PUT, "p1"),
            (WatchEventType.DELETE, "p1"),
        ]
        assert events[1][1].status.phase is PodPhase.RUNNING
        # DELETE carries the last stored state.
        assert events[2][1].status.phase is PodPhase.RUNNING


class TestTranslateEvent:
    """Which deliveries share the stored object and which get a clone."""

    def test_put_returns_stored_object(self, api):
        stream = api.watch("Pod")
        api.create(make_pod("p1"))
        api.patch("Pod", "p1", lambda p: setattr(p.status, "phase", PodPhase.RUNNING))
        for raw in stream.events.items:
            etype, obj = translate_event(raw)
            assert etype is WatchEventType.PUT
            assert obj is raw.kv.value
            assert obj.metadata.resource_version == raw.kv.mod_revision
        assert obj is api.peek("Pod", "p1")

    def test_replay_returns_stored_object(self, api):
        api.create(make_pod("p1"))
        stream = api.watch("Pod", replay=True)
        (raw,) = stream.events.items
        _etype, obj = translate_event(raw)
        assert obj is api.peek("Pod", "p1")
        assert obj.metadata.resource_version == raw.kv.mod_revision

    def test_delete_shares_one_clone_with_delete_revision(self, api):
        first, second = api.watch("Pod"), api.watch("Pod")
        api.create(make_pod("p1"))
        stored = api.peek("Pod", "p1")
        api.delete("Pod", "p1")
        raw = first.events.items[-1]
        assert second.events.items[-1] is raw
        _etype, obj = translate_event(raw)
        assert translate_event(second.events.items[-1])[1] is obj
        assert obj is not stored
        assert obj.metadata.resource_version == raw.kv.mod_revision
        assert stored.metadata.resource_version < raw.kv.mod_revision

    def test_unstamped_blind_put_is_cloned(self, api):
        stream = api.watch("Pod")
        pod = make_pod("p1")
        api.etcd.put(api._obj_key(pod), pod)
        (raw,) = stream.events.items
        _etype, obj = translate_event(raw)
        assert obj is not pod
        assert obj.metadata.resource_version == raw.kv.mod_revision
        assert pod.metadata.resource_version == 0
        assert translate_event(raw)[1] is obj
