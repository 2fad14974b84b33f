"""Property-based tests for the control-plane data structures."""
# repro-lint: disable=RPR004 - hypothesis drives the raw etcd API; blind puts are the generated ops

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.controller import WorkQueue
from repro.cluster.etcd import CasFailure, Etcd, WatchEventType
from repro.sim import Environment

# -- etcd: replaying the watch stream reconstructs the final state ----------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete"]),
        st.sampled_from(["/a", "/b", "/c", "/d/e"]),
        st.integers(0, 100),
    ),
    max_size=60,
)


class TestEtcdProperties:
    @given(ops=ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_watch_stream_replays_to_final_state(self, ops):
        env = Environment()
        etcd = Etcd(env)
        watch = etcd.watch("")
        for op, key, value in ops:
            if op == "put":
                etcd.put(key, value)
            else:
                etcd.delete(key)
        replayed = {}
        for ev in watch.events.items:
            if ev.type is WatchEventType.PUT:
                replayed[ev.kv.key] = ev.kv.value
            else:
                replayed.pop(ev.kv.key, None)
        actual = {kv.key: kv.value for kv in etcd.range("")}
        assert replayed == actual

    @given(ops=ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_revisions_strictly_increase(self, ops):
        env = Environment()
        etcd = Etcd(env)
        watch = etcd.watch("")
        for op, key, value in ops:
            if op == "put":
                etcd.put(key, value)
            else:
                etcd.delete(key)
        revisions = [ev.kv.mod_revision for ev in watch.events.items]
        assert revisions == sorted(set(revisions))


# -- etcd: prefix reads equal a brute-force sort + startswith ----------------

# Keys that share prefixes without sharing a kind: "/registry/Pod/a" is a
# prefix of "/registry/Pod/a-1", and "/registry/Pod" of "/registry/PodX/a".
_SHARED_PREFIX_KEYS = [
    "/registry/Pod/a",
    "/registry/Pod/a-1",
    "/registry/Pod/ab/x",
    "/registry/PodX/a",
    "/n",
]
# Every prefix of every key (kind boundaries or not, "" included), plus
# prefixes that sort before, between and after all keys.
_PREFIXES = sorted(
    {k[:i] for k in _SHARED_PREFIX_KEYS for i in range(len(k) + 1)}
    | {"/registry/Pod/a0", "/registry/Q", "/m", "/o", "~"}
)

etcd_write_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put_if", "put_if_stale", "delete"]),
        st.sampled_from(_SHARED_PREFIX_KEYS),
        st.integers(0, 100),
    ),
    max_size=60,
)


def _indexed_read(etcd, prefix):
    """The three prefix reads, which all walk the sorted key index."""
    got = [(kv.key, kv.value) for kv in etcd.range(prefix)]
    assert [(kv.key, kv.value) for kv in etcd.snapshot(prefix)] == got
    assert list(etcd.keys(prefix)) == [k for k, _ in got]
    return got


def _sorted_scan(etcd, prefix):
    """The index-free read: sort the stored keyspace, keep the matches."""
    data = etcd._data
    return [(k, data[k].value) for k in sorted(data) if k.startswith(prefix)]


class TestEtcdPrefixIndex:
    # ``fast`` reads through the key index; ``reference`` sorts the stored
    # keyspace, so it checks the committed data on its own and an index
    # bug cannot hide behind a matching write bug.
    @pytest.mark.parametrize("read", [_indexed_read, _sorted_scan], ids=["fast", "reference"])
    @given(ops=etcd_write_ops)
    @settings(max_examples=150, deadline=None)
    def test_prefix_reads_match_brute_force(self, read, ops):
        etcd = Etcd(Environment())
        model = {}
        for op, key, value in ops:
            if op == "put":
                etcd.put(key, value)
                model[key] = value
            elif op == "delete":
                etcd.delete(key)
                model.pop(key, None)
            else:
                kv = etcd.get(key)
                current = kv.mod_revision if kv is not None else 0
                # A stale revision must fail and leave the index alone.
                expected = current + 1 if op == "put_if_stale" else current
                try:
                    etcd.put_if(key, value, mod_revision=expected)
                except CasFailure:
                    assert op == "put_if_stale"
                else:
                    assert op == "put_if"
                    model[key] = value
            for p in _PREFIXES:
                want = [(k, model[k]) for k in sorted(model) if k.startswith(p)]
                assert read(etcd, p) == want
        assert list(etcd.keys()) == sorted(model)
        assert len(etcd) == len(model)


# -- etcd: prefix-grouped fan-out delivers in registration order -------------

# "" overlaps every other prefix, "/pods/" overlaps "/pods/a", and one
# prefix drawn twice gives duplicate watches in one group.
_WATCH_PREFIXES = ["", "/pods/", "/pods/a", "/nodes/"]
_WATCH_KEYS = ["/pods/a", "/pods/ab", "/pods/b", "/nodes/n1", "/x"]

fanout_ops = st.lists(
    st.one_of(
        st.tuples(st.just("watch"), st.sampled_from(_WATCH_PREFIXES)),
        st.tuples(
            st.sampled_from(["cancel", "close", "unwatch"]), st.integers(0, 5)
        ),
        st.tuples(st.sampled_from(["put", "delete"]), st.sampled_from(_WATCH_KEYS)),
    ),
    max_size=50,
)


def _watch(etcd, prefix, log):
    """A watch, fanned out by the store's per-prefix groups."""
    w = etcd.watch(prefix)
    offer = w.events.offer

    def offer_and_log(event):
        log(event)
        return offer(event)

    w.events.offer = offer_and_log
    return w


class _Listener:
    """A synchronous listener with a watch's face. The store reaches its
    listeners by scanning them one by one in registration order."""

    def __init__(self, etcd, prefix, log):
        self.prefix = prefix
        self.cancelled = False
        self._etcd = etcd
        self._fn = etcd.add_listener(prefix, log)

    def cancel(self):
        self.cancelled = True
        self._etcd.remove_listener(self._fn)

    close = cancel


class TestEtcdFanOut:
    # ``fast`` subscribes through watches (prefix groups merged by
    # registration seq); ``reference`` subscribes the same prefixes as
    # listeners, which the store delivers by a plain registration-order
    # scan. Both must match the scan over every subscription ever made.
    @pytest.mark.parametrize("subscribe", [_watch, _Listener], ids=["fast", "reference"])
    @given(ops=fanout_ops)
    @example(ops=[  # cancel() without close(), then a re-watch of its prefix
        ("watch", ""), ("watch", "/pods/"), ("watch", "/pods/"), ("cancel", 1),
        ("put", "/pods/a"), ("watch", "/pods/"), ("close", 0), ("put", "/pods/b"),
    ])
    @settings(max_examples=150, deadline=None)
    def test_delivery_matches_registration_order_scan(self, subscribe, ops):
        etcd = Etcd(Environment())
        registered = []  # every subscription ever made, in registration order
        delivered = []  # (subscription index, revision) in offer order

        def recording(i):
            return lambda event: delivered.append((i, event.kv.mod_revision))

        for op, arg in ops:
            if op == "watch":
                registered.append(subscribe(etcd, arg, recording(len(registered))))
                continue
            if op in ("cancel", "close", "unwatch"):
                if arg < len(registered):
                    w = registered[arg]
                    if op == "cancel":
                        w.cancel()
                    elif op == "close":
                        w.close()
                    elif subscribe is _watch:
                        etcd.unwatch(w)
                    else:  # a listener has one way out
                        w.cancel()
                continue
            before = etcd.revision
            if op == "put":
                etcd.put(arg, before)
            else:
                etcd.delete(arg)
            if etcd.revision == before:  # delete of an absent key
                continue
            want = [
                (i, etcd.revision)
                for i, w in enumerate(registered)
                if not w.cancelled and arg.startswith(w.prefix)
            ]
            assert delivered == want
            delivered.clear()
        live = [w for w in registered if not w.cancelled]
        if subscribe is _Listener:
            assert [p for p, _ in etcd._listeners] == [w.prefix for w in live]
            return
        # Cancelled watches may linger until a commit under their
        # prefix; every live one sits in its prefix's group, in order.
        grouped = {p: [w for w in g if not w.cancelled] for p, g in etcd._groups.items()}
        want = {}
        for w in live:
            want.setdefault(w.prefix, []).append(w)
        assert {p: g for p, g in grouped.items() if g} == want


# -- workqueue: no key is ever lost, and no key is double-processed -----------

queue_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "work"]),
        st.sampled_from(["k1", "k2", "k3"]),
    ),
    max_size=80,
)


class TestWorkQueueProperties:
    @given(ops=queue_ops)
    @settings(max_examples=200, deadline=None)
    def test_every_added_key_eventually_processed(self, ops):
        env = Environment()
        queue = WorkQueue(env)
        added = set()
        processed = []

        def worker():
            while True:
                key = yield queue.get()
                queue.checkout(key)
                processed.append(key)
                yield env.timeout(0.01)
                queue.done(key)

        env.process(worker())
        adds = [(i * 0.005, key) for i, (op, key) in enumerate(ops) if op == "add"]

        def driver():
            for at, key in adds:
                delay = at - env.now
                if delay > 0:
                    yield env.timeout(delay)
                queue.add(key)
                added.add(key)

        env.process(driver())
        env.run(until=10.0)
        assert added <= set(processed)

    @given(keys=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_no_concurrent_processing_of_same_key(self, keys):
        env = Environment()
        queue = WorkQueue(env)
        inflight = set()

        def worker():
            while True:
                key = yield queue.get()
                queue.checkout(key)
                assert key not in inflight, "double-processing!"
                inflight.add(key)
                yield env.timeout(0.05)
                inflight.discard(key)
                queue.done(key)

        env.process(worker())
        env.process(worker())  # two workers

        def driver():
            for key in keys:
                queue.add(key)
                yield env.timeout(0.01)

        env.process(driver())
        env.run(until=5.0)
