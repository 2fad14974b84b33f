"""Unit tests for the Environment: clock, run(), determinism, queue order."""

from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EmptySchedule, Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=7.5).now == 7.5

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_reports_next_event_time(self, env):
        env.timeout(4)
        env.timeout(2)
        assert env.peek() == 2.0

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_time_stops_clock(self, env):
        def ticker(env):
            while True:
                yield env.timeout(1)

        env.process(ticker(env))
        env.run(until=10)
        assert env.now == 10.0

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(3)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 3.0

    def test_run_until_past_raises(self, env):
        env.process(iter_timeout(env, 5))
        env.run(until=4)
        with pytest.raises(ValueError):
            env.run(until=2)

    def test_run_until_never_triggered_event_raises(self, env):
        ev = env.event()  # nobody will trigger this
        env.timeout(1)
        with pytest.raises(RuntimeError):
            env.run(until=ev)

    def test_run_drains_queue(self, env):
        done = []

        def proc(env):
            yield env.timeout(2)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [2.0]
        assert env.peek() == float("inf")

    def test_events_at_until_time_still_run(self, env):
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10)
        assert fired == [10.0]


def iter_timeout(env, t):
    yield env.timeout(t)


class TestProcessSemantics:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        env.run()
        assert p.value == 99

    def test_exit_legacy_style(self, env):
        def proc(env):
            yield env.timeout(1)
            env.exit("bye")

        p = env.process(proc(env))
        env.run()
        assert p.value == "bye"

    def test_process_is_waitable(self, env):
        def worker(env):
            yield env.timeout(4)
            return "product"

        def boss(env):
            result = yield env.process(worker(env))
            return (env.now, result)

        b = env.process(boss(env))
        env.run()
        assert b.value == (4.0, "product")

    def test_unhandled_process_failure_crashes_run(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("oops")

        env.process(proc(env))
        with pytest.raises(KeyError):
            env.run()

    def test_waiting_process_can_catch_failure(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def guard(env):
            try:
                yield env.process(bad(env))
            except ValueError as err:
                return str(err)

        g = env.process(guard(env))
        env.run()
        assert g.value == "inner"

    def test_yield_non_event_fails_process(self, env):
        def proc(env):
            yield 42  # not an Event

        env.process(proc(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(ValueError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_yield_already_processed_event_continues(self, env):
        def proc(env):
            t = env.timeout(1)
            yield t
            # yield the same (now processed) event again: resumes instantly
            yield t
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 1.0

    def test_active_process_visible_inside(self, env):
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(0)

        p = env.process(proc(env))
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestDeterminism:
    def test_fifo_order_for_simultaneous_events(self, env):
        order = []

        def make(tag):
            def proc(env):
                yield env.timeout(5)
                order.append(tag)

            return proc

        for tag in "abcde":
            env.process(make(tag)(env))
        env.run()
        assert order == list("abcde")

    def test_two_runs_are_identical(self):
        def trace_run():
            env = Environment()
            trace = []

            def worker(env, wid, delay):
                for i in range(3):
                    yield env.timeout(delay)
                    trace.append((env.now, wid, i))

            for wid, delay in enumerate([1.0, 1.5, 0.5]):
                env.process(worker(env, wid, delay))
            env.run()
            return trace

        assert trace_run() == trace_run()


# Delays mix a coarse grid (forcing same-tick collisions), a dense near
# range and a far range, so near and far timers interleave in the heap.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 5.0]),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=500.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
_PRIORITIES = st.integers(min_value=0, max_value=2)


class _Recorder:
    """Schedules tagged events on an Environment and records dispatches.

    ``live`` mirrors the expected queue as ``(time, priority, seq, tag)``
    tuples: the kernel must dispatch its minimum next."""

    def __init__(self, env):
        self.env = env
        self.fired = []
        self.live = []
        self.events = {}
        self._seq = count()

    def schedule(self, delay, priority):
        tag = next(self._seq)
        ev = self.env.event()
        ev.callbacks.append(lambda _ev, tag=tag: self.fired.append(tag))
        self.env.schedule(ev, priority, delay)
        self.live.append((self.env.now + delay, priority, tag, tag))
        self.events[tag] = ev

    def cancel(self, index):
        entry = self.live.pop(index % len(self.live))
        self.events[entry[3]].cancel()
        return entry

    def step_and_check(self):
        expected = min(self.live)
        self.live.remove(expected)
        self.env.step()
        assert self.fired[-1] == expected[3]
        assert self.env.now == expected[0]


class TestQueueOrder:
    """Events pop in exact ``(time, priority, insertion)`` order, and
    cancelled events are drained by ``_pop_live`` without being seen."""

    def test_same_tick_priority_ties(self, env):
        rec = _Recorder(env)
        for priority in [2, 0, 1, 0, 2, 1]:
            rec.schedule(5.0, priority)
        env.run()
        # Priority breaks the time tie, then insertion order breaks the
        # priority tie.
        assert rec.fired == [1, 3, 2, 5, 0, 4]

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES),
                st.tuples(st.just("step")),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_interleaved_schedule_step_matches_sorted_model(self, ops):
        env = Environment()
        rec = _Recorder(env)
        for op in ops:
            if op[0] == "schedule":
                rec.schedule(op[1], op[2])
            elif rec.live:
                rec.step_and_check()
        while rec.live:
            rec.step_and_check()
        assert env.peek() == float("inf")

    @given(
        delays=st.lists(_DELAYS, min_size=1, max_size=200),
        priorities=st.lists(_PRIORITIES, min_size=1, max_size=200),
    )
    @settings(max_examples=150, deadline=None)
    def test_bulk_schedule_drains_in_sorted_order(self, delays, priorities):
        env = Environment()
        rec = _Recorder(env)
        for i, delay in enumerate(delays):
            rec.schedule(delay, priorities[i % len(priorities)])
        expected = [entry[3] for entry in sorted(rec.live)]
        env.run()
        assert rec.fired == expected
        assert env.events_processed == len(delays)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("schedule"), _DELAYS, _PRIORITIES),
                st.tuples(st.just("cancel"), st.integers(0, 10**6)),
                st.tuples(
                    st.just("reschedule"), st.integers(0, 10**6), _DELAYS, _PRIORITIES
                ),
                st.tuples(st.just("step")),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_cancel_reschedule_through_pop_live(self, ops):
        """A reschedule is cancel + fresh entry, as ``Timeout``/``Process``
        rescheduling does it. Tombstones are skipped by ``step`` and
        ``peek`` alike: they never fire, never move the clock and never
        count as processed."""
        env = Environment()
        rec = _Recorder(env)
        for op in ops:
            if op[0] == "schedule":
                rec.schedule(op[1], op[2])
            elif op[0] == "cancel" and rec.live:
                rec.cancel(op[1])
            elif op[0] == "reschedule" and rec.live:
                rec.cancel(op[1])
                rec.schedule(op[2], op[3])
            elif op[0] == "step" and rec.live:
                assert env.peek() == min(rec.live)[0]
                rec.step_and_check()
        while rec.live:
            assert env.peek() == min(rec.live)[0]
            rec.step_and_check()
        assert env.peek() == float("inf")
        with pytest.raises(EmptySchedule):
            env.step()
        assert env.events_processed == len(rec.fired)
