"""Identical-seed replay: fast paths vs ``REPRO_SLOW_KERNEL`` reference.

Every optimization behind :mod:`repro.perf.fastpath` claims to be
behavior-preserving. These tests make that claim executable instead of a
code-review promise: the chaos and failover capstone scenarios are
replayed at the same seed in both modes with full observability
attached, and every artifact must match byte for byte —

* the scenario summary (placements, recovery rates, chaos log,
  promotions),
* the complete ObsHub snapshot (spans, Kubernetes-style events, the
  scheduler decision log, counters, time series — i.e. the observable
  event order), and
* the rendered Perfetto/Chrome trace.

A mismatch here means a "fast path" changed simulation behavior and is
always a bug, regardless of how much faster it is.
"""

import json

import pytest

from repro.obs.tracing import chrome_trace_json
from repro.perf import fastpath
from repro.scenarios import chaos, failover


def _dump(value):
    return json.dumps(value, sort_keys=True, default=str)


def _behavior(obs):
    """The behavioral part of an ObsHub snapshot.

    Everything in the snapshot is simulated behavior and must replay
    byte-identically — except the ``repro_sim_events_total`` series,
    which samples ``env.events_processed``: a meter of how much work the
    *kernel* did, not of what the cluster did. The fast paths dispatch
    fewer events for the same behavior by design (coalesced wakes,
    tombstoned timers never reach the queue head), so that one series is
    the single permitted difference between modes.
    """
    out = dict(obs)
    out["series"] = {
        name: ts
        for name, ts in obs["series"].items()
        if name != "repro_sim_events_total"
    }
    return out


def _replay(scenario, label):
    """Run *scenario* once per mode, reference first (fresh state each)."""
    with fastpath.force(True):
        slow = scenario(obs_label=label)
    with fastpath.force(False):
        fast = scenario(obs_label=label)
    return fast, slow


@pytest.mark.parametrize("scenario", [chaos, failover], ids=lambda f: f.__name__)
def test_replay_is_byte_identical(scenario):
    fast, slow = _replay(scenario, f"replay-{scenario.__name__}")

    # Same virtual end time and the same simulated outcome, byte for byte.
    assert fast["sim_time"] == slow["sim_time"]
    assert _dump(fast["summary"]) == _dump(slow["summary"])

    # The observability snapshot is the event-order witness: spans,
    # Events, decision log, counters and sampled series all embed virtual
    # timestamps and sequence, so coalescing or reordering anything
    # observable would show up here.
    assert fast["obs"] is not None and slow["obs"] is not None
    assert _dump(_behavior(fast["obs"])) == _dump(_behavior(slow["obs"]))

    # And the artifact users actually open: the Perfetto/Chrome trace.
    assert chrome_trace_json(fast["obs"]["spans"]) == chrome_trace_json(
        slow["obs"]["spans"]
    )


def test_fast_mode_replay_is_stable():
    """Two identical-seed fast runs agree with each other too.

    Guards against nondeterminism *introduced by* a fast path (iteration
    over an unordered container, id()-keyed ordering leaks, ...), which a
    fast-vs-slow comparison alone could miss if it were flaky.
    """
    with fastpath.force(False):
        first = chaos(obs_label="replay-stability")
    with fastpath.force(False):
        second = chaos(obs_label="replay-stability")
    assert _dump(first["summary"]) == _dump(second["summary"])
    assert _dump(first["obs"]) == _dump(second["obs"])
    assert first["events"] == second["events"]
