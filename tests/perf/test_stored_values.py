"""Nothing mutates an etcd-stored object after its commit.

Watch delivery hands subscribers the stored object itself (see
``repro.cluster.apiserver.translate_event``) and ``APIServer.patch``
commits the object its *mutate* callback edited, so a consumer that
mutated a delivered object, or a callback that kept its argument and
edited it later, would silently rewrite committed state. These tests run
the canonical scenarios with a commit listener that clones every
committed value, then check at the end that each stored value still
equals its commit-time clone. The resource version is ignored: the
apiserver stamps it on the stored object right after the write.

CI also runs this module with ``REPRO_RACE_DETECT=1``, which attaches the
race detector to the chaos and failover clusters.
"""

import pytest

from repro.cluster.apiserver import _clone
from repro.cluster.etcd import Etcd, WatchEventType
from repro.scenarios import SCENARIOS

#: scenario → knobs; obs on where the scenario supports it, so the obs
#: hooks that receive stored objects are covered too.
_RUNS = {
    "chaos": {"obs_label": "chaos"},
    "failover": {"obs_label": "failover"},
    "trace_replay": {},
}


@pytest.fixture
def commits(monkeypatch):
    """``(key, stored value, commit-time clone)`` for every PUT of every
    etcd built while the fixture is active."""
    log = []
    init = Etcd.__init__

    def record(event):
        if event.type is WatchEventType.PUT:
            value = event.kv.value
            log.append((event.kv.key, value, _clone(value)))

    def recording_init(self, env):
        init(self, env)
        self.add_listener("", record)

    monkeypatch.setattr(Etcd, "__init__", recording_init)
    return log


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_stored_values_never_change_after_commit(name, commits):
    SCENARIOS[name](**_RUNS[name])
    assert commits
    changed = []
    for key, value, snap in commits:
        snap.metadata.resource_version = value.metadata.resource_version
        if snap != value:
            changed.append(key)
    assert not changed, f"{len(changed)} of {len(commits)} stored values changed: {changed[:5]}"
