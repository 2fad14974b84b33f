"""Golden digests for the :mod:`repro.scenarios` catalogue.

One scenario definition serves the perf harness, the sweep runner, the
obs CLI and the capstone benchmarks, so each consumer must reproduce the
same pinned bytes at the scenario's default seed. A digest change means
the modelled behaviour changed: re-pin only after explaining why.
"""

import hashlib
import inspect
import json
import os
import subprocess
import sys

import pytest

from repro import scenarios
from repro.chaos import ChaosEngine
from repro.obs import cli, runtime
from repro.perf import fastpath, harness, sweep
from repro.sim import environment

#: sha256(json.dumps(summary, sort_keys=True, default=str)) per scenario.
SUMMARY_DIGESTS = {
    "fig8": "da1bbf09b62223681aaeca7afcb8c6f8e5604df3a2b8737a3c5588176f6d247f",
    "chaos": "763151eef2fb65b4f38279e0722f694abaae5b64765895d12a5595600486eba1",
    "failover": "fa45d315b8b6ace6e5dcbf5c747ca96d983e829f1d3eae9085e8db068831b179",
    "trace_replay": "2938b79f6cc171440d4d57937b8697200880dbba40468744f74b9761c7f9c23d",
}

#: the same digest over the obs snapshot the CLI exports (label = scenario
#: name), fast kernel. chaos drops ``repro_sim_events_total``: it meters
#: kernel work, which moves with every stop instant the drive adds.
OBS_DIGESTS = {
    "failover": "a3cc66bd53e02426c8888af185bc6bb07b7e1214699f22f4fc5e4b204fbd0d74",
    "chaos": "497353aa06ab9ebdb34ae62ebea19c4d03c991057ffdbd1cda2429bfbaba394d",
}

SRC = os.path.dirname(os.path.dirname(os.path.abspath(scenarios.__file__)))


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode()
    ).hexdigest()


def _default_seed(name: str) -> int:
    return inspect.signature(scenarios.SCENARIOS[name]).parameters["seed"].default


def test_registry_names_are_pinned():
    assert list(scenarios.SCENARIOS) == list(SUMMARY_DIGESTS)


@pytest.mark.parametrize("name", list(SUMMARY_DIGESTS))
def test_harness_and_sweep_reproduce_the_summary(name):
    timed = harness.run_scenario(name)
    assert _digest(timed["summary"]) == SUMMARY_DIGESTS[name]
    swept = sweep.run_seed((name, _default_seed(name), False))
    assert _digest(swept["summary"]) == SUMMARY_DIGESTS[name]
    assert swept["events"] == timed["events"]


@pytest.mark.parametrize("name", list(OBS_DIGESTS))
def test_obs_cli_reproduces_the_snapshot(name, tmp_path, capsys):
    with fastpath.force(False):
        assert cli.main(["report", "--scenario", name]) == 0
        assert "repro_sharepod_schedule_seconds" in capsys.readouterr().out
        assert cli.main(["export", "--scenario", name, "--dir", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.json") as fh:
        snap = json.load(fh)
    if name == "chaos":
        del snap["series"]["repro_sim_events_total"]
    assert _digest(snap) == OBS_DIGESTS[name]


@pytest.mark.parametrize("name", ["fig8", "trace_replay"])
def test_obs_cli_rejects_scenarios_without_a_snapshot(name):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs", "report", "--scenario", name],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stderr.strip().count("\n") == 0, proc.stderr
    assert name in proc.stderr and "Traceback" not in proc.stderr


def test_chaos_drive_records_capstone_checkpoints():
    run = scenarios.chaos()
    assert run["events"] > 0 and run["sim_time"] == scenarios.CHAOS_CHECKPOINTS[-1]
    assert set(run["homes"]) == set(run["placed_at_bound"]) == set(
        run["summary"]["placed"]
    )
    assert run["obs"] is None and run["profile"] is None


def test_obs_is_disarmed_when_the_scenario_raises(monkeypatch):
    def boom(self):
        raise RuntimeError("fault injection failed to arm")

    monkeypatch.setattr(ChaosEngine, "start", boom)
    with pytest.raises(RuntimeError, match="failed to arm"):
        scenarios.chaos(obs_label="raises", profile=True)
    assert runtime.current() is None
    assert environment._PROFILE is None
