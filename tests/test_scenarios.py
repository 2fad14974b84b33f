"""Golden digests for the :mod:`repro.scenarios` catalogue.

One scenario definition serves the sweep runner, the obs CLI and the
capstone benchmarks, so each consumer must reproduce the same pinned
bytes at the scenario's default seed. A seed matrix and the capstones'
control runs are pinned too. A digest change means the modelled
behaviour changed: re-pin only after explaining why.
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
from repro.perf import sweep
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

#: summary digests at the matrix's other seeds. chaos seeds only break
#: ties among the busiest nodes: 11 crashes node01, 1 node00, 5 node02.
SEED_DIGESTS = {
    ("fig8", 8): "dc096651f4f6b1ecf2c1cc17cd070eda75122824c6c4b63dfa9433a53c1e16a8",
    ("fig8", 9): "fdffb3995b2bc7efb9048d14d6e9f6b9c92fc66ef639ac5f0524f7a2cb8e7e0a",
    ("trace_replay", 24): "42c97340de455f686d9f1a79cd3451acc76f2701ced722b0ad741e59a73f9393",
    ("trace_replay", 25): "a3c158c036c43ce21ec68cf94b731cae364fa52090658dd54b9d6dbc71342255",
    ("chaos", 1): "0d762b5d38d84e78241da12c4c2ebb4be75b51909e0b84d38c9d71f89d88fda2",
    ("chaos", 5): "d2ddcd15e44d8478f25185ef393d44e3cfe243ab008277b92e0d525ea9efae95",
}

#: the capstones' control runs at the default seed.
CONTROL_RUNS = {
    "chaos-no-recovery": (
        scenarios.chaos,
        {"recovery": False},
        "404d1d00d9c6b808538377a64ea551ad757cf317d22ad7c7ad3f780f63525aa2",
    ),
    "failover-one-replica": (
        scenarios.failover,
        {"replicas": 1},
        "8c9e8b5bd682f780d29f1029444db51e25958c462bf5cf5d0f40fba623431f06",
    ),
}

#: chaos obs snapshots (hub labeled "chaos", ``repro_sim_events_total``
#: dropped as in OBS_DIGESTS) at the other two crash victims.
CHAOS_OBS_SEED_DIGESTS = {
    1: "9eefc85c4a1f6e3512f8686aa6c63e556d6285a3fbfe2295c614538bba23c0cc",
    5: "7909206f06647116ef1e795133dec6ee71f08b8de2ae7f067358925a3d7c5a23",
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
def test_scenario_and_sweep_reproduce_the_summary(name):
    direct = scenarios.SCENARIOS[name]()
    assert _digest(direct["summary"]) == SUMMARY_DIGESTS[name]
    swept = sweep.run_seed((name, _default_seed(name)))
    assert _digest(swept["summary"]) == SUMMARY_DIGESTS[name]
    assert swept["events"] == direct["events"]


@pytest.mark.parametrize("name,seed", list(SEED_DIGESTS), ids=str)
def test_summary_digest_at_seed(name, seed):
    run = scenarios.SCENARIOS[name](seed=seed)
    assert _digest(run["summary"]) == SEED_DIGESTS[(name, seed)]


@pytest.mark.parametrize("control", list(CONTROL_RUNS))
def test_control_run_digest(control):
    fn, knobs, want = CONTROL_RUNS[control]
    assert _digest(fn(**knobs)["summary"]) == want


@pytest.mark.parametrize("name", list(OBS_DIGESTS))
def test_obs_cli_reproduces_the_snapshot(name, tmp_path, capsys):
    assert cli.main(["report", "--scenario", name]) == 0
    assert "repro_sharepod_schedule_seconds" in capsys.readouterr().out
    assert cli.main(["export", "--scenario", name, "--dir", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.json") as fh:
        snap = json.load(fh)
    if name == "chaos":
        del snap["series"]["repro_sim_events_total"]
    assert _digest(snap) == OBS_DIGESTS[name]


@pytest.mark.parametrize("seed", list(CHAOS_OBS_SEED_DIGESTS))
def test_chaos_obs_snapshot_at_seed(seed):
    run = scenarios.chaos(seed=seed, obs_label="chaos")
    assert _digest(run["summary"]) == SEED_DIGESTS[("chaos", seed)]
    snap = dict(run["obs"])
    snap["series"] = {
        k: v for k, v in snap["series"].items() if k != "repro_sim_events_total"
    }
    assert _digest(snap) == CHAOS_OBS_SEED_DIGESTS[seed]


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
