"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import compare
from perfbench import run as bench_run

bench_run.use_checkout()

from perfbench import episodes  # noqa: E402 - needs the checkout's src on sys.path
from repro.cluster.objects import PodPhase  # noqa: E402

BENCH = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_file_is_well_formed():
    assert set(BENCH) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(episodes.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", episodes.WORKLOADS)
def test_emitted_metrics_are_declared(workload, trace):
    report = bench_run.run(workload, episodes.DEFAULT_SEED, 0.0, trace)
    result = report["result"]
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}


def test_seed_changes_inputs_but_not_the_verdict():
    for workload in episodes.WORKLOADS:
        assert episodes.digest(episodes.make_inputs(workload, 1)) != episodes.digest(
            episodes.make_inputs(workload, 2)
        )
        assert episodes.digest(episodes.make_inputs(workload, 2)) == episodes.digest(
            episodes.make_inputs(workload, 2)
        )
    report = bench_run.run("churn_obs", 2, 0.0, False)
    assert report["result"]["correct"], report["problems"]
    assert report["digest"] != bench_run.load_golden()["churn_obs"]


def test_perturbed_summary_fails_the_output_check():
    inputs = episodes.make_inputs("churn_obs", episodes.DEFAULT_SEED)
    episode = episodes.run_episode("churn_obs", inputs)
    golden = bench_run.load_golden()["churn_obs"]
    assert episodes.output_problems(episode, golden) == []
    episode.summary["chaos"]["work_done"][0] += 1e-9
    assert episodes.output_problems(episode, golden)


def test_wrong_golden_digest_fails_every_episode(monkeypatch):
    monkeypatch.setattr(bench_run, "load_golden", lambda: {"churn_obs": "0" * 64})
    report = bench_run.run("churn_obs", episodes.DEFAULT_SEED, 0.0, False)
    result = report["result"]
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def _sharepod(name, gpu_id, request, phase):
    return SimpleNamespace(
        metadata=SimpleNamespace(name=name),
        spec=SimpleNamespace(gpu_id=gpu_id, gpu_request=request),
        status=SimpleNamespace(phase=phase),
    )


def test_invariant_check_flags_overcommit_and_stuck_sharepods():
    ok = [
        _sharepod("a", "vgpu-1", 0.6, PodPhase.RUNNING),
        _sharepod("b", "vgpu-1", 0.4, PodPhase.RUNNING),
        _sharepod("c", "vgpu-1", 0.9, PodPhase.SUCCEEDED),
    ]
    assert episodes.check_sharepods(ok) == []
    over = ok + [_sharepod("d", "vgpu-1", 0.1, PodPhase.RUNNING)]
    assert any("over-committed" in p for p in episodes.check_sharepods(over))
    stuck = ok + [_sharepod("e", None, 0.1, PodPhase.PENDING)]
    assert any("Pending" in p for p in episodes.check_sharepods(stuck))


def test_traced_run_leaves_no_wrapper_installed():
    from perfbench.layers import LayerTrace
    from repro.sim import environment as sim_env

    probe = LayerTrace().install()
    originals = {}
    for owner, attr, original in probe._patches:
        originals.setdefault((owner, attr), original)
    probe.uninstall()
    assert originals
    report = bench_run.run("churn_obs", episodes.DEFAULT_SEED, 0.0, True)
    assert report["result"]["correct"], report["problems"]
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    assert sim_env._PROFILE is None


def test_command_line_run_imports_no_tracing_code():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn_obs", "--seconds", "0"],
        cwd=bench_run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def _report(seed, value, digest="d"):
    return {
        "workload": "w",
        "seed": seed,
        "trace": 0,
        "digest": digest,
        "modelled": {},
        "result": {"metrics": {"t": {"value": value, "unit": "s"}}},
    }


@pytest.mark.parametrize(
    "change_values, expected",
    [
        ([1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0], "unchanged"),
        ([1.5] * 10, "regressed"),
        ([0.5, 0.51, 0.49, 0.5, 0.52, 0.48, 0.5, 0.51, 0.49, 0.5], "improved"),
    ],
)
def test_compare_verdicts(tmp_path, change_values, expected):
    parent_values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write(parent, enumerate(parent_values))
    _write(change, enumerate(change_values))
    lines, ok = compare.compare(str(parent), str(change), _BENCH)
    assert expected in lines[1]
    assert ok == (expected != "regressed")
    _write(change, enumerate(parent_values), "x")
    lines, ok = compare.compare(str(parent), str(change), _BENCH)
    assert not ok and "differ" in lines[-1]


_BENCH = {"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]}


def _write(path, seeded_values, digest="d"):
    path.write_text("".join(json.dumps(_report(s, v, digest)) + "\n" for s, v in seeded_values))


def test_compare_claims_no_gain_on_fewer_than_ten_pairs(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write(parent, [(1, 1.0)])
    _write(change, [(1, 0.5)])
    lines, ok = compare.compare(str(parent), str(change), _BENCH)
    assert "unresolved" in lines[1] and "pairs=1" in lines[1] and ok


def test_compare_keeps_repeated_runs_of_a_seed(tmp_path):
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"
    _write(parent, [(7, 1.0 + 0.01 * k) for k in range(10)])
    _write(change, [(7, 0.5 + 0.01 * k) for k in range(10)])
    lines, ok = compare.compare(str(parent), str(change), _BENCH)
    assert "improved" in lines[1] and "n=10/10, pairs=10" in lines[1] and ok
    change.write_text("".join(json.dumps(_report(7, 0.5, d)) + "\n" for d in ["d"] * 9 + ["x"]))
    lines, ok = compare.compare(str(parent), str(change), _BENCH)
    assert not ok and "differ at seeds [7]" in lines[-1]
