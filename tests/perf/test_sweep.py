"""Tests for the parallel sweep runner (``python -m repro.perf sweep``).

The merged report's byte-determinism is the contract CI's sweep smoke
job asserts with real worker processes; here the same properties are
checked in-process (processes=1) so the unit suite stays fast, plus the
seed-spec parser and the report's shape.
"""

import json

import pytest

from repro.perf.sweep import (
    parse_seed_list,
    run_seed,
    run_sweep,
    write_sweep_report,
)


class TestParseSeedList:
    def test_single_and_commas(self):
        assert parse_seed_list("5") == [5]
        assert parse_seed_list("3,1,2") == [1, 2, 3]

    def test_ranges(self):
        assert parse_seed_list("1-4") == [1, 2, 3, 4]
        assert parse_seed_list("1,5-7,3") == [1, 3, 5, 6, 7]

    def test_overlaps_deduplicate(self):
        assert parse_seed_list("1-3,2-4") == [1, 2, 3, 4]

    def test_negative_single_seed(self):
        assert parse_seed_list("-1") == [-1]

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_seed_list("7-3")
        with pytest.raises(ValueError):
            parse_seed_list("")
        with pytest.raises(ValueError):
            parse_seed_list("x")


class TestRunSweep:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_sweep("nope", [1], log=lambda *_: None)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("chaos", [1, 1], log=lambda *_: None)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_sweep("chaos", [], log=lambda *_: None)

    def test_report_shape_and_seed_order(self):
        report = run_sweep("chaos", [13, 11], log=lambda *_: None)
        assert report["suite"] == "repro-perf-sweep"
        assert report["scenario"] == "chaos"
        assert report["seeds"] == [11, 13]
        assert [r["seed"] for r in report["runs"]] == [11, 13]
        for run in report["runs"]:
            assert set(run) == {"scenario", "seed", "events", "sim_time", "summary"}

    def test_seed_actually_varies_the_run(self):
        # The chaos engine's fault RNG is seed-driven, but it only breaks
        # ties among the busiest nodes, so neighbouring seeds often pick
        # the same victim: check a small range, not one pair.
        runs = run_sweep("chaos", list(range(11, 17)), log=lambda *_: None)["runs"]
        summaries = {json.dumps(r["summary"], sort_keys=True) for r in runs}
        assert len(summaries) > 1

    def test_merged_report_bytes_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            report = run_sweep("chaos", [11, 12], log=lambda *_: None)
            paths.append(write_sweep_report(report, str(tmp_path / f"s{i}.json")))
        a, b = (open(p, "rb").read() for p in paths)
        assert a == b

    def test_no_host_timings_in_report(self, tmp_path):
        report = run_sweep("chaos", [11], log=lambda *_: None)
        text = open(
            write_sweep_report(report, str(tmp_path / "s.json"))
        ).read()
        assert "wall" not in text and "events_per_sec" not in text


class TestRunSeed:
    def test_worker_entry_point_is_self_contained(self):
        out = run_seed(("chaos", 11))
        assert out["scenario"] == "chaos"
        assert out["seed"] == 11
        assert out["events"] > 0
