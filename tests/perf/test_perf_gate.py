"""The perf regression gate cannot be passed without reference runs.

A ``--fast-only`` report has no ``speedup`` or ``identical`` fields, so
it carries no evidence about either promise the gate enforces; it must
fail the gate rather than pass it vacuously.
"""

import json

import pytest

from repro.perf.__main__ import main
from repro.perf.harness import check_report

BASELINE = {
    "results": {
        "chaos": {"speedup": 2.3},
        "failover": {"speedup": 2.5},
    }
}


FAST_ONLY = {"fast": {"wall_s": 99.0, "events": 1, "events_per_sec": 0.0, "sim_time": 1.0}}


@pytest.mark.parametrize(
    "entry", [FAST_ONLY, {"speedup": 3.0}], ids=["fast-only", "no-identical"]
)
def test_report_without_reference_runs_fails_the_gate(entry):
    report = {"results": {name: dict(entry) for name in BASELINE["results"]}}
    errors = check_report(report, BASELINE)
    assert [e.split(":")[0] for e in errors] == ["chaos", "failover"]
    assert all("no reference run" in e for e in errors)


def test_complete_report_passes_the_gate():
    report = {
        "results": {
            name: {"speedup": 3.0, "identical": True} for name in BASELINE["results"]
        }
    }
    assert check_report(report, BASELINE) == []


def test_cli_rejects_fast_only_with_check(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(BASELINE))
    with pytest.raises(SystemExit) as exc:
        main(["--fast-only", "--check", str(path), "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "--fast-only" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
