"""Compare two result sets of the benchmark: a parent and a change.

Usage, from the repository root::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the reports that ``run.py --out FILE`` appended, one JSON
line per run. Untraced runs (``--trace 0``) are compared. For each
workload and end-to-end metric in ``BENCHMARK.json`` it prints each
side's median and quartiles, the share of pairs the change wins, and a
verdict:

* ``improved`` — there are at least ten pairs, the change wins at least
  nine tenths of them, and the medians differ by more than the parent's
  interquartile range;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the change would read as improved on fewer than ten
  pairs; or the parent's own spread (interquartile range over median) is
  wider than the bound and not every run of the change reads better than
  every run of the parent;
* ``unchanged`` — otherwise.

Every run counts towards the medians and quartiles. Runs pair up by
seed, in file order: the k-th run of a seed on one side with the k-th
run of that seed on the other. Runs without a partner are left out of
the win share. Modelled outputs are compared exactly: every run of a
seed run on both sides must have the same digest and modelled metrics.
The exit code is 1 if any metric regressed or any modelled output
differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent


#: fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load(path: str) -> Dict[str, Dict[int, List[dict]]]:
    """Every untraced report, by workload, then seed, in file order."""
    out: Dict[str, Dict[int, List[dict]]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            report = json.loads(line)
            if report["trace"] == 0:
                runs = out.setdefault(report["workload"], {})
                runs.setdefault(report["seed"], []).append(report)
    return out


def _value(report: dict, name: str) -> float:
    return report["result"]["metrics"][name]["value"]


def _modelled(report: dict) -> str:
    return json.dumps([report["digest"], report["modelled"]], sort_keys=True)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: List[float], change: List[float], pairs: List[Tuple[float, float]], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one metric and the share of pairs the change wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), share
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed", share
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", share
    return "unchanged", share


def compare(parent_path: str, change_path: str, bench: Optional[dict] = None) -> Tuple[List[str], bool]:
    """Report lines, and whether the change passed (no regression, no
    modelled difference)."""
    if bench is None:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_path), load(change_path)
    lines = [
        f"{'workload':<16} {'metric':<20} {'parent q1/med/q3':>32} "
        f"{'change q1/med/q3':>32} {'wins':>5}  verdict"
    ]
    ok = True
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        common = sorted(set(p_runs) & set(c_runs))
        paired = [pair for s in common for pair in zip(p_runs[s], c_runs[s])]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_vals = [_value(r, name) for runs in p_runs.values() for r in runs]
            c_vals = [_value(r, name) for runs in c_runs.values() for r in runs]
            pairs = [(_value(p, name), _value(c, name)) for p, c in paired]
            word, share = verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"])
            ok = ok and word != "regressed"
            pq = "/".join(f"{v:.4g}" for v in quartiles(p_vals))
            cq = "/".join(f"{v:.4g}" for v in quartiles(c_vals))
            lines.append(
                f"{workload:<16} {name:<20} {pq:>32} {cq:>32} {share:>5.0%}  {word}"
                f" (n={len(p_vals)}/{len(c_vals)}, pairs={len(pairs)}, bound {metric['bound']:.0%})"
            )
        differing = [
            s
            for s in common
            if len({_modelled(r) for r in p_runs[s] + c_runs[s]}) > 1
        ]
        ok = ok and not differing
        lines.append(
            f"{workload:<16} modelled outputs: "
            + (f"differ at seeds {differing}" if differing else f"identical at {len(common)} seeds")
        )
    return lines, ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    lines, ok = compare(args.parent, args.change)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
