"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig8_throughput --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from ``--seed``, runs one
untimed warm-up episode, then runs episodes closed-loop, one after
another in this process, until ``--seconds`` have passed. Every episode
must pass the invariant check and reproduce the reference digest of its
modelled outputs: at the default seed the digest in ``golden.json``, at
any other seed the warm-up's digest.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced episodes and prints the per-layer
metrics (see ``layers.py``). Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
the output check passed.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import gc  # noqa: E402
import heapq  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: end-to-end metrics printed by an untraced run, with their units.
END_TO_END = {
    "sim_s_per_norm_s": "s/s",
    "episode_norm_s.p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: input generations timed per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3

#: typical host time of :func:`calibrate` on the 2-core reference host;
#: normalized seconds read as host seconds on a host of that speed.
CALIBRATION_REF_S = 0.04

#: calibration loops timed per calibration; :func:`calibrate` reports
#: their median, so one loop's jitter does not enter an episode's sample.
CALIBRATION_REPEATS = 3


@dataclass
class _Meta:
    name: str
    labels: Dict[str, str] = field(default_factory=dict)
    revision: int = 0


@dataclass
class _Object:
    meta: _Meta
    spec: List[Any]


def calibrate(steps: int = 6000) -> float:
    """Median host seconds of a fixed pure-Python loop, timed
    :data:`CALIBRATION_REPEATS` times. The loop is shaped like the program's
    control plane: generator processes on a ``heapq`` timer queue, objects
    cloned on every write to a keyed store, and a periodic sorted, filtered
    list. It uses no program code, so a change to the program cannot move
    it; only the host's speed at that moment does.

    The host's speed drifts over tens of seconds, by more than the bounds
    allow. Dividing each episode's host time by the calibration measured
    around it removes most of that drift (see README.md, "Noise"). The
    cyclic garbage collector is paused while it runs, so its time does not
    depend on how many objects the program left alive.
    """
    gc.collect()
    gc.disable()
    try:
        return statistics.median(_calibration_loop(steps) for _ in range(CALIBRATION_REPEATS))
    finally:
        gc.enable()


def _calibration_loop(steps: int) -> float:
    t0 = time.perf_counter()
    heap: List[tuple] = []
    seq = itertools.count()
    store: Dict[str, _Object] = {}

    def process(i: int):
        k = 0
        while True:
            k += 1
            yield (i * 7 + k) % 13 + 1

    processes = [process(i) for i in range(2000)]
    for i, proc in enumerate(processes):
        heapq.heappush(heap, (next(proc), next(seq), i))
    for step in range(steps):
        when, _, i = heapq.heappop(heap)
        key = f"/registry/Pod/default/p{i}"
        old = store.get(key)
        if old is None:
            store[key] = _Object(_Meta(key, {"app": str(i % 17)}), [when, i])
        else:
            meta = _Meta(old.meta.name, dict(old.meta.labels), old.meta.revision + 1)
            store[key] = _Object(meta, list(old.spec))
        if step % 200 == 0:
            [o for _, o in sorted(store.items()) if o.meta.labels["app"] == "3"]
        heapq.heappush(heap, (when + next(processes[i]), next(seq), i))
    return time.perf_counter() - t0


def use_checkout() -> None:
    """Import the program from this checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"program sources not found under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_golden() -> Dict[str, str]:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())


def _timed_episode(episodes, workload: str, inputs) -> tuple:
    gc.collect()
    t0 = time.perf_counter()
    episode = episodes.run_episode(workload, inputs)
    return episode, time.perf_counter() - t0


def run(
    workload: str, seed: int, seconds: float, trace: bool, started: Optional[float] = None
) -> Dict[str, Any]:
    """Run *workload* and return the full report (see :func:`main`).

    *started* is the process start on the ``perf_counter`` clock; set-up
    time counts from there (or, without it, from the program import).
    """
    t_import = time.perf_counter()
    from perfbench import episodes

    if workload not in episodes.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {episodes.WORKLOADS}")
    import_s = time.perf_counter() - (t_import if started is None else started)

    problems: List[str] = []
    gen_s = []
    input_digests = set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = episodes.make_inputs(workload, seed)
        gen_s.append(time.perf_counter() - t0)
        input_digests.add(episodes.digest(inputs))
    if len(input_digests) != 1:
        problems.append("input generation is not deterministic for this seed")
    setup_s = import_s + statistics.median(gen_s)

    warmup, warmup_s = _timed_episode(episodes, workload, inputs)
    # At the default seed every episode, the warm-up included, must match
    # the pinned digest; at any other seed, the warm-up's.
    if seed == episodes.DEFAULT_SEED:
        reference = load_golden().get(workload, "no golden digest")
    else:
        reference = episodes.digest(warmup.summary)
    problems += episodes.output_problems(warmup, reference)

    tracer_cls = None
    if trace:
        from perfbench.layers import LayerTrace as tracer_cls

    host_s: List[float] = []
    norm_s: List[float] = []
    calibration_s = [calibrate()]
    traced_host_s: List[float] = []
    layer_samples: List[Dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        tracer = None
        if tracer_cls is not None and len(host_s) > len(traced_host_s):
            tracer = tracer_cls().install()
        try:
            episode, dt = _timed_episode(episodes, workload, inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        calibration_s.append(calibrate())
        found = episodes.output_problems(episode, reference)
        attempted += episode.submitted
        failed += episode.submitted if found else episode.failed
        problems += found
        if tracer is None:
            host_s.append(dt)
            around = (calibration_s[-2] + calibration_s[-1]) / 2.0
            norm_s.append(dt * CALIBRATION_REF_S / around)
        else:
            traced_host_s.append(dt)
            layer_samples.append(tracer.metrics())
        done = len(host_s) >= 1 and (tracer_cls is None or len(traced_host_s) >= 1)
        if done and time.perf_counter() >= deadline:
            break

    if trace:
        metrics = {
            name: statistics.median(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        untraced = statistics.median(host_s)
        metrics["sim.host_us_per_event"] = 1e6 * untraced / metrics["sim.events"]
        metrics["trace.overhead_x"] = statistics.median(traced_host_s) / untraced
        from perfbench.layers import PER_LAYER as units
    else:
        metrics = {
            # Episodes are deterministic, so each simulates warmup.sim_s.
            "sim_s_per_norm_s": warmup.sim_s / statistics.median(norm_s),
            "episode_norm_s.p50": statistics.median(norm_s),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "digest": episodes.digest(warmup.summary),
        "episodes": len(host_s) + len(traced_host_s),
        "warmup_s": warmup_s,
        # raw host time, before normalization by the calibration loop
        "host": {
            "episode_host_s.p50": statistics.median(host_s),
            "sim_s_per_host_s": warmup.sim_s / statistics.median(host_s),
            "calibration_s.p50": statistics.median(calibration_s),
        },
        "problems": problems,
        "modelled": {name: list(pair) for name, pair in warmup.modelled.items()},
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="1 is the golden-digest seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="append the full report as one JSON line to this file (for compare.py)"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    try:
        use_checkout()
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from perfbench.episodes import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace), started=_STARTED)
    result = report["result"]
    if not args.trace and "perfbench.layers" in sys.modules:
        report["problems"].append("the untraced run imported the tracing code")
        result["correct"] = False
    print(
        f"# workload={report['workload']} seed={report['seed']} trace={report['trace']} "
        f"episodes={report['episodes']} warmup_s={report['warmup_s']:.3f} "
        f"digest={report['digest']}"
    )
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for name, value in report["host"].items():
        print(f"host {name} {value:.6g}")
    for name, (value, unit) in report["modelled"].items():
        print(f"modelled {name} {value:.6g} {unit}")
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
