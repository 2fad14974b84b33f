"""Performance harness and fast-path plumbing.

* :mod:`repro.perf.fastpath` — the ``REPRO_SLOW_KERNEL`` reference-mode
  switch every gated optimization consults.
* :mod:`repro.perf.harness` — times the :mod:`repro.scenarios` catalogue
  (fig8 throughput, chaos recovery, HA failover, trace replay) fast vs
  reference, reports events/sec and wall-clock per layer, writes
  ``BENCH_perf.json``, and gates it against a baseline.
* :mod:`repro.perf.sweep` — runs one catalogue scenario at N seeds
  across worker processes into one deterministic report.

Quickstart::

    PYTHONPATH=src python -m repro.perf            # run suite, write BENCH_perf.json
    PYTHONPATH=src python -m repro.perf --check benchmarks/perf/baseline.json

Only the lightweight flag module is imported eagerly — the harness pulls
in the whole cluster stack through the scenario catalogue, so the CLI
and callers import it on demand.
"""

from __future__ import annotations

from .fastpath import ENV_FLAG, force, refresh

__all__ = ["ENV_FLAG", "force", "refresh"]
