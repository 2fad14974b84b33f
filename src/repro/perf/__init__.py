"""Seed sweeps over the :mod:`repro.scenarios` catalogue.

* :mod:`repro.perf.sweep` — runs one catalogue scenario at N seeds
  across worker processes into one deterministic report.

Quickstart::

    PYTHONPATH=src python -m repro.perf sweep --scenario chaos --seeds 4-7

Host-time performance is measured by the repository benchmark in
``perfbench/`` (normalized absolute times, medians with their spread,
paired verdicts), not here.
"""
