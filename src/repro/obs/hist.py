"""Streaming latency histograms over the simulator's hot seams.

This module is the catalog half of the histogram tentpole: it names the
distribution-typed metric families, fixes their bucket boundaries, and
maps span closures onto observations. The mechanism half (cumulative
buckets, exact per-window percentiles) lives in
:class:`repro.metrics.Histogram`.

Every observation is a **virtual-time** duration: histograms are part of
the deterministic run artifact and must replay byte-identically at the
same seed (``tests/test_scenarios.py`` pins full snapshot digests). Host
wall-clock time is the profiler's job (:mod:`repro.obs.profile`) and
never enters a histogram.

Families (all observed automatically once a hub is enabled):

====================================  ==========================================
``repro_algo1_pass_seconds``          Algorithm 1 pass latency: scheduler
                                      reconcile entry -> decision commit
                                      (includes the modeled op latency and
                                      apiserver gating)
``repro_sharepod_schedule_seconds``   SharePod created -> Scheduled
``repro_sharepod_journey_seconds``    SharePod created -> Running (the
                                      journey root span, Fig 10's metric)
``repro_token_wait_seconds``          time a client blocks in
                                      ``token.wait`` before a grant
``repro_container_start_seconds``     kubelet ``container.start`` duration
``repro_reconcile_duration_seconds``  one reconcile pass, per controller
``repro_informer_lag_revisions``      etcd revisions an informer trails
                                      behind, sampled per tick
``repro_federation_place_seconds``    federation record created -> placed
                                      on a member cluster
====================================  ==========================================
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..metrics.collector import DEFAULT_LATENCY_BOUNDARIES, MetricsRegistry
from .promfmt import metric

__all__ = [
    "DEFAULT_LATENCY_BOUNDARIES",
    "LAG_BOUNDARIES",
    "HISTOGRAM_FAMILIES",
    "HistogramInstruments",
]

#: informer lag is measured in etcd revisions, not seconds.
LAG_BOUNDARIES: Tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0)

#: family -> bucket boundaries (the catalog promfmt exposes as
#: ``# TYPE ... histogram``).
HISTOGRAM_FAMILIES: Dict[str, Tuple[float, ...]] = {
    "repro_algo1_pass_seconds": DEFAULT_LATENCY_BOUNDARIES,
    "repro_sharepod_schedule_seconds": DEFAULT_LATENCY_BOUNDARIES,
    "repro_sharepod_journey_seconds": DEFAULT_LATENCY_BOUNDARIES,
    "repro_token_wait_seconds": DEFAULT_LATENCY_BOUNDARIES,
    "repro_container_start_seconds": DEFAULT_LATENCY_BOUNDARIES,
    "repro_reconcile_duration_seconds": DEFAULT_LATENCY_BOUNDARIES,
    "repro_informer_lag_revisions": LAG_BOUNDARIES,
    "repro_federation_place_seconds": DEFAULT_LATENCY_BOUNDARIES,
}


class HistogramInstruments:
    """Routes instrumentation signals into the registry's histograms.

    Wired by :class:`~repro.obs.runtime.ObsHub` in two ways: as the
    tracer's ``on_end`` callback (span-shaped seams: reconciles, token
    waits, container starts, journey roots) and called directly from
    hooks that know a latency without owning a span (decision commits,
    federation placements, sampler-observed informer lag).
    """

    def __init__(self, registry: MetricsRegistry, window: float = 10.0) -> None:
        self.registry = registry
        self.window = window
        #: (family, *label items) -> (rendered registry key, boundaries).
        self._names: Dict[tuple, Tuple[str, Tuple[float, ...]]] = {}

    def observe(self, family: str, t: float, value: float, **labels: object) -> None:
        key = (family, *labels.items())
        entry = self._names.get(key)
        if entry is None:
            entry = self._names[key] = (
                metric(family, **labels),
                HISTOGRAM_FAMILIES.get(family, DEFAULT_LATENCY_BOUNDARIES),
            )
        name, boundaries = entry
        self.registry.observe(name, t, value, boundaries=boundaries, window=self.window)

    # -- span-shaped seams --------------------------------------------------
    def on_span_end(self, span) -> None:
        """Tracer ``on_end`` callback: map a freshly closed span onto a
        histogram family (or none — most spans are trace-only)."""
        name = span.name
        end = span.end
        if name == "reconcile":
            self.observe(
                "repro_reconcile_duration_seconds",
                end,
                span.duration,
                controller=span.track,
            )
        elif name == "token.wait":
            self.observe("repro_token_wait_seconds", end, span.duration)
        elif name == "container.start":
            self.observe("repro_container_start_seconds", end, span.duration)
        elif name.startswith("sharepod ") and span.status == "ok":
            # The journey root closes "ok" exactly when the mirror Pod
            # reaches Running: created -> Running end to end.
            self.observe("repro_sharepod_journey_seconds", end, span.duration)

    # -- direct seams -------------------------------------------------------
    def algo1_pass(self, t: float, latency: float) -> None:
        self.observe("repro_algo1_pass_seconds", t, latency)

    def schedule_latency(self, t: float, latency: float) -> None:
        self.observe("repro_sharepod_schedule_seconds", t, latency)

    def federation_place(self, t: float, latency: float) -> None:
        self.observe("repro_federation_place_seconds", t, latency)

    def informer_lag(self, t: float, lag: float, controller: str) -> None:
        self.observe("repro_informer_lag_revisions", t, lag, controller=controller)

    def to_dicts(self) -> Dict[str, Dict[str, object]]:
        return {
            name: hist.to_dict()
            for name, hist in sorted(self.registry.histograms.items())
        }
