"""Streaming histogram mechanics: Prometheus bucket semantics, exact
per-window percentiles, and registry integration."""

import pytest

from repro.metrics.collector import (
    DEFAULT_LATENCY_BOUNDARIES,
    Histogram,
    MetricsRegistry,
)


class TestBuckets:
    def test_le_semantics_are_inclusive(self):
        h = Histogram(boundaries=(1.0, 2.0))
        h.observe(0.0, 1.0)  # == bound -> first bucket
        h.observe(0.0, 1.5)
        h.observe(0.0, 9.0)  # overflow -> +Inf
        assert h.bucket_counts == [1, 1, 1]
        assert h.cumulative_le(1.0) == 1
        assert h.cumulative_le(2.0) == 2
        assert h.count == 3
        assert h.sum == pytest.approx(11.5)

    def test_cumulative_le_rejects_non_boundaries(self):
        h = Histogram(name="repro_x_seconds", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError, match="not a bucket boundary"):
            h.cumulative_le(1.5)

    def test_boundaries_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram(boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(boundaries=())

    def test_time_must_be_monotonic(self):
        h = Histogram()
        h.observe(5.0, 0.1)
        h.observe(5.0, 0.1)  # same instant fine
        with pytest.raises(ValueError, match="backwards"):
            h.observe(4.0, 0.1)


class TestPercentiles:
    def test_exact_nearest_rank(self):
        h = Histogram(boundaries=(100.0,))
        for i in range(1, 101):
            h.observe(float(i), float(i))
        assert h.percentile(0.50) == 50.0
        assert h.percentile(0.95) == 95.0
        assert h.percentile(0.99) == 99.0
        assert h.percentile(1.0) == 100.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.5) == 0.0


class TestWindows:
    def test_windows_align_to_virtual_time_grid(self):
        h = Histogram(boundaries=(10.0,), window=10.0)
        h.observe(1.0, 1.0)
        h.observe(9.0, 3.0)
        h.observe(12.0, 5.0)  # rolls the [0, 10) window closed
        assert len(h.windows) == 1
        win = h.windows[0]
        assert (win["start"], win["end"], win["count"]) == (0.0, 10.0, 2)
        assert win["p50"] == 1.0 and win["max"] == 3.0

    def test_gap_skips_empty_windows(self):
        h = Histogram(boundaries=(10.0,), window=10.0)
        h.observe(1.0, 1.0)
        h.observe(55.0, 2.0)  # nothing recorded for [10,50)
        assert [w["start"] for w in h.windows] == [0.0]
        d = h.to_dict()
        # The open [50, 60) window is included non-destructively.
        assert [w["start"] for w in d["windows"]] == [0.0, 50.0]
        assert len(h.windows) == 1

    def test_to_dict_has_prometheus_and_percentile_views(self):
        h = Histogram(boundaries=(1.0,), window=10.0)
        h.observe(0.5, 0.5)
        d = h.to_dict()
        assert d["boundaries"] == [1.0]
        assert d["bucket_counts"] == [1, 0]
        assert d["count"] == 1 and d["sum"] == 0.5
        assert d["p50"] == 0.5 and d["p99"] == 0.5 and d["max"] == 0.5
        assert d["samples_dropped"] == 0

    def test_sample_cap_drops_but_keeps_counts(self):
        h = Histogram(boundaries=(10.0,), max_samples=2)
        for i in range(5):
            h.observe(float(i), 1.0)
        assert h.count == 5
        assert h.samples_dropped == 3


class TestRegistry:
    def test_get_or_create_and_observe(self):
        reg = MetricsRegistry()
        reg.observe("repro_x_seconds", 1.0, 0.2, boundaries=(1.0, 2.0))
        reg.observe("repro_x_seconds", 2.0, 1.5)
        h = reg.histogram("repro_x_seconds")
        assert h.count == 2
        assert h.bucket_counts == [1, 1, 0]

    def test_conflicting_boundaries_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("repro_x_seconds", boundaries=(1.0,))
        with pytest.raises(ValueError, match="different boundaries"):
            reg.histogram("repro_x_seconds", boundaries=(2.0,))
        # Observations through the validate-once path do not switch the
        # check off for a different restatement.
        bounds = (1.0,)
        for t in range(3):
            reg.observe("repro_x_seconds", float(t), 0.5, boundaries=bounds)
        with pytest.raises(ValueError, match="different boundaries"):
            reg.observe("repro_x_seconds", 3.0, 0.5, boundaries=(1.0, 2.0))
        # Equal boundaries restated as a list are accepted.
        assert reg.histogram("repro_x_seconds", boundaries=[1]) is reg.histogram(
            "repro_x_seconds"
        )
        assert reg.histograms["repro_x_seconds"].count == 3

    def test_default_boundaries_include_slo_thresholds(self):
        # The default SLO thresholds must be exact bucket boundaries so
        # "good" reads straight off the cumulative counts.
        assert 10.0 in DEFAULT_LATENCY_BOUNDARIES
        assert 30.0 in DEFAULT_LATENCY_BOUNDARIES
