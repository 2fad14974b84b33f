"""Metric collection primitives: time series, counters, gauges, histograms."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TimeSeries", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BOUNDARIES"]

#: Prometheus-style latency bucket upper bounds (seconds). 10.0 doubles as
#: the default schedule-latency SLO threshold, so the SLO engine can read
#: good/total straight off the cumulative bucket counts.
DEFAULT_LATENCY_BOUNDARIES: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


@dataclass
class TimeSeries:
    """An append-only (time, value) series with numpy views."""

    name: str = ""
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(f"time went backwards: {t} < {self.times[-1]}")
        self.times.append(float(t))
        self.values.append(float(v))

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.values)

    # -- summaries --------------------------------------------------------
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else 0.0

    def max(self) -> float:
        return float(np.max(self.values)) if self.values else 0.0

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def window_mean(self, t0: float, t1: float) -> float:
        """Mean of samples in the half-open window ``[t0, t1)``.

        ``t1`` is exclusive so adjacent windows partition the samples: a
        sample recorded exactly at ``t1`` belongs to the next window,
        never to both. An empty window yields 0.0.
        """
        if t1 < t0:
            raise ValueError(f"window ends before it starts: [{t0}, {t1})")
        t, v = self.as_arrays()
        mask = (t >= t0) & (t < t1)
        return float(np.mean(v[mask])) if mask.any() else 0.0

    def resample(self, step: float) -> "TimeSeries":
        """Bucket-average onto a regular grid (for plotting/comparison).

        Buckets are the half-open intervals ``[start + i*step,
        start + (i+1)*step)`` anchored at the first sample. Bucket indices
        come from a direct floor division (not from float-accumulated
        edges), so a sample sitting exactly on an edge always lands in the
        bucket it opens, and the final partial bucket is averaged exactly
        like every full one instead of merging into its neighbour when
        ``end - start`` is a multiple of ``step``.
        """
        if step <= 0:
            raise ValueError("step must be > 0")
        out = TimeSeries(name=self.name)
        if not self.times:
            return out
        t, v = self.as_arrays()
        start = t[0]
        # The 1e-9 nudge snaps samples that float error left a hair below
        # an edge (e.g. (t-start)/step == 2.9999999999999996) up onto it.
        idx = np.floor((t - start) / step + 1e-9).astype(np.int64)
        for i in np.unique(idx):
            mask = idx == i
            out.record(float(start + i * step), float(v[mask].mean()))
        return out


class Histogram:
    """A streaming fixed-boundary histogram with Prometheus semantics.

    ``boundaries`` are inclusive upper bounds (``le``); an implicit +Inf
    bucket catches overflow, so ``bucket_counts`` has ``len(boundaries)+1``
    entries and cumulative counts reproduce the ``_bucket``/``_sum``/
    ``_count`` exposition exactly. On top of the bucketed view the
    histogram keeps exact per-window percentile summaries (window edges
    aligned to virtual time, ``[k*window, (k+1)*window)``) plus a capped
    reservoir of raw samples for exact whole-run p50/p95/p99 — enough to
    plot Fig 10-style latency CDFs without post-processing.

    Observation time must be monotonic (same instant allowed), matching
    :class:`TimeSeries`; values land purely by comparison, so identical
    observations always produce identical state — no wall clock, no
    randomness.
    """

    __slots__ = (
        "name", "boundaries", "bucket_counts", "sum", "count", "window",
        "windows", "samples_dropped", "_last_t", "_win_start", "_win_samples",
        "_samples", "_max_samples",
    )

    def __init__(
        self,
        name: str = "",
        boundaries: Sequence[float] = DEFAULT_LATENCY_BOUNDARIES,
        window: float = 10.0,
        max_samples: int = 100_000,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"boundaries must be strictly increasing: {bounds}")
        if window <= 0:
            raise ValueError("window must be > 0")
        self.name = name
        self.boundaries = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.window = float(window)
        #: closed per-window summaries (dicts with start/end/count/percentiles).
        self.windows: List[Dict[str, float]] = []
        self.samples_dropped = 0
        self._last_t: Optional[float] = None
        self._win_start: Optional[float] = None
        self._win_samples: List[float] = []
        self._samples: List[float] = []
        self._max_samples = max_samples

    def observe(self, t: float, v: float) -> None:
        t, v = float(t), float(v)
        if self._last_t is not None and t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._last_t = t
        if self._win_start is None:
            self._win_start = math.floor(t / self.window) * self.window
        elif t >= self._win_start + self.window:
            self._close_window()
            self._win_start = math.floor(t / self.window) * self.window
        self.bucket_counts[bisect_left(self.boundaries, v)] += 1
        self.sum += v
        self.count += 1
        self._win_samples.append(v)
        if len(self._samples) < self._max_samples:
            self._samples.append(v)
        else:
            self.samples_dropped += 1

    def _close_window(self) -> None:
        if self._win_samples and self._win_start is not None:
            self.windows.append(
                _window_summary(
                    self._win_start, self._win_start + self.window, self._win_samples
                )
            )
        self._win_samples = []

    # -- views -------------------------------------------------------------
    def cumulative_le(self, bound: float) -> int:
        """Observations ``<= bound``; ``bound`` must be a bucket boundary."""
        try:
            idx = self.boundaries.index(float(bound))
        except ValueError:
            raise ValueError(
                f"{bound} is not a bucket boundary of {self.name or 'histogram'}: "
                f"{self.boundaries}"
            ) from None
        return sum(self.bucket_counts[: idx + 1])

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over the retained raw samples."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def to_dict(self) -> Dict[str, object]:
        windows = list(self.windows)
        if self._win_samples and self._win_start is not None:
            # Include the still-open window so end-of-run snapshots never
            # silently drop the tail of the run.
            windows.append(
                _window_summary(
                    self._win_start, self._win_start + self.window, self._win_samples
                )
            )
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
            "window": self.window,
            "windows": windows,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": max(self._samples) if self._samples else 0.0,
            "samples_dropped": self.samples_dropped,
        }


def _window_summary(start: float, end: float, samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    n = len(ordered)

    def rank(q: float) -> float:
        return ordered[min(max(0, math.ceil(q * n) - 1), n - 1)]

    return {
        "start": start,
        "end": end,
        "count": n,
        "sum": math.fsum(ordered),
        "p50": rank(0.50),
        "p95": rank(0.95),
        "p99": rank(0.99),
        "max": ordered[-1],
    }


class MetricsRegistry:
    """A named bag of counters, time series, and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.series: Dict[str, TimeSeries] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: name -> the boundaries tuple last checked equal to the
        #: histogram's own, so a restating lookup validates once.
        self._checked: Dict[str, Sequence[float]] = {}

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def timeseries(self, name: str) -> TimeSeries:
        if name not in self.series:
            self.series[name] = TimeSeries(name=name)
        return self.series[name]

    def record(self, name: str, t: float, v: float) -> None:
        self.timeseries(name).record(t, v)

    def histogram(
        self,
        name: str,
        boundaries: Optional[Sequence[float]] = None,
        window: Optional[float] = None,
    ) -> Histogram:
        """Get-or-create; boundaries only apply on first creation and must
        match on later lookups that restate them."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(
                name=name,
                boundaries=boundaries or DEFAULT_LATENCY_BOUNDARIES,
                window=window if window is not None else 10.0,
            )
            self.histograms[name] = hist
        elif boundaries is not None and boundaries is not self._checked.get(name):
            if tuple(float(b) for b in boundaries) != hist.boundaries:
                raise ValueError(f"histogram {name!r} already exists with different boundaries")
            if isinstance(boundaries, tuple):
                # Only an immutable restatement may skip the next check.
                self._checked[name] = boundaries
        return hist

    def observe(
        self,
        name: str,
        t: float,
        v: float,
        boundaries: Optional[Sequence[float]] = None,
        window: Optional[float] = None,
    ) -> None:
        self.histogram(name, boundaries=boundaries, window=window).observe(t, v)
