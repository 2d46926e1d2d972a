"""Process-wide metric registry: counters and log-bucket histograms.

Where the tracer (:mod:`repro.obs.tracer`) records *what happened when*
— a timeline of spans — this module records *how the run is doing right
now*: monotonic counters (trials executed) and fixed-log-bucket
histograms (per-point wall time, MC batch latency). The live status
snapshotter (:mod:`repro.obs.live`) ships
:meth:`MetricsRegistry.snapshot` dicts from campaign workers to the
parent on every heartbeat and folds them into ``status.json``, so a
long-running campaign exposes its latency distribution *while* it runs
instead of only in the post-hoc trace report.

The enablement contract is the tracer's, exactly: a process global that
defaults to ``None``. Counters are bumped through
:func:`repro.obs.counter`, which feeds the active tracer and the active
registry, one branch each when they are off — the budget the ``<5%``
disabled-overhead guard in ``tests/test_obs.py`` enforces. The two
stores stay separate: the tracer flushes crash-safe per-trace deltas,
while a registry keeps one cumulative snapshot per campaign board.

Histograms use *fixed* log-spaced buckets (``per_decade`` buckets per
factor of 10 between ``lo`` and ``hi``) rather than adaptive ones so
that snapshots taken at different times — or in different processes —
are always mergeable by summing bucket counts. Quantiles read off the
bucket edges are upper bounds accurate to one bucket width (~78% per
bucket at the default 4/decade), which is plenty for a progress view.

Quick use::

    from repro import obs
    from repro.obs import metrics

    with metrics.use_registry(metrics.MetricsRegistry()) as reg:
        reg.observe("point.wall_s", 0.31)
        obs.counter("trials", 500)
    snap = reg.snapshot()          # JSON-safe, mergeable
    merged = metrics.merge_snapshots([snap, other_snap])
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

from repro.obs.tracer import thread_abandoned

#: Default histogram range: 100 us .. 10^4 s, 4 buckets per decade.
DEFAULT_LO = 1e-4
DEFAULT_HI = 1e4
DEFAULT_PER_DECADE = 4


class Histogram:
    """Fixed log-bucket histogram of positive samples.

    Bucket ``k`` holds samples with ``lo * 10**(k/per_decade) <= x <
    lo * 10**((k+1)/per_decade)``; samples below ``lo`` land in bucket
    0, samples at or above ``hi`` in the last bucket. Because the edges
    are a function of ``(lo, hi, per_decade)`` alone, any two
    histograms with the same geometry merge by summing counts —
    the property the multi-process status snapshots rely on.
    """

    __slots__ = ("lo", "hi", "per_decade", "n_buckets", "counts",
                 "n", "total", "min", "max")

    def __init__(self, lo=DEFAULT_LO, hi=DEFAULT_HI,
                 per_decade=DEFAULT_PER_DECADE):
        self.lo = float(lo)
        self.hi = float(hi)
        self.per_decade = int(per_decade)
        self.n_buckets = max(1, int(math.ceil(
            (math.log10(self.hi) - math.log10(self.lo))
            * self.per_decade)))
        self.counts = [0] * self.n_buckets
        self.n = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        """Record one sample (non-finite and non-positive clamp low)."""
        value = float(value)
        if not math.isfinite(value):
            return
        if value <= self.lo:
            index = 0
        else:
            index = int(math.log10(value / self.lo) * self.per_decade)
            if index >= self.n_buckets:
                index = self.n_buckets - 1
        self.counts[index] += 1
        self.n += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def edge(self, index):
        """Upper edge of bucket ``index`` (a quantile upper bound)."""
        return self.lo * 10.0 ** ((index + 1) / self.per_decade)

    def quantile(self, q):
        """Upper-bound estimate of the ``q``-quantile from the buckets."""
        if not self.n:
            return None
        rank = q * self.n
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return min(self.edge(index),
                           self.max if self.max is not None else
                           self.edge(index))
        return self.max

    @property
    def mean(self):
        """Exact mean of observed values (None before any observe)."""
        return self.total / self.n if self.n else None

    def snapshot(self):
        """JSON-safe cumulative state (sparse buckets)."""
        return {
            "lo": self.lo, "hi": self.hi, "per_decade": self.per_decade,
            "n": self.n, "total": self.total,
            "min": self.min, "max": self.max,
            "buckets": {str(i): c for i, c in enumerate(self.counts)
                        if c},
        }

    @classmethod
    def from_snapshot(cls, snap):
        hist = cls(snap.get("lo", DEFAULT_LO), snap.get("hi", DEFAULT_HI),
                   snap.get("per_decade", DEFAULT_PER_DECADE))
        hist.n = int(snap.get("n") or 0)
        hist.total = float(snap.get("total") or 0.0)
        hist.min = snap.get("min")
        hist.max = snap.get("max")
        for index, count in (snap.get("buckets") or {}).items():
            index = int(index)
            if 0 <= index < hist.n_buckets:
                hist.counts[index] += int(count)
        return hist

    def merge(self, other):
        """Fold another histogram (or snapshot) of the same geometry in."""
        if isinstance(other, dict):
            other = Histogram.from_snapshot(other)
        if (other.lo, other.hi, other.per_decade) != \
                (self.lo, self.hi, self.per_decade):
            raise ValueError("cannot merge histograms with different "
                             "bucket geometry")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.n += other.n
        self.total += other.total
        for bound in (other.min,):
            if bound is not None:
                self.min = bound if self.min is None else min(self.min,
                                                              bound)
        for bound in (other.max,):
            if bound is not None:
                self.max = bound if self.max is None else max(self.max,
                                                              bound)
        return self


class MetricsRegistry:
    """Thread-safe registry of named counters and histograms.

    All mutation goes through :meth:`count` / :meth:`observe`, both of
    which drop what an abandoned thread records (as the tracer does);
    :meth:`snapshot` returns a JSON-safe cumulative dict that
    :func:`merge_snapshots` can fold across processes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._histograms = {}

    def count(self, name, n=1):
        """Add ``n`` to the monotonic counter ``name``."""
        if thread_abandoned():
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name, value, lo=DEFAULT_LO, hi=DEFAULT_HI,
                per_decade=DEFAULT_PER_DECADE):
        """Record ``value`` into histogram ``name`` (created on first use)."""
        if thread_abandoned():
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(lo, hi,
                                                          per_decade)
            hist.observe(value)

    def histogram(self, name):
        """The named :class:`Histogram`, or ``None``."""
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self):
        """Cumulative JSON-safe state of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "histograms": {name: h.snapshot()
                               for name, h in self._histograms.items()},
            }


def merge_snapshots(snapshots):
    """Fold per-process cumulative snapshots into one combined view.

    Counters and histogram buckets sum. Returns a snapshot-shaped dict.
    """
    counters, histograms = {}, {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, hsnap in (snap.get("histograms") or {}).items():
            if name in histograms:
                histograms[name].merge(hsnap)
            else:
                histograms[name] = Histogram.from_snapshot(hsnap)
    return {
        "counters": counters,
        "histograms": {name: h.snapshot()
                       for name, h in histograms.items()},
    }


def histogram_summary(hsnap):
    """``{"n", "mean", "p50", "p90", "max"}`` for one snapshot dict."""
    hist = Histogram.from_snapshot(hsnap)
    return {
        "n": hist.n,
        "mean": hist.mean,
        "p50": hist.quantile(0.5),
        "p90": hist.quantile(0.9),
        "max": hist.max,
    }


# -- process-global dispatch (the tracer contract) ---------------------------

#: The process-wide active registry; ``None`` means metrics are off.
_REGISTRY = None


def current_registry():
    """The active :class:`MetricsRegistry`, or ``None`` when disabled."""
    return _REGISTRY


def set_registry(registry):
    """Install ``registry`` process-wide (``None`` disables metrics)."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


@contextmanager
def use_registry(registry):
    """Install ``registry`` for the block, then restore the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    try:
        yield registry
    finally:
        _REGISTRY = previous
