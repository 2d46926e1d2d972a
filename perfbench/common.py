"""Helpers shared by the workloads: seeded streams, quantiles, timing."""

from __future__ import annotations

import statistics
import time

import numpy as np

perf = time.perf_counter


def stream(seed, workload_tag):
    """The workload's own generator: depends on the seed argument only."""
    return np.random.default_rng([int(seed), int(workload_tag)])


def draw_seed(rng):
    """A child seed for one library call, drawn from the workload stream."""
    return int(rng.integers(0, 2 ** 31 - 1))


def median(values):
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


# About one speed probe's duration on a 2-core x86-64 VM (Python 3.11)
# while no other tenant loads its cores. It only sets the scale of
# converted times.
PROBE_REFERENCE_S = 0.0007


def _probe_once():
    """Seconds for a fixed pure-Python loop.

    The library's hot paths are interpreter-bound (many numpy calls on
    small arrays). On the host this was tuned on, converting link-grid
    calls with this probe cut their spread between repeats from 0.14-0.21
    to 0.08 of the median, more than probes that add numpy array work.
    """
    t0 = perf()
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    return perf() - t0


class HostClock:
    """Converts measured seconds into seconds of the reference host.

    The shared hosts this benchmark runs on change speed by up to 2x,
    for seconds or for minutes at a time, as other tenants load the same
    cores (CPU time moves with wall time, so it is not scheduling). Raw
    times of identical work then differ between runs by more than any
    useful bound. So every timed piece of work is followed by a speed
    probe (median of three passes of :func:`_probe_once`), and its time
    is divided by the mean slowdown of the probes before and after it
    against :data:`PROBE_REFERENCE_S`. The probe calls no library code,
    so a library change moves converted times as much as raw ones.
    """

    def __init__(self):
        self.slowdowns = []
        self._last = self._probe()

    @staticmethod
    def _probe():
        return statistics.median(_probe_once() for _ in range(3))

    def convert(self, seconds):
        """``seconds`` just measured, in reference-host seconds."""
        before, self._last = self._last, self._probe()
        slowdown = (before + self._last) / (2.0 * PROBE_REFERENCE_S)
        self.slowdowns.append(slowdown)
        return seconds / slowdown


def tail(values, beyond=10):
    """``(value, percentile)`` of the highest order statistic that still
    has at least ``beyond`` samples above it (the maximum when there are
    too few samples)."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return float(xs[-1]), 100.0
    return float(xs[n - beyond - 1]), 100.0 * (n - beyond) / n


def quantile(values, q):
    """Linear-interpolated ``q``-quantile (0 for no values)."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


class Workload:
    """Shared bookkeeping: operation counts and failed checks.

    A workload is built from ``(seed, scale, workdir)``, runs
    :meth:`setup` several times and :meth:`run_round` until the time is
    up, then reports :meth:`end_to_end`, :meth:`layer_extras` and
    :meth:`digest`. ``attempted``/``failed`` count the operations of the
    untraced and traced rounds; ``problems`` lists failed output checks;
    ``clock`` converts the workload's timings to reference-host seconds.
    """

    name = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.clock = HostClock()

    def check(self, ok, message):
        """Record ``message`` as a failed check unless ``ok``."""
        if not ok and message not in self.problems:
            self.problems.append(message)

    def run_round(self, traced):
        """One round of the workload's fixed work (implemented by each)."""
        raise NotImplementedError
