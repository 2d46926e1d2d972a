"""Structured tracing, metrics, and run telemetry (``repro.obs``).

The observability layer every other subsystem leans on: the campaign
runner, the adaptive MC engine, the link/relay/coverage simulators and
the CLI all emit spans and counters through the module-level functions
here. With no tracer installed (the default) every call is a single
branch on a process global — simulation hot paths pay effectively
nothing (see the overhead guard in ``tests/test_obs.py``).

Quick use::

    from repro import obs

    with obs.use_tracer(obs.Tracer()) as tracer:
        with obs.span("my.phase", n=3) as sp:
            obs.counter("my.events", 3)
            sp.set(outcome="ok")
    print(obs.summary_table(tracer.summary()))

Persisted traces are per-process JSONL files merged by the parent (see
:mod:`repro.obs.writer`), rendered by ``repro trace report`` (see
:mod:`repro.obs.report`).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import metrics
from repro.obs import live
from repro.obs.live import STATUS_FILE, StatusBoard
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots
from repro.obs.report import (aggregate, summary_table, trace_report_lines)
from repro.obs.tracer import (ABANDONED_THREADS, NULL_SPAN, NullSpan, Span,
                              StopWatch, Tracer)
from repro.obs.writer import (MERGED_TRACE_FILE, TraceWriter,
                              merge_trace_dir, part_path, read_trace,
                              reset_trace_dir)

__all__ = [
    "Histogram",
    "MERGED_TRACE_FILE",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "STATUS_FILE",
    "Span",
    "StatusBoard",
    "StopWatch",
    "TraceWriter",
    "Tracer",
    "abandon_thread",
    "aggregate",
    "counter",
    "current_tracer",
    "enabled",
    "event",
    "live",
    "merge_snapshots",
    "merge_trace_dir",
    "metrics",
    "part_path",
    "read_trace",
    "reset_trace_dir",
    "revive_thread",
    "set_tracer",
    "span",
    "summary_table",
    "timed",
    "trace_report_lines",
    "use_tracer",
]

#: The process-wide active tracer; ``None`` means tracing is off.
_TRACER = None


def current_tracer():
    """The active :class:`Tracer`, or ``None`` when tracing is off."""
    return _TRACER


def enabled():
    """True when a tracer is installed (lets callers skip attr prep)."""
    return _TRACER is not None


def set_tracer(tracer):
    """Install ``tracer`` process-wide (``None`` disables tracing)."""
    global _TRACER
    _TRACER = tracer
    return tracer


@contextmanager
def use_tracer(tracer):
    """Install ``tracer`` for the block, then restore and flush.

    The idiom for scoped tracing — a traced CLI run, a campaign worker
    adopting its per-process tracer — because it guarantees the
    previous tracer (usually ``None``) comes back even on error, and
    that buffered events hit the writer before control returns.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    try:
        yield tracer
    finally:
        _TRACER = previous
        if tracer is not None:
            tracer.flush()


def span(name, **attrs):
    """Open a span on the active tracer (shared no-op when disabled)."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def counter(name, n=1):
    """Bump a counter on the active tracer and the active metrics registry.

    The repo's one counter call: each store costs one branch when off.
    """
    tracer = _TRACER
    if tracer is not None:
        tracer.counter(name, n)
    registry = metrics._REGISTRY
    if registry is not None:
        registry.count(name, n)


def event(name, duration_s=0.0, **attrs):
    """Record a pre-measured span on the active tracer (see Tracer.event)."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, duration_s, **attrs)


def timed():
    """A :class:`StopWatch` — the repo's one wall-time measuring tool."""
    return StopWatch()


def abandon_thread(ident):
    """Suppress all future telemetry from thread ``ident``.

    The campaign runner calls this when it abandons a timed-out point's
    daemon thread: the thread cannot be killed and keeps executing —
    and emitting — but its point is already recorded as ``timeout``, so
    anything it says from now on would corrupt the trace and the
    metrics registry behind ``status.json``. Both drop it.
    """
    ABANDONED_THREADS.add(ident)


def revive_thread(ident):
    """Clear any suppression left on a (reused) thread ident.

    New worker threads call this first thing: thread idents are
    recycled by the OS, so a fresh thread may inherit the suppression
    of an abandoned predecessor with the same ident.
    """
    if ABANDONED_THREADS:
        ABANDONED_THREADS.discard(ident)
