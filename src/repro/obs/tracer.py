"""The tracer: nestable spans, counters, and a near-zero no-op path.

A :class:`Tracer` records two event types:

**Spans** — named, attributed intervals with a parent/child structure.
``tracer.span("mc.run_grid", target="per")`` opens a span; spans
opened while another is active nest under it (the active-span stack is
thread-local, so a point function running on a timeout thread nests
correctly). Closing a span stamps its duration and hands it to the
writer; when the *top-level* span of a thread closes, everything
buffered since — child spans and counter deltas — is flushed to disk in
one append, so a worker that dies mid-campaign loses at most the point
it was running.

**Counters** — monotonically accumulating named totals
(``tracer.counter("mc.trials", 500)``). Counters are cheap in-memory
increments; they reach the trace file as *delta* events at each flush
and are summed back at read time.

The module-level API in :mod:`repro.obs` dispatches through a process
global that defaults to ``None``: with tracing disabled,
``obs.span(...)`` returns a shared immutable no-op and ``obs.counter``
is a single attribute test — the instrumented hot paths pay one branch,
not an allocation (guarded by the overhead test in
``tests/test_obs.py``).
"""

from __future__ import annotations

import os
import threading
import time


class NullSpan:
    """Shared no-op span returned when tracing is disabled.

    Stateless and re-entrant: the same instance can be "entered" from
    any number of ``with`` blocks on any number of threads at once.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        """Discard attributes (matches :meth:`Span.set`)."""


#: The singleton every disabled-path ``obs.span()`` call returns.
NULL_SPAN = NullSpan()

#: Idents of threads whose telemetry every store drops (see
#: :func:`repro.obs.abandon_thread`): timeout threads the campaign runner
#: abandoned keep executing (and emitting) after their point is already
#: recorded as ``timeout``, and without suppression those late events
#: would reach the trace and ``status.json`` as phantom campaign work.
ABANDONED_THREADS = set()


def thread_abandoned():
    """Truthy when the calling thread's telemetry is being dropped.

    One truth test while no thread is abandoned, the common case.
    """
    return ABANDONED_THREADS and threading.get_ident() in ABANDONED_THREADS


class Span:
    """One traced interval; use as a context manager.

    ``duration_s`` is valid after the ``with`` block exits, so a span
    doubles as a timer even for callers that only want the number.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "t_wall",
                 "duration_s", "_tracer", "_t0", "_suppressed")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = None
        self.parent_id = None
        self.t_wall = None
        self.duration_s = None
        self._suppressed = False

    def set(self, **attrs):
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self._tracer._open_span(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close_span(self)
        return False


class StopWatch:
    """Tiny context-manager timer: ``with StopWatch() as t: ...``.

    ``t.seconds`` is the elapsed time after the block (or so-far while
    still inside, via :attr:`elapsed`). This is the one sanctioned way
    to measure wall time in this repo — it replaces hand-rolled
    ``start = time.perf_counter()`` pairs and works identically whether
    tracing is enabled or not.
    """

    __slots__ = ("_t0", "seconds")

    def __enter__(self):
        self.seconds = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self._t0
        return False

    @property
    def elapsed(self):
        """Seconds since entry (usable while the block is still open)."""
        return time.perf_counter() - self._t0


class Tracer:
    """Collects spans and counters; optionally persists them as JSONL.

    Parameters
    ----------
    writer : TraceWriter or None
        Event sink. ``None`` keeps everything in memory — spans still
        aggregate into :meth:`summary`, which is what ``repro link
        --trace`` prints without touching disk.
    """

    def __init__(self, writer=None):
        self.writer = writer
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0
        self._buffer = []
        self._retained = []
        self._counters = {}
        self._pending = {}
        self._span_stats = {}

    # -- recording -----------------------------------------------------------

    def span(self, name, **attrs):
        """A new (not yet entered) :class:`Span` under the current one."""
        return Span(self, name, attrs)

    def counter(self, name, n=1):
        """Add ``n`` to the named counter (thread-safe)."""
        if thread_abandoned():
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            self._pending[name] = self._pending.get(name, 0) + n

    def event(self, name, duration_s=0.0, **attrs):
        """Record an already-measured span in one call.

        For intervals the caller timed itself — e.g. the campaign
        runner's submit-to-finish latency of a queued point, which no
        single ``with`` block can bracket because many points are in
        flight at once. The event nests under the calling thread's
        current span.
        """
        if thread_abandoned():
            return
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        with self._lock:
            self._seq += 1
            record = {
                "type": "span",
                "name": name,
                "pid": self.pid,
                "seq": self._seq,
                "span_id": self._seq,
                "parent_id": parent,
                "t_wall": time.time(),
                "dur_s": float(duration_s),
                "attrs": dict(attrs),
            }
            self._note_span(name, float(duration_s))
            self._buffer.append(record)
            if not stack:
                self._flush_locked()

    # -- span lifecycle (called by Span) -------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open_span(self, span):
        if thread_abandoned():
            span._suppressed = True
            return
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else None
        span.t_wall = time.time()
        with self._lock:
            self._seq += 1
            span.span_id = self._seq
        stack.append(span)

    def _close_span(self, span):
        if span._suppressed:
            return
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exited out of order; drop it and its orphans
            del stack[stack.index(span):]
        if thread_abandoned():
            # Opened before the abandonment, closing after: the stack is
            # unwound above but the record is dropped and — critically —
            # the empty-stack flush is NOT triggered, so an abandoned
            # thread's top-level span closing late cannot push phantom
            # events (or buffered counter deltas) into the trace file.
            return
        with self._lock:
            self._note_span(span.name, span.duration_s)
            self._buffer.append({
                "type": "span",
                "name": span.name,
                "pid": self.pid,
                "seq": span.span_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "t_wall": span.t_wall,
                "dur_s": span.duration_s,
                "attrs": dict(span.attrs),
            })
            if not stack:
                self._flush_locked()

    def _note_span(self, name, duration_s):
        stats = self._span_stats.get(name)
        if stats is None:
            stats = self._span_stats[name] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration_s
        stats[2] = max(stats[2], duration_s)

    # -- output --------------------------------------------------------------

    def _flush_locked(self):
        if self._pending:
            now = time.time()
            for name in sorted(self._pending):
                self._seq += 1
                self._buffer.append({
                    "type": "counter",
                    "name": name,
                    "pid": self.pid,
                    "seq": self._seq,
                    "t_wall": now,
                    "value": self._pending[name],
                })
            self._pending = {}
        if self.writer is not None:
            if self._buffer:
                self.writer.write(self._buffer)
        else:
            # No sink: retain in memory so drain() can hand events back
            # (how the tests — and any embedding caller — read a trace
            # without touching disk).
            self._retained.extend(self._buffer)
        self._buffer = []

    def drain(self):
        """Return and clear every retained event (flushing first).

        Only a writer-less tracer retains events; with a
        :class:`~repro.obs.writer.TraceWriter` attached they go to disk
        and this returns ``[]`` — read the file back instead.
        """
        with self._lock:
            self._flush_locked()
            events, self._retained = self._retained, []
        return events

    def flush(self):
        """Force pending spans and counter deltas out to the writer."""
        with self._lock:
            self._flush_locked()

    def summary(self):
        """Aggregated telemetry for programmatic use.

        Returns ``{"spans": {name: {"count", "total_s", "max_s"}},
        "counters": {name: total}}`` built from this process's tracer
        memory — no trace file needed, so it works for in-memory
        tracers too (``repro link --trace`` renders exactly this).
        """
        with self._lock:
            return {
                "spans": {
                    name: {"count": c, "total_s": t, "max_s": m}
                    for name, (c, t, m) in sorted(self._span_stats.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }
