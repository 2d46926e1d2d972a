"""Trace persistence: per-process JSONL files and the parent-side merge.

Each traced process appends to its own file under
``results/<campaign>/trace/`` (``main-<pid>.jsonl`` for the
orchestrating process, ``worker-<pid>.jsonl`` for queue workers), so no
two processes ever write the same file — which is what makes tracing
safe under the ``spawn`` start method, where workers share nothing with
the parent. After the workers exit the parent calls
:func:`merge_trace_dir` to fold every part file into a single
``trace.jsonl`` ordered by wall-clock time, which is what ``repro
trace report`` reads.

Events are plain JSON objects (see :mod:`repro.obs.tracer` for the
schema). Values are sanitised the same way the results store sanitises
metrics: non-finite floats become ``null`` and numpy scalars are
coerced, so a stray ``nan`` attribute can never corrupt the file.
"""

from __future__ import annotations

import glob
import json
import math
import os

from repro.errors import ConfigurationError
from repro.utils.fileio import write_atomic

#: Name of the merged, report-ready trace inside a trace directory.
MERGED_TRACE_FILE = "trace.jsonl"


def _json_safe(value):
    """Copy ``value`` with non-JSON leaves coerced or nulled."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool, type(None))):
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    # numpy scalars (and anything else numeric) coerce; the rest stringify.
    try:
        return _json_safe(float(value))
    except (TypeError, ValueError):
        return str(value)


class TraceWriter:
    """Append-only JSONL sink for one process's trace events."""

    def __init__(self, path):
        self.path = os.fspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def write(self, events):
        """Append ``events`` (dicts) as one line each."""
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_encode_events(events))


def _encode_events(events):
    """``events`` as newline-terminated JSON lines ("" for none)."""
    return "".join(json.dumps(_json_safe(e), sort_keys=True,
                              allow_nan=False) + "\n" for e in events)


def read_trace(path):
    """Parse a trace JSONL file into a list of event dicts.

    Torn tail lines (a process killed mid-append) and non-object lines
    are skipped, mirroring the results store's tolerance.
    """
    if not os.path.exists(path):
        raise ConfigurationError(
            f"no trace file at {path!r} (run with --trace first?)"
        )
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and event.get("type"):
                events.append(event)
    return events


def part_path(trace_dir, role="main", pid=None):
    """The per-process part file for ``role`` in ``trace_dir``."""
    pid = os.getpid() if pid is None else int(pid)
    return os.path.join(os.fspath(trace_dir), f"{role}-{pid}.jsonl")


def reset_trace_dir(trace_dir):
    """Create ``trace_dir`` and delete any earlier run's trace files.

    Each traced run owns the directory outright: stale part files from
    a previous (possibly crashed) run would otherwise be merged into
    the new trace as ghost events.
    """
    trace_dir = os.fspath(trace_dir)
    os.makedirs(trace_dir, exist_ok=True)
    for path in glob.glob(os.path.join(trace_dir, "*.jsonl")):
        os.remove(path)
    return trace_dir


def merge_trace_dir(trace_dir, remove_parts=True, fold_existing=False):
    """Fold every part file in ``trace_dir`` into ``trace.jsonl``.

    Events are ordered by wall-clock start time (ties broken by pid and
    per-process sequence number) so the merged file reads as one
    timeline. Returns ``(merged_path, events)``. Part files are removed
    after a successful merge unless ``remove_parts=False``.

    With ``fold_existing=True`` an already-merged ``trace.jsonl`` is
    read back and folded in alongside the new part files — the resume
    path: a resumed campaign appends its spans to the interrupted run's
    trace instead of replacing it.

    The merged file is replaced atomically
    (:func:`~repro.utils.fileio.write_atomic`) before any part is
    removed, so a kill mid-merge keeps the previous trace and the parts.
    """
    trace_dir = os.fspath(trace_dir)
    merged = os.path.join(trace_dir, MERGED_TRACE_FILE)
    parts = sorted(p for p in glob.glob(os.path.join(trace_dir, "*.jsonl"))
                   if os.path.basename(p) != MERGED_TRACE_FILE)
    if not parts and os.path.exists(merged):
        # Nothing new to fold in (e.g. a re-merge after the parts were
        # already consumed): keep the existing merged trace intact.
        return merged, read_trace(merged)
    events = []
    if fold_existing and os.path.exists(merged):
        events.extend(read_trace(merged))
    for part in parts:
        events.extend(read_trace(part))
    events.sort(key=lambda e: (e.get("t_wall") or 0.0,
                               e.get("pid") or 0, e.get("seq") or 0))
    # Replace, not extend, a pre-existing merged file.
    write_atomic(merged, _encode_events(events).encode("utf-8"))
    if remove_parts:
        for part in parts:
            os.remove(part)
    return merged, events
