"""Live campaign telemetry: the ``status.json`` snapshotter.

While a campaign runs, the orchestrating process keeps an atomic,
always-parseable ``results/<name>/status.json``: done /
running / failed / cached point counts, per-worker heartbeats with
last-seen ages, an EWMA throughput estimate with an ETA, stall
detection, and merged :mod:`repro.obs.metrics` snapshots (per-point
wall-time and MC batch-latency histograms). ``repro campaign watch``
tails this file; the future ``campaign serve`` HTTP API will serve the
same document.

The :class:`StatusBoard` is owned by the campaign runner. Backends feed
it:

* every completed point (``point_done``) updates the counts and the
  throughput EWMA;
* ``local-queue`` workers send a heartbeat message on a fixed cadence
  (carrying their cumulative metrics snapshot, and flushing their
  tracer's in-flight counter deltas to disk at the same time), which
  lands in ``worker_heartbeat`` — so a worker grinding through one long
  point is visibly alive, not indistinguishable from a hung one;
* a worker death with leased work outstanding (``worker_dead``) is
  flagged as a *stall* and written at once: the lease outlived its
  owner's heartbeats and was forfeited back to the queue.

The file is written by a background ticker thread every heartbeat
interval, the first one heartbeat into the run, and once more at the
end (``finish``); a run shorter than one heartbeat writes it once.
Writes are atomic (:func:`repro.utils.fileio.write_atomic`: a hidden
temp file swapped into place with ``renameat2(RENAME_EXCHANGE)``): a
reader sees the old or the new complete document, never a torn one,
and a run killed at any instant leaves the last complete snapshot
behind — the previous run's, if the kill lands inside the first
heartbeat. The file is not fsynced. Records and resume do not depend
on it.

Stall detection: an *alive* worker whose last heartbeat is older than
``stall_after_s`` (default ``STALL_AFTER_BEATS`` heartbeat intervals)
is flagged ``stalled`` — its leases have outlived the heartbeat window.
The flag clears if the worker resumes beating; a reaped dead worker's
forfeited leases increment ``stalls_detected`` permanently.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.writer import _json_safe
from repro.utils.fileio import write_atomic

#: Name of the live status document inside a campaign directory.
STATUS_FILE = "status.json"

#: Default worker heartbeat cadence (seconds); override with
#: ``REPRO_HEARTBEAT_S`` or ``run_campaign(heartbeat_s=...)``.
DEFAULT_HEARTBEAT_S = 1.0

#: A lease whose worker has been silent this many heartbeat intervals
#: is considered stalled.
STALL_AFTER_BEATS = 5.0

#: Throughput EWMA time constant (seconds).
EWMA_TAU_S = 10.0


def default_heartbeat_s():
    """The heartbeat cadence: ``$REPRO_HEARTBEAT_S`` or the default."""
    raw = os.environ.get("REPRO_HEARTBEAT_S")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return DEFAULT_HEARTBEAT_S


def status_path(campaign_dir):
    """The status document for a campaign directory."""
    return os.path.join(os.fspath(campaign_dir), STATUS_FILE)


def write_json_atomic(path, document):
    """Write ``document`` as JSON with :func:`~repro.utils.fileio.write_atomic`.

    A concurrent reader sees either the previous complete document or
    the new one — never a truncated file, whatever instant the writer
    is killed at. Each call writes its own temp file, so two threads
    snapshotting at once each swap in a complete document.
    """
    data = json.dumps(_json_safe(document), sort_keys=True,
                      allow_nan=False) + "\n"
    return write_atomic(path, data.encode("utf-8"))


def read_status(path):
    """Parse a status document; raises ConfigurationError when absent."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ConfigurationError(
            f"no live status at {path!r} — was the campaign run with a "
            "results store?"
        )
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class StatusBoard:
    """Aggregates live run state and snapshots it to ``status.json``.

    Thread-safe: the runner's finish path, the queue control loop and
    the ticker thread all feed one board. ``path=None`` keeps the board
    purely in memory (``snapshot()`` still works), which is how
    store-less runs and unit tests use it. ``backend`` names the path
    the runner took — ``inline`` or ``local-queue`` — for the status
    document; ``None`` (unknown) renders as ``?``.
    """

    def __init__(self, path, campaign, total, workers=1, backend=None,
                 heartbeat_s=None, stall_after_s=None, registry=None):
        self.path = os.fspath(path) if path is not None else None
        self.campaign = campaign
        self.heartbeat_s = float(heartbeat_s or default_heartbeat_s())
        self.stall_after_s = float(
            stall_after_s
            if stall_after_s is not None
            else STALL_AFTER_BEATS * self.heartbeat_s)
        #: The parent process's own registry (merged into snapshots).
        self.registry = registry
        self._lock = threading.Lock()
        self._t_start = time.time()
        self._m_start = time.monotonic()
        self._state = "running"
        self._total = int(total)
        self._backend = backend
        self._workers_target = int(workers)
        self._done = 0
        self._ok = 0
        self._failed = 0
        self._cached = 0
        self._running = 0
        self._workers = {}
        self._queue = None
        self._stalls = 0
        self._ewma_pps = None
        self._m_last_done = None
        self._ticker = None
        self._stop = threading.Event()

    # -- feeding -------------------------------------------------------------

    def point_cached(self, n=1):
        """``n`` grid points were served from the store."""
        with self._lock:
            self._cached += int(n)

    def point_done(self, outcome="ok", worker=None, wall_s=None):
        """One fresh point finished; updates counts, EWMA, worker table."""
        now = time.monotonic()
        with self._lock:
            self._done += 1
            if outcome == "ok":
                self._ok += 1
            else:
                self._failed += 1
            if self._m_last_done is not None:
                dt = max(now - self._m_last_done, 1e-9)
                inst = 1.0 / dt
                alpha = 1.0 - math.exp(-dt / EWMA_TAU_S)
                self._ewma_pps = (inst if self._ewma_pps is None else
                                  alpha * inst
                                  + (1.0 - alpha) * self._ewma_pps)
            self._m_last_done = now
            if worker is not None:
                slot = self._worker_slot(worker)
                slot["n_records"] += 1
                slot["last_seen"] = time.time()
                slot["last_progress"] = slot["last_seen"]
        if self.registry is not None and wall_s is not None:
            self.registry.observe("campaign.point.wall_s", wall_s)

    def set_running(self, n):
        """How many points are currently leased out / in flight."""
        with self._lock:
            self._running = max(0, int(n))

    def set_queue_stats(self, **stats):
        """Attach backend bookkeeping (leased units, backlog depth...)."""
        with self._lock:
            self._queue = dict(self._queue or {}, **stats)

    def _worker_slot(self, pid):
        slot = self._workers.get(pid)
        if slot is None:
            now = time.time()
            slot = self._workers[pid] = {
                "first_seen": now, "last_seen": now,
                "last_progress": None, "n_records": 0,
                "state": "alive", "stalled": False,
                "forfeited_points": 0, "metrics": None,
            }
        return slot

    def worker_spawned(self, pid):
        """A worker process joined the run."""
        with self._lock:
            self._worker_slot(pid)

    def worker_heartbeat(self, pid, payload=None):
        """A heartbeat (or any sign of life) arrived from ``pid``.

        ``payload`` is the worker's cumulative
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`, kept per
        worker and merged across the fleet at write time.
        """
        with self._lock:
            slot = self._worker_slot(pid)
            slot["last_seen"] = time.time()
            slot["stalled"] = False
            if payload and payload.get("metrics"):
                slot["metrics"] = payload["metrics"]

    def worker_dead(self, pid, forfeited=0):
        """``pid`` was reaped; ``forfeited`` points go back to the queue.

        A death with leased work outstanding is the terminal form of a
        stall — the lease outlived its owner's heartbeats — so it both
        flags the worker and increments the run's ``stalls_detected``.
        """
        with self._lock:
            slot = self._worker_slot(pid)
            slot["state"] = "dead"
            slot["forfeited_points"] += int(forfeited)
            if not forfeited:
                return
            slot["stalled"] = True
            self._stalls += 1
        self.maybe_write()

    # -- lifecycle -----------------------------------------------------------

    def start_ticker(self):
        """Start the background refresher (no-op without a path)."""
        if self.path is None or self._ticker is not None:
            return

        def tick():
            while not self._stop.wait(self.heartbeat_s):
                self.maybe_write()

        self._ticker = threading.Thread(target=tick, daemon=True,
                                        name="campaign-status")
        self._ticker.start()

    def finish(self, state):
        """Stop the ticker and write the terminal document."""
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
            self._ticker = None
        with self._lock:
            self._state = state
            self._running = 0
        self.maybe_write()

    # -- snapshotting --------------------------------------------------------

    def _check_stalls_locked(self, now_wall):
        for slot in self._workers.values():
            if slot["state"] != "alive":
                continue
            slot["stalled"] = (now_wall - slot["last_seen"]
                               > self.stall_after_s)

    def snapshot(self):
        """The full status document as a plain dict."""
        now_wall = time.time()
        now_mono = time.monotonic()
        with self._lock:
            if self._state == "running":
                self._check_stalls_locked(now_wall)
            elapsed = now_mono - self._m_start
            remaining = max(
                0, self._total - self._cached - self._done)
            rate = self._ewma_pps
            if rate is None and self._done and elapsed > 0:
                rate = self._done / elapsed
            eta_s = (remaining / rate if rate and remaining else
                     (0.0 if not remaining else None))
            workers = {}
            worker_snaps = []
            for pid, slot in self._workers.items():
                view = {k: v for k, v in slot.items() if k != "metrics"}
                view["age_s"] = max(0.0, now_wall - slot["last_seen"])
                workers[str(pid)] = view
                if slot.get("metrics"):
                    worker_snaps.append(slot["metrics"])
            if self.registry is not None:
                worker_snaps.append(self.registry.snapshot())
            merged = obs_metrics.merge_snapshots(worker_snaps)
            document = {
                "schema": 1,
                "campaign": self.campaign,
                "state": self._state,
                "backend": self._backend,
                "workers_target": self._workers_target,
                "t_start": self._t_start,
                "t_update": now_wall,
                "elapsed_s": elapsed,
                "heartbeat_s": self.heartbeat_s,
                "stall_after_s": self.stall_after_s,
                "points": {
                    "total": self._total,
                    "cached": self._cached,
                    "done": self._done,
                    "ok": self._ok,
                    "failed": self._failed,
                    "running": min(self._running, remaining),
                    "remaining": remaining,
                },
                "throughput_pps": rate,
                "eta_s": eta_s,
                "stalls_detected": self._stalls,
                "workers": workers,
                "queue": self._queue,
                "metrics": merged,
                "histogram_summary": {
                    name: obs_metrics.histogram_summary(h)
                    for name, h in merged["histograms"].items()
                },
            }
        return document

    def maybe_write(self):
        """Snapshot to disk; a no-op for an in-memory board."""
        if self.path is None:
            return None
        return write_json_atomic(self.path, self.snapshot())


# -- rendering ---------------------------------------------------------------

def _fmt_duration(seconds):
    if seconds is None:
        return "--"
    seconds = float(seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _fmt_rate(rate):
    return f"{rate:.2f} pt/s" if rate else "-- pt/s"


def refresh_ages(status, now=None):
    """Recompute worker ``age_s`` against ``now`` (read-side freshness).

    The writer stamps ages at write time; a reader polling an aging
    file (or a stalled run) wants ages relative to *its* clock. Also
    stamps ``t_read``. Mutates and returns ``status``.
    """
    now = time.time() if now is None else now
    status["t_read"] = now
    status["age_of_update_s"] = max(0.0, now - (status.get("t_update")
                                                or now))
    running = status.get("state") == "running"
    for slot in (status.get("workers") or {}).values():
        seen = slot.get("last_seen")
        if seen is not None:
            slot["age_s"] = max(0.0, now - seen)
            # Only a *running* campaign's silence means anything: a
            # terminal document's ages grow forever by construction.
            if running and slot.get("state") == "alive" and \
                    status.get("stall_after_s") is not None:
                slot["stalled"] = (slot["stalled"] or
                                   slot["age_s"]
                                   > status["stall_after_s"])
    return status


def status_lines(status, now=None):
    """Render one status document as the ``campaign watch`` view."""
    status = refresh_ages(dict(status), now=now)
    points = status.get("points") or {}
    total = points.get("total") or 0
    complete = (points.get("done") or 0) + (points.get("cached") or 0)
    frac = complete / total if total else 0.0
    bar_w = 28
    filled = int(round(frac * bar_w))
    bar = "#" * filled + "-" * (bar_w - filled)
    lines = [
        f"campaign {status.get('campaign', '?')} "
        f"[{status.get('state', '?')}] "
        f"backend={status.get('backend') or '?'} "
        f"elapsed {_fmt_duration(status.get('elapsed_s'))} "
        f"(status age {status['age_of_update_s']:.1f}s)",
        f"  [{bar}] {complete}/{total} "
        f"({points.get('cached') or 0} cached, "
        f"{points.get('failed') or 0} failed) "
        f"| {points.get('running') or 0} running, "
        f"{points.get('remaining') or 0} remaining",
        f"  throughput {_fmt_rate(status.get('throughput_pps'))}  "
        f"ETA {_fmt_duration(status.get('eta_s'))}  "
        f"stalls {status.get('stalls_detected') or 0}",
    ]
    workers = status.get("workers") or {}
    if workers:
        lines.append("  workers:")
        for pid in sorted(workers, key=lambda p: int(p)):
            slot = workers[pid]
            flags = slot.get("state", "?")
            if slot.get("stalled"):
                flags += ",STALLED"
            forfeited = slot.get("forfeited_points") or 0
            extra = f"  forfeited {forfeited}" if forfeited else ""
            lines.append(
                f"    pid {pid:<8} {flags:<14} "
                f"last seen {slot.get('age_s', 0.0):>6.1f}s ago  "
                f"{slot.get('n_records', 0):>5} record(s){extra}")
    summaries = status.get("histogram_summary") or {}
    for name in sorted(summaries):
        s = summaries[name]
        if not s.get("n"):
            continue
        lines.append(
            f"  {name}: n={s['n']} mean={_fmt_duration(s.get('mean'))} "
            f"p50<={_fmt_duration(s.get('p50'))} "
            f"p90<={_fmt_duration(s.get('p90'))} "
            f"max={_fmt_duration(s.get('max'))}")
    counters = (status.get("metrics") or {}).get("counters") or {}
    interesting = {k: v for k, v in counters.items()
                   if k.startswith("mc.")}
    if interesting:
        rendered = "  ".join(f"{k}={v:g}" for k, v in
                             sorted(interesting.items()))
        lines.append(f"  counters: {rendered}")
    return lines
