"""Sharded work-queue execution for campaigns.

Every campaign run with ``workers > 1`` executes here; ``workers=1``
runs inline in :func:`repro.campaign.runner._run_campaign`. The
million-point campaign shape: the grid's uncached points are
sharded into :class:`WorkUnit` batches, the parent *assigns* units to
workers (recording the lease before the unit ever leaves the parent —
a worker that dies without sending a byte still forfeits exactly what
it held), workers stream back one record per completed point and ack
the unit when it is drained. The parent tracks every unit's lease and
every point's record, so

* a worker that dies mid-unit (OOM-kill, segfault) forfeits its lease:
  the unit's *unfinished* jobs are requeued as a fresh unit and a
  replacement worker is spawned (bounded respawn budget);
* records that arrive twice — a requeued unit re-running a point whose
  record was already in flight when its first worker died — are
  deduplicated by cache key, so the store sees each point once;
* a SIGKILL of the whole run loses nothing that was appended: every
  record is persisted by the parent the moment it arrives, and
  ``repro campaign resume`` re-runs only the missing points. Per-point
  :mod:`~repro.campaign.seeding` substreams make the completed grid
  bit-identical to an uninterrupted run.

:func:`run_local_queue` runs the lease/ack loop above on
``multiprocessing`` queues and hands each record to the runner's
``finish(record, t_submit)`` sink; records are bit-identical to an
inline run.

Telemetry: ``campaign.queue.units/lease/ack/requeue/duplicate/respawn``
counters and a stats dict surfaced as
``CampaignResult.extras["queue"]``.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import queue as stdlib_queue
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class WorkUnit:
    """One leasable batch of points.

    ``jobs`` is a tuple of ``(key, index, params)`` triples in grid
    order. A requeued unit keeps its ``unit_id`` (the lease moves, the
    identity does not) but carries only the jobs its dead worker never
    reported.
    """

    unit_id: int
    jobs: tuple


def default_shard_size(n_jobs, workers):
    """Jobs per unit when the caller doesn't choose: ~4 units/worker.

    Small enough that a dead worker forfeits little and stragglers
    rebalance, large enough that queue chatter stays negligible.
    """
    return max(1, -(-int(n_jobs) // max(1, int(workers) * 4)))


def shard_points(jobs, shard_size):
    """Split ``(key, index, params)`` jobs into :class:`WorkUnit` s.

    Grid order is preserved within and across units, so unit boundaries
    never affect which substream a point draws from.
    """
    shard_size = int(shard_size)
    if shard_size < 1:
        raise ConfigurationError(
            f"shard size must be >= 1, got {shard_size}")
    jobs = list(jobs)
    return [WorkUnit(unit_id=uid, jobs=tuple(jobs[lo:lo + shard_size]))
            for uid, lo in enumerate(range(0, len(jobs), shard_size))]


class WorkQueue:
    """Parent-side lease/ack bookkeeping over a set of work units."""

    def __init__(self, units):
        self.units = {u.unit_id: u for u in units}
        #: unit_id -> {key: job} not yet reported back.
        self.remaining_jobs = {
            u.unit_id: {job[0]: job for job in u.jobs} for u in units}
        self.pending = set(self.units)
        self.leases = {}
        self.n_leases = 0
        self.n_acks = 0
        self.n_requeued = 0

    @property
    def depth(self):
        """Units enqueued but not yet leased."""
        return len(self.pending)

    def lease(self, unit_id, pid):
        """The parent assigned ``unit_id`` to worker ``pid``."""
        self.pending.discard(unit_id)
        self.leases[unit_id] = pid
        self.n_leases += 1

    def held_by(self, pid):
        """How many units worker ``pid`` currently holds."""
        return sum(1 for p in self.leases.values() if p == pid)

    def record(self, unit_id, key):
        """A job of ``unit_id`` reported its record."""
        self.remaining_jobs.get(unit_id, {}).pop(key, None)

    def ack(self, unit_id, pid):
        """Worker ``pid`` reported every job of ``unit_id``; release it.

        An ack from a pid that no longer holds the unit — a dead
        worker's last flushed message arriving after its units were
        already requeued — is ignored, so it cannot release a lease the
        requeued unit's new owner still holds.
        """
        if self.leases.get(unit_id) != pid:
            return
        del self.leases[unit_id]
        self.n_acks += 1

    def requeue_for(self, pid):
        """Reclaim every unit leased by a dead ``pid``.

        Returns fresh :class:`WorkUnit` s (same ids, unfinished jobs
        only) ready to be re-enqueued; units whose jobs all reported
        before the death are silently retired — only their ack was
        lost.
        """
        reclaimed = []
        for unit_id in [u for u, p in self.leases.items() if p == pid]:
            del self.leases[unit_id]
            leftovers = self.remaining_jobs.get(unit_id, {})
            if not leftovers:
                self.n_acks += 1
                continue
            unit = WorkUnit(unit_id=unit_id,
                            jobs=tuple(leftovers.values()))
            self.units[unit_id] = unit
            self.pending.add(unit_id)
            self.n_requeued += 1
            reclaimed.append(unit)
        return reclaimed

    def done(self):
        """True when every unit has been leased and acked (or retired)."""
        return not self.pending and not self.leases


def _heartbeat_loop(stop, result_q, pid, heartbeat_s, trace_dir,
                    registry):
    """Worker-side heartbeat: prove liveness, flush in-flight telemetry.

    Every ``heartbeat_s`` the thread (1) flushes the worker's tracer so
    counter deltas and closed child spans of a *still-running* point
    reach the part file — before this, everything buffered until the
    top-level span closed, so a worker grinding through one long point
    was indistinguishable on disk from a hung one — and (2) sends the
    worker's cumulative metrics snapshot to the parent, which folds it
    into ``status.json``.
    """
    from repro.campaign import runner

    while not stop.wait(heartbeat_s):
        if trace_dir is not None:
            tracer = runner._WORKER_TRACERS.get(trace_dir)
            if tracer is not None:
                tracer.flush()
        try:
            result_q.put(("heartbeat", -1, pid,
                          {"t": time.time(),
                           "metrics": registry.snapshot()}))
        except (OSError, ValueError):
            return  # parent went away; nothing left to tell it


def _parent_gone(ppid, sentinel):
    """True once the run that started this queue worker has died.

    A fork or spawn worker is reparented, which changes
    ``os.getppid()``. A forkserver worker's parent is the forkserver,
    which outlives the run because every worker holds its keep-alive
    pipe; there the parent ``sentinel``, a pipe whose write end only
    the run holds, reads EOF instead.
    """
    return (os.getppid() != ppid
            or bool(multiprocessing.connection.wait([sentinel], 0)))


def _queue_worker(task_q, result_q, kind, campaign, base_seed, retries,
                  timeout_s, trace_dir, initializer, initargs,
                  heartbeat_s=None):
    """Worker loop: run assigned units, stream records, ack, exit on
    the ``None`` sentinel with a final ``exit`` message.

    Runs in a child process reading its *own* task queue. Which units
    this worker holds is recorded parent-side at assignment time — no
    "I took the unit" message exists to get lost in a dying worker's
    queue buffer — so record/ack messages only carry the unit id and
    pid for the parent's cross-checks.

    With ``heartbeat_s`` set (live status active), a daemon thread
    heartbeats the parent on that cadence; see :func:`_heartbeat_loop`.

    A SIGKILLed parent runs no cleanup, so nobody sends the sentinel.
    An idle worker therefore checks once a second whether the parent
    is gone (:func:`_parent_gone`) and then leaves through
    ``os._exit``, because flushing a put to the dead parent's full
    result pipe could block a clean return forever.
    """
    ppid = os.getppid()
    parent_sentinel = multiprocessing.parent_process().sentinel
    if initializer is not None:
        initializer(*initargs)
    from repro.campaign import runner

    pid = os.getpid()
    stop_beat = None
    if heartbeat_s:
        registry = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
        result_q.put(("heartbeat", -1, pid,
                      {"t": time.time(), "metrics": registry.snapshot()}))
        stop_beat = threading.Event()
        threading.Thread(
            target=_heartbeat_loop, daemon=True, name="campaign-heartbeat",
            args=(stop_beat, result_q, pid, float(heartbeat_s), trace_dir,
                  registry)).start()
    try:
        while True:
            try:
                unit = task_q.get(timeout=1.0)
            except stdlib_queue.Empty:
                if _parent_gone(ppid, parent_sentinel):
                    os._exit(1)
                continue
            if unit is None:
                break
            for key, index, params in unit.jobs:
                record = runner._execute_point(
                    kind, campaign, base_seed, index, params, key,
                    retries, timeout_s, trace_dir)
                result_q.put(("record", unit.unit_id, pid, record))
            result_q.put(("ack", unit.unit_id, pid, None))
    finally:
        if stop_beat is not None:
            stop_beat.set()
            # Last will: a campaign faster than one heartbeat interval
            # would otherwise never ship this worker's metrics.
            try:
                result_q.put(("heartbeat", -1, pid,
                              {"t": time.time(),
                               "metrics":
                               obs_metrics.current_registry().snapshot()}))
            except (OSError, ValueError):
                pass
    # Last message of a clean exit: the parent drains up to it instead
    # of waiting for the pipe to go quiet.
    result_q.put(("exit", -1, pid, None))


def _lost_point_record(spec, code_version, point, key):
    """Failure record for a point no queue worker lived to report.

    The point function never returned, so there is no exception or
    traceback to keep: every worker that held the point (and every
    replacement the respawn budget allowed) died first. The record
    keeps the point's identity and key so the sweep has no hole and a
    later run or ``repro campaign resume`` re-executes exactly it.
    """
    return {
        "key": key,
        "campaign": spec.name,
        "kind": spec.kind,
        "code_version": code_version,
        "index": point.index,
        "params": dict(point.params),
        "base_seed": int(spec.base_seed),
        "metrics": {},
        "outcome": "error",
        "error": ("work unit lost: every queue worker (and replacement) "
                  "died before completing this point"),
        "error_type": "RuntimeError",
        "traceback": None,
        "attempts": 1,
        "wall_time_s": 0.0,
        "worker": None,
    }


def run_local_queue(spec, code_version, todo, workers, retries, timeout_s,
                    start_method, trace_dir, finish, clock,
                    shard_size=None, board=None):
    """Execute ``todo`` on the sharded local queue; returns stats.

    ``todo`` is the runner's ``(key, SweepPoint)`` list; ``finish`` is
    its record sink (which persists to the store immediately — the
    crash-safety contract). Every point gets exactly one ``finish``
    call: normally its worker's record, or a synthesized failure record
    if every executor died with the point still outstanding.

    ``board`` is the runner's live :class:`~repro.obs.live.StatusBoard`
    (or ``None``): workers heartbeat on its cadence, and the control
    loop feeds it lease-accurate in-flight counts, worker liveness, and
    forfeited-lease (stall) events.
    """
    from repro.campaign import runner

    workers = max(1, int(workers))
    jobs = [(key, pt.index, dict(pt.params)) for key, pt in todo]
    size = int(shard_size) if shard_size else default_shard_size(
        len(jobs), workers)
    units = shard_points(jobs, size)
    wq = WorkQueue(units)
    points_by_key = {key: pt for key, pt in todo}
    remaining = set(points_by_key)

    context = multiprocessing.get_context(start_method)
    # SimpleQueue, deliberately: its put() writes straight to the pipe
    # under a lock — no feeder thread. A worker that os._exits between
    # jobs has therefore already delivered every record it reported;
    # with a buffered Queue those messages can die unflushed in the
    # feeder, turning a survivable death into a lost point once the
    # respawn budget runs out.
    result_q = context.SimpleQueue()
    backlog = deque(units)
    obs.counter("campaign.queue.units", len(units))

    # The parent never reads result_q directly: a worker killed mid-put
    # (OOM, os._exit) can leave a torn frame in the pipe, and a torn
    # frame blocks Queue.get() *past its timeout* — poll() sees bytes,
    # the body never arrives. A daemon pump thread absorbs that hazard;
    # the control loop below reads this in-process inbox, so a tear
    # costs one record (whose job the lease bookkeeping re-runs), never
    # the whole campaign.
    inbox = stdlib_queue.Queue()

    def _pump():
        while True:
            try:
                inbox.put(result_q.get())
            except (EOFError, OSError):
                return

    pump = threading.Thread(target=_pump, daemon=True,
                            name="campaign-queue-pump")
    pump.start()

    initializer, initargs = runner._worker_initializer(spec.kind)
    heartbeat_s = board.heartbeat_s if board is not None else None

    #: pid -> (process, its private task queue). Each worker gets its
    #: own queue so the parent knows exactly which units it handed to
    #: which pid; a shared queue would make leases guesswork again.
    procs = {}
    # Keep each worker one unit ahead of the one it is running, so the
    # ack -> next-assignment round-trip doesn't idle it.
    assign_depth = 2

    def spawn():
        task_q = context.Queue()
        proc = context.Process(
            target=_queue_worker,
            args=(task_q, result_q, spec.kind, spec.name,
                  spec.base_seed, retries, timeout_s, trace_dir,
                  initializer, initargs, heartbeat_s),
            daemon=True)
        proc.start()
        procs[proc.pid] = (proc, task_q)
        if board is not None:
            board.worker_spawned(proc.pid)
        return proc.pid

    def update_board():
        """Lease-accurate in-flight counts for the status snapshot."""
        if board is None:
            return
        in_flight = sum(len(wq.remaining_jobs.get(uid, {}))
                        for uid in wq.leases)
        board.set_running(in_flight)
        board.set_queue_stats(
            leased_units=len(wq.leases), backlog=len(backlog),
            n_units=len(wq.units), n_requeued=wq.n_requeued,
            n_acks=wq.n_acks)

    def fill(pid):
        """Assign backlog units to ``pid`` up to the pipeline depth.

        The lease is recorded *before* the unit is enqueued: if the
        worker dies at any point after this — even before reading the
        unit — ``requeue_for`` knows to reclaim it.
        """
        _, task_q = procs[pid]
        while backlog and wq.held_by(pid) < assign_depth:
            unit = backlog.popleft()
            wq.lease(unit.unit_id, pid)
            obs.counter("campaign.queue.lease")
            task_q.put(unit)

    for _ in range(workers):
        fill(spawn())
    update_board()  # leases exist before any message arrives
    # A replacement worker per original slot; past that, a crash loop
    # would burn CPU forever re-running whatever point kills workers.
    respawn_budget = workers
    n_duplicates = 0
    n_respawns = 0
    t_enqueue = clock.elapsed

    def handle(msg):
        nonlocal n_duplicates
        msg_type, unit_id, pid, payload = msg
        if msg_type == "heartbeat":
            if board is not None:
                board.worker_heartbeat(pid, payload)
                update_board()
                board.maybe_write()
            return
        if msg_type == "record":
            key = payload["key"]
            wq.record(unit_id, key)
            if board is not None:
                board.worker_heartbeat(pid)  # records prove liveness too
            if key in remaining:
                remaining.discard(key)
                finish(payload, t_enqueue)
            else:
                # A requeued unit re-ran a point whose first record was
                # already in flight; the store must see each key once.
                n_duplicates += 1
                obs.counter("campaign.queue.duplicate")
        elif msg_type == "ack":
            wq.ack(unit_id, pid)
            obs.counter("campaign.queue.ack")
            if pid in procs:
                fill(pid)
        update_board()

    def reap_dead():
        nonlocal n_respawns
        for pid in [p for p, (proc, _) in procs.items()
                    if not proc.is_alive()]:
            proc, task_q = procs.pop(pid)
            proc.join()
            task_q.close()
            task_q.cancel_join_thread()
            forfeited = 0
            for unit in wq.requeue_for(pid):
                backlog.append(unit)
                forfeited += len(unit.jobs)
                obs.counter("campaign.queue.requeue")
            if board is not None:
                board.worker_dead(pid, forfeited=forfeited)
            if respawn_budget - n_respawns > 0 and not wq.done():
                n_respawns += 1
                obs.counter("campaign.queue.respawn")
                spawn()
        # Reclaimed units must reach survivors even when nobody acks
        # anymore (e.g. the respawn budget is spent but idle workers
        # remain) — fill here, not only on ack.
        for pid in list(procs):
            fill(pid)
        update_board()

    try:
        next_reap = time.monotonic() + 0.2
        while remaining:
            try:
                handle(inbox.get(timeout=0.2))
            except stdlib_queue.Empty:
                pass
            # Reap on a clock, not only when the inbox goes quiet: an idle
            # survivor heartbeating faster than the get() timeout would
            # otherwise keep a dead worker's leases from ever requeueing.
            if time.monotonic() >= next_reap:
                next_reap = time.monotonic() + 0.2
                reap_dead()
                if not procs:
                    break  # every executor (and replacement) is gone
        # Records can still be buffered in the pipe when the loop exits
        # through the no-executors branch; drain before declaring loss.
        while remaining:
            try:
                handle(inbox.get(timeout=0.05))
            except stdlib_queue.Empty:
                break
        n_lost = len(remaining)
        for key in sorted(remaining,
                          key=lambda k: points_by_key[k].index):
            finish(_lost_point_record(spec, code_version,
                                      points_by_key[key], key), t_enqueue)
        remaining.clear()
    finally:
        # Nothing may be assigned past this point: a late ack drained
        # below would otherwise re-fill behind the exit sentinel.
        backlog.clear()
        for _, task_q in procs.values():
            task_q.put(None)
        for proc, _ in procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        # Workers have exited; drain their final acks (and any stray
        # duplicates) so the stats below reflect the whole run. A clean
        # exit's last message is "exit"; a worker that was terminated
        # sends none, so only then wait for the pipe to go quiet.
        exiting = {pid for pid, (proc, _) in procs.items()
                   if proc.exitcode == 0}
        settle = len(exiting) < len(procs)
        while True:
            try:
                msg = inbox.get(timeout=0.05 if exiting or settle else 0)
            except stdlib_queue.Empty:
                break
            if msg[0] == "exit":
                exiting.discard(msg[2])
            else:
                handle(msg)
        for _, task_q in procs.values():
            task_q.close()
            task_q.cancel_join_thread()
        result_q.close()
        # The pump stays parked on the (now closed) result_q until its
        # read fails; daemon=True keeps it from pinning the process.

    return {
        "backend": "local-queue",
        "n_units": len(units),
        "shard_size": size,
        "n_leases": wq.n_leases,
        "n_acks": wq.n_acks,
        "n_requeued": wq.n_requeued,
        "n_duplicates": n_duplicates,
        "n_respawns": n_respawns,
        "n_lost": n_lost,
    }
