"""Campaign execution: expand, skip cached, fan out, persist.

How points run follows from the worker count alone: ``workers=1`` runs
them inline in the calling process, ``workers > 1`` on the sharded
local queue (:mod:`repro.campaign.queue`), whose leases survive worker
death. The ``backend`` knob is accepted for old specs and scripts but
selects nothing.

The runner maps each :class:`~repro.campaign.spec.SweepPoint` to a
*point function* selected by the spec's ``kind``. Point functions are
registered in a module-level registry together with a ``code_version``
string that participates in the cache key — bump it when a function's
semantics change so stale cached results are recomputed.

A point function has the signature ``func(params, rng) -> dict`` where
``params`` is the point's resolved parameter dict and ``rng`` is a
:class:`numpy.random.Generator` derived *only* from the campaign base
seed and the point's grid index. Because every point owns its stream,
execution order and worker count cannot affect results: ``--workers 8``
is bit-identical to ``--workers 1``.

Execution is *fault-isolated*: any exception a point function raises is
captured into the point's record — class name, message, and traceback
text — and the sweep continues; one bad point can no longer abort a
multi-worker run and abandon hours of in-flight results. Failing points
get ``spec.retries`` extra attempts, each drawing from a deterministic
per-attempt stream (see :mod:`repro.campaign.seeding`), and an optional
``spec.timeout_s`` wall-clock budget marks an overrunning point
``timeout`` and moves on. :func:`run_campaign` therefore always returns
a complete :class:`CampaignResult`: one record per grid point, never a
``None`` hole.

Record schema (one per point, stored as a JSONL line)::

    {
      "key":          "9f2c... (16 hex chars, see campaign.cache)",
      "campaign":     spec.name,
      "kind":         spec.kind,
      "code_version": registered version of the point function,
      "index":        grid index (also the seed substream index),
      "params":       resolved point parameters,
      "base_seed":    campaign base seed,
      "metrics":      {...} returned by the point function; MC-backed
                      kinds include the estimate's confidence interval
                      ("<metric>_ci_low"/"<metric>_ci_high"), the
                      consumed "n_trials" and the engine "stop_reason",
      "outcome":      "ok" | "error" | "timeout",
      "error":        message when outcome != "ok" else None,
      "error_type":   exception class name when outcome != "ok" else None,
      "traceback":    traceback text when outcome == "error" else None,
      "attempts":     attempts consumed (1 when the first try settled it),
      "wall_time_s":  per-point wall time across all attempts; a point
                      run in its kind's batch form carries an even share
                      of its batch row's wall time, start-up included,
                      plus ``"batched": true``;
                      cache hits carry 0.0 (this run did no work for
                      them) plus ``"cached": true``,
      "worker":       pid of the process that ran it,
    }

Batch forms: a kind may register one (``register_point_kind(...,
batch=, batch_over=)``). An inline run without a timeout hands the
kind's uncached points to it one row at a time — the points whose
params differ only in ``batch_over``, the unit that shares kernel work.
Each point still draws from its own attempt-0 generator and gets its
own record and cache key; a row that raises falls back to per-point
execution. A row's records reach the store and the status board
together when it returns, so a run killed mid-row re-runs that row's
points on resume. Queue workers always run points one by one.
``surface-link`` registers one over ``snr_db``, so an inline surface
build decodes each rate's cells together.

Telemetry: when :func:`run_campaign` is called with ``trace=True`` (or
an ambient :mod:`repro.obs` tracer is installed) the run emits spans —
``campaign.run`` around the sweep, one ``campaign.point`` per grid
point with outcome/attempt/cache attrs and the submit-to-finish
latency as its duration, and worker-side ``campaign.execute`` /
``campaign.attempt`` spans around the point function — plus cache,
outcome and retry counters. Each queue worker writes its own JSONL part
file under ``results/<campaign>/trace/`` (spawn-safe: nothing is
shared), and the parent merges them into ``trace.jsonl`` after the
workers exit for ``repro trace report``.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback as traceback_module
from dataclasses import dataclass, field

from repro import obs
from repro.campaign.cache import point_key
from repro.campaign.seeding import attempt_generator
from repro.campaign.spec import EXECUTION_BACKENDS
from repro.errors import ConfigurationError, PointExecutionError
from repro.obs import live
from repro.obs import metrics as obs_metrics
from repro.utils.validation import require_count

# -- point-kind registry -----------------------------------------------------

_POINT_KINDS = {}
_BATCH_FORMS = {}


def register_point_kind(kind, func, code_version="1", batch=None,
                        batch_over=None):
    """Register ``func`` as the executor for points of ``kind``.

    ``code_version`` is part of every point's cache key: bump it whenever
    the function's output for identical inputs changes, so persisted
    results from the old code stop being served.

    ``batch`` is an optional batch form, ``batch(params_list, rngs) ->
    list of metrics``: the metrics ``func`` returns for each
    ``(params, rng)`` pair, computed in one call. Inline runs hand it
    their uncached points one row at a time — the points whose params
    agree in everything but ``batch_over`` (see :func:`_batch_rows`) —
    so it must agree with ``func`` bit for bit; queue workers always
    run ``func``.
    """
    _POINT_KINDS[kind] = (func, str(code_version))
    if batch is None:
        _BATCH_FORMS.pop(kind, None)
    else:
        _BATCH_FORMS[kind] = (batch, batch_over)


def point_kinds():
    """Sorted names of all registered point kinds."""
    return sorted(_POINT_KINDS)


def _lookup_kind(kind):
    try:
        return _POINT_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown point kind {kind!r}; registered: "
            f"{', '.join(point_kinds()) or '(none)'}"
        ) from None


# -- built-in point functions ------------------------------------------------
#
# Imports are deferred into the functions so that importing the campaign
# package stays cheap and queue workers only pay for what they run.

def _link_options(params):
    """``(link, run)``: the keywords a link point's ``params`` set for its
    simulator (channel, receive antennas, detector) and for its run."""
    precision = params.get("precision")
    max_trials = params.get("max_trials")
    floor = params.get("analytic_floor")
    link = {
        "channel": params.get("channel", "awgn"),
        "n_rx": params.get("n_rx"),
        "detector": params.get("detector", "mmse"),
    }
    return link, {
        "n_packets": require_count("n_packets",
                                   params.get("n_packets", 100)),
        "payload_bytes": require_count("payload_bytes",
                                       params.get("payload_bytes", 100)),
        "precision": float(precision) if precision is not None else None,
        "max_trials": (require_count("max_trials", max_trials)
                       if max_trials is not None else None),
        "confidence": float(params.get("confidence", 0.95)),
        "analytic_floor": float(floor) if floor is not None else None,
    }


def _link_metrics(result, confidence):
    """A link point's record metrics from its :class:`LinkResult`."""
    per_lo, per_hi = result.per_ci(confidence)
    ber_lo, ber_hi = result.ber_ci(confidence)
    return {
        "per": result.per,
        "per_ci_low": per_lo,
        "per_ci_high": per_hi,
        "ber": result.ber,
        "ber_ci_low": ber_lo,
        "ber_ci_high": ber_hi,
        "goodput_mbps": result.goodput_mbps,
        "rate_mbps": result.rate_mbps,
        "n_packets": result.n_packets,
        "n_packet_errors": result.n_packet_errors,
        "n_bit_errors": result.n_bit_errors,
        "n_trials": result.mc.n_trials,
        "stop_reason": result.mc.stop_reason,
        "confidence": confidence,
    }


def _run_link_point(params, rng):
    """One PER/BER measurement: LinkSimulator(phy, channel) at one SNR.

    Optional ``precision``/``max_trials``/``confidence`` params switch
    the underlying MC engine into adaptive mode; either way the record
    carries the Wilson CI on the PER, the consumed trial count and the
    engine's stop reason, so every stored point ships its error bars.
    An ``analytic_floor`` param enables the union-bound fast path
    (``stop_reason="analytic"``, zero packets sent).
    """
    from repro.core.link import LinkSimulator

    link, options = _link_options(params)
    sim = LinkSimulator(params["phy"], rng=rng, **link)
    result = sim.run(float(params["snr_db"]), **options)
    return _link_metrics(result, options["confidence"])


def _run_link_points(params_list, rngs):
    """Batch form of :func:`_run_link_point` for one row of points.

    The points agree in every param but ``snr_db``; they run as the
    columns of one :func:`~repro.core.link.run_link_points` call, each
    on its own generator, so every point's metrics are those
    :func:`_run_link_point` records for it.
    """
    from repro.core.link import run_link_points

    link, options = _link_options(params_list[0])
    results = run_link_points(
        [(params["phy"], float(params["snr_db"]), rng)
         for params, rng in zip(params_list, rngs)], **link, **options)
    return [_link_metrics(result, options["confidence"])
            for result in results]


def _run_link_grid_point(params, rng):
    """One PHY row of a cross-point grid: every SNR in one kernel pass.

    ``params["snrs"]`` is the SNR list; payloads/channels/noise are
    shared across the row per trial index (common random numbers), so
    the record's per-SNR lists are bit-identical to per-point runs of
    the same scheme. With a ``draw_seed`` param the base draws come
    from that campaign-wide seed — identical for every point — instead
    of the point's own ``rng``; like any param it enters the cache key.
    """
    from repro.core.link import run_link_grid

    snrs = [float(s) for s in params["snrs"]]
    draw_seed = params.get("draw_seed")
    floor = params.get("analytic_floor")
    confidence = float(params.get("confidence", 0.95))
    row = run_link_grid(
        params["phy"], snrs,
        n_packets=params.get("n_packets", 100),
        payload_bytes=params.get("payload_bytes", 100),
        channel=params.get("channel", "awgn"),
        analytic_floor=float(floor) if floor is not None else None,
        confidence=confidence,
        rng=int(draw_seed) if draw_seed is not None else rng,
    )[0]
    per_ci = [r.per_ci(confidence) for r in row]
    return {
        "snrs": snrs,
        "per": [r.per for r in row],
        "per_ci_low": [lo for lo, _ in per_ci],
        "per_ci_high": [hi for _, hi in per_ci],
        "ber": [r.ber for r in row],
        "goodput_mbps": [r.goodput_mbps for r in row],
        "rate_mbps": row[0].rate_mbps,
        "n_packets": [r.n_packets for r in row],
        "n_packet_errors": [r.n_packet_errors for r in row],
        "n_bit_errors": [r.n_bit_errors for r in row],
        "stop_reasons": [r.mc.stop_reason for r in row],
        "n_trials": sum(r.mc.n_trials for r in row),
        "n_analytic": sum(1 for r in row if r.analytic),
        "confidence": confidence,
    }


def _run_mimo_range_point(params, rng):
    """Outage fade margin of one ``TXxRX`` Rayleigh diversity config.

    The draw loop is vectorised through
    :func:`~repro.phy.mimo.capacity.rayleigh_channels`, which consumes
    the stream in the same order as the seed-era scalar loop — cached
    records from either implementation are interchangeable, so the
    ``code_version`` stays at "1".
    """
    import numpy as np

    from repro.phy.mimo.capacity import rayleigh_channels

    n_tx, n_rx = (int(x) for x in str(params["antennas"]).split("x"))
    n_draws = int(params.get("n_draws", 4000))
    outage = float(params.get("outage", 0.01))
    h = rayleigh_channels(n_draws, n_rx, n_tx, rng)
    gains = (np.abs(h) ** 2).sum(axis=(1, 2)) / n_tx
    worst = float(np.quantile(gains, outage))
    return {
        "margin_db": float(-10.0 * np.log10(worst)),
        "mean_gain": float(gains.mean()),
        "n_draws": n_draws,
        "outage": outage,
    }


def _run_dcf_point(params, rng):
    """Saturated DCF contention at one station count."""
    from repro.mac.bianchi import bianchi_saturation_throughput
    from repro.mac.dcf import DcfSimulator

    n = int(params["n_stations"])
    standard = params.get("standard", "802.11a")
    rate = float(params.get("rate_mbps", 54.0))
    payload = int(params.get("payload_bytes", 1500))
    sim = DcfSimulator(n, standard, rate, payload,
                       rts_cts=bool(params.get("rts_cts", False)), rng=rng)
    result = sim.run(float(params.get("duration", 0.2)))
    return {
        "throughput_mbps": result.throughput_mbps,
        "collision_probability": result.collision_probability,
        "jain_fairness": result.jain_fairness,
        "bianchi_mbps": bianchi_saturation_throughput(n, standard, rate,
                                                      payload),
    }


register_point_kind("link", _run_link_point, code_version="2")
register_point_kind("link-grid", _run_link_grid_point, code_version="1")
register_point_kind("mimo-range", _run_mimo_range_point, code_version="1")
# v2: collision_probability switched to the per-attempt denominator
# (Bianchi's conditional p); cached v1 records carry the biased ratio.
register_point_kind("dcf", _run_dcf_point, code_version="2")
# PER-surface cells (repro.surrogate.builder) share the link point
# function — a cell *is* one PER/BER measurement — but carry their own
# kind so surface campaigns are addressable in the store and their
# cache keys can evolve independently of ad-hoc link sweeps.
# Inline surface builds run each row of uncached cells (one rate at one
# payload, every SNR) through the batch form: the row's cells share its
# transmit and receive calls, while each cell keeps its own generator,
# record and cache key.
register_point_kind("surface-link", _run_link_point, code_version="1",
                    batch=_run_link_points, batch_over="snr_db")

# Snapshot of the registry as a fresh import creates it. A worker
# spawned (rather than forked) re-imports this module and gets exactly
# these entries; anything else must be shipped to it explicitly.
_BUILTIN_ENTRIES = dict(_POINT_KINDS)


def _register_in_worker(kind, func, code_version):
    """Worker initializer: re-register a custom kind in a child process.

    Under the ``spawn``/``forkserver`` start methods workers do not
    inherit the parent's registry mutations, so custom kinds registered
    after import would vanish; this runs once per worker to restore the
    campaign's kind before any point executes.
    """
    register_point_kind(kind, func, code_version)


def _worker_initializer(kind):
    """``(initializer, initargs)`` needed so queue workers know ``kind``.

    Built-in kinds are re-created by the module import in every child,
    so they need nothing. Custom kinds are shipped by value when their
    function pickles; an unpicklable function (e.g. a lambda) falls
    back to fork inheritance, which is what worked before — only the
    spawn start method cannot support it.
    """
    entry = _POINT_KINDS.get(kind)
    if entry is None or entry == _BUILTIN_ENTRIES.get(kind):
        return None, ()
    func, code_version = entry
    try:
        pickle.dumps(func)
    except Exception:
        return None, ()
    return _register_in_worker, (kind, func, code_version)


# -- execution ---------------------------------------------------------------

class _PointTimeout(Exception):
    """Internal: a point overran its wall-clock budget."""


def _call_point(func, params, rng, timeout_s):
    """Invoke ``func`` with an optional wall-clock budget.

    With a timeout the call runs on a daemon thread and is abandoned at
    the deadline (the thread cannot be killed, but the worker process
    moves on; stragglers die with the process). Without one the call is
    made inline — zero overhead on the common path.

    An abandoned thread keeps executing the point after the record says
    ``timeout`` — and an instrumented point function keeps emitting
    spans and counters. Those late events used to land in the process
    tracer and get merged into the trace as if the campaign were still
    doing work, skewing every per-point aggregate. At the deadline the
    straggler's thread ident is therefore marked abandoned (the tracer
    and the metrics registry drop everything it emits from then on);
    The thread revives its own ident as its last act, so the abandoned
    set holds only live stragglers and a later thread that inherits the
    ident is not muted; ``revive_thread`` at thread birth covers the
    thread that finished between the liveness check and the abandon.
    """
    if not timeout_s:
        return func(params, rng)
    outcome = {}

    def target():
        ident = threading.get_ident()
        obs.revive_thread(ident)
        try:
            outcome["metrics"] = func(params, rng)
        except BaseException as exc:  # propagated to the caller below
            outcome["exc"] = exc
        finally:
            obs.revive_thread(ident)

    worker = threading.Thread(target=target, daemon=True,
                              name="campaign-point")
    worker.start()
    worker.join(float(timeout_s))
    if worker.is_alive():
        obs.abandon_thread(worker.ident)
        raise _PointTimeout(
            f"point exceeded its {float(timeout_s):g}s wall-clock budget")
    if "exc" in outcome:
        raise outcome["exc"]
    return outcome["metrics"]


_MAX_TRACEBACK_CHARS = 8000

# Per-process tracers for queue workers, keyed by trace directory. A
# worker is reused across many points (and possibly across campaigns),
# so it opens its part file once and keeps appending.
_WORKER_TRACERS = {}


def _process_tracer(trace_dir):
    """This process's tracer writing to ``trace_dir`` (created once)."""
    tracer = _WORKER_TRACERS.get(trace_dir)
    if tracer is None:
        tracer = obs.Tracer(obs.TraceWriter(
            obs.part_path(trace_dir, "worker")))
        _WORKER_TRACERS[trace_dir] = tracer
    return tracer


def _execute_point(kind, campaign, base_seed, index, params, key,
                   retries=0, timeout_s=None, trace_dir=None):
    """Run one point in whatever process this lands in (worker or main).

    Never raises: every exception from the point function becomes a
    structured ``error`` record, an overrun becomes ``timeout``, and
    failures are retried up to ``retries`` times with attempt ``k``
    drawing from the deterministic ``(base_seed, index, k)`` stream.
    Timeouts are terminal — re-running a hang would just hang again and
    burn the budget times over.

    ``trace_dir`` is set on queue submissions of traced runs: the worker
    installs its own per-process tracer (appending to
    ``trace_dir/worker-<pid>.jsonl``) for the duration, which both
    works under ``spawn`` (no inherited state needed) and shadows any
    fork-inherited parent tracer that would otherwise misattribute
    events. Inline execution passes ``None`` and inherits the ambient
    tracer of the orchestrating process.
    """
    if trace_dir is not None:
        with obs.use_tracer(_process_tracer(trace_dir)):
            return _execute_point_impl(kind, campaign, base_seed, index,
                                       params, key, retries, timeout_s)
    return _execute_point_impl(kind, campaign, base_seed, index, params,
                               key, retries, timeout_s)


def _execute_point_impl(kind, campaign, base_seed, index, params, key,
                        retries, timeout_s):
    func, code_version = _lookup_kind(kind)
    attempts = 0
    metrics, outcome, error, error_type, tb_text = {}, "error", None, None, \
        None
    with obs.span("campaign.execute", kind=kind, campaign=campaign,
                  index=index) as exec_span, obs.timed() as clock:
        for attempt in range(int(retries) + 1):
            attempts = attempt + 1
            rng = attempt_generator(base_seed, index, attempt)
            with obs.span("campaign.attempt", index=index,
                          attempt=attempt) as attempt_span:
                try:
                    metrics = _call_point(func, params, rng, timeout_s)
                    outcome, error, error_type, tb_text = "ok", None, None, \
                        None
                except _PointTimeout as exc:
                    metrics, outcome, error = {}, "timeout", str(exc)
                    error_type, tb_text = "TimeoutError", None
                except Exception as exc:
                    metrics, outcome, error = {}, "error", str(exc)
                    error_type = type(exc).__name__
                    tb_text = traceback_module.format_exc()[
                        -_MAX_TRACEBACK_CHARS:]
                attempt_span.set(outcome=outcome)
            if outcome != "error":
                break
        exec_span.set(outcome=outcome, attempts=attempts)
    return _point_record(kind, campaign, code_version, base_seed, index,
                         params, key, metrics, clock.seconds, outcome,
                         error, error_type, tb_text, attempts)


def _point_record(kind, campaign, code_version, base_seed, index, params,
                  key, metrics, wall_time_s, outcome="ok", error=None,
                  error_type=None, tb_text=None, attempts=1):
    """One point's record (see the module docstring for the schema)."""
    return {
        "key": key,
        "campaign": campaign,
        "kind": kind,
        "code_version": code_version,
        "index": index,
        "params": dict(params),
        "base_seed": int(base_seed),
        "metrics": metrics,
        "outcome": outcome,
        "error": error,
        "error_type": error_type,
        "traceback": tb_text,
        "attempts": attempts,
        "wall_time_s": wall_time_s,
        "worker": os.getpid(),
    }


def _batch_rows(todo, batch_over):
    """``todo``'s ``(key, point)`` pairs split into batch rows.

    A row holds the points whose params agree in everything but
    ``batch_over``; rows and the points in them keep ``todo``'s order.
    """
    rows = {}
    for key, pt in todo:
        shared = sorted((k, repr(v)) for k, v in pt.params.items()
                        if k != batch_over)
        rows.setdefault(repr(shared), []).append((key, pt))
    return list(rows.values())


def _execute_batch(kind, campaign, base_seed, todo, retries):
    """Run the ``(key, point)`` pairs of one batch row through ``kind``'s
    batch form; yields one record per point, in ``todo`` order.

    Each point draws from its own attempt-0 generator, as the first try
    of :func:`_execute_point` does, so its metrics — and its record,
    which carries ``batched: true`` — are those a per-point run
    records; its ``wall_time_s`` is an even share of the batch's wall
    time. A batch that raises (or returns the wrong number of metrics)
    re-runs every point one by one through :func:`_execute_point`,
    which records errors, tracebacks and retries as for any point.
    """
    batch, _ = _BATCH_FORMS[kind]
    _, code_version = _lookup_kind(kind)
    with obs.span("campaign.batch", kind=kind, campaign=campaign,
                  n_points=len(todo)) as span, obs.timed() as clock:
        try:
            metrics = batch(
                [pt.params for _, pt in todo],
                [attempt_generator(base_seed, pt.index, 0)
                 for _, pt in todo])
            if len(metrics) != len(todo):
                raise ConfigurationError(
                    f"batch form of {kind!r} returned {len(metrics)} "
                    f"results for {len(todo)} points")
            span.set(outcome="ok")
        except Exception as exc:
            span.set(outcome="error", error_type=type(exc).__name__)
            metrics = None
    if metrics is None:
        for key, pt in todo:
            yield _execute_point(kind, campaign, base_seed, pt.index,
                                 pt.params, key, retries)
        return
    share = clock.seconds / len(todo)
    for (key, pt), point_metrics in zip(todo, metrics):
        yield dict(_point_record(kind, campaign, code_version, base_seed,
                                 pt.index, pt.params, key, point_metrics,
                                 share), batched=True)


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: object
    records: list
    n_cached: int
    n_executed: int
    wall_time_s: float
    workers: int = 1
    extras: dict = field(default_factory=dict)

    @property
    def n_points(self):
        """Total grid points (cached + executed)."""
        return len(self.records)

    @property
    def cache_hit_rate(self):
        """Fraction of points served from the store, in [0, 1]."""
        return self.n_cached / self.n_points if self.n_points else 0.0

    def metrics_by_index(self):
        """``{index: metrics}`` across all records (cached or fresh)."""
        return {r["index"]: r["metrics"] for r in self.records}

    @property
    def failed_records(self):
        """Records whose outcome is not ``ok``, in grid order."""
        return [r for r in self.records if r.get("outcome") != "ok"]

    @property
    def n_failed(self):
        """How many points ended this run in ``error`` or ``timeout``."""
        return len(self.failed_records)

    def check(self):
        """Raise :class:`~repro.errors.PointExecutionError` on failure.

        For callers that want the pre-PR "a bad sweep is an exception"
        contract back — but only after the whole grid ran and every
        failure was recorded. Returns ``self`` so it chains.
        """
        if self.failed_records:
            first = self.failed_records[0]
            raise PointExecutionError(
                f"{self.n_failed}/{self.n_points} points failed; first: "
                f"point {first.get('index')} [{first.get('outcome')}] "
                f"{first.get('error_type')}: {first.get('error')}",
                index=first.get("index"),
                params=first.get("params"),
                attempts=first.get("attempts"),
                outcome=first.get("outcome", "error"),
            )
        return self


def run_campaign(spec, workers=1, store=None, force=False, echo=None,
                 retries=None, timeout_s=None, start_method=None,
                 trace=False, backend=None, shard_size=None, resume=False,
                 heartbeat_s=None):
    """Execute a campaign, reusing cached points from ``store``.

    Parameters
    ----------
    spec : CampaignSpec
    workers : int
        ``1`` runs points inline (no subprocesses); more runs them on
        that many local-queue workers. Any value produces bit-identical
        metrics because seeding is per-point.
    store : ResultsStore or None
        When given, previously stored points with matching cache keys are
        skipped and fresh points are appended as they complete. ``None``
        runs fully in memory (nothing read or written).
    force : bool
        Recompute every point even if cached.
    echo : callable or None
        Optional progress sink; called with one string per event.
    retries : int or None
        Override ``spec.retries`` for this run (``None`` keeps the spec).
    timeout_s : float or None
        Override ``spec.timeout_s`` for this run (``None`` keeps the
        spec; pass ``0`` to disable a spec timeout).
    start_method : str or None
        Multiprocessing start method for queue workers (``fork``,
        ``spawn``, ``forkserver``). ``None`` uses ``$REPRO_CAMPAIGN_START_METHOD``
        when set, else the platform default.
    backend : str or None
        Legacy knob, kept so old specs and scripts still run: validated
        against :data:`~repro.campaign.spec.EXECUTION_BACKENDS` but it
        selects nothing — ``workers`` alone decides between inline and
        the local queue. Never enters the cache key.
    shard_size : int or None
        Points per local-queue work unit (``None`` = ~4 units per
        worker). Ignored when ``workers=1``.
    resume : bool
        Mark this run as a resume of an interrupted campaign: emits a
        ``campaign.resume`` event carrying how much of the grid the
        store already held, and — when tracing — *appends* to the
        campaign's existing trace directory instead of resetting it,
        so the finished trace covers the killed run plus the resume.
        Otherwise observational — *every* store-backed run already
        skips completed points via cache keys.
    heartbeat_s : float or None
        Live-status cadence: how often workers heartbeat (flushing
        in-flight telemetry) and the parent writes
        ``results/<name>/status.json`` — every heartbeat from one
        heartbeat in, plus once at the end, so a run killed inside its
        first heartbeat leaves the previous document (see
        :mod:`repro.obs.live`). ``None`` uses ``$REPRO_HEARTBEAT_S``,
        default 1.0 s. Only store-backed runs write a status file.
    trace : bool
        Collect :mod:`repro.obs` telemetry for this run. With a store,
        every process writes a JSONL part file under
        ``results/<campaign>/trace/`` and the parent merges them into
        ``trace.jsonl`` after the workers exit
        (``result.extras["trace_path"]``); without one the trace stays
        in memory. Either way ``result.extras["trace"]`` carries the
        parent tracer's :meth:`~repro.obs.Tracer.summary`. With
        ``trace=False`` the runner still emits spans to any ambient
        tracer the caller installed — it just doesn't manage one.

    Returns
    -------
    CampaignResult
        One record per grid point — failures included, never ``None``
        holes — ordered by grid index, with ``record["cached"]`` marking
        points served from the store (their ``wall_time_s`` is 0.0:
        this run spent nothing on them). Use
        :meth:`CampaignResult.check` to turn remaining failures into an
        exception.
    """
    if not trace:
        return _run_campaign(spec, workers, store, force, echo, retries,
                             timeout_s, start_method, trace_dir=None,
                             backend=backend, shard_size=shard_size,
                             resume=resume, heartbeat_s=heartbeat_s)
    trace_dir = None
    if store is not None:
        trace_dir = store.trace_dir(spec.name)
        if resume:
            # A resumed run appends to the interrupted run's trace:
            # stale part files (the kill landed before the merge) are
            # folded in alongside this run's, and an already-merged
            # trace.jsonl is kept and extended at merge time below.
            os.makedirs(trace_dir, exist_ok=True)
        else:
            obs.reset_trace_dir(trace_dir)
        tracer = obs.Tracer(obs.TraceWriter(obs.part_path(trace_dir,
                                                          "main")))
    else:
        tracer = obs.Tracer()
    with obs.use_tracer(tracer):
        result = _run_campaign(spec, workers, store, force, echo, retries,
                               timeout_s, start_method, trace_dir,
                               backend=backend, shard_size=shard_size,
                               resume=resume, heartbeat_s=heartbeat_s)
    result.extras["trace"] = tracer.summary()
    if trace_dir is not None:
        merged, _ = obs.merge_trace_dir(trace_dir, fold_existing=resume)
        result.extras["trace_path"] = merged
    return result


def _run_campaign(spec, workers, store, force, echo, retries, timeout_s,
                  start_method, trace_dir, backend=None, shard_size=None,
                  resume=False, heartbeat_s=None):
    """The sweep itself, emitting telemetry to the ambient tracer."""
    _, code_version = _lookup_kind(spec.kind)  # validate kind up front
    workers = max(1, int(workers))
    retries = int(spec.retries if retries is None else retries)
    timeout_s = spec.timeout_s if timeout_s is None else (timeout_s or None)
    start_method = start_method or os.environ.get(
        "REPRO_CAMPAIGN_START_METHOD") or None
    legacy = backend or spec.backend
    if legacy is not None and legacy not in EXECUTION_BACKENDS:
        raise ConfigurationError(
            f"unknown execution backend {legacy!r}; available: "
            f"{', '.join(EXECUTION_BACKENDS)}"
        )
    # The path actually taken, as status.json and trace spans report it.
    backend = "inline" if workers == 1 else "local-queue"
    say = echo or (lambda _msg: None)
    points = spec.expand()

    # Live status: store-backed runs keep results/<name>/status.json
    # fresh for `repro campaign watch`. The board owns a metrics
    # registry (installed process-wide below so the MC engine's batch
    # latency histograms land in it) and a ticker thread that writes
    # the file every heartbeat; `finish` writes the terminal document.
    board = None
    registry = None
    if store is not None:
        registry = obs_metrics.MetricsRegistry()
        board = live.StatusBoard(
            live.status_path(store.campaign_dir(spec.name)),
            campaign=spec.name, total=len(points), workers=workers,
            backend=backend, heartbeat_s=heartbeat_s, registry=registry)
    try:
        if registry is not None:
            with obs_metrics.use_registry(registry):
                result = _run_campaign_impl(
                    spec, workers, store, force, say, retries, timeout_s,
                    start_method, trace_dir, backend, shard_size, resume,
                    code_version, points, board)
        else:
            result = _run_campaign_impl(
                spec, workers, store, force, say, retries, timeout_s,
                start_method, trace_dir, backend, shard_size, resume,
                code_version, points, board)
    except BaseException:
        if board is not None:
            board.finish("failed")
        raise
    if board is not None:
        board.finish("failed" if result.n_failed else "done")
    return result


def _run_campaign_impl(spec, workers, store, force, say, retries,
                       timeout_s, start_method, trace_dir, backend,
                       shard_size, resume, code_version, points, board):

    if board is not None:
        board.start_ticker()
    with obs.span("campaign.run", campaign=spec.name, kind=spec.kind,
                  n_points=len(points), backend=backend,
                  resume=bool(resume),
                  workers=workers) as run_span, obs.timed() as clock:
        known = {}
        if store is not None and not force:
            known = {r["key"]: r for r in store.iter_records(spec.name)
                     if r.get("outcome") == "ok"}

        records = [None] * len(points)
        todo = []
        for pt in points:
            key = point_key(spec.kind, code_version, spec.base_seed,
                            pt.index, pt.params)
            if key in known:
                cached = dict(known[key])
                cached["cached"] = True
                # This run did no work for a hit; carrying the original
                # run's timing forward would double-count it in every
                # downstream wall-time summary.
                cached["wall_time_s"] = 0.0
                records[pt.index] = cached
                obs.event("campaign.point", 0.0, index=pt.index,
                          outcome=cached.get("outcome", "ok"), cached=True,
                          attempts=0)
                obs.counter("campaign.cache.hit")
            else:
                todo.append((key, pt))
                obs.counter("campaign.cache.miss")

        if store is not None:
            store.write_spec(spec)

        n_cached = len(points) - len(todo)
        if board is not None:
            board.point_cached(n_cached)
        if resume:
            obs.event("campaign.resume", 0.0, campaign=spec.name,
                      n_complete=n_cached, n_todo=len(todo))
            say(f"{spec.name}: resuming — {n_cached}/{len(points)} points "
                f"already complete, {len(todo)} to run")
        elif n_cached:
            say(f"{spec.name}: {n_cached}/{len(points)} points cached")

        busy = {"s": 0.0}
        n_finished = {"n": 0}

        def finish(record, t_submit):
            record["cached"] = False
            records[record["index"]] = record
            busy["s"] += record["wall_time_s"] or 0.0
            n_finished["n"] += 1
            if store is not None:
                store.append(spec.name, record)
            if board is not None:
                board.point_done(outcome=record["outcome"],
                                 worker=record["worker"],
                                 wall_s=record["wall_time_s"])
                if workers == 1:
                    # The queue loop reports lease-accurate in-flight
                    # counts itself; inline runs one point at a time.
                    board.set_running(min(1, len(todo) - n_finished["n"]))
            # The span's duration is submit-to-finish latency as the
            # orchestrator saw it; ``exec_s`` is the time the point
            # actually computed — the gap is queueing + transport.
            batched = ({"batched": True,
                        "n_trials": record["metrics"].get("n_trials")}
                       if record.get("batched") else {})
            obs.event("campaign.point", clock.elapsed - t_submit,
                      index=record["index"], outcome=record["outcome"],
                      attempts=record.get("attempts", 1), cached=False,
                      exec_s=record["wall_time_s"],
                      worker=record["worker"], **batched)
            obs.counter(f"campaign.outcome.{record['outcome']}")
            extra = (record.get("attempts") or 1) - 1
            if extra > 0:
                obs.counter("campaign.retry.extra_attempts", extra)
            say(f"{spec.name}[{record['index']}] {record['outcome']} "
                f"in {record['wall_time_s']:.2f}s "
                f"(worker {record['worker']})")

        extras = {}
        if todo and workers > 1:
            from repro.campaign import queue as queue_backend

            extras["queue"] = queue_backend.run_local_queue(
                spec, code_version, todo, workers, retries, timeout_s,
                start_method, trace_dir, finish, clock,
                shard_size=shard_size, board=board)
        else:
            if board is not None and todo:
                board.set_running(1)
            if todo and spec.kind in _BATCH_FORMS and not timeout_s:
                # A kind's batch form runs its uncached points a row at
                # a time, each row's records finished as it returns; a
                # timeout is per point, so it runs them singly.
                for row in _batch_rows(todo, _BATCH_FORMS[spec.kind][1]):
                    t_submit = clock.elapsed
                    for record in _execute_batch(spec.kind, spec.name,
                                                 spec.base_seed, row,
                                                 retries):
                        finish(record, t_submit)
            else:
                for key, pt in todo:
                    t_submit = clock.elapsed
                    finish(_execute_point(spec.kind, spec.name,
                                          spec.base_seed, pt.index,
                                          pt.params, key, retries,
                                          timeout_s), t_submit)

        elapsed = clock.elapsed
        run_span.set(n_cached=n_cached, n_executed=len(todo),
                     busy_s=busy["s"],
                     utilization=(busy["s"] / (workers * elapsed)
                                  if elapsed > 0 else 0.0))

    return CampaignResult(
        spec=spec,
        records=records,
        n_cached=n_cached,
        n_executed=len(todo),
        wall_time_s=clock.seconds,
        workers=int(workers),
        extras=extras,
    )


def resume_campaign(name, store, workers=1, echo=None, retries=None,
                    timeout_s=None, start_method=None, trace=False,
                    backend=None, shard_size=None, heartbeat_s=None):
    """Pick up an interrupted campaign from its persisted spec + records.

    Loads the spec the killed run saved alongside its records, then
    re-runs the campaign against the same store: completed points are
    served from their stored records, missing points re-execute from
    their deterministic per-point substreams — so the finished record
    set is bit-identical to a run that was never interrupted,
    regardless of where the kill landed or which worker count finishes
    the job. Never forces recomputation.
    """
    spec = store.load_spec(name)
    return run_campaign(spec, workers=workers, store=store, force=False,
                        echo=echo, retries=retries, timeout_s=timeout_s,
                        start_method=start_method, trace=trace,
                        backend=backend, shard_size=shard_size,
                        resume=True, heartbeat_s=heartbeat_s)
