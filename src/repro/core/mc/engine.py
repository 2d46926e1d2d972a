"""The adaptive Monte-Carlo trial driver behind every simulation loop.

One engine, two modes:

**Fixed budget** (``precision=None``) replays exactly ``n_trials``
trials in submission order against the caller's generator — bit for bit
what the seed-era hand-rolled ``for _ in range(n)`` loops computed,
because the engine adds no draws of its own and batches preserve the
stream order (regression-tested in ``tests/test_mc.py``).

**Adaptive** (``precision=p``) keeps running batches until the
confidence interval on the target statistic is *relatively* tight
enough — half-width ≤ ``p`` × estimate — or a trial ceiling is hit. A
saturated operating point (PER ≈ 1) settles within a few batches
instead of burning the full budget; a zero-event point can never claim
precision and runs to the ceiling, which is exactly the honesty the
interval is for.

:func:`run_grid_trials` runs many Bernoulli points per call in the same
two modes, on the same batch schedule; each point stops on its own.

Trial functions
---------------
Scalar form (default): ``trial_fn(rng) -> dict`` mapping metric names
to per-trial numbers; the engine sums them across trials. Vectorised
form (``vectorized=True``): ``trial_fn(rng, m) -> dict`` covering ``m``
trials at once — values are batch *sums* for the ``"rate"`` estimand
and per-trial value arrays (shape ``(m,)`` or ``(m, d)``) for the
``"mean"``/``"quantile"`` estimands.

The ``target`` key selects the statistic the stopping rule watches:

* ``estimand="rate"`` — the target counts Bernoulli events; the
  estimate is an error rate with a Wilson (or Clopper–Pearson) CI;
* ``estimand="mean"`` — the target carries per-trial values; the
  estimate is their mean with a normal-theory CI;
* ``estimand="quantile"`` — per-trial values, estimate is the
  ``quantile``-quantile with a distribution-free order-statistic CI.

Every run returns an :class:`McResult` carrying the estimate, the CI,
the consumed trial count, the stop reason, and the summed totals of all
non-target metrics — enough for a caller to rebuild its legacy result
object *and* ship error bars.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.core.mc.stats import (
    MeanAccumulator,
    QuantileAccumulator,
    RateAccumulator,
)
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator

#: Default trial ceiling for adaptive runs that never reach precision.
DEFAULT_MAX_TRIALS = 100_000

#: Stop reasons an :class:`McResult` may carry. ``analytic`` marks a
#: point that never ran a trial: a closed-form bound already pinned the
#: target below the caller's confidence floor (see
#: :func:`analytic_result`).
STOP_REASONS = ("budget", "precision", "max_trials", "analytic")


@dataclass
class McResult:
    """Outcome of one :func:`run_trials` invocation.

    ``estimate``/``ci_low``/``ci_high`` are floats for scalar
    estimands and arrays for vector-valued means. ``totals`` holds the
    summed non-target metrics (e.g. accumulated bit errors alongside a
    packet-error-rate target).
    """

    estimate: object
    ci_low: object
    ci_high: object
    n_trials: int
    confidence: float
    stop_reason: str
    method: str
    target: str
    estimand: str = "rate"
    n_events: int = None
    precision: float = None
    totals: dict = field(default_factory=dict)

    @property
    def half_width(self):
        """Half the CI width (same shape as ``estimate``)."""
        return (np.asarray(self.ci_high) - np.asarray(self.ci_low)) / 2.0

    @property
    def rel_half_width(self):
        """Half-width relative to the estimate (``inf`` at estimate 0)."""
        est = np.abs(np.asarray(self.estimate, dtype=float))
        half = np.asarray(self.half_width, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(est > 0.0, half / est, np.inf)
        return float(rel) if rel.ndim == 0 else rel

    def ci(self):
        """The ``(lo, hi)`` interval as a tuple."""
        return self.ci_low, self.ci_high


def analytic_result(estimate, *, target, method="union-bound",
                    confidence=0.95, totals=None):
    """An :class:`McResult` for a point resolved without any MC trials.

    The caller's closed-form bound stands in for the estimate: the
    interval is ``[0, bound]`` (the bound is an upper bound, so the
    truth lies below it), ``n_trials`` is 0 and the stop reason is
    ``"analytic"`` — stores, reports and the CLI all surface the flag,
    and trial-count summaries fold the point in at zero cost.
    """
    estimate = float(estimate)
    if not 0.0 <= estimate <= 1.0:
        raise ConfigurationError(
            f"analytic rate estimate must be in [0, 1], got {estimate}")
    obs.counter("mc.stop.analytic")
    return McResult(
        estimate=estimate,
        ci_low=0.0,
        ci_high=estimate,
        n_trials=0,
        confidence=float(confidence),
        stop_reason="analytic",
        method=str(method),
        target=target,
        estimand="rate",
        n_events=0,
        precision=None,
        totals=dict(totals or {}),
    )


def _make_accumulator(estimand, method, quantile):
    if estimand == "rate":
        return RateAccumulator(method=method)
    if estimand == "mean":
        if quantile is not None:
            raise ConfigurationError(
                "quantile= only applies to estimand='quantile'"
            )
        return MeanAccumulator()
    if estimand == "quantile":
        if quantile is None:
            raise ConfigurationError(
                "estimand='quantile' needs the quantile= argument"
            )
        return QuantileAccumulator(quantile)
    raise ConfigurationError(
        f"unknown estimand {estimand!r}; use 'rate', 'mean' or 'quantile'"
    )


def _validate(n_trials, precision, max_trials, batch_size):
    if int(batch_size) < 1:
        raise ConfigurationError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    if precision is None:
        if n_trials is None or int(n_trials) < 1:
            raise ConfigurationError(
                "fixed-budget mode needs n_trials >= 1 "
                "(or pass precision= for adaptive mode)"
            )
        return int(n_trials), None, None
    precision = float(precision)
    if not precision > 0.0:
        raise ConfigurationError(
            f"precision must be > 0, got {precision}"
        )
    max_trials = DEFAULT_MAX_TRIALS if max_trials is None else int(max_trials)
    if max_trials < 1:
        raise ConfigurationError(
            f"max_trials must be >= 1, got {max_trials}"
        )
    return None, precision, max_trials


def _run_batch(n, fn, *args):
    """``fn(*args)`` as one traced batch of ``n`` trials.

    Histograms the batch latency when a metrics registry is active.
    """
    registry = obs_metrics.current_registry()
    with obs.span("mc.batch", n=n):
        if registry is None:
            return fn(*args)
        t0 = time.perf_counter()
        out = fn(*args)
        registry.observe("mc.batch_s", time.perf_counter() - t0)
        return out


def _record_run(span, clock, n_run, stop_reasons):
    """Count a finished run's trials and stop reasons, once each, and
    set its span's throughput."""
    obs.counter("mc.trials", n_run)
    for reason in STOP_REASONS:
        n_stopped = sum(1 for r in stop_reasons if r == reason)
        if n_stopped:
            obs.counter(f"mc.stop.{reason}", n_stopped)
    rate = n_run / clock.elapsed if clock.elapsed > 0 else 0.0
    span.set(n_trials=n_run, trials_per_s=rate)


def run_trials(trial_fn, n_trials=None, *, target, rng=None,
               precision=None, max_trials=None, batch_size=100,
               confidence=0.95, method="wilson", estimand="rate",
               quantile=None, vectorized=False):
    """Drive ``trial_fn`` to a fixed budget or a precision target.

    Parameters
    ----------
    trial_fn : callable
        ``trial_fn(rng) -> dict`` of per-trial metrics, or — with
        ``vectorized=True`` — ``trial_fn(rng, m) -> dict`` covering
        ``m`` trials (see the module docstring for the value
        conventions per estimand).
    n_trials : int or None
        Fixed trial budget. Required when ``precision`` is ``None``;
        ignored in adaptive mode.
    target : str
        The metric key the stopping rule (and the CI) applies to.
    rng : seed or Generator
        Passed straight through to ``trial_fn``; giving the caller's
        own generator preserves the legacy draw order exactly.
    precision : float or None
        Adaptive mode: stop once the CI half-width on the target drops
        below ``precision`` × estimate. ``None`` = fixed budget.
    max_trials : int or None
        Adaptive trial ceiling (default ``DEFAULT_MAX_TRIALS``).
    batch_size : int
        Trials between CI checks in adaptive mode (and the vectorised
        chunk size).
    confidence : float
        CI confidence level, in (0, 1).
    method : str
        Rate-interval flavour: ``"wilson"`` or ``"clopper-pearson"``.
    estimand : str
        ``"rate"`` (default), ``"mean"`` or ``"quantile"``.
    quantile : float or None
        Which quantile to estimate when ``estimand="quantile"``.
    vectorized : bool
        Whether ``trial_fn`` processes whole batches.

    Returns
    -------
    McResult
    """
    budget, precision, ceiling = _validate(n_trials, precision, max_trials,
                                           batch_size)
    acc = _make_accumulator(estimand, method, quantile)
    rng = as_generator(rng)
    totals = {}

    def consume(m):
        """Run ``m`` trials, feed the accumulator, sum the extras."""
        if vectorized:
            out = dict(trial_fn(rng, m))
        else:
            out = {}
            values = []
            for _ in range(m):
                result = trial_fn(rng)
                for key, val in result.items():
                    if estimand != "rate" and key == target:
                        values.append(val)
                    else:
                        out[key] = out.get(key, 0) + val
            if estimand != "rate":
                out[target] = np.asarray(values)
        if target not in out:
            raise ConfigurationError(
                f"trial function never produced target metric {target!r}; "
                f"got keys {sorted(out)}"
            )
        for key, val in out.items():
            if key == target:
                continue
            totals[key] = totals.get(key, 0) + val
        if estimand == "rate":
            acc.add(out[target], m)
            totals[target] = acc.n_events
        else:
            values = np.asarray(out[target])
            if values.ndim == 0 or values.shape[0] != m:
                raise ConfigurationError(
                    f"target {target!r} must carry one value per trial "
                    f"(expected leading dimension {m}, got shape "
                    f"{values.shape})"
                )
            acc.add(values)

    limit = budget if precision is None else ceiling
    # Fixed budget: vectorised trial functions are fed in batch_size
    # chunks so a large budget never materialises the whole waveform
    # batch at once; generator draws are consumed value-by-value, so
    # chunking leaves the stream (and thus every result) identical to
    # one full-budget call — and to the seed-era hand-rolled loops.
    step = int(batch_size) if vectorized or precision is not None else limit
    with obs.span("mc.run_trials", target=target, estimand=estimand,
                  mode="fixed" if precision is None
                  else "adaptive") as mc_span, obs.timed() as clock:
        stop_reason = "budget" if precision is None else "max_trials"
        done = 0
        while done < limit:
            m = min(step, limit - done)
            _run_batch(m, consume, m)
            done += m
            if precision is not None \
                    and acc.rel_half_width(confidence) <= precision:
                stop_reason = "precision"
                break
        mc_span.set(stop_reason=stop_reason)
        _record_run(mc_span, clock, acc.n_trials, [stop_reason])

    lo, hi = acc.interval(confidence)
    return McResult(
        estimate=acc.estimate(),
        ci_low=lo,
        ci_high=hi,
        n_trials=acc.n_trials,
        confidence=float(confidence),
        stop_reason=stop_reason,
        method=method if estimand == "rate" else
        ("normal" if estimand == "mean" else "order-stat"),
        target=target,
        estimand=estimand,
        n_events=getattr(acc, "n_events", None),
        precision=precision,
        totals=totals,
    )


def run_grid_trials(grid_fn, n_trials, n_points, *, target,
                    batch_size=100, analytic=None, confidence=0.95,
                    method="wilson", precision=None, max_trials=None):
    """Bernoulli trials for *many* grid points at once.

    Cross-point batching: one ``grid_fn`` invocation covers a slice of
    the trial budget for **every** still-active point, so a sweep's
    kernels (transmit, channel, decode) amortise across its whole
    (SNR, rate) grid instead of one operating point at a time.

    Parameters
    ----------
    grid_fn : callable
        ``grid_fn(lo, hi, points) -> dict`` running trials ``lo..hi-1``
        for each point index in ``points`` (a 1-D int array). Values
        are per-point *batch sums*, shape ``(len(points),)`` — the
        ``target`` entry counts Bernoulli events. When the trial index,
        not a generator, carries the randomness — trial ``i`` uses the
        same underlying draws for every point (common random numbers) —
        cross-point and per-point execution of the same scheme are
        bit-identical.
    n_trials : int or None
        Fixed per-point trial budget. Required when ``precision`` is
        ``None``; ignored in adaptive mode.
    n_points : int
        Grid size; results come back as a list of this length.
    batch_size : int
        Trials per ``grid_fn`` invocation.
    analytic : dict or None
        ``{point_index: bound}`` for points a closed-form bound already
        resolved below the caller's confidence floor: they are excluded
        from every ``grid_fn`` call and returned as
        :func:`analytic_result` records (``stop_reason="analytic"``).
    confidence, method
        Per-point Wilson (or Clopper-Pearson) interval parameters.
    precision, max_trials
        Adaptive mode, per point: after each batch a point whose
        interval has relative half-width ``<= precision`` leaves the
        grid (``stop_reason="precision"``); the rest run to
        ``max_trials`` (``"max_trials"``). The batch schedule and stop
        rule are :func:`run_trials`', so a one-point grid stops exactly
        where ``run_trials`` would.

    Returns
    -------
    list of :class:`McResult`, one per point in index order.
    """
    n_points = int(n_points)
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    budget, precision, ceiling = _validate(n_trials, precision, max_trials,
                                           batch_size)
    limit = budget if precision is None else ceiling
    analytic = {int(i): float(v) for i, v in (analytic or {}).items()}
    for i in analytic:
        if not 0 <= i < n_points:
            raise ConfigurationError(
                f"analytic point index {i} outside grid of {n_points}")
    active = [i for i in range(n_points) if i not in analytic]
    accs = {i: RateAccumulator(method=method) for i in active}
    totals = {i: {} for i in active}
    stops = {}

    with obs.span("mc.run_grid", target=target, n_points=n_points,
                  n_analytic=len(analytic),
                  mode="fixed" if precision is None
                  else "adaptive") as span, obs.timed() as clock:
        done = 0
        while active and done < limit:
            m = min(int(batch_size), limit - done)
            out = dict(_run_batch(m * len(active), grid_fn, done, done + m,
                                  np.array(active, dtype=np.int64)))
            if target not in out:
                raise ConfigurationError(
                    f"grid function never produced target metric "
                    f"{target!r}; got keys {sorted(out)}")
            for key, vals in out.items():
                vals = np.asarray(vals)
                if vals.shape[:1] != (len(active),):
                    raise ConfigurationError(
                        f"grid metric {key!r} must carry one value per "
                        f"active point (expected leading dimension "
                        f"{len(active)}, got shape {vals.shape})")
                if vals.ndim == 1:
                    vals = vals.tolist()  # Python numbers in the totals
                for j, i in enumerate(active):
                    if key == target:
                        accs[i].add(vals[j], m)
                        totals[i][target] = accs[i].n_events
                    else:
                        totals[i][key] = totals[i].get(key, 0) + vals[j]
            done += m
            if precision is not None:
                for i in active:
                    if accs[i].rel_half_width(confidence) <= precision:
                        stops[i] = "precision"
                active = [i for i in active if i not in stops]
        for i in active:
            stops[i] = "budget" if precision is None else "max_trials"
        _record_run(span, clock, sum(a.n_trials for a in accs.values()),
                    stops.values())

    results = []
    for i in range(n_points):
        if i in analytic:
            results.append(analytic_result(
                analytic[i], target=target, confidence=confidence))
            continue
        acc = accs[i]
        lo, hi = acc.interval(confidence)
        results.append(McResult(
            estimate=acc.estimate(),
            ci_low=lo,
            ci_high=hi,
            n_trials=acc.n_trials,
            confidence=float(confidence),
            stop_reason=stops[i],
            method=method,
            target=target,
            estimand="rate",
            n_events=acc.n_events,
            precision=precision,
            totals=totals[i],
        ))
    return results
