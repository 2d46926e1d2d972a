"""The adaptive Monte-Carlo trial driver behind every simulation loop.

One loop, :func:`run_grid_trials`, runs the trials of many points at
once; :func:`run_trials` is its one-point case. Two modes:

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
interval is for. In a grid each point stops on its own.

Batch functions
---------------
:func:`run_trials` calls ``batch_fn(rng, m) -> dict`` for each batch of
``m`` trials. Values are batch *sums* for the ``"rate"`` estimand; for
``"mean"``/``"quantile"`` the target carries per-trial values, shape
``(m,)`` or ``(m, d)``. :func:`per_trial` turns a per-trial function
``trial_fn(rng) -> dict`` into a batch function that sums its metrics.
:func:`run_grid_trials` calls ``grid_fn(lo, hi, points)``, whose values
carry the same shapes behind a leading per-point axis.

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
from repro.utils.validation import require_count

#: Default trial ceiling for adaptive runs that never reach precision.
DEFAULT_MAX_TRIALS = 100_000

#: Stop reasons an :class:`McResult` may carry. ``analytic`` marks a
#: point that never ran a trial: a closed-form bound already pinned the
#: target below the caller's confidence floor (see
#: :func:`analytic_result`).
STOP_REASONS = ("budget", "precision", "max_trials", "analytic")

#: ``McResult.method`` of the non-rate estimands' intervals.
_INTERVAL_METHODS = {"mean": "normal", "quantile": "order-stat"}


@dataclass
class McResult:
    """Outcome of one Monte-Carlo point: a :func:`run_trials` call or
    one point of a :func:`run_grid_trials` call.

    ``estimate``/``ci_low``/``ci_high`` are floats for scalar
    estimands and arrays for vector-valued means. ``n_events`` counts
    the target's events for the ``"rate"`` estimand and is ``None`` for
    the others. ``totals`` holds the summed non-target metrics (e.g.
    accumulated bit errors alongside a packet-error-rate target).
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
    """``(trial limit, precision, batch size)`` of a run's arguments."""
    batch_size = require_count("batch_size", batch_size)
    if n_trials is not None:
        n_trials = require_count("n_trials", n_trials)
    if precision is None:
        if n_trials is None:
            raise ConfigurationError(
                "fixed-budget mode needs n_trials >= 1 "
                "(or pass precision= for adaptive mode)"
            )
        return n_trials, None, batch_size
    precision = float(precision)
    if not precision > 0.0:
        raise ConfigurationError(
            f"precision must be > 0, got {precision}"
        )
    max_trials = DEFAULT_MAX_TRIALS if max_trials is None \
        else require_count("max_trials", max_trials)
    return max_trials, precision, batch_size


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


def per_trial(trial_fn):
    """The batch function of a per-trial ``trial_fn(rng) -> dict``.

    A batch of ``m`` trials calls ``trial_fn(rng)`` ``m`` times in order
    and sums each metric as Python numbers, so a ``"rate"`` run draws
    from the generator exactly as a loop over single trials would.
    """
    def batch_fn(rng, m):
        out = {}
        for _ in range(m):
            for key, val in trial_fn(rng).items():
                out[key] = out.get(key, 0) + val
        return out
    return batch_fn


def run_trials(batch_fn, n_trials=None, *, target, rng=None,
               precision=None, max_trials=None, batch_size=100,
               confidence=0.95, method="wilson", estimand="rate",
               quantile=None):
    """Drive ``batch_fn`` to a fixed budget or a precision target.

    A one-point :func:`run_grid_trials`: each batch of ``m`` trials is
    one ``batch_fn(rng, m)`` call on the caller's generator, so the
    generator is consumed in trial order.

    Parameters
    ----------
    batch_fn : callable
        ``batch_fn(rng, m) -> dict`` of metrics covering ``m`` trials
        (see the module docstring for the value conventions per
        estimand); :func:`per_trial` builds one from a per-trial
        function.
    rng : seed or Generator
        Passed straight through to ``batch_fn``; giving the caller's
        own generator preserves the legacy draw order exactly.
    n_trials, target, precision, max_trials, batch_size, confidence, \
method, estimand, quantile
        As for :func:`run_grid_trials`.

    Returns
    -------
    McResult
    """
    rng = as_generator(rng)

    def grid_fn(lo, hi, points):
        return {key: [val] for key, val in batch_fn(rng, hi - lo).items()}

    (result,) = run_grid_trials(
        grid_fn, n_trials, 1, target=target, batch_size=batch_size,
        confidence=confidence, method=method, precision=precision,
        max_trials=max_trials, estimand=estimand, quantile=quantile)
    return result


def run_grid_trials(grid_fn, n_trials, n_points, *, target,
                    batch_size=100, analytic=None, confidence=0.95,
                    method="wilson", precision=None, max_trials=None,
                    estimand="rate", quantile=None):
    """Trials for *many* grid points at once.

    Cross-point batching: one ``grid_fn`` invocation covers a slice of
    the trial budget for **every** still-active point, so a sweep's
    kernels (transmit, channel, decode) amortise across its whole
    (SNR, rate) grid instead of one operating point at a time.

    Parameters
    ----------
    grid_fn : callable
        ``grid_fn(lo, hi, points) -> dict`` running trials ``lo..hi-1``
        for each point index in ``points`` (a 1-D int array). Every
        value has a leading axis of ``len(points)``. Non-target values
        are per-point *batch sums*; so is the target of a ``"rate"``
        estimand, which counts Bernoulli events. The target of a
        ``"mean"``/``"quantile"`` estimand carries per-trial values,
        shape ``(len(points), hi - lo)`` or ``(len(points), hi - lo,
        d)``. When the trial index, not a generator, carries the
        randomness — trial ``i`` uses the same underlying draws for
        every point (common random numbers) — cross-point and per-point
        execution of the same scheme are bit-identical.
    n_trials : int or None
        Fixed per-point trial budget. Required when ``precision`` is
        ``None``; ignored in adaptive mode.
    target : str
        The metric key the stopping rule (and the CI) applies to.
    n_points : int
        Grid size; results come back as a list of this length.
    batch_size : int
        Trials per ``grid_fn`` invocation.
    analytic : dict or None
        ``{point_index: bound}`` for points a closed-form bound already
        resolved below the caller's confidence floor: they are excluded
        from every ``grid_fn`` call and returned as
        :func:`analytic_result` records (``stop_reason="analytic"``).
        ``"rate"`` estimand only.
    confidence, method
        Per-point interval confidence, in (0, 1), and the rate-interval
        flavour (``"wilson"`` or ``"clopper-pearson"``).
    precision, max_trials
        Adaptive mode, per point: after each batch a point whose
        interval has relative half-width ``<= precision`` leaves the
        grid (``stop_reason="precision"``); the rest run to
        ``max_trials`` (default ``DEFAULT_MAX_TRIALS``;
        ``"max_trials"``).
    estimand, quantile
        ``"rate"`` (default), ``"mean"`` or ``"quantile"``, and the
        quantile to estimate for ``"quantile"``.

    Returns
    -------
    list of :class:`McResult`, one per point in index order.
    """
    n_points = int(n_points)
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    limit, precision, batch_size = _validate(n_trials, precision,
                                             max_trials, batch_size)
    analytic = {int(i): float(v) for i, v in (analytic or {}).items()}
    if analytic and estimand != "rate":
        raise ConfigurationError(
            "analytic= only applies to estimand='rate'")
    for i in analytic:
        if not 0 <= i < n_points:
            raise ConfigurationError(
                f"analytic point index {i} outside grid of {n_points}")
    active = [i for i in range(n_points) if i not in analytic]
    accs = {i: _make_accumulator(estimand, method, quantile)
            for i in active}
    totals = {i: {} for i in active}
    stops = {}

    with obs.span("mc.run_grid", target=target, estimand=estimand,
                  n_points=n_points, n_analytic=len(analytic),
                  mode="fixed" if precision is None
                  else "adaptive") as span, obs.timed() as clock:
        done = 0
        while active and done < limit:
            m = min(batch_size, limit - done)
            out = dict(_run_batch(m * len(active), grid_fn, done, done + m,
                                  np.array(active, dtype=np.int64)))
            if target not in out:
                raise ConfigurationError(
                    f"trial function never produced target metric "
                    f"{target!r}; got keys {sorted(out)}")
            for key, vals in out.items():
                vals = np.asarray(vals)
                if vals.shape[:1] != (len(active),):
                    raise ConfigurationError(
                        f"grid metric {key!r} must carry one value per "
                        f"active point (expected leading dimension "
                        f"{len(active)}, got shape {vals.shape})")
                if key == target and estimand != "rate":
                    if vals.shape[1:2] != (m,):
                        raise ConfigurationError(
                            f"target {target!r} must carry one value per "
                            f"trial (expected shape ({len(active)}, {m}, "
                            f"...), got {vals.shape})")
                    for j, i in enumerate(active):
                        accs[i].add(vals[j])
                    continue
                if vals.ndim == 1:
                    vals = vals.tolist()  # Python numbers in the totals
                for j, i in enumerate(active):
                    if key == target:
                        accs[i].add(vals[j], m)
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
        n_run = sum(acc.n_trials for acc in accs.values())
        obs.counter("mc.trials", n_run)
        for reason in STOP_REASONS:
            n_stopped = sum(1 for r in stops.values() if r == reason)
            if n_stopped:
                obs.counter(f"mc.stop.{reason}", n_stopped)
        span.set(n_trials=n_run, trials_per_s=(
            n_run / clock.elapsed if clock.elapsed > 0 else 0.0))

    results = []
    for i in range(n_points):
        if i in analytic:
            results.append(analytic_result(
                analytic[i], target=target, confidence=confidence))
            continue
        acc = accs[i]
        if estimand == "rate":
            totals[i][target] = acc.n_events
        lo, hi = acc.interval(confidence)
        results.append(McResult(
            estimate=acc.estimate(),
            ci_low=lo,
            ci_high=hi,
            n_trials=acc.n_trials,
            confidence=float(confidence),
            stop_reason=stops[i],
            method=_INTERVAL_METHODS.get(estimand, method),
            target=target,
            estimand=estimand,
            n_events=getattr(acc, "n_events", None),
            precision=precision,
            totals=totals[i],
        ))
    return results
