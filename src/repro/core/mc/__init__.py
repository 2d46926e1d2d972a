"""Adaptive Monte-Carlo engine with confidence intervals end-to-end.

``repro.core.mc`` is the one trial loop under every simulator in the
library: link PER/BER sweeps, cooperative relaying, coded cooperation,
mesh coverage sampling and MIMO capacity ensembles all drive their
trials through :func:`run_grid_trials` (:func:`run_trials` is its
one-point case, :func:`per_trial` its per-trial adaptor).

Two guarantees:

* **determinism** — fixed-budget mode consumes the caller's RNG in
  exactly the seed-era order, so results are bit-identical to the
  pre-engine loops at the same seed;
* **honest precision** — adaptive mode stops when the confidence
  interval on the target rate is relatively tight enough (or a ceiling
  is hit), and every result carries its CI, trial count and stop
  reason, so 0/100 and 0/100000 packets stop looking like the same
  number.
"""

from repro.core.mc.engine import (
    DEFAULT_MAX_TRIALS,
    McResult,
    STOP_REASONS,
    analytic_result,
    per_trial,
    run_grid_trials,
    run_trials,
)
from repro.core.mc.stats import (
    MeanAccumulator,
    QuantileAccumulator,
    RateAccumulator,
    clopper_pearson_interval,
    rate_interval,
    wilson_interval,
)

__all__ = [
    "DEFAULT_MAX_TRIALS",
    "McResult",
    "STOP_REASONS",
    "analytic_result",
    "per_trial",
    "run_grid_trials",
    "run_trials",
    "MeanAccumulator",
    "QuantileAccumulator",
    "RateAccumulator",
    "clopper_pearson_interval",
    "rate_interval",
    "wilson_interval",
]
