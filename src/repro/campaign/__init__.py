"""Parallel sweep campaigns: declare a grid, run it anywhere, keep results.

This package is the repo's execution layer for parameter studies. A
campaign is a declarative :class:`~repro.campaign.spec.CampaignSpec`
(factors x fixed params x base seed); the
:func:`~repro.campaign.runner.run_campaign` orchestrator expands it,
derives an independent random substream per point
(``numpy.random.SeedSequence`` spawning — results are bit-identical at
any worker count), executes points inline or on a sharded work queue
of worker processes (:mod:`repro.campaign.queue`), skips
points already present in the :class:`~repro.campaign.store.ResultsStore`
(content-hash cache), and appends each completed point to
``results/<campaign>/records.jsonl`` as it lands. Execution is
fault-isolated: failing points become structured ``error``/``timeout``
records (with retry and timeout budgets from the spec) instead of
aborting the sweep, and re-runs recompute exactly the failed points.

Quick use::

    from repro.campaign import builtin_campaign, run_campaign, ResultsStore
    result = run_campaign(builtin_campaign("e3-dsss-cck"),
                          workers=4, store=ResultsStore("results"))

or from the shell::

    python -m repro campaign run e3-dsss-cck --workers 4 --report

Passing ``trace=True`` (CLI: ``--trace``) records :mod:`repro.obs`
telemetry — per-point spans, MC trial throughput, cache/retry counters
— to ``results/<campaign>/trace/trace.jsonl``, rendered by ``repro
trace report <campaign>``.
"""

from repro.campaign.cache import point_key
from repro.campaign.report import (failure_lines, format_pivot, pivot,
                                   summary_lines)
from repro.campaign.runner import (CampaignResult, point_kinds,
                                   register_point_kind, resume_campaign,
                                   run_campaign)
from repro.campaign.seeding import (attempt_generator, attempt_seed,
                                    point_generator, point_seed)
from repro.campaign.spec import (EXECUTION_BACKENDS, STORE_BACKENDS,
                                 CampaignSpec, SweepPoint, builtin_campaign,
                                 builtin_campaigns, load_spec)
from repro.campaign.store import (ResultsStore, detect_store_backend,
                                  make_store, resolve_store_backend,
                                  scan_campaigns)
from repro.campaign.store_sqlite import SqliteResultsStore

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "EXECUTION_BACKENDS",
    "STORE_BACKENDS",
    "ResultsStore",
    "SqliteResultsStore",
    "SweepPoint",
    "attempt_generator",
    "attempt_seed",
    "builtin_campaign",
    "builtin_campaigns",
    "detect_store_backend",
    "failure_lines",
    "format_pivot",
    "load_spec",
    "make_store",
    "pivot",
    "point_generator",
    "point_key",
    "point_kinds",
    "point_seed",
    "register_point_kind",
    "resolve_store_backend",
    "resume_campaign",
    "run_campaign",
    "scan_campaigns",
    "summary_lines",
]
