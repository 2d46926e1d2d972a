"""Render a merged trace into the ``repro trace report`` breakdown.

The reporter is schema-driven, not layer-driven: it only understands
the generic event shapes (span / counter) plus the well-known span
names the campaign runner and MC engine emit (``campaign.point``,
``campaign.execute``, ``mc.run_grid``; ``mc.run_trials`` is still read
from traces stored before every trial loop became a grid). Everything
else still shows up in the span totals and top-N tables, so
instrumenting a new subsystem needs no reporter changes.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError


def aggregate(events):
    """Fold raw events into ``{"spans": ..., "counters": ...}`` totals.

    The same shape as :meth:`repro.obs.Tracer.summary`, but computed
    from a (merged, possibly multi-process) event stream.
    """
    spans = {}
    counters = {}
    for event in events:
        if event.get("type") == "span":
            stats = spans.setdefault(event.get("name", "?"),
                                     {"count": 0, "total_s": 0.0,
                                      "max_s": 0.0})
            dur = float(event.get("dur_s") or 0.0)
            stats["count"] += 1
            stats["total_s"] += dur
            stats["max_s"] = max(stats["max_s"], dur)
        elif event.get("type") == "counter":
            name = event.get("name", "?")
            counters[name] = counters.get(name, 0) + (event.get("value")
                                                     or 0)
    return {"spans": spans, "counters": counters}


def _span_index(events):
    """``{(pid, span_id): event}`` for parent-chain walks."""
    return {(e.get("pid"), e.get("span_id")): e for e in events
            if e.get("type") == "span"}


def _point_of(event, index):
    """Grid index owning this span, walking up to a campaign span.

    Worker-side spans (MC engine runs, link spans) carry no
    point index themselves; their enclosing ``campaign.execute`` span
    does. Returns ``None`` for spans outside any point.
    """
    seen = 0
    while event is not None and seen < 100:
        attrs = event.get("attrs") or {}
        if event.get("name") in ("campaign.execute", "campaign.point") \
                and "index" in attrs:
            return attrs["index"]
        parent = event.get("parent_id")
        event = index.get((event.get("pid"), parent)) \
            if parent is not None else None
        seen += 1
    return None


def _mc_by_point(events):
    """Per-point MC totals: ``{index: {"trials": n, "span_s": s}}``."""
    index = _span_index(events)
    per_point = {}
    for event in events:
        if event.get("type") != "span" or event.get("name") not in (
                "mc.run_trials", "mc.run_grid"):
            continue
        point = _point_of(event, index)
        if point is None:
            continue
        attrs = event.get("attrs") or {}
        slot = per_point.setdefault(point, {"trials": 0, "span_s": 0.0})
        slot["trials"] += int(attrs.get("n_trials") or 0)
        slot["span_s"] += float(event.get("dur_s") or 0.0)
    return per_point


def _first_points(points):
    """``{worker: event}``: the first executed point of each worker.

    Workers run their points one after another and the orchestrator
    records each as it finishes, so a worker's first point is its
    earliest ``campaign.point`` event. A batched first point is left
    out: its ``wall_s`` is a share of its batch, start-up spread over
    the batch's points.
    """
    firsts = {}
    for event in points:
        attrs = event.get("attrs") or {}
        worker = attrs.get("worker")
        if attrs.get("cached") or worker is None:
            continue
        first = firsts.get(worker)
        order = (event.get("t_wall") or 0.0, event.get("seq") or 0)
        if first is None or order < (first.get("t_wall") or 0.0,
                                     first.get("seq") or 0):
            firsts[worker] = event
    return {worker: event for worker, event in firsts.items()
            if not (event.get("attrs") or {}).get("batched")}


def summary_table(summary, max_rows=None):
    """Aligned per-span-name totals table from an aggregate/summary dict.

    Accepts either :func:`aggregate` output or ``Tracer.summary()``
    output (they share a shape). Rows are sorted by total time,
    busiest first.
    """
    spans = summary.get("spans") or {}
    lines = []
    if spans:
        width = max(len(n) for n in spans) + 2
        lines.append(f"{'span':<{width}}{'count':>7}{'total_s':>10}"
                     f"{'mean_ms':>10}{'max_ms':>10}")
        rows = sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])
        if max_rows is not None:
            rows = rows[:int(max_rows)]
        for name, s in rows:
            mean_ms = 1000.0 * s["total_s"] / s["count"] if s["count"] else 0
            lines.append(f"{name:<{width}}{s['count']:>7}"
                         f"{s['total_s']:>10.3f}{mean_ms:>10.2f}"
                         f"{1000.0 * s['max_s']:>10.2f}")
    counters = summary.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters) + 2
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<{width}}{value:>10g}")
    return lines


def _compact_attrs(attrs, limit=60):
    text = json.dumps(attrs, sort_keys=True, default=str)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def trace_report_lines(events, top=10, campaign=None):
    """The full ``repro trace report`` rendering for one merged trace.

    Sections: campaign overview (points / outcomes / cache / retries /
    worker utilisation), per-point timing breakdown with MC trial
    throughput, top-N slowest spans, and span/counter totals.
    """
    if not events:
        raise ConfigurationError("trace is empty; was the run traced?")
    agg = aggregate(events)
    lines = []

    points = sorted((e for e in events if e.get("type") == "span"
                     and e.get("name") == "campaign.point"),
                    key=lambda e: (e.get("attrs") or {}).get("index", 0))
    run_spans = [e for e in events if e.get("type") == "span"
                 and e.get("name") == "campaign.run"]
    mc_points = _mc_by_point(events)
    counters = agg["counters"]

    header = f"trace report: {campaign}" if campaign else "trace report"
    pids = sorted({e.get("pid") for e in events if e.get("pid")})
    lines.append(f"{header} ({len(events)} events from "
                 f"{len(pids)} process(es))")

    if run_spans:
        run = run_spans[-1]
        attrs = run.get("attrs") or {}
        lines.append(
            f"  campaign {attrs.get('campaign', '?')}: "
            f"{attrs.get('n_points', '?')} points in "
            f"{float(run.get('dur_s') or 0.0):.2f}s @ "
            f"{attrs.get('workers', '?')} worker(s), "
            f"utilization {100 * float(attrs.get('utilization') or 0):.0f}%")
    hits = counters.get("campaign.cache.hit", 0)
    misses = counters.get("campaign.cache.miss", 0)
    if hits or misses:
        lines.append(f"  cache: {hits} hit(s), {misses} miss(es)")
    retries = counters.get("campaign.retry.extra_attempts", 0)
    failures = sum(v for k, v in counters.items()
                   if k.startswith("campaign.outcome.") and
                   not k.endswith(".ok"))
    if retries or failures:
        lines.append(f"  retries: {retries} extra attempt(s), "
                     f"{failures} point(s) not ok")

    if points:
        firsts = _first_points(points)
        lines.append("")
        lines.append("per-point timing:")
        lines.append(f"{'point':>6} {'outcome':<8} {'att':>3} {'cached':>6}"
                     f" {'wall_s':>8}  {'mc_trials':>9} {'trials/s':>9}")
        for event in points:
            attrs = event.get("attrs") or {}
            idx = attrs.get("index")
            wall = float(attrs.get("exec_s")
                         if attrs.get("exec_s") is not None
                         else event.get("dur_s") or 0.0)
            mc = mc_points.get(idx, {})
            trials = mc.get("trials", 0)
            span_s = mc.get("span_s", 0.0)
            if not trials and attrs.get("batched"):
                # A batched point's MC ran in its batch's one grid; its
                # record carries its trials and its share of the time.
                trials, span_s = int(attrs.get("n_trials") or 0), wall
            rate = f"{trials / span_s:>9.0f}" if trials and span_s \
                else f"{'--':>9}"
            mark = ("~" if attrs.get("batched") else
                    "*" if event is firsts.get(attrs.get("worker")) else " ")
            lines.append(
                f"{idx!s:>6} {attrs.get('outcome', '?'):<8}"
                f" {attrs.get('attempts', 1)!s:>3}"
                f" {('yes' if attrs.get('cached') else 'no'):>6}"
                f" {wall:>8.3f}{mark} {trials or '--':>9} {rate}")
        if firsts:
            lines.append("  * first point its worker ran: wall_s may "
                         "include start-up (imports, plan caches)")
        if any((e.get("attrs") or {}).get("batched") for e in points):
            lines.append("  ~ batched point: wall_s is an even share of "
                         "its batch row's time, start-up included")

    slowest = sorted((e for e in events if e.get("type") == "span"),
                     key=lambda e: -(e.get("dur_s") or 0.0))[:int(top)]
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest spans:")
        for event in slowest:
            lines.append(f"  {1000.0 * (event.get('dur_s') or 0.0):>10.2f}ms"
                         f"  {event.get('name'):<20} pid {event.get('pid')}"
                         f"  {_compact_attrs(event.get('attrs') or {})}")

    lines.append("")
    lines.extend(summary_table(agg))
    return lines
