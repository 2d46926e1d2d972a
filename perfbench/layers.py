"""The per-layer metrics a traced run reports, and where each comes from.

Span-derived metrics are totals over the traced rounds divided by the
number of traced rounds, so they read "per round" and do not depend on
how many rounds fit into ``--seconds``. ``surrogate.build.busy_s`` is
recorded during set-up and reads "per set-up". The rest come from the
workload's own outputs (``extras``). Every metric is reported on every
workload; a layer a workload bypasses reads 0 there.
"""

from __future__ import annotations


def _busy(name):
    return "s", lambda tr, setup, ex: tr.busy(name)


def _calls(name):
    return "count", lambda tr, setup, ex: tr.calls(name)


def _items(name, key):
    return "count", lambda tr, setup, ex: tr.items(name, key)


def _self(*names):
    return "s", lambda tr, setup, ex: sum(tr.self_s(n) for n in names)


def _extra(key, unit):
    return unit, lambda tr, setup, ex: ex.get(key, 0.0)


# name -> (unit, value(tracer, setup_tracer, extras))
LAYER_METRICS = {
    "phy.ofdm.tx.busy_s": _busy("phy.ofdm.tx"),
    "phy.ofdm.tx.rows": _items("phy.ofdm.tx", "rows"),
    "phy.ofdm.rx.busy_s": _busy("phy.ofdm.rx"),
    "phy.ofdm.rx.rows": _items("phy.ofdm.rx", "rows"),
    "phy.ofdm.rx.failed_rows": _items("phy.ofdm.rx", "failed_rows"),
    "phy.viterbi.busy_s": _busy("phy.viterbi"),
    "phy.viterbi.calls": _calls("phy.viterbi"),
    "phy.viterbi.rows": _items("phy.viterbi", "rows"),
    "phy.demap.busy_s": _busy("phy.demap"),
    "phy.demap.symbols": _items("phy.demap", "symbols"),
    "phy.ht.tx.busy_s": _busy("phy.ht.tx"),
    "phy.ht.rx.busy_s": _busy("phy.ht.rx"),
    "phy.ht.rx.packets": _items("phy.ht.rx", "packets"),
    "phy.chips.busy_s": _busy("phy.chips"),
    "channel.tgn.busy_s": _busy("channel.tgn"),
    "channel.tgn.calls": _calls("channel.tgn"),
    "link.draws.busy_s": _busy("link.draws"),
    "link.draws.calls": _calls("link.draws"),
    "link.run.busy_s": _busy("link.run"),
    "link.run.calls": _calls("link.run"),
    "link.run.packets": _items("link.run", "packets"),
    "link.grid.busy_s": _busy("link.grid"),
    "link.self_s": _self("link.run", "link.grid"),
    "mc.grid.busy_s": _busy("mc.grid"),
    "mc.run.busy_s": _busy("mc.run"),
    "mc.self_s": _self("mc.grid", "mc.run"),
    "mc.trials": ("count", lambda tr, setup, ex: (
        tr.items("mc.grid", "trials") + tr.items("mc.run", "trials"))),
    "analysis.union_bound.calls": _calls("analysis.union_bound"),
    "analysis.union_bound.busy_s": _busy("analysis.union_bound"),
    "analysis.analytic_share": _extra("analytic_share", "ratio"),
    "campaign.points.executed": _extra("points_executed", "count"),
    "campaign.points.cached": _extra("points_cached", "count"),
    "campaign.cache_hit_ratio": _extra("cache_hit_ratio", "ratio"),
    "campaign.store.append.calls": _calls("campaign.store.append"),
    "campaign.store.append.busy_s": _busy("campaign.store.append"),
    "campaign.store.read.busy_s": _busy("campaign.store.read"),
    "campaign.point_wall.p50_s": _extra("point_wall_p50_s", "s"),
    "campaign.point_wall.p95_s": _extra("point_wall_p95_s", "s"),
    "campaign.orchestration_overhead": _extra("orchestration_overhead",
                                              "ratio"),
    "campaign.retries": _extra("retries", "count"),
    "campaign.requeued": _extra("requeued", "count"),
    "surrogate.interp.calls": _calls("surrogate.interp"),
    "surrogate.interp.points": _items("surrogate.interp", "points"),
    "surrogate.interp.busy_s": _busy("surrogate.interp"),
    "surrogate.per_for_rate.calls": _calls("surrogate.per_for_rate"),
    "surrogate.build.busy_s": ("s", lambda tr, setup, ex: (
        setup.busy("surrogate.build"))),
    "mesh.graph.busy_s": _busy("mesh.graph"),
    "mesh.coverage.busy_s": _busy("mesh.coverage"),
    "mesh.coverage.samples": _items("mesh.coverage", "samples"),
    "mac.rate_adaptation.busy_s": _busy("mac.rate_adaptation"),
    "mac.rate_adaptation.packets": _items("mac.rate_adaptation", "packets"),
    "obs.trace_overhead": _extra("trace_overhead", "ratio"),
}

# Metrics that are already ratios or per-record figures, not round totals.
_NOT_PER_ROUND = {"analysis.analytic_share", "campaign.cache_hit_ratio",
                  "campaign.point_wall.p50_s", "campaign.point_wall.p95_s",
                  "campaign.orchestration_overhead", "obs.trace_overhead",
                  "surrogate.build.busy_s"}


def layer_metrics(tracer, setup_tracer, n_rounds, n_setups, extras):
    """``{name: {"value", "unit"}}`` for every metric in LAYER_METRICS."""
    out = {}
    for name, (unit, value) in LAYER_METRICS.items():
        v = float(value(tracer, setup_tracer, extras))
        if name == "surrogate.build.busy_s":
            v /= max(n_setups, 1)
        elif name not in _NOT_PER_ROUND:
            v /= max(n_rounds, 1)
        out[name] = {"value": v, "unit": unit}
    return out
