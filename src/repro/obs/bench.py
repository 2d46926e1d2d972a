"""Benchmark regression gate: compare two ``--bench-json`` dumps.

``pytest benchmarks/ --bench-json PATH`` (see ``benchmarks/conftest``)
dumps every benchmark's metrics as ``{"schema": 1, "metrics":
[{"benchmark", "name", "value", "units"}, ...]}``. The committed
baseline (``BENCH_10.json``) pins those numbers;
``repro bench diff BASELINE CURRENT`` re-compares them metric by metric
and exits nonzero on a regression — the CI perf gate.

What gates and what merely informs
----------------------------------
Raw durations (units ``s``/``us``) move with the machine: a CI runner
is not the laptop the baseline was dumped on, so seconds-valued metrics
are *informational* — reported, never failing — unless ``--gate-all``.
Dimensionless ratios (units ``x``, ``fraction``) and counts
(``packets``, ``1/s``) are machine-independent by construction — a
6.3x batching speedup or a 0.2 PER is the same number everywhere — so
those gate by default, each against a relative tolerance.

Tolerance resolution per metric: a ``--tol NAME=REL`` override (NAME is
``benchmark::name`` or a suffix of it), else the per-units default
(ratios get :data:`DEFAULT_RATIO_TOL` because speedups jitter with
load; exact counts get 0), else :data:`DEFAULT_TOL`.
"""

from __future__ import annotations

import json
import os

from repro.errors import ConfigurationError

#: Relative tolerance for gated metrics without a specific override.
DEFAULT_TOL = 0.05

#: Looser default for speedup ratios (units ``x``): they compare two
#: timed runs, so load jitter enters twice.
DEFAULT_RATIO_TOL = 0.35

#: Units whose values depend on the machine's speed (durations and raw
#: throughputs) — informational unless ``gate_all``.
TIME_UNITS = frozenset({"s", "us", "ms", "1/s"})

#: Per-units default tolerances for gated metrics. Exact-count units
#: ("packets", "points") gate at zero: the kernel-parity and
#: cross-point benches emit deterministic counts, and any drift there
#: is a semantics change, not noise.
UNIT_TOLS = {"x": DEFAULT_RATIO_TOL, "fraction": DEFAULT_TOL,
             "packets": 0.0, "points": 0.0}


def load_bench(path):
    """Parse one ``--bench-json`` dump into ``{metric_id: (value, units)}``.

    The metric id is ``"<benchmark>::<name>"`` — unique within a dump
    because the conftest records each (benchmark, name) pair once.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise ConfigurationError(f"no benchmark dump at {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        document = json.load(fh)
    metrics = {}
    for m in document.get("metrics") or []:
        metric_id = f"{m['benchmark']}::{m['name']}"
        metrics[metric_id] = (float(m["value"]), m.get("units", ""))
    if not metrics:
        raise ConfigurationError(f"{path!r} contains no metrics")
    return metrics


def parse_tol_overrides(pairs):
    """``["phy_speedup=0.5", ...]`` → ``{"phy_speedup": 0.5}``."""
    overrides = {}
    for pair in pairs or []:
        name, sep, raw = str(pair).partition("=")
        try:
            tol = float(raw)
            if not sep or tol < 0:
                raise ValueError
        except ValueError:
            raise ConfigurationError(
                f"--tol wants NAME=REL with REL >= 0, got {pair!r}"
            ) from None
        overrides[name] = tol
    return overrides


def _tolerance_for(metric_id, units, overrides):
    for name, tol in overrides.items():
        if metric_id == name or metric_id.endswith(name):
            return tol
    return UNIT_TOLS.get(units, DEFAULT_TOL)


def diff_benches(baseline, current, tol_overrides=None, gate_all=False):
    """Compare two :func:`load_bench` dicts; returns a report dict.

    Each compared metric yields ``{"metric", "units", "base", "cur",
    "rel_change", "tol", "gated", "status"}`` with status ``ok`` /
    ``regressed`` / ``info``. Metrics present on only one side are
    listed under ``only_baseline`` / ``only_current`` (informational:
    benchmarks come and go across PRs).
    """
    tol_overrides = tol_overrides or {}
    rows = []
    n_regressed = 0
    for metric_id in sorted(set(baseline) & set(current)):
        base, units = baseline[metric_id]
        cur, cur_units = current[metric_id]
        if cur_units != units:
            raise ConfigurationError(
                f"{metric_id}: units changed {units!r} -> {cur_units!r}; "
                "regenerate the baseline"
            )
        rel = (cur - base) / abs(base) if base else (0.0 if cur == base
                                                    else float("inf"))
        tol = _tolerance_for(metric_id, units, tol_overrides)
        gated = gate_all or units not in TIME_UNITS
        # Direction matters: a higher speedup or a faster duration is
        # never a regression, however far outside tolerance.
        better = rel >= 0 if units in ("x", "1/s") else rel <= 0
        regressed = gated and not better and abs(rel) > tol
        if regressed:
            n_regressed += 1
        rows.append({
            "metric": metric_id, "units": units, "base": base,
            "cur": cur, "rel_change": rel, "tol": tol, "gated": gated,
            "status": ("regressed" if regressed else
                       "ok" if gated else "info"),
        })
    return {
        "rows": rows,
        "n_compared": len(rows),
        "n_gated": sum(1 for r in rows if r["gated"]),
        "n_regressed": n_regressed,
        "only_baseline": sorted(set(baseline) - set(current)),
        "only_current": sorted(set(current) - set(baseline)),
        "ok": n_regressed == 0,
    }


def _short(metric_id, width=58):
    return metric_id if len(metric_id) <= width else \
        "..." + metric_id[-(width - 3):]


def diff_lines(report, verbose=False):
    """Render a :func:`diff_benches` report for the terminal."""
    lines = []
    for row in report["rows"]:
        if row["status"] == "regressed":
            marker = "REGRESSED"
        elif row["status"] == "info":
            if not verbose:
                continue
            marker = "info"
        else:
            if not verbose:
                continue
            marker = "ok"
        lines.append(
            f"  {marker:<9} {_short(row['metric']):<58} "
            f"{row['base']:>12.4g} -> {row['cur']:>12.4g} {row['units']:<8} "
            f"({row['rel_change']:+.1%}, tol {row['tol']:.0%})")
    for metric_id in report["only_baseline"]:
        lines.append(f"  gone      {_short(metric_id)} "
                     "(in baseline only)")
    if verbose:
        for metric_id in report["only_current"]:
            lines.append(f"  new       {_short(metric_id)} "
                         "(not in baseline)")
    summary = (f"{report['n_compared']} metric(s) compared, "
               f"{report['n_gated']} gated, "
               f"{report['n_regressed']} regression(s)")
    lines.append(("FAIL: " if not report["ok"] else "OK: ") + summary)
    return lines
