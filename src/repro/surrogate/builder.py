"""Build PER surfaces through the campaign runner.

A surface build is just a campaign: one ``surface-link`` point per
``(phy, payload_bytes, snr_db)`` cell, fanned out by
:func:`~repro.campaign.runner.run_campaign` with everything that buys —
per-point deterministic seeding, adaptive MC precision, content-hash
caching (a rebuild with the same settings costs nothing and a widened
grid only pays for the new cells), fault isolation with retries, and
:mod:`repro.obs` tracing. The builder's own job is small: lay the grid
out, run it, fold the records into a :class:`PerSurface`, and persist
it next to the campaign's records.

Inline builds (``workers=1``) run each row of uncached cells — one
``(phy, payload_bytes)`` at every SNR — in one call of the kind's batch
form, :func:`~repro.core.link.run_link_points`: each cell is a grid
column on its own per-point generator, and the row's cells share one
transmit and one receive call per trial batch (one SIGNAL and one data
trellis sweep), so the cells come out bit-identical to a ``workers >
1`` build, which runs them one by one on the queue. The cache unit is
still the cell; a row's records are stored as the row finishes.
"""

from __future__ import annotations

import os

import numpy as np

from repro import obs
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError
from repro.surrogate.surface import (SURFACE_META_FILE, PerSurface)
from repro.utils.validation import require_count

#: The point kind surface cells run as (registered in campaign.runner).
SURFACE_KIND = "surface-link"


def _clean_axis(name, values, integer=False):
    cast = (lambda v: int(v)) if integer else (lambda v: float(v))
    try:
        cleaned = sorted({cast(v) for v in np.atleast_1d(values).ravel()})
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be a sequence of numbers, got {values!r}"
        ) from None
    if not cleaned:
        raise ConfigurationError(f"{name} must not be empty")
    if not all(np.isfinite(cleaned)):
        raise ConfigurationError(f"{name} must be finite, got {values!r}")
    if integer and cleaned[0] < 1:
        raise ConfigurationError(
            f"{name} entries must be >= 1, got {cleaned[0]}"
        )
    return cleaned


def surface_spec(name, phys, snr_db, payload_bytes=(100,), channel="awgn",
                 n_packets=200, precision=None, max_trials=None,
                 confidence=0.95, base_seed=0):
    """The :class:`CampaignSpec` whose grid is one surface.

    Factor order is ``phy``, ``payload_bytes``, ``snr_db`` (last varies
    fastest), so cell ``(i_phy, i_pay, i_snr)`` is grid index
    ``(i_phy * n_pay + i_pay) * n_snr + i_snr`` — the layout
    :func:`build_surface` relies on when folding records into arrays.
    """
    phys = [str(p) for p in np.atleast_1d(phys).ravel()]
    if len(set(phys)) != len(phys):
        raise ConfigurationError(f"phys must be unique, got {phys}")
    fixed = {
        "channel": str(channel),
        "n_packets": require_count("n_packets", n_packets),
        "confidence": float(confidence),
    }
    if precision is not None:
        fixed["precision"] = float(precision)
    if max_trials is not None:
        fixed["max_trials"] = require_count("max_trials", max_trials)
    return CampaignSpec(
        name=str(name),
        kind=SURFACE_KIND,
        factors={
            "phy": phys,
            "payload_bytes": _clean_axis("payload_bytes", payload_bytes,
                                         integer=True),
            "snr_db": _clean_axis("snr_db", snr_db),
        },
        fixed=fixed,
        base_seed=int(base_seed),
    )


def build_surface(name, phys, snr_db, payload_bytes=(100,), channel="awgn",
                  n_packets=200, precision=None, max_trials=None,
                  confidence=0.95, base_seed=0, store=None, workers=1,
                  trace=False, echo=None, force=False):
    """Measure (or re-load from cache) one PER surface; returns it.

    With a ``store`` the campaign's cells are content-hash cached —
    interrupted builds resume where they stopped, identical rebuilds
    are free — and the finished surface is serialized into the
    campaign's results directory. ``precision`` (relative CI half-width
    target) with ``max_trials`` switches each cell's MC engine into
    adaptive mode; without it every cell spends exactly ``n_packets``.
    """
    spec = surface_spec(name, phys, snr_db, payload_bytes, channel,
                        n_packets, precision, max_trials, confidence,
                        base_seed)
    phy_list = spec.factors["phy"]
    pay_axis = spec.factors["payload_bytes"]
    snr_axis = spec.factors["snr_db"]
    n_phy, n_pay, n_snr = len(phy_list), len(pay_axis), len(snr_axis)

    with obs.span("surrogate.build", surface=spec.name, channel=channel,
                  n_cells=n_phy * n_pay * n_snr) as span:
        result = run_campaign(spec, workers=workers, store=store,
                              force=force, echo=echo, trace=trace)
        result.check()
        obs.counter("surrogate.cells.executed", result.n_executed)
        obs.counter("surrogate.cells.cached", result.n_cached)

        shape = (n_phy, n_pay, n_snr)
        per = np.full(shape, np.nan)
        ci_low = np.full(shape, np.nan)
        ci_high = np.full(shape, np.nan)
        ber = np.full(shape, np.nan)
        n_trials = np.zeros(shape)
        rate_mbps = np.zeros(n_phy)
        metrics = result.metrics_by_index()
        for i_phy in range(n_phy):
            for i_pay in range(n_pay):
                for i_snr in range(n_snr):
                    m = metrics[(i_phy * n_pay + i_pay) * n_snr + i_snr]
                    per[i_phy, i_pay, i_snr] = m["per"]
                    ci_low[i_phy, i_pay, i_snr] = m["per_ci_low"]
                    ci_high[i_phy, i_pay, i_snr] = m["per_ci_high"]
                    ber[i_phy, i_pay, i_snr] = m["ber"]
                    n_trials[i_phy, i_pay, i_snr] = m["n_trials"]
                    rate_mbps[i_phy] = m["rate_mbps"]

        code_version = result.records[0]["code_version"]
        surface = PerSurface(
            name=spec.name,
            channel=str(channel),
            phys=phy_list,
            rate_mbps=rate_mbps,
            snr_db=snr_axis,
            payload_bytes=pay_axis,
            per=per,
            per_ci_low=ci_low,
            per_ci_high=ci_high,
            ber=ber,
            n_trials=n_trials,
            meta={
                "base_seed": int(base_seed),
                "kind": SURFACE_KIND,
                "code_version": code_version,
                "n_packets": spec.fixed["n_packets"],
                "precision": precision,
                "max_trials": max_trials,
                "confidence": float(confidence),
                "build_wall_time_s": result.wall_time_s,
                "n_cached": result.n_cached,
                "n_executed": result.n_executed,
            },
        )
        if store is not None:
            surface.save(store.campaign_dir(spec.name))
        span.set(n_cached=result.n_cached, n_executed=result.n_executed,
                 total_trials=surface.total_trials)
    return surface


def surface_dir(store, name):
    """Directory a surface named ``name`` lives in under ``store``."""
    return store.campaign_dir(name)


def load_surface(store, name):
    """Load a previously built surface from the results store."""
    return PerSurface.load(surface_dir(store, name))


def list_surfaces(store):
    """Sorted names of every surface persisted under ``store``.

    A campaign directory counts when it holds a surface sidecar —
    plain (non-surface) campaigns in the same store are skipped.
    """
    if not os.path.isdir(store.root):
        return []
    names = []
    for entry in sorted(os.listdir(store.root)):
        if os.path.exists(os.path.join(store.root, entry,
                                       SURFACE_META_FILE)):
            names.append(entry)
    return names
