"""Coverage-area analysis: the paper's "dramatically increase the area
served by a wireless network" claim.

Coverage is evaluated by Monte-Carlo: a test point is covered when some
mesh point sustains at least the target rate to it (and the mesh point can
reach the wired portal through the mesh). Sampling runs through the
:mod:`repro.core.mc` engine: a KD-tree over the portal's component
finds each sample's nearest mesh point and a vectorised SNR threshold
decides it, bit-identical to the seed-era per-sample loop at the same
seed, and a ``precision`` target turns the fixed sample budget into an
adaptive one with a Wilson CI on the covered fraction.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.analysis.linkbudget import LinkBudget
from repro.core.mc import run_trials
from repro.errors import ConfigurationError
from repro.mesh.network import MeshNetwork, check_node_index
from repro.standards.registry import get_standard


def _coverage_threshold_snr_db(std, min_rate_mbps):
    """Lowest SNR at which ``std`` sustains ``min_rate_mbps``.

    A sample point is covered iff its SNR clears this threshold — the
    vectorised equivalent of ``rate_at_snr(snr).rate_mbps >=
    min_rate_mbps`` (some usable rate meets the floor exactly when the
    cheapest qualifying rate does). ``None`` when no rate qualifies.
    """
    qualifying = [r.required_snr_db for r in std.rates
                  if r.rate_mbps >= min_rate_mbps]
    return min(qualifying) if qualifying else None


def coverage_result(mesh_positions, area_side_m, min_rate_mbps=6.0,
                    standard="802.11a", budget=None, portal=0,
                    n_samples=4000, rng=None, precision=None,
                    max_trials=None, confidence=0.95, batch_size=1000,
                    link=None, max_per=0.1):
    """Monte-Carlo coverage estimate as a :class:`~repro.core.mc.McResult`.

    The estimate is the covered fraction with a Wilson confidence
    interval. ``precision=None`` draws exactly ``n_samples`` points
    (bit-identical to the seed-era scalar loop at the same seed); a
    precision target samples adaptively up to ``max_trials``.

    ``link`` switches the access-link test from the rate-table SNR
    threshold to a PER oracle — an
    :class:`~repro.surrogate.AbstractLink` (or anything exposing
    ``per_at(snr_db)``, e.g. :class:`~repro.surrogate.WaveformLink`):
    a sample point is then covered when the nearest reachable mesh
    point's PER is at most ``max_per``. ``min_rate_mbps`` is ignored in
    that mode (the link already embodies one PHY rate). Mesh-to-portal
    reachability uses the rate table either way.
    """
    from scipy.spatial import cKDTree

    positions = np.asarray(mesh_positions, dtype=float)
    if positions.ndim != 2:
        raise ConfigurationError("mesh positions must be (N, 2)")
    if not (np.isfinite(area_side_m) and area_side_m > 0):
        raise ConfigurationError(
            f"area_side_m must be finite and > 0, got {area_side_m!r}"
        )
    portal = check_node_index(portal, len(positions), "portal")
    if isinstance(n_samples, bool) or not isinstance(
            n_samples, (int, np.integer)) or n_samples < 1:
        raise ConfigurationError(
            f"n_samples must be an integer >= 1, got {n_samples!r}"
        )
    if not np.isfinite(min_rate_mbps):
        raise ConfigurationError(
            f"min_rate_mbps must be finite, got {min_rate_mbps!r}"
        )
    if link is not None and not 0.0 < float(max_per) <= 1.0:
        raise ConfigurationError(
            f"max_per must be in (0, 1], got {max_per!r}"
        )
    budget = budget or LinkBudget()
    std = get_standard(standard) if isinstance(standard, str) else standard
    net = MeshNetwork(positions, std, budget)
    # Reachability is pure graph connectivity: best_path(portal, node)
    # exists iff node shares the portal's connected component.
    reachable = net.component(portal)
    tree = cKDTree(positions[reachable])
    threshold_db = _coverage_threshold_snr_db(std, min_rate_mbps)

    def sample_batch(rng, m):
        points = rng.uniform(0.0, area_side_m, size=(m, 2))
        if link is None and threshold_db is None:
            return {"covered": 0}
        # The nearest reachable mesh point decides. The tree's Euclidean
        # distance is the root of dx*dx + dy*dy, as a distance matrix's.
        nearest = np.maximum(tree.query(points)[0], 0.1)
        snr = budget.snr_at(nearest)
        if link is not None:
            ok = np.asarray(link.per_at(snr)) <= float(max_per)
            return {"covered": int(np.count_nonzero(ok))}
        return {"covered": int(np.count_nonzero(snr >= threshold_db))}

    with obs.span("mesh.coverage", standard=std.name,
                  n_mesh=int(positions.shape[0]),
                  n_reachable=len(reachable),
                  surrogate=link is not None) as span:
        result = run_trials(sample_batch, n_trials=n_samples,
                            target="covered", rng=rng, precision=precision,
                            max_trials=max_trials, confidence=confidence,
                            batch_size=batch_size)
        span.set(n_trials=result.n_trials, stop_reason=result.stop_reason)
    return result


def coverage_fraction(mesh_positions, area_side_m, min_rate_mbps=6.0,
                      standard="802.11a", budget=None, portal=0,
                      n_samples=4000, rng=None, **mc_kwargs):
    """Fraction of a square area covered by a mesh with a wired portal.

    A point counts as covered when its best mesh point (a) offers at least
    ``min_rate_mbps`` on the access link and (b) has a mesh path to the
    portal node. ``mc_kwargs`` (``precision``, ``max_trials``,
    ``confidence``, ``batch_size``) enable adaptive sampling, and
    ``link=``/``max_per=`` switch the access test to a surrogate PER
    oracle (see :func:`coverage_result`, which also returns the
    confidence interval).
    """
    result = coverage_result(mesh_positions, area_side_m, min_rate_mbps,
                             standard, budget, portal, n_samples, rng,
                             **mc_kwargs)
    return result.n_events / result.n_trials


def coverage_area_m2(mesh_positions, area_side_m, **kwargs):
    """Covered area in square metres (coverage fraction x area)."""
    frac = coverage_fraction(mesh_positions, area_side_m, **kwargs)
    return frac * area_side_m ** 2


def single_ap_radius_m(min_rate_mbps=6.0, standard="802.11a", budget=None):
    """Radius at which a lone AP still offers ``min_rate_mbps``."""
    budget = budget or LinkBudget()
    std = get_standard(standard) if isinstance(standard, str) else standard
    entry = next((r for r in sorted(std.rates, key=lambda r: r.rate_mbps)
                  if r.rate_mbps >= min_rate_mbps), None)
    if entry is None:
        raise ConfigurationError(
            f"{std.name} cannot carry {min_rate_mbps} Mbps"
        )
    return budget.range_for_snr(entry.required_snr_db)
