"""Cross-check a PER surface against the waveform path it summarizes.

Two independent checks, reported per cell:

``mc-agreement``
    Re-measure a subset of grid cells with a *fresh*
    :class:`~repro.core.link.LinkSimulator` (different seed than the
    build) and require the surface's stored Wilson CI to overlap the
    fresh measurement's CI. Two draws of the same Bernoulli rate whose
    intervals are disjoint mean the surface no longer describes the
    simulator that built it — code drift, a stale cache, or a corrupted
    file.

``union-bound``
    For convolutionally-coded OFDM phys, compare the high-SNR grid tail
    against the :mod:`analysis.union_bound` analytic bound. The bound
    is an upper bound on BER (tight above ~4 dB Eb/N0), so a measured
    PER far *above* the bound-implied PER at the grid's top SNR flags a
    broken surface; sitting below it is expected.

:func:`validate_surface` runs both and returns a
:class:`ValidationReport` whose ``ok`` is the gate CI uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.link import LinkSimulator
from repro.errors import ConfigurationError

#: The union-bound check only flags gross violations: measured PER must
#: exceed the bound-implied PER by more than this factor to fail (MC
#: noise and bound looseness both live inside the slack).
UNION_BOUND_SLACK = 10.0


@dataclass
class CellCheck:
    """One validation comparison at one grid cell."""

    kind: str  # "mc-agreement" | "union-bound"
    phy: str
    snr_db: float
    payload_bytes: int
    ok: bool
    detail: str

    def line(self):
        """One formatted report row for this check."""
        mark = "ok " if self.ok else "FAIL"
        return (f"  [{mark}] {self.kind:<12} {self.phy:<10} "
                f"{self.snr_db:6.1f} dB {self.payload_bytes:5d} B  "
                f"{self.detail}")


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_surface`."""

    surface_name: str
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        """True when every check passed (vacuously true when empty)."""
        return all(c.ok for c in self.checks)

    @property
    def n_failed(self):
        """Number of failing checks."""
        return sum(not c.ok for c in self.checks)

    def lines(self):
        """Printable report (the body of ``repro surface validate``)."""
        verdict = ("OK" if self.ok
                   else f"FAILED ({self.n_failed}/{len(self.checks)})")
        out = [f"surface {self.surface_name!r} validation: {verdict} "
               f"({len(self.checks)} checks)"]
        out.extend(c.line() for c in self.checks)
        return out


def _intervals_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def validate_surface(surface, phys=None, snr_db=None, payload_bytes=None,
                     n_packets=200, confidence=0.95, seed=20050307,
                     union_bound_slack=UNION_BOUND_SLACK):
    """Cross-check ``surface`` against fresh waveform measurements.

    ``phys``/``snr_db``/``payload_bytes`` subset the grid (``None``
    checks everything on that axis — fine for small surfaces, subsample
    for big ones). ``seed`` deliberately differs from any build seed:
    agreement must hold across independent MC draws, not replay one.
    """
    phys = list(surface.phys) if phys is None else [str(p) for p in phys]
    snrs = (surface.snr_db if snr_db is None
            else np.atleast_1d(np.asarray(snr_db, dtype=float)))
    pays = (surface.payload_bytes if payload_bytes is None
            else np.atleast_1d(np.asarray(payload_bytes)).astype(int))
    for phy in phys:
        surface.phy_index(phy)  # unknown phy fails before any MC spend
    for snr in snrs:
        for pay in pays:
            # Checks compare stored cells, so the subset must hit grid
            # points exactly; interpolated comparisons would mix MC
            # noise with interpolation error and prove nothing.
            surface.cell(phys[0], float(snr), int(pay))

    report = ValidationReport(surface_name=surface.name)
    with obs.span("surrogate.validate", surface=surface.name,
                  n_phys=len(phys), n_snrs=len(snrs)) as span:
        for i_phy, phy in enumerate(phys):
            sim = LinkSimulator(phy, surface.channel,
                                rng=seed + 1000 * i_phy)
            for pay in pays:
                for snr in snrs:
                    stored = surface.cell(phy, float(snr), int(pay))
                    fresh = sim.run(float(snr), n_packets, int(pay))
                    fresh_ci = fresh.per_ci(confidence)
                    stored_ci = (stored["ci_low"], stored["ci_high"])
                    agree = _intervals_overlap(stored_ci, fresh_ci)
                    report.checks.append(CellCheck(
                        kind="mc-agreement", phy=phy, snr_db=float(snr),
                        payload_bytes=int(pay), ok=agree,
                        detail=(f"stored {stored['per']:.4f} "
                                f"[{stored_ci[0]:.4f}, {stored_ci[1]:.4f}]"
                                f" vs fresh {fresh.per:.4f} "
                                f"[{fresh_ci[0]:.4f}, {fresh_ci[1]:.4f}]"),
                    ))
                    obs.counter("surrogate.validate.mc_checks")

            top_snr = float(snrs[-1])
            for pay in pays:
                bounds = sim.analytic_bounds(top_snr, int(pay))
                if bounds is None:
                    break  # the bound models coded OFDM over AWGN only
                stored = surface.cell(phy, top_snr, int(pay))
                bound_per = bounds["per"]
                limit = min(1.0, union_bound_slack * bound_per
                            + 3.0 / max(stored["n_trials"], 1))
                ok = stored["per"] <= limit
                report.checks.append(CellCheck(
                    kind="union-bound", phy=phy, snr_db=top_snr,
                    payload_bytes=int(pay), ok=ok,
                    detail=(f"measured PER {stored['per']:.4g} vs bound "
                            f"{bound_per:.4g} (rate {bounds['code_rate']}, "
                            f"Eb/N0 {bounds['ebn0_db']:.1f} dB, limit "
                            f"{limit:.4g})"),
                ))
                obs.counter("surrogate.validate.bound_checks")
        span.set(ok=report.ok, n_checks=len(report.checks),
                 n_failed=report.n_failed)
    return report


def require_valid(report):
    """Raise :class:`ConfigurationError` when a report has failures."""
    if not report.ok:
        first = next(c for c in report.checks if not c.ok)
        raise ConfigurationError(
            f"surface {report.surface_name!r} failed validation "
            f"({report.n_failed} checks): {first.kind} at {first.phy} "
            f"{first.snr_db:g} dB — {first.detail}"
        )
    return report
