"""Dense PER surfaces: the PHY, precomputed once and queried forever.

A :class:`PerSurface` is a packet-error-rate grid

    PER[phy, payload_bytes, snr_db]

measured by the waveform simulator (one Monte-Carlo campaign per
surface, see :mod:`repro.surrogate.builder`) together with everything a
consumer needs to trust it: per-cell Wilson confidence intervals, trial
counts, the builder's base seed, the point-kind ``code_version``, and
the MC precision settings. Surfaces serialize to ``surface.npz`` (the
arrays) plus a ``surface.json`` sidecar (human-readable metadata) in a
campaign's results directory.

Interpolation happens in log-PER: PER waterfalls span many decades, so
linear interpolation of ``log10(PER)`` between grid points follows the
exponential tail instead of chord-cutting across it. Exact grid points
return the stored value exactly (including exact zeros), and queries
outside the grid follow an explicit policy — ``"clamp"`` to the edge or
``"error"``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: Bump when the on-disk layout changes incompatibly.
SURFACE_FORMAT = 1

#: File names inside a surface directory.
SURFACE_FILE = "surface.npz"
SURFACE_META_FILE = "surface.json"

#: Log-domain floor: a measured PER of 0 participates in interpolation
#: as this value (its true value is only bounded by the cell's CI).
PER_LOG_FLOOR = 1e-12

#: Out-of-grid query policies.
OUT_OF_GRID_POLICIES = ("clamp", "error")


def _json_safe(value):
    """Replace non-finite floats with ``None`` for strict-JSON sidecars."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _check_axis(name, values, integer=False):
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ConfigurationError(f"surface axis {name!r} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(
            f"surface axis {name!r} must be finite, got {values!r}"
        )
    if arr.size > 1 and not np.all(np.diff(arr) > 0):
        raise ConfigurationError(
            f"surface axis {name!r} must be strictly increasing, "
            f"got {list(arr)}"
        )
    if integer:
        if not np.all(arr == np.round(arr)) or np.any(arr < 1):
            raise ConfigurationError(
                f"surface axis {name!r} must hold positive integers, "
                f"got {values!r}"
            )
        return arr.astype(int)
    return arr


def _axis_position(grid, q):
    """``(lower index, fractional weight)`` of queries ``q`` on ``grid``.

    A single-point axis pins every query to its one cell (weight 0);
    exact grid hits produce an exact 0.0 or 1.0 weight, which is what
    lets :meth:`PerSurface.interpolate` return stored values verbatim.
    """
    if grid.size == 1:
        return np.zeros(q.shape, dtype=int), np.zeros(q.shape)
    i = np.clip(np.searchsorted(grid, q, side="right") - 1, 0,
                grid.size - 2)
    t = (q - grid[i]) / (grid[i + 1] - grid[i])
    return i, np.clip(t, 0.0, 1.0)


@dataclass
class PerSurface:
    """A precomputed PER(phy, payload, SNR) grid with full provenance.

    Arrays are indexed ``[i_phy, i_payload, i_snr]``. ``meta`` carries
    the build provenance: base seed, point-kind code version, MC
    precision/confidence, packet budgets — everything needed to decide
    whether two surfaces are comparable (and to rebuild this one).
    """

    name: str
    channel: str
    phys: list
    rate_mbps: np.ndarray
    snr_db: np.ndarray
    payload_bytes: np.ndarray
    per: np.ndarray
    per_ci_low: np.ndarray
    per_ci_high: np.ndarray
    ber: np.ndarray
    n_trials: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.phys = [str(p) for p in self.phys]
        if not self.phys:
            raise ConfigurationError("surface needs at least one phy")
        if len(set(self.phys)) != len(self.phys):
            raise ConfigurationError(
                f"surface phys must be unique, got {self.phys}"
            )
        self.snr_db = _check_axis("snr_db", self.snr_db)
        self.payload_bytes = _check_axis("payload_bytes",
                                         self.payload_bytes, integer=True)
        self.rate_mbps = np.asarray(self.rate_mbps, dtype=float).ravel()
        if self.rate_mbps.size != len(self.phys):
            raise ConfigurationError(
                f"rate_mbps must carry one rate per phy "
                f"({len(self.phys)}), got {self.rate_mbps.size}"
            )
        shape = (len(self.phys), self.payload_bytes.size, self.snr_db.size)
        for attr in ("per", "per_ci_low", "per_ci_high", "ber", "n_trials"):
            arr = np.asarray(getattr(self, attr), dtype=float)
            if arr.shape != shape:
                raise ConfigurationError(
                    f"surface array {attr!r} must have shape "
                    f"(n_phy, n_payload, n_snr) = {shape}, got {arr.shape}"
                )
            setattr(self, attr, arr)
        finite = self.per[np.isfinite(self.per)]
        if np.any((finite < 0.0) | (finite > 1.0)):
            raise ConfigurationError("surface PER values must lie in [0, 1]")
        self.meta = dict(self.meta)

    # -- introspection -------------------------------------------------------

    @property
    def shape(self):
        """``(n_phy, n_payload, n_snr)``."""
        return self.per.shape

    @property
    def n_cells(self):
        """Total grid cells."""
        return int(np.prod(self.shape))

    @property
    def total_trials(self):
        """Waveform packets spent building the whole surface."""
        return int(np.nansum(self.n_trials))

    def phy_index(self, phy):
        """Index of ``phy`` on the phy axis (raises when absent)."""
        try:
            return self.phys.index(str(phy))
        except ValueError:
            raise ConfigurationError(
                f"surface {self.name!r} has no phy {phy!r}; available: "
                f"{', '.join(self.phys)}"
            ) from None

    def rate_index(self, rate_mbps):
        """Index of the phy whose PHY rate matches ``rate_mbps``.

        The first rate ``r`` with ``|r - x| <= 1e-6 + 1e-9 * |x|`` wins:
        the ``np.isclose`` test (infinities match only themselves, NaN
        nothing), done over plain floats.
        """
        x = float(rate_mbps)
        finite = math.isfinite(x)
        tol = 1e-6 + 1e-9 * abs(x)
        for i, r in enumerate(self.rate_mbps.tolist()):
            if r == x or (finite and abs(r - x) <= tol):
                return i
        raise ConfigurationError(
            f"surface {self.name!r} has no phy at {rate_mbps} Mbps; "
            f"rates: {sorted(set(self.rate_mbps.tolist()))}"
        )

    # -- interpolation -------------------------------------------------------

    def _clip_axis(self, name, grid, q, out_of_grid):
        if out_of_grid not in OUT_OF_GRID_POLICIES:
            raise ConfigurationError(
                f"out_of_grid must be one of {OUT_OF_GRID_POLICIES}, "
                f"got {out_of_grid!r}"
            )
        if not np.all(np.isfinite(q)):
            raise ConfigurationError(
                f"{name} queries must be finite"
            )
        lo, hi = float(grid[0]), float(grid[-1])
        if out_of_grid == "error":
            bad = (q < lo) | (q > hi)
            if np.any(bad):
                value = float(np.asarray(q).ravel()[
                    np.nonzero(np.asarray(bad).ravel())[0][0]])
                raise ConfigurationError(
                    f"{name}={value:g} is outside the surface grid "
                    f"[{lo:g}, {hi:g}] (out_of_grid='error'; pass "
                    f"out_of_grid='clamp' to pin to the edge)"
                )
        return np.clip(q, lo, hi)

    def interpolate(self, phy, snr_db, payload_bytes=None,
                    out_of_grid="clamp", values="per"):
        """Log-domain bilinear interpolation over (payload, SNR).

        ``values`` selects the grid: ``"per"`` (default) or ``"ber"``.
        Exact grid points return stored values verbatim (zeros stay
        exact zeros); off-grid queries interpolate ``log10(value)``
        with zeros floored at :data:`PER_LOG_FLOOR`, and a query whose
        entire weight lands on zero cells stays 0. Scalar inputs get a
        scalar back; arrays broadcast.
        """
        if values not in ("per", "ber"):
            raise ConfigurationError(
                f"values must be 'per' or 'ber', got {values!r}"
            )
        plane = (self.per if values == "per" else self.ber)[
            self.phy_index(phy)]
        if payload_bytes is None:
            payload_bytes = int(self.payload_bytes[0])
        snr = np.asarray(snr_db, dtype=float)
        pay = np.asarray(payload_bytes, dtype=float)
        scalar = snr.ndim == 0 and pay.ndim == 0
        snr, pay = np.atleast_1d(snr), np.atleast_1d(pay)
        snr, pay = np.broadcast_arrays(snr, pay)
        snr = self._clip_axis("snr_db", self.snr_db, snr, out_of_grid)
        pay = self._clip_axis("payload_bytes",
                              self.payload_bytes.astype(float), pay,
                              out_of_grid)
        i_s, t_s = _axis_position(self.snr_db, snr)
        i_p, t_p = _axis_position(self.payload_bytes.astype(float), pay)
        j_s = np.minimum(i_s + 1, self.snr_db.size - 1)
        j_p = np.minimum(i_p + 1, self.payload_bytes.size - 1)

        corners = (plane[i_p, i_s], plane[i_p, j_s],
                   plane[j_p, i_s], plane[j_p, j_s])
        weights = ((1.0 - t_p) * (1.0 - t_s), (1.0 - t_p) * t_s,
                   t_p * (1.0 - t_s), t_p * t_s)
        logs = [np.log10(np.maximum(c, PER_LOG_FLOOR)) for c in corners]
        out = 10.0 ** sum(w * g for w, g in zip(weights, logs))
        # All interpolation weight on measured-zero cells -> exactly 0.
        zero_weight = sum(w * (c == 0.0) for w, c in zip(weights, corners))
        out = np.where(zero_weight >= 1.0, 0.0, out)
        # Exact grid hits return the stored value bit for bit.
        for w, c in zip(weights, corners):
            out = np.where(w == 1.0, c, out)
        return float(out.ravel()[0]) if scalar else out

    def per_at(self, phy, snr_db, payload_bytes=None, out_of_grid="clamp"):
        """Interpolated PER for one phy (see :meth:`interpolate`)."""
        return self.interpolate(phy, snr_db, payload_bytes, out_of_grid,
                                values="per")

    def per_for_rate(self, rate_mbps, snr_db, payload_bytes=None,
                     out_of_grid="clamp"):
        """Interpolated PER selected by PHY rate instead of phy name.

        The entry point rate controllers use: a ladder speaks in Mbps,
        the surface in phy names; :meth:`rate_index` bridges them.
        """
        return self.interpolate(self.phys[self.rate_index(rate_mbps)],
                                snr_db, payload_bytes, out_of_grid,
                                values="per")

    def cell(self, phy, snr_db, payload_bytes=None):
        """Stored stats of one exact grid cell.

        Returns ``{"per", "ci_low", "ci_high", "ber", "n_trials"}``;
        raises when ``(snr_db, payload_bytes)`` is not a grid point.
        """
        i_phy = self.phy_index(phy)
        if payload_bytes is None:
            payload_bytes = int(self.payload_bytes[0])
        i_s = np.nonzero(np.isclose(self.snr_db, float(snr_db)))[0]
        i_p = np.nonzero(self.payload_bytes == int(payload_bytes))[0]
        if i_s.size == 0 or i_p.size == 0:
            raise ConfigurationError(
                f"({snr_db} dB, {payload_bytes} B) is not a grid point of "
                f"surface {self.name!r}"
            )
        i_s, i_p = int(i_s[0]), int(i_p[0])
        return {
            "per": float(self.per[i_phy, i_p, i_s]),
            "ci_low": float(self.per_ci_low[i_phy, i_p, i_s]),
            "ci_high": float(self.per_ci_high[i_phy, i_p, i_s]),
            "ber": float(self.ber[i_phy, i_p, i_s]),
            "n_trials": int(self.n_trials[i_phy, i_p, i_s]),
        }

    # -- persistence ---------------------------------------------------------

    def save(self, directory):
        """Write ``surface.npz`` + ``surface.json`` into ``directory``."""
        os.makedirs(directory, exist_ok=True)
        np.savez_compressed(
            os.path.join(directory, SURFACE_FILE),
            snr_db=self.snr_db,
            payload_bytes=self.payload_bytes,
            rate_mbps=self.rate_mbps,
            per=self.per,
            per_ci_low=self.per_ci_low,
            per_ci_high=self.per_ci_high,
            ber=self.ber,
            n_trials=self.n_trials,
        )
        sidecar = {
            "format": SURFACE_FORMAT,
            "name": self.name,
            "channel": self.channel,
            "phys": list(self.phys),
            "rate_mbps": [float(r) for r in self.rate_mbps],
            "snr_db": [float(s) for s in self.snr_db],
            "payload_bytes": [int(p) for p in self.payload_bytes],
            "meta": _json_safe(self.meta),
        }
        path = os.path.join(directory, SURFACE_META_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        return directory

    @classmethod
    def load(cls, directory):
        """Load a surface previously written by :meth:`save`."""
        meta_path = os.path.join(directory, SURFACE_META_FILE)
        data_path = os.path.join(directory, SURFACE_FILE)
        if not (os.path.exists(meta_path) and os.path.exists(data_path)):
            raise ConfigurationError(
                f"{directory!r} holds no PER surface "
                f"({SURFACE_META_FILE} + {SURFACE_FILE})"
            )
        with open(meta_path, "r", encoding="utf-8") as fh:
            try:
                sidecar = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"surface sidecar {meta_path}: invalid JSON ({exc})"
                ) from None
        if sidecar.get("format") != SURFACE_FORMAT:
            raise ConfigurationError(
                f"surface {directory!r} has format "
                f"{sidecar.get('format')!r}; this build reads format "
                f"{SURFACE_FORMAT}"
            )
        with np.load(data_path) as arrays:
            return cls(
                name=sidecar["name"],
                channel=sidecar["channel"],
                phys=list(sidecar["phys"]),
                rate_mbps=arrays["rate_mbps"],
                snr_db=arrays["snr_db"],
                payload_bytes=arrays["payload_bytes"],
                per=arrays["per"],
                per_ci_low=arrays["per_ci_low"],
                per_ci_high=arrays["per_ci_high"],
                ber=arrays["ber"],
                n_trials=arrays["n_trials"],
                meta=dict(sidecar.get("meta", {})),
            )

    def summary_lines(self):
        """Printable overview (the body of ``repro surface show``)."""
        lines = [
            f"surface {self.name!r}: {len(self.phys)} phy(s) x "
            f"{self.payload_bytes.size} payload(s) x "
            f"{self.snr_db.size} SNR(s) over {self.channel!r}",
            f"  snr_db        : {self.snr_db[0]:g} .. {self.snr_db[-1]:g} "
            f"({self.snr_db.size} points)",
            f"  payload_bytes : {[int(p) for p in self.payload_bytes]}",
            f"  waveform cost : {self.total_trials} packets "
            f"({self.n_cells} cells)",
        ]
        for key in ("base_seed", "code_version", "precision", "max_trials",
                    "confidence", "n_packets"):
            if key in self.meta:
                lines.append(f"  {key:<13} : {self.meta[key]}")
        for i, phy in enumerate(self.phys):
            per_row = self.per[i, 0]
            lines.append(
                f"  {phy:<12} {self.rate_mbps[i]:6.1f} Mbps  PER "
                f"{per_row[0]:.3f} -> {per_row[-1]:.3f} across the grid"
            )
        return lines
