"""link-grid: cross-point OFDM grids, half with the analytic fast path.

One round resolves all 8 OFDM rates over a 0-30 dB SNR axis twice: on
``awgn`` with ``analytic_floor`` (cells whose union bound clears the
floor are resolved without packets) and on flat ``rayleigh``, which has
no closed form. Each rate is one ``run_link_grid`` call over the whole
SNR axis, and all rates of a channel share one seed, so they see the
same per-trial draws, as in one 8-rate grid. Every MC cell spends the
same fixed packet budget, so a round is a fixed amount of work.

One call per rate keeps each timed piece at 0.1-1 s, short next to the
seconds the host's speed holds, so ``common.HostClock`` can convert it
to reference-host seconds; a channel's grid time is the sum over rates
of each call's median.
"""

from __future__ import annotations

import numpy as np
from repro.core import link as core_link

from common import Workload, draw_seed, median, perf, stream

PHYS = tuple(f"ofdm-{r}" for r in (6, 9, 12, 18, 24, 36, 48, 54))
SCALES = {
    # 8 packets per cell: a garbled SIGNAL field sends a row through its
    # own Viterbi sweep, so a cell's cost depends a little on the draws;
    # 8 rows per batch keep that within a few per cent across seeds while
    # a round stays short enough to repeat 6-7 times in 30 s.
    "full": {"phys": PHYS, "n_snr": 4, "n_packets": 8, "payload_bytes": 500},
    "tiny": {"phys": ("ofdm-6", "ofdm-54"), "n_snr": 2, "n_packets": 2,
             "payload_bytes": 100},
}
FLOOR = 1e-6
CHANNELS = ("awgn", "rayleigh")
CONFIDENCE = 0.95


class LinkGrid(Workload):
    """The ``link-grid`` workload."""

    name = "link-grid"

    def __init__(self, seed, scale, workdir):
        super().__init__()
        params = SCALES[scale]
        self.phys = list(params["phys"])
        self.n_packets = params["n_packets"]
        self.payload_bytes = params["payload_bytes"]
        rng = stream(seed, 1)
        # Evenly spread over 0-30 dB. The jitter stays small so that every
        # seed leaves the same cells to the analytic path (same work).
        base = np.linspace(0.0, 30.0, params["n_snr"])
        self.snrs = [round(float(np.clip(b + rng.uniform(-0.05, 0.05),
                                         0.0, 30.0)), 3) for b in base]
        self.grid_seeds = {ch: draw_seed(rng) for ch in CHANNELS}
        self.rounds = []
        self.reference = None

    def setup(self):
        """Warm the kernels and PHY plans on a tiny grid of each channel."""
        for ch in CHANNELS:
            core_link.run_link_grid(
                ["ofdm-6", "ofdm-54"], [5.0, 25.0], n_packets=1,
                payload_bytes=self.payload_bytes, channel=ch,
                analytic_floor=FLOOR if ch == "awgn" else None, rng=0)

    def run_round(self, tracer):
        walls, cells = {}, {}
        for ch in CHANNELS:
            cells[ch] = []
            for phy in self.phys:
                self.attempted += len(self.snrs)
                t0 = perf()
                try:
                    rows = core_link.run_link_grid(
                        [phy], self.snrs, n_packets=self.n_packets,
                        payload_bytes=self.payload_bytes, channel=ch,
                        analytic_floor=FLOOR if ch == "awgn" else None,
                        confidence=CONFIDENCE, rng=self.grid_seeds[ch])
                except Exception as exc:  # counted as failed cells
                    self.failed += len(self.snrs)
                    self.check(False, f"{ch} {phy} grid raised "
                                      f"{type(exc).__name__}: {exc}")
                    rows = []
                walls[ch, phy] = self.clock.convert(perf() - t0)
                cells[ch] += [_summarise(r) for row in rows for r in row]
        if self.reference is None:
            self.reference = cells
            self._check_cells(cells)
        else:
            self.check(cells == self.reference,
                       "a repeated round gave different grid results")
        self.rounds.append({
            "traced": tracer is not None, "walls": walls,
            "mc_packets": {ch: sum(c["n_packets"] for c in cells[ch])
                           for ch in CHANNELS},
            "analytic": sum(c["analytic"] for ch in CHANNELS
                            for c in cells[ch]),
            "cells": sum(len(cells[ch]) for ch in CHANNELS),
        })

    def _check_cells(self, cells):
        for ch in CHANNELS:
            by_phy = {}
            for c in cells[ch]:
                by_phy.setdefault(c["phy"], []).append(c)
                if c["analytic"]:
                    self.check(c["bound"] <= FLOOR,
                               f"{ch} {c['phy']} @ {c['snr_db']} dB: "
                               f"analytic bound {c['bound']} above floor")
                else:
                    self.check(c["n_packets"] == self.n_packets,
                               f"{ch} {c['phy']} @ {c['snr_db']} dB spent "
                               f"{c['n_packets']} of {self.n_packets} "
                               "packets")
            for phy, row in by_phy.items():
                row.sort(key=lambda c: c["snr_db"])
                for i, lower in enumerate(row):
                    for higher in row[i + 1:]:
                        self.check(higher["ci"][0] <= lower["ci"][1],
                                   f"{ch} {phy}: PER rises from "
                                   f"{lower['snr_db']} to "
                                   f"{higher['snr_db']} dB beyond the "
                                   "Wilson intervals")
        top = max(self.snrs)
        for c in cells["awgn"]:
            if c["phy"] == "ofdm-6" and c["snr_db"] == top:
                self.check(c["packet_errors"] == 0,
                           f"ofdm-6 has packet errors at {top} dB on awgn")

    def end_to_end(self):
        rounds = [r for r in self.rounds if not r["traced"]]
        m = {f"{ch}_grid_s": sum(median([r["walls"][ch, phy] for r in rounds])
                                 for phy in self.phys)
             for ch in CHANNELS}
        m["grid_s"] = sum(m[f"{ch}_grid_s"] for ch in CHANNELS)
        # Every round sends the same packets, so any round's count will do.
        m["mc_packets_per_s"] = (rounds[0]["mc_packets"]["rayleigh"]
                                 / m["rayleigh_grid_s"])
        return ({"throughput_per_s": m["mc_packets_per_s"],
                 "primary_ms": 1000.0 * m["grid_s"],
                 "secondary_ms": 1000.0 * m["awgn_grid_s"]}, m)

    def layer_extras(self):
        traced = [r for r in self.rounds if r["traced"]]
        cells = sum(r["cells"] for r in traced)
        return {"analytic_share": (sum(r["analytic"] for r in traced) / cells
                                   if cells else 0.0)}

    def digest(self):
        out = {"snr_db": self.snrs}
        for ch in CHANNELS:
            cells = (self.reference or {}).get(ch, [])
            out[ch] = {
                "cells": len(cells),
                "analytic_cells": sum(c["analytic"] for c in cells),
                "mc_packets": sum(c["n_packets"] for c in cells),
                "packet_errors": sum(c["packet_errors"] for c in cells),
                "bit_errors": sum(c["bit_errors"] for c in cells),
            }
        return out


def _summarise(result):
    lo, hi = result.per_ci(CONFIDENCE)
    return {
        "phy": result.phy,
        "snr_db": result.snr_db,
        "analytic": bool(result.analytic),
        "bound": (float(result.extras["analytic"]["per"])
                  if result.analytic else None),
        "n_packets": int(result.n_packets),
        "packet_errors": int(result.n_packet_errors),
        "bit_errors": int(result.n_bit_errors),
        "ci": (float(lo), float(hi)),
    }
