"""city-surrogate: closed-loop deployment queries against a PER surface.

Set-up builds one small 8-rate OFDM ``PerSurface`` at 1500 B through
``build_surface``. A single client then issues deployment queries one
after the other. Each query lays out a K-node mesh on a jittered grid
whose side grows with sqrt(K), estimates its coverage at 54 Mbps through
``coverage_result(link=AbstractLink)`` (an 802.11b backhaul connects
the mesh), and runs ARF and the SNR genie through
``simulate_rate_adaptation(link=...)`` for a few stations whose mean SNR
follows from their distance to the nearest mesh node.

Latencies are in reference-host seconds (``common.HostClock``).
"""

from __future__ import annotations

import math

import numpy as np
from repro.analysis.linkbudget import LinkBudget
from repro.mac import rate_adaptation as ra
from repro.mesh import coverage
from repro.surrogate import AbstractLink
from repro.surrogate import builder

from common import Workload, draw_seed, median, perf, stream, tail

PHYS = [f"ofdm-{r}" for r in (6, 9, 12, 18, 24, 36, 48, 54)]
SCALES = {
    # The K mix keeps the median inside the K=64 queries and the tail
    # inside the K=1000 ones.
    "full": {"surface_snrs": (14.0, 26.0), "surface_packets": 2,
             "payload_bytes": 1500,
             "ks": (16, 64, 64, 256, 1000), "cycles": 2, "samples": 2000,
             "stations": 3, "trace_len": 80},
    "tiny": {"surface_snrs": (2.0, 14.0, 26.0), "surface_packets": 1,
             "payload_bytes": 100,
             "ks": (16, 64), "cycles": 1, "samples": 200, "stations": 3,
             "trace_len": 80},
}
SPACING_M = 100.0
JITTER = 0.25
ACCESS_PHY = "ofdm-54"
MAX_PER = 0.1


class CitySurrogate(Workload):
    """The ``city-surrogate`` workload."""

    name = "city-surrogate"

    def __init__(self, seed, scale, workdir):
        super().__init__()
        params = SCALES[scale]
        self.params = params
        rng = stream(seed, 3)
        self.surface_snrs = [round(c + float(rng.uniform(-0.5, 0.5)), 2)
                             for c in params["surface_snrs"]]
        self.surface_seed = draw_seed(rng)
        budget = LinkBudget()
        self.queries = []
        for q in range(params["cycles"] * len(params["ks"])):
            k = params["ks"][q % len(params["ks"])]
            n_side = math.ceil(math.sqrt(k))
            cells = rng.permutation(n_side * n_side)[:k]
            ij = np.stack([cells // n_side, cells % n_side], axis=1)
            positions = (ij + 0.5 + rng.uniform(-JITTER, JITTER, (k, 2))) \
                * SPACING_M
            side = n_side * SPACING_M
            stations = rng.uniform(0.0, side, (params["stations"], 2))
            nearest = np.sqrt(((stations[:, None, :] - positions[None, :, :])
                               ** 2).sum(axis=2)).min(axis=1)
            self.queries.append({
                "k": k, "positions": positions, "side": side,
                "coverage_seed": draw_seed(rng),
                "mean_snr_db": [float(s) for s in
                                budget.snr_at(np.maximum(nearest, 1.0))],
                "trace_seeds": [draw_seed(rng) for _ in stations],
                "packet_seeds": [(draw_seed(rng), draw_seed(rng))
                                 for _ in stations],
            })
        self.surface = None
        self.reference = [None] * len(self.queries)
        self.latencies = []
        self.rounds = 0

    def setup(self):
        """Build the surface; check that grid queries return its cells."""
        surface = builder.build_surface(
            "perfbench-city", PHYS, snr_db=self.surface_snrs,
            payload_bytes=[self.params["payload_bytes"]],
            n_packets=self.params["surface_packets"],
            base_seed=self.surface_seed)
        if self.surface is not None:
            self.check(np.array_equal(surface.per, self.surface.per),
                       "a repeated surface build gave different cells")
        self.surface = surface
        self.access = AbstractLink(surface, ACCESS_PHY)
        self.ladder_link = AbstractLink(surface, PHYS[0])
        for i, phy in enumerate(PHYS):
            link = AbstractLink(surface, phy)
            for j, snr in enumerate(surface.snr_db):
                self.check(link.per_at(float(snr)) == surface.per[i, 0, j],
                           f"{phy} per_at({snr}) is not the stored cell")

    def _query(self, q):
        cov = coverage.coverage_result(
            q["positions"], q["side"], standard="802.11b",
            link=self.access, max_per=MAX_PER,
            n_samples=self.params["samples"], rng=q["coverage_seed"])
        stations = []
        for mean, t_seed, (a_seed, g_seed) in zip(
                q["mean_snr_db"], q["trace_seeds"], q["packet_seeds"]):
            trace = ra.fading_snr_trace(mean, self.params["trace_len"],
                                        rng=t_seed)
            runs = []
            for ctrl, seed in ((ra.ArfController("802.11a"), a_seed),
                               (ra.SnrRateController("802.11a"), g_seed)):
                res = ra.simulate_rate_adaptation(
                    ctrl, trace, payload_bits=8 * self.params["payload_bytes"],
                    rng=seed, link=self.ladder_link)
                runs.append((res.successes, res.packets,
                             round(res.throughput_mbps, 12)))
            stations.append(runs)
        return {"covered": int(cov.n_events), "samples": int(cov.n_trials),
                "stations": stations}

    def run_round(self, tracer):
        for i, q in enumerate(self.queries):
            self.attempted += 1
            t0 = perf()
            try:
                out = self._query(q)
            except Exception as exc:  # counted as a failed query
                self.failed += 1
                self.check(False, f"query {i} (K={q['k']}) raised "
                                  f"{type(exc).__name__}: {exc}")
                continue
            latency = self.clock.convert(perf() - t0)
            if tracer is None:
                self.latencies.append(latency)
            if self.reference[i] is None:
                self.reference[i] = out
                self._check_coverage(i, q, out)
            else:
                self.check(out == self.reference[i],
                           f"query {i} gave a different answer when repeated")
        self.rounds += 1
        if self.rounds == 1:
            d = self.digest()
            self.check(0 < d["delivered_packets"] < d["sent_packets"],
                       f"rate adaptation delivered {d['delivered_packets']}"
                       f"/{d['sent_packets']} packets, not inside (0, 1)")

    def _check_coverage(self, i, q, out):
        self.check(0 < out["covered"] < out["samples"],
                   f"query {i} (K={q['k']}): coverage "
                   f"{out['covered']}/{out['samples']} not inside (0, 1)")

    def end_to_end(self):
        lat = self.latencies
        p50 = median(lat)
        tail_s, pct = tail(lat)
        # One client, one query at a time: the rate is 1 / mean latency.
        qps = len(lat) / sum(lat)
        details = {"query_p50_ms": 1000.0 * p50,
                   "query_tail_ms": 1000.0 * tail_s,
                   "query_tail_percentile": pct, "query_count": len(lat),
                   "queries_per_s": qps}
        return ({"throughput_per_s": qps, "primary_ms": 1000.0 * p50,
                 "secondary_ms": 1000.0 * tail_s}, details)

    def layer_extras(self):
        return {}

    def digest(self):
        answered = [r for r in self.reference if r is not None]
        runs = [r for out in answered for st in out["stations"] for r in st]
        return {
            "surface_snr_db": self.surface_snrs,
            "surface_per": (self.surface.per[:, 0, :].tolist()
                            if self.surface is not None else None),
            "queries": len(answered),
            "covered": sum(o["covered"] for o in answered),
            "samples": sum(o["samples"] for o in answered),
            "delivered_packets": sum(r[0] for r in runs),
            "sent_packets": sum(r[1] for r in runs),
        }
