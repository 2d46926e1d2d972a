"""campaign-sweep: a mixed-family link campaign on the local queue.

One round runs three passes of ``run_campaign(backend="local-queue",
workers=nproc)`` against a fresh SQLite store: a cold pass that executes
and writes every point, a widened pass whose spec adds one SNR value and
so executes only the new points, and warm passes that re-run the widened
spec entirely from the cache. ``snr_db`` is the first (slowest) factor,
so the new SNR's points get new grid indices and the old points keep
their cache keys. Pass times are in reference-host seconds
(``common.HostClock``).
"""

from __future__ import annotations

import json
import os
import shutil

from repro.campaign import runner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store_sqlite import SqliteResultsStore

from common import Workload, draw_seed, median, perf, quantile, stream

SCALES = {
    "full": {"phys": ["dsss-2", "cck-11", "ofdm-24", "ht-9", "ht-12"],
             "channels": ["awgn", "rayleigh", "tgn-C"], "n_snr": 3,
             "n_packets": 3, "warm_passes": 3},
    "tiny": {"phys": ["dsss-2", "ofdm-24"], "channels": ["awgn"],
             "n_snr": 1, "n_packets": 1, "warm_passes": 1},
}
PAYLOAD_BYTES = 100
NAME = "perfbench-sweep"


def nproc():
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class CampaignSweep(Workload):
    """The ``campaign-sweep`` workload."""

    name = "campaign-sweep"

    def __init__(self, seed, scale, workdir):
        super().__init__()
        params = SCALES[scale]
        self.workdir = workdir
        self.workers = nproc()
        self.warm_passes = params["warm_passes"]
        rng = stream(seed, 2)
        # SNRs 8 dB apart, jittered by at most 0.1 dB: every seed asks
        # for about the same work.
        snrs = [round(5.0 + 8.0 * i + float(rng.uniform(-0.1, 0.1)), 3)
                for i in range(params["n_snr"])]
        new_snr = round(28.0 + float(rng.uniform(-0.1, 0.1)), 3)
        base_seed = draw_seed(rng)

        def spec(snr_values):
            return CampaignSpec(
                name=NAME, kind="link",
                factors={"snr_db": snr_values, "phy": params["phys"],
                         "channel": params["channels"]},
                fixed={"n_packets": params["n_packets"],
                       "payload_bytes": PAYLOAD_BYTES},
                base_seed=base_seed)

        self.cold_spec = spec(snrs)
        self.wide_spec = spec(snrs + [new_snr])
        self.n_cold = self.cold_spec.n_points
        self.n_wide = self.wide_spec.n_points
        self.warmup_spec = CampaignSpec(
            name="perfbench-warmup", kind="link",
            factors={"phy": params["phys"]},
            fixed={"snr_db": 20.0, "n_packets": 1,
                   "payload_bytes": PAYLOAD_BYTES},
            base_seed=base_seed)
        self.rounds = []
        self.reference = None
        self._n_stores = 0

    def _fresh_store_dir(self):
        self._n_stores += 1
        path = os.path.join(self.workdir, f"store-{self._n_stores}")
        os.makedirs(path)
        return path

    def setup(self):
        """Create a store and run one inline point per PHY family."""
        path = self._fresh_store_dir()
        store = SqliteResultsStore(path)
        try:
            runner.run_campaign(self.warmup_spec, workers=1, store=store)
        finally:
            store.close()
            shutil.rmtree(path)

    def _pass(self, spec, store, tracer):
        t0 = perf()
        result = runner.run_campaign(
            spec, workers=self.workers, store=store, backend="local-queue",
            # Forked workers inherit the tracer's wrappers when tracing.
            start_method="fork")
        wall = self.clock.convert(perf() - t0)
        if tracer is not None:
            tracer.absorb_worker_files()
        self.attempted += result.n_points
        self.failed += result.n_failed
        for rec in result.failed_records:
            self.check(False, f"point {rec.get('index')} "
                              f"{rec.get('outcome')}: {rec.get('error')}")
        return result, wall

    def run_round(self, tracer):
        path = self._fresh_store_dir()
        if tracer is not None:
            tracer.flush_dir = os.path.join(path, "spans")
            os.makedirs(tracer.flush_dir)
        store = SqliteResultsStore(path)
        try:
            t_round = perf()
            cold, cold_wall = self._pass(self.cold_spec, store, tracer)
            wide, wide_wall = self._pass(self.wide_spec, store, tracer)
            warm = [self._pass(self.wide_spec, store, tracer)
                    for _ in range(self.warm_passes)]
            wall = perf() - t_round
        finally:
            store.close()
            shutil.rmtree(path)
        self._check_passes(cold, wide, [r for r, _ in warm])

        executed = ([r for r in cold.records if not r.get("cached")]
                    + [r for r in wide.records if not r.get("cached")])
        busy = sum(r["wall_time_s"] or 0.0 for r in executed)
        queue_stats = [res.extras.get("queue", {}) for res in (cold, wide)]
        self.rounds.append({
            "traced": tracer is not None, "wall": wall,
            "cold_wall": cold_wall, "wide_wall": wide_wall,
            "warm_walls": [w for _, w in warm],
            "cold_packets": sum(r["metrics"].get("n_packets", 0)
                                for r in cold.records),
            "executed": len(executed),
            "cached": wide.n_cached + sum(r.n_cached for r, _ in warm),
            "point_walls": [r["wall_time_s"] for r in executed],
            "busy_s": busy,
            "orchestration_overhead": 1.0 - busy / (
                self.workers * (cold_wall + wide_wall)),
            "retries": sum((r.get("attempts") or 1) - 1 for r in executed),
            "requeued": sum(q.get("n_requeued", 0) for q in queue_stats),
        })

    def _check_passes(self, cold, wide, warms):
        self.check(cold.n_cached == 0 and cold.n_executed == self.n_cold,
                   f"cold pass executed {cold.n_executed} of {self.n_cold} "
                   f"points ({cold.n_cached} cached)")
        new = set(range(self.n_cold, self.n_wide))
        ran = {r["index"] for r in wide.records if not r.get("cached")}
        self.check(ran == new,
                   f"widened pass executed {len(ran)} points, expected "
                   f"exactly the {len(new)} new ones")
        fresh = {r["index"]: _canon(r["metrics"])
                 for r in cold.records + wide.records if not r.get("cached")}
        for warm in warms:
            self.check(warm.n_executed == 0 and warm.n_cached == self.n_wide,
                       f"warm pass executed {warm.n_executed} points")
            self.check({r["index"]: _canon(r["metrics"])
                        for r in warm.records} == fresh,
                       "warm pass metrics differ from the executed passes")
        if self.reference is None:
            self.reference = {i: json.loads(m) for i, m in fresh.items()}
        else:
            self.check({i: json.loads(m) for i, m in fresh.items()}
                       == self.reference,
                       "a repeated round gave different point metrics")

    def end_to_end(self):
        rounds = [r for r in self.rounds if not r["traced"]]
        cold_s = median([r["cold_wall"] for r in rounds])
        warm_s = median([w for r in rounds for w in r["warm_walls"]])
        details = {
            "cold_points_per_s": median([self.n_cold / r["cold_wall"]
                                         for r in rounds]),
            "warm_points_per_s": self.n_wide / warm_s,
            "mc_packets_per_s": median([r["cold_packets"] / r["cold_wall"]
                                        for r in rounds]),
            "cold_pass_s": cold_s,
            "widened_pass_s": median([r["wide_wall"] for r in rounds]),
            "warm_pass_s": warm_s,
            "workers": self.workers,
        }
        return ({"throughput_per_s": details["cold_points_per_s"],
                 "primary_ms": 1000.0 * details["widened_pass_s"],
                 "secondary_ms": 1000.0 * warm_s}, details)

    def layer_extras(self):
        traced = [r for r in self.rounds if r["traced"]]
        executed = sum(r["executed"] for r in traced)
        cached = sum(r["cached"] for r in traced)
        walls = [w for r in traced for w in r["point_walls"]]
        return {
            "points_executed": executed,
            "points_cached": cached,
            "cache_hit_ratio": (cached / (executed + cached)
                                if executed + cached else 0.0),
            "point_wall_p50_s": quantile(walls, 0.5),
            "point_wall_p95_s": quantile(walls, 0.95),
            "orchestration_overhead": median(
                [r["orchestration_overhead"] for r in traced]),
            "retries": sum(r["retries"] for r in traced),
            "requeued": sum(r["requeued"] for r in traced),
        }

    def digest(self):
        ref = self.reference or {}
        return {
            "snr_db": list(self.wide_spec.factors["snr_db"]),
            "points": len(ref),
            "packets": sum(m.get("n_packets", 0) for m in ref.values()),
            "packet_errors": sum(m.get("n_packet_errors", 0)
                                 for m in ref.values()),
            "bit_errors": sum(m.get("n_bit_errors", 0)
                              for m in ref.values()),
        }


def _canon(metrics):
    return json.dumps(metrics, sort_keys=True)
