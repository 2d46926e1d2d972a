"""Live telemetry: metrics registry, status snapshotter, stall detection.

The PR-9 observability contract: store-backed campaigns keep an atomic
``results/<name>/status.json`` fresh while they run — point counts,
per-worker heartbeat ages, EWMA throughput/ETA, merged metric
histograms — and a worker that dies holding leases is flagged as a
stall while the campaign still converges to a complete record set.
"""

import json
import os
import threading
import time

import pytest

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.campaign.runner import register_point_kind
from repro.errors import ConfigurationError
from repro.obs import live
from repro.obs import metrics
from repro.obs.live import StatusBoard


# -- metrics registry ---------------------------------------------------------

class TestHistogram:
    def test_observe_counts_and_moments(self):
        h = metrics.Histogram()
        for v in (0.001, 0.01, 0.01, 0.1):
            h.observe(v)
        assert h.n == 4
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(0.1)
        assert h.mean == pytest.approx(0.121 / 4)

    def test_quantile_is_upper_bound_within_one_bucket(self):
        h = metrics.Histogram(per_decade=4)
        for v in (0.01,) * 9 + (1.0,):
            h.observe(v)
        p50 = h.quantile(0.5)
        # One bucket's upper edge above 0.01: 10**(1/4) ~ 1.78x.
        assert 0.01 <= p50 <= 0.01 * 10 ** 0.25 + 1e-12
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_out_of_range_samples_clamp_to_edge_buckets(self):
        h = metrics.Histogram(lo=1e-3, hi=1e3)
        h.observe(1e-9)
        h.observe(1e9)
        h.observe(float("nan"))  # dropped
        assert h.n == 2
        assert h.counts[0] == 1
        assert h.counts[-1] == 1

    def test_snapshot_roundtrip_and_merge(self):
        a, b = metrics.Histogram(), metrics.Histogram()
        for v in (0.01, 0.1):
            a.observe(v)
        for v in (0.1, 1.0, 10.0):
            b.observe(v)
        merged = metrics.Histogram.from_snapshot(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.n == 5
        assert merged.min == pytest.approx(0.01)
        assert merged.max == pytest.approx(10.0)
        assert merged.total == pytest.approx(a.total + b.total)

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            metrics.Histogram(per_decade=4).merge(
                metrics.Histogram(per_decade=8))


class TestRegistry:
    def test_counters_gauges_histograms_snapshot(self):
        reg = metrics.MetricsRegistry()
        reg.count("trials", 100)
        reg.count("trials", 50)
        reg.gauge("rate", 3.5)
        reg.observe("wall_s", 0.2)
        snap = reg.snapshot()
        assert snap["counters"] == {"trials": 150}
        assert snap["gauges"] == {"rate": 3.5}
        assert snap["histograms"]["wall_s"]["n"] == 1

    def test_merge_snapshots_sums_across_processes(self):
        a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        a.count("trials", 10)
        b.count("trials", 5)
        a.gauge("rate", 2.0)
        b.gauge("rate", 3.0)
        a.observe("wall_s", 0.1)
        b.observe("wall_s", 1.0)
        merged = metrics.merge_snapshots([a.snapshot(), b.snapshot(),
                                          None, {}])
        assert merged["counters"] == {"trials": 15}
        assert merged["gauges"]["rate"] == pytest.approx(5.0)
        assert merged["histograms"]["wall_s"]["n"] == 2

    def test_module_dispatch_is_noop_without_registry(self):
        assert metrics.current_registry() is None
        metrics.count("ghost", 5)
        metrics.gauge("ghost", 1.0)
        metrics.observe("ghost", 0.5)
        assert metrics.current_registry() is None

    def test_use_registry_scopes_and_restores(self):
        with metrics.use_registry(metrics.MetricsRegistry()) as reg:
            metrics.count("inside")
            assert metrics.enabled()
        assert not metrics.enabled()
        assert reg.snapshot()["counters"] == {"inside": 1}

    def test_histogram_summary_shape(self):
        reg = metrics.MetricsRegistry()
        for v in (0.1, 0.2, 0.4):
            reg.observe("w", v)
        s = metrics.histogram_summary(reg.snapshot()["histograms"]["w"])
        assert s["n"] == 3
        assert s["mean"] == pytest.approx(0.7 / 3)
        assert s["max"] == pytest.approx(0.4)
        assert s["p50"] >= 0.2


# -- atomic status document ---------------------------------------------------

class TestStatusIO:
    def test_write_then_read_roundtrip(self, tmp_path):
        path = tmp_path / "status.json"
        live.write_json_atomic(path, {"points": {"done": 3},
                                      "bad": float("nan")})
        doc = live.read_status(path)
        assert doc["points"]["done"] == 3
        assert doc["bad"] is None  # sanitised, not a JSON error

    def test_read_missing_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            live.read_status(tmp_path / "nope.json")

    def test_no_temp_file_left_behind(self, tmp_path):
        live.write_json_atomic(tmp_path / "status.json", {"ok": 1})
        assert os.listdir(tmp_path) == ["status.json"]


# -- the status board ---------------------------------------------------------

def memory_board(total=10, **kwargs):
    return StatusBoard(None, campaign="t", total=total, **kwargs)


class TestStatusBoard:
    def test_point_counts_and_remaining(self):
        board = memory_board(total=10)
        board.point_cached(3)
        board.point_done(outcome="ok")
        board.point_done(outcome="error")
        board.set_running(2)
        doc = board.snapshot()
        assert doc["points"] == {"total": 10, "cached": 3, "done": 2,
                                 "ok": 1, "failed": 1, "running": 2,
                                 "remaining": 5}

    def test_throughput_and_eta_after_progress(self):
        board = memory_board(total=4)
        board.point_done()
        board.point_done()
        doc = board.snapshot()
        assert doc["throughput_pps"] is not None
        assert doc["throughput_pps"] > 0
        assert doc["eta_s"] is not None

    def test_worker_heartbeat_carries_metrics_and_clears_stall(self):
        board = memory_board(stall_after_s=100.0)
        board.worker_spawned(111)
        reg = metrics.MetricsRegistry()
        reg.count("mc.trials", 42)
        board.worker_heartbeat(111, {"t": time.time(),
                                     "metrics": reg.snapshot()})
        doc = board.snapshot()
        assert doc["workers"]["111"]["state"] == "alive"
        assert not doc["workers"]["111"]["stalled"]
        assert doc["metrics"]["counters"]["mc.trials"] == 42

    def test_silent_worker_is_flagged_stalled_then_recovers(self):
        board = memory_board(heartbeat_s=0.01, stall_after_s=0.02)
        board.worker_spawned(222)
        time.sleep(0.05)
        assert board.snapshot()["workers"]["222"]["stalled"]
        board.worker_heartbeat(222)  # resumed beating: flag clears
        assert not board.snapshot()["workers"]["222"]["stalled"]

    def test_dead_worker_with_forfeits_is_a_stall(self, tmp_path):
        board = StatusBoard(tmp_path / "status.json", campaign="t",
                            total=5)
        board.worker_spawned(333)
        board.worker_dead(333, forfeited=2)
        doc = live.read_status(tmp_path / "status.json")
        assert doc["stalls_detected"] == 1
        assert doc["workers"]["333"]["state"] == "dead"
        assert doc["workers"]["333"]["stalled"]
        assert doc["workers"]["333"]["forfeited_points"] == 2

    def test_clean_worker_exit_is_not_a_stall(self):
        board = memory_board()
        board.worker_spawned(444)
        board.worker_dead(444, forfeited=0)
        doc = board.snapshot()
        assert doc["stalls_detected"] == 0
        assert not doc["workers"]["444"]["stalled"]
        assert doc["workers"]["444"]["state"] == "dead"

    def test_parent_registry_merges_into_snapshot(self):
        reg = metrics.MetricsRegistry()
        board = memory_board(registry=reg)
        board.point_done(wall_s=0.25)
        doc = board.snapshot()
        hist = doc["metrics"]["histograms"]["campaign.point.wall_s"]
        assert hist["n"] == 1
        assert doc["histogram_summary"]["campaign.point.wall_s"]["n"] == 1

    def test_maybe_write_rate_limits_but_force_writes(self, tmp_path):
        board = StatusBoard(tmp_path / "s.json", campaign="t", total=1,
                            heartbeat_s=10.0)
        assert board.maybe_write(force=True) is not None
        assert board.maybe_write() is None  # inside the min interval
        assert board.maybe_write(force=True) is not None

    def test_finish_writes_terminal_state(self, tmp_path):
        board = StatusBoard(tmp_path / "s.json", campaign="t", total=1)
        board.start_ticker()
        board.point_done()
        board.finish("done")
        doc = live.read_status(tmp_path / "s.json")
        assert doc["state"] == "done"
        assert doc["points"]["running"] == 0


class TestRendering:
    def test_refresh_ages_only_restalls_running_documents(self):
        stale = time.time() - 1000.0
        base = {"state": "done", "stall_after_s": 5.0, "t_update": stale,
                "workers": {"1": {"last_seen": stale, "state": "alive",
                                  "stalled": False}}}
        done = live.refresh_ages(json.loads(json.dumps(base)))
        assert not done["workers"]["1"]["stalled"]
        base["state"] = "running"
        running = live.refresh_ages(json.loads(json.dumps(base)))
        assert running["workers"]["1"]["stalled"]
        assert running["age_of_update_s"] > 100

    def test_status_lines_render_the_whole_story(self):
        board = memory_board(total=8, registry=metrics.MetricsRegistry())
        board.point_cached(2)
        board.point_done(outcome="ok", worker=9, wall_s=0.1)
        board.worker_dead(9, forfeited=1)
        text = "\n".join(live.status_lines(board.snapshot()))
        assert "3/8" in text
        assert "2 cached" in text
        assert "stalls 1" in text
        assert "STALLED" in text
        assert "forfeited 1" in text
        assert "campaign.point.wall_s" in text


# -- end-to-end: live status of inline and local-queue runs ------------------

def _slow_draw_point(params, rng):
    time.sleep(float(params.get("sleep_s", 0.0)))
    return {"draw": float(rng.integers(0, 1 << 30))}


def _die_holding_lease_point(params, rng):
    """First visit to ``die_at`` kills the worker mid-unit (see
    tests/test_queue.py); the flag file lets the requeued retry pass."""
    x = int(params["x"])
    if x == int(params.get("die_at", -1)):
        flag = os.path.join(params["flag_dir"], f"died-{x}")
        if not os.path.exists(flag):
            if os.path.isdir(params["flag_dir"]):
                open(flag, "w").close()
            os._exit(13)
    return {"draw": float(rng.integers(0, 1 << 30))}


register_point_kind("test-live-slow", _slow_draw_point, code_version="1")
register_point_kind("test-live-die", _die_holding_lease_point,
                    code_version="1")


class TestLiveStatusEndToEnd:
    @pytest.mark.parametrize("workers, path", [(1, "inline"),
                                               (2, "local-queue")])
    def test_status_converges_on_completed_run(self, tmp_path, workers,
                                               path):
        store = ResultsStore(tmp_path / "r")
        # A legacy backend knob must not change what status reports.
        spec = CampaignSpec(name="live-done", kind="test-live-slow",
                            factors={"x": list(range(6))}, base_seed=5,
                            backend="pool")
        result = run_campaign(spec, workers=workers, store=store,
                              heartbeat_s=0.1)
        assert result.n_failed == 0
        doc = live.read_status(store.status_path("live-done"))
        assert doc["state"] == "done"
        assert doc["backend"] == path
        assert f"backend={path} " in live.status_lines(doc)[0]
        assert doc["points"]["done"] == 6
        assert doc["points"]["remaining"] == 0
        assert doc["points"]["running"] == 0
        assert doc["stalls_detected"] == 0
        assert sum(w["n_records"] for w in doc["workers"].values()) == 6
        if workers == 1:
            assert doc["queue"] is None
        else:
            assert doc["queue"]["n_acks"] >= 1

    def test_killed_worker_flags_stall_and_status_converges(self, tmp_path):
        """The PR-9 satellite: kill a worker mid-unit; the stall
        detector flags the forfeited lease and status.json still
        converges to the final record counts."""
        flag_dir = tmp_path / "flags"
        flag_dir.mkdir()
        store = ResultsStore(tmp_path / "r")
        spec = CampaignSpec(
            name="live-stall", kind="test-live-die",
            factors={"x": list(range(8))},
            fixed={"die_at": 3, "flag_dir": str(flag_dir)},
            base_seed=23)
        result = run_campaign(spec, workers=2, shard_size=2, store=store,
                              heartbeat_s=0.1)
        assert all(r["outcome"] == "ok" for r in result.records)
        assert result.extras["queue"]["n_requeued"] >= 1

        doc = live.read_status(store.status_path("live-stall"))
        assert doc["state"] == "done"
        # The forfeited lease was detected as a stall...
        assert doc["stalls_detected"] >= 1
        dead = [w for w in doc["workers"].values()
                if w["state"] == "dead"]
        assert dead and sum(w["forfeited_points"] for w in dead) >= 1
        # ...and the final document still converged to the full grid.
        assert doc["points"]["done"] + doc["points"]["cached"] == 8
        assert doc["points"]["failed"] == 0
        assert doc["points"]["remaining"] == 0
        assert store.count("live-stall") == 8

    def test_status_observable_mid_run(self, tmp_path):
        """A watcher polling status.json during the run sees live
        running/done counts (the `watch --once` acceptance shape)."""
        gate = tmp_path / "go"
        store = ResultsStore(tmp_path / "r")
        spec = CampaignSpec(
            name="live-mid", kind="test-live-gate",
            factors={"x": [0, 1]},
            fixed={"gate": str(gate)}, base_seed=3)
        done = {}

        def run():
            done["result"] = run_campaign(spec, workers=2, store=store,
                                          heartbeat_s=0.05)

        thread = threading.Thread(target=run)
        thread.start()
        try:
            path = store.status_path("live-mid")
            deadline = time.monotonic() + 30.0
            seen_running = None
            while time.monotonic() < deadline:
                if os.path.exists(path):
                    doc = live.read_status(path)
                    if doc["state"] == "running" and \
                            doc["points"]["running"] >= 1:
                        seen_running = doc
                        break
                time.sleep(0.02)
            assert seen_running is not None, \
                "never observed a running status.json mid-campaign"
            assert seen_running["points"]["total"] == 2
            assert seen_running["workers"], "no worker heartbeats seen"
        finally:
            gate.write_text("go")  # release the workers
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert done["result"].n_failed == 0
        assert live.read_status(path)["state"] == "done"


def _gated_point(params, rng):
    """Block until the gate file exists, so the test can observe the
    campaign *while* a point is provably in flight."""
    deadline = time.monotonic() + 25.0
    while not os.path.exists(params["gate"]):
        if time.monotonic() > deadline:
            raise RuntimeError("gate never opened")
        time.sleep(0.01)
    return {"draw": float(rng.integers(0, 1 << 30))}


register_point_kind("test-live-gate", _gated_point, code_version="1")
