"""Tests for the sharded local-queue execution backend."""

import json
import multiprocessing
import os

import pytest

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.campaign.queue import (WorkQueue, WorkUnit, default_shard_size,
                                  shard_points)
from repro.campaign.runner import register_point_kind
from repro.campaign.seeding import point_generator
from repro.errors import ConfigurationError


def _queue_draw_point(params, rng):
    return {"draw": float(rng.integers(0, 1 << 30))}


def _die_once_point(params, rng):
    """Kill the whole worker process on the first visit to ``die_at``.

    ``os._exit`` bypasses every finally/atexit, simulating an OOM kill
    mid-unit; the flag file makes the requeued retry succeed.
    """
    x = int(params["x"])
    if x == int(params.get("die_at", -1)):
        flag = os.path.join(params["flag_dir"], f"died-{x}")
        if not os.path.exists(flag):
            if os.path.isdir(params["flag_dir"]):
                open(flag, "w").close()
            # A missing flag dir means the flag can never be laid down,
            # so the point kills every worker that ever visits it.
            os._exit(13)
    return {"draw": float(rng.integers(0, 1 << 30))}


register_point_kind("test-queue-draw", _queue_draw_point, code_version="1")
register_point_kind("test-die-once", _die_once_point, code_version="1")


def draw_spec(n=8, **overrides):
    fields = dict(name="qdraw", kind="test-queue-draw",
                  factors={"x": list(range(n))}, base_seed=17)
    fields.update(overrides)
    return CampaignSpec(**fields)


def jobs(n):
    return [(f"k{i}", i, {"x": i}) for i in range(n)]


def stable(records):
    """Records minus the fields that legitimately vary run to run."""
    return [{k: v for k, v in r.items() if k not in ("wall_time_s", "worker")}
            for r in records]


class TestSharding:
    def test_default_shard_size_targets_four_units_per_worker(self):
        assert default_shard_size(64, 4) == 4  # 16 units for 4 workers
        assert default_shard_size(3, 8) == 1
        assert default_shard_size(100, 1) == 25
        assert default_shard_size(0, 2) == 1

    def test_shard_points_preserves_grid_order(self):
        units = shard_points(jobs(7), 3)
        assert [u.unit_id for u in units] == [0, 1, 2]
        assert [len(u.jobs) for u in units] == [3, 3, 1]
        flat = [job for u in units for job in u.jobs]
        assert flat == jobs(7)

    def test_shard_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            shard_points(jobs(4), 0)


class TestWorkQueue:
    def test_lease_record_ack_lifecycle(self):
        wq = WorkQueue(shard_points(jobs(4), 2))
        assert wq.depth == 2 and not wq.done()
        wq.lease(0, pid=101)
        wq.lease(1, pid=102)
        assert wq.depth == 0
        for key, _, _ in jobs(4):
            wq.record(0 if key in ("k0", "k1") else 1, key)
        wq.ack(0, pid=101)
        wq.ack(1, pid=102)
        assert wq.done()
        assert (wq.n_leases, wq.n_acks, wq.n_requeued) == (2, 2, 0)

    def test_stale_ack_from_dead_pid_is_ignored(self):
        """A dead worker's last flushed ack must not release the lease
        the requeued unit's *new* owner holds."""
        wq = WorkQueue(shard_points(jobs(2), 2))
        wq.lease(0, pid=101)
        wq.requeue_for(101)  # 101 died; unit 0 is pending again
        wq.lease(0, pid=102)
        wq.ack(0, pid=101)  # stale: arrives after the requeue
        assert not wq.done()
        assert wq.held_by(102) == 1
        wq.record(0, "k0")
        wq.record(0, "k1")
        wq.ack(0, pid=102)
        assert wq.done()

    def test_requeue_keeps_id_and_unfinished_jobs_only(self):
        wq = WorkQueue(shard_points(jobs(4), 4))
        wq.lease(0, pid=101)
        wq.record(0, "k0")
        wq.record(0, "k2")
        reclaimed = wq.requeue_for(101)
        assert len(reclaimed) == 1
        assert reclaimed[0].unit_id == 0
        assert [job[0] for job in reclaimed[0].jobs] == ["k1", "k3"]
        assert wq.n_requeued == 1
        assert not wq.done()  # the reclaimed unit is pending again

    def test_fully_reported_unit_retires_on_death(self):
        """A worker that dies after its last record but before the ack
        loses nothing: the unit retires as acked, not requeued."""
        wq = WorkQueue(shard_points(jobs(2), 2))
        wq.lease(0, pid=101)
        wq.record(0, "k0")
        wq.record(0, "k1")
        assert wq.requeue_for(101) == []
        assert wq.n_acks == 1 and wq.n_requeued == 0

    def test_requeue_ignores_other_pids(self):
        wq = WorkQueue(shard_points(jobs(2), 1))
        wq.lease(0, pid=101)
        wq.lease(1, pid=102)
        assert wq.requeue_for(999) == []
        assert wq.n_requeued == 0


class TestLocalQueueBackend:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("legacy", ["pool", "local-queue"])
    def test_legacy_backend_spec_bit_identical_to_inline(self, tmp_path,
                                                          legacy, workers):
        """Old spec.json files carry a ``backend`` knob that now selects
        nothing: it must still load, and the run must match inline."""
        data = dict(draw_spec().to_dict(), backend=legacy)
        spec = CampaignSpec.from_dict(json.loads(json.dumps(data)))
        assert spec.to_dict() == data
        inline = run_campaign(spec, store=ResultsStore(tmp_path / "a"))
        queued = run_campaign(spec, workers=workers,
                              store=ResultsStore(tmp_path / "b"))
        assert "queue" not in inline.extras
        assert {r["worker"] for r in inline.records} == {os.getpid()}
        assert queued.extras["queue"]["backend"] == "local-queue"
        assert os.getpid() not in {r["worker"] for r in queued.records}
        assert stable(queued.records) == stable(inline.records)

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="platform has no forkserver start method")
    def test_forkserver_workers_match_inline(self, tmp_path):
        """Forkserver workers are children of the forkserver, not of the
        run. They must still execute every point, so nothing is lost and
        the records match an inline run."""
        spec = draw_spec()
        inline = run_campaign(spec, store=ResultsStore(tmp_path / "a"))
        queued = run_campaign(spec, workers=2, start_method="forkserver",
                              store=ResultsStore(tmp_path / "b"))
        assert queued.extras["queue"]["n_lost"] == 0
        assert stable(queued.records) == stable(inline.records)

    def test_queue_stats_surface_in_extras(self, tmp_path):
        result = run_campaign(draw_spec(), workers=2, shard_size=2,
                              store=ResultsStore(tmp_path))
        stats = result.extras["queue"]
        assert stats["backend"] == "local-queue"
        assert stats["n_units"] == 4  # 8 points / shard_size 2
        assert stats["shard_size"] == 2
        assert stats["n_leases"] == stats["n_acks"] == 4
        assert stats["n_requeued"] == 0
        assert stats["n_lost"] == 0

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_campaign(draw_spec(), workers=2, backend="slurm",
                         store=ResultsStore(tmp_path))


class TestWorkerDeath:
    def test_dead_worker_requeues_and_respawns(self, tmp_path):
        """A worker OOM-killed mid-unit forfeits its lease; the unit's
        unfinished points re-run on a replacement, and the finished
        grid is still bit-identical to an undisturbed run."""
        flag_dir = tmp_path / "flags"
        flag_dir.mkdir()
        spec = CampaignSpec(
            name="mortal", kind="test-die-once",
            factors={"x": list(range(8))},
            fixed={"die_at": 3, "flag_dir": str(flag_dir)},
            base_seed=23,
        )
        result = run_campaign(spec, workers=2, shard_size=2,
                              store=ResultsStore(tmp_path / "r"))
        assert all(r["outcome"] == "ok" for r in result.records)
        stats = result.extras["queue"]
        assert stats["n_requeued"] >= 1
        assert stats["n_respawns"] >= 1
        assert stats["n_lost"] == 0
        # The re-run point drew from its usual per-point substream.
        by_x = {r["params"]["x"]: r for r in result.records}
        expected = float(point_generator(23, by_x[3]["index"])
                         .integers(0, 1 << 30))
        assert by_x[3]["metrics"]["draw"] == expected

    def test_all_workers_dead_synthesizes_failures(self, tmp_path):
        """When every worker (and replacement) dies on the same point,
        the sweep still returns a complete record set: the undeliverable
        points come back as structured failures, not holes."""
        flag_dir = tmp_path / "flags"  # never created: dies every time
        spec = CampaignSpec(
            name="doomed", kind="test-die-once",
            factors={"x": [0, 1]},
            fixed={"die_at": 1, "flag_dir": str(flag_dir)},
            base_seed=29,
        )
        result = run_campaign(spec, workers=2, shard_size=1,
                              store=ResultsStore(tmp_path / "r"))
        by_x = {r["params"]["x"]: r for r in result.records}
        assert by_x[0]["outcome"] == "ok"
        assert by_x[1]["outcome"] == "error"
        assert "work unit lost" in by_x[1]["error"]
        assert by_x[1]["worker"] is None
        stats = result.extras["queue"]
        assert stats["n_lost"] == 1
        assert stats["n_respawns"] == 2  # the whole budget was spent
