"""Resume-after-kill: interrupted campaigns finish bit-identical.

The contract under test (ISSUE 7 acceptance): kill a campaign at any
point — torn JSONL tail, lost sqlite WAL, SIGKILL of the whole process
tree — and ``repro campaign resume`` completes the grid with records
whose stable fields are byte-identical to a run that was never
interrupted. Per-point seed substreams carry the whole burden: a
resumed point re-draws exactly what it would have drawn the first time.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import (CampaignSpec, ResultsStore, make_store,
                            resume_campaign, run_campaign)
from repro.campaign.store import RECORDS_FILE
from repro.campaign.store_sqlite import DB_FILE, SqliteResultsStore

#: Fields legitimately different between an interrupted+resumed run and
#: a clean one: which pid ran the point, how long it took, and whether
#: this run served it from the store.
VOLATILE_FIELDS = ("wall_time_s", "worker", "cached")

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _proc_stat(pid):
    """``(state, ppid)`` of a live process from ``/proc``, else None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def descendant_pids(pid):
    """Pids below ``pid`` in the process tree (empty without ``/proc``).

    Descendants, not children: forkserver workers are children of the
    forkserver, which is itself a child of the run.
    """
    if not os.path.isdir("/proc"):
        return []
    parent_of = {int(p): (_proc_stat(p) or ("", 0))[1]
                 for p in os.listdir("/proc") if p.isdigit()}
    found, frontier = [], [pid]
    while frontier:
        below = [p for p, ppid in parent_of.items() if ppid in frontier]
        found.extend(below)
        frontier = below
    return found


def exited(pid):
    """True once ``pid`` is gone or a zombie nobody has reaped yet."""
    stat = _proc_stat(pid)
    return stat is None or stat[0] == "Z"


def stable(record):
    """A record minus per-run bookkeeping (pid, timing, cache marker)."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def stable_records(result_or_records):
    records = getattr(result_or_records, "records", result_or_records)
    return [stable(r) for r in records]


def link_spec(n=8, name="resume", n_packets=4, payload_bytes=25,
              **overrides):
    fields = dict(
        name=name, kind="link",
        factors={"snr_db": [float(i) for i in range(n)]},
        fixed={"phy": "dsss-1", "channel": "awgn",
               "n_packets": n_packets, "payload_bytes": payload_bytes},
        base_seed=41,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestJsonlResume:
    def test_torn_tail_reruns_only_missing_points(self, tmp_path):
        """Truncating records.jsonl mid-line (a kill mid-append on a
        filesystem without atomic O_APPEND semantics) costs exactly the
        torn point and everything after it — nothing else re-runs, and
        the completed grid matches an undisturbed one."""
        spec = link_spec(name="torn")
        clean = run_campaign(spec, store=ResultsStore(tmp_path / "c"))
        store = ResultsStore(tmp_path / "r")
        run_campaign(spec, store=store)

        path = os.path.join(store.campaign_dir("torn"), RECORDS_FILE)
        lines = open(path, "rb").read().splitlines(keepends=True)
        assert len(lines) == 8
        with open(path, "wb") as fh:
            fh.writelines(lines[:5])
            fh.write(lines[5][: len(lines[5]) // 2])  # torn mid-record

        resumed = resume_campaign("torn", store)
        assert resumed.n_cached == 5
        assert resumed.n_executed == 3  # the torn point + the 2 lost
        assert stable_records(resumed) == stable_records(clean)
        # The store itself healed: a fresh load sees the full grid.
        assert store.count("torn") == 8

    def test_resume_event_reports_progress(self, tmp_path):
        from repro import obs

        store = ResultsStore(tmp_path)
        spec = link_spec(n=4, name="ev")
        run_campaign(spec, store=store)
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            resume_campaign("ev", store)
        events = [e for e in tracer.drain()
                  if e.get("name") == "campaign.resume"]
        assert len(events) == 1
        assert events[0]["attrs"]["n_complete"] == 4
        assert events[0]["attrs"]["n_todo"] == 0


class TestSqliteResume:
    def test_lost_wal_reruns_and_matches(self, tmp_path):
        """Crash-sim for the sqlite backend: die mid-campaign without
        closing the connection, then lose the WAL (the un-checkpointed
        commits a crashed host can drop). Resume must re-run whatever
        the store no longer holds and still finish bit-identical."""
        spec = link_spec(name="wal")
        clean = run_campaign(spec, store=ResultsStore(tmp_path / "c"))

        store = SqliteResultsStore(tmp_path / "s")
        real_append = store.append
        appended = []

        def dying_append(name, record):
            if len(appended) >= 4:
                raise RuntimeError("simulated crash mid-append")
            appended.append(record["key"])
            real_append(name, record)

        store.append = dying_append
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_campaign(spec, store=store)
        # The "host" dies: the connection is never closed (so the WAL
        # never checkpoints into the main file), and the rebooted host
        # comes back without the WAL — modelled by copying only the
        # main database file to a fresh store root.
        old_dir = os.path.join(os.fspath(tmp_path / "s"), "wal")
        new_dir = os.path.join(os.fspath(tmp_path / "s2"), "wal")
        os.makedirs(new_dir)
        for fname in (DB_FILE, "spec.json"):
            with open(os.path.join(old_dir, fname), "rb") as src, \
                    open(os.path.join(new_dir, fname), "wb") as dst:
                dst.write(src.read())

        fresh = SqliteResultsStore(tmp_path / "s2")
        resumed = resume_campaign("wal", fresh)
        assert resumed.n_cached + resumed.n_executed == 8
        assert resumed.n_executed >= 4  # at least the never-appended
        assert stable_records(resumed) == stable_records(clean)
        assert fresh.count("wal") == 8
        fresh.close()


class TestSigkillResume:
    @pytest.mark.parametrize("backend, start_method", [
        pytest.param("jsonl", None, id="jsonl"),
        pytest.param("sqlite", None, id="sqlite"),
        pytest.param("jsonl", "forkserver", id="jsonl-forkserver"),
    ])
    def test_sigkill_midrun_then_resume_bit_identical(self, tmp_path,
                                                      backend,
                                                      start_method):
        """SIGKILL a real ``repro campaign run`` subprocess once the
        store holds at least a third of the grid, then resume in-process
        against the survivors. The finished record set must match a
        never-interrupted run on every stable field."""
        spec = link_spec(n=12, name="killed", n_packets=400,
                         payload_bytes=100)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        results = tmp_path / "r"

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH",
                                                           "")
        if start_method is not None:
            env["REPRO_CAMPAIGN_START_METHOD"] = start_method
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run",
             str(spec_path), "--results", str(results),
             "--store", backend, "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            store = make_store(results, backend)
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it
                try:
                    if store.count("killed") >= 4:
                        break
                except Exception:
                    pass  # store not created yet
                time.sleep(0.02)
            store.close()
            workers = descendant_pids(proc.pid)
        finally:
            killed = proc.poll() is None
            if killed:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        # Nobody sends a SIGKILLed run's queue workers the exit
        # sentinel; they must notice the dead parent and exit on their
        # own instead of idling forever as orphans.
        if killed and os.path.isdir("/proc"):
            assert workers, "the killed run had no worker processes"
        deadline = time.monotonic() + 30.0
        while (time.monotonic() < deadline
               and not all(exited(pid) for pid in workers)):
            time.sleep(0.1)
        assert all(exited(pid) for pid in workers), "orphaned workers"

        clean = run_campaign(spec, store=ResultsStore(tmp_path / "c"))
        fresh = make_store(results, backend)
        resumed = resume_campaign("killed", fresh, workers=2)
        assert resumed.n_cached + resumed.n_executed == 12
        assert resumed.n_cached >= 1  # the kill landed after progress
        assert stable_records(resumed) == stable_records(clean)
        assert fresh.count("killed") == 12
        fresh.close()


class TestResumeTraceAppend:
    def test_resumed_run_appends_to_the_campaign_trace(self, tmp_path):
        """A traced resume extends the interrupted run's trace instead
        of replacing it: the merged trace.jsonl ends up holding both
        runs' campaign.run spans plus the resume marker event."""
        from repro import obs

        spec = link_spec(n=6, name="tracer")
        store = ResultsStore(tmp_path)
        run_campaign(spec, store=store, trace=True)

        path = os.path.join(store.campaign_dir("tracer"), RECORDS_FILE)
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.writelines(lines[:4])

        resumed = resume_campaign("tracer", store, trace=True)
        assert resumed.n_executed == 2

        events = obs.read_trace(store.trace_path("tracer"))
        runs = [e for e in events if e.get("type") == "span"
                and e.get("name") == "campaign.run"]
        assert len(runs) == 2, "resume replaced the first run's trace"
        markers = [e for e in events if e.get("name") == "campaign.resume"]
        assert len(markers) == 1
        # Both runs' point executions are in the one timeline.
        points = [e for e in events if e.get("type") == "span"
                  and e.get("name") == "campaign.execute"]
        assert len(points) == 6 + 2

    def test_stale_part_files_survive_the_resume_merge(self, tmp_path):
        """A SIGKILL can land before the parts merge: the resumed run
        must fold the orphaned part files in, not delete them."""
        from repro import obs

        spec = link_spec(n=4, name="parts")
        store = ResultsStore(tmp_path)
        run_campaign(spec, store=store, trace=True)

        # Un-merge: put the first run's events back as an orphan part,
        # as if the kill hit between the last record and the merge.
        trace_dir = store.trace_dir("parts")
        merged = store.trace_path("parts")
        os.rename(merged, os.path.join(trace_dir, "main-99999.jsonl"))

        path = os.path.join(store.campaign_dir("parts"), RECORDS_FILE)
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.writelines(lines[:3])

        resume_campaign("parts", store, trace=True)
        events = obs.read_trace(store.trace_path("parts"))
        runs = [e for e in events if e.get("type") == "span"
                and e.get("name") == "campaign.run"]
        assert len(runs) == 2
        assert not [p for p in os.listdir(trace_dir)
                    if p != "trace.jsonl"], "parts left unmerged"


class TestCliResume:
    def test_resume_command_completes_the_grid(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.cli import main

        # An ambient REPRO_STORE (the CI matrix exports one) would beat
        # store detection — these tests exercise detection itself.
        monkeypatch.delenv("REPRO_STORE", raising=False)
        spec = link_spec(n=4, name="cli")
        store = ResultsStore(tmp_path)
        run_campaign(spec, store=store)
        path = os.path.join(store.campaign_dir("cli"), RECORDS_FILE)
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as fh:
            fh.writelines(lines[:2])

        assert main(["campaign", "resume", "cli",
                     "--results", str(tmp_path)]) == 0
        assert store.count("cli") == 4
        assert "cli" in capsys.readouterr().out

    def test_resume_detects_sqlite_store_without_flag(self, tmp_path,
                                                      monkeypatch):
        """``campaign resume NAME`` with no ``--store`` lands on the
        backend that actually holds the records."""
        from repro.cli import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        spec = link_spec(n=4, name="auto")
        store = SqliteResultsStore(tmp_path)
        run_campaign(spec, store=store)
        store.close()
        assert main(["campaign", "resume", "auto",
                     "--results", str(tmp_path)]) == 0
        fresh = SqliteResultsStore(tmp_path)
        assert fresh.count("auto") == 4
        fresh.close()
