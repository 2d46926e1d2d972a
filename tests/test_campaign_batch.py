"""Inline campaigns hand a kind's uncached points to its batch form.

``surface-link`` registers one over ``snr_db``: an inline surface build
runs each row of uncached cells (one rate, one payload, every SNR) in
one batch call, each cell on its own attempt-0 generator, and records
exactly what per-point execution (the queue path) records. A failing
row falls back to per-point execution; a spec with a timeout never
batches.
"""

import dataclasses
import types

import numpy as np
import pytest

from repro import obs
from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.campaign import runner
from repro.surrogate import builder

PHYS = ["ofdm-6", "ofdm-54"]
SNRS = [10.0, 20.0]
BUILD = dict(snr_db=SNRS, payload_bytes=[200], n_packets=2, base_seed=5)


@pytest.fixture
def batch_calls(monkeypatch):
    """Point counts of every ``surface-link`` batch call."""
    calls = []
    batch, over = runner._BATCH_FORMS["surface-link"]

    def counting(params_list, rngs):
        calls.append(len(params_list))
        return batch(params_list, rngs)

    monkeypatch.setitem(runner._BATCH_FORMS, "surface-link",
                        (counting, over))
    return calls


def _by_index(records):
    return {r["index"]: r for r in records}


def _spec(**overrides):
    spec = builder.surface_spec("cells", PHYS, SNRS, payload_bytes=[200],
                                n_packets=2, base_seed=5)
    return dataclasses.replace(spec, **overrides)


class TestInlineBatch:
    def test_only_uncached_cells_run_in_one_batch(self, tmp_path,
                                                  batch_calls):
        store = ResultsStore(tmp_path / "inline")
        # The ofdm-6 row first: its cells keep their grid indices when
        # the phy axis grows, so the wider build finds them cached.
        builder.build_surface("s", PHYS[:1], store=store, **BUILD)
        assert batch_calls == [2]
        surface = builder.build_surface("s", PHYS, store=store, **BUILD)
        assert batch_calls == [2, 2]
        assert (surface.meta["n_cached"], surface.meta["n_executed"]) \
            == (2, 2)

        queue = builder.build_surface("s", PHYS, workers=2,
                                      store=ResultsStore(tmp_path / "q"),
                                      **BUILD)
        assert batch_calls == [2, 2]  # queue workers run point by point
        inline = _by_index(store.iter_records("s"))
        queued = _by_index(ResultsStore(tmp_path / "q").iter_records("s"))
        assert sorted(inline) == sorted(queued) == [0, 1, 2, 3]
        for index, record in inline.items():
            assert record["metrics"] == queued[index]["metrics"]
            assert record["key"] == queued[index]["key"]
            assert record.get("batched") is True
            assert "batched" not in queued[index]
        for field in ("per", "per_ci_low", "per_ci_high", "n_trials"):
            assert np.array_equal(getattr(surface, field),
                                  getattr(queue, field))

    def test_one_batch_per_row(self, batch_calls):
        result = run_campaign(_spec())
        assert batch_calls == [2, 2]  # one per rate
        # Each cell's wall time is an even share of its row's batch.
        for row in (result.records[:2], result.records[2:]):
            walls = {r["wall_time_s"] for r in row}
            assert len(walls) == 1 and walls.pop() > 0.0

    def test_each_rows_records_are_stored_as_it_returns(self, tmp_path,
                                                        monkeypatch):
        store = ResultsStore(tmp_path)
        batch, over = runner._BATCH_FORMS["surface-link"]
        stored = []

        def watching(params_list, rngs):
            stored.append(len(list(store.iter_records("cells"))))
            return batch(params_list, rngs)

        monkeypatch.setitem(runner._BATCH_FORMS, "surface-link",
                            (watching, over))
        run_campaign(_spec(), store=store)
        assert stored == [0, 2]

    def test_rows_split_on_every_param_but_the_batch_axis(self):
        def point(index, **params):
            return (f"k{index}", types.SimpleNamespace(index=index,
                                                      params=params))

        todo = [point(0, phy="a", payload_bytes=100, snr_db=1.0),
                point(1, phy="a", payload_bytes=200, snr_db=1.0),
                point(2, phy="a", payload_bytes=100, snr_db=2.0),
                point(3, phy="b", payload_bytes=100, snr_db=1.0)]
        rows = runner._batch_rows(todo, "snr_db")
        assert [[key for key, _ in row] for row in rows] \
            == [["k0", "k2"], ["k1"], ["k3"]]

    def test_timeout_spec_runs_point_by_point(self, batch_calls):
        result = run_campaign(_spec(timeout_s=60.0))
        assert batch_calls == []
        assert not any(r.get("batched") for r in result.records)
        batched = run_campaign(_spec())
        assert [r["metrics"] for r in result.records] \
            == [r["metrics"] for r in batched.records]


class TestBatchFailure:
    def test_failing_batch_matches_per_point_errors(self, monkeypatch):
        spec = CampaignSpec(
            name="bad-cell", kind="surface-link",
            factors={"phy": ["ofdm-6", "ofdm-7"], "payload_bytes": [100],
                     "snr_db": [10.0, 20.0]},
            fixed={"channel": "awgn", "n_packets": 2}, retries=1)
        batched = run_campaign(spec)
        monkeypatch.delitem(runner._BATCH_FORMS, "surface-link")
        single = run_campaign(spec)
        assert [r["outcome"] for r in batched.records] \
            == ["ok", "ok", "error", "error"]
        keys = ("outcome", "error", "error_type", "traceback", "attempts",
                "metrics", "key")
        for a, b in zip(batched.records, single.records):
            assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
        # The ofdm-6 row ran batched; the failing ofdm-7 row fell back
        # to per-point execution and was retried as usual.
        assert [r.get("batched") for r in batched.records] \
            == [True, True, None, None]
        assert [r["attempts"] for r in batched.records[2:]] == [2, 2]

    def test_batch_with_a_short_result_falls_back(self, monkeypatch):
        monkeypatch.setitem(runner._BATCH_FORMS, "surface-link",
                            (lambda params_list, rngs: [], "snr_db"))
        result = run_campaign(_spec())
        reference = run_campaign(_spec(timeout_s=60.0))
        assert [r["metrics"] for r in result.records] \
            == [r["metrics"] for r in reference.records]


def _report_rows(lines):
    """``{index: (wall_column, mc_trials)}`` from the per-point table."""
    start = lines.index("per-point timing:") + 2
    rows = {}
    for line in lines[start:]:
        fields = line.split()
        if not fields or not fields[0].isdigit():
            break
        rows[int(fields[0])] = (fields[4], fields[5])
    return rows


class TestTraceReport:
    def test_batched_cells_report_their_trials(self, tmp_path):
        store = ResultsStore(tmp_path)
        result = run_campaign(_spec(), store=store, trace=True)
        events = obs.read_trace(result.extras["trace_path"])
        rows = _report_rows(obs.trace_report_lines(events))
        assert sorted(rows) == [0, 1, 2, 3]
        for index, (wall, trials) in rows.items():
            assert int(trials) == 2
            # A share of its row's batch, start-up included: marked as
            # batched, never as its worker's first point.
            assert wall.endswith("~")
        lines = obs.trace_report_lines(events)
        assert any(line.lstrip().startswith("~ batched point")
                   for line in lines)
        assert not any(line.lstrip().startswith("* first point")
                       for line in lines)

    def test_first_point_of_each_worker_is_marked(self, tmp_path):
        spec = CampaignSpec(
            name="firsts", kind="link",
            factors={"phy": ["ofdm-6"], "snr_db": [10.0, 20.0, 30.0]},
            fixed={"n_packets": 1, "payload_bytes": 20})
        result = run_campaign(spec, store=ResultsStore(tmp_path),
                              trace=True)
        lines = obs.trace_report_lines(
            obs.read_trace(result.extras["trace_path"]))
        marks = [wall.endswith("*")
                 for _, (wall, _) in sorted(_report_rows(lines).items())]
        assert marks == [True, False, False]
        assert any(line.lstrip().startswith("* first point") for line in
                   lines)

    def test_marker_is_per_worker_and_skips_cached_points(self):
        def point(index, worker, t_wall, cached=False):
            return {"type": "span", "name": "campaign.point", "pid": 1,
                    "seq": index, "span_id": index, "parent_id": None,
                    "t_wall": t_wall, "dur_s": 0.1,
                    "attrs": {"index": index, "outcome": "ok",
                              "attempts": 1, "cached": cached,
                              "exec_s": 0.0 if cached else 0.1,
                              "worker": worker}}

        events = [point(0, 7, 1.0, cached=True), point(1, 7, 3.0),
                  point(2, 8, 2.0), point(3, 7, 2.5), point(4, 8, 4.0)]
        rows = _report_rows(obs.trace_report_lines(events))
        marked = sorted(i for i, (wall, _) in rows.items()
                        if wall.endswith("*"))
        assert marked == [2, 3]
