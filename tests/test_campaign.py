"""Tests for the repro.campaign sweep orchestrator."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.campaign import (CampaignSpec, ResultsStore, builtin_campaign,
                            builtin_campaigns, failure_lines, format_pivot,
                            load_spec, make_store, pivot, point_key,
                            point_kinds, run_campaign)
from repro.campaign.runner import register_point_kind
from repro.campaign.seeding import (attempt_generator, attempt_seed,
                                    point_generator, point_seed)
from repro.errors import ConfigurationError, PointExecutionError


# Module-level point functions: picklable, so they can be shipped to
# pool workers under any multiprocessing start method.

def _double_point(params, rng):
    return {"double": 2 * params["x"]}


def _chaos_point(params, rng):
    """Raise on odd x, hang on the designated x, else draw from rng."""
    x = int(params["x"])
    if x % 2:
        raise ValueError(f"odd point x={x}")
    if x == int(params.get("hang_at", -1)):
        time.sleep(30.0)
    return {"draw": float(rng.integers(0, 1 << 30))}


def _flaky_counted_point(params, rng):
    """Fail the first ``fail_first`` calls per point, counted on disk."""
    path = os.path.join(params["counter_dir"], f"{params['x']}.count")
    n = int(open(path).read()) if os.path.exists(path) else 0
    with open(path, "w") as fh:
        fh.write(str(n + 1))
    if n < int(params.get("fail_first", 0)):
        raise RuntimeError(f"transient failure #{n}")
    return {"draw": float(rng.integers(0, 1 << 30))}


def _late_emitter_point(params, rng):
    """x == 0 overruns its timeout, then emits telemetry after the fact."""
    if params["x"] == 0:
        time.sleep(0.4)
        obs.counter("late.marker")
        with obs.span("late.span"):
            pass
        return {"late": 1}
    time.sleep(0.05)
    return {"late": 0}


def _late_counter_point(params, rng):
    """x == 0 overruns a 0.3 s budget and counts ~0.15 s later, while
    x == 2 runs (each later point takes 0.1 s)."""
    if params["x"] == 0:
        time.sleep(0.45)
        obs.counter("late.marker")
        return {"late": 1}
    time.sleep(0.1)
    return {"late": 0}


def _append_stress_worker(root, backend, name, worker_id, n_records,
                          pad_bytes):
    """Append ``n_records`` oversized records from one child process.

    The pad pushes every line far past any stdio buffer, so a store
    whose append isn't a single atomic write interleaves torn lines
    under this load.
    """
    from repro.campaign.store import make_store as _make_store
    store = _make_store(root, backend)
    pad = f"w{worker_id}-" + "x" * pad_bytes
    for i in range(n_records):
        store.append(name, {
            "key": f"w{worker_id:02d}-r{i:03d}",
            "index": worker_id * n_records + i,
            "outcome": "ok",
            "metrics": {"i": i, "pad": pad},
        })
    store.close()


register_point_kind("test-double", _double_point, code_version="1")
register_point_kind("test-chaos", _chaos_point, code_version="1")
register_point_kind("test-flaky", _flaky_counted_point, code_version="1")
register_point_kind("test-late", _late_emitter_point, code_version="1")
register_point_kind("test-late-counter", _late_counter_point,
                    code_version="1")


def quick_spec(**overrides):
    """A four-point link campaign small enough for unit tests."""
    fields = dict(
        name="tiny", kind="link",
        factors={"phy": ["dsss-1", "dsss-2"], "snr_db": [0.0, 8.0]},
        fixed={"channel": "awgn", "n_packets": 3, "payload_bytes": 20},
        base_seed=3,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestSpec:
    def test_expansion_order_and_params(self):
        points = quick_spec().expand()
        assert [p.index for p in points] == [0, 1, 2, 3]
        # Last factor varies fastest.
        assert [(p.params["phy"], p.params["snr_db"]) for p in points] == [
            ("dsss-1", 0.0), ("dsss-1", 8.0),
            ("dsss-2", 0.0), ("dsss-2", 8.0),
        ]
        assert all(p.params["channel"] == "awgn" for p in points)
        assert quick_spec().n_points == 4

    def test_rejects_factor_fixed_overlap(self):
        with pytest.raises(ConfigurationError):
            quick_spec(fixed={"phy": "cck-11"})

    def test_rejects_empty_factor(self):
        with pytest.raises(ConfigurationError):
            quick_spec(factors={"phy": []})

    def test_rejects_scalar_factor_value(self):
        with pytest.raises(ConfigurationError):
            quick_spec(factors={"phy": "dsss-1"})

    def test_rejects_unsafe_name(self):
        with pytest.raises(ConfigurationError):
            quick_spec(name="../escape")

    def test_rejects_non_scalar_values(self):
        with pytest.raises(ConfigurationError):
            quick_spec(factors={"phy": [["nested"]]})

    def test_json_roundtrip(self, tmp_path):
        spec = quick_spec()
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = CampaignSpec.from_json(path)
        assert loaded == spec
        assert load_spec(str(path)) == spec

    def test_load_spec_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            load_spec("no-such-campaign")

    def test_builtins_expand(self):
        names = set(builtin_campaigns())
        assert {"e3-dsss-cck", "e4-ofdm", "e6-mimo-range"} <= names
        for name in names:
            spec = builtin_campaign(name)
            assert spec.n_points == len(spec.expand())
            assert spec.kind in point_kinds()

    def test_unknown_builtin(self):
        with pytest.raises(ConfigurationError):
            builtin_campaign("e99-nope")


class TestSeeding:
    def test_point_seed_is_stateless_and_order_free(self):
        a = [point_seed(7, i).generate_state(4).tolist() for i in (3, 0, 2)]
        b = [point_seed(7, i).generate_state(4).tolist() for i in (3, 0, 2)]
        assert a == b
        assert a[0] != a[1] != a[2]

    def test_matches_seedsequence_spawn(self):
        spawned = np.random.SeedSequence(7).spawn(4)
        for i, child in enumerate(spawned):
            assert (point_seed(7, i).generate_state(4).tolist()
                    == child.generate_state(4).tolist())

    def test_point_generator_reproducible(self):
        x = point_generator(1, 2).integers(0, 1 << 30, 8)
        y = point_generator(1, 2).integers(0, 1 << 30, 8)
        assert (x == y).all()


class TestCacheKey:
    def test_stable_under_dict_order(self):
        k1 = point_key("link", "1", 0, 2, {"a": 1, "b": 2.5})
        k2 = point_key("link", "1", 0, 2, {"b": 2.5, "a": 1})
        assert k1 == k2

    @pytest.mark.parametrize("change", [
        {"kind": "dcf"}, {"code_version": "2"}, {"base_seed": 1},
        {"index": 3}, {"params": {"a": 2, "b": 2.5}},
    ])
    def test_sensitive_to_every_field(self, change):
        base = dict(kind="link", code_version="1", base_seed=0, index=2,
                    params={"a": 1, "b": 2.5})
        changed = dict(base)
        changed.update(change)
        assert point_key(**base) != point_key(**changed)


class TestRunner:
    def test_serial_run_produces_ordered_ok_records(self):
        result = run_campaign(quick_spec())
        assert result.n_points == 4
        assert result.n_executed == 4
        assert result.n_cached == 0
        assert [r["index"] for r in result.records] == [0, 1, 2, 3]
        assert all(r["outcome"] == "ok" for r in result.records)
        assert all(0.0 <= r["metrics"]["per"] <= 1.0 for r in result.records)

    def test_parallel_bit_identical_to_serial(self, tmp_path):
        spec = quick_spec()
        serial = run_campaign(spec, workers=1,
                              store=ResultsStore(tmp_path / "s1"))
        parallel = run_campaign(spec, workers=2,
                                store=ResultsStore(tmp_path / "s2"))
        assert serial.metrics_by_index() == parallel.metrics_by_index()
        # and the parallel run really left this process
        assert os.getpid() not in {r["worker"] for r in parallel.records}

    def test_rerun_is_all_cache_hits(self, tmp_path):
        spec = quick_spec()
        store = ResultsStore(tmp_path)
        first = run_campaign(spec, store=store)
        second = run_campaign(spec, store=store)
        assert second.n_executed == 0
        assert second.n_cached == first.n_points
        assert second.cache_hit_rate == 1.0
        assert all(r["cached"] for r in second.records)
        assert second.metrics_by_index() == first.metrics_by_index()

    def test_seed_change_invalidates_cache(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_campaign(quick_spec(), store=store)
        reseeded = run_campaign(quick_spec(base_seed=99), store=store)
        assert reseeded.n_executed == 4

    def test_force_recomputes(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_campaign(quick_spec(), store=store)
        forced = run_campaign(quick_spec(), store=store, force=True)
        assert forced.n_executed == 4
        # Store stays clean: still one record per key after the rewrite.
        assert len(store.load("tiny")) == 4

    def test_grid_growth_reuses_common_prefix_only(self, tmp_path):
        store = ResultsStore(tmp_path)
        run_campaign(quick_spec(), store=store)
        # Appending a value to the *last* factor renumbers indices 2..,
        # so only the first phy's points survive the cache.
        grown = run_campaign(
            quick_spec(factors={"phy": ["dsss-1", "dsss-2"],
                                "snr_db": [0.0, 8.0, 16.0]}),
            store=store)
        assert grown.n_cached == 2
        assert grown.n_executed == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(quick_spec(kind="quantum"))

    def test_point_failure_is_recorded_not_raised(self, tmp_path):
        spec = CampaignSpec(
            name="mixed", kind="link",
            factors={"phy": ["dsss-1", "warp-9"]},
            fixed={"channel": "awgn", "snr_db": 5.0,
                   "n_packets": 2, "payload_bytes": 10},
        )
        result = run_campaign(spec, store=ResultsStore(tmp_path))
        outcomes = {r["params"]["phy"]: r["outcome"] for r in result.records}
        assert outcomes == {"dsss-1": "ok", "warp-9": "error"}
        # Failures are not served from cache: the bad point retries.
        again = run_campaign(spec, store=ResultsStore(tmp_path))
        assert again.n_executed == 1

    def test_kernels_param_is_ignored_and_keeps_its_key(self):
        """Old specs may carry ``kernels``: it loads, keys, and is not read.

        A spec asking for numba runs ``ok`` under the key such a spec
        has always had.
        """
        spec = quick_spec(
            factors={"phy": ["ofdm-6"]},
            fixed={"channel": "awgn", "snr_db": 8.0, "n_packets": 3,
                   "payload_bytes": 20, "kernels": "numba"})
        record, = run_campaign(spec).records
        assert record["outcome"] == "ok"
        assert record["key"] == "0081c51dbf678b29"

    def test_custom_point_kind(self):
        register_point_kind(
            "echo", lambda params, rng: {"double": 2 * params["x"]},
            code_version="1")
        spec = CampaignSpec(name="echo-test", kind="echo",
                            factors={"x": [1, 2, 3]})
        result = run_campaign(spec)
        assert [r["metrics"]["double"] for r in result.records] == [2, 4, 6]

    def test_mimo_range_and_dcf_kinds_run(self):
        mimo = run_campaign(CampaignSpec(
            name="mimo-mini", kind="mimo-range",
            factors={"antennas": ["1x1", "2x2"]},
            fixed={"n_draws": 200, "outage": 0.05}))
        margins = [r["metrics"]["margin_db"] for r in mimo.records]
        assert margins[0] > margins[1]  # diversity shrinks the margin
        dcf = run_campaign(CampaignSpec(
            name="dcf-mini", kind="dcf",
            factors={"n_stations": [2]},
            fixed={"duration": 0.02}))
        assert dcf.records[0]["metrics"]["throughput_mbps"] > 0


class TestStore:
    def test_append_load_roundtrip_dedupes(self, tmp_path):
        store = ResultsStore(tmp_path)
        rec = {"key": "k1", "index": 0, "outcome": "ok",
               "metrics": {"per": 0.5}, "cached": False}
        store.append("c", rec)
        store.append("c", {**rec, "metrics": {"per": 0.25}})
        loaded = store.load("c")
        assert len(loaded) == 1
        assert loaded[0]["metrics"]["per"] == 0.25  # last write wins
        assert "cached" not in loaded[0]

    def test_surface_kind_registered(self):
        """The surrogate builder's record kind ships with the runner."""
        assert "surface-link" in point_kinds()

    def test_roundtrip_nested_ci_arrays_and_nonfinite(self, tmp_path):
        """Surface records carry nested CI arrays; non-finite entries
        must round-trip as None, not corrupt the JSONL store."""
        store = ResultsStore(tmp_path)
        rec = {
            "key": "surf0", "index": 0, "outcome": "ok",
            "kind": "surface-link",
            "metrics": {
                "per": 0.25,
                "per_ci": [[0.1, 0.4], [0.0, float("nan")]],
                "tails": {"ber_ci_high": float("inf"),
                          "n_trials": 80,
                          "nested": [{"lo": float("-inf"), "hi": 1.0}]},
            },
        }
        store.append("surf", rec)
        loaded = store.load("surf")[0]
        assert loaded["metrics"]["per"] == 0.25
        assert loaded["metrics"]["per_ci"] == [[0.1, 0.4], [0.0, None]]
        assert loaded["metrics"]["tails"]["ber_ci_high"] is None
        assert loaded["metrics"]["tails"]["n_trials"] == 80
        assert loaded["metrics"]["tails"]["nested"] == [
            {"lo": None, "hi": 1.0}]
        # The file itself must stay strict JSON, line by line.
        with open(store._records_path("surf")) as fh:
            for line in fh:
                json.loads(line)

    def test_torn_tail_line_ignored(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append("c", {"key": "k1", "index": 0, "outcome": "ok"})
        with open(store._records_path("c"), "a") as fh:
            fh.write('{"key": "k2", "trunc')
        assert len(store.load("c")) == 1

    def test_campaigns_listing(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.campaigns() == []
        run_campaign(quick_spec(), store=store)
        assert store.campaigns() == [("tiny", 4)]
        assert store.load_spec("tiny") == quick_spec()

    def test_missing_spec_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultsStore(tmp_path).load_spec("ghost")

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_unchanged_spec_is_not_rewritten(self, tmp_path, backend):
        store = make_store(tmp_path, backend)
        try:
            store.write_spec(quick_spec())
            path = os.path.join(store.campaign_dir("tiny"), "spec.json")
            # Backdate the file: any rewrite would stamp the present.
            past = 1_000_000_000 * 10**9
            os.utime(path, ns=(past, past))
            before = os.stat(path)
            store.write_spec(quick_spec())
            after = os.stat(path)
            assert after.st_ino == before.st_ino
            assert after.st_mtime_ns == before.st_mtime_ns == past

            widened = quick_spec(factors={"phy": ["dsss-1", "dsss-2"],
                                          "snr_db": [0.0, 8.0, 16.0]})
            store.write_spec(widened)
            assert os.stat(path).st_mtime_ns != past
            assert store.load_spec("tiny") == widened
        finally:
            store.close()


class TestReport:
    def records(self):
        return run_campaign(quick_spec()).records

    def test_pivot_values(self):
        rows, cols, grid = pivot(self.records(), "per", "snr_db", "phy")
        assert rows == [0.0, 8.0]
        assert cols == ["dsss-1", "dsss-2"]
        assert all(v is not None for row in grid for v in row)

    def test_pivot_without_columns(self):
        rows, cols, grid = pivot(self.records(), "per", "phy")
        assert rows == ["dsss-1", "dsss-2"]
        assert len(grid[0]) == 1

    def test_format_pivot_lines(self):
        lines = format_pivot(self.records(), "per", "snr_db", "phy",
                             title="t")
        assert lines[0] == "t"
        assert "dsss-1" in lines[1]
        assert len(lines) == 4  # title + header + 2 rows

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            pivot(self.records(), "per", "nonsense")

    def test_link_records_carry_error_bars(self):
        """Every mc-backed metric ships its CI and trial count."""
        for record in self.records():
            metrics = record["metrics"]
            assert (metrics["per_ci_low"] <= metrics["per"]
                    <= metrics["per_ci_high"])
            assert (metrics["ber_ci_low"] <= metrics["ber"]
                    <= metrics["ber_ci_high"])
            assert metrics["n_trials"] == metrics["n_packets"] == 3
            assert metrics["stop_reason"] == "budget"
            assert metrics["confidence"] == 0.95

    def test_format_pivot_renders_ci_cells(self):
        lines = format_pivot(self.records(), "per", "snr_db", "phy")
        # Cells look like "0.3333 [0.0177, 0.7914]".
        assert "[" in lines[-1] and "]" in lines[-1]
        plain = format_pivot(self.records(), "per", "snr_db", "phy",
                             ci=False)
        assert "[" not in plain[-1]

    def test_adaptive_campaign_points(self):
        result = run_campaign(quick_spec(
            fixed={"channel": "awgn", "n_packets": 3, "payload_bytes": 20,
                   "precision": 0.5, "max_trials": 200},
        ))
        for record in result.records:
            metrics = record["metrics"]
            assert metrics["stop_reason"] in ("precision", "max_trials")
            assert metrics["n_trials"] <= 200

    def test_summary_counts_mc_trials(self):
        from repro.campaign.report import summary_lines
        lines = summary_lines(self.records(), name="tiny")
        assert any("MC trials" in line and "budget" in line
                   for line in lines)


class TestCampaignCli:
    def run_cli(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_run_ls_show_report(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps({
            **quick_spec().to_dict(),
            "meta": {"report": {"value": "per", "rows": "snr_db",
                                "cols": "phy"}},
        }))
        results = str(tmp_path / "results")
        assert self.run_cli("campaign", "run", str(spec_path),
                            "--results", results, "--report") == 0
        out = capsys.readouterr().out
        assert "4 points" in out and "4 executed" in out
        assert "snr_db \\ phy" in out

        assert self.run_cli("campaign", "run", str(spec_path),
                            "--results", results) == 0
        assert "4 cached (100%) | 0 executed" in capsys.readouterr().out

        assert self.run_cli("campaign", "ls", "--results", results) == 0
        assert "tiny" in capsys.readouterr().out

        assert self.run_cli("campaign", "show", "tiny",
                            "--results", results) == 0
        out = capsys.readouterr().out
        assert "kind=link" in out and "factor phy" in out

        assert self.run_cli("campaign", "report", "tiny",
                            "--results", results) == 0
        assert "dsss-2" in capsys.readouterr().out

    def test_ls_empty_store_suggests_builtins(self, tmp_path, capsys):
        assert self.run_cli("campaign", "ls",
                            "--results", str(tmp_path / "none")) == 0
        assert "e3-dsss-cck" in capsys.readouterr().out

    def test_report_without_defaults_errors(self, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(quick_spec().to_dict()))
        results = str(tmp_path / "results")
        assert self.run_cli("campaign", "run", str(spec_path),
                            "--results", results) == 0
        capsys.readouterr()
        assert self.run_cli("campaign", "report", "tiny",
                            "--results", results) == 2
        assert "--value" in capsys.readouterr().out


class TestFailureSpec:
    def test_retry_timeout_json_roundtrip(self, tmp_path):
        spec = quick_spec(retries=2, timeout_s=1.5)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = CampaignSpec.from_json(path)
        assert loaded == spec
        assert loaded.retries == 2
        assert loaded.timeout_s == 1.5

    def test_old_specs_load_with_defaults(self, tmp_path):
        data = quick_spec().to_dict()
        del data["retries"], data["timeout_s"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        loaded = CampaignSpec.from_json(path)
        assert loaded.retries == 0
        assert loaded.timeout_s is None

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "2"])
    def test_rejects_bad_retries(self, bad):
        with pytest.raises(ConfigurationError):
            quick_spec(retries=bad)

    @pytest.mark.parametrize("bad", [0, -3.0, float("nan"),
                                     float("inf"), True, "1"])
    def test_rejects_bad_timeout(self, bad):
        with pytest.raises(ConfigurationError):
            quick_spec(timeout_s=bad)

    def test_rejects_non_finite_params(self):
        with pytest.raises(ConfigurationError):
            quick_spec(fixed={"channel": "awgn", "bad": float("nan")})
        with pytest.raises(ConfigurationError):
            quick_spec(factors={"snr_db": [0.0, float("inf")]})


class TestRetrySeeding:
    def test_attempt_zero_is_the_point_stream(self):
        for index in (0, 3):
            assert (attempt_seed(7, index, 0).generate_state(4).tolist()
                    == point_seed(7, index).generate_state(4).tolist())

    def test_attempts_are_distinct_and_stateless(self):
        states = [attempt_seed(7, 2, k).generate_state(4).tolist()
                  for k in (0, 1, 2)]
        assert states[0] != states[1] != states[2] != states[0]
        again = [attempt_seed(7, 2, k).generate_state(4).tolist()
                 for k in (0, 1, 2)]
        assert states == again

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError):
            attempt_seed(7, 2, -1)


class TestFaultIsolation:
    def chaos_spec(self, **overrides):
        fields = dict(name="chaos", kind="test-chaos",
                      factors={"x": [0, 1, 2, 3]}, base_seed=5)
        fields.update(overrides)
        return CampaignSpec(**fields)

    def test_unexpected_exception_recorded_not_raised(self):
        result = run_campaign(self.chaos_spec())
        assert result.n_points == 4
        assert all(r is not None for r in result.records)
        by_x = {r["params"]["x"]: r for r in result.records}
        assert by_x[0]["outcome"] == "ok"
        assert by_x[1]["outcome"] == "error"
        assert by_x[1]["error_type"] == "ValueError"
        assert "odd point x=1" in by_x[1]["error"]
        assert "ValueError" in by_x[1]["traceback"]
        assert by_x[1]["attempts"] == 1
        assert by_x[1]["metrics"] == {}

    def test_pool_survives_failing_points(self, tmp_path):
        spec = self.chaos_spec()
        result = run_campaign(spec, workers=2, store=ResultsStore(tmp_path))
        assert result.n_points == 4
        outcomes = [r["outcome"] for r in result.records]
        assert outcomes == ["ok", "error", "ok", "error"]
        # Failure records round-trip through the store with traceback.
        stored = {r["index"]: r for r in ResultsStore(tmp_path).load("chaos")}
        assert "ValueError" in stored[1]["traceback"]

    def test_retry_exhaustion_counts_attempts(self):
        result = run_campaign(self.chaos_spec(retries=2))
        failed = {r["params"]["x"]: r for r in result.records
                  if r["outcome"] == "error"}
        assert all(r["attempts"] == 3 for r in failed.values())

    def test_retry_rng_is_deterministic(self, tmp_path):
        spec = CampaignSpec(
            name="flaky", kind="test-flaky",
            factors={"x": [0, 1]},
            fixed={"counter_dir": str(tmp_path), "fail_first": 1},
            base_seed=9, retries=1,
        )
        result = run_campaign(spec)
        for record in result.records:
            assert record["outcome"] == "ok"
            assert record["attempts"] == 2
            # Attempt 1 drew from SeedSequence(base, spawn_key=(i, 1)).
            expected = float(attempt_generator(9, record["index"], 1)
                             .integers(0, 1 << 30))
            assert record["metrics"]["draw"] == expected

    def test_first_try_success_bit_identical_to_no_retries(self, tmp_path):
        base = run_campaign(self.chaos_spec())
        retried = run_campaign(self.chaos_spec(retries=3))
        for a, b in zip(base.records, retried.records):
            if a["outcome"] == "ok":
                assert a["metrics"] == b["metrics"]

    def test_timeout_marks_point_and_moves_on(self):
        spec = self.chaos_spec(factors={"x": [0, 2, 4]},
                               fixed={"hang_at": 4}, timeout_s=0.3)
        start = time.perf_counter()
        result = run_campaign(spec)
        assert time.perf_counter() - start < 10.0
        by_x = {r["params"]["x"]: r for r in result.records}
        assert by_x[0]["outcome"] == "ok"
        assert by_x[2]["outcome"] == "ok"
        assert by_x[4]["outcome"] == "timeout"
        assert by_x[4]["error_type"] == "TimeoutError"
        assert by_x[4]["attempts"] == 1  # timeouts are not retried

    def test_acceptance_scenario_pool_retry_timeout_rerun(self, tmp_path):
        """ValueError on half the points + one hang, at --workers 4."""
        spec = CampaignSpec(
            name="accept", kind="test-chaos",
            factors={"x": [0, 1, 2, 3, 4, 5]},
            fixed={"hang_at": 4}, base_seed=21, timeout_s=0.5,
        )
        store = ResultsStore(tmp_path)
        result = run_campaign(spec, workers=4, store=store)
        assert result.n_points == 6
        by_x = {r["params"]["x"]: r for r in result.records}
        assert {x: r["outcome"] for x, r in by_x.items()} == {
            0: "ok", 1: "error", 2: "ok", 3: "error", 4: "timeout",
            5: "error"}
        for x in (1, 3, 5):
            assert "ValueError" in by_x[x]["traceback"]
            assert by_x[x]["attempts"] == 1
        # Successful points are bit-identical to the plain per-point
        # stream a serial pre-change run used.
        for x in (0, 2):
            expected = float(point_generator(21, by_x[x]["index"])
                             .integers(0, 1 << 30))
            assert by_x[x]["metrics"]["draw"] == expected
        # A re-run recomputes exactly the failed points.
        again = run_campaign(spec, workers=4, store=store)
        assert again.n_cached == 2
        assert again.n_executed == 4
        assert again.n_failed == 4

    def test_check_raises_point_execution_error(self):
        result = run_campaign(self.chaos_spec())
        with pytest.raises(PointExecutionError) as err:
            result.check()
        assert err.value.index == 1
        assert err.value.params["x"] == 1
        assert err.value.attempts == 1
        assert err.value.outcome == "error"
        ok = run_campaign(CampaignSpec(name="fine", kind="test-double",
                                       factors={"x": [1]}))
        assert ok.check() is ok

    def test_run_campaign_overrides_spec_budgets(self, tmp_path):
        spec = CampaignSpec(
            name="flaky2", kind="test-flaky",
            factors={"x": [0]},
            fixed={"counter_dir": str(tmp_path), "fail_first": 1},
            base_seed=9,
        )
        assert run_campaign(spec).n_failed == 1
        for f in os.listdir(tmp_path):
            os.unlink(os.path.join(tmp_path, f))
        assert run_campaign(spec, retries=1).n_failed == 0


class TestSpawnStartMethod:
    def test_custom_kind_survives_spawn_workers(self):
        spec = CampaignSpec(name="spawn-test", kind="test-double",
                            factors={"x": [1, 2]})
        result = run_campaign(spec, workers=2, start_method="spawn")
        assert [r["outcome"] for r in result.records] == ["ok", "ok"]
        assert [r["metrics"]["double"] for r in result.records] == [2, 4]
        assert os.getpid() not in {r["worker"] for r in result.records}


class TestStoreHardening:
    @pytest.mark.parametrize("bad", ["../evil", "a/b", "..", ".hidden",
                                     "", "a b"])
    def test_rejects_unsafe_campaign_names(self, tmp_path, bad):
        store = ResultsStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.campaign_dir(bad)
        with pytest.raises(ConfigurationError):
            store.load(bad)

    def test_keyless_and_torn_lines_skipped(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append("c", {"key": "k1", "index": 0, "outcome": "ok"})
        with open(store._records_path("c"), "a") as fh:
            fh.write(json.dumps({"index": 5, "outcome": "ok"}) + "\n")
            fh.write(json.dumps({"key": "", "index": 6}) + "\n")
            fh.write('{"key": "k2", "trunc')
        loaded = store.load("c")
        assert len(loaded) == 1
        assert loaded[0]["key"] == "k1"

    def test_numpy_scalars_sanitized(self, tmp_path):
        """Regression: ``np.float32("nan")`` is not a ``float`` subclass,
        so the old finiteness check waved it through to
        ``json.dumps(allow_nan=False)``, which raised and dropped the
        record. Numpy leaves must normalize before the check."""
        store = ResultsStore(tmp_path)
        store.append("c", {"key": "k1", "index": 0, "outcome": "ok",
                           "metrics": {"nan32": np.float32("nan"),
                                       "inf32": np.float32("inf"),
                                       "n": np.int64(7),
                                       "flag": np.bool_(True),
                                       "f64": np.float64(0.25),
                                       "arr": np.array([1.0, np.nan])}})
        metrics = store.load("c")[0]["metrics"]
        assert metrics["nan32"] is None
        assert metrics["inf32"] is None
        assert metrics["n"] == 7
        assert metrics["flag"] is True
        assert metrics["f64"] == 0.25
        assert metrics["arr"] == [1.0, None]
        # And the persisted line is plain, strict JSON.
        with open(store._records_path("c")) as fh:
            json.loads(fh.read())

    def test_non_finite_metrics_stored_as_null(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append("c", {"key": "k1", "index": 0, "outcome": "ok",
                           "metrics": {"nan": float("nan"),
                                       "inf": float("inf"),
                                       "fine": 1.5,
                                       "nested": [float("-inf"), 2.0]}})
        with open(store._records_path("c")) as fh:
            text = fh.read()
        assert "NaN" not in text and "Infinity" not in text
        metrics = store.load("c")[0]["metrics"]
        assert metrics["nan"] is None
        assert metrics["inf"] is None
        assert metrics["fine"] == 1.5
        assert metrics["nested"] == [None, 2.0]


class TestConcurrentAppend:
    """Multi-process append stress: no torn lines, no lost records."""

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_parallel_appends_never_tear(self, tmp_path, backend):
        n_workers, n_records, pad_bytes = 4, 20, 64_000
        context = multiprocessing.get_context(
            os.environ.get("REPRO_CAMPAIGN_START_METHOD") or None)
        procs = [
            context.Process(
                target=_append_stress_worker,
                args=(str(tmp_path), backend, "stress", w, n_records,
                      pad_bytes))
            for w in range(n_workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = make_store(str(tmp_path), backend)
        try:
            records = store.load("stress")
            assert len(records) == n_workers * n_records
            assert len({r["key"] for r in records}) == n_workers * n_records
            assert all(len(r["metrics"]["pad"]) > pad_bytes
                       for r in records)
            if backend == "jsonl":
                # Every non-empty raw line must be complete JSON — a
                # buffered text handle tears 64KB lines under exactly
                # this load. Blank lines are permitted: the appender's
                # torn-tail healing can emit one when a concurrent
                # writer's size update races its last-byte probe, and
                # the reader skips them by design.
                with open(store._records_path("stress")) as fh:
                    payload_lines = [line for line in fh if line.strip()]
                for line in payload_lines:
                    json.loads(line)
                assert len(payload_lines) == n_workers * n_records
        finally:
            store.close()


class TestAbandonedTimeoutThread:
    def test_overrunning_point_cannot_emit_late_telemetry(self, tmp_path):
        """Regression: a timed-out point's thread keeps running after the
        runner gives up on it. Its late counters/spans used to land in
        the ambient tracer mid-run — phantom events attributed to
        whatever point was current by then."""
        from repro.obs import read_trace
        spec = CampaignSpec(
            name="late", kind="test-late",
            factors={"x": list(range(13))}, base_seed=11,
            timeout_s=0.15,
        )
        store = ResultsStore(tmp_path)
        result = run_campaign(spec, store=store, trace=True)
        by_x = {r["params"]["x"]: r for r in result.records}
        assert by_x[0]["outcome"] == "timeout"
        assert all(by_x[x]["outcome"] == "ok" for x in range(1, 13))
        # The straggler emitted ~0.25s after its deadline, while later
        # points were still tracing — none of it may reach the trace.
        events = read_trace(store.trace_path("late"))
        assert not [e for e in events if e["name"] == "late.span"]
        counters = result.extras["trace"]["counters"]
        assert "late.marker" not in counters

    def test_late_counter_stays_out_of_status_json(self, tmp_path):
        """The metrics registry behind status.json drops the straggler's
        counter too, not only the tracer."""
        from repro.obs import live
        spec = CampaignSpec(name="late-status", kind="test-late-counter",
                            factors={"x": list(range(5))}, base_seed=3,
                            timeout_s=0.3)
        store = ResultsStore(tmp_path)
        result = run_campaign(spec, workers=1, store=store)
        by_x = {r["params"]["x"]: r for r in result.records}
        assert by_x[0]["outcome"] == "timeout"
        assert all(by_x[x]["outcome"] == "ok" for x in range(1, 5))
        doc = live.read_status(store.status_path("late-status"))
        assert doc["points"]["done"] == 5
        assert "late.marker" not in doc["metrics"]["counters"]

    def test_finished_straggler_leaves_no_abandoned_ident(self):
        """The suppression ends with the straggler: once an abandoned
        thread returns, its ident may be reused by any later thread."""
        import threading
        from repro.campaign.runner import _PointTimeout, _call_point
        from repro.obs import ABANDONED_THREADS

        def slow(params, rng):
            time.sleep(0.2)
            return {}

        before = set(ABANDONED_THREADS)  # live stragglers of other tests
        with pytest.raises(_PointTimeout):
            _call_point(slow, {}, None, 0.05)
        (ident,) = ABANDONED_THREADS - before
        straggler = next(t for t in threading.enumerate()
                         if t.ident == ident)
        straggler.join(5.0)
        assert not straggler.is_alive()
        assert ident not in ABANDONED_THREADS

    def test_revived_ident_counts_again(self):
        """Abandoning drops both stores; reviving the (reused) ident
        restores both."""
        import threading
        from repro.obs import metrics
        ident = threading.get_ident()
        registry = metrics.MetricsRegistry()
        with obs.use_tracer(obs.Tracer()) as tracer, \
                metrics.use_registry(registry):
            obs.abandon_thread(ident)
            try:
                obs.counter("c")
                registry.observe("h", 1.0)
            finally:
                obs.revive_thread(ident)
            assert "c" not in registry.snapshot()["counters"]
            assert "c" not in tracer.summary()["counters"]
            assert registry.histogram("h") is None
            obs.counter("c")
            registry.observe("h", 1.0)
        assert registry.snapshot()["counters"]["c"] == 1
        assert tracer.summary()["counters"]["c"] == 1
        assert registry.histogram("h").n == 1


class TestFailureReporting:
    def test_pivot_excludes_booleans(self):
        records = [
            {"outcome": "ok", "params": {"x": 1},
             "metrics": {"flag": True, "v": 2.0}},
            {"outcome": "ok", "params": {"x": 2},
             "metrics": {"flag": False, "v": 4.0}},
        ]
        _, _, grid = pivot(records, "flag", "x")
        assert grid == [[None], [None]]
        _, _, grid = pivot(records, "v", "x")
        assert grid == [[2.0], [4.0]]

    def test_failure_lines_table(self):
        result = run_campaign(CampaignSpec(
            name="chaos", kind="test-chaos", factors={"x": [0, 1]},
            base_seed=5))
        lines = failure_lines(result.records)
        text = "\n".join(lines)
        assert "1 failed point(s)" in lines[0]
        assert "ValueError" in text
        assert "x=1" in text
        assert "attempt(s)" in text
        assert failure_lines([r for r in result.records
                              if r["outcome"] == "ok"]) == []


class TestFailureCli:
    def run_cli(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def failing_spec_path(self, tmp_path, meta=None):
        path = tmp_path / "chaos.json"
        spec = CampaignSpec(name="chaos", kind="test-chaos",
                            factors={"x": [0, 1]}, base_seed=5,
                            meta=meta or {})
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_run_exits_nonzero_and_prints_failures(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        assert self.run_cli("campaign", "run",
                            self.failing_spec_path(tmp_path),
                            "--results", results) == 1
        out = capsys.readouterr().out
        assert "1 failed point(s)" in out
        assert "ValueError" in out

    def test_show_failures_flag(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        self.run_cli("campaign", "run", self.failing_spec_path(tmp_path),
                     "--results", results)
        capsys.readouterr()
        assert self.run_cli("campaign", "show", "chaos", "--failures",
                            "--results", results) == 0
        out = capsys.readouterr().out
        assert "1 error" in out and "ValueError" in out

    def test_report_with_all_points_failed(self, tmp_path, capsys):
        spec_path = tmp_path / "allbad.json"
        spec = CampaignSpec(
            name="allbad", kind="test-chaos", factors={"x": [1, 3]},
            base_seed=5,
            meta={"report": {"value": "draw", "rows": "x"}})
        spec_path.write_text(json.dumps(spec.to_dict()))
        results = str(tmp_path / "results")
        assert self.run_cli("campaign", "run", str(spec_path),
                            "--results", results, "--report") == 1
        out = capsys.readouterr().out
        assert "no report:" in out
        assert "2 failed point(s)" in out

    def test_run_retry_flag_recovers_flaky_point(self, tmp_path, capsys):
        counter_dir = tmp_path / "counts"
        counter_dir.mkdir()
        spec_path = tmp_path / "flaky.json"
        spec = CampaignSpec(
            name="flaky", kind="test-flaky", factors={"x": [0]},
            fixed={"counter_dir": str(counter_dir), "fail_first": 1},
            base_seed=9)
        spec_path.write_text(json.dumps(spec.to_dict()))
        results = str(tmp_path / "results")
        assert self.run_cli("campaign", "run", str(spec_path),
                            "--results", results, "--retries", "1") == 0
        assert "1 executed" in capsys.readouterr().out


class TestTrace:
    """run_campaign(trace=True): per-point spans, merge, cached re-runs."""

    def _point_spans(self, events):
        return [e for e in events if e["type"] == "span"
                and e["name"] == "campaign.point"]

    def test_traced_run_has_span_per_point(self, tmp_path):
        from repro.obs import read_trace
        spec = quick_spec()
        store = ResultsStore(tmp_path)
        result = run_campaign(spec, store=store, trace=True)
        trace_path = store.trace_path("tiny")
        assert trace_path is not None
        assert result.extras["trace_path"] == trace_path
        points = self._point_spans(read_trace(trace_path))
        assert len(points) == spec.n_points
        assert all(not p["attrs"]["cached"] for p in points)
        summary = result.extras["trace"]
        assert summary["counters"]["campaign.cache.miss"] == spec.n_points

    def test_traced_parallel_run_merges_worker_parts(self, tmp_path):
        # The spawn CI matrix runs this file under every start method,
        # so this also proves spawn workers' part files reach the merge.
        from repro.obs import read_trace
        spec = quick_spec()
        store = ResultsStore(tmp_path)
        result = run_campaign(spec, workers=2, store=store, trace=True)
        events = read_trace(store.trace_path("tiny"))
        assert len(self._point_spans(events)) == spec.n_points
        execs = [e for e in events if e["type"] == "span"
                 and e["name"] == "campaign.execute"]
        assert len(execs) == spec.n_points
        # Worker-side spans carry the pool pids, not the parent's.
        worker_pids = {r["worker"] for r in result.records}
        assert os.getpid() not in worker_pids
        assert worker_pids <= {e["pid"] for e in events}
        # Part files were consumed; only the merged trace remains.
        assert os.listdir(store.trace_dir("tiny")) == ["trace.jsonl"]

    def test_cached_rerun_still_emits_point_spans(self, tmp_path):
        from repro.obs import read_trace
        spec = quick_spec()
        store = ResultsStore(tmp_path)
        run_campaign(spec, store=store)
        rerun = run_campaign(spec, store=store, trace=True)
        # Cache hits cost no compute and say so explicitly.
        assert all(r["wall_time_s"] == 0.0 for r in rerun.records)
        points = self._point_spans(read_trace(store.trace_path("tiny")))
        assert len(points) == spec.n_points
        assert all(p["attrs"]["cached"] for p in points)
        hits = rerun.extras["trace"]["counters"]["campaign.cache.hit"]
        assert hits == spec.n_points

    def test_report_counts_trials_of_every_engine(self, tmp_path):
        # An OFDM link point runs as a one-column grid and a link-grid
        # point as a whole row; both engines' trials reach mc_trials.
        from repro.obs import read_trace, trace_report_lines
        specs = [
            CampaignSpec(name="ofdm-link", kind="link", base_seed=4,
                         factors={"snr_db": [6.0]},
                         fixed={"phy": "ofdm-6", "channel": "awgn",
                                "n_packets": 5, "payload_bytes": 20}),
            CampaignSpec(name="ofdm-grid", kind="link-grid", base_seed=4,
                         factors={"phy": ["ofdm-12"]},
                         fixed={"snrs": [4.0, 9.0], "n_packets": 4,
                                "payload_bytes": 20}),
        ]
        store = ResultsStore(tmp_path)
        for spec in specs:
            result = run_campaign(spec, store=store, trace=True)
            (record,) = result.records
            lines = trace_report_lines(
                read_trace(store.trace_path(spec.name)))
            head = lines.index("per-point timing:")
            (row,) = [line.split() for line in lines[head + 2:]
                      if line.split()[:1] == ["0"]]
            assert int(row[5]) == record["metrics"]["n_trials"] > 0

    def test_untraced_run_leaves_no_trace(self, tmp_path):
        store = ResultsStore(tmp_path)
        result = run_campaign(quick_spec(), store=store)
        assert store.trace_path("tiny") is None
        assert "trace" not in result.extras
