"""Cross-point grids and the analytic fast path.

The contract under test, end to end: fixed-budget results are
bit-identical across a grid vs its cells run as one-cell grids, batch
shapes, per-rate vs multi-rate grid calls, and worker counts — and
``stop_reason="analytic"`` records flow through engine, link, store,
report and CLI without losing their meaning.
"""

import numpy as np
import pytest

from repro.campaign import make_store, summary_lines
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core import link
from repro.core.link import LinkSimulator, run_link_grid
from repro.core.mc import analytic_result, run_grid_trials, run_trials
from repro.errors import ConfigurationError
from repro.phy import convolutional as cc
from repro.phy.ofdm import OfdmPhy

SNRS = [4.0, 10.0]
PHYS = ["ofdm-6", "ofdm-24"]


def _counts(results):
    return [(r.n_packets, r.n_packet_errors, r.n_bit_errors)
            for r in results]


def _cell_by_cell(phys, snrs, **kwargs):
    """``run_link_grid`` run one cell at a time, each with the same seed."""
    phys = [phys] if isinstance(phys, str) else phys
    return [[run_link_grid(phy, [snr], **kwargs)[0][0] for snr in snrs]
            for phy in phys]


class TestRunGridTrials:
    def _events(self):
        events = np.zeros((3, 30), dtype=bool)
        events[0, :3] = True
        events[1, 5:20] = True
        return events

    def _grid_fn(self, events):
        def fn(lo, hi, points):
            return {"per": np.array([events[int(i), lo:hi].sum()
                                     for i in points]),
                    "bits": np.array([(hi - lo) * 4 for _ in points])}
        return fn

    def test_budget_counts(self):
        rs = run_grid_trials(self._grid_fn(self._events()), 30, 3,
                             target="per", batch_size=7)
        assert [r.n_events for r in rs] == [3, 15, 0]
        assert all(r.n_trials == 30 for r in rs)
        assert all(r.stop_reason == "budget" for r in rs)
        assert all(r.totals["bits"] == 120 for r in rs)

    def test_batch_size_invariance(self):
        fn = self._grid_fn(self._events())
        a = run_grid_trials(fn, 30, 3, target="per", batch_size=1)
        b = run_grid_trials(fn, 30, 3, target="per", batch_size=30)
        assert [(r.n_events, r.n_trials, r.estimate) for r in a] == \
               [(r.n_events, r.n_trials, r.estimate) for r in b]

    def test_analytic_points_skipped(self):
        calls = []
        fn = self._grid_fn(self._events())

        def spy(lo, hi, points):
            calls.append(list(points))
            return fn(lo, hi, points)

        rs = run_grid_trials(spy, 30, 3, target="per", batch_size=30,
                             analytic={1: 1e-8})
        assert all(1 not in pts for pts in calls)
        assert rs[1].stop_reason == "analytic"
        assert rs[1].n_trials == 0
        assert rs[1].estimate == 1e-8
        assert rs[0].stop_reason == "budget"

    def test_all_analytic_runs_nothing(self):
        def boom(lo, hi, points):
            raise AssertionError("no MC should run")

        rs = run_grid_trials(boom, 10, 2, target="per",
                             analytic={0: 0.0, 1: 1e-9})
        assert [r.stop_reason for r in rs] == ["analytic", "analytic"]

    def test_validation(self):
        fn = self._grid_fn(self._events())
        with pytest.raises(ConfigurationError, match="n_points"):
            run_grid_trials(fn, 10, 0, target="per")
        with pytest.raises(ConfigurationError, match="n_trials"):
            run_grid_trials(fn, 0, 2, target="per")
        with pytest.raises(ConfigurationError, match="analytic point"):
            run_grid_trials(fn, 10, 2, target="per", analytic={5: 0.1})
        with pytest.raises(ConfigurationError, match="target metric"):
            run_grid_trials(lambda lo, hi, p: {"other": np.zeros(len(p))},
                            10, 2, target="per")
        with pytest.raises(ConfigurationError, match="one value per"):
            run_grid_trials(lambda lo, hi, p: {"per": np.zeros(len(p) + 1)},
                            10, 2, target="per")

    def test_analytic_result_validation(self):
        r = analytic_result(1e-7, target="packet_error")
        assert r.stop_reason == "analytic"
        assert r.n_trials == 0 and r.n_events == 0
        assert r.ci() == (0.0, 1e-7)
        with pytest.raises(ConfigurationError):
            analytic_result(1.5, target="packet_error")
        with pytest.raises(ConfigurationError):
            analytic_result(-0.1, target="packet_error")


class TestRunGridTrialsAdaptive:
    """Per-column precision stops, each where a lone point would."""

    @staticmethod
    def _bernoulli(p, seed, n=400):
        return np.random.default_rng(seed).random(n) < p

    @staticmethod
    def _grid_fn(columns, calls=None):
        def fn(lo, hi, points):
            if calls is not None:
                calls.append((lo, hi, [int(i) for i in points]))
            return {"err": np.array([columns[int(i)][lo:hi].sum()
                                     for i in points])}
        return fn

    @staticmethod
    def _summary(r):
        return (r.n_trials, r.n_events, r.stop_reason, r.ci(), r.precision)

    @pytest.mark.parametrize("n_trials, precision, max_trials, batch, stop", [
        (None, 0.3, 400, 16, "precision"),
        (None, 0.01, 70, 30, "max_trials"),    # 30 + 30 + 10
        (None, 0.6, 45, 7, "precision"),
        (23, None, None, 10, "budget"),
    ])
    def test_one_column_matches_run_trials(self, n_trials, precision,
                                           max_trials, batch, stop):
        events = self._bernoulli(0.3, seed=5)
        done = [0]

        def trial(rng, m):
            k = events[done[0]:done[0] + m].sum()
            done[0] += m
            return {"err": k}

        ref = run_trials(trial, n_trials, target="err", precision=precision,
                         max_trials=max_trials, batch_size=batch)
        (grid,) = run_grid_trials(self._grid_fn([events]), n_trials, 1,
                                  target="err", batch_size=batch,
                                  precision=precision, max_trials=max_trials)
        assert self._summary(grid) == self._summary(ref)
        assert grid.stop_reason == stop

    def test_columns_stop_independently(self):
        columns = [self._bernoulli(0.9, seed=1), self._bernoulli(0.2, seed=2),
                   np.zeros(400, dtype=bool), None]
        calls = []
        rs = run_grid_trials(self._grid_fn(columns, calls), None, 4,
                             target="err", batch_size=20, precision=0.25,
                             max_trials=400, analytic={3: 1e-9})
        assert [r.stop_reason for r in rs] == \
            ["precision", "precision", "max_trials", "analytic"]
        assert rs[0].n_trials < rs[1].n_trials < rs[2].n_trials == 400
        assert all(r.precision == 0.25 for r in rs[:3])
        for i, r in enumerate(rs[:3]):
            # A column is in exactly the batches before its stop ...
            assert sum(hi - lo for lo, hi, pts in calls if i in pts) == \
                r.n_trials
            # ... and stops where it would on its own.
            (alone,) = run_grid_trials(self._grid_fn([columns[i]]), None, 1,
                                       target="err", batch_size=20,
                                       precision=0.25, max_trials=400)
            assert self._summary(alone) == self._summary(r)
        assert all(3 not in pts for _, _, pts in calls)

    def test_adaptive_validation(self):
        fn = self._grid_fn([self._bernoulli(0.5, seed=3)])
        for kwargs, match in [
                (dict(precision=0.0), "precision"),
                (dict(precision=-0.1), "precision"),
                (dict(precision=float("nan")), "precision"),
                (dict(precision=0.1, max_trials=0), "max_trials"),
                (dict(precision=None), "n_trials")]:
            with pytest.raises(ConfigurationError, match=match):
                run_grid_trials(fn, None, 1, target="err", **kwargs)


class TestCrossPointIdentity:
    def test_awgn_multi_phy(self):
        a = run_link_grid(PHYS, SNRS, n_packets=6, payload_bytes=40, rng=7)
        b = _cell_by_cell(PHYS, SNRS, n_packets=6, payload_bytes=40, rng=7)
        assert _counts(sum(a, [])) == _counts(sum(b, []))

    def test_rayleigh(self):
        a = run_link_grid("ofdm-12", [8.0, 20.0], n_packets=6,
                          payload_bytes=30, channel="rayleigh", rng=5)
        b = _cell_by_cell("ofdm-12", [8.0, 20.0], n_packets=6,
                          payload_bytes=30, channel="rayleigh", rng=5)
        assert _counts(a[0]) == _counts(b[0])

    def test_batch_size_invariance(self):
        a = run_link_grid("ofdm-24", SNRS, n_packets=7, payload_bytes=30,
                          rng=3, batch_size=2)
        b = run_link_grid("ofdm-24", SNRS, n_packets=7, payload_bytes=30,
                          rng=3, batch_size=50)
        assert _counts(a[0]) == _counts(b[0])

    def test_simulator_method_matches_function(self):
        sim = LinkSimulator("ofdm-24", "awgn", rng=9)
        via_method = sim.run_grid(SNRS, n_packets=5, payload_bytes=30)
        via_fn = run_link_grid("ofdm-24", SNRS, n_packets=5,
                               payload_bytes=30, rng=9)[0]
        assert _counts(via_method) == _counts(via_fn)

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
    def test_per_rate_calls_match_one_grid(self, channel):
        """Noise draws are prefix-consistent: a grid called one rate at a
        time (sized for that rate's samples) sees the same draws as one
        multi-rate grid sized for its longest PHY."""
        kwargs = dict(n_packets=6, payload_bytes=30, channel=channel, rng=42)
        whole = run_link_grid(PHYS, SNRS, **kwargs)
        per_rate = [run_link_grid(p, SNRS, **kwargs)[0] for p in PHYS]
        assert _counts(sum(whole, [])) == _counts(sum(per_rate, []))

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError, match="OFDM"):
            run_link_grid("dsss-1", SNRS, n_packets=2, payload_bytes=20,
                          rng=0)
        with pytest.raises(ConfigurationError, match="channel"):
            run_link_grid("ofdm-6", SNRS, n_packets=2, payload_bytes=20,
                          channel="tgn-B", rng=0)
        with pytest.raises(ConfigurationError, match="at least one"):
            run_link_grid([], SNRS, rng=0)
        with pytest.raises(ConfigurationError, match="analytic_floor"):
            run_link_grid("ofdm-6", SNRS, n_packets=2, payload_bytes=20,
                          analytic_floor=2.0, rng=0)


@pytest.fixture
def decode_calls(monkeypatch):
    """Record the rows of every OFDM receive and Viterbi decode call."""
    calls = {"receive": [], "viterbi": []}
    receive_batch = OfdmPhy.receive_batch
    viterbi_decode = cc.viterbi_decode

    def counting_receive(self, samples, noise_vars):
        calls["receive"].append(len(samples))
        return receive_batch(self, samples, noise_vars)

    def counting_viterbi(soft_bits, *args, **kwargs):
        calls["viterbi"].append(len(soft_bits))
        return viterbi_decode(soft_bits, *args, **kwargs)

    monkeypatch.setattr(OfdmPhy, "receive_batch", counting_receive)
    monkeypatch.setattr(cc, "viterbi_decode", counting_viterbi)
    return calls


class TestStackedReceive:
    """A rate's SNR columns share one receive call, within the row budget."""

    def test_one_receive_call_per_rate(self, decode_calls):
        run_link_grid("ofdm-6", [24.0, 26.0, 28.0, 30.0], n_packets=5,
                      payload_bytes=40, rng=7, batch_size=5)
        assert decode_calls["receive"] == [4 * 5]
        assert decode_calls["viterbi"] == [4 * 5, 4 * 5]  # SIGNAL, data

    def test_budget_split_matches_per_point(self, decode_calls, monkeypatch):
        kwargs = dict(n_packets=6, payload_bytes=30, rng=11)
        snrs = [6.0, 9.0, 12.0]
        whole = run_link_grid("ofdm-24", snrs, **kwargs)
        assert decode_calls["receive"] == [18]
        # A budget of two 6-row columns splits the three columns 2 + 1.
        phy = OfdmPhy(24)
        steps = phy.n_symbols(30) * phy.rate.n_dbps
        monkeypatch.setattr(link, "GRID_ROW_STEPS", 2 * 6 * steps + 1)
        decode_calls["receive"].clear()
        split = run_link_grid("ofdm-24", snrs, **kwargs)
        assert decode_calls["receive"] == [12, 6]
        per_point = _cell_by_cell("ofdm-24", snrs, **kwargs)
        assert _counts(split[0]) == _counts(whole[0]) == _counts(per_point[0])


class TestAnalyticFastPath:
    def test_grid_flags_high_snr_points(self):
        rows = run_link_grid("ofdm-6", [4.0, 28.0], n_packets=5,
                             payload_bytes=40, rng=7,
                             analytic_floor=1e-6)
        for r in rows[0]:
            assert r.analytic
            assert r.mc.stop_reason == "analytic"
            assert r.n_packets == 0
            assert 0.0 <= r.per <= 1e-6
            lo, hi = r.per_ci()
            assert (lo, hi) == (0.0, r.per)
            assert r.extras["analytic"]["method"] == "union-bound"
            assert r.goodput_mbps == pytest.approx(
                r.rate_mbps * (1.0 - r.per))

    def test_low_floor_keeps_mc(self):
        rows = run_link_grid("ofdm-54", [2.0], n_packets=4,
                             payload_bytes=40, rng=7,
                             analytic_floor=1e-12)
        r = rows[0][0]
        assert not r.analytic
        assert r.n_packets == 4

    def test_run_short_circuit(self):
        sim = LinkSimulator("ofdm-6", rng=3)
        r = sim.run(28.0, n_packets=10, payload_bytes=40,
                    analytic_floor=1e-6)
        assert r.analytic and r.mc.n_trials == 0
        assert r.ber == r.extras["analytic"]["ber"]

    def test_run_floor_not_met_falls_through(self):
        sim = LinkSimulator("ofdm-6", rng=3)
        r = sim.run(-2.0, n_packets=4, payload_bytes=40,
                    analytic_floor=1e-6)
        assert not r.analytic
        assert r.mc.n_trials == 4

    def test_non_ofdm_has_no_bounds(self):
        assert LinkSimulator("dsss-1", rng=0).analytic_bounds(30.0) is None
        assert LinkSimulator("ofdm-6", "rayleigh",
                             rng=0).analytic_bounds(30.0) is None

    def test_waterfall_passthrough(self):
        sim = LinkSimulator("ofdm-6", rng=3)
        results = sim.waterfall([28.0, 30.0], n_packets=4,
                                payload_bytes=40, analytic_floor=1e-6)
        assert all(r.analytic for r in results)

    def test_identity_holds_with_floor(self):
        kwargs = dict(n_packets=5, payload_bytes=40, rng=7,
                      analytic_floor=1e-9)
        a = run_link_grid(PHYS, [2.0, 28.0], **kwargs)
        b = _cell_by_cell(PHYS, [2.0, 28.0], **kwargs)
        for ra, rb in zip(sum(a, []), sum(b, [])):
            assert ra.mc.stop_reason == rb.mc.stop_reason
            assert (ra.n_packets, ra.n_packet_errors, ra.n_bit_errors) == \
                   (rb.n_packets, rb.n_packet_errors, rb.n_bit_errors)


def _grid_spec(name, floor=None):
    fixed = {"snrs": [4.0, 28.0], "n_packets": 4, "payload_bytes": 30,
             "draw_seed": 99}
    if floor is not None:
        fixed["analytic_floor"] = floor
    return CampaignSpec(name=name, kind="link-grid", base_seed=11,
                        factors={"phy": ["ofdm-6", "ofdm-24"]},
                        fixed=fixed)


class TestLinkGridCampaign:
    def test_draw_seed_queue_matches_inline(self):
        queued = run_campaign(_grid_spec("q1"), workers=2)
        inline = run_campaign(_grid_spec("q2"), workers=1)
        assert "queue" in queued.extras and "queue" not in inline.extras
        assert [r["metrics"] for r in queued.records] == \
            [r["metrics"] for r in inline.records]

    def test_report_folds_stop_reasons(self):
        result = run_campaign(_grid_spec("q3", floor=1e-6),
                              workers=1)
        lines = "\n".join(summary_lines(result.records, name="q3"))
        assert "analytic" in lines


class TestAnalyticStoreRoundTrip:
    def _link_spec(self, name):
        return CampaignSpec(
            name=name, kind="link", base_seed=5,
            factors={"snr_db": [-2.0, 28.0]},
            fixed={"phy": "ofdm-6", "n_packets": 4, "payload_bytes": 30,
                   "analytic_floor": 1e-6})

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_round_trip(self, tmp_path, backend):
        store = make_store(str(tmp_path / "results"), backend)
        try:
            run_campaign(self._link_spec(f"an-{backend}"), store=store)
            records = list(store.iter_records(f"an-{backend}"))
        finally:
            store.close()
        assert len(records) == 2
        by_snr = {r["params"]["snr_db"]: r for r in records}
        low, high = by_snr[-2.0], by_snr[28.0]
        assert high["metrics"]["stop_reason"] == "analytic"
        assert high["metrics"]["n_trials"] == 0
        assert high["metrics"]["per_ci_low"] == 0.0
        assert low["metrics"]["stop_reason"] == "budget"
        assert low["metrics"]["n_trials"] == 4
        # Summary folds the analytic point into the reasons line and
        # the trial count sum counts only real packets.
        text = "\n".join(summary_lines(records, name="x"))
        assert "analytic" in text and "budget" in text

    def test_cli_show_and_report(self, tmp_path, capsys):
        from repro.cli import main

        results = str(tmp_path / "results")
        store = make_store(results, "jsonl")
        try:
            run_campaign(self._link_spec("an-cli"), store=store)
        finally:
            store.close()
        assert main(["campaign", "show", "an-cli",
                     "--results", results]) == 0
        out = capsys.readouterr().out
        assert "analytic" in out
        assert main(["campaign", "report", "an-cli", "--results", results,
                     "--value", "per", "--rows", "snr_db"]) == 0
        assert "per" in capsys.readouterr().out
