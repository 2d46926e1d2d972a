"""Tests for repro.surrogate: surfaces, builder, AbstractLink, validate."""

import numpy as np
import pytest

from repro.campaign import ResultsStore
from repro.core.link import LinkSimulator
from repro.errors import ConfigurationError
from repro.mesh.coverage import coverage_result
from repro.surrogate import (AbstractLink, PerSurface, WaveformLink,
                             build_surface, list_surfaces, load_surface,
                             require_valid, surface_spec, validate_surface)

# The validation grid of the acceptance criteria: 3 rates x 4 SNRs over
# cheap DSSS/CCK waveforms, one payload, fixed seeds throughout.
GRID_PHYS = ["dsss-1", "dsss-2", "cck-5.5"]
GRID_SNRS = [-2.0, 1.0, 4.0, 8.0]
GRID_PAYLOAD = 25


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultsStore(tmp_path_factory.mktemp("surfaces"))


@pytest.fixture(scope="module")
def surface(store):
    return build_surface("equiv-grid", GRID_PHYS, snr_db=GRID_SNRS,
                         payload_bytes=[GRID_PAYLOAD], n_packets=80,
                         base_seed=5, store=store)


def toy_surface(per_rows, snrs=(0.0, 10.0), payloads=(100,),
                phys=("dsss-1",), rates=(1.0,)):
    """Hand-built surface with prescribed PER values (no MC)."""
    per = np.asarray(per_rows, dtype=float).reshape(
        len(phys), len(payloads), len(snrs))
    return PerSurface(
        name="toy", channel="awgn", phys=list(phys),
        rate_mbps=np.asarray(rates, dtype=float),
        snr_db=np.asarray(snrs, dtype=float),
        payload_bytes=np.asarray(payloads),
        per=per,
        per_ci_low=np.clip(per - 0.05, 0.0, 1.0),
        per_ci_high=np.clip(per + 0.05, 0.0, 1.0),
        ber=per / 100.0,
        n_trials=np.full(per.shape, 100.0),
    )


class TestPerSurface:
    def test_rejects_unsorted_axis(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            toy_surface([[0.5, 0.1]], snrs=(10.0, 0.0))

    def test_rejects_shape_mismatch(self):
        good = toy_surface([[0.5, 0.1]])
        with pytest.raises(ConfigurationError, match="shape"):
            PerSurface(
                name="bad", channel="awgn", phys=good.phys,
                rate_mbps=good.rate_mbps, snr_db=good.snr_db,
                payload_bytes=good.payload_bytes,
                per=np.zeros((1, 1, 3)),  # 3 SNR columns vs 2-point axis
                per_ci_low=np.zeros((1, 1, 3)),
                per_ci_high=np.zeros((1, 1, 3)),
                ber=np.zeros((1, 1, 3)),
                n_trials=np.zeros((1, 1, 3)),
            )

    def test_rejects_duplicate_phys(self):
        with pytest.raises(ConfigurationError, match="unique"):
            toy_surface([[0.5, 0.1], [0.5, 0.1]],
                        phys=("dsss-1", "dsss-1"), rates=(1.0, 1.0))

    def test_rejects_per_outside_unit_interval(self):
        with pytest.raises(ConfigurationError, match="lie in"):
            toy_surface([[1.5, 0.1]])

    def test_exact_grid_points_returned_verbatim(self):
        s = toy_surface([[0.37, 0.0041]])
        assert s.per_at("dsss-1", 0.0) == 0.37
        assert s.per_at("dsss-1", 10.0) == 0.0041

    def test_log_domain_midpoint(self):
        """Halfway between PER 1e-1 and 1e-3 in log10 is exactly 1e-2."""
        s = toy_surface([[0.1, 0.001]])
        assert s.per_at("dsss-1", 5.0) == pytest.approx(0.01, rel=1e-9)

    def test_clamp_policy_pins_to_edges(self):
        s = toy_surface([[0.5, 0.01]])
        assert s.per_at("dsss-1", -100.0) == 0.5
        assert s.per_at("dsss-1", +100.0) == 0.01

    def test_error_policy_raises_out_of_grid(self):
        s = toy_surface([[0.5, 0.01]])
        with pytest.raises(ConfigurationError, match="outside the surface"):
            s.per_at("dsss-1", 10.5, out_of_grid="error")
        # In-grid queries still answer under the strict policy.
        assert s.per_at("dsss-1", 10.0, out_of_grid="error") == 0.01

    def test_bad_policy_rejected(self):
        s = toy_surface([[0.5, 0.01]])
        with pytest.raises(ConfigurationError, match="out_of_grid"):
            s.per_at("dsss-1", 5.0, out_of_grid="extrapolate")

    def test_single_point_axes_are_constant(self):
        s = toy_surface([[0.2]], snrs=(5.0,), payloads=(100,))
        for q in (-10.0, 5.0, 40.0):
            assert s.per_at("dsss-1", q) == 0.2

    def test_zero_cells_interpolate_to_zero(self):
        s = toy_surface([[0.0, 0.0]])
        assert s.per_at("dsss-1", 5.0) == 0.0
        assert s.per_at("dsss-1", 0.0) == 0.0

    def test_zero_boundary_decays_toward_zero_cell(self):
        s = toy_surface([[0.1, 0.0]])
        mid = s.per_at("dsss-1", 5.0)
        assert 0.0 < mid < 0.1  # log-floor pull, not a cliff
        assert s.per_at("dsss-1", 10.0) == 0.0  # exact hit stays exact

    def test_array_queries_broadcast(self):
        s = toy_surface([[0.1, 0.001]])
        out = s.per_at("dsss-1", np.array([0.0, 5.0, 10.0]))
        assert out.shape == (3,)
        assert out[0] == 0.1 and out[2] == 0.001

    def test_unknown_phy_and_rate_rejected(self):
        s = toy_surface([[0.1, 0.001]])
        with pytest.raises(ConfigurationError, match="no phy"):
            s.per_at("ofdm-54", 5.0)
        with pytest.raises(ConfigurationError, match="no phy at"):
            s.per_for_rate(54.0, 5.0)
        assert s.per_for_rate(1.0, 0.0) == 0.1

    def test_rate_index_matches_isclose(self):
        rates = [6.0, 6.0 + 5e-7, 9.0, np.inf, -np.inf, np.nan, 1e9,
                 1e9 + 0.5, 0.0]
        s = toy_surface(np.zeros((len(rates), 2)),
                        phys=[f"p{i}" for i in range(len(rates))],
                        rates=rates)
        queries = rates + [6.0000009, 6.0000021, 8.999999, 1e9 + 1.5,
                           1e9 + 2.5, -1e-6, 5e-7, np.float64(9.0)]
        for q in queries:
            match = np.nonzero(np.isclose(s.rate_mbps, float(q),
                                          rtol=1e-9, atol=1e-6))[0]
            if match.size:
                assert s.rate_index(q) == match[0], q
            else:
                with pytest.raises(ConfigurationError, match="no phy at"):
                    s.rate_index(q)

    def test_cell_lookup_requires_grid_point(self):
        s = toy_surface([[0.1, 0.001]])
        assert s.cell("dsss-1", 10.0, 100)["per"] == 0.001
        with pytest.raises(ConfigurationError, match="not a grid point"):
            s.cell("dsss-1", 5.0, 100)

    def test_save_load_roundtrip(self, tmp_path, surface):
        surface.save(tmp_path)
        back = PerSurface.load(tmp_path)
        assert back.phys == surface.phys
        np.testing.assert_array_equal(back.per, surface.per)
        np.testing.assert_array_equal(back.per_ci_high,
                                      surface.per_ci_high)
        np.testing.assert_array_equal(back.n_trials, surface.n_trials)
        assert back.meta["base_seed"] == surface.meta["base_seed"]

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no PER surface"):
            PerSurface.load(tmp_path / "ghost")


class TestBuilder:
    def test_surface_persisted_and_listed(self, store, surface):
        assert "equiv-grid" in list_surfaces(store)
        back = load_surface(store, "equiv-grid")
        np.testing.assert_array_equal(back.per, surface.per)

    def test_rebuild_is_all_cache_hits(self, store, surface):
        again = build_surface("equiv-grid", GRID_PHYS, snr_db=GRID_SNRS,
                              payload_bytes=[GRID_PAYLOAD], n_packets=80,
                              base_seed=5, store=store)
        assert again.meta["n_executed"] == 0
        assert again.meta["n_cached"] == surface.n_cells
        np.testing.assert_array_equal(again.per, surface.per)

    def test_cells_match_direct_link_runs(self, surface):
        """A surface cell is one campaign link point: same seed policy,
        same Wilson CI fields, PER consistent with a plain run."""
        assert surface.shape == (3, 1, 4)
        assert surface.total_trials == 3 * 4 * 80
        cell = surface.cell("dsss-2", GRID_SNRS[0], GRID_PAYLOAD)
        assert 0.0 <= cell["ci_low"] <= cell["per"] <= cell["ci_high"] <= 1.0
        assert cell["n_trials"] == 80

    def test_rejects_empty_and_duplicate_inputs(self):
        with pytest.raises(ConfigurationError):
            build_surface("bad", [], snr_db=[0.0])
        with pytest.raises(ConfigurationError, match="unique"):
            build_surface("bad", ["dsss-1", "dsss-1"], snr_db=[0.0])
        with pytest.raises(ConfigurationError):
            build_surface("bad", ["dsss-1"], snr_db=[])

    def test_fractional_budgets_rejected_at_spec_time(self):
        for kwargs in ({"n_packets": 2.5},
                       {"precision": 0.1, "max_trials": 150.7}):
            with pytest.raises(ConfigurationError, match="whole number"):
                surface_spec("bad", ["dsss-1"], snr_db=[0.0], **kwargs)
        whole = surface_spec("ok", ["dsss-1"], snr_db=[0.0], n_packets=80.0,
                             precision=0.1, max_trials=150.0)
        assert whole == surface_spec("ok", ["dsss-1"], snr_db=[0.0],
                                     n_packets=80, precision=0.1,
                                     max_trials=150)
        assert type(whole.fixed["n_packets"]) is int
        assert type(whole.fixed["max_trials"]) is int


class TestAbstractLink:
    def test_needs_phy_when_ambiguous(self, surface):
        with pytest.raises(ConfigurationError, match="pass phy="):
            AbstractLink(surface)
        link = AbstractLink(surface, "cck-5.5", rng=1)
        assert link.rate_mbps == 5.5

    def test_statistical_equivalence_on_validation_grid(self, surface):
        """Acceptance: surrogate PER within combined Wilson CIs of the
        waveform PER at every cell of the 3-rate x 4-SNR grid."""
        for i, phy in enumerate(GRID_PHYS):
            link = AbstractLink(surface, phy, rng=100 + i)
            sim = LinkSimulator(phy, "awgn", rng=200 + i)
            for snr in GRID_SNRS:
                sur = link.run(snr, 400, GRID_PAYLOAD)
                wav = sim.run(snr, 80, GRID_PAYLOAD)
                s_lo, s_hi = sur.per_ci()
                w_lo, w_hi = wav.per_ci()
                assert s_lo <= w_hi and w_lo <= s_hi, (
                    f"{phy} @ {snr} dB: surrogate [{s_lo:.3f},{s_hi:.3f}] "
                    f"vs waveform [{w_lo:.3f},{w_hi:.3f}]"
                )

    def test_run_result_bookkeeping(self, surface):
        link = AbstractLink(surface, "dsss-1", rng=3)
        r = link.run(4.0, 50, GRID_PAYLOAD)
        assert r.n_packets == 50
        assert r.n_bits == 50 * 8 * GRID_PAYLOAD
        assert r.rate_mbps == 1.0
        assert r.extras["surrogate"] is True
        assert 0.0 <= r.per <= 1.0

    def test_adaptive_precision_mode(self, surface):
        link = AbstractLink(surface, "dsss-2", rng=4)
        r = link.run(GRID_SNRS[0], 50, GRID_PAYLOAD,
                     precision=0.25, max_trials=20000)
        assert r.mc.stop_reason in ("precision", "max_trials")
        assert r.mc.n_trials >= 50

    def test_waterfall_and_validation_parity(self, surface):
        link = AbstractLink(surface, "dsss-1", rng=5)
        sim = LinkSimulator("dsss-1", "awgn", rng=5)
        results = link.waterfall(GRID_SNRS, n_packets=20,
                                 payload_bytes=GRID_PAYLOAD)
        assert len(results) == len(GRID_SNRS)
        # Bad input must fail identically on both paths.
        for call in (lambda s: s.run(float("nan"), 10, 25),
                     lambda s: s.run(8.0, 0, 25),
                     lambda s: s.run(8.0, 10, -1),
                     lambda s: s.waterfall([])):
            with pytest.raises(ConfigurationError) as sur_exc:
                call(link)
            with pytest.raises(ConfigurationError) as wav_exc:
                call(sim)
            assert str(sur_exc.value) == str(wav_exc.value)

    def test_fractional_budget_rejected_on_both_paths(self):
        link = AbstractLink(toy_surface([[0.1, 0.001]]), rng=5)
        sim = LinkSimulator("dsss-1", "awgn", rng=5)
        for call in (lambda s: s.run(8.0, 2.5, 25),
                     lambda s: s.run(8.0, True, 25),
                     lambda s: s.run(8.0, 10, 2.5)):
            with pytest.raises(ConfigurationError,
                               match="whole number") as sur_exc:
                call(link)
            with pytest.raises(ConfigurationError) as wav_exc:
                call(sim)
            assert str(sur_exc.value) == str(wav_exc.value)

    def test_waveform_link_rejects_fractional_budget(self):
        for kwargs in ({"n_packets": 2.5}, {"payload_bytes": 20.5}):
            with pytest.raises(ConfigurationError, match="whole number"):
                WaveformLink("dsss-1", "awgn", rng=1, **kwargs)
        link = WaveformLink("dsss-1", "awgn", rng=1, n_packets=3.0,
                            payload_bytes=20.0)
        assert (link.n_packets, link.payload_bytes) == (3, 20)
        assert link.per_at(30.0) == 0.0

    def test_snr_for_per_deterministic_and_monotone(self):
        s = toy_surface([[0.9, 0.5, 0.1, 0.001]],
                        snrs=(0.0, 4.0, 8.0, 12.0))
        link = AbstractLink(s, rng=6)
        snr = link.snr_for_per(0.3, lo_db=0.0, hi_db=12.0,
                               tolerance_db=0.1)
        assert 4.0 < snr < 8.0
        assert snr == link.snr_for_per(0.3, lo_db=0.0, hi_db=12.0,
                                       tolerance_db=0.1)
        assert link.snr_for_per(0.95, lo_db=0.0, hi_db=12.0) == 0.0
        with pytest.raises(ConfigurationError, match="not met even at"):
            link.snr_for_per(0.0005, lo_db=0.0, hi_db=12.0)
        with pytest.raises(ConfigurationError):
            link.snr_for_per(1.5)

    def test_packet_success_vectorized(self, surface):
        link = AbstractLink(surface, "dsss-1", rng=7)
        outcomes = link.packet_success(np.full(500, GRID_SNRS[-1]),
                                       GRID_PAYLOAD)
        assert outcomes.shape == (500,)
        assert isinstance(link.packet_success(GRID_SNRS[-1]), bool)

    def test_out_of_grid_error_policy(self, surface):
        link = AbstractLink(surface, "dsss-1", rng=8, out_of_grid="error")
        with pytest.raises(ConfigurationError, match="outside the surface"):
            link.run(99.0, 10, GRID_PAYLOAD)

    def test_for_phy_sibling(self, surface):
        link = AbstractLink(surface, "dsss-1", rng=9)
        sibling = link.for_phy("cck-5.5")
        assert sibling.rate_mbps == 5.5
        assert sibling.surface is link.surface


class TestValidateSurface:
    def test_fresh_surface_validates(self, surface):
        report = validate_surface(surface, snr_db=[GRID_SNRS[1]],
                                  n_packets=60, seed=999)
        assert report.ok
        assert require_valid(report) is report
        assert any("OK" in line for line in report.lines())

    def test_tampered_surface_fails(self, surface):
        broken = PerSurface(
            name="broken", channel=surface.channel, phys=surface.phys,
            rate_mbps=surface.rate_mbps, snr_db=surface.snr_db,
            payload_bytes=surface.payload_bytes,
            per=np.full_like(surface.per, 0.985),
            per_ci_low=np.full_like(surface.per, 0.98),
            per_ci_high=np.full_like(surface.per, 0.99),
            ber=surface.ber, n_trials=surface.n_trials,
        )
        report = validate_surface(broken, phys=["dsss-1"],
                                  snr_db=[GRID_SNRS[-1]], n_packets=40,
                                  seed=999)
        assert not report.ok
        with pytest.raises(ConfigurationError, match="failed validation"):
            require_valid(report)

    def test_subset_must_hit_grid_points(self, surface):
        with pytest.raises(ConfigurationError, match="not a grid point"):
            validate_surface(surface, snr_db=[2.5], n_packets=10)

    def test_union_bound_check_runs_for_ofdm(self, tmp_path):
        s = build_surface("ofdm-tail", ["ofdm-6"], snr_db=[2.0, 12.0],
                          payload_bytes=[40], n_packets=25, base_seed=2,
                          store=ResultsStore(tmp_path))
        report = validate_surface(s, n_packets=25, seed=77)
        kinds = {c.kind for c in report.checks}
        assert "union-bound" in kinds
        assert report.ok
        # The check's bound is the link engine's analytic bound, not a
        # second SNR -> Eb/N0 mapping of its own.
        bound = LinkSimulator("ofdm-6").analytic_bounds(12.0, 40)["per"]
        check, = [c for c in report.checks if c.kind == "union-bound"]
        assert f"vs bound {bound:.4g} " in check.detail


class TestMeshWiring:
    def test_surrogate_coverage_within_waveform_cis(self, surface):
        """Acceptance: coverage_fraction through an AbstractLink agrees
        with the waveform path (WaveformLink) within combined CIs."""
        rng = np.random.default_rng(42)
        positions = rng.uniform(0.0, 120.0, size=(9, 2))
        kwargs = dict(standard="802.11", n_samples=1500, max_per=0.25)
        sur = coverage_result(positions, 120.0, rng=11,
                              link=AbstractLink(surface, "dsss-1", rng=11),
                              **kwargs)
        wav = coverage_result(positions, 120.0, rng=11,
                              link=WaveformLink("dsss-1", "awgn", rng=12,
                                                n_packets=60,
                                                payload_bytes=GRID_PAYLOAD,
                                                quantize_db=1.0),
                              **kwargs)
        assert sur.ci_low <= wav.ci_high and wav.ci_low <= sur.ci_high, (
            f"surrogate [{sur.ci_low:.3f},{sur.ci_high:.3f}] vs "
            f"waveform [{wav.ci_low:.3f},{wav.ci_high:.3f}]"
        )

    def test_threshold_path_unchanged_without_link(self):
        """link=None keeps the rate-table behaviour bit-identical."""
        rng = np.random.default_rng(1)
        positions = rng.uniform(0.0, 200.0, size=(8, 2))
        a = coverage_result(positions, 200.0, rng=3, n_samples=800)
        b = coverage_result(positions, 200.0, rng=3, n_samples=800)
        assert a.n_events == b.n_events

    def test_bad_portal_and_max_per_rejected(self, surface):
        positions = np.zeros((3, 2))
        with pytest.raises(ConfigurationError, match="portal"):
            coverage_result(positions, 100.0, portal=7)
        with pytest.raises(ConfigurationError, match="max_per"):
            coverage_result(positions, 100.0,
                            link=AbstractLink(surface, "dsss-1"),
                            max_per=0.0)


class TestRateAdaptationWiring:
    def test_controller_runs_on_measured_per(self, surface):
        from repro.mac.rate_adaptation import (SnrRateController,
                                               simulate_rate_adaptation)
        from repro.standards.registry import RateEntry, Standard

        ladder = Standard(
            name="toy-ladder", year=1997, phy_type="DSSS", band_ghz=2.4,
            bandwidth_mhz=22.0,
            rates=(RateEntry(1.0, 2.0, "DBPSK"),
                   RateEntry(2.0, 5.0, "DQPSK")),
        )
        link = AbstractLink(surface, "dsss-1", rng=13)
        trace = np.linspace(-2.0, 8.0, 300)
        result = simulate_rate_adaptation(SnrRateController(ladder), trace,
                                          payload_bits=200, rng=13,
                                          link=link)
        assert result.packets == 300
        assert 0.0 < result.success_ratio <= 1.0
        # High-SNR tail should ride the 2 Mbps rung.
        assert result.mean_rate_mbps > 1.0

    def test_rate_outside_surface_rejected(self, surface):
        from repro.mac.rate_adaptation import (ArfController,
                                               simulate_rate_adaptation)

        link = AbstractLink(surface, "dsss-1", rng=14)
        # 802.11a's ladder (6..54 Mbps) has no surface coverage at all.
        with pytest.raises(ConfigurationError, match="no phy at"):
            simulate_rate_adaptation(ArfController("802.11a"),
                                     [20.0, 20.0], rng=14, link=link)


class TestSurfaceCli:
    def test_build_ls_show_validate_and_surrogate_link(self, tmp_path,
                                                       capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["surface", "build", "cli-grid", "--phys",
                     "dsss-1,dsss-2", "--snr=-2:6:4", "--payload", "25",
                     "--packets", "25"]) == 0
        out = capsys.readouterr().out
        assert "saved under" in out and "2 phy(s)" in out

        assert main(["surface", "ls"]) == 0
        assert "cli-grid" in capsys.readouterr().out

        assert main(["surface", "show", "cli-grid"]) == 0
        assert "waveform cost" in capsys.readouterr().out

        assert main(["surface", "validate", "cli-grid",
                     "--packets", "30"]) == 0
        assert "validation: OK" in capsys.readouterr().out

        assert main(["link", "dsss-1", "awgn", "4", "--surrogate",
                     "cli-grid", "--packets", "200", "--bytes", "25"]) == 0
        assert "surrogate surface 'cli-grid'" in capsys.readouterr().out

    def test_missing_surface_is_cli_error(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["surface", "show", "ghost"]) == 2
        assert "error:" in capsys.readouterr().err