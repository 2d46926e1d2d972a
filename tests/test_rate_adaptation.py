"""Tests for ARF and SNR-threshold rate adaptation."""

import numpy as np
import pytest

from repro.analysis.per import per_from_snr
from repro.errors import ConfigurationError
from repro.mac.rate_adaptation import (
    AdaptationResult,
    ArfController,
    SnrRateController,
    fading_snr_trace,
    simulate_rate_adaptation,
)
from repro.standards.registry import get_standard
from repro.surrogate import AbstractLink, PerSurface


class TestArf:
    def test_starts_at_lowest_rate(self):
        assert ArfController().current_rate.rate_mbps == 6.0

    def test_climbs_after_success_streak(self):
        arf = ArfController(up_after=5)
        for _ in range(5):
            arf.record(True)
        assert arf.current_rate.rate_mbps == 9.0

    def test_drops_after_failures(self):
        arf = ArfController(up_after=1, down_after=2)
        arf.record(True)  # up to 9
        assert arf.current_rate.rate_mbps == 9.0
        arf.record(False)
        arf.record(False)
        assert arf.current_rate.rate_mbps == 6.0

    def test_never_exceeds_ladder(self):
        arf = ArfController(up_after=1)
        for _ in range(100):
            arf.record(True)
        assert arf.current_rate.rate_mbps == 54.0

    def test_never_below_lowest(self):
        arf = ArfController(down_after=1)
        for _ in range(20):
            arf.record(False)
        assert arf.current_rate.rate_mbps == 6.0

    def test_invalid_streaks_rejected(self):
        with pytest.raises(ConfigurationError):
            ArfController(up_after=0)


class TestSnrController:
    def test_high_snr_picks_top_rate(self):
        ctl = SnrRateController()
        assert ctl.choose_rate(45.0).rate_mbps == 54.0

    def test_low_snr_picks_bottom(self):
        ctl = SnrRateController()
        assert ctl.choose_rate(-10.0).rate_mbps == 6.0

    def test_margin_is_conservative(self):
        tight = SnrRateController(margin_db=0.0).choose_rate(20.0)
        safe = SnrRateController(margin_db=3.0).choose_rate(20.0)
        assert safe.rate_mbps <= tight.rate_mbps


class TestTrace:
    def test_trace_statistics(self, rng):
        trace = fading_snr_trace(20.0, 5000, rng=rng)
        assert trace.shape == (5000,)
        # Rayleigh fading in dB has mean ~ -2.5 dB below the mean SNR.
        assert 15.0 < trace.mean() < 20.0

    def test_doppler_controls_correlation(self, rng):
        slow = fading_snr_trace(20.0, 2000, doppler_hz=0.5, rng=rng)
        fast = fading_snr_trace(20.0, 2000, doppler_hz=50.0, rng=rng)
        assert np.abs(np.diff(slow)).mean() < np.abs(np.diff(fast)).mean()


class TestSimulation:
    def test_snr_genie_beats_fixed_low_rate_throughput(self, rng):
        trace = fading_snr_trace(25.0, 2000, rng=rng)
        genie = simulate_rate_adaptation(SnrRateController(), trace, rng=rng)
        assert genie.throughput_mbps > 6.0  # beats always-6-Mbps ceiling
        assert genie.success_ratio > 0.8

    def test_arf_reasonably_close_to_genie(self, rng):
        trace = fading_snr_trace(25.0, 3000, doppler_hz=1.0, rng=rng)
        arf = simulate_rate_adaptation(ArfController(), trace,
                                       rng=np.random.default_rng(1))
        genie = simulate_rate_adaptation(SnrRateController(), trace,
                                         rng=np.random.default_rng(1))
        assert arf.throughput_mbps > 0.3 * genie.throughput_mbps
        assert arf.throughput_mbps <= genie.throughput_mbps * 1.1

    def test_arf_tracks_channel_quality(self, rng):
        good = simulate_rate_adaptation(
            ArfController(), np.full(2000, 40.0), rng=rng
        )
        bad = simulate_rate_adaptation(
            ArfController(), np.full(2000, 8.0), rng=rng
        )
        assert good.mean_rate_mbps > bad.mean_rate_mbps
        assert good.throughput_mbps > bad.throughput_mbps

    def test_switch_counting(self, rng):
        result = simulate_rate_adaptation(
            SnrRateController(), np.array([40.0, 40.0, 0.0, 40.0]), rng=rng
        )
        assert result.rate_switches == 2

    def test_empty_trace_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            simulate_rate_adaptation(ArfController(), np.array([]), rng=rng)

    @pytest.mark.parametrize("trace", [[np.nan] * 5, [20.0, np.inf, 20.0],
                                       [20.0, -np.inf]])
    @pytest.mark.parametrize("with_link", [False, True])
    def test_non_finite_snr_rejected_before_any_draw(self, trace,
                                                     with_link):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        link = AbstractLink(ladder_surface(), "ofdm-6") if with_link else None
        with pytest.raises(ConfigurationError, match="finite"):
            simulate_rate_adaptation(ArfController(), trace, rng=rng,
                                     link=link)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("payload_bits", [0, -8000, np.nan, np.inf,
                                              "8000 bits"])
    def test_bad_payload_rejected_before_any_draw(self, payload_bits):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="payload_bits"):
            simulate_rate_adaptation(ArfController(), [20.0, 20.0],
                                     payload_bits=payload_bits, rng=rng)
        assert rng.bit_generator.state == state


# -- batched loop vs the per-packet reference --------------------------------

LADDER_SNRS = (0.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0)


def ladder_surface():
    """Hand-built 802.11a surface: one phy per rung, PER falling with SNR.

    Rows hold exact zeros and ones as well as interior values, so both
    the grid-hit and the log-domain interpolation paths are exercised.
    """
    rates = [r.rate_mbps for r in get_standard("802.11a").rates]
    rates.sort()
    snrs = np.asarray(LADDER_SNRS)
    per = np.empty((len(rates), 1, snrs.size))
    for i, rate in enumerate(rates):
        row = 1.0 / (1.0 + np.exp(snrs - (2.0 + 3.0 * i)))
        row[row < 1e-4] = 0.0
        row[row > 0.999] = 1.0
        per[i, 0] = row
    return PerSurface(
        name="ladder", channel="awgn",
        phys=[f"ofdm-{r:g}" for r in rates], rate_mbps=rates,
        snr_db=snrs, payload_bytes=[1000], per=per,
        per_ci_low=per, per_ci_high=per, ber=per / 100.0,
        n_trials=np.full(per.shape, 100.0),
    )


class FixedRate:
    """Controller pinned to one rung; has no ``ladder`` attribute."""

    def __init__(self, rate_mbps):
        self.entry = next(r for r in get_standard("802.11a").rates
                          if r.rate_mbps == rate_mbps)

    def choose_rate(self, snr_db):
        return self.entry

    def record(self, success):
        pass


class RecordingController:
    """Wraps a controller and records the rate of every packet."""

    def __init__(self, inner):
        self.inner = inner
        self.rates = []

    def choose_rate(self, snr_db):
        entry = self.inner.choose_rate(snr_db)
        self.rates.append(entry.rate_mbps)
        return entry

    def record(self, success):
        self.inner.record(success)


class CountingLink:
    """Wraps a link and records every ``per_for_rate`` call."""

    def __init__(self, link):
        self.link = link
        self.calls = []

    def per_for_rate(self, rate_mbps, snr_db):
        self.calls.append((rate_mbps, np.array(snr_db, copy=True)))
        return self.link.per_for_rate(rate_mbps, snr_db)


def reference_rate_adaptation(controller, snr_trace_db, payload_bits=8000,
                              rng=None, link=None):
    """The per-packet loop: one scalar PER lookup and one draw per step."""
    snr_trace_db = np.asarray(snr_trace_db, dtype=float).ravel()
    successes = 0
    switches = 0
    rate_sum = 0.0
    airtime_s = 0.0
    last_rate = None
    for snr in snr_trace_db:
        entry = controller.choose_rate(snr)
        if last_rate is not None and entry.rate_mbps != last_rate:
            switches += 1
        last_rate = entry.rate_mbps
        rate_sum += entry.rate_mbps
        airtime_s += payload_bits / (entry.rate_mbps * 1e6)
        if link is not None:
            per = float(link.per_for_rate(entry.rate_mbps, snr))
        else:
            per = float(per_from_snr(snr, entry.required_snr_db))
        success = bool(rng.random() > per)
        controller.record(success)
        successes += success
    return AdaptationResult(
        packets=snr_trace_db.size,
        successes=successes,
        throughput_mbps=successes * payload_bits / airtime_s / 1e6,
        mean_rate_mbps=rate_sum / snr_trace_db.size,
        rate_switches=switches,
    )


def mixed_trace(n, seed):
    """SNRs on grid points, between them, off the grid, and faded."""
    rng = np.random.default_rng(seed)
    grid = np.asarray(LADDER_SNRS)
    pool = np.concatenate([
        grid,                                  # exact grid hits
        0.5 * (grid[:-1] + grid[1:]),          # midpoints
        [-6.0, -0.5, 28.5, 40.0],              # clamped to the edges
        rng.uniform(-3.0, 31.0, 8),            # arbitrary interior
    ])
    picks = rng.choice(pool, size=n)
    faded = fading_snr_trace(18.0, n, doppler_hz=20.0, rng=seed)
    return np.where(rng.random(n) < 0.5, picks, faded)


CONTROLLERS = {
    "arf": lambda: ArfController("802.11a", up_after=3),
    "genie": lambda: SnrRateController("802.11a"),
    "fixed": lambda: FixedRate(24.0),
}


class TestBatchedEqualsPerPacket:
    @pytest.mark.parametrize("n", [1, 2, 80, 500])
    @pytest.mark.parametrize("seed", [0, 7, 20051])
    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    @pytest.mark.parametrize("oracle", ["logistic", "surface"])
    def test_bit_identical(self, n, seed, controller, oracle):
        link = (AbstractLink(ladder_surface(), "ofdm-6")
                if oracle == "surface" else None)
        trace = mixed_trace(n, seed)
        rng_new = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        new = simulate_rate_adaptation(CONTROLLERS[controller](), trace,
                                       payload_bits=4000, rng=rng_new,
                                       link=link)
        ref = reference_rate_adaptation(CONTROLLERS[controller](), trace,
                                        payload_bits=4000, rng=rng_ref,
                                        link=link)
        assert new == ref
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    def test_one_lookup_per_rate_used(self, controller):
        link = CountingLink(AbstractLink(ladder_surface(), "ofdm-6"))
        ctl = RecordingController(CONTROLLERS[controller]())
        trace = mixed_trace(500, 11)
        simulate_rate_adaptation(ctl, trace, rng=12, link=link)
        called = [rate for rate, _ in link.calls]
        assert sorted(called) == sorted(set(ctl.rates))
        for _, snrs in link.calls:
            np.testing.assert_array_equal(snrs, trace)
        if controller == "fixed":
            assert called == [24.0]
        else:
            assert len(called) > 1
