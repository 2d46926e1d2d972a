"""Tests for the link-level simulation engine."""

import pytest

from repro.core.link import LinkResult, LinkSimulator
from repro.errors import ConfigurationError


class TestConfiguration:
    @pytest.mark.parametrize("phy", [
        "dsss-1", "dsss-2", "cck-5.5", "cck-11", "fhss-1",
        "ofdm-6", "ofdm-54", "ht-0", "ht-8", "ht40-3",
    ])
    def test_all_phys_construct(self, phy):
        sim = LinkSimulator(phy, "awgn", rng=0)
        assert sim.rate_mbps > 0

    def test_unknown_phy_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSimulator("wimax-10")

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSimulator("ofdm-6", "tgn-Z")

    def test_ht_stream_count(self):
        sim = LinkSimulator("ht-12", rng=0)
        assert sim.n_tx == 2


class TestAwgnRuns:
    @pytest.mark.parametrize("phy,snr", [
        ("dsss-1", 8.0), ("cck-11", 15.0), ("ofdm-24", 24.0), ("ht-0", 10.0),
    ])
    def test_high_snr_error_free(self, phy, snr):
        result = LinkSimulator(phy, "awgn", rng=1).run(snr, 15, 60)
        assert result.per == 0.0
        assert result.ber == 0.0

    def test_low_snr_fails(self):
        result = LinkSimulator("ofdm-54", "awgn", rng=2).run(5.0, 10, 60)
        assert result.per == 1.0

    def test_waterfall_monotone_overall(self):
        sim = LinkSimulator("ofdm-24", "awgn", rng=3)
        results = sim.waterfall([10.0, 30.0], n_packets=15, payload_bytes=60)
        assert results[0].per >= results[-1].per

    def test_result_bookkeeping(self):
        result = LinkSimulator("ofdm-6", "awgn", rng=4).run(20.0, 5, 40)
        assert result.n_packets == 5
        assert result.n_bits == 5 * 40 * 8
        assert result.goodput_mbps == pytest.approx(
            result.rate_mbps * (1 - result.per)
        )


class TestFadingRuns:
    def test_rayleigh_worse_than_awgn(self):
        """Fading is the whole reason diversity matters."""
        awgn = LinkSimulator("ofdm-24", "awgn", rng=5).run(24.0, 25, 60)
        fade = LinkSimulator("ofdm-24", "rayleigh", rng=5).run(24.0, 25, 60)
        assert fade.per > awgn.per

    def test_tgn_channel_runs(self):
        result = LinkSimulator("ofdm-6", "tgn-C", rng=6).run(20.0, 10, 60)
        assert 0.0 <= result.per <= 1.0

    def test_ht_rayleigh_with_rx_diversity(self):
        r2 = LinkSimulator("ht-0", "rayleigh", n_rx=2, rng=7).run(15.0, 20, 60)
        r1 = LinkSimulator("ht-0", "rayleigh", n_rx=1, rng=7).run(15.0, 20, 60)
        assert r2.per <= r1.per


class TestHtErrorCounts:
    """Exact HT/VHT counts in the waterfall knee (PER 0.5-0.7).

    Recorded with the per-packet receive chain (40 packets of 60 bytes,
    ``batch_size=16``, ``rng=2024``): a decode that changes one packet's
    verdict, or a draw order that shifts the generator, fails here.
    The generator is compared through the PCG64 ``state`` word; its
    increment is fixed by the seed.
    """

    CASES = [
        ("ht-9", "rayleigh", {}, 8.0, (40, 20, 2392),
         20706919697767108523004969857596413591),
        ("ht-12", "tgn-C", {}, 18.0, (40, 25, 3010),
         245004827344867070672223734953487452652),
        ("ht-12", "rayleigh", {"detector": "zf"}, 16.0, (40, 22, 3241),
         60005419558369913169963293215062142117),
        ("ht-0", "awgn", {"n_rx": 2}, -1.5, (40, 28, 1077),
         101734143623751879808271451011822502205),
        ("vht-8-x2", "tgn-D", {}, 28.0, (40, 23, 2479),
         275941987256904934760342434062201707960),
    ]

    @pytest.mark.parametrize("phy,channel,kwargs,snr,want,state", CASES,
                             ids=[f"{c[0]}-{c[1]}-{len(c[2])}" for c in CASES])
    def test_counts_and_generator_state(self, phy, channel, kwargs, snr,
                                        want, state):
        sim = LinkSimulator(phy, channel, rng=2024, **kwargs)
        result = sim.run(snr, n_packets=40, payload_bytes=60, batch_size=16)
        got = (result.n_packets, result.n_packet_errors, result.n_bit_errors)
        assert got == want
        assert sim.rng.bit_generator.state["state"]["state"] == state


class TestSnrForPer:
    def test_finds_waterfall_region(self):
        sim = LinkSimulator("ofdm-12", "awgn", rng=8)
        snr = sim.snr_for_per(0.5, lo_db=0.0, hi_db=20.0,
                              n_packets=20, payload_bytes=40)
        assert 0.0 < snr < 15.0

    def test_impossible_target_raises(self):
        sim = LinkSimulator("ofdm-12", "awgn", rng=9)
        with pytest.raises(ConfigurationError):
            sim.snr_for_per(0.5, lo_db=-30.0, hi_db=-20.0,
                            n_packets=10, payload_bytes=40)

    def test_invalid_target_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSimulator("ofdm-6", rng=10).snr_for_per(1.5)

    def test_low_edge_returned_without_bisection(self):
        """When the target PER already holds at lo_db the probe must
        return lo_db itself after a single run."""
        sim = LinkSimulator("ofdm-12", "awgn", rng=12)
        calls = []
        original = sim.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        sim.run = counting_run
        snr = sim.snr_for_per(0.5, lo_db=30.0, hi_db=40.0,
                              n_packets=10, payload_bytes=40)
        assert snr == 30.0
        assert len(calls) == 1


class TestValidation:
    def test_zero_packets_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkSimulator("ofdm-6", rng=11).run(10.0, 0, 100)

    def test_nan_snr_rejected(self):
        with pytest.raises(ConfigurationError, match="snr_db must be finite"):
            LinkSimulator("ofdm-6", rng=11).run(float("nan"), 10, 100)

    def test_non_numeric_snr_rejected(self):
        with pytest.raises(ConfigurationError, match="real number"):
            LinkSimulator("ofdm-6", rng=11).run("loud", 10, 100)

    @pytest.mark.parametrize("payload", [0, -4, 2.5])
    def test_bad_payload_rejected(self, payload):
        with pytest.raises(ConfigurationError, match="payload_bytes"):
            LinkSimulator("ofdm-6", rng=11).run(10.0, 10, payload)

    def test_empty_waterfall_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            LinkSimulator("ofdm-6", rng=11).waterfall([])

    def test_nan_in_waterfall_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            LinkSimulator("ofdm-6", rng=11).waterfall(
                [10.0, float("nan"), 20.0])

    def test_zero_trial_result_is_nan_not_zero(self):
        """No data must not masquerade as an error-free measurement."""
        import math
        r = LinkResult("x", "awgn", 0.0, 0, 0, 0, 0, 10, 6.0)
        assert math.isnan(r.per)
        assert math.isnan(r.ber)

    def test_per_ci_brackets_estimate(self):
        result = LinkSimulator("cck-5.5", "awgn", rng=13).run(2.0, 30, 25)
        lo, hi = result.per_ci()
        assert 0.0 <= lo <= result.per <= hi <= 1.0
        cp_lo, cp_hi = result.per_ci(method="clopper-pearson")
        assert cp_lo <= result.per <= cp_hi
