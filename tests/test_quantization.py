"""Tests for ADC quantisation, and the union bound."""

import numpy as np
import pytest

from repro.analysis.ber_theory import ber_psk_awgn
from repro.analysis.union_bound import coding_gain_db, union_bound_ber
from repro.errors import ConfigurationError
from repro.phy.dsss import DsssPhy
from repro.phy.ofdm import OfdmPhy
from repro.phy.quantization import (
    quantization_snr_db,
    quantize,
    required_bits,
)
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def ofdm_wave():
    rng = np.random.default_rng(41)
    return OfdmPhy(54).transmit(
        bytes(rng.integers(0, 256, 200, dtype=np.uint8).tolist())
    )


class TestQuantize:
    def test_output_shape_and_type(self, ofdm_wave):
        out = quantize(ofdm_wave, 8)
        assert out.shape == ofdm_wave.shape
        assert out.dtype == np.complex128

    def test_snr_improves_6db_per_bit(self, ofdm_wave):
        """The converter law: ~6 dB of SQNR per added bit."""
        s6 = quantization_snr_db(ofdm_wave, 6)
        s8 = quantization_snr_db(ofdm_wave, 8)
        assert s8 - s6 == pytest.approx(12.0, abs=3.0)

    def test_clipping_hurts(self, ofdm_wave):
        rms = float(np.sqrt(np.mean(np.abs(ofdm_wave) ** 2)))
        generous = quantization_snr_db(ofdm_wave, 10, clip_level=4 * rms)
        harsh = quantization_snr_db(ofdm_wave, 10, clip_level=0.5 * rms)
        assert harsh < generous

    def test_invalid_bits_rejected(self, ofdm_wave):
        with pytest.raises(ConfigurationError):
            quantize(ofdm_wave, 0)

    def test_zero_waveform_rejected(self):
        with pytest.raises(ConfigurationError):
            quantize(np.zeros(10, complex), 8)


class TestRequiredBits:
    def test_ofdm_needs_more_bits_than_dsss(self, ofdm_wave, rng):
        """PAPR's hidden cost: the ADC must cover OFDM's peaks, so the same
        target SQNR costs more bits than for constant-envelope DSSS."""
        dsss_wave = DsssPhy(2).modulate(random_bits(2000, rng))
        target = 30.0
        need_ofdm = required_bits(ofdm_wave, target)
        need_dsss = required_bits(dsss_wave, target)
        assert need_ofdm is not None and need_dsss is not None
        assert need_ofdm >= need_dsss

    def test_monotone_in_target(self, ofdm_wave):
        low = required_bits(ofdm_wave, 20.0)
        high = required_bits(ofdm_wave, 45.0)
        assert high is None or low is None or high >= low

    def test_unreachable_returns_none(self, ofdm_wave):
        rms = float(np.sqrt(np.mean(np.abs(ofdm_wave) ** 2)))
        assert required_bits(ofdm_wave, 60.0, clip_level=0.3 * rms) is None

    def test_quantized_ofdm_still_decodes(self, ofdm_wave):
        """8-bit conversion is transparent to the 54 Mbps link."""
        phy = OfdmPhy(54)
        rng = np.random.default_rng(4)
        msg = bytes(rng.integers(0, 256, 200, dtype=np.uint8).tolist())
        wave = phy.transmit(msg)
        digitised = quantize(wave, 8)
        sqnr = quantization_snr_db(wave, 8)
        assert phy.receive(digitised, 10 ** (-sqnr / 10)) == msg


class TestUnionBound:
    def test_is_upper_bound_at_moderate_snr(self, rng):
        """Simulated soft-Viterbi BER stays at/below the bound."""
        from repro.phy import convolutional as cc

        ebn0_db = 4.0
        sigma2 = 1.0 / (2 * 0.5 * 10 ** (ebn0_db / 10))
        errs = total = 0
        for _ in range(60):
            bits = random_bits(300, rng)
            coded = cc.encode(bits)
            y = (1.0 - 2.0 * coded) + rng.normal(0, np.sqrt(sigma2),
                                                 coded.size)
            decoded = cc.viterbi_decode(2 * y / sigma2, 300)
            errs += int((decoded != bits).sum())
            total += 300
        assert errs / total <= 2.0 * float(union_bound_ber(ebn0_db))

    def test_bound_below_uncoded(self):
        """At 5+ dB the coded bound sits far below uncoded BPSK."""
        assert union_bound_ber(5.0) < 0.1 * ber_psk_awgn(5.0)

    def test_decreasing_in_snr(self):
        values = union_bound_ber(np.array([3.0, 5.0, 7.0]))
        assert np.all(np.diff(values) < 0)

    def test_rate_ordering(self):
        """Lower code rate = stronger bound at equal Eb/N0."""
        assert union_bound_ber(5.0, "1/2") < union_bound_ber(5.0, "3/4")

    def test_asymptotic_gain_values(self):
        assert coding_gain_db("1/2") == pytest.approx(7.0, abs=0.1)
        assert coding_gain_db("3/4") == pytest.approx(5.7, abs=0.2)
        # 5/6 (HT/VHT) has d_free 4 but no spectrum table: the gain is
        # defined, the union bound is not.
        assert coding_gain_db("5/6") == pytest.approx(
            10 * np.log10(4 * 5 / 6))

    def test_unknown_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            union_bound_ber(5.0, "5/6")
