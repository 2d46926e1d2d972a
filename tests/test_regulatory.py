"""Tests for the regulatory-compliance module."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.dsss import DsssPhy
from repro.phy.ofdm import OfdmPhy
from repro.standards.regulatory import (
    check_spectral_mask,
    mask_limit_dbr,
    meets_spreading_mandate,
    occupied_bandwidth_hz,
    power_spectral_density,
    processing_gain_db_for,
    regulatory_report,
)
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def ofdm_wave():
    rng = np.random.default_rng(10)
    return OfdmPhy(54).transmit(
        bytes(rng.integers(0, 256, 400, dtype=np.uint8).tolist())
    )


class TestPsd:
    def test_ofdm_occupies_about_16mhz(self, ofdm_wave):
        """52 of 64 subcarriers at 312.5 kHz -> ~16.25 MHz occupied."""
        bw = occupied_bandwidth_hz(ofdm_wave, 20e6)
        assert 14e6 < bw < 18e6

    def test_dsss_occupies_most_of_the_channel(self, rng):
        wave = DsssPhy(1).modulate(random_bits(1500, rng))
        bw = occupied_bandwidth_hz(wave, 11e6)
        assert bw > 8e6

    def test_tone_is_narrow(self):
        tone = np.exp(2j * np.pi * 1e6 * np.arange(4000) / 20e6)
        assert occupied_bandwidth_hz(tone, 20e6) < 1e6

    def test_psd_normalised_to_peak(self, ofdm_wave):
        _, psd = power_spectral_density(ofdm_wave, 20e6)
        assert psd.max() == pytest.approx(0.0)

    def test_invalid_fraction_rejected(self, ofdm_wave):
        with pytest.raises(ConfigurationError):
            occupied_bandwidth_hz(ofdm_wave, 20e6, fraction=1.5)

    def test_empty_waveform_rejected(self):
        with pytest.raises(ConfigurationError):
            occupied_bandwidth_hz(np.array([]), 20e6)

    def test_all_zero_waveform_rejected(self):
        with pytest.raises(ConfigurationError):
            occupied_bandwidth_hz(np.zeros(512), 20e6)

    @pytest.mark.parametrize("nfft", [0, -4])
    @pytest.mark.parametrize("measure", [power_spectral_density,
                                         occupied_bandwidth_hz])
    def test_nonpositive_nfft_rejected(self, ofdm_wave, measure, nfft):
        with pytest.raises(ConfigurationError):
            measure(ofdm_wave, 20e6, nfft=nfft)


class TestMask:
    def test_limit_interpolation(self):
        assert mask_limit_dbr(0.0) == 0.0
        assert mask_limit_dbr(11e6) == pytest.approx(-20.0)
        assert mask_limit_dbr(10e6) == pytest.approx(-10.0)
        assert mask_limit_dbr(50e6) == pytest.approx(-40.0)

    def test_ofdm_passes_in_band(self, ofdm_wave):
        result = check_spectral_mask(ofdm_wave, 20e6)
        assert result["compliant"]

    def test_wideband_noise_fails(self, rng):
        noise = rng.normal(size=8000) + 1j * rng.normal(size=8000)
        result = check_spectral_mask(noise, 20e6)
        assert not result["compliant"]


class TestMandate:
    def test_barker_complies(self):
        assert meets_spreading_mandate(11)

    def test_cck_does_not(self):
        """The whole point of 802.11b's rule change."""
        assert not meets_spreading_mandate(8)

    def test_gain_formula(self):
        assert processing_gain_db_for(10) == pytest.approx(10.0)

    def test_invalid_chips_rejected(self):
        with pytest.raises(ConfigurationError):
            processing_gain_db_for(0)


class TestReport:
    def test_five_rows(self):
        assert len(regulatory_report()) == 5

    def test_narrative_arc(self):
        rows = {r["standard"]: r for r in regulatory_report()}
        assert rows["802.11 (DSSS)"]["processing_gain_db"] > 10.0
        assert rows["802.11b (CCK)"]["processing_gain_db"] < 10.0
        assert rows["802.11a/g (OFDM)"]["processing_gain_db"] is None
