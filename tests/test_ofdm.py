"""Tests for the 802.11a/g OFDM transceiver."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DemodulationError
from repro.phy.ofdm import (
    DATA_INDICES,
    LTF_SEQUENCE,
    OFDM_RATES,
    OfdmPhy,
    long_training_field,
    pilot_polarity,
    short_training_field,
)

ALL_RATES = sorted(OFDM_RATES)


@pytest.fixture(scope="module")
def message():
    rng = np.random.default_rng(99)
    return bytes(rng.integers(0, 256, 120, dtype=np.uint8).tolist())


class TestGeometry:
    def test_48_data_subcarriers(self):
        assert DATA_INDICES.size == 48

    def test_pilots_not_in_data(self):
        assert not set(DATA_INDICES.tolist()) & {-21, -7, 7, 21}

    def test_ltf_covers_52_carriers(self):
        assert len(LTF_SEQUENCE) == 52
        assert set(LTF_SEQUENCE.values()) <= {1.0, -1.0}

    def test_rate_parameters(self):
        # Table 78 spot checks.
        assert OFDM_RATES[6].n_dbps == 24
        assert OFDM_RATES[54].n_dbps == 216
        assert OFDM_RATES[48].n_cbps == 288


class TestTrainingFields:
    def test_stf_length(self):
        assert short_training_field().size == 160

    def test_stf_is_periodic_16(self):
        stf = short_training_field()
        assert np.allclose(stf[:16], stf[16:32], atol=1e-12)

    def test_ltf_length_and_cp(self):
        ltf = long_training_field()
        assert ltf.size == 160
        # The 32-sample CP equals the tail of each 64-sample symbol, and
        # the two training symbols are identical.
        assert np.allclose(ltf[:32], ltf[64:96])
        assert np.allclose(ltf[32:96], ltf[96:160])

    def test_unit_power(self):
        assert np.mean(np.abs(long_training_field()) ** 2) == pytest.approx(
            1.0, rel=0.05
        )

    def test_pilot_polarity_is_127_periodic(self):
        assert pilot_polarity(5) == pilot_polarity(5 + 127)
        assert pilot_polarity(0) == 1.0


class TestRoundTrip:
    @pytest.mark.parametrize("rate", ALL_RATES)
    def test_clean(self, rate, message):
        phy = OfdmPhy(rate)
        assert phy.receive(phy.transmit(message), 1e-10) == message

    def test_empty_psdu_roundtrip(self):
        phy = OfdmPhy(6)
        assert phy.receive(phy.transmit(b""), 1e-10) == b""

    def test_single_byte(self):
        phy = OfdmPhy(54)
        assert phy.receive(phy.transmit(b"Z"), 1e-10) == b"Z"

    @pytest.mark.parametrize("rate", [6, 24, 54])
    def test_awgn_at_comfortable_snr(self, rate, message, rng):
        phy = OfdmPhy(rate)
        wave = phy.transmit(message)
        nv = 10 ** (-30 / 10)
        noisy = wave + np.sqrt(nv / 2) * (
            rng.normal(size=wave.size) + 1j * rng.normal(size=wave.size)
        )
        assert phy.receive(noisy, nv) == message

    def test_multipath_with_channel_estimation(self, message, rng):
        phy = OfdmPhy(24)
        wave = phy.transmit(message)
        taps = np.array([0.85, 0.4 * np.exp(1j * 0.9), 0.25 * np.exp(-1j)])
        rx = np.convolve(wave, taps)[: wave.size]
        nv = 1e-3
        rx = rx + np.sqrt(nv / 2) * (
            rng.normal(size=rx.size) + 1j * rng.normal(size=rx.size)
        )
        assert phy.receive(rx, nv) == message

    def test_signal_field_carries_rate_and_length(self, message):
        phy = OfdmPhy(36)
        _, details = phy.receive(phy.transmit(message), 1e-10,
                                 return_details=True)
        assert details["advertised_rate_mbps"] == 36
        assert details["psdu_length"] == len(message)

    def test_receiver_rejects_wrong_rate(self, message):
        wave = OfdmPhy(12).transmit(message)
        with pytest.raises(DemodulationError):
            OfdmPhy(54).receive(wave, 1e-10)


class TestReceiveBatch:
    @pytest.mark.filterwarnings("error")
    def test_dead_row_fails_alone(self, message, rng):
        """A row whose channel estimate has a null comes back None alone.

        The all-zero middle row must not poison its batch: under
        warnings-as-errors a division by its null channel estimate
        would raise for the whole call.
        """
        phy = OfdmPhy(12)
        waves = phy.transmit_batch([message] * 3)
        waves[1] = 0.0
        noise_var = np.full(3, 1e-3)
        waves[[0, 2]] += np.sqrt(noise_var[0] / 2) * (
            rng.normal(size=(2, waves.shape[1]))
            + 1j * rng.normal(size=(2, waves.shape[1])))
        assert phy.receive_batch(waves, noise_var) == [message, None, message]


class TestFraming:
    def test_duration_formula(self):
        phy = OfdmPhy(54)
        # 20 us preamble+SIGNAL... : preamble 16us + SIGNAL 4us + data.
        n_sym = phy.n_symbols(1500)
        assert phy.frame_duration_s(1500) == pytest.approx(
            16e-6 + 4e-6 + n_sym * 4e-6
        )

    def test_faster_rate_shorter_frame(self):
        d6 = OfdmPhy(6).frame_duration_s(500)
        d54 = OfdmPhy(54).frame_duration_s(500)
        assert d54 < d6

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            OfdmPhy(33)

    def test_truncated_waveform_rejected(self, message):
        phy = OfdmPhy(6)
        wave = phy.transmit(message)
        with pytest.raises(DemodulationError):
            phy.receive(wave[: wave.size // 2], 1e-10)

    def test_spectral_efficiency_claim(self):
        """The paper: 2.7 bps/Hz, another ~fivefold step."""
        eff = OfdmPhy(54).spectral_efficiency()
        assert eff == pytest.approx(2.7)
        assert 4.0 < eff / 0.55 < 6.0

    def test_unit_power_waveform(self, message):
        wave = OfdmPhy(24).transmit(message)
        assert np.mean(np.abs(wave) ** 2) == pytest.approx(1.0, rel=0.15)
