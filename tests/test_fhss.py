"""Tests for the 802.11 FHSS PHY."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DemodulationError
from repro.phy.fhss import (
    FhssPhy,
    GfskModem,
    N_CHANNELS,
    collision_probability,
    gaussian_pulse,
    hop_sequence,
)
from repro.utils.bits import random_bits


class TestHopSequence:
    def test_channels_in_range(self):
        seq = hop_sequence(0, 500)
        assert seq.min() >= 0
        assert seq.max() < N_CHANNELS

    def test_visits_all_channels_per_cycle(self):
        seq = hop_sequence(3, N_CHANNELS)
        assert len(set(seq.tolist())) == N_CHANNELS

    def test_family_members_are_shifts(self):
        a = hop_sequence(0, N_CHANNELS)
        b = hop_sequence(5, N_CHANNELS)
        assert np.array_equal((a + 5) % N_CHANNELS, b)

    def test_two_patterns_rarely_collide(self):
        a = hop_sequence(0, N_CHANNELS)
        b = hop_sequence(7, N_CHANNELS)
        collisions = int((a == b).sum())
        assert collisions <= 1


class TestCollisionProbability:
    def test_single_network_no_collisions(self):
        assert collision_probability(1) == 0.0

    def test_increases_with_networks(self):
        probs = [collision_probability(n) for n in (2, 5, 15, 40)]
        assert probs == sorted(probs)

    def test_two_network_value(self):
        assert collision_probability(2) == pytest.approx(1.0 / 79.0)

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            collision_probability(0)


class TestGfsk:
    def test_gaussian_pulse_unit_area(self):
        assert gaussian_pulse().sum() == pytest.approx(1.0)

    def test_bad_bt_rejected(self):
        with pytest.raises(ConfigurationError):
            gaussian_pulse(bt=0)

    @pytest.mark.parametrize("levels", [2, 4])
    def test_clean_round_trip(self, levels, rng):
        modem = GfskModem(levels=levels,
                          modulation_index=0.32 if levels == 2 else 0.45)
        bits = random_bits(modem.bits_per_symbol * 400, rng)
        out = modem.demodulate(modem.modulate(bits), bits.size)
        assert np.array_equal(out, bits)

    def test_constant_envelope(self, rng):
        """GFSK's whole point: PAPR ~ 0 dB (PA friendly, unlike OFDM)."""
        sig = GfskModem().modulate(random_bits(100, rng))
        assert np.allclose(np.abs(sig), 1.0)

    def test_noise_resilience(self, rng):
        modem = GfskModem()
        bits = random_bits(500, rng)
        sig = modem.modulate(bits)
        noisy = sig + 0.1 * (rng.normal(size=sig.size)
                             + 1j * rng.normal(size=sig.size))
        errors = int((modem.demodulate(noisy, bits.size) != bits).sum())
        assert errors / bits.size < 0.01

    def test_invalid_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            GfskModem(levels=8)

    @pytest.mark.parametrize("sps", [0, -1])
    def test_nonpositive_samples_per_symbol_rejected(self, sps):
        with pytest.raises(ConfigurationError):
            GfskModem(samples_per_symbol=sps)

    def test_short_signal_rejected(self, rng):
        modem = GfskModem()
        sig = modem.modulate(random_bits(4, rng))
        with pytest.raises(DemodulationError):
            modem.demodulate(sig, 400)


class TestFhssPhy:
    def test_dwell_round_trip(self, rng):
        phy = FhssPhy(rate_mbps=1)
        bits = random_bits(200, rng)
        out = phy.receive_dwell(phy.transmit_dwell(bits), bits.size)
        assert np.array_equal(out, bits)

    def test_collision_degrades_link(self, rng):
        phy = FhssPhy(rate_mbps=1)
        bits = random_bits(400, rng)
        sig = phy.transmit_dwell(bits)
        jammed = phy.receive_dwell(sig, bits.size, collided=True,
                                   interference_db=3.0, rng=rng)
        clean = phy.receive_dwell(sig, bits.size, rng=rng)
        assert (jammed != bits).sum() > (clean != bits).sum()

    def test_channel_for_hop(self):
        phy = FhssPhy(pattern_index=2)
        assert 0 <= phy.channel_for_hop(10) < N_CHANNELS

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FhssPhy(rate_mbps=3)
