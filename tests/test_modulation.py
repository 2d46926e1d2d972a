"""Tests for repro.phy.modulation."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.modulation import Modulator, modulation_name
from repro.utils.bits import random_bits

ALL_ORDERS = [1, 2, 4, 6, 8, 10]


class TestConstellation:
    @pytest.mark.parametrize("bps", ALL_ORDERS)
    def test_unit_average_power(self, bps):
        const = Modulator(bps).constellation
        assert np.mean(np.abs(const) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("bps", ALL_ORDERS)
    def test_all_points_distinct(self, bps):
        const = Modulator(bps).constellation
        assert len(np.unique(np.round(const, 9))) == 2 ** bps

    def test_bpsk_is_real(self):
        const = Modulator(1).constellation
        assert np.allclose(const.imag, 0.0)
        assert sorted(const.real.tolist()) == [-1.0, 1.0]

    def test_qpsk_phases(self):
        const = Modulator(2).constellation
        assert np.allclose(np.abs(const), 1.0)

    @pytest.mark.parametrize("bad", [0, 3, 5, 7, 9, 12])
    def test_invalid_order_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            Modulator(bad)

    def test_non_integer_order_rejected(self):
        with pytest.raises(ConfigurationError):
            Modulator(2.0)

    @pytest.mark.parametrize("bps", [2, 4, 6, 8])
    def test_gray_coding_single_bit_neighbours(self, bps):
        """Nearest horizontal/vertical neighbours differ in exactly one bit."""
        mod = Modulator(bps)
        const = mod.constellation
        labels = np.array([[(v >> b) & 1 for b in range(bps)]
                           for v in range(2 ** bps)])
        min_dist = np.min(
            np.abs(const[:, None] - const[None, :])
            + np.eye(const.size) * 10
        )
        for i in range(const.size):
            for j in range(const.size):
                if i == j:
                    continue
                if np.abs(const[i] - const[j]) <= min_dist * 1.001:
                    assert np.sum(labels[i] != labels[j]) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("bps", ALL_ORDERS)
    def test_hard_round_trip(self, bps, rng):
        bits = random_bits(bps * 200, rng)
        mod = Modulator(bps)
        assert np.array_equal(mod.demodulate_hard(mod.modulate(bits)), bits)

    @pytest.mark.parametrize("bps", ALL_ORDERS)
    def test_soft_signs_match_hard(self, bps, rng):
        mod = Modulator(bps)
        bits = random_bits(bps * 100, rng)
        noisy = mod.modulate(bits) + 0.005 * (
            rng.normal(size=100) + 1j * rng.normal(size=100)
        )
        llrs = mod.demodulate_soft(noisy, noise_var=0.00005)
        assert np.array_equal((llrs < 0).astype(np.int8), bits)

    def test_wrong_bit_count_raises(self):
        with pytest.raises(ConfigurationError):
            Modulator(4).modulate(np.zeros(3, dtype=np.int8))


class TestSoftLLR:
    def test_llr_scales_with_noise(self, rng):
        mod = Modulator(2)
        symbol = mod.modulate(np.array([0, 0], dtype=np.int8))
        small = mod.demodulate_soft(symbol, 0.01)
        large = mod.demodulate_soft(symbol, 1.0)
        assert np.all(np.abs(small) > np.abs(large))

    def test_per_symbol_noise_variance(self, rng):
        mod = Modulator(1)
        symbols = mod.modulate(np.array([0, 0], dtype=np.int8))
        llrs = mod.demodulate_soft(symbols, np.array([0.01, 1.0]))
        assert abs(llrs[0]) > abs(llrs[1])

    def test_zero_noise_does_not_crash(self):
        mod = Modulator(2)
        sym = mod.modulate(np.array([1, 0], dtype=np.int8))
        llrs = mod.demodulate_soft(sym, 0.0)
        assert np.all(np.isfinite(llrs))


class TestErrorPositions:
    def test_identical_symbols_no_errors(self, rng):
        mod = Modulator(4)
        bits = random_bits(400, rng)
        syms = mod.modulate(bits)
        assert not mod.symbol_error_positions(syms, syms).any()

    def test_flipped_symbol_detected(self, rng):
        mod = Modulator(2)
        syms = mod.modulate(random_bits(20, rng))
        bad = syms.copy()
        bad[3] = -bad[3]
        assert mod.symbol_error_positions(syms, bad)[3]


class TestNames:
    def test_known_names(self):
        assert modulation_name(1) == "BPSK"
        assert modulation_name(2) == "QPSK"
        assert modulation_name(4) == "16-QAM"
        assert modulation_name(6) == "64-QAM"

    def test_derived_high_order_names(self):
        assert modulation_name(8) == "256-QAM"
        assert modulation_name(10) == "1024-QAM"

    @pytest.mark.parametrize("bad", [0, 3, 5, 7, 9, 12])
    def test_unknown_raises(self, bad):
        with pytest.raises(ConfigurationError):
            modulation_name(bad)


def _python_points(bps):
    """Every point by label value, from the 802.11 rule in Python floats:
    Gray-coded odd-integer PAM per rail, low bits on I, unit mean power."""
    if bps == 1:
        return [complex(2 * value - 1, 0.0) for value in range(2)]
    half = bps // 2
    m = 1 << half
    gray_to_level = {level ^ (level >> 1): level for level in range(m)}
    scale = math.sqrt(2 * (m * m - 1) / 3)

    def amplitude(bits):
        return (2 * gray_to_level[bits] - (m - 1)) / scale

    return [complex(amplitude(value & (m - 1)), amplitude(value >> half))
            for value in range(1 << bps)]


def _python_nearest(points, y):
    """Index of the point nearest ``y``, by brute force in Python floats."""
    dists = [(y.real - c.real) ** 2 + (y.imag - c.imag) ** 2 for c in points]
    return dists.index(min(dists))


def _python_maxlog(points, bps, y, noise_var):
    """Max-log LLRs of one symbol over every constellation point.

    Plain Python floats: for each bit, the smallest squared distance to
    a point whose label has that bit 1, minus the smallest to one with
    it 0, over the noise variance floored at 1e-12.
    """
    nearest = [[math.inf, math.inf] for _ in range(bps)]
    for value, c in enumerate(points):
        d = (y.real - c.real) ** 2 + (y.imag - c.imag) ** 2
        for bit, side in enumerate(nearest):
            label_bit = value >> bit & 1
            side[label_bit] = min(side[label_bit], d)
    noise_var = max(noise_var, 1e-12)
    return [(ones - zeros) / noise_var for zeros, ones in nearest]


def _noisy_symbols(mod, rng, n=32):
    """Random points plus noise, a few pushed outside the grid."""
    y = mod.modulate(random_bits(mod.bits_per_symbol * n, rng))
    y = y + 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    y[:4] *= 1.5
    return y


class TestMaxLogReference:
    """The per-rail demapper against brute force over the constellation."""

    @pytest.mark.parametrize("bps", ALL_ORDERS)
    def test_hard_equals_nearest_point(self, bps, rng):
        mod = Modulator(bps)
        y = _noisy_symbols(mod, rng, n=64)
        points = _python_points(bps)
        ref = [value >> bit & 1
               for value in (_python_nearest(points, s) for s in y.tolist())
               for bit in range(bps)]
        assert mod.demodulate_hard(y).tolist() == ref

    @pytest.mark.parametrize("noise", ["scalar", "per-symbol", "zero"])
    @pytest.mark.parametrize("bps", ALL_ORDERS)
    def test_soft_equals_python_maxlog(self, bps, noise, rng):
        mod = Modulator(bps)
        y = _noisy_symbols(mod, rng)
        noise_var = {"scalar": 0.02,
                     "per-symbol": 0.01 + 0.02 * rng.random(y.size),
                     "zero": 0.0}[noise]
        per_symbol = np.broadcast_to(noise_var, y.shape).tolist()
        points = _python_points(bps)
        ref = np.array([_python_maxlog(points, bps, s, v)
                        for s, v in zip(y.tolist(), per_symbol)]).ravel()
        got = mod.demodulate_soft(y, noise_var)
        assert got.dtype == np.float64 and got.shape == ref.shape
        # Only rounding separates the two: the rails drop the other
        # rail's distance term, which cancels exactly in every LLR, and
        # the reference points may differ from the table's in the last
        # bit.
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
