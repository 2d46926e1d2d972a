"""Tests for spatial-multiplexing detectors and MRC."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DemodulationError
from repro.phy.mimo.detection import (
    detect_ml,
    detect_mmse,
    detect_zero_forcing,
    maximum_ratio_combine,
)
from repro.phy.modulation import Modulator
from repro.utils.bits import random_bits


def _rayleigh(shape, rng):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2)


def _streams(mod, n_streams, n_syms, rng):
    bits = random_bits(mod.bits_per_symbol * n_streams * n_syms, rng)
    return mod.modulate(bits).reshape(n_streams, n_syms), bits


class TestZeroForcing:
    def test_perfect_inversion_noiseless(self, rng):
        mod = Modulator(2)
        x, bits = _streams(mod, 2, 100, rng)
        h = _rayleigh((3, 2), rng)
        est, sinr = detect_zero_forcing(h @ x, h, noise_var=1e-12)
        assert np.allclose(est, x, atol=1e-6)
        assert np.all(sinr > 0)

    def test_underdetermined_rejected(self, rng):
        h = _rayleigh((1, 2), rng)
        with pytest.raises(ConfigurationError):
            detect_zero_forcing(np.ones((1, 4), dtype=complex), h, 0.1)

    def test_sinr_reflects_channel_conditioning(self, rng):
        good = np.eye(2, dtype=complex)
        bad = np.array([[1.0, 0.99], [0.99, 1.0]], dtype=complex)
        _, sinr_good = detect_zero_forcing(np.ones((2, 1)), good, 0.01)
        _, sinr_bad = detect_zero_forcing(np.ones((2, 1)), bad, 0.01)
        assert sinr_good.min() > sinr_bad.max()


class TestMmse:
    def test_matches_zf_at_high_snr(self, rng):
        mod = Modulator(4)
        x, _ = _streams(mod, 2, 50, rng)
        h = _rayleigh((4, 2), rng)
        y = h @ x
        est_zf, _ = detect_zero_forcing(y, h, 1e-9)
        est_mmse, _ = detect_mmse(y, h, 1e-9)
        assert np.allclose(est_zf, est_mmse, atol=1e-3)

    def test_beats_zf_at_low_snr(self, rng):
        """MMSE's raison d'etre: better decisions when noise dominates."""
        mod = Modulator(2)
        nv = 0.5
        zf_errs = mmse_errs = 0
        for _ in range(200):
            x, bits = _streams(mod, 2, 4, rng)
            h = _rayleigh((2, 2), rng)
            y = h @ x + np.sqrt(nv / 2) * (
                rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            )
            try:
                est_zf, _ = detect_zero_forcing(y, h, nv)
                zf_errs += int((mod.demodulate_hard(est_zf.ravel())
                                != mod.demodulate_hard(x.ravel())).sum())
            except DemodulationError:
                zf_errs += bits.size
            est_mmse, _ = detect_mmse(y, h, nv)
            mmse_errs += int((mod.demodulate_hard(est_mmse.ravel())
                              != mod.demodulate_hard(x.ravel())).sum())
        assert mmse_errs <= zf_errs

    def test_unbiased_estimates(self, rng):
        """Bias correction keeps clean constellation decisions possible."""
        mod = Modulator(4)
        x, bits = _streams(mod, 2, 200, rng)
        h = _rayleigh((4, 2), rng)
        est, _ = detect_mmse(h @ x, h, 1e-6)
        assert np.array_equal(mod.demodulate_hard(est.ravel()), bits)


class TestMl:
    def test_optimal_on_clean_channel(self, rng):
        mod = Modulator(2)
        x, bits = _streams(mod, 2, 30, rng)
        h = _rayleigh((2, 2), rng)
        est = detect_ml(h @ x, h, mod.constellation)
        assert np.array_equal(mod.demodulate_hard(est.ravel()), bits)

    def test_ml_at_least_as_good_as_zf(self, rng):
        mod = Modulator(2)
        nv = 0.3
        zf_errs = ml_errs = 0
        for _ in range(100):
            x, _ = _streams(mod, 2, 4, rng)
            h = _rayleigh((2, 2), rng)
            y = h @ x + np.sqrt(nv / 2) * (
                rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
            )
            ref = mod.demodulate_hard(x.ravel())
            est_zf, _ = detect_zero_forcing(y, h, nv)
            zf_errs += int((mod.demodulate_hard(est_zf.ravel()) != ref).sum())
            est_ml = detect_ml(y, h, mod.constellation)
            ml_errs += int((mod.demodulate_hard(est_ml.ravel()) != ref).sum())
        assert ml_errs <= zf_errs

    def test_search_space_guard(self, rng):
        h = _rayleigh((4, 4), rng)
        with pytest.raises(ConfigurationError):
            detect_ml(np.ones((4, 1)), h, Modulator(6).constellation)


class TestStacks:
    """Linear detection over (..., Nr, Nt) stacks of matrices."""

    @staticmethod
    def _stack(rng, n_stack, nr, nt, t):
        h = _rayleigh((n_stack, nr, nt), rng)
        y = _rayleigh((n_stack, nr, t), rng)
        nv = rng.uniform(1e-3, 1.0, size=n_stack)
        return y, h, nv

    @pytest.mark.parametrize("detect", [detect_mmse, detect_zero_forcing])
    def test_stack_equals_per_matrix_calls_bitwise(self, rng, detect):
        for nt in range(1, 5):
            for nr in range(nt, 5):
                y, h, nv = self._stack(rng, 6, nr, nt, 7)
                est, sinr = detect(y, h, nv)
                assert est.shape == (6, nt, 7) and sinr.shape == (6, nt)
                for c in range(6):
                    est_c, sinr_c = detect(y[c], h[c], nv[c])
                    assert np.array_equal(est[c], est_c)
                    assert np.array_equal(sinr[c], sinr_c)

    def test_scalar_noise_broadcasts_over_a_stack(self, rng):
        y, h, _ = self._stack(rng, 5, 3, 2, 4)
        est, sinr = detect_mmse(y, h, 0.2)
        est_full, sinr_full = detect_mmse(y, h, np.full(5, 0.2))
        assert np.array_equal(est, est_full)
        assert np.array_equal(sinr, sinr_full)

    def test_mmse_matches_solve_form(self, rng):
        """Against the filter written with ``np.linalg.solve``.

        ``W y = (H^H H + s I)^-1 H^H y``, bias-corrected by the diagonal
        of ``W H``; the error covariance is ``s (H^H H + s I)^-1``, so
        the SINR is ``1 / (s [(H^H H + s I)^-1]_kk) - 1``.
        """
        y, h, nv = self._stack(rng, 40, 3, 2, 5)
        est, sinr = detect_mmse(y, h, nv)
        h_h = np.conj(h).swapaxes(-1, -2)
        a = h_h @ h + nv[:, None, None] * np.eye(2)
        wy = np.linalg.solve(a, h_h @ y)
        wh = np.real(np.diagonal(np.linalg.solve(a, h_h @ h),
                                 axis1=-2, axis2=-1))
        a_inv = np.linalg.solve(a, np.broadcast_to(np.eye(2), a.shape))
        e_kk = nv[:, None] * np.real(np.diagonal(a_inv, axis1=-2, axis2=-1))
        assert np.allclose(est, wy / wh[..., None], rtol=1e-12, atol=1e-12)
        assert np.allclose(sinr, 1.0 / e_kk - 1.0, rtol=1e-12, atol=0)

    def test_zero_forcing_inverts_every_channel(self, rng):
        """Fed the channel itself, ZF returns W H, which must be I."""
        _, h, nv = self._stack(rng, 40, 4, 3, 1)
        w_h, _ = detect_zero_forcing(h, h, nv)
        assert np.allclose(w_h, np.broadcast_to(np.eye(3), w_h.shape),
                           atol=1e-12)

    def test_singular_tone_in_zf_stack_raises(self, rng):
        y, h, nv = self._stack(rng, 8, 2, 2, 3)
        h[5] = 0.0
        with pytest.raises(DemodulationError):
            detect_zero_forcing(y, h, nv)

    def test_collapsed_tone_in_mmse_stack_raises(self, rng):
        y, h, nv = self._stack(rng, 8, 2, 2, 3)
        h[2] = 0.0
        with pytest.raises(DemodulationError):
            detect_mmse(y, h, nv)


class TestMrc:
    def test_array_gain_equals_channel_norm(self, rng):
        h = _rayleigh(4, rng)
        y = h[:, None] * np.ones((1, 10))
        est, gain = maximum_ratio_combine(y, h)
        assert gain == pytest.approx(np.sum(np.abs(h) ** 2))
        assert np.allclose(est, 1.0)

    def test_more_branches_lower_ber(self, rng):
        mod = Modulator(1)
        nv = 0.8
        errors = {}
        for n_rx in (1, 4):
            errs = 0
            for _ in range(300):
                bits = random_bits(4, rng)
                x = mod.modulate(bits)
                h = _rayleigh(n_rx, rng)
                y = h[:, None] * x[None, :] + np.sqrt(nv / 2) * (
                    rng.normal(size=(n_rx, 4)) + 1j * rng.normal(size=(n_rx, 4))
                )
                est, _ = maximum_ratio_combine(y, h)
                errs += int((mod.demodulate_hard(est) != bits).sum())
            errors[n_rx] = errs
        assert errors[4] < errors[1] / 3

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DemodulationError):
            maximum_ratio_combine(np.ones((3, 5)), np.ones(2, dtype=complex))

    def test_zero_channel_rejected(self):
        with pytest.raises(DemodulationError):
            maximum_ratio_combine(np.ones((2, 5)), np.zeros(2, dtype=complex))
