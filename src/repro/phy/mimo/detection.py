"""Spatial-multiplexing detectors and diversity combining.

Convention: ``y = H x + n`` with **unit power per stream** (E[x x^H] = I)
and complex noise variance ``noise_var`` per receive antenna. Callers that
split a total power budget across streams fold the 1/sqrt(Nt) into H (the
HT transceiver does exactly this, and channel estimation then absorbs it
automatically).

All detectors return per-stream symbol estimates (Nt, T) plus the
post-detection SINR of each stream, so soft demappers can weight their
LLRs correctly. The linear detectors also take stacks: ``h`` of shape
``(..., Nr, Nt)`` with ``y`` of shape ``(..., Nr, T)`` and ``noise_var``
a scalar or one value per matrix (shape ``(...)``) detect every matrix
in a handful of stacked numpy calls. A 2-D call is a stack of one, and
each matrix of a stack comes out bit-for-bit as its own 2-D call would.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import ConfigurationError, DemodulationError


def _check_shapes(y, h):
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    h = np.atleast_2d(np.asarray(h, dtype=np.complex128))
    if y.shape[-2] != h.shape[-2]:
        raise DemodulationError(
            f"receive dim {y.shape[-2]} does not match channel rows "
            f"{h.shape[-2]}"
        )
    return y, h


def _hermitian(a):
    """Conjugate transpose of every matrix in a ``(..., m, n)`` stack."""
    return np.conj(a).swapaxes(-1, -2)


def _diagonal(a):
    """Real part of the diagonal of every matrix in a stack."""
    return np.real(np.diagonal(a, axis1=-2, axis2=-1))


def detect_zero_forcing(y, h, noise_var):
    """Zero-forcing detection: invert the channel, ignore noise colouring.

    Returns
    -------
    (estimates, post_sinr) : ((..., Nt, T) array, (..., Nt) array)
        ``post_sinr`` is the per-stream SNR after ZF:
        ``1 / (noise_var * [(H^H H)^-1]_kk)``.

    Raises
    ------
    DemodulationError
        When any matrix of the stack is singular.
    """
    y, h = _check_shapes(y, h)
    nt = h.shape[-1]
    if h.shape[-2] < nt:
        raise ConfigurationError(
            f"zero forcing needs Nr >= Nt, got {h.shape[-2]} < {nt}"
        )
    h_h = _hermitian(h)
    try:
        gram_inv = np.linalg.inv(h_h @ h)
    except np.linalg.LinAlgError as exc:
        raise DemodulationError("channel is rank deficient for ZF") from exc
    estimates = (gram_inv @ h_h) @ y
    noise_amp = _diagonal(gram_inv)
    noise_var = np.asarray(noise_var, dtype=float)[..., None]
    post_sinr = 1.0 / np.maximum(noise_var * noise_amp, 1e-30)
    return estimates, post_sinr


def detect_mmse(y, h, noise_var):
    """Linear MMSE detection with per-stream SINR.

    The filter is ``W = (H^H H + sigma^2 I)^-1 H^H``; estimates are
    bias-corrected so constellation decisions can be applied directly.
    Post-detection SINR comes from the error covariance
    ``E = (I + H^H H / sigma^2)^-1`` as ``1/E_kk - 1``.

    Raises
    ------
    DemodulationError
        When the filter of any matrix in the stack collapses.
    """
    y, h = _check_shapes(y, h)
    eye = np.eye(h.shape[-1])
    noise_var = np.maximum(np.asarray(noise_var, dtype=float),
                           1e-30)[..., None, None]
    h_h = _hermitian(h)
    gram = h_h @ h
    w = np.linalg.inv(gram + noise_var * eye) @ h_h
    wh_diag = _diagonal(w @ h)
    if np.any(wh_diag <= 1e-15):
        raise DemodulationError("MMSE filter collapsed (diagonal ~ 0)")
    estimates = (w @ y) / wh_diag[..., None]
    error_cov = np.linalg.inv(eye + gram / noise_var)
    e_kk = np.clip(_diagonal(error_cov), 1e-12, 1.0 - 1e-12)
    post_sinr = 1.0 / e_kk - 1.0
    return estimates, post_sinr


def detect_ml(y, h, constellation):
    """Exact maximum-likelihood joint detection (exponential in Nt).

    Practical for Nt <= 2-3 with QPSK/16-QAM; the quality yardstick in the
    detector ablation benchmark.

    Returns
    -------
    numpy.ndarray of shape (Nt, T)
        The ML symbol decisions (members of ``constellation`` per stream).
    """
    y, h = _check_shapes(y, h)
    nt = h.shape[1]
    constellation = np.asarray(constellation, dtype=np.complex128).ravel()
    if constellation.size ** nt > 1 << 20:
        raise ConfigurationError(
            f"ML search space {constellation.size}^{nt} is too large"
        )
    candidates = np.array(
        list(itertools.product(constellation, repeat=nt)), dtype=np.complex128
    ).T  # (Nt, M^Nt)
    predicted = h @ candidates  # (Nr, M^Nt)
    dists = (
        np.abs(y[:, None, :] - predicted[:, :, None]) ** 2
    ).sum(axis=0)  # (M^Nt, T)
    best = np.argmin(dists, axis=0)
    return candidates[:, best]


def maximum_ratio_combine(y, h):
    """MRC for a single transmit stream and Nr receive antennas.

    Parameters
    ----------
    y : array (Nr, T)
    h : array (Nr,)

    Returns
    -------
    (estimates, gain) : ((T,) array, float)
        ``gain`` is ||h||^2, the array (SNR) gain over a unit SISO link.
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.complex128))
    h = np.asarray(h, dtype=np.complex128).ravel()
    if y.shape[0] != h.size:
        raise DemodulationError(
            f"{y.shape[0]} receive rows but {h.size} channel gains"
        )
    norm = np.sum(np.abs(h) ** 2)
    if norm < 1e-24:
        raise DemodulationError("channel is numerically zero")
    estimates = (np.conj(h)[:, None] * y).sum(axis=0) / norm
    return estimates, float(norm)
