"""MIMO channel capacity: the information-theoretic basis of the paper's
"fundamental breakthroughs in information theory" narrative.

Open-loop capacity of an Nr x Nt channel H at total-TX SNR rho with equal
power allocation:

    C = log2 det(I + (rho / Nt) H H^H)   [bps/Hz]

Ergodic and outage variants average/quantile this over an i.i.d. Rayleigh
ensemble, reproducing the linear-in-min(Nt,Nr) scaling that makes
15 bps/Hz reachable where SISO saturates.
"""

from __future__ import annotations

import numpy as np

from repro.core.mc import run_trials
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator


def rayleigh_channel(n_rx, n_tx, rng=None):
    """An i.i.d. CN(0,1) channel matrix draw."""
    rng = as_generator(rng)
    return (
        rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx))
    ) / np.sqrt(2.0)


def rayleigh_channels(n_draws, n_rx, n_tx, rng=None):
    """``n_draws`` stacked i.i.d. CN(0,1) channel draws, shape (n, rx, tx).

    The ``(n, 2, rx, tx)`` normal block consumes the generator in
    exactly the order ``n_draws`` sequential :func:`rayleigh_channel`
    calls would (real block then imaginary block per draw), so batched
    ensembles are bit-identical to the seed-era scalar loops.
    """
    rng = as_generator(rng)
    z = rng.normal(size=(int(n_draws), 2, int(n_rx), int(n_tx)))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def capacity_bps_hz(channel, snr_linear):
    """Deterministic open-loop MIMO capacity at total-TX SNR ``snr_linear``."""
    h = np.atleast_2d(np.asarray(channel, dtype=np.complex128))
    n_tx = h.shape[1]
    gram = np.eye(h.shape[0]) + (snr_linear / n_tx) * (h @ h.conj().T)
    sign, logdet = np.linalg.slogdet(gram)
    if sign.real <= 0:
        raise ConfigurationError("capacity determinant non-positive")
    return float(logdet / np.log(2.0))


def ergodic_capacity(n_rx, n_tx, snr_db, n_draws=2000, rng=None, *,
                     precision=None, max_trials=None, confidence=0.95,
                     batch_size=500, return_result=False):
    """Mean capacity over an i.i.d. Rayleigh ensemble [bps/Hz].

    Channel draws and eigendecompositions run in vectorised batches
    through the MC engine; the fixed-budget result (``precision=None``)
    is bit-identical to the seed-era per-draw loop at the same seed.
    With a precision target the ensemble grows until the normal-theory
    CI on the mean is relatively tight enough at every SNR point.
    ``return_result=True`` yields the :class:`~repro.core.mc.McResult`
    (estimate, CI and trial count) instead of the bare mean.
    """
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    snr = np.atleast_1d(snr)

    def batch(rng, m):
        h = rayleigh_channels(m, n_rx, n_tx, rng)
        eig = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1)).real
        eig = np.maximum(eig, 0.0)
        caps = np.log2(1.0 + snr[None, :, None] / n_tx
                       * eig[:, None, :]).sum(axis=2)
        return {"capacity_bps_hz": caps}

    mc = run_trials(batch, n_trials=n_draws, target="capacity_bps_hz",
                    rng=rng, precision=precision, max_trials=max_trials,
                    confidence=confidence, batch_size=batch_size,
                    estimand="mean")
    if return_result:
        return mc
    return mc.estimate


def outage_capacity(n_rx, n_tx, snr_db, outage=0.1, n_draws=4000, rng=None,
                    *, precision=None, max_trials=None, confidence=0.95,
                    batch_size=1000, return_result=False):
    """Capacity supported in all but ``outage`` of channel draws [bps/Hz].

    Batched draws and log-determinants through the MC engine;
    bit-identical to the seed-era loop in fixed-budget mode. Adaptive
    mode grows the ensemble until the distribution-free order-statistic
    CI on the outage quantile is relatively tight enough.
    """
    if not 0 < outage < 1:
        raise ConfigurationError(f"outage must be in (0, 1), got {outage}")
    snr = 10.0 ** (float(snr_db) / 10.0)

    def batch(rng, m):
        h = rayleigh_channels(m, n_rx, n_tx, rng)
        gram = (np.eye(int(n_rx))
                + (snr / n_tx) * (h @ h.conj().transpose(0, 2, 1)))
        sign, logdet = np.linalg.slogdet(gram)
        if np.any(sign.real <= 0):
            raise ConfigurationError("capacity determinant non-positive")
        return {"capacity_bps_hz": logdet / np.log(2.0)}

    mc = run_trials(batch, n_trials=n_draws, target="capacity_bps_hz",
                    rng=rng, precision=precision, max_trials=max_trials,
                    confidence=confidence, batch_size=batch_size,
                    estimand="quantile", quantile=outage)
    if return_result:
        return mc
    return float(mc.estimate)


def siso_shannon_bound(snr_db):
    """SISO AWGN capacity log2(1+SNR) [bps/Hz] — the wall the paper says
    the OFDM generation had essentially reached."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    return np.log2(1.0 + snr)
