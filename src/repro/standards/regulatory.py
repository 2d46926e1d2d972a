"""Regulatory rules as executable checks.

The paper's historical thread is regulatory: the FCC's unlicensed-band
rules *shaped* the early PHYs (10 dB processing gain -> Barker DSSS),
their relaxation enabled CCK, and the 5 GHz rules that skipped spreading
enabled OFDM. This module turns those rules into measurements that run on
the library's own waveforms:

* power spectral density (Welch) and occupied bandwidth (99% power);
* the 802.11a transmit spectral mask;
* the part-15 processing-gain requirement;
* a generation-by-generation compliance report mirroring the paper's
  regulatory narrative.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FCC_PROCESSING_GAIN_DB
from repro.errors import ConfigurationError

#: 802.11a transmit mask breakpoints: (offset MHz, max dBr). Linear
#: interpolation between points, flat beyond the last.
DOT11A_SPECTRAL_MASK = ((9.0, 0.0), (11.0, -20.0), (20.0, -28.0),
                        (30.0, -40.0))


def _welch(waveform, sample_rate_hz, nperseg):
    """Two-sided Welch PSD; scipy.signal is loaded on first use."""
    from scipy.signal import welch

    return welch(waveform, fs=sample_rate_hz, nperseg=nperseg,
                 return_onesided=False, detrend=False)


def _check_nfft(nfft):
    if nfft < 1:
        raise ConfigurationError(f"nfft must be positive, got {nfft}")


def power_spectral_density(waveform, sample_rate_hz, nfft=256):
    """Welch PSD of a complex baseband waveform.

    Returns
    -------
    (freqs_hz, psd_db) : centred frequency axis and PSD normalised so the
    peak is 0 dBr.
    """
    _check_nfft(nfft)
    waveform = np.asarray(waveform, dtype=np.complex128).ravel()
    if waveform.size < nfft:
        raise ConfigurationError(f"waveform shorter than nfft={nfft}")
    freqs, psd = _welch(waveform, sample_rate_hz, nfft)
    order = np.argsort(freqs)
    freqs = freqs[order]
    psd = np.maximum(psd[order], 1e-30)
    psd_db = 10.0 * np.log10(psd)
    return freqs, psd_db - psd_db.max()


def occupied_bandwidth_hz(waveform, sample_rate_hz, fraction=0.99,
                          nfft=256):
    """Bandwidth containing ``fraction`` of the total power."""
    if not 0 < fraction < 1:
        raise ConfigurationError("fraction must be in (0, 1)")
    _check_nfft(nfft)
    waveform = np.asarray(waveform, dtype=np.complex128).ravel()
    if not np.any(waveform):
        raise ConfigurationError("an empty or all-zero waveform has no "
                                 "bandwidth")
    freqs, psd = _welch(waveform, sample_rate_hz, min(nfft, waveform.size))
    order = np.argsort(freqs)
    freqs = freqs[order]
    psd = psd[order]
    total = psd.sum()
    cumulative = np.cumsum(psd)
    lo = np.searchsorted(cumulative, (1 - fraction) / 2 * total)
    hi = np.searchsorted(cumulative, (1 + fraction) / 2 * total)
    hi = min(hi, freqs.size - 1)
    return float(freqs[hi] - freqs[lo])


def mask_limit_dbr(offset_hz, mask=DOT11A_SPECTRAL_MASK):
    """Spectral-mask limit (dBr) at a frequency offset from the carrier."""
    offset_mhz = abs(float(offset_hz)) / 1e6
    points = list(mask)
    if offset_mhz <= points[0][0]:
        return points[0][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= offset_mhz <= x1:
            return y0 + (y1 - y0) * (offset_mhz - x0) / (x1 - x0)
    return points[-1][1]


def check_spectral_mask(waveform, sample_rate_hz, mask=DOT11A_SPECTRAL_MASK,
                        nfft=256):
    """Measure a waveform against a transmit mask.

    Returns
    -------
    dict with ``compliant`` (bool), ``worst_margin_db`` (min of
    limit - psd; negative = violation) and the PSD arrays.

    Note: checking a 20 Msps baseband capture only exercises the mask to
    +/-10 MHz; adjacent-channel skirts beyond that need an oversampled
    capture.
    """
    freqs, psd_db = power_spectral_density(waveform, sample_rate_hz, nfft)
    limits = np.array([mask_limit_dbr(f, mask) for f in freqs])
    margins = limits - psd_db
    worst = float(margins.min())
    return {
        "compliant": bool(worst >= 0.0),
        "worst_margin_db": worst,
        "freqs_hz": freqs,
        "psd_db": psd_db,
        "limits_dbr": limits,
    }


def processing_gain_db_for(chips_per_symbol):
    """Part-15-style processing gain of a direct-sequence system."""
    if chips_per_symbol < 1:
        raise ConfigurationError("need >= 1 chip per symbol")
    return float(10.0 * np.log10(chips_per_symbol))


def meets_spreading_mandate(chips_per_symbol,
                            required_db=FCC_PROCESSING_GAIN_DB):
    """True if the spreading factor satisfies the original FCC mandate."""
    return processing_gain_db_for(chips_per_symbol) >= required_db


def regulatory_report():
    """The paper's regulatory narrative, generation by generation.

    Returns rows of (generation, mechanism, processing gain or None,
    mandate status) matching the historical record: 802.11 complies via
    spreading, 802.11b ships a waiver-era DSSS-like signature below 10 dB,
    and the OFDM generations are exempt (rule sidestepped at 5 GHz,
    then relaxed at 2.4 GHz).
    """
    rows = [
        {
            "standard": "802.11 (DSSS)",
            "mechanism": "11-chip Barker spreading",
            "processing_gain_db": processing_gain_db_for(11),
            "status": "complies with the 10 dB mandate",
        },
        {
            "standard": "802.11 (FHSS)",
            "mechanism": "79-channel frequency hopping",
            "processing_gain_db": processing_gain_db_for(79),
            "status": "complies (hopping counted as spreading)",
        },
        {
            "standard": "802.11b (CCK)",
            "mechanism": "8-chip complementary codes",
            "processing_gain_db": processing_gain_db_for(8),
            "status": "below 10 dB: allowed after the mandate was relaxed "
                      "to a DSSS-like signature",
        },
        {
            "standard": "802.11a/g (OFDM)",
            "mechanism": "no spreading (spectrally efficient modulation)",
            "processing_gain_db": None,
            "status": "rule sidestepped at 5 GHz / relaxed at 2.4 GHz",
        },
        {
            "standard": "802.11n (MIMO-OFDM)",
            "mechanism": "spatial multiplexing",
            "processing_gain_db": None,
            "status": "no regulatory barrier: technology limited",
        },
    ]
    return rows
