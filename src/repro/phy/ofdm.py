"""The 802.11a/g OFDM PHY — 6 to 54 Mbps in a 20 MHz channel.

OFDM is the technology the paper credits with reaching 2.7 bps/Hz once the
regulators dropped the spreading mandate. This module implements the full
clause-17 baseband chain:

TX: scramble -> convolutional encode (+tail) -> puncture -> interleave ->
map -> insert pilots -> 64-point IFFT -> cyclic prefix, preceded by the
legacy short/long training fields and the SIGNAL symbol.

RX: LS channel estimation from the long training field, per-subcarrier
equalisation, pilot-driven common-phase-error correction, soft demapping,
deinterleaving, Viterbi decoding, descrambling.

The implementation is self-contained at one sample per 50 ns (20 Msps) and
feeds per-subcarrier noise variances to the soft demapper so fading
channels are handled correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    OFDM_CP_LENGTH,
    OFDM_DATA_SUBCARRIERS,
    OFDM_FFT_SIZE,
    OFDM_PILOT_INDICES,
    OFDM_SYMBOL_SAMPLES,
)
from repro.errors import ConfigurationError, DemodulationError
from repro import obs
from repro.phy import convolutional as cc
from repro.phy.interleaver import deinterleave, interleave
from repro.phy.modulation import Modulator
from repro.phy.scrambler import scramble, scrambler_sequence
from repro.utils.bits import bits_from_bytes, bytes_from_bits

# ---------------------------------------------------------------------------
# Rate set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OfdmRate:
    """One 802.11a rate-dependent parameter set (clause 17 table 78)."""

    rate_mbps: int
    bits_per_subcarrier: int
    code_rate: str
    signal_rate_bits: int  # the 4-bit RATE field value

    @property
    def n_cbps(self):
        """Coded bits per OFDM symbol."""
        return OFDM_DATA_SUBCARRIERS * self.bits_per_subcarrier

    @property
    def n_dbps(self):
        """Data bits per OFDM symbol."""
        return int(self.n_cbps * cc.CODE_RATES[self.code_rate])


OFDM_RATES = {
    6: OfdmRate(6, 1, "1/2", 0b1101),
    9: OfdmRate(9, 1, "3/4", 0b1111),
    12: OfdmRate(12, 2, "1/2", 0b0101),
    18: OfdmRate(18, 2, "3/4", 0b0111),
    24: OfdmRate(24, 4, "1/2", 0b1001),
    36: OfdmRate(36, 4, "3/4", 0b1011),
    48: OfdmRate(48, 6, "2/3", 0b0001),
    54: OfdmRate(54, 6, "3/4", 0b0011),
}

_RATE_FROM_SIGNAL = {r.signal_rate_bits: r for r in OFDM_RATES.values()}

# ---------------------------------------------------------------------------
# Subcarrier geometry
# ---------------------------------------------------------------------------

_ALL_USED = [k for k in range(-26, 27) if k != 0]
DATA_INDICES = np.array([k for k in _ALL_USED if k not in OFDM_PILOT_INDICES])
PILOT_INDICES = np.array(OFDM_PILOT_INDICES)

#: Pilot polarity per OFDM symbol: the 127-periodic scrambler PRBS, 0 -> +1.
_POLARITY = 1.0 - 2.0 * scrambler_sequence(127, seed=0x7F).astype(float)

#: Pilot values (before polarity): +1 on -21, -7, +7 and -1 on +21.
_PILOT_BASE = np.array([1.0, 1.0, 1.0, -1.0])


def pilot_polarity(symbol_index):
    """Polarity p_n applied to all four pilots of symbol ``n``."""
    return _POLARITY[symbol_index % 127]


def _bin_of(logical_index):
    """FFT bin for a logical subcarrier index (-26..26)."""
    return logical_index % OFDM_FFT_SIZE


_DATA_BINS = np.array([_bin_of(k) for k in DATA_INDICES])
_PILOT_BINS = np.array([_bin_of(k) for k in PILOT_INDICES])
_USED_BINS = np.array([_bin_of(k) for k in _ALL_USED])

# ---------------------------------------------------------------------------
# Training fields (clause 17.3.3)
# ---------------------------------------------------------------------------

_STF_VALUES = {
    -24: 1 + 1j, -20: -1 - 1j, -16: 1 + 1j, -12: -1 - 1j, -8: -1 - 1j,
    -4: 1 + 1j, 4: -1 - 1j, 8: -1 - 1j, 12: 1 + 1j, 16: 1 + 1j,
    20: 1 + 1j, 24: 1 + 1j,
}

_LTF_POS = [1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1,
            1, -1, 1, -1, 1, 1, 1, 1]  # subcarriers 1..26
_LTF_NEG = [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1,
            -1, 1, -1, 1, 1, 1, 1]  # subcarriers -26..-1

LTF_SEQUENCE = {}
for _i, _k in enumerate(range(-26, 0)):
    LTF_SEQUENCE[_k] = float(_LTF_NEG[_i])
for _i, _k in enumerate(range(1, 27)):
    LTF_SEQUENCE[_k] = float(_LTF_POS[_i])


def _freq_to_time(freq_bins):
    """IFFT scaled so used-subcarrier power maps to unit sample power."""
    return np.fft.ifft(freq_bins) * (OFDM_FFT_SIZE / np.sqrt(len(_USED_BINS)))


def short_training_field():
    """The 8 us legacy STF: ten repetitions of a 16-sample pattern."""
    bins = np.zeros(OFDM_FFT_SIZE, dtype=np.complex128)
    for k, v in _STF_VALUES.items():
        bins[_bin_of(k)] = np.sqrt(13.0 / 6.0) * v
    symbol = _freq_to_time(bins)
    # The 64-sample IFFT output is itself 4 repetitions of the 16-sample
    # short symbol; 2.5 repetitions give the standard's 160-sample STF.
    return np.tile(symbol, 3)[:160]


def long_training_field():
    """The 8 us legacy LTF: 32-sample CP then two 64-sample symbols."""
    bins = np.zeros(OFDM_FFT_SIZE, dtype=np.complex128)
    for k, v in LTF_SEQUENCE.items():
        bins[_bin_of(k)] = v
    symbol = _freq_to_time(bins)
    return np.concatenate([symbol[-32:], symbol, symbol])  # 160 samples


PREAMBLE_SAMPLES = 320  # STF + LTF

#: Sample budget of one receive front-end block, so a stacked batch
#: holds no more scratch than a block whatever its row count. A DATA
#: symbol costs its 80 time samples plus its 48 x 2^bits demapper
#: distances (the max-log distance matrix, not the waveform, dominates
#: at 64-QAM); the front end's peak is ~3 MB per 100k of these. A
#: 1500-byte row costs 88k at 6 Mbps and 176k at 54 Mbps, so a block
#: holds two such 6 Mbps rows or one 54 Mbps row.
RX_BLOCK_BUDGET = 1 << 18
_LTF_FREQ = np.array([LTF_SEQUENCE[k] for k in _ALL_USED])


# ---------------------------------------------------------------------------
# The transceiver
# ---------------------------------------------------------------------------

class OfdmPhy:
    """Complete 802.11a/g OFDM transceiver.

    Parameters
    ----------
    rate_mbps : int
        One of 6, 9, 12, 18, 24, 36, 48, 54.
    scrambler_seed : int
        7-bit nonzero initial scrambler state.

    Examples
    --------
    >>> phy = OfdmPhy(54)
    >>> wave = phy.transmit(b"hello world")
    >>> phy.receive(wave, noise_var=1e-9)
    b'hello world'
    """

    def __init__(self, rate_mbps=6, scrambler_seed=0x5D):
        if rate_mbps not in OFDM_RATES:
            raise ConfigurationError(
                f"OFDM rate must be one of {sorted(OFDM_RATES)}, got {rate_mbps}"
            )
        self.rate = OFDM_RATES[rate_mbps]
        self.rate_mbps = rate_mbps
        self.scrambler_seed = scrambler_seed
        self.modulator = Modulator(self.rate.bits_per_subcarrier)
        self._signal_modulator = Modulator(1)
        self._signal_symbol_cache = {}

    # -- helpers -----------------------------------------------------------

    def n_symbols(self, psdu_bytes):
        """Number of DATA OFDM symbols for a PSDU of ``psdu_bytes`` bytes."""
        n_bits = 16 + 8 * psdu_bytes + 6  # SERVICE + PSDU + tail
        return int(np.ceil(n_bits / self.rate.n_dbps))

    def n_samples(self, psdu_bytes):
        """Waveform length of the PPDU: preamble + SIGNAL + data symbols."""
        n_sym = self.n_symbols(psdu_bytes) + 1  # + SIGNAL
        return PREAMBLE_SAMPLES + n_sym * OFDM_SYMBOL_SAMPLES

    def frame_duration_s(self, psdu_bytes):
        """Air time of the PPDU: preamble + SIGNAL + data symbols."""
        return self.n_samples(psdu_bytes) / 20e6

    def _assemble_symbol(self, data_carriers, symbol_index):
        carriers = np.asarray(data_carriers)[None, :]
        indices = np.array([symbol_index])
        return self._assemble_symbols(carriers, indices)[0]

    @staticmethod
    def _assemble_symbols(data_carriers, symbol_indices):
        """IFFT a whole block of DATA symbols at once.

        Parameters
        ----------
        data_carriers : (n_sym, 48) complex array
            One row of data-subcarrier values per OFDM symbol.
        symbol_indices : (n_sym,) int array
            Pilot-polarity index of each symbol (SIGNAL is 0).

        Returns
        -------
        (n_sym, 80) complex array of CP-prefixed time-domain symbols.
        """
        n_sym = data_carriers.shape[0]
        bins = np.zeros((n_sym, OFDM_FFT_SIZE), dtype=np.complex128)
        bins[:, _DATA_BINS] = data_carriers
        polarity = _POLARITY[np.asarray(symbol_indices) % 127]
        bins[:, _PILOT_BINS] = _PILOT_BASE[None, :] * polarity[:, None]
        symbols = np.fft.ifft(bins, axis=-1) * (
            OFDM_FFT_SIZE / np.sqrt(len(_USED_BINS))
        )
        return np.concatenate(
            [symbols[:, -OFDM_CP_LENGTH:], symbols], axis=1
        )

    # -- SIGNAL field --------------------------------------------------------

    def _signal_bits(self, psdu_bytes):
        rate_bits = [(self.rate.signal_rate_bits >> (3 - i)) & 1 for i in range(4)]
        length_bits = [(psdu_bytes >> i) & 1 for i in range(12)]
        header = rate_bits + [0] + length_bits
        parity = [int(sum(header) % 2)]
        return np.array(header + parity + [0] * 6, dtype=np.int8)

    @staticmethod
    def _parse_signal(bits):
        bits = np.asarray(bits).astype(int)
        header = bits[:17]
        if int(header.sum() + bits[17]) % 2 != 0:
            raise DemodulationError("SIGNAL parity check failed")
        rate_bits = (bits[0] << 3) | (bits[1] << 2) | (bits[2] << 1) | bits[3]
        if rate_bits not in _RATE_FROM_SIGNAL:
            raise DemodulationError(f"invalid SIGNAL rate bits {rate_bits:04b}")
        length = int(sum(bits[5 + i] << i for i in range(12)))
        return _RATE_FROM_SIGNAL[rate_bits], length

    def _encode_signal_symbol(self, psdu_bytes):
        cached = self._signal_symbol_cache.get(psdu_bytes)
        if cached is None:
            coded = cc.encode(self._signal_bits(psdu_bytes), terminate=False)
            inter = interleave(coded, 48, 1)
            cached = self._assemble_symbol(self._signal_modulator.modulate(inter), 0)
            self._signal_symbol_cache[psdu_bytes] = cached
        return cached

    # -- TX -----------------------------------------------------------------

    def transmit(self, psdu):
        """Build the full PPDU waveform for a PSDU (bytes-like).

        Returns complex baseband samples at 20 Msps with unit average power
        in the data portion.
        """
        return self._transmit_rows([bytes(psdu)])[0]

    def transmit_batch(self, psdus):
        """Build the PPDU waveforms for a batch of equal-length PSDUs.

        All PSDUs must have the same byte length (as in a fixed-payload
        Monte-Carlo batch); the result is a ``(batch, n_samples)`` complex
        array whose row ``i`` is exactly ``transmit(psdus[i])``.
        """
        psdus = [bytes(p) for p in psdus]
        if not psdus:
            raise ConfigurationError("transmit_batch needs at least one PSDU")
        if len({len(p) for p in psdus}) != 1:
            raise ConfigurationError(
                "transmit_batch requires equal-length PSDUs"
            )
        return self._transmit_rows(psdus)

    def _transmit_rows(self, psdus):
        """Encode + modulate + IFFT a batch of same-length PSDUs at once."""
        batch = len(psdus)
        psdu_bytes = len(psdus[0])
        n_sym = self.n_symbols(psdu_bytes)
        n_data_bits = n_sym * self.rate.n_dbps
        n_payload_bits = 8 * psdu_bytes
        # SERVICE (16 zero bits) | payload | six tail zeros | pad zeros.
        data = np.zeros((batch, n_data_bits), dtype=np.int8)
        for row, psdu in enumerate(psdus):
            data[row, 16 : 16 + n_payload_bits] = bits_from_bytes(psdu)
        scrambled = scramble(data, seed=self.scrambler_seed)
        tail_start = 16 + n_payload_bits
        scrambled[:, tail_start : tail_start + 6] = 0  # tail bits stay zero
        coded = cc.puncture(
            cc.encode(scrambled, terminate=False), rate=self.rate.code_rate
        )
        interleaved = interleave(coded, self.rate.n_cbps,
                                 self.rate.bits_per_subcarrier)
        carriers = self.modulator.modulate(interleaved).reshape(
            batch * n_sym, OFDM_DATA_SUBCARRIERS
        )
        indices = np.tile(np.arange(1, n_sym + 1), batch)
        data_symbols = self._assemble_symbols(carriers, indices).reshape(
            batch, n_sym * OFDM_SYMBOL_SAMPLES
        )
        head = np.concatenate([
            short_training_field(),
            long_training_field(),
            self._encode_signal_symbol(psdu_bytes),
        ])
        obs.counter("phy.ofdm.tx_symbols", batch * (n_sym + 1))
        out = np.empty(
            (batch, head.size + data_symbols.shape[1]), dtype=np.complex128
        )
        out[:, : head.size] = head
        out[:, head.size :] = data_symbols
        return out

    # -- RX -----------------------------------------------------------------

    @staticmethod
    def _fft_symbols(blocks):
        """Strip the CP and FFT a stack of 80-sample symbols along the last axis."""
        body = blocks[..., OFDM_CP_LENGTH:OFDM_SYMBOL_SAMPLES]
        freq = np.fft.fft(body, axis=-1)
        freq *= np.sqrt(len(_USED_BINS)) / OFDM_FFT_SIZE
        return freq

    def estimate_channel(self, ltf_samples):
        """LS channel estimate on the 52 used subcarriers from the LTF."""
        sym1 = ltf_samples[32 : 32 + 64]
        sym2 = ltf_samples[96 : 96 + 64]
        scale = np.sqrt(len(_USED_BINS)) / OFDM_FFT_SIZE
        f1 = np.fft.fft(sym1) * scale
        f2 = np.fft.fft(sym2) * scale
        avg = 0.5 * (f1 + f2)
        h = np.zeros(OFDM_FFT_SIZE, dtype=np.complex128)
        h[_USED_BINS] = avg[_USED_BINS] / _LTF_FREQ
        return h

    def receive(self, samples, noise_var, return_details=False):
        """Demodulate a PPDU waveform back into the PSDU bytes.

        Parameters
        ----------
        samples : array of complex
            Received baseband at 20 Msps, aligned to the PPDU start.
        noise_var : float
            Complex noise variance per sample (used to weight soft bits).
        return_details : bool
            If True, also return a dict of intermediate results.

        Raises
        ------
        DemodulationError
            If the SIGNAL field is unparseable (analogous to a missed
            preamble in hardware).
        """
        samples = np.asarray(samples, dtype=np.complex128).ravel()
        if samples.size < PREAMBLE_SAMPLES + OFDM_SYMBOL_SAMPLES:
            raise DemodulationError("waveform shorter than preamble + SIGNAL")
        psdus, details, errors = self._receive_rows(
            samples[None, :], np.array([noise_var], dtype=float)
        )
        if errors[0] is not None:
            raise errors[0]
        if return_details:
            return psdus[0], details[0]
        return psdus[0]

    def receive_batch(self, samples, noise_vars):
        """Demodulate a batch of PPDU waveforms in one vectorized pass.

        Parameters
        ----------
        samples : (batch, n_samples) complex array
            One received waveform per row, aligned to the PPDU start.
        noise_vars : array of float
            Per-row complex noise variance per sample.

        Returns
        -------
        list
            Per row, the decoded PSDU ``bytes``, or ``None`` where
            demodulation failed (the per-packet analogue of the
            :class:`DemodulationError` the scalar path raises).
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ConfigurationError(
                f"receive_batch expects a 2-D batch, got shape {samples.shape}"
            )
        if samples.shape[1] < PREAMBLE_SAMPLES + OFDM_SYMBOL_SAMPLES:
            raise DemodulationError("waveform shorter than preamble + SIGNAL")
        noise_vars = np.broadcast_to(
            np.asarray(noise_vars, dtype=float), (samples.shape[0],)
        )
        psdus, _, _ = self._receive_rows(samples, noise_vars)
        return psdus

    def _data_soft_bits(self, rows, row_ids, h, nv_data, cursor, n_sym):
        """Deinterleaved DATA-field LLRs of ``rows[row_ids]``.

        FFT, pilot common-phase correction, equalisation, soft demapping
        and deinterleaving for ``n_sym`` symbols from sample ``cursor``;
        ``nv_data`` holds the rows' per-data-carrier noise variances.
        """
        g = row_ids.size
        # Each stage drops its input as it goes: this is the receive
        # chain's memory high-water mark.
        freq = self._fft_symbols(rows[
            row_ids, cursor : cursor + n_sym * OFDM_SYMBOL_SAMPLES
        ].reshape(g, n_sym, OFDM_SYMBOL_SAMPLES))
        hg = h[row_ids]
        # Common phase error from the four pilots, per row and symbol.
        polarity = _POLARITY[(np.arange(n_sym) + 1) % 127]
        expected = (
            _PILOT_BASE[None, None, :] * polarity[None, :, None]
        ) * hg[:, None, :][:, :, _PILOT_BINS]
        cpe = np.angle(
            np.sum(freq[:, :, _PILOT_BINS] * np.conj(expected), axis=2)
        )
        freq *= np.exp(-1j * cpe)[:, :, None]
        eq = freq[:, :, _DATA_BINS] / hg[:, None, :][:, :, _DATA_BINS]
        del freq
        nv = np.broadcast_to(nv_data[:, None, :], eq.shape)
        llr = self.modulator.demodulate_soft(
            eq.ravel(), np.ascontiguousarray(nv).ravel()
        )
        return deinterleave(
            llr.reshape(g, n_sym * self.rate.n_cbps),
            self.rate.n_cbps, self.rate.bits_per_subcarrier,
        )

    def _receive_rows(self, rows, noise_vars):
        """Shared vectorized receiver over a (batch, n_samples) block.

        Returns parallel lists ``(psdus, details, errors)``; a failed row
        has ``psdus[i] is None`` and the would-be exception in
        ``errors[i]``.
        """
        batch = rows.shape[0]
        psdus = [None] * batch
        details = [None] * batch
        errors = [None] * batch

        # LS channel estimate from the two LTF repetitions, all rows at once.
        scale = np.sqrt(len(_USED_BINS)) / OFDM_FFT_SIZE
        f1 = np.fft.fft(rows[:, 192:256], axis=-1) * scale
        f2 = np.fft.fft(rows[:, 256:320], axis=-1) * scale
        avg = 0.5 * (f1 + f2)
        h = np.zeros((batch, OFDM_FFT_SIZE), dtype=np.complex128)
        h[:, _USED_BINS] = avg[:, _USED_BINS] / _LTF_FREQ

        good = ~np.any(np.abs(h[:, _USED_BINS]) < 1e-12, axis=1)
        for i in np.flatnonzero(~good):
            errors[i] = DemodulationError(
                "channel estimate has a null on a used bin"
            )
        active = np.flatnonzero(good)
        if active.size == 0:
            return psdus, details, errors

        # Per-subcarrier noise variance after the scaled FFT, for the
        # active rows only: a dropped row's null would divide by zero.
        h_data = h[active][:, _DATA_BINS]
        carrier_nv = noise_vars[active] * len(_USED_BINS) / OFDM_FFT_SIZE
        nv_data = carrier_nv[:, None] / np.abs(h_data) ** 2

        # SIGNAL field: one FFT + soft demap + Viterbi sweep for all rows.
        cursor = PREAMBLE_SAMPLES
        sig_freq = self._fft_symbols(
            rows[active, cursor : cursor + OFDM_SYMBOL_SAMPLES]
        )
        cursor += OFDM_SYMBOL_SAMPLES
        eq = sig_freq[:, _DATA_BINS] / h_data
        llr = self._signal_modulator.demodulate_soft(
            eq.ravel(), nv_data.ravel()
        )
        sig_soft = deinterleave(llr.reshape(active.size, 48), 48, 1)
        sig_bits = cc.viterbi_decode(sig_soft, 18, rate="1/2", terminated=True)

        groups = {}  # psdu_len -> list of (position in `active`, row index)
        tail = np.zeros(6, dtype=np.int8)
        for pos, i in enumerate(active):
            try:
                rate, psdu_len = self._parse_signal(
                    np.concatenate([sig_bits[pos], tail])
                )
                if rate.rate_mbps != self.rate_mbps:
                    raise DemodulationError(
                        f"SIGNAL advertises {rate.rate_mbps} Mbps but this "
                        f"receiver is configured for {self.rate_mbps} Mbps"
                    )
                needed = cursor + self.n_symbols(psdu_len) * OFDM_SYMBOL_SAMPLES
                if rows.shape[1] < needed:
                    raise DemodulationError(
                        f"waveform truncated: need {needed} samples, "
                        f"got {rows.shape[1]}"
                    )
            except DemodulationError as exc:
                errors[i] = exc
                continue
            groups.setdefault(psdu_len, []).append((pos, int(i)))

        n_cbps = self.rate.n_cbps
        for psdu_len, members in groups.items():
            row_ids = np.array([i for _, i in members])
            positions = np.array([pos for pos, _ in members])
            n_sym = self.n_symbols(psdu_len)
            g = row_ids.size
            # The front end runs in row blocks, each within the budget,
            # into one soft-bit matrix that a single trellis sweep reads.
            soft = np.empty((g, n_sym * n_cbps))
            entries = n_sym * (OFDM_SYMBOL_SAMPLES + (
                OFDM_DATA_SUBCARRIERS << self.rate.bits_per_subcarrier))
            per_block = max(1, RX_BLOCK_BUDGET // entries)
            for first in range(0, g, per_block):
                part = slice(first, first + per_block)
                soft[part] = self._data_soft_bits(
                    rows, row_ids[part], h, nv_data[positions[part]],
                    cursor, n_sym)
            # The tail sits between PSDU and pad, so the trellis does not
            # end in state zero: decode the whole field unterminated (still
            # ML over the payload region).
            decoded = cc.viterbi_decode(
                soft, n_sym * self.rate.n_dbps,
                rate=self.rate.code_rate, terminated=False,
            )
            descrambled = scramble(decoded, seed=self.scrambler_seed)
            payload_bits = descrambled[:, 16 : 16 + 8 * psdu_len]
            obs.counter("phy.ofdm.rx_symbols", g * (n_sym + 1))
            for (pos, i), bits in zip(members, payload_bits):
                psdus[i] = bytes_from_bits(bits)
                details[i] = {
                    "channel_estimate": h[i][_USED_BINS],
                    "n_symbols": n_sym,
                    "advertised_rate_mbps": self.rate_mbps,
                    "psdu_length": psdu_len,
                }
        return psdus, details, errors

    def spectral_efficiency(self, bandwidth_hz=20e6):
        """Peak spectral efficiency in bps/Hz (2.7 for 54 Mbps in 20 MHz)."""
        return self.rate_mbps * 1e6 / bandwidth_hz
