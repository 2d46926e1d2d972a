"""Gray-coded linear modulation used by every 802.11 OFDM rate.

The constellations follow the 802.11a mapping tables (clause 17.3.5.7):
unit *average* energy, Gray coding per I/Q rail, with the first half of a
symbol's bits selecting I and the second half selecting Q.

Both hard-decision demapping and max-log-MAP soft LLRs are provided; the
Viterbi and LDPC decoders consume the soft outputs. One per-rail demapper
serves every order, BPSK included (its Q rail carries no bits). It is
exact for Gray-coded square QAM: a point's squared distance to a symbol
is the sum of its I and Q rails' PAM distances, and each bit is carried
by one rail only, so in that bit's max-log LLR the other rail's minimum
appears in both terms and cancels. The LLR is then
``(min over the rail's levels with bit 1 of (v - a)^2 - min over those
with bit 0) / sigma^2``, taken from 2 x sqrt(M) length-n distance
columns instead of an n x M distance matrix, and hard decisions round
each rail to its nearest level.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from repro.errors import ConfigurationError, DemodulationError


def _kmod(bits_per_symbol):
    """Amplitude normalisation giving the constellation unit mean power.

    For square 2^b-QAM the mean symbol energy on the odd-integer grid is
    2*(4^(b/2) - 1)/3 (the familiar 2, 10, 42, 170, 682 sequence), so the
    scale is its inverse square root; BPSK is already unit energy.
    """
    if bits_per_symbol == 1:
        return 1.0
    return 1.0 / np.sqrt(2.0 * (4 ** (bits_per_symbol // 2) - 1) / 3.0)


#: Per-rail amplitude normalisation so the constellation has unit mean power.
_KMOD = {b: _kmod(b) for b in (1, 2, 4, 6, 8, 10)}


class Modulator:
    """Gray-mapped square QAM/PSK modulator-demodulator.

    Hard and soft demapping run per I/Q rail for every order: one column
    of squared distances per PAM level, and each Gray bit's max-log LLR
    from the minima over its two level sets. This equals the
    full-constellation max-log result up to rounding (see the module
    docstring for why).

    Parameters
    ----------
    bits_per_symbol : int
        1 (BPSK), 2 (QPSK), or an even order up to 10: 4 (16-QAM),
        6 (64-QAM), 8 (256-QAM), 10 (1024-QAM).

    Examples
    --------
    >>> mod = Modulator(2)
    >>> symbols = mod.modulate(np.array([0, 0, 1, 1], dtype=np.int8))
    >>> mod.demodulate_hard(symbols).tolist()
    [0, 0, 1, 1]
    """

    SUPPORTED = (1, 2, 4, 6, 8, 10)

    def __init__(self, bits_per_symbol):
        if not isinstance(bits_per_symbol, (int, np.integer)):
            raise ConfigurationError(
                f"bits_per_symbol must be an integer, got {bits_per_symbol!r}"
            )
        if bits_per_symbol not in self.SUPPORTED:
            detail = (
                "square QAM needs an even number of bits"
                if bits_per_symbol > 1 and bits_per_symbol % 2
                else "order not supported"
            )
            raise ConfigurationError(
                f"bits_per_symbol must be one of {self.SUPPORTED}, "
                f"got {bits_per_symbol} ({detail})"
            )
        self.bits_per_symbol = bits_per_symbol
        self.kmod = _KMOD[bits_per_symbol]
        if bits_per_symbol == 1:
            self._bits_i, self._bits_q = 1, 0
        else:
            self._bits_i = self._bits_q = bits_per_symbol // 2
        #: The per-rail tables, shared by the I and Q rails: the PAM
        #: levels (odd integers, ascending, scaled), each level's Gray
        #: label, and per label bit the level indices whose bit is 1 and 0.
        m = 1 << self._bits_i
        self._rail_levels = self.kmod * np.arange(-(m - 1), m, 2, dtype=float)
        self._level_to_gray = gray = np.arange(m) ^ (np.arange(m) >> 1)
        self._bit_levels = [
            (np.flatnonzero(gray >> b & 1).tolist(),
             np.flatnonzero((gray >> b & 1) == 0).tolist())
            for b in range(self._bits_i)
        ]
        self._constellation = self._build_constellation()
        #: Bits of each table index, LSB first: labels[value, bit].
        self._labels = ((np.arange(1 << bits_per_symbol)[:, None]
                         >> np.arange(bits_per_symbol)) & 1).astype(np.int8)
        #: Weights turning a (..., bits_per_symbol) bit block into the
        #: constellation table index (LSB-first, exact integer arithmetic).
        self._bit_weights = 1 << np.arange(self.bits_per_symbol)

    def _build_constellation(self):
        """Points indexed by bits value: low bits pick I, high bits Q."""
        label_to_level = np.argsort(self._level_to_gray)
        values = np.arange(1 << self.bits_per_symbol)
        low = values & ((1 << self._bits_i) - 1)
        points = self._rail_levels[label_to_level[low]].astype(np.complex128)
        if self._bits_q:
            high = values >> self._bits_i
            points.imag = self._rail_levels[label_to_level[high]]
        return points

    @property
    def constellation(self):
        """All 2**bits_per_symbol constellation points (copy)."""
        return self._constellation.copy()

    # -- modulation ------------------------------------------------------

    def modulate(self, bits):
        """Map a bit array (length divisible by bits_per_symbol) to symbols."""
        bits = np.asarray(bits).astype(np.int64)
        if bits.size % self.bits_per_symbol != 0:
            raise ConfigurationError(
                f"{bits.size} bits is not a multiple of {self.bits_per_symbol}"
            )
        groups = bits.reshape(-1, self.bits_per_symbol)
        values = groups @ self._bit_weights
        return self._constellation[values]

    # -- demodulation ----------------------------------------------------

    def _rails(self, symbols):
        """``(first bit, values)`` per I/Q rail that carries bits."""
        if self._bits_q == 0:
            return ((0, symbols.real),)
        return ((0, symbols.real), (self._bits_i, symbols.imag))

    def _nearest_point(self, symbols):
        """Constellation table index of the nearest point per symbol."""
        m = 1 << self._bits_i
        index = np.zeros(symbols.shape, dtype=np.int64)
        for first_bit, values in self._rails(symbols):
            level = np.clip(np.rint((values / self.kmod + (m - 1)) / 2.0),
                            0, m - 1).astype(np.int64)
            index |= self._level_to_gray[level] << first_bit
        return index

    def demodulate_hard(self, symbols):
        """Minimum-distance hard decisions, returned as a bit array."""
        symbols = np.asarray(symbols, dtype=np.complex128).ravel()
        return self._labels[self._nearest_point(symbols)].ravel()

    def demodulate_soft(self, symbols, noise_var):
        """Max-log-MAP bit LLRs.

        Positive LLR means bit = 0 is more likely, matching the convention
        ``LLR = log P(b=0|y) - log P(b=1|y)`` consumed by the decoders.
        The output is float64, ``bits_per_symbol`` LLRs per symbol in
        bit order.

        Parameters
        ----------
        symbols : array of complex
            Received (equalised) symbols.
        noise_var : float or array
            Per-symbol complex noise variance after equalisation. May be a
            scalar or an array broadcastable to ``symbols``; it is floored
            at 1e-12.
        """
        symbols = np.asarray(symbols, dtype=np.complex128).ravel()
        noise_var = np.broadcast_to(
            np.maximum(np.asarray(noise_var, dtype=float), 1e-12), symbols.shape
        )
        llrs = np.empty((symbols.size, self.bits_per_symbol))
        for first_bit, values in self._rails(symbols):
            # One column of squared distances per PAM level of the rail.
            dist = [(values - level) ** 2 for level in self._rail_levels]
            for bit, (ones, zeros) in enumerate(self._bit_levels):
                np.subtract(reduce(np.minimum, [dist[l] for l in ones]),
                            reduce(np.minimum, [dist[l] for l in zeros]),
                            out=llrs[:, first_bit + bit])
        llrs /= noise_var[:, None]
        return llrs.ravel()

    def symbol_error_positions(self, sent_symbols, received_symbols):
        """Boolean array marking which hard-decided symbols are wrong."""
        sent_symbols = np.asarray(sent_symbols).ravel()
        received_symbols = np.asarray(received_symbols).ravel()
        if sent_symbols.shape != received_symbols.shape:
            raise DemodulationError("symbol arrays must have equal length")
        d_sent = self._nearest_point(
            np.asarray(sent_symbols, dtype=np.complex128)
        )
        d_recv = self._nearest_point(
            np.asarray(received_symbols, dtype=np.complex128)
        )
        return d_sent != d_recv


def modulation_name(bits_per_symbol):
    """Human-readable name for a bits-per-symbol value.

    Derived, not listed: 1 is BPSK, 2 is QPSK, and every larger even
    order b up to 10 is square 2^b-QAM (16/64/256/1024-QAM).
    """
    if bits_per_symbol not in Modulator.SUPPORTED:
        raise ConfigurationError(
            f"no 802.11 modulation uses {bits_per_symbol} bits/symbol"
        )
    if bits_per_symbol == 1:
        return "BPSK"
    if bits_per_symbol == 2:
        return "QPSK"
    return f"{1 << bits_per_symbol}-QAM"
