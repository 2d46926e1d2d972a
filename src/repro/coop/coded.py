"""Coded cooperation: the relay sends *new parity*, not a repeat.

The paper is specific: third parties "regenerate and relay, **with
appropriate coding**, the original transmission". Plain decode-and-forward
repeats the same symbols (repetition coding); *coded cooperation*
(Hunter & Nosratinia) has the relay transmit additional redundancy
instead, so the destination assembles a stronger code.

Implementation on the library's own convolutional machinery: the source
broadcasts the rate-3/4-punctured subset of the mother code; a relay that
decodes it re-encodes and transmits the complementary (stolen) bits. The
destination fills the mother code's positions from both slots and decodes
at rate 1/2 — coding gain *plus* spatial diversity, against the same
airtime as repetition DF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.channel.fading import rayleigh_fading
from repro.core.mc import per_trial, run_trials
from repro.errors import ConfigurationError
from repro.phy import convolutional as cc
from repro.phy.modulation import Modulator
from repro.utils.bits import random_bits
from repro.utils.rng import as_generator

_FIRST_RATE = "3/4"  # what the source sends in slot 1


def _puncture_masks(n_mother_bits):
    """Boolean masks of mother-code positions sent in slot 1 and slot 2."""
    first = cc._puncture_mask(n_mother_bits, _FIRST_RATE)
    return first, ~first


@dataclass
class CodedCoopResult:
    """Outcome of one coded-cooperation configuration at one SNR.

    ``mc`` carries the engine's :class:`~repro.core.mc.McResult` for
    the *coded-cooperation BLER* — the target statistic of adaptive
    runs — including its confidence interval and stop reason.
    """

    snr_db: float
    n_blocks: int
    bler_direct: float
    bler_repetition: float
    bler_coded: float
    relay_decode_rate: float
    mc: object = None


class CodedCooperationSimulator:
    """Compare direct, repetition-DF and coded cooperation.

    All three schemes use the same two time slots and total energy:

    * direct — source sends the rate-3/4 code twice (repetition to itself);
    * repetition DF — relay repeats the same rate-3/4 coded bits; the
      destination MRC-combines the two copies;
    * coded cooperation — relay sends the complementary parity; the
      destination decodes the assembled rate-1/2 code.

    Parameters
    ----------
    info_bits : int
        Information bits per block.
    relay_gain_db : float
        Mean SNR advantage of the relay's links over the direct link.
    rng : seed or Generator
    """

    def __init__(self, info_bits=96, relay_gain_db=3.0, rng=None):
        if info_bits < 12:
            raise ConfigurationError("need at least 12 info bits")
        self.info_bits = int(info_bits)
        self.relay_gain = 10.0 ** (relay_gain_db / 10.0)
        self.rng = as_generator(rng)
        self.modulator = Modulator(1)  # BPSK keeps the comparison clean
        self.n_mother = 2 * (self.info_bits + 6)
        self._mask1, self._mask2 = _puncture_masks(self.n_mother)

    def _receive(self, symbols, h, noise_var):
        """Quasi-static fade ``h`` plus fresh noise."""
        noise = np.sqrt(noise_var / 2.0) * (
            self.rng.normal(size=symbols.size)
            + 1j * self.rng.normal(size=symbols.size)
        )
        return h * symbols + noise

    def _llrs(self, received, h, noise_var):
        eq = received / h
        nv = noise_var / np.abs(h) ** 2
        return self.modulator.demodulate_soft(eq, nv)

    def _one_block(self, rng, noise_var):
        """Simulate one block; returns the per-trial metric increments."""
        bits = random_bits(self.info_bits, rng)
        mother = cc.encode(bits, terminate=True).astype(float)
        slot1_bits = mother[self._mask1]
        slot2_bits = mother[self._mask2]
        x1 = self.modulator.modulate(slot1_bits.astype(np.int8))

        # Quasi-static block fading: one draw per link per block (the
        # regime where diversity, not SNR averaging, decides outcomes).
        h_sd = rayleigh_fading(1, rng)[0]
        h_sr = rayleigh_fading(1, rng)[0] * np.sqrt(self.relay_gain)
        h_rd = rayleigh_fading(1, rng)[0] * np.sqrt(self.relay_gain)

        # Slot 1: source broadcast; destination and relay listen.
        y_d1 = self._receive(x1, h_sd, noise_var)
        y_r1 = self._receive(x1, h_sr, noise_var)
        llr_d1 = self._llrs(y_d1, h_sd, noise_var)

        # Relay decodes the 3/4 code.
        llr_r1 = self._llrs(y_r1, h_sr, noise_var)
        relay_bits = cc.viterbi_decode(llr_r1, self.info_bits,
                                       rate=_FIRST_RATE)
        relay_ok = bool(np.array_equal(relay_bits, bits))

        # --- direct: source repeats slot 1 itself (same fade: no
        # spatial diversity, only 3 dB of chase-combining gain).
        y_d2 = self._receive(x1, h_sd, noise_var)
        llr_sum = llr_d1 + self._llrs(y_d2, h_sd, noise_var)
        direct_hat = cc.viterbi_decode(llr_sum, self.info_bits,
                                       rate=_FIRST_RATE)

        # --- repetition DF: relay repeats slot-1 bits if it decoded.
        if relay_ok:
            y_rep = self._receive(x1, h_rd, noise_var)
            llr_rep = llr_d1 + self._llrs(y_rep, h_rd, noise_var)
        else:
            llr_rep = llr_d1
        rep_hat = cc.viterbi_decode(llr_rep, self.info_bits,
                                    rate=_FIRST_RATE)

        # --- coded cooperation: relay sends the complementary parity.
        if relay_ok:
            x2 = self.modulator.modulate(slot2_bits.astype(np.int8))
            y_c2 = self._receive(x2, h_rd, noise_var)
            mother_llrs = np.zeros(self.n_mother)
            mother_llrs[self._mask1] = llr_d1
            mother_llrs[self._mask2] = self._llrs(y_c2, h_rd, noise_var)
            coded_hat = cc.viterbi_decode(mother_llrs, self.info_bits,
                                          rate="1/2")
        else:
            coded_hat = cc.viterbi_decode(llr_d1, self.info_bits,
                                          rate=_FIRST_RATE)

        return {
            "direct_failure": int(not np.array_equal(direct_hat, bits)),
            "repetition_failure": int(not np.array_equal(rep_hat, bits)),
            "coded_failure": int(not np.array_equal(coded_hat, bits)),
            "relay_decode": int(relay_ok),
        }

    def run(self, snr_db, n_blocks=200, *, precision=None, max_trials=None,
            confidence=0.95, batch_size=100):
        """Measure block error rates for all three schemes at one SNR.

        With ``precision=None`` exactly ``n_blocks`` run (bit-identical
        to the seed-era loop); with a precision target the engine stops
        once the Wilson CI on the coded-cooperation BLER is relatively
        tight enough or ``max_trials`` blocks have been spent.
        """
        noise_var = 10.0 ** (-snr_db / 10.0)
        with obs.span("coop.coded.run", snr_db=float(snr_db)) as span:
            mc = run_trials(
                per_trial(lambda rng: self._one_block(rng, noise_var)),
                n_trials=n_blocks, target="coded_failure", rng=self.rng,
                precision=precision, max_trials=max_trials,
                confidence=confidence, batch_size=batch_size)
            span.set(n_trials=mc.n_trials, stop_reason=mc.stop_reason)
        n = mc.n_trials
        return CodedCoopResult(
            snr_db=float(snr_db),
            n_blocks=n,
            bler_direct=mc.totals["direct_failure"] / n,
            bler_repetition=mc.totals["repetition_failure"] / n,
            bler_coded=mc.n_events / n,
            relay_decode_rate=mc.totals["relay_decode"] / n,
            mc=mc,
        )

    def sweep(self, snr_values_db, n_blocks=200, **mc_kwargs):
        """Run across an SNR grid."""
        return [self.run(s, n_blocks, **mc_kwargs)
                for s in np.atleast_1d(snr_values_db)]
