"""Symbol-level Monte-Carlo simulation of cooperative relaying.

Two-slot orthogonal cooperation over flat Rayleigh links:

* slot 1 — the source broadcasts; destination and relay both listen;
* slot 2 — decode-and-forward: the relay re-modulates *if it decoded the
  block correctly* (regeneration, as the paper describes);
  amplify-and-forward: the relay scales and repeats its noisy copy;
* the destination MRC-combines its two observations.

BER and block-outage are measured against the direct (no-relay) baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.channel.fading import rayleigh_fading
from repro.core.mc import per_trial, run_trials
from repro.errors import ConfigurationError
from repro.phy.modulation import Modulator
from repro.utils.bits import random_bits
from repro.utils.rng import as_generator


@dataclass
class RelayResult:
    """Error statistics of one cooperative configuration at one SNR.

    ``mc`` carries the engine's :class:`~repro.core.mc.McResult` for
    the *cooperative outage rate* — the target statistic of adaptive
    runs — including its confidence interval and stop reason.
    """

    protocol: str
    snr_db: float
    n_blocks: int
    ber_direct: float
    ber_cooperative: float
    outage_direct: float
    outage_cooperative: float
    relay_decode_rate: float
    mc: object = None


class RelaySimulator:
    """Cooperative-diversity link simulator.

    Parameters
    ----------
    protocol : str
        "df" (decode-and-forward) or "af" (amplify-and-forward).
    bits_per_symbol : int
        Modulation order (1 = BPSK, 2 = QPSK, ...).
    relay_gain_db : float
        Mean SNR advantage of the source-relay and relay-destination links
        over the direct link (relays are usually *between* the endpoints).
    rng : seed or Generator
    """

    def __init__(self, protocol="df", bits_per_symbol=1, relay_gain_db=0.0,
                 rng=None):
        if protocol not in ("df", "af"):
            raise ConfigurationError(f"protocol must be 'df' or 'af', got {protocol!r}")
        self.protocol = protocol
        self.modulator = Modulator(bits_per_symbol)
        self.relay_gain = 10.0 ** (relay_gain_db / 10.0)
        self.rng = as_generator(rng)

    def _noise(self, shape, var):
        return np.sqrt(var / 2.0) * (
            self.rng.normal(size=shape) + 1j * self.rng.normal(size=shape)
        )

    def _one_block(self, rng, block_bits, noise_var):
        """Simulate one block; returns the per-trial metric increments."""
        bits = random_bits(block_bits, rng)
        x = self.modulator.modulate(bits)
        h_sd = rayleigh_fading(1, rng)[0]
        h_sr = rayleigh_fading(1, rng)[0] * np.sqrt(self.relay_gain)
        h_rd = rayleigh_fading(1, rng)[0] * np.sqrt(self.relay_gain)

        y_sd = h_sd * x + self._noise(x.shape, noise_var)
        y_sr = h_sr * x + self._noise(x.shape, noise_var)

        # Direct baseline: coherent detection of slot-1 copy only.
        direct_hat = self.modulator.demodulate_hard(y_sd / h_sd)
        d_errs = int(np.count_nonzero(direct_hat != bits))

        if self.protocol == "df":
            relay_hat = self.modulator.demodulate_hard(y_sr / h_sr)
            relay_ok = bool(np.array_equal(relay_hat, bits))
            if relay_ok:
                x_r = self.modulator.modulate(relay_hat)
                y_rd = h_rd * x_r + self._noise(x.shape, noise_var)
                # MRC of the two coherent copies.
                num = (np.conj(h_sd) * y_sd + np.conj(h_rd) * y_rd)
                den = np.abs(h_sd) ** 2 + np.abs(h_rd) ** 2
                coop_hat = self.modulator.demodulate_hard(num / den)
            else:
                coop_hat = direct_hat
        else:  # amplify and forward
            # Relay normalises its received power to 1 then repeats.
            amp = 1.0 / np.sqrt(np.abs(h_sr) ** 2 + noise_var)
            y_rd = h_rd * amp * y_sr + self._noise(x.shape, noise_var)
            # Effective AF channel and noise for MRC weighting.
            h_eff = h_rd * amp * h_sr
            var_eff = noise_var * (np.abs(h_rd * amp) ** 2 + 1.0)
            num = (np.conj(h_sd) * y_sd / noise_var
                   + np.conj(h_eff) * y_rd / var_eff)
            den = (np.abs(h_sd) ** 2 / noise_var
                   + np.abs(h_eff) ** 2 / var_eff)
            coop_hat = self.modulator.demodulate_hard(num / den)
            relay_ok = True

        c_errs = int(np.count_nonzero(coop_hat != bits))
        return {
            "direct_bit_errors": d_errs,
            "coop_bit_errors": c_errs,
            "direct_outage": int(d_errs > 0),
            "coop_outage": int(c_errs > 0),
            "relay_decode": int(relay_ok),
        }

    def run(self, snr_db, n_blocks=200, block_bits=128, *,
            precision=None, max_trials=None, confidence=0.95,
            batch_size=100):
        """Simulate blocks at direct-link mean SNR ``snr_db``.

        Returns a :class:`RelayResult`. A block is in outage when any bit
        in it is wrong (uncoded block error). With ``precision=None``
        exactly ``n_blocks`` run (bit-identical to the seed-era loop);
        with a precision target the engine stops once the Wilson CI on
        the cooperative outage rate is relatively tight enough or
        ``max_trials`` blocks have been spent.
        """
        if block_bits % self.modulator.bits_per_symbol != 0:
            raise ConfigurationError(
                "block_bits must divide evenly into symbols"
            )
        snr = 10.0 ** (snr_db / 10.0)
        noise_var = 1.0 / snr

        with obs.span("relay.run", protocol=self.protocol,
                      snr_db=float(snr_db)) as span:
            mc = run_trials(
                per_trial(lambda rng: self._one_block(rng, block_bits,
                                                      noise_var)),
                n_trials=n_blocks, target="coop_outage", rng=self.rng,
                precision=precision, max_trials=max_trials,
                confidence=confidence, batch_size=batch_size)
            span.set(n_trials=mc.n_trials, stop_reason=mc.stop_reason)

        n = mc.n_trials
        total_bits = block_bits * n
        return RelayResult(
            protocol=self.protocol,
            snr_db=float(snr_db),
            n_blocks=n,
            ber_direct=mc.totals["direct_bit_errors"] / total_bits,
            ber_cooperative=mc.totals["coop_bit_errors"] / total_bits,
            outage_direct=mc.totals["direct_outage"] / n,
            outage_cooperative=mc.n_events / n,
            relay_decode_rate=mc.totals["relay_decode"] / n,
            mc=mc,
        )

    def sweep(self, snr_values_db, n_blocks=200, block_bits=128,
              **mc_kwargs):
        """Run across an SNR grid; returns a list of results."""
        return [self.run(s, n_blocks, block_bits, **mc_kwargs)
                for s in np.atleast_1d(snr_values_db)]
