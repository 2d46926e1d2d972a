"""Link rate adaptation over the generations' rate ladders.

Every rate ladder in the paper (1-2, 1-11, 6-54 Mbps, MCS 0-31) only pays
off if stations pick the right rung as the channel changes. Two classic
controllers are provided:

* :class:`ArfController` — Auto Rate Fallback (Kamerman & Monteban, the
  algorithm 2005-era cards actually shipped): step down after consecutive
  failures, probe upward after a success streak.
* :class:`SnrRateController` — genie-aided selection straight from the
  standard's SNR table with hysteresis; the upper bound ARF chases.

:func:`simulate_rate_adaptation` runs either controller over a fading SNR
trace using the logistic PER link abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.per import per_from_snr
from repro.errors import ConfigurationError
from repro.standards.registry import get_standard
from repro.utils.rng import as_generator
from repro.utils.validation import (require_finite, require_positive,
                                    require_snr_array)


class ArfController:
    """Auto Rate Fallback.

    Parameters
    ----------
    standard : Standard or str
        Supplies the ordered rate ladder.
    up_after : int
        Consecutive successes before probing the next rate up.
    down_after : int
        Consecutive failures before stepping down.
    """

    def __init__(self, standard="802.11a", up_after=10, down_after=2):
        std = get_standard(standard) if isinstance(standard, str) else standard
        self.ladder = sorted(std.rates, key=lambda r: r.rate_mbps)
        if up_after < 1 or down_after < 1:
            raise ConfigurationError("streak lengths must be >= 1")
        self.up_after = up_after
        self.down_after = down_after
        self.index = 0
        self._successes = 0
        self._failures = 0

    @property
    def current_rate(self):
        """The rate entry currently in use."""
        return self.ladder[self.index]

    def choose_rate(self, snr_db=None):
        """Rate for the next packet (ARF ignores the SNR argument)."""
        return self.current_rate

    def record(self, success):
        """Feed back the outcome of the last transmission."""
        if success:
            self._successes += 1
            self._failures = 0
            if (self._successes >= self.up_after
                    and self.index < len(self.ladder) - 1):
                self.index += 1
                self._successes = 0
        else:
            self._failures += 1
            self._successes = 0
            if self._failures >= self.down_after and self.index > 0:
                self.index -= 1
                self._failures = 0


class SnrRateController:
    """Genie-aided SNR-threshold rate selection with hysteresis."""

    def __init__(self, standard="802.11a", margin_db=1.0):
        std = get_standard(standard) if isinstance(standard, str) else standard
        self.standard = std
        self.ladder = sorted(std.rates, key=lambda r: r.rate_mbps)
        self.margin_db = margin_db
        self._last = self.ladder[0]

    @property
    def current_rate(self):
        """The most recently chosen rate entry."""
        return self._last

    def choose_rate(self, snr_db):
        """Highest rate whose threshold (plus margin) the SNR clears."""
        usable = [r for r in self.ladder
                  if r.required_snr_db + self.margin_db <= snr_db]
        self._last = usable[-1] if usable else self.ladder[0]
        return self._last

    def record(self, success):
        """SNR selection is open loop; outcomes are ignored."""


@dataclass
class AdaptationResult:
    """Outcome of a rate-adaptation run."""

    packets: int
    successes: int
    throughput_mbps: float
    mean_rate_mbps: float
    rate_switches: int

    @property
    def success_ratio(self):
        """Fraction of packets delivered."""
        return self.successes / self.packets if self.packets else 0.0


def fading_snr_trace(mean_snr_db, n_steps, doppler_hz=5.0,
                     packet_rate_hz=100.0, rng=None):
    """Per-packet SNR trace: mean SNR plus a Jakes-correlated Rayleigh fade."""
    from repro.channel.fading import jakes_process

    rng = as_generator(rng)
    fade = jakes_process(n_steps, doppler_hz, packet_rate_hz, rng=rng)
    gain_db = 10.0 * np.log10(np.maximum(np.abs(fade) ** 2, 1e-6))
    return mean_snr_db + gain_db


def simulate_rate_adaptation(controller, snr_trace_db, payload_bits=8000,
                             rng=None, link=None):
    """Run a controller over a per-packet SNR trace (saturated sender).

    Each step transmits one packet at the controller's chosen rate; the
    success probability comes from the logistic PER abstraction around the
    rate's required SNR. Throughput is airtime based — delivered payload
    bits over the channel time consumed — so slow rates pay their real
    cost and the result is directly comparable to the PHY rates.

    ``link`` replaces the logistic abstraction with a measured PER
    oracle — an :class:`~repro.surrogate.AbstractLink` over a surface
    whose phys cover the controller's ladder: each packet's success
    probability becomes ``link.per_for_rate(rate, snr)``, so the
    controller is exercised against the PHY the paper actually
    simulates instead of a smooth stand-in.

    The controller loop stays sequential (ARF's next rate depends on the
    last outcome), but its table work is batched: all uniforms are drawn
    up front with one ``rng.random(n)`` (the same numbers and generator
    state as ``n`` scalar draws), and the first time the controller picks
    a rung, that rung's PER is looked up over the whole trace at once. A
    rung the controller never picks costs nothing. Hence the ``link``
    contract: ``link.per_for_rate(rate_mbps, snr_db)`` must be a pure
    function of its arguments and must accept an SNR array.
    :class:`~repro.surrogate.AbstractLink` meets it, and so does a
    single-rate :class:`~repro.surrogate.WaveformLink`, whose memo is
    still visited in trace order.

    A non-finite SNR step or a non-positive ``payload_bits`` raises
    :class:`ConfigurationError` before ``rng`` is touched.
    """
    snr_trace_db = require_snr_array("snr_trace_db", snr_trace_db)
    require_positive("payload_bits", require_finite("payload_bits",
                                                    payload_bits))
    uniforms = as_generator(rng).random(snr_trace_db.size).tolist()
    # PER over the whole trace per rung, filled on the rung's first use;
    # keyed by rate and required SNR, the inputs of the two oracles.
    per_rows = {}
    successes = 0
    switches = 0
    rate_sum = 0.0
    airtime_s = 0.0
    last_rate = None
    for step, snr in enumerate(snr_trace_db):
        entry = controller.choose_rate(snr)
        if last_rate is not None and entry.rate_mbps != last_rate:
            switches += 1
        last_rate = entry.rate_mbps
        rate_sum += entry.rate_mbps
        airtime_s += payload_bits / (entry.rate_mbps * 1e6)
        key = (entry.rate_mbps, entry.required_snr_db)
        row = per_rows.get(key)
        if row is None:
            if link is not None:
                row = link.per_for_rate(entry.rate_mbps, snr_trace_db)
            else:
                row = per_from_snr(snr_trace_db, entry.required_snr_db)
            row = per_rows[key] = np.asarray(row, dtype=float).tolist()
        success = uniforms[step] > row[step]
        controller.record(success)
        successes += success
    throughput = successes * payload_bits / airtime_s / 1e6
    return AdaptationResult(
        packets=snr_trace_db.size,
        successes=successes,
        throughput_mbps=throughput,
        mean_rate_mbps=rate_sum / snr_trace_db.size,
        rate_switches=switches,
    )
