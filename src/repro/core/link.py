"""End-to-end link simulation for every 802.11 generation.

A :class:`LinkSimulator` wires one PHY configuration to one channel model
and measures bit/packet error rates and goodput at given SNRs. PHY
configurations are named strings:

====================  =====================================================
name                  meaning
====================  =====================================================
``dsss-1, dsss-2``    802.11 Barker DSSS at 1 / 2 Mbps
``cck-5.5, cck-11``   802.11b CCK
``fhss-1, fhss-2``    802.11 FHSS (GFSK)
``ofdm-R``            802.11a/g OFDM, R in {6,9,12,18,24,36,48,54}
``ht-M``              802.11n HT MCS M (0-31), 20 MHz
``ht40-M``            802.11n HT MCS M, 40 MHz
``vht-M[-xS]``        802.11ac VHT MCS M (0-9), S streams (default 1), 20 MHz
``vht80-M-xS``        802.11ac VHT at 80 MHz (also vht40-, vht160-)
====================  =====================================================

Channels: ``awgn``, ``rayleigh`` (flat, per-packet) or ``tgn-X`` with X in
A-F (frequency-selective tapped delay line). SNR convention: average
received signal power per RX antenna over complex noise variance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.analysis.union_bound import (
    WEIGHT_SPECTRUM,
    union_bound_ber,
    union_bound_per,
)
from repro.channel.awgn import awgn_noise
from repro.channel.models import TGN_PROFILES, tgn_channel
from repro.core.mc import analytic_result, run_grid_trials, run_trials
from repro.core.mc.stats import rate_interval
from repro.errors import ConfigurationError, ReproError
from repro.phy.cck import CckPhy
from repro.phy.dsss import DsssPhy
from repro.phy.fhss import GfskModem
from repro.phy.mimo.ht import HtPhy, VhtPhy
from repro.phy.ofdm import OfdmPhy
from repro.utils.bits import bits_from_bytes, count_bit_errors
from repro.utils.rng import as_generator
from repro.utils.validation import require_snr_array, validate_link_run_args


@dataclass
class LinkResult:
    """Outcome of a batch of packet transmissions at one operating point.

    When produced by :meth:`LinkSimulator.run` the ``mc`` field carries
    the engine's :class:`~repro.core.mc.McResult` (CI on the PER, trial
    count, stop reason); :meth:`per_ci`/:meth:`ber_ci` recompute
    intervals from the stored counts at any confidence.
    """

    phy: str
    channel: str
    snr_db: float
    n_packets: int
    n_packet_errors: int
    n_bits: int
    n_bit_errors: int
    payload_bytes: int
    rate_mbps: float
    extras: dict = field(default_factory=dict)
    mc: object = None

    @property
    def analytic(self):
        """True when this point was resolved by a closed-form bound.

        Analytic points send zero packets: ``mc`` carries an
        :func:`~repro.core.mc.analytic_result` record
        (``stop_reason="analytic"``) and ``per``/``ber`` report the
        union-bound values instead of measurements.
        """
        return (self.mc is not None
                and getattr(self.mc, "stop_reason", None) == "analytic")

    @property
    def per(self):
        """Packet error rate (``nan`` when no packets were sent).

        A zero-trial result used to report 0.0 — indistinguishable from
        a genuinely error-free measurement; ``nan`` makes "no data"
        loud instead of flattering. Analytic points report the
        union-bound PER.
        """
        if self.analytic:
            return float(self.mc.estimate)
        if not self.n_packets:
            return float("nan")
        return self.n_packet_errors / self.n_packets

    @property
    def ber(self):
        """Raw payload bit error rate (``nan`` when no bits were sent).

        Analytic points report the union-bound BER.
        """
        if self.analytic:
            return float(self.extras["analytic"]["ber"])
        if not self.n_bits:
            return float("nan")
        return self.n_bit_errors / self.n_bits

    @property
    def goodput_mbps(self):
        """PHY rate discounted by packet loss."""
        return self.rate_mbps * (1.0 - self.per)

    def per_ci(self, confidence=0.95, method="wilson"):
        """``(lo, hi)`` interval on the packet error rate.

        Analytic points report ``(0, bound)`` — the union bound is
        one-sided, so the upper edge is the bound itself.
        """
        if self.analytic:
            return 0.0, float(self.mc.ci_high)
        return rate_interval(self.n_packet_errors, self.n_packets,
                             confidence, method)

    def ber_ci(self, confidence=0.95, method="wilson"):
        """``(lo, hi)`` interval on the bit error rate.

        Treats payload bits as independent Bernoulli trials — optimistic
        under bursty decoders, but a usable yardstick. Analytic points
        report ``(0, bound)``.
        """
        if self.analytic:
            return 0.0, self.ber
        return rate_interval(self.n_bit_errors, self.n_bits,
                             confidence, method)


class LinkSimulator:
    """Monte-Carlo link-level simulator.

    Parameters
    ----------
    phy : str
        PHY configuration name (see module docstring).
    channel : str
        "awgn", "rayleigh", or "tgn-A".."tgn-F".
    n_rx : int or None
        Receive antennas (defaults to the stream count; >1 enables receive
        diversity for HT PHYs).
    detector : str
        HT detector ("mmse", "zf", "ml").
    rng : seed or Generator

    Examples
    --------
    >>> sim = LinkSimulator("ofdm-24", "awgn", rng=1)
    >>> result = sim.run(snr_db=20.0, n_packets=50, payload_bytes=100)
    >>> result.per <= 1.0
    True
    """

    def __init__(self, phy, channel="awgn", n_rx=None, detector="mmse",
                 rng=None):
        self.phy_name = phy
        self.channel_name = channel
        self.rng = as_generator(rng)
        self._detector = detector
        self._make_phy(phy, n_rx, detector)
        self._validate_channel(channel)

    # -- construction -------------------------------------------------------

    def _make_phy(self, name, n_rx, detector):
        parts = name.split("-")
        kind = parts[0]
        if kind == "dsss":
            self._phy = DsssPhy(int(parts[1]))
            self._kind = "chips"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(parts[1])
            self.sample_rate = self._phy.chip_rate_hz
        elif kind == "cck":
            self._phy = CckPhy(float(parts[1]))
            self._kind = "chips"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(parts[1])
            self.sample_rate = 11e6
        elif kind == "fhss":
            rate = int(parts[1])
            self._phy = GfskModem(levels=2 if rate == 1 else 4,
                                  modulation_index=0.32 if rate == 1 else 0.45)
            self._kind = "fhss"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(rate)
            self.sample_rate = 1e6 * self._phy.sps
        elif kind == "ofdm":
            self._phy = OfdmPhy(int(parts[1]))
            self._kind = "ofdm"
            self.n_tx = 1
            self.n_rx = 1
            self.rate_mbps = float(parts[1])
            self.sample_rate = 20e6
        elif kind in ("ht", "ht40"):
            bw = 40 if kind == "ht40" else 20
            mcs = int(parts[1])
            streams = mcs // 8 + 1
            self._phy = HtPhy(mcs=mcs, bandwidth_mhz=bw,
                              n_rx=n_rx or streams, detector=detector)
            self._kind = "ht"
            self.n_tx = streams
            self.n_rx = n_rx or streams
            self.rate_mbps = self._phy.data_rate_mbps()
            self.sample_rate = self._phy.sample_rate
        elif kind in ("vht", "vht40", "vht80", "vht160"):
            bw = int(kind[3:]) if len(kind) > 3 else 20
            mcs = int(parts[1])
            streams = int(parts[2].lstrip("x")) if len(parts) > 2 else 1
            self._phy = VhtPhy(mcs=mcs, spatial_streams=streams,
                               bandwidth_mhz=bw, n_rx=n_rx or streams,
                               detector=detector)
            self._kind = "ht"
            self.n_tx = streams
            self.n_rx = n_rx or streams
            self.rate_mbps = self._phy.data_rate_mbps()
            self.sample_rate = self._phy.sample_rate
        else:
            raise ConfigurationError(f"unknown PHY configuration {name!r}")

    def _validate_channel(self, channel):
        if channel in ("awgn", "rayleigh"):
            return
        if channel.startswith("tgn-") and channel[4:].upper() in TGN_PROFILES:
            return
        raise ConfigurationError(
            f"unknown channel {channel!r}; use 'awgn', 'rayleigh' or 'tgn-A'..'tgn-F'"
        )

    # -- channel and one packet ---------------------------------------------

    def _draw_channel(self, rng):
        """Draw one channel realisation from ``rng``.

        Returns the function that propagates an (n_tx, N) waveform
        through it to (n_rx, N).
        """
        if self.channel_name == "awgn":
            if self.n_rx == self.n_tx:
                return lambda tx: tx
            # Receive diversity in AWGN: repeat the signal on each antenna.
            return lambda tx: np.tile(tx.sum(axis=0), (self.n_rx, 1))
        if self.channel_name == "rayleigh":
            h = (rng.normal(size=(self.n_rx, self.n_tx))
                 + 1j * rng.normal(size=(self.n_rx, self.n_tx))) / np.sqrt(2)
            return lambda tx: h @ tx
        tdl = tgn_channel(self.channel_name[4:].upper(), self.n_rx,
                          self.n_tx, sample_rate_hz=self.sample_rate, rng=rng)
        taps = tdl.draw()
        return lambda tx: tdl.apply(tx, taps)

    def _send_packet(self, payload, snr_db):
        """Returns (bit_errors, packet_error) for one payload transmission."""
        sent_bits = bits_from_bytes(payload)
        if self._kind in ("chips", "fhss"):
            tx = np.atleast_2d(self._phy.modulate(sent_bits))
        else:
            tx = np.atleast_2d(self._phy.transmit(payload))
        rx = self._draw_channel(self.rng)(tx)
        # SNR convention: *average* received SNR. Channels have unit mean
        # gain per antenna pair, so the expected receive power per antenna
        # equals the total transmit power; scaling noise to that average
        # (not to the instantaneous packet power) preserves per-packet
        # fades — the whole point of diversity experiments.
        total_tx_power = float(np.mean(np.abs(tx) ** 2)) * tx.shape[0]
        noise_var = total_tx_power / 10.0 ** (snr_db / 10.0)
        rx = rx + awgn_noise(rx.shape, noise_var, self.rng)

        try:
            if self._kind == "chips":
                got_bits = self._phy.demodulate(rx.ravel())
                bit_errs = count_bit_errors(sent_bits, got_bits)
            elif self._kind == "fhss":
                got_bits = self._phy.demodulate(rx.ravel(), sent_bits.size)
                bit_errs = count_bit_errors(sent_bits, got_bits)
            elif self._kind == "ofdm":
                got = self._phy.receive(rx.ravel(), noise_var)
                bit_errs = _byte_errors(payload, got)
            else:
                got = self._phy.receive(rx, noise_var,
                                        psdu_bytes=len(payload))
                bit_errs = _byte_errors(payload, got)
        except ReproError:
            # Undecodable frame: all payload bits counted in error.
            return sent_bits.size, True
        return bit_errs, bit_errs > 0

    # -- analytic fast path -------------------------------------------------

    def analytic_bounds(self, snr_db, payload_bytes=100):
        """Closed-form PER/BER bounds at one operating point, or None.

        Only OFDM PHYs on AWGN have a usable closed form: the union
        bound over the (133, 171) distance spectrum at the point's
        Eb/N0 (20 MHz channel, so ``Eb/N0 = SNR + 10 log10(20/rate)``).
        The bound ignores channel-estimation noise and SIGNAL-field
        decode failures, so it is trustworthy only where it is already
        tiny — callers gate on a floor (see ``analytic_floor``) rather
        than using it as a general-purpose PER model.
        """
        if self._kind != "ofdm" or self.channel_name != "awgn":
            return None
        code_rate = self._phy.rate.code_rate
        if code_rate not in WEIGHT_SPECTRUM:
            return None
        ebn0_db = float(snr_db) + 10.0 * np.log10(20.0 / self.rate_mbps)
        ber = float(min(union_bound_ber(ebn0_db, code_rate), 1.0))
        per = float(union_bound_per(ebn0_db, 8 * int(payload_bytes),
                                    code_rate))
        return {"per": per, "ber": ber, "ebn0_db": ebn0_db,
                "code_rate": code_rate, "method": "union-bound"}

    def _analytic_cell(self, snr_db, payload_bytes, floor):
        """The point's bounds when they clear ``floor``, else None."""
        if floor is None:
            return None
        bounds = self.analytic_bounds(snr_db, payload_bytes)
        if bounds is None or bounds["per"] > floor:
            return None
        return bounds

    def _result(self, snr_db, payload_bytes, mc, bounds=None, floor=None):
        """The :class:`LinkResult` of one point from its engine record.

        Analytic records (zero trials) carry their ``bounds`` and the
        floor they cleared in ``extras["analytic"]``.
        """
        return LinkResult(
            phy=self.phy_name,
            channel=self.channel_name,
            snr_db=float(snr_db),
            n_packets=mc.n_trials,
            n_packet_errors=mc.n_events,
            n_bits=8 * payload_bytes * mc.n_trials,
            n_bit_errors=int(mc.totals.get("bit_errors", 0)),
            payload_bytes=payload_bytes,
            rate_mbps=self.rate_mbps,
            extras=({} if bounds is None
                    else {"analytic": dict(bounds, floor=floor)}),
            mc=mc,
        )

    # -- batches ------------------------------------------------------------------

    def run(self, snr_db, n_packets=100, payload_bytes=100, *,
            precision=None, max_trials=None, confidence=0.95,
            batch_size=50, vectorized=None, analytic_floor=None):
        """Send random payloads at one SNR through the MC engine.

        With ``precision=None`` (the default) exactly ``n_packets`` are
        sent, bit-identical to the seed-era serial loop at the same
        seed. With a precision target the engine keeps sending batches
        until the Wilson interval on the PER has relative half-width
        ``<= precision`` or ``max_trials`` packets have been spent;
        ``result.mc`` records which.

        ``vectorized`` selects the batched PHY path (default: on for
        OFDM and HT/VHT PHYs, which support it): the point runs as a
        one-column grid of :func:`run_grid_trials`, each batch of
        packets one transmit/receive invocation — for HT/VHT one
        stacked MIMO detection and one trellis sweep. Draws come from
        ``self.rng`` in the per-packet order (:class:`SerialDraws`), so
        results are bit-identical either way. Pass ``False`` to force
        the per-packet loop.

        ``analytic_floor`` enables the analytic fast path: when the
        union-bound PER at this point is at or below the floor, no
        packets are sent at all — the result carries the bound with
        ``stop_reason="analytic"`` and consumes no RNG draws. Points
        the bound cannot cover (non-OFDM PHYs, fading channels, or
        bound above the floor) fall through to Monte-Carlo unchanged.
        """
        snr_db, n_packets, payload_bytes = validate_link_run_args(
            snr_db, n_packets, payload_bytes)
        floor = _analytic_floor(analytic_floor)
        bounds = self._analytic_cell(snr_db, payload_bytes, floor)
        if bounds is not None:
            obs.counter("link.analytic_points")
            mc = analytic_result(bounds["per"], target="packet_error",
                                 confidence=confidence)
            return self._result(snr_db, payload_bytes, mc, bounds, floor)
        vectorized = self._kind in ("ofdm", "ht") and (vectorized is None
                                                       or bool(vectorized))

        def trial(rng):
            payload = _random_payload(rng, payload_bytes)
            errs, bad = self._send_packet(payload, snr_db)
            obs.counter("link.packets")
            return {"packet_error": int(bad), "bit_errors": int(errs)}

        with obs.span("link.run", phy=self.phy_name,
                      channel=self.channel_name,
                      snr_db=float(snr_db)) as span, obs.timed() as clock:
            if vectorized:
                # Python's scalar power, as the per-packet loop computes
                # it; numpy's array power can differ in the last bit.
                grid_fn = _grid_fn([self], [10.0 ** (snr_db / 10.0)],
                                   payload_bytes, SerialDraws(self))
                mc, = run_grid_trials(
                    grid_fn, n_packets, 1, target="packet_error",
                    batch_size=batch_size, confidence=confidence,
                    precision=precision, max_trials=max_trials)
            else:
                mc = run_trials(trial, n_trials=n_packets,
                                target="packet_error", rng=self.rng,
                                precision=precision, max_trials=max_trials,
                                confidence=confidence, batch_size=batch_size)
            span.set(n_trials=mc.n_trials, stop_reason=mc.stop_reason,
                     vectorized=vectorized,
                     packets_per_s=(mc.n_trials / clock.elapsed
                                    if clock.elapsed > 0 else 0.0))
        return self._result(snr_db, payload_bytes, mc)

    def waterfall(self, snr_values_db, n_packets=100, payload_bytes=100,
                  **mc_kwargs):
        """Run a PER/BER sweep across SNR values; returns list of results.

        ``mc_kwargs`` (``precision``, ``max_trials``, ``confidence``,
        ``batch_size``) pass through to :meth:`run`, so an adaptive
        sweep spends few packets on saturated points and many on the
        waterfall knee. Empty or non-finite SNR arrays are rejected up
        front — the same contract the surrogate path enforces.
        """
        snrs = require_snr_array("snr_values_db", snr_values_db)
        with obs.span("link.waterfall", phy=self.phy_name,
                      channel=self.channel_name, n_points=len(snrs)):
            return [self.run(snr, n_packets, payload_bytes, **mc_kwargs)
                    for snr in snrs]

    def run_grid(self, snr_values_db, n_packets=100, payload_bytes=100, *,
                 cross_point=True, analytic_floor=None, confidence=0.95,
                 batch_size=50):
        """Cross-point sweep: all SNRs of this PHY in one kernel pass.

        Unlike :meth:`waterfall` (which runs the points one after the
        other, each with its own draws), a grid shares one payload /
        channel / noise realisation per trial index across every SNR
        (common random numbers) and amortises each transmit over all of
        them. Consumes exactly one draw from ``self.rng`` regardless of
        grid shape, so ``cross_point=True`` and the per-point reference
        ``cross_point=False`` are bit-identical. OFDM PHYs on
        awgn/rayleigh channels only; returns one result per SNR.
        """
        return run_link_grid(
            [self.phy_name], snr_values_db, n_packets, payload_bytes,
            channel=self.channel_name, cross_point=cross_point,
            analytic_floor=analytic_floor, confidence=confidence,
            batch_size=batch_size, rng=self.rng)[0]

    def snr_for_per(self, target_per=0.1, lo_db=-5.0, hi_db=45.0,
                    n_packets=100, payload_bytes=100, tolerance_db=0.5,
                    **mc_kwargs):
        """Bisect the SNR at which PER crosses ``target_per``.

        Monte-Carlo noise makes this approximate; increase ``n_packets``
        (or pass ``precision=``) for tighter answers. The low edge is
        probed first: when the target PER already holds at ``lo_db``
        the answer is ``lo_db`` and no bisection iterations are spent.
        """
        if not 0 < target_per < 1:
            raise ConfigurationError("target PER must be in (0, 1)")
        lo, hi = float(lo_db), float(hi_db)
        with obs.span("link.snr_for_per", phy=self.phy_name,
                      channel=self.channel_name,
                      target_per=float(target_per)) as span:
            if self.run(lo, n_packets, payload_bytes,
                        **mc_kwargs).per <= target_per:
                span.set(snr_db=lo, low_edge=True)
                return lo
            if self.run(hi, n_packets, payload_bytes,
                        **mc_kwargs).per > target_per:
                raise ConfigurationError(
                    f"PER target {target_per} not met even at {hi} dB"
                )
            while hi - lo > tolerance_db:
                mid = 0.5 * (lo + hi)
                if self.run(mid, n_packets, payload_bytes,
                            **mc_kwargs).per > target_per:
                    lo = mid
                else:
                    hi = mid
            span.set(snr_db=0.5 * (lo + hi))
        return 0.5 * (lo + hi)


# -- the grid engine (OFDM and HT/VHT) ---------------------------------------

#: Most rows x trellis steps one grid ``receive_batch`` call decodes. A
#: rate's SNR columns are stacked into one call up to this budget, so the
#: survivor decisions (64 bytes per row-step) stay under ~13 MB whatever
#: the grid's width; four 8-packet columns of a 500-byte frame (4,104
#: steps at 54 Mbps) fit in one call.
GRID_ROW_STEPS = 200_000


def _random_payload(rng, payload_bytes):
    return bytes(rng.integers(0, 256, payload_bytes, dtype=np.uint8).tolist())


def _byte_errors(sent, got):
    """Bit errors between two PSDUs; a wrong length fails every bit."""
    if len(got) != len(sent):
        return 8 * len(sent)
    return count_bit_errors(bits_from_bytes(sent), bits_from_bytes(got))


def grid_trial_draws(entropy, t, payload_bytes, n_max, channel):
    """Base draws for grid trial ``t``: (payload, h, noise).

    One substream per trial index, derived only from ``entropy`` — the
    property both grid execution modes (cross-point and per-point) rely
    on for bit-identity. The noise normals are drawn interleaved
    (re, im) per sample so that a shorter PHY's noise vector is an
    exact prefix of a longer draw from the same substream: a grid
    called one rate at a time (perfbench's per-rate ``link-grid``
    calls) sees the same noise as one multi-rate grid, whose draws are
    sized for its longest PHY.
    """
    g = np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(int(t),)))
    payload = _random_payload(g, payload_bytes)
    h = 1.0 + 0.0j
    if channel == "rayleigh":
        h = complex((g.normal() + 1j * g.normal()) / np.sqrt(2))
    raw = g.normal(size=(int(n_max), 2))
    return payload, h, raw[:, 0] + 1j * raw[:, 1]


class TrialSubstreams:
    """Grid draws: common random numbers hung off the trial index.

    Trial ``t`` takes its payload, flat channel and noise from
    :func:`grid_trial_draws` at ``entropy``, whichever columns it
    serves, so every column of a grid sees the same realisations.
    """

    def __init__(self, entropy, channel):
        self.entropy = entropy
        self.channel = channel

    def draw(self, lo, hi, payload_bytes, n_samples):
        """``(payloads, propagate, noise)`` for trials ``lo..hi-1``.

        ``propagate`` maps an ``(m, n)`` transmit batch to the noiseless
        receive batch; ``noise`` holds ``n_samples`` unscaled complex
        normals per trial.
        """
        payloads = []
        hs = np.empty(hi - lo, dtype=np.complex128)
        noise = np.empty((hi - lo, n_samples), dtype=np.complex128)
        for j, t in enumerate(range(lo, hi)):
            payload, hs[j], noise[j] = grid_trial_draws(
                self.entropy, t, payload_bytes, n_samples, self.channel)
            payloads.append(payload)
        if self.channel == "rayleigh":
            return payloads, lambda tx: hs[:, None] * tx, noise
        return payloads, lambda tx: tx, noise


class SerialDraws:
    """Per-point draws from one simulator's generator, packet by packet.

    Each packet consumes ``sim.rng`` in the per-packet loop's order:
    payload bytes, then the channel realisation, then the noise normals
    — real block, then imaginary block, over the PHY's receive shape, as
    :func:`~repro.channel.awgn.awgn_noise` draws them (noise is scaled
    after drawing, so it can be drawn before the transmit power is
    known). A batched run therefore leaves the generator, and every
    count, as the per-packet loop does.
    """

    def __init__(self, sim):
        self.sim = sim
        # OFDM waveforms are 1-D; HT/VHT ones are (n_rx, n) per packet.
        self.lead = () if sim._kind == "ofdm" else (sim.n_rx,)

    def draw(self, lo, hi, payload_bytes, n_samples):
        """``(payloads, propagate, noise)`` for the next ``hi - lo`` packets.

        ``propagate`` applies each packet's own channel realisation to
        its row of a ``(m, [n_tx,] n)`` transmit batch.
        """
        rng = self.sim.rng
        shape = self.lead + (n_samples,)
        payloads, channels = [], []
        noise = np.empty((hi - lo,) + shape, dtype=np.complex128)
        for i in range(hi - lo):
            payloads.append(_random_payload(rng, payload_bytes))
            channels.append(self.sim._draw_channel(rng))
            noise[i] = rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def propagate(tx):
            rx = np.stack([channel(np.atleast_2d(row))
                           for channel, row in zip(channels, tx)])
            return rx.reshape(noise.shape[:-1] + (tx.shape[-1],))
        return payloads, propagate, noise


def _grid_fn(sims, snr_lin, payload_bytes, source):
    """The :func:`run_grid_trials` trial function of an OFDM or HT grid.

    Column ``p * len(snr_lin) + s`` is PHY ``sims[p]`` at linear SNR
    ``snr_lin[s]``. Each call draws its trials once from ``source`` (a
    :class:`TrialSubstreams` or :class:`SerialDraws`), transmits them
    once per PHY, and decodes a PHY's SNR columns stacked in one
    receive call as far as :data:`GRID_ROW_STEPS` allows. An HT/VHT
    packet is an ``(n_tx, n)`` transmit row and an ``(n_rx, n)``
    receive row. A packet's noise power is the per-packet loop's
    ``mean |tx|^2 * n_tx``.
    """
    n_snr = len(snr_lin)
    lengths = [sim._phy.n_samples(payload_bytes) for sim in sims]
    n_max = max(lengths)

    def grid_fn(lo, hi, points):
        m = hi - lo
        payloads, propagate, noise = source.draw(lo, hi, payload_bytes, n_max)
        pkt = np.zeros(points.size, dtype=np.int64)
        bits = np.zeros(points.size, dtype=np.int64)
        by_phy = {}
        for k, idx in enumerate(points):
            p, s = divmod(int(idx), n_snr)
            by_phy.setdefault(p, []).append((k, s))
        for p, cols in sorted(by_phy.items()):
            phy = sims[p]._phy
            n = lengths[p]
            tx = phy.transmit_batch(payloads)  # (m, [n_tx,] n), shared by SNRs
            # One whole-packet mean per row, as the per-packet loop takes
            # it: an axis reduction over (n_tx, n) may sum in another order.
            power = np.array([np.mean(np.abs(row) ** 2) for row in tx]) \
                * sims[p].n_tx
            if sims[p]._kind == "ofdm":
                n_dbps = phy.rate.n_dbps
                receive = phy.receive_batch
            else:
                n_dbps = phy.n_dbps
                receive = functools.partial(phy.receive_batch,
                                            psdu_bytes=payload_bytes)
            rx_clean = propagate(tx)
            # Every row decodes independently, so the rate's SNR columns
            # share one receive call (one detection and one data trellis
            # sweep) as far as the row budget allows.
            steps = phy.n_symbols(payload_bytes) * n_dbps
            per_call = max(1, GRID_ROW_STEPS // (m * steps))
            for first in range(0, len(cols), per_call):
                block = cols[first:first + per_call]
                noise_var = np.empty(len(block) * m)
                rx = np.empty((len(block) * m,) + rx_clean.shape[1:],
                              dtype=np.complex128)
                for j, (_, s) in enumerate(block):
                    rows = slice(j * m, (j + 1) * m)
                    noise_var[rows] = power / snr_lin[s]
                    scale = np.sqrt(noise_var[rows] / 2.0)
                    rx[rows] = (rx_clean + scale.reshape(
                        (m,) + (1,) * (rx_clean.ndim - 1)) * noise[..., :n])
                psdus = receive(rx, noise_var)
                for j, (k, _) in enumerate(block):
                    for payload, got in zip(payloads,
                                            psdus[j * m:(j + 1) * m]):
                        if got is None:
                            errs = 8 * len(payload)
                        else:
                            errs = _byte_errors(payload, got)
                        bits[k] += errs
                        pkt[k] += int(errs > 0)
            obs.counter("link.packets", m * len(cols))
        return {"packet_error": pkt, "bit_errors": bits}

    return grid_fn


def _analytic_floor(floor):
    """``floor`` as a float in (0, 1), or None when the fast path is off."""
    if floor is None:
        return None
    floor = float(floor)
    if not 0.0 < floor < 1.0:
        raise ConfigurationError(
            f"analytic_floor must lie in (0, 1), got {floor}")
    return floor


def run_link_grid(phys, snr_values_db, n_packets=100, payload_bytes=100, *,
                  channel="awgn", cross_point=True, analytic_floor=None,
                  confidence=0.95, batch_size=50, rng=None):
    """Run a whole (rate, SNR) grid through shared kernel invocations.

    The cross-point batcher behind :meth:`LinkSimulator.run_grid`. Trial
    ``i`` draws one payload, one channel realisation and one (maximum
    length) noise vector from a per-trial substream and reuses them at
    **every** grid point — payload bit generation and scrambling /
    coding / modulation happen once per rate (not once per SNR), and
    noise scaling is the only per-SNR work. Because draws hang off the
    trial index rather than a generator threaded through the points,
    ``cross_point=False`` (the per-point reference execution, one
    engine run per grid point) is bit-identical to the batched path —
    the property the grid tests pin down.

    Parameters
    ----------
    phys : str or list of str
        OFDM PHY names (e.g. ``["ofdm-6", "ofdm-54"]``).
    snr_values_db : array-like
        SNR points shared by every PHY.
    channel : str
        "awgn" or "rayleigh" (flat per-packet). TGN channels consume
        RNG inside the tap generator and cannot share draws; use
        :meth:`LinkSimulator.waterfall` for those.
    analytic_floor : float or None
        Union-bound fast path: grid points whose bound is at or below
        the floor send no packets and come back flagged
        ``stop_reason="analytic"``.
    rng : seed or Generator
        Consumed exactly once (for the per-trial substream entropy).

    Returns
    -------
    list of lists of :class:`LinkResult`: ``results[p][s]`` for PHY
    ``p`` at SNR ``s``.
    """
    if isinstance(phys, str):
        phys = [phys]
    if not phys:
        raise ConfigurationError("phys must name at least one PHY")
    snrs = require_snr_array("snr_values_db", snr_values_db)
    _, n_packets, payload_bytes = validate_link_run_args(
        0.0, n_packets, payload_bytes)
    if channel not in ("awgn", "rayleigh"):
        raise ConfigurationError(
            f"cross-point grids support 'awgn' or 'rayleigh' channels, "
            f"got {channel!r}; run TGN sweeps through waterfall()")
    sims = [LinkSimulator(p, channel) for p in phys]
    for sim in sims:
        if sim._kind != "ofdm":
            raise ConfigurationError(
                f"cross-point grids support OFDM PHYs only, got "
                f"{sim.phy_name!r}; run it through waterfall()")
    floor = _analytic_floor(analytic_floor)

    n_snr = len(snrs)
    n_points = len(sims) * n_snr
    # One draw regardless of grid shape or execution mode: the entropy
    # seeds per-trial substreams, so draws depend only on the trial index.
    entropy = int(as_generator(rng).integers(0, 2 ** 63))
    grid_fn = _grid_fn(sims, 10.0 ** (snrs / 10.0), payload_bytes,
                       TrialSubstreams(entropy, channel))

    bounds = {}
    for p, sim in enumerate(sims):
        for s, snr in enumerate(snrs):
            cell = sim._analytic_cell(snr, payload_bytes, floor)
            if cell is not None:
                bounds[p * n_snr + s] = cell
    analytic = {idx: cell["per"] for idx, cell in bounds.items()}

    with obs.span("link.grid", n_phys=len(sims), n_snrs=n_snr,
                  cross_point=bool(cross_point),
                  n_analytic=len(analytic)) as span, obs.timed() as clock:
        if cross_point:
            mcs = run_grid_trials(
                grid_fn, n_packets, n_points, target="packet_error",
                batch_size=batch_size, analytic=analytic,
                confidence=confidence)
        else:
            # Per-point reference execution: same draws, one engine run
            # per grid point. Exists to *prove* the batched path right.
            mcs = []
            for idx in range(n_points):
                def one_point(lo, hi, points, _idx=idx):
                    return grid_fn(lo, hi, np.array([_idx], dtype=np.int64))
                mcs.extend(run_grid_trials(
                    one_point, n_packets, 1, target="packet_error",
                    batch_size=batch_size,
                    analytic=({0: analytic[idx]} if idx in analytic
                              else None),
                    confidence=confidence))
        sent = sum(mc.n_trials for mc in mcs)
        span.set(n_packets=sent,
                 packets_per_s=(sent / clock.elapsed
                                if clock.elapsed > 0 else 0.0))
        if analytic:
            obs.counter("link.analytic_points", len(analytic))

    return [[sim._result(snr, payload_bytes, mcs[p * n_snr + s],
                         bounds.get(p * n_snr + s), floor)
             for s, snr in enumerate(snrs)]
            for p, sim in enumerate(sims)]
