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
from repro.channel.models import TGN_PROFILES, tgn_channel
from repro.core.mc import analytic_result, run_grid_trials
# Not called here: perfbench/tracer.py patches this module's
# ``__dict__["run_trials"]``, and a missing key fails every traced run.
from repro.core.mc import run_trials  # noqa: F401
from repro.core.mc.stats import rate_interval
from repro.errors import ConfigurationError, ReproError
from repro.phy.cck import CckPhy
from repro.phy.dsss import DsssPhy
from repro.phy.fhss import GfskModem
from repro.phy.mimo.ht import HtPhy, VhtPhy
from repro.phy.ofdm import OfdmPhy
from repro.utils.bits import bits_from_bytes, bytes_from_bits, count_bit_errors
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
        kind, *fields = name.split("-")
        vht = kind in ("vht", "vht40", "vht80", "vht160")
        if not fields or len(fields) > (2 if vht else 1):
            raise ConfigurationError(f"unknown PHY configuration {name!r}")
        try:
            # The rate in Mbps, or the MCS index for HT/VHT.
            number = float(fields[0]) if kind == "cck" else int(fields[0])
            streams = int(fields[1].lstrip("x")) if len(fields) > 1 else 1
        except ValueError:
            raise ConfigurationError(
                f"malformed PHY configuration {name!r}") from None
        self.n_tx = self.n_rx = 1
        self._kind = "modem"
        self.rate_mbps = float(number)
        if kind == "dsss":
            modem = DsssPhy(number)
            self._phy = _BitModem(modem, modem.n_chips)
            self.sample_rate = modem.chip_rate_hz
        elif kind == "cck":
            modem = CckPhy(number)
            self._phy = _BitModem(modem, modem.n_chips)
            self.sample_rate = 11e6
        elif kind == "fhss":
            if number not in (1, 2):
                raise ConfigurationError(
                    f"FHSS rate must be 1 or 2 Mbps, got {number}")
            modem = GfskModem(levels=2 * number,
                              modulation_index=0.32 if number == 1 else 0.45)
            self._phy = _BitModem(modem, modem.n_samples, sized=True)
            self.sample_rate = 1e6 * modem.sps
        elif kind == "ofdm":
            self._phy = OfdmPhy(number)
            self._kind = "ofdm"
            self.sample_rate = 20e6
        elif kind in ("ht", "ht40") or vht:
            if vht:
                self._phy = VhtPhy(mcs=number, spatial_streams=streams,
                                   bandwidth_mhz=int(kind[3:] or 20),
                                   n_rx=n_rx or streams, detector=detector)
            else:
                streams = number // 8 + 1
                self._phy = HtPhy(mcs=number,
                                  bandwidth_mhz=40 if kind == "ht40" else 20,
                                  n_rx=n_rx or streams, detector=detector)
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

    # -- channel ------------------------------------------------------------

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
            batch_size=50, analytic_floor=None):
        """Send random payloads at one SNR through the MC engine.

        With ``precision=None`` (the default) exactly ``n_packets`` are
        sent, bit-identical to the seed-era serial loop at the same
        seed. With a precision target the engine keeps sending batches
        until the Wilson interval on the PER has relative half-width
        ``<= precision`` or ``max_trials`` packets have been spent;
        ``result.mc`` records which.

        Every PHY runs the point as a one-column grid of
        :func:`run_grid_trials`, each batch of ``batch_size`` packets
        one transmit/receive invocation — for HT/VHT one stacked MIMO
        detection and one trellis sweep; DSSS/CCK and FHSS modulate
        and demodulate packet by packet inside it. Draws come from
        ``self.rng`` in the per-packet order (:class:`SerialDraws`), so
        results do not depend on ``batch_size``.

        ``analytic_floor`` enables the analytic fast path: when the
        union-bound PER at this point is at or below the floor, no
        packets are sent at all — the result carries the bound with
        ``stop_reason="analytic"`` and consumes no RNG draws. Points
        the bound cannot cover (non-OFDM PHYs, fading channels, or
        bound above the floor) fall through to Monte-Carlo unchanged.
        """
        result, = _run_points(
            [(self, snr_db, self.rng)], n_packets, payload_bytes,
            ("link.run", {"phy": self.phy_name,
                          "channel": self.channel_name}),
            precision=precision, max_trials=max_trials,
            confidence=confidence, batch_size=batch_size,
            analytic_floor=analytic_floor)
        return result

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
                 analytic_floor=None, confidence=0.95, batch_size=50):
        """Cross-point sweep: all SNRs of this PHY in one kernel pass.

        Unlike :meth:`waterfall` (which runs the points one after the
        other, each with its own draws), a grid shares one payload /
        channel / noise realisation per trial index across every SNR
        (common random numbers) and amortises each transmit over all of
        them. Consumes exactly one draw from ``self.rng`` regardless of
        grid shape, so a grid and its cells run one at a time as
        one-cell grids are bit-identical. OFDM PHYs on awgn/rayleigh
        channels only; returns one result per SNR.
        """
        return run_link_grid(
            [self.phy_name], snr_values_db, n_packets, payload_bytes,
            channel=self.channel_name, analytic_floor=analytic_floor,
            confidence=confidence, batch_size=batch_size, rng=self.rng)[0]

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


# -- the grid engine (every PHY) ---------------------------------------------

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


class _BitModem:
    """A bit-level modem (DSSS, CCK, GFSK) behind the PSDU batch interface.

    The grid engine transmits and receives batches of PSDUs; these
    modems map one bit vector at a time, so each row is modulated and
    demodulated on its own. A row whose decode raises comes back as
    ``None``, which the engine counts as every payload bit in error.
    ``n_samples`` gives the waveform length for a bit count; ``sized``
    modems (GFSK) are told how many bits to demodulate. A modem symbol
    stands in for an OFDM symbol in the engine's row-step budget.
    """

    def __init__(self, modem, n_samples, sized=False):
        self.modem = modem
        self.n_dbps = modem.bits_per_symbol
        self._n_samples = n_samples
        self._sized = sized

    def n_symbols(self, psdu_bytes):
        """Data symbols of one ``psdu_bytes`` packet."""
        return 8 * psdu_bytes // self.n_dbps

    def n_samples(self, psdu_bytes):
        """Waveform length of one ``psdu_bytes`` packet."""
        return self._n_samples(8 * psdu_bytes)

    def transmit_batch(self, psdus):
        """``(m, n)`` waveforms of equal-length PSDUs, one row each."""
        out = np.empty((len(psdus), self.n_samples(len(psdus[0]))),
                       dtype=np.complex128)
        for row, psdu in zip(out, psdus):
            row[:] = self.modem.modulate(bits_from_bytes(psdu))
        return out

    def receive_batch(self, samples, noise_vars, psdu_bytes):
        """One PSDU (or ``None`` on a failed decode) per received row."""
        n_bits = (8 * psdu_bytes,) if self._sized else ()
        psdus = []
        for row in samples:
            try:
                psdus.append(bytes_from_bits(
                    self.modem.demodulate(row, *n_bits)))
            except ReproError:
                psdus.append(None)
        return psdus


def grid_trial_draws(entropy, t, payload_bytes, n_max, channel):
    """Base draws for grid trial ``t``: (payload, h, noise).

    One substream per trial index, derived only from ``entropy`` — the
    property a grid and its one-cell grids rely on for bit-identity.
    The noise normals are drawn interleaved (re, im) per sample so that
    a shorter PHY's noise vector is an exact prefix of a longer draw
    from the same substream: a grid called one rate at a time
    (perfbench's per-rate ``link-grid`` calls) sees the same noise as
    one multi-rate grid, whose draws are sized for its longest PHY.
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
    """Per-point draws from one generator, packet by packet.

    Each packet consumes ``rng`` (by default ``sim.rng``) in the
    seed-era serial order: payload bytes, then the channel realisation
    of ``sim``'s channel, then the noise normals — real block, then
    imaginary block, over the PHY's receive shape, as
    :func:`~repro.channel.awgn.awgn_noise` draws them (noise is scaled
    after drawing, so it can be drawn before the transmit power is
    known). A batched run therefore leaves the generator, and every
    count, as sending one packet at a time does, whatever the batch
    size.
    """

    def __init__(self, sim, rng=None):
        self.sim = sim
        self.rng = sim.rng if rng is None else rng
        # OFDM waveforms are 1-D; the others are (n_rx, n) per packet.
        self.lead = () if sim._kind == "ofdm" else (sim.n_rx,)

    def draw(self, lo, hi, payload_bytes, n_samples):
        """``(payloads, propagate, noise)`` for the next ``hi - lo`` packets.

        ``propagate`` applies each packet's own channel realisation to
        its row of a ``(m, [n_tx,] n)`` transmit batch.
        """
        rng = self.rng
        shape = self.lead + (n_samples,)
        payloads, channels = [], []
        noise = np.empty((hi - lo,) + shape, dtype=np.complex128)
        for i in range(hi - lo):
            payloads.append(_random_payload(rng, payload_bytes))
            channels.append(self.sim._draw_channel(rng))
            noise[i] = rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def propagate(tx):
            rx = np.empty(noise.shape[:-1] + (tx.shape[-1],),
                          dtype=np.complex128)
            for i, (channel, row) in enumerate(zip(channels, tx)):
                rx[i] = channel(np.atleast_2d(row)).reshape(rx.shape[1:])
            return rx
        return payloads, propagate, noise


def _add_noise(out, rx_clean, power, noise, snr_lin):
    """Write ``rx_clean`` plus ``noise`` scaled to ``snr_lin`` into ``out``.

    ``power`` holds each row's transmit power; returns the rows' noise
    variances. The product is formed in ``out`` first: addition
    commutes, so the sum is bit for bit ``rx_clean + scale * noise``.
    """
    noise_var = power / snr_lin
    scale = np.sqrt(noise_var / 2.0)
    np.multiply(scale.reshape(scale.shape + (1,) * (out.ndim - 1)), noise,
                out=out)
    out += rx_clean
    return noise_var


def _grid_fn(columns, payload_bytes):
    """The :func:`run_grid_trials` trial function of a link grid.

    Column ``k`` is ``columns[k] = (sim, snr_lin, source)``: PHY
    ``sim._phy`` at linear SNR ``snr_lin``, its packets drawn from
    ``source`` — a :class:`TrialSubstreams` that several columns share,
    or a :class:`SerialDraws` of its own. A PHY's columns are decoded
    stacked, as many per receive call as :data:`GRID_ROW_STEPS`
    allows, each column's noise added in place into the stacked
    receive block. Work is done one receive block at a time: a source
    is drawn when a block first needs it, sized for the longest PHY it
    serves, and transmitted once per PHY (a shared source with the
    PHY's first block, a column's own source with its block); its
    draws and noiseless receive rows are released with its last column.
    So a call holds the draws of one receive block, plus those of any
    shared source, however many columns it has. An HT/VHT packet is an
    ``(n_tx, n)`` transmit row and an ``(n_rx, n)`` receive row; a
    DSSS/CCK or FHSS packet is a chip or sample row of its
    :class:`_BitModem`.
    """
    sizes = {}
    for sim, _, source in columns:
        sizes[id(source)] = max(sizes.get(id(source), 0),
                                sim._phy.n_samples(payload_bytes))

    def grid_fn(lo, hi, points):
        m = hi - lo
        pkt = np.zeros(points.size, dtype=np.int64)
        bits = np.zeros(points.size, dtype=np.int64)
        by_phy = {}
        pending = {}  # source -> columns of this call not yet received
        for k, idx in enumerate(points):
            sim, snr, source = columns[int(idx)]
            by_phy.setdefault(id(sim), (sim, []))[1].append((k, snr, source))
            pending[id(source)] = pending.get(id(source), 0) + 1
        drawn = {}
        for sim, cols in by_phy.values():
            phy = sim._phy
            n = phy.n_samples(payload_bytes)
            if sim._kind == "ofdm":
                n_dbps = phy.rate.n_dbps
                receive = phy.receive_batch
            else:
                n_dbps = phy.n_dbps
                receive = functools.partial(phy.receive_batch,
                                            psdu_bytes=payload_bytes)
            # Every row decodes independently, so the rate's SNR columns
            # share one receive call (one detection and one data trellis
            # sweep) as far as the row budget allows.
            steps = phy.n_symbols(payload_bytes) * n_dbps
            per_call = max(1, GRID_ROW_STEPS // (m * steps))
            left = {}  # source -> this PHY's columns not yet received
            for _, _, src in cols:
                left[id(src)] = left.get(id(src), 0) + 1
            clean = {}  # source -> (noiseless receive rows, tx power)
            for first in range(0, len(cols), per_call):
                block = cols[first:first + per_call]
                fresh = list({id(src): src for _, _, src in block
                              if id(src) not in clean}.values())
                for src in fresh:
                    if id(src) not in drawn:
                        drawn[id(src)] = src.draw(lo, hi, payload_bytes,
                                                  sizes[id(src)])
                if fresh:
                    # (len(fresh) * m, [n_tx,] n): one transmit call.
                    tx = phy.transmit_batch(
                        [p for src in fresh for p in drawn[id(src)][0]])
                    # SNR convention: *average* received SNR. Channels
                    # have unit mean gain per antenna pair, so the
                    # expected receive power per antenna equals the
                    # total transmit power; scaling noise to that
                    # average (not to the instantaneous packet power)
                    # preserves per-packet fades — the whole point of
                    # diversity experiments. One whole-packet mean per
                    # row: an axis reduction over (n_tx, n) may sum in
                    # another order.
                    power = np.array([np.mean(np.abs(row) ** 2)
                                      for row in tx]) * sim.n_tx
                    for j, src in enumerate(fresh):
                        rows = slice(j * m, (j + 1) * m)
                        clean[id(src)] = (drawn[id(src)][1](tx[rows]),
                                          power[rows])
                    del tx
                rx_shape = clean[id(block[0][2])][0].shape[1:]
                noise_var = np.empty(len(block) * m)
                rx = np.empty((len(block) * m,) + rx_shape,
                              dtype=np.complex128)
                sent = []
                for j, (_, snr, src) in enumerate(block):
                    rows = slice(j * m, (j + 1) * m)
                    noise_var[rows] = _add_noise(
                        rx[rows], *clean[id(src)],
                        drawn[id(src)][2][..., :n], snr)
                    sent.append(drawn[id(src)][0])
                    left[id(src)] -= 1
                    if not left[id(src)]:
                        del clean[id(src)]
                    pending[id(src)] -= 1
                    if not pending[id(src)]:
                        del drawn[id(src)]
                psdus = receive(rx, noise_var)
                for j, (k, _, _) in enumerate(block):
                    for payload, got in zip(sent[j],
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
                  channel="awgn", analytic_floor=None, confidence=0.95,
                  batch_size=50, rng=None):
    """Run a whole (rate, SNR) grid through shared kernel invocations.

    The cross-point batcher behind :meth:`LinkSimulator.run_grid`. Trial
    ``i`` draws one payload, one channel realisation and one (maximum
    length) noise vector from a per-trial substream and reuses them at
    **every** grid point — payload bit generation and scrambling /
    coding / modulation happen once per rate (not once per SNR), and
    noise scaling is the only per-SNR work. Because draws hang off the
    trial index rather than a generator threaded through the points,
    each cell run alone as a one-cell grid with the same ``rng`` is
    bit-identical to the batched path — the property the grid tests
    pin down.

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
    # One draw regardless of grid shape: the entropy seeds per-trial
    # substreams, so draws depend only on the trial index.
    entropy = int(as_generator(rng).integers(0, 2 ** 63))
    source = TrialSubstreams(entropy, channel)
    grid_fn = _grid_fn([(sim, snr_lin, source) for sim in sims
                        for snr_lin in 10.0 ** (snrs / 10.0)], payload_bytes)

    bounds = {}
    for p, sim in enumerate(sims):
        for s, snr in enumerate(snrs):
            cell = sim._analytic_cell(snr, payload_bytes, floor)
            if cell is not None:
                bounds[p * n_snr + s] = cell
    analytic = {idx: cell["per"] for idx, cell in bounds.items()}

    with obs.span("link.grid", n_phys=len(sims), n_snrs=n_snr,
                  n_analytic=len(analytic)) as span, obs.timed() as clock:
        mcs = run_grid_trials(
            grid_fn, n_packets, n_points, target="packet_error",
            batch_size=batch_size, analytic=analytic, confidence=confidence)
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


def _run_points(cells, n_packets, payload_bytes, span, *, precision,
                max_trials, confidence, batch_size, analytic_floor):
    """Run independent points ``[(sim, snr_db, rng)]`` as one grid.

    Column ``i`` draws from ``cells[i]``'s own generator
    (:class:`SerialDraws`), scales its noise by Python's scalar
    ``10.0 ** (snr_db / 10.0)`` (numpy's array power can differ in the
    last bit) and stops by its own rule, so each result is independent
    of the other columns. Points whose union bound clears
    ``analytic_floor`` send no packets and consume no draws; when every
    point does, no grid runs. ``span`` is the ``(name, attrs)`` of the
    span around the grid (a single point's adds its ``snr_db``).
    """
    floor = _analytic_floor(analytic_floor)
    points = []
    for sim, snr_db, rng in cells:
        snr_db, n_packets, payload_bytes = validate_link_run_args(
            snr_db, n_packets, payload_bytes)
        points.append((sim, snr_db, rng,
                       sim._analytic_cell(snr_db, payload_bytes, floor)))
    analytic = {i: bounds["per"] for i, (*_, bounds) in enumerate(points)
                if bounds is not None}
    if analytic:
        obs.counter("link.analytic_points", len(analytic))
    if len(analytic) == len(points):
        mcs = [analytic_result(per, target="packet_error",
                               confidence=confidence)
               for per in analytic.values()]
    else:
        name, attrs = span
        if len(points) == 1:
            attrs = dict(attrs, snr_db=points[0][1])
        with obs.span(name, n_points=len(points), n_analytic=len(analytic),
                      **attrs) as span, obs.timed() as clock:
            grid_fn = _grid_fn(
                [(sim, 10.0 ** (snr_db / 10.0), SerialDraws(sim, rng))
                 for sim, snr_db, rng, _ in points], payload_bytes)
            mcs = run_grid_trials(
                grid_fn, n_packets, len(points), target="packet_error",
                batch_size=batch_size, analytic=analytic,
                confidence=confidence, precision=precision,
                max_trials=max_trials)
            sent = sum(mc.n_trials for mc in mcs)
            span.set(n_packets=sent,
                     packets_per_s=(sent / clock.elapsed
                                    if clock.elapsed > 0 else 0.0))
    return [sim._result(snr_db, payload_bytes, mc, bounds, floor)
            for (sim, snr_db, _, bounds), mc in zip(points, mcs)]


def run_link_points(points, n_packets=100, payload_bytes=100, *,
                    channel="awgn", n_rx=None, detector="mmse",
                    precision=None, max_trials=None, confidence=0.95,
                    batch_size=50, analytic_floor=None):
    """Many independent :meth:`LinkSimulator.run` points in one grid call.

    ``points`` is a sequence of ``(phy, snr_db, rng)``. Each point is a
    column of one :func:`run_grid_trials` call with a
    :class:`SerialDraws` on its own generator, its own noise scaling
    (Python's scalar ``10.0 ** (snr_db / 10.0)``, as :meth:`run`
    computes it) and its own stopping rule, so ``results[i]`` equals
    ``LinkSimulator(phy, channel, n_rx, detector, rng).run(snr_db, ...)``
    with the same options bit for bit: counts, interval, stop reason and
    the generator's final state. What the points share is kernel work —
    per trial batch, a PHY's points transmit in one batch and decode in
    one receive call (for OFDM one SIGNAL and one data trellis sweep).
    Points whose union bound clears ``analytic_floor`` send no packets,
    as in :meth:`run`.
    """
    points = list(points)
    if not points:
        raise ConfigurationError("run_link_points needs at least one point")
    sims = {}
    for phy, _, _ in points:
        if phy not in sims:
            sims[phy] = LinkSimulator(phy, channel, n_rx=n_rx,
                                      detector=detector)
    return _run_points(
        [(sims[phy], snr_db, as_generator(rng)) for phy, snr_db, rng
         in points], n_packets, payload_bytes,
        ("link.points", {"n_phys": len(sims), "channel": channel}),
        precision=precision, max_trials=max_trials, confidence=confidence,
        batch_size=batch_size, analytic_floor=analytic_floor)
