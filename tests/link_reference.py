"""Per-packet reference for :meth:`repro.core.link.LinkSimulator.run`.

``LinkSimulator.run`` sends every point through the grid engine: it
draws a batch of packets at a time (``SerialDraws``) and pushes the
batch through the PHY's batch interface. This module keeps the plain
serial loop the engine replaced. One packet at a time, it draws the
payload, then the channel (``sim._draw_channel``), then the noise
(:func:`~repro.channel.awgn.awgn_noise`) from ``sim.rng``, and calls the
modem's ``modulate``/``demodulate`` or the PHY's ``transmit``/``receive``
on that packet alone. Tests pin the engine to it bit for bit, and the
batching benchmarks time the engine against it, as
``tests/test_kernels.py::TestReferenceDecoder`` keeps the decoder's
plain-Python reference.
"""

import numpy as np

from repro.channel.awgn import awgn_noise
from repro.core.mc import per_trial, run_trials
from repro.errors import ReproError
from repro.phy.fhss import GfskModem
from repro.utils.bits import bits_from_bytes, count_bit_errors


def send_packet(sim, payload, snr_db):
    """``(bit_errors, packet_error)`` of one payload sent through ``sim``."""
    sent_bits = bits_from_bytes(payload)
    modem = getattr(sim._phy, "modem", None)  # DSSS/CCK and FHSS
    if modem is not None:
        tx = np.atleast_2d(modem.modulate(sent_bits))
    else:
        tx = np.atleast_2d(sim._phy.transmit(payload))
    rx = sim._draw_channel(sim.rng)(tx)
    # Noise scaled to the average received power, as the engine does.
    total_tx_power = float(np.mean(np.abs(tx) ** 2)) * tx.shape[0]
    noise_var = total_tx_power / 10.0 ** (snr_db / 10.0)
    rx = rx + awgn_noise(rx.shape, noise_var, sim.rng)
    try:
        if isinstance(modem, GfskModem):
            got_bits = modem.demodulate(rx.ravel(), sent_bits.size)
        elif modem is not None:
            got_bits = modem.demodulate(rx.ravel())
        elif sim._kind == "ofdm":
            got_bits = bits_from_bytes(sim._phy.receive(rx.ravel(), noise_var))
        else:
            got_bits = bits_from_bytes(sim._phy.receive(
                rx, noise_var, psdu_bytes=len(payload)))
        if got_bits.size != sent_bits.size:
            return sent_bits.size, True
        bit_errs = count_bit_errors(sent_bits, got_bits)
    except ReproError:
        # Undecodable frame: all payload bits counted in error.
        return sent_bits.size, True
    return bit_errs, bit_errs > 0


def reference_run(sim, snr_db, n_packets=100, payload_bytes=100, *,
                  precision=None, max_trials=None, confidence=0.95,
                  batch_size=50):
    """``sim.run(...)`` computed one packet at a time.

    Takes :meth:`LinkSimulator.run`'s Monte-Carlo arguments (no
    analytic fast path) and returns its :class:`LinkResult`.
    """
    snr_db = float(snr_db)

    def trial(rng):
        payload = bytes(rng.integers(0, 256, payload_bytes,
                                     dtype=np.uint8).tolist())
        errs, bad = send_packet(sim, payload, snr_db)
        return {"packet_error": int(bad), "bit_errors": int(errs)}

    mc = run_trials(per_trial(trial), n_trials=n_packets,
                    target="packet_error", rng=sim.rng, precision=precision,
                    max_trials=max_trials, confidence=confidence,
                    batch_size=batch_size)
    return sim._result(snr_db, payload_bytes, mc)
