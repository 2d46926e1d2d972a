"""Regenerate ``phy_goldens.npz`` — the bit-exactness reference for PR 5.

The archive was captured by running THIS script against the pre-refactor
scalar PHY kernels (commit bfe1190). ``tests/test_phy_goldens.py`` replays
every case against the current code and asserts exact equality, so any
vectorization that changes a single bit or float ULP fails loudly.

The soft-LLR arrays ``mod_{1,2,4,6}_soft_{scalar,vec}`` were re-pinned
once, on purpose, when ``Modulator.demodulate_soft`` became one per-rail
max-log demapper for every order: it takes the same minima from per-rail
distance columns instead of the full n x M distance matrix, so its LLRs
moved by a few ULPs (<= 5.5e-15 relative). The earlier full-search values
are kept as ``mod_{bps}_soft_{scalar,vec}_fullsearch``, regenerated here
by :func:`full_search_llrs`, and the tests require the current LLRs to
match them within 1e-12 of the array's largest |LLR|. Every other array,
the hard decisions included, was left byte-identical.

Run from the repo root::

    PYTHONPATH=src python tests/goldens/generate_phy_goldens.py
    PYTHONPATH=src python tests/goldens/generate_phy_goldens.py --check

Only rerun it intentionally (e.g. to add cases); regenerating after a
behaviour change defeats the guard. ``--check`` regenerates the archive
in memory, prints every key whose bytes differ from the stored one, and
exits 1 if any do; it writes nothing.
"""

import argparse
import os
import sys

import numpy as np
from numpy.random import default_rng

from repro.channel.awgn import awgn_noise
from repro.core.link import LinkSimulator
from repro.phy import convolutional as cc
from repro.phy.dsss_ppdu import HrDsssPpdu
from repro.phy.interleaver import (
    deinterleave,
    ht_deinterleave,
    ht_interleave,
    interleave,
)
from repro.phy.mimo.ht import HtPhy
from repro.phy.modulation import Modulator
from repro.phy.ofdm import OFDM_RATES, OfdmPhy
from repro.phy.ofdm_ldpc import LdpcOfdmPhy
from repro.phy.scrambler import scrambler_sequence

OUT_PATH = os.path.join(os.path.dirname(__file__), "phy_goldens.npz")

PAYLOAD_BYTES = 40
HT_MCS_CASES = (0, 5, 8, 13)


def full_search_llrs(mod, symbols, noise_var):
    """Max-log LLRs from the full n x M constellation distance matrix.

    This is the demapper the soft-LLR goldens were first captured with,
    kept step for step so that its ``_fullsearch`` arrays regenerate
    bit-exactly.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    noise_var = np.broadcast_to(
        np.maximum(np.asarray(noise_var, dtype=float), 1e-12), symbols.shape)
    points = mod.constellation
    metric = -np.abs(symbols[:, None] - points[None, :]) ** 2
    metric = metric / noise_var[:, None]
    llrs = np.empty((symbols.size, mod.bits_per_symbol))
    for bit in range(mod.bits_per_symbol):
        mask0 = (np.arange(points.size) >> bit & 1) == 0
        llrs[:, bit] = (metric[:, mask0].max(axis=1)
                        - metric[:, ~mask0].max(axis=1))
    return llrs.ravel()


def generate():
    out = {}
    rng = default_rng(123)

    # -- scrambler --------------------------------------------------------
    for seed in (1, 64, 0x5D, 0x7F):
        out[f"scr_{seed}"] = scrambler_sequence(300, seed=seed)

    # -- interleaver (all OFDM rates) -------------------------------------
    for r, rate in sorted(OFDM_RATES.items()):
        bits = rng.integers(0, 2, 3 * rate.n_cbps).astype(np.int8)
        out[f"il_{r}_in"] = bits
        out[f"il_{r}_out"] = interleave(bits, rate.n_cbps,
                                        rate.bits_per_subcarrier)
        soft = rng.normal(size=3 * rate.n_cbps)
        out[f"dil_{r}_in"] = soft
        out[f"dil_{r}_out"] = deinterleave(soft, rate.n_cbps,
                                           rate.bits_per_subcarrier)

    # -- HT interleaver ----------------------------------------------------
    for bpsc in (1, 2, 4, 6):
        for bw in (20, 40):
            n_cbpss = (13 if bw == 20 else 18) * (4 if bw == 20 else 6) * bpsc
            bits = rng.integers(0, 2, 2 * n_cbpss).astype(np.int8)
            out[f"htil_{bpsc}_{bw}_in"] = bits
            out[f"htil_{bpsc}_{bw}_out"] = ht_interleave(bits, bpsc, bw)
            soft = rng.normal(size=2 * n_cbpss)
            out[f"htdil_{bpsc}_{bw}_in"] = soft
            out[f"htdil_{bpsc}_{bw}_out"] = ht_deinterleave(soft, bpsc, bw)

    # -- modulation --------------------------------------------------------
    for bps in (1, 2, 4, 6):
        mod = Modulator(bps)
        bits = rng.integers(0, 2, 24 * bps).astype(np.int8)
        syms = mod.modulate(bits)
        noisy = syms + 0.12 * (rng.normal(size=syms.shape)
                               + 1j * rng.normal(size=syms.shape))
        nv_vec = 0.01 + 0.02 * rng.random(syms.shape)
        out[f"mod_{bps}_bits"] = bits
        out[f"mod_{bps}_syms"] = syms
        out[f"mod_{bps}_noisy"] = noisy
        out[f"mod_{bps}_nv"] = nv_vec
        out[f"mod_{bps}_hard"] = mod.demodulate_hard(noisy)
        out[f"mod_{bps}_soft_scalar"] = mod.demodulate_soft(noisy, 0.02)
        out[f"mod_{bps}_soft_vec"] = mod.demodulate_soft(noisy, nv_vec)
        out[f"mod_{bps}_soft_scalar_fullsearch"] = full_search_llrs(
            mod, noisy, 0.02)
        out[f"mod_{bps}_soft_vec_fullsearch"] = full_search_llrs(
            mod, noisy, nv_vec)

    # -- convolutional coding ---------------------------------------------
    info = rng.integers(0, 2, 500).astype(np.int8)
    out["cc_in"] = info
    out["cc_enc_term"] = cc.encode(info, terminate=True)
    out["cc_enc_unterm"] = cc.encode(info, terminate=False)
    for tag, rate_s in (("12", "1/2"), ("23", "2/3"),
                        ("34", "3/4"), ("56", "5/6")):
        coded = cc.encode_punctured(info, rate=rate_s)
        soft = cc.hard_to_soft(coded) + 0.7 * rng.normal(size=coded.size)
        out[f"cc_soft_{tag}"] = soft
        out[f"cc_dec_{tag}"] = cc.viterbi_decode(soft, 500, rate=rate_s)

    # -- OFDM PHY, all 8 rates --------------------------------------------
    payload = bytes(rng.integers(0, 256, PAYLOAD_BYTES,
                                 dtype=np.uint8).tolist())
    out["payload"] = np.frombuffer(payload, dtype=np.uint8)
    for r in sorted(OFDM_RATES):
        phy = OfdmPhy(r)
        wave = phy.transmit(payload)
        out[f"ofdm_tx_{r}"] = wave
        noise_var = float(np.mean(np.abs(wave) ** 2)) / 10.0 ** (24.0 / 10.0)
        noisy = wave + awgn_noise(wave.shape, noise_var, default_rng(50 + r))
        out[f"ofdm_noisy_{r}"] = noisy
        out[f"ofdm_nv_{r}"] = np.float64(noise_var)
        out[f"ofdm_dec_{r}"] = np.frombuffer(phy.receive(noisy, noise_var),
                                             dtype=np.uint8)

    # -- HT PHY ------------------------------------------------------------
    for mcs in HT_MCS_CASES:
        streams = mcs // 8 + 1
        phy = HtPhy(mcs=mcs, n_rx=streams, detector="mmse")
        tx = phy.transmit(payload)
        out[f"ht_tx_{mcs}"] = tx
        chan_rng = default_rng(700 + mcs)
        h = (chan_rng.normal(size=(streams, streams))
             + 1j * chan_rng.normal(size=(streams, streams))) / np.sqrt(2)
        rx = h @ np.atleast_2d(tx)
        noise_var = (float(np.mean(np.abs(tx) ** 2)) * streams
                     / 10.0 ** (30.0 / 10.0))
        rx = rx + awgn_noise(rx.shape, noise_var, chan_rng)
        out[f"ht_rx_{mcs}"] = rx
        out[f"ht_nv_{mcs}"] = np.float64(noise_var)
        psdu = phy.receive(rx, noise_var, psdu_bytes=PAYLOAD_BYTES)
        out[f"ht_dec_{mcs}"] = np.frombuffer(psdu, dtype=np.uint8)

    # -- LDPC-coded OFDM ---------------------------------------------------
    lphy = LdpcOfdmPhy(bits_per_subcarrier=2, block_length=648,
                       code_rate="1/2")
    lwave = lphy.transmit(payload)
    out["ldpcofdm_tx"] = lwave
    noise_var = float(np.mean(np.abs(lwave) ** 2)) / 10.0 ** (10.0 / 10.0)
    lnoisy = lwave + awgn_noise(lwave.shape, noise_var, default_rng(99))
    out["ldpcofdm_noisy"] = lnoisy
    out["ldpcofdm_nv"] = np.float64(noise_var)
    out["ldpcofdm_dec"] = np.frombuffer(
        lphy.receive(lnoisy, noise_var, psdu_bytes=PAYLOAD_BYTES),
        dtype=np.uint8,
    )

    # -- 802.11b PPDU framing ---------------------------------------------
    ppdu = HrDsssPpdu(11)
    out["ppdu_header_bits"] = ppdu._preamble_and_header_bits(PAYLOAD_BYTES)
    pwave = ppdu.transmit(payload)
    out["ppdu_tx"] = pwave
    out["ppdu_dec"] = np.frombuffer(ppdu.receive(pwave), dtype=np.uint8)

    # -- fixed-budget link MC results (counts must stay bit-identical) ----
    link_cases = [
        ("ofdm-54", "awgn", 17, 16.0, 12, 60),
        ("ofdm-6", "rayleigh", 3, 12.0, 15, 30),
        ("ofdm-24", "tgn-C", 5, 26.0, 10, 60),
        ("ofdm-12", "rayleigh", 77, 14.0, 30, 40),
        ("ht-8", "rayleigh", 11, 18.0, 8, 40),
        ("dsss-1", "awgn", 2, 4.0, 10, 25),
    ]
    counts = []
    for phy_name, chan, seed, snr, n_pkt, n_bytes in link_cases:
        res = LinkSimulator(phy_name, chan, rng=seed).run(
            snr, n_packets=n_pkt, payload_bytes=n_bytes)
        counts.append([res.n_packets, res.n_packet_errors, res.n_bit_errors])
    out["link_cases"] = np.array(
        [[c[0], c[1], c[2]] for c in counts], dtype=np.int64)
    out["link_case_names"] = np.array(
        [f"{p}|{c}|{s}|{snr}|{n}|{b}"
         for p, c, s, snr, n, b in link_cases])

    return out


def differing_keys(out, path=OUT_PATH):
    """Keys whose dtype, shape or bytes differ between ``out`` and ``path``,
    including keys present on one side only."""
    with np.load(path) as stored:
        stored = {key: stored[key] for key in stored.files}
    differ = []
    for key in sorted(set(out) | set(stored)):
        if key not in out or key not in stored:
            differ.append(key)
            continue
        new, old = np.asarray(out[key]), stored[key]
        if (new.dtype != old.dtype or new.shape != old.shape
                or new.tobytes() != old.tobytes()):
            differ.append(key)
    return differ


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the stored archive; write nothing")
    args = ap.parse_args(argv)
    out = generate()
    if args.check:
        differ = differing_keys(out)
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(differ)} of {len(out)} arrays differ from {OUT_PATH}")
        return 1 if differ else 0
    np.savez_compressed(OUT_PATH, **out)
    print(f"wrote {OUT_PATH} with {len(out)} arrays "
          f"({os.path.getsize(OUT_PATH)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
