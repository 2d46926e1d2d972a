"""Bit-exactness goldens for the vectorized PHY kernels (PR 5).

``tests/goldens/phy_goldens.npz`` was captured by running
``tests/goldens/generate_phy_goldens.py`` against the pre-refactor scalar
kernels. Every case here replays an input from the archive through the
current (vectorized) code and asserts the output is EXACTLY equal — same
bits for integer arrays, same ULPs for floats. A vectorization that
reorders a floating-point reduction fails these tests; that is the point.
"""

import os

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.channel.awgn import awgn_noise
from repro.core.link import LinkSimulator
from repro.errors import DemodulationError
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

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens",
                            "phy_goldens.npz")

PAYLOAD_BYTES = 40
HT_MCS_CASES = (0, 5, 8, 13)


@pytest.fixture(scope="module")
def gold():
    return np.load(GOLDENS_PATH)


def _payload(gold):
    return gold["payload"].tobytes()


class TestScramblerGoldens:
    @pytest.mark.parametrize("seed", [1, 64, 0x5D, 0x7F])
    def test_sequence(self, gold, seed):
        assert_array_equal(scrambler_sequence(300, seed=seed),
                           gold[f"scr_{seed}"])


class TestInterleaverGoldens:
    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_interleave(self, gold, rate):
        r = OFDM_RATES[rate]
        got = interleave(gold[f"il_{rate}_in"], r.n_cbps,
                         r.bits_per_subcarrier)
        assert_array_equal(got, gold[f"il_{rate}_out"])

    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_deinterleave(self, gold, rate):
        r = OFDM_RATES[rate]
        got = deinterleave(gold[f"dil_{rate}_in"], r.n_cbps,
                           r.bits_per_subcarrier)
        assert_array_equal(got, gold[f"dil_{rate}_out"])

    @pytest.mark.parametrize("bpsc", [1, 2, 4, 6])
    @pytest.mark.parametrize("bw", [20, 40])
    def test_ht_interleave(self, gold, bpsc, bw):
        got = ht_interleave(gold[f"htil_{bpsc}_{bw}_in"], bpsc, bw)
        assert_array_equal(got, gold[f"htil_{bpsc}_{bw}_out"])
        got = ht_deinterleave(gold[f"htdil_{bpsc}_{bw}_in"], bpsc, bw)
        assert_array_equal(got, gold[f"htdil_{bpsc}_{bw}_out"])


class TestModulationGoldens:
    @pytest.mark.parametrize("bps", [1, 2, 4, 6])
    def test_modulate(self, gold, bps):
        mod = Modulator(bps)
        assert_array_equal(mod.modulate(gold[f"mod_{bps}_bits"]),
                           gold[f"mod_{bps}_syms"])

    @pytest.mark.parametrize("bps", [1, 2, 4, 6])
    def test_demodulate(self, gold, bps):
        mod = Modulator(bps)
        noisy = gold[f"mod_{bps}_noisy"]
        assert_array_equal(mod.demodulate_hard(noisy),
                           gold[f"mod_{bps}_hard"])
        assert_array_equal(mod.demodulate_soft(noisy, 0.02),
                           gold[f"mod_{bps}_soft_scalar"])
        assert_array_equal(mod.demodulate_soft(noisy, gold[f"mod_{bps}_nv"]),
                           gold[f"mod_{bps}_soft_vec"])


class TestConvolutionalGoldens:
    def test_encode(self, gold):
        info = gold["cc_in"]
        assert_array_equal(cc.encode(info, terminate=True),
                           gold["cc_enc_term"])
        assert_array_equal(cc.encode(info, terminate=False),
                           gold["cc_enc_unterm"])

    @pytest.mark.parametrize("tag,rate", [("12", "1/2"), ("23", "2/3"),
                                          ("34", "3/4"), ("56", "5/6")])
    def test_viterbi(self, gold, tag, rate):
        got = cc.viterbi_decode(gold[f"cc_soft_{tag}"], 500, rate=rate)
        assert_array_equal(got, gold[f"cc_dec_{tag}"])


class TestOfdmGoldens:
    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_transmit(self, gold, rate):
        wave = OfdmPhy(rate).transmit(_payload(gold))
        assert_array_equal(wave, gold[f"ofdm_tx_{rate}"])

    @pytest.mark.parametrize("rate", sorted(OFDM_RATES))
    def test_receive(self, gold, rate):
        phy = OfdmPhy(rate)
        psdu = phy.receive(gold[f"ofdm_noisy_{rate}"],
                           float(gold[f"ofdm_nv_{rate}"]))
        assert_array_equal(np.frombuffer(psdu, dtype=np.uint8),
                           gold[f"ofdm_dec_{rate}"])


class TestHtGoldens:
    @pytest.mark.parametrize("mcs", HT_MCS_CASES)
    def test_transmit(self, gold, mcs):
        streams = mcs // 8 + 1
        phy = HtPhy(mcs=mcs, n_rx=streams, detector="mmse")
        assert_array_equal(phy.transmit(_payload(gold)),
                           gold[f"ht_tx_{mcs}"])

    @pytest.mark.parametrize("mcs", HT_MCS_CASES)
    def test_receive(self, gold, mcs):
        streams = mcs // 8 + 1
        phy = HtPhy(mcs=mcs, n_rx=streams, detector="mmse")
        psdu = phy.receive(gold[f"ht_rx_{mcs}"], float(gold[f"ht_nv_{mcs}"]),
                           psdu_bytes=PAYLOAD_BYTES)
        assert_array_equal(np.frombuffer(psdu, dtype=np.uint8),
                           gold[f"ht_dec_{mcs}"])


class TestLdpcOfdmGoldens:
    def test_transmit(self, gold):
        phy = LdpcOfdmPhy(bits_per_subcarrier=2, block_length=648,
                          code_rate="1/2")
        assert_array_equal(phy.transmit(_payload(gold)), gold["ldpcofdm_tx"])

    def test_receive(self, gold):
        phy = LdpcOfdmPhy(bits_per_subcarrier=2, block_length=648,
                          code_rate="1/2")
        psdu = phy.receive(gold["ldpcofdm_noisy"],
                           float(gold["ldpcofdm_nv"]),
                           psdu_bytes=PAYLOAD_BYTES)
        assert_array_equal(np.frombuffer(psdu, dtype=np.uint8),
                           gold["ldpcofdm_dec"])


class TestDsssPpduGoldens:
    def test_header_and_roundtrip(self, gold):
        ppdu = HrDsssPpdu(11)
        assert_array_equal(ppdu._preamble_and_header_bits(PAYLOAD_BYTES),
                           gold["ppdu_header_bits"])
        wave = ppdu.transmit(_payload(gold))
        assert_array_equal(wave, gold["ppdu_tx"])
        assert_array_equal(np.frombuffer(ppdu.receive(wave), dtype=np.uint8),
                           gold["ppdu_dec"])


class TestLinkMcGoldens:
    """Fixed-budget MC runs must stay bit-identical to the scalar era."""

    def _cases(self, gold):
        names = [str(s) for s in gold["link_case_names"]]
        for name, counts in zip(names, gold["link_cases"]):
            phy, chan, seed, snr, n_pkt, n_bytes = name.split("|")
            yield (phy, chan, int(seed), float(snr), int(n_pkt),
                   int(n_bytes), tuple(int(c) for c in counts))

    def test_fixed_budget_counts(self, gold):
        for phy, chan, seed, snr, n_pkt, n_bytes, want in self._cases(gold):
            res = LinkSimulator(phy, chan, rng=seed).run(
                snr, n_packets=n_pkt, payload_bytes=n_bytes)
            got = (res.n_packets, res.n_packet_errors, res.n_bit_errors)
            assert got == want, f"{phy}/{chan} seed {seed}: {got} != {want}"

    BATCHED_CASES = [
        ("ofdm-54", "awgn", 14.0, {}),
        ("ofdm-12", "rayleigh", 14.0, {}),
        ("ofdm-24", "tgn-C", 14.0, {}),
        ("ht-12", "tgn-C", 18.0, {}),
        ("ht-9", "rayleigh", 10.0, {"detector": "zf"}),
        ("ht-8", "rayleigh", 8.0, {"detector": "ml"}),
        ("ht-3", "rayleigh", 8.0, {"n_rx": 3}),
        ("ht-11", "tgn-B", 14.0, {"n_rx": 3, "detector": "zf"}),
        ("ht-0", "awgn", -1.5, {"n_rx": 2}),
        ("vht-8-x2", "tgn-D", 28.0, {}),
        ("vht40-4-x3", "rayleigh", 16.0, {"n_rx": 4}),
    ]

    def test_batched_matches_scalar_path(self, gold):
        """The vectorized trial path equals the per-packet loop exactly.

        Counts and the generator state after the run: the batched path
        must draw exactly what the per-packet loop draws, in its order.
        """
        for phy, chan, snr, kwargs in self.BATCHED_CASES:
            fast_sim = LinkSimulator(phy, chan, rng=31, **kwargs)
            slow_sim = LinkSimulator(phy, chan, rng=31, **kwargs)
            fast = fast_sim.run(snr, n_packets=10, payload_bytes=50,
                                batch_size=4)
            slow = slow_sim.run(snr, n_packets=10, payload_bytes=50,
                                batch_size=4, vectorized=False)
            case = f"{phy}/{chan} {kwargs}"
            assert (fast.n_packets, fast.n_packet_errors,
                    fast.n_bit_errors) == (slow.n_packets,
                                           slow.n_packet_errors,
                                           slow.n_bit_errors), case
            assert fast_sim.rng.bit_generator.state == \
                   slow_sim.rng.bit_generator.state, case


class TestBatchedWaveformEquivalence:
    """transmit_batch/receive_batch equal per-packet transmit/receive."""

    def test_ofdm_transmit_batch(self, gold):
        rng = np.random.default_rng(9)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(4)]
        phy = OfdmPhy(24)
        batch = phy.transmit_batch(payloads)
        for i, p in enumerate(payloads):
            assert_array_equal(batch[i], phy.transmit(p))

    def test_ofdm_receive_batch(self, gold):
        rng = np.random.default_rng(10)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(4)]
        phy = OfdmPhy(36)
        waves = phy.transmit_batch(payloads)
        noise_var = np.full(4, float(np.mean(np.abs(waves) ** 2))
                            / 10.0 ** (20.0 / 10.0))
        noisy = waves + awgn_noise(waves.shape, noise_var[0], rng)
        got = phy.receive_batch(noisy, noise_var)
        for i, p in enumerate(payloads):
            assert got[i] == phy.receive(noisy[i], noise_var[i])

    @pytest.mark.filterwarnings("error")
    def test_ofdm_receive_batch_mixed_rows(self):
        """One call stacking rows of every kind equals per-row receive().

        Rows at 0-30 dB, a row whose LTF is zeroed (its channel estimate
        is all nulls) and a shorter PSDU, zero-padded, whose SIGNAL field
        advertises a different length: each must come back exactly as
        ``receive`` on that row alone, PSDU or failure.
        """
        rng = np.random.default_rng(12)
        phy = OfdmPhy(24)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(7)]
        waves = phy.transmit_batch(payloads)
        short = phy.transmit(payloads[0][:12])
        rows = np.zeros((9, waves.shape[1]), dtype=np.complex128)
        rows[:7] = waves
        rows[7] = waves[0]
        rows[8, :short.size] = short
        snr_db = np.array([0.0, 3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 25.0, 25.0])
        power = np.mean(np.abs(waves[0]) ** 2)
        noise_var = power / 10.0 ** (snr_db / 10.0)
        for i, nv in enumerate(noise_var):
            rows[i] += awgn_noise(rows.shape[1], nv, rng)
        rows[7, 160:320] = 0.0  # LTF: a nulled channel estimate
        got = phy.receive_batch(rows, noise_var)
        for i in range(rows.shape[0]):
            try:
                want = phy.receive(rows[i], noise_var[i])
            except DemodulationError:
                want = None
            assert got[i] == want, f"row {i} at {snr_db[i]} dB"
        assert got[7] is None
        assert got[8] == payloads[0][:12]
        assert got[6] == payloads[6]

    @pytest.mark.parametrize("detector", ["mmse", "zf", "ml"])
    @pytest.mark.filterwarnings("error")
    def test_ht_receive_batch_mixed_rows(self, detector):
        """One HT call stacking rows at 0-30 dB equals per-row receive().

        Each row has its own Rayleigh channel and noise level; one row's
        HT-LTF is zeroed, so its channel estimate is all zero and linear
        detection fails on it. Every row must come back exactly as
        ``receive`` on that row alone, PSDU or failure, and the failed
        row must not fail the others.
        """
        rng = np.random.default_rng(13)
        phy = HtPhy(mcs=9, n_rx=3, detector=detector)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(8)]
        tx = phy.transmit_batch(payloads)
        h = (rng.normal(size=(8, 3, 2))
             + 1j * rng.normal(size=(8, 3, 2))) / np.sqrt(2)
        rows = h @ tx
        snr_db = np.array([0.0, 3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 25.0])
        power = np.mean(np.abs(tx[0]) ** 2) * 2
        noise_var = power / 10.0 ** (snr_db / 10.0)
        for i, nv in enumerate(noise_var):
            rows[i] += awgn_noise(rows.shape[1:], nv, rng)
        rows[7, :, :phy.n_samples(30) - phy.n_symbols(30)
             * phy.symbol_samples] = 0.0  # HT-LTF: a zero channel estimate
        got = phy.receive_batch(rows, noise_var, psdu_bytes=30)
        for i in range(rows.shape[0]):
            try:
                want = phy.receive(rows[i], noise_var[i], psdu_bytes=30)
            except DemodulationError:
                want = None
            assert got[i] == want, f"row {i} at {snr_db[i]} dB"
        if detector != "ml":
            assert got[7] is None
        assert got[6] == payloads[6]

    def test_ht_transmit_batch(self):
        rng = np.random.default_rng(14)
        payloads = [bytes(rng.integers(0, 256, 30, dtype=np.uint8).tolist())
                    for _ in range(3)]
        phy = HtPhy(mcs=12)
        batch = phy.transmit_batch(payloads)
        for i, p in enumerate(payloads):
            assert_array_equal(batch[i], phy.transmit(p))
