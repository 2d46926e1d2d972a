"""Grids whose columns each draw from their own generator.

``run_link_points`` runs many independent ``LinkSimulator.run`` points
as the columns of one grid, each column a ``SerialDraws`` on its own
generator. Every point must come out exactly as its own ``run()`` —
counts, stop reason, interval and the generator's final state — while
a PHY's points share its transmit and receive calls.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import link
from repro.core.link import LinkSimulator, run_link_points
from repro.phy import convolutional as cc
from repro.phy.ofdm import OfdmPhy


def _outcome(result):
    return (result.n_packets, result.n_packet_errors, result.n_bit_errors,
            result.mc.stop_reason, result.per_ci(), result.ber_ci(),
            result.mc.n_trials)


def _per_point(points, channel, **kwargs):
    gens = [np.random.default_rng(seed) for _, _, seed in points]
    results = [LinkSimulator(phy, channel, rng=g).run(snr, **kwargs)
               for (phy, snr, _), g in zip(points, gens)]
    return results, gens


def _batched(points, channel, **kwargs):
    gens = [np.random.default_rng(seed) for _, _, seed in points]
    results = run_link_points(
        [(phy, snr, g) for (phy, snr, _), g in zip(points, gens)],
        channel=channel, **kwargs)
    return results, gens


def _assert_same(points, channel, **kwargs):
    ref, ref_gens = _per_point(points, channel, **kwargs)
    got, got_gens = _batched(points, channel, **kwargs)
    for r, g, rg, gg in zip(ref, got, ref_gens, got_gens):
        assert _outcome(g) == _outcome(r)
        assert (g.phy, g.snr_db, g.rate_mbps) == (r.phy, r.snr_db,
                                                  r.rate_mbps)
        # The PCG64 state word: each column consumed exactly its draws.
        assert gg.bit_generator.state == rg.bit_generator.state
    return ref


OFDM_POINTS = [("ofdm-6", 2.0, 1), ("ofdm-54", 18.0, 2), ("ofdm-6", 4.0, 3),
               ("ofdm-24", 9.0, 4), ("ofdm-54", 21.0, 5)]


class TestMatchesPerPointRun:
    def test_ofdm_mixed_rates_fixed(self):
        ref = _assert_same(OFDM_POINTS, "awgn", n_packets=6,
                           payload_bytes=200, batch_size=4)
        # The points are not all trivial: some packets fail, some pass.
        errors = [r.n_packet_errors for r in ref]
        assert 0 < sum(errors) < sum(r.n_packets for r in ref)

    def test_ofdm_mixed_rates_adaptive(self):
        ref = _assert_same(OFDM_POINTS, "rayleigh", payload_bytes=100,
                           precision=0.3, max_trials=60, batch_size=10)
        assert {r.mc.stop_reason for r in ref} == {"precision",
                                                   "max_trials"}

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_ht_on_tgn(self, adaptive):
        kwargs = (dict(precision=0.5, max_trials=8, batch_size=4)
                  if adaptive else dict(n_packets=4, batch_size=3))
        _assert_same([("ht-12", 15.0, 5), ("ht-12", 22.0, 6)], "tgn-C",
                     payload_bytes=100, **kwargs)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_chip_and_fhss_modems(self, adaptive):
        kwargs = (dict(precision=0.5, max_trials=20, batch_size=5)
                  if adaptive else dict(n_packets=5))
        points = [("cck-11", 2.0, 5), ("cck-11", 6.0, 6),
                  ("fhss-2", 8.0, 7), ("fhss-2", 12.0, 8)]
        _assert_same(points, "awgn", payload_bytes=50, **kwargs)

    def test_analytic_points_consume_no_draws(self):
        points = [("ofdm-6", 28.0, 1), ("ofdm-54", 2.0, 2)]
        ref = _assert_same(points, "awgn", n_packets=4, payload_bytes=40,
                           analytic_floor=1e-6)
        assert ref[0].analytic and not ref[1].analytic
        fresh = np.random.default_rng(1)
        _, gens = _batched(points, "awgn", n_packets=4, payload_bytes=40,
                           analytic_floor=1e-6)
        assert gens[0].bit_generator.state == fresh.bit_generator.state


def _power_mismatch_snr():
    """An SNR where numpy's array power and Python's scalar power differ
    in the last bit on this host, or None."""
    snrs = np.round(np.arange(-20.0, 40.0, 0.01), 2)
    lin = 10.0 ** (snrs / 10.0)
    for snr, value in zip(snrs.tolist(), lin.tolist()):
        if value != 10.0 ** (snr / 10.0):
            return snr
    return None


class TestScalarNoiseScaling:
    def test_each_column_scales_noise_by_the_scalar_power(self, monkeypatch):
        snr = _power_mismatch_snr()
        if snr is None:
            pytest.skip("numpy's array power matches Python's on this host")
        seen = []
        receive = OfdmPhy.receive_batch

        def spy(self, samples, noise_vars):
            seen.append(np.array(noise_vars, dtype=float))
            return receive(self, samples, noise_vars)

        monkeypatch.setattr(OfdmPhy, "receive_batch", spy)
        points = [("ofdm-12", snr, 1), ("ofdm-12", snr + 3.0, 2)]
        _assert_same(points, "awgn", n_packets=3, payload_bytes=60)
        per_point, batched = seen[:2], seen[2]
        assert batched.tobytes() == np.concatenate(per_point).tobytes()


class TestOneReceivePerRate:
    def test_a_rates_points_share_its_receive_call(self, monkeypatch):
        calls = []
        receive = OfdmPhy.receive_batch

        def spy(self, samples, noise_vars):
            calls.append((self.rate_mbps, len(samples)))
            return receive(self, samples, noise_vars)

        monkeypatch.setattr(OfdmPhy, "receive_batch", spy)
        _batched(OFDM_POINTS, "awgn", n_packets=3, payload_bytes=100)
        assert sorted(calls) == [(6, 6), (24, 3), (54, 6)]

    def test_empty_point_list_is_rejected(self):
        with pytest.raises(link.ConfigurationError):
            run_link_points([])


class TestPointsMemory:
    """A grid of per-point columns holds one receive block's draws at a
    time: many SNRs of one rate peak at about one point's peak."""

    @staticmethod
    def _peak(n_points):
        points = [("ofdm-54", 20.0 + i, i) for i in range(n_points)]
        tracemalloc.start()
        try:
            _batched(points, "awgn", n_packets=50, payload_bytes=500,
                     batch_size=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    def test_many_snrs_peak_at_one_points_peak(self):
        # 50 rows of a 500-byte frame exceed the row-step budget, so
        # each column is its own receive block. Drawing and transmitting
        # every column up front peaked at ~1.7x one point (six columns).
        assert 50 * 4104 > link.GRID_ROW_STEPS
        assert self._peak(6) < 1.15 * self._peak(1)


class TestReceiveMemory:
    """The receive front end runs in row blocks: a 4-row 1500-byte
    6 Mbps batch must not hold four rows' front-end scratch at once."""

    @staticmethod
    def _peaks(rows, at_trellis):
        """``(front end, whole call)`` tracemalloc peaks of one receive.

        The front end's peak is the peak so far when the DATA field's
        trellis sweep starts (``at_trellis`` collects it), so the
        trellis, which grows with the rows whether or not the front end
        is blocked, does not mask it.
        """
        phy = OfdmPhy(6)
        rng = np.random.default_rng(1)
        psdus = [bytes(rng.integers(0, 256, 1500, dtype=np.uint8).tolist())
                 for _ in range(rows)]
        tx = phy.transmit_batch(psdus)
        rx = tx + 0.05 * (rng.normal(size=tx.shape)
                          + 1j * rng.normal(size=tx.shape))
        at_trellis.clear()
        tracemalloc.start()
        try:
            got = phy.receive_batch(rx, np.full(rows, 0.005))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == psdus
        return max(at_trellis), peak

    def test_four_row_peak_is_bounded(self, monkeypatch):
        at_trellis = []
        decode = cc.viterbi_decode

        def traced_decode(*args, **kwargs):
            at_trellis.append(tracemalloc.get_traced_memory()[1])
            return decode(*args, **kwargs)

        monkeypatch.setattr(cc, "viterbi_decode", traced_decode)
        front_one, _ = self._peaks(1, at_trellis)
        front_four, four = self._peaks(4, at_trellis)
        # A 6 Mbps block holds two such rows. Blocked, four rows' front
        # end peaks at ~2.0x one row's (4.0 vs 2.0 MB); unblocked, at
        # ~3.6x (7.1 MB). The whole call, trellis included, stays small.
        assert front_four < 2.5 * front_one
        assert four < 10e6
