"""E4 — 802.11a OFDM rate set (claim C4).

Paper: OFDM reached 54 Mbps / 2.7 bps/Hz, "essentially the best that
could be achieved within the practical constraints of cost and range".
The bench regenerates the 8-rate waterfall in AWGN and a multipath (TGn-C)
check at the top rate.
"""

import time

from repro.core.link import LinkSimulator, run_link_grid
from repro.phy.ofdm import OFDM_RATES

SNRS = [4.0, 10.0, 16.0, 22.0, 28.0]


def _waterfall():
    table = {}
    for rate in sorted(OFDM_RATES):
        sim = LinkSimulator(f"ofdm-{rate}", "awgn", rng=17)
        table[rate] = [sim.run(snr, n_packets=12, payload_bytes=60).per
                       for snr in SNRS]
    return table


def test_bench_ofdm_waterfall(benchmark, report):
    table = benchmark.pedantic(_waterfall, rounds=1, iterations=1)
    lines = ["SNR (dB):      " + "".join(f"{s:>7.0f}" for s in SNRS)]
    for rate, pers in table.items():
        lines.append(f"{rate:>3} Mbps  PER " +
                     "".join(f"{p:>7.2f}" for p in pers))
    lines.append("54 Mbps in 20 MHz = 2.7 bps/Hz (paper's OFDM ceiling)")
    report("E4: 802.11a OFDM PER waterfalls, 6-54 Mbps", lines)
    assert table[6][-1] == 0.0
    assert table[54][-1] <= 0.2
    assert table[54][0] >= table[6][0]  # top rate dies first at low SNR
    benchmark.extra_info["per_table"] = {str(k): list(map(float, v))
                                         for k, v in table.items()}


def test_bench_ofdm_multipath(benchmark, report):
    sim = LinkSimulator("ofdm-24", "tgn-C", rng=5)
    result = benchmark.pedantic(
        lambda: sim.run(26.0, n_packets=20, payload_bytes=60),
        rounds=1, iterations=1,
    )
    report(
        "E4b: OFDM through TGn-C multipath (channel estimation + EQ)",
        [f"24 Mbps @ 26 dB in TGn-C: PER = {result.per:.2f}, "
         f"goodput = {result.goodput_mbps:.1f} Mbps"],
    )
    assert result.per < 0.6


def _waterfall_timed(vectorized):
    """The E4 waterfall grid with an explicit per-packet/batched switch."""
    table = {}
    t0 = time.perf_counter()
    for rate in sorted(OFDM_RATES):
        sim = LinkSimulator(f"ofdm-{rate}", "awgn", rng=17)
        table[rate] = [sim.run(snr, n_packets=12, payload_bytes=60,
                               vectorized=vectorized).per
                       for snr in SNRS]
    return time.perf_counter() - t0, table


def test_bench_ofdm_batching_speedup(benchmark, report):
    """Batched PHY kernels vs the per-packet path on the same waterfall.

    Both paths feed the channel generator identically, so every PER on
    the grid must agree exactly; the batched path just amortises the
    FFT/interleave/Viterbi kernels over all packets of each run.
    """
    _waterfall_timed(True)  # warm the cached kernels before timing

    def both():
        # Best of three per side, so machine jitter does not masquerade
        # as a speedup change.
        scalar = [_waterfall_timed(False) for _ in range(3)]
        batched = [_waterfall_timed(True) for _ in range(3)]
        return (min(t for t, _ in scalar), min(t for t, _ in batched),
                scalar[0][1], batched[0][1])

    t_scalar, t_batched, table_scalar, table_batched = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    speedup = t_scalar / t_batched
    report(
        "E4c: batched OFDM PHY kernels vs per-packet simulation",
        [f"per-packet {t_scalar:.3f} s for the 8-rate x 5-SNR waterfall",
         f"batched    {t_batched:.3f} s  ->  {speedup:.2f}x single-core",
         "PER identical at every grid point (same seed, same draw order)"],
    )
    assert table_scalar == table_batched
    # Floor at 0.65x of the 5.35x once measured single-core; a 2-core
    # shared host measures 3.3-4.7x from one timing per side.
    assert speedup >= 3.48


def test_bench_ofdm_grid_fast_path(benchmark, report):
    """Cross-point grid + analytic fast path vs the per-point waterfall.

    Same E4c workload (8 rates x 5 SNRs x 12 packets), two executions:
    the per-point batched waterfall (one ``sim.run`` per grid cell, the
    fastest pre-grid path) against one ``run_link_grid`` call with the
    union-bound fast path at a 1e-6 PER floor. The grid skips the
    saturated high-SNR cells analytically and amortises each transmit
    over all SNRs of its rate; only the waterfall knee still pays for
    Monte Carlo packets. Timings take the best of two runs on both
    sides so machine jitter does not masquerade as a speedup change.
    """
    phys = [f"ofdm-{r}" for r in sorted(OFDM_RATES)]

    def grid():
        return run_link_grid(phys, SNRS, n_packets=12, payload_bytes=60,
                             rng=17, analytic_floor=1e-6)

    _waterfall_timed(True)  # warm the cached kernels before timing
    grid()

    def both():
        t_point = min(_waterfall_timed(True)[0] for _ in range(2))
        samples = []
        for _ in range(2):
            t0 = time.perf_counter()
            rows = grid()
            samples.append(time.perf_counter() - t0)
        return t_point, min(samples), rows

    t_point, t_grid, rows = benchmark.pedantic(both, rounds=1,
                                               iterations=1)
    speedup = t_point / t_grid
    flat = [r for row in rows for r in row]
    n_analytic = sum(r.analytic for r in flat)
    n_mc = len(flat) - n_analytic
    report(
        "E4c-grid: cross-point batching + analytic fast path",
        [f"per-point  {t_point:.3f} s for the 8-rate x 5-SNR waterfall",
         f"grid       {t_grid:.3f} s  ->  {speedup:.2f}x single-core",
         f"{n_analytic}/{len(flat)} cells settled by the union bound "
         f"(floor 1e-6), {n_mc} ran Monte Carlo"],
    )
    # The analytic cells really are below the floor, and the knee is
    # still simulated: the bound never silently replaces a lossy cell.
    assert all(r.per <= 1e-6 for r in flat if r.analytic)
    # The split is deterministic: it moves only when the bound does.
    assert n_analytic == 31
    assert n_mc == 9
    # Floor well under the 4.4x measured single-core.
    assert speedup >= 3.0
