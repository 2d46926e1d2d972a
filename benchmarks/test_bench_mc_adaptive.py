"""MC engine — adaptive precision targeting vs fixed trial budgets.

The claim: with a relative-precision target the engine spends trials
where the statistics need them. A saturated E3 waterfall point (PER
near 1) settles within a few batches; the same point under a fixed
budget burns every packet for no extra information. Both modes report
Wilson confidence intervals, so the saving is visible and honest.
"""

import numpy as np

from repro.core.link import LinkSimulator

# A representative E3 operating point: cck-11 deep in the waterfall
# (see the e3-dsss-cck campaign grid: -2 dB is its harshest column).
PHY, CHANNEL, SNR_DB = "cck-11", "awgn", -2.0
FIXED_BUDGET = 1000
PRECISION = 0.1  # the default relative CI half-width target
PAYLOAD = 50


def _compare():
    fixed = LinkSimulator(PHY, CHANNEL, rng=42).run(
        SNR_DB, n_packets=FIXED_BUDGET, payload_bytes=PAYLOAD)
    adaptive = LinkSimulator(PHY, CHANNEL, rng=42).run(
        SNR_DB, n_packets=FIXED_BUDGET, payload_bytes=PAYLOAD,
        precision=PRECISION, max_trials=FIXED_BUDGET, batch_size=50)
    return fixed, adaptive


def test_bench_mc_adaptive_vs_fixed(benchmark, report):
    fixed, adaptive = benchmark.pedantic(_compare, rounds=1, iterations=1)
    f_lo, f_hi = fixed.per_ci()
    a_lo, a_hi = adaptive.per_ci()
    lines = [
        f"point: {PHY} over {CHANNEL} @ {SNR_DB} dB "
        f"(precision target {PRECISION:.0%} rel. half-width)",
        f"fixed    : PER {fixed.per:.3f} [{f_lo:.3f}, {f_hi:.3f}]  "
        f"{fixed.n_packets} packets ({fixed.mc.stop_reason})",
        f"adaptive : PER {adaptive.per:.3f} [{a_lo:.3f}, {a_hi:.3f}]  "
        f"{adaptive.n_packets} packets ({adaptive.mc.stop_reason})",
        f"saving   : {FIXED_BUDGET / adaptive.n_packets:.0f}x fewer "
        f"packets for the same certified precision",
    ]
    report("MC: adaptive precision targeting vs a fixed trial budget",
           lines)

    # The acceptance criterion: the adaptive run reaches the default
    # PER precision with measurably fewer trials than the fixed budget.
    assert adaptive.mc.stop_reason == "precision"
    # Seeded, so the trial counts are exact: one 50-packet batch
    # certifies the precision, a 20x saving.
    assert fixed.n_packets == 1000
    assert adaptive.n_packets == 50
    assert FIXED_BUDGET / adaptive.n_packets == 20
    assert adaptive.mc.rel_half_width <= PRECISION
    # Both intervals cover the other mode's estimate: same physics.
    assert a_lo <= fixed.per <= a_hi

    benchmark.extra_info["fixed_trials"] = fixed.n_packets
    benchmark.extra_info["adaptive_trials"] = adaptive.n_packets
    benchmark.extra_info["adaptive_ci"] = [float(a_lo), float(a_hi)]


def test_bench_mc_adaptive_waterfall_allocation(benchmark, report):
    """Across a whole waterfall, adaptive mode spends packets at the
    knee and almost none at the saturated edges."""
    snrs = [-2.0, 2.0, 6.0, 10.0, 14.0]

    def sweep():
        sim = LinkSimulator("cck-5.5", CHANNEL, rng=7)
        return sim.waterfall(snrs, n_packets=400, payload_bytes=PAYLOAD,
                             precision=PRECISION, max_trials=400,
                             batch_size=25)

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["SNR (dB)   PER    [95% CI]          packets  stop"]
    for snr, r in zip(snrs, results):
        lo, hi = r.per_ci()
        lines.append(f"{snr:>7.1f}  {r.per:5.2f}  [{lo:.3f}, {hi:.3f}]  "
                     f"{r.n_packets:>7d}  {r.mc.stop_reason}")
    total = sum(r.n_packets for r in results)
    lines.append(f"total packets: {total} (fixed sweep would use "
                 f"{400 * len(snrs)})")
    report("MC: adaptive packet allocation across a PER waterfall", lines)

    assert total < 400 * len(snrs)
    assert total == 1575  # seeded: any change is a change of the engine
    # The zero-error tail can never certify relative precision — it must
    # honestly run to its ceiling instead of stopping early on 0.0.
    assert results[-1].per == 0.0
    assert results[-1].mc.stop_reason == "max_trials"
    assert np.isfinite([r.per for r in results]).all()
