"""MC engine — adaptive precision targeting vs fixed trial budgets.

The claim: with a relative-precision target the engine spends trials
where the statistics need them. At a saturated E3 waterfall point
(PER 1.0) the first batch already certifies the target, so the saving
over a fixed budget is just ``FIXED_BUDGET / batch_size`` whatever the
target. At a knee point (mid-range PER) the target decides the count:
the run takes several batches, and halving the target makes it take
more. Both modes report Wilson confidence intervals, so the saving is
visible and honest.
"""

import numpy as np

from repro.core.link import LinkSimulator

# A representative E3 operating point: cck-11 deep in the waterfall
# (see the e3-dsss-cck campaign grid: -2 dB is its harshest column).
PHY, CHANNEL, SNR_DB = "cck-11", "awgn", -2.0
# The same PHY at its knee, where PER is ~0.66.
KNEE_SNR_DB = 5.0
FIXED_BUDGET = 1000
PRECISION = 0.1  # the default relative CI half-width target
PAYLOAD = 50
BATCH = 50


def _adaptive(snr_db, precision):
    return LinkSimulator(PHY, CHANNEL, rng=42).run(
        snr_db, n_packets=FIXED_BUDGET, payload_bytes=PAYLOAD,
        precision=precision, max_trials=FIXED_BUDGET, batch_size=BATCH)


def _compare():
    fixed = LinkSimulator(PHY, CHANNEL, rng=42).run(
        SNR_DB, n_packets=FIXED_BUDGET, payload_bytes=PAYLOAD)
    knee_fixed = LinkSimulator(PHY, CHANNEL, rng=42).run(
        KNEE_SNR_DB, n_packets=FIXED_BUDGET, payload_bytes=PAYLOAD)
    return (fixed, _adaptive(SNR_DB, PRECISION), knee_fixed,
            _adaptive(KNEE_SNR_DB, PRECISION),
            _adaptive(KNEE_SNR_DB, PRECISION / 2))


def test_bench_mc_adaptive_vs_fixed(benchmark, report):
    fixed, adaptive, knee_fixed, knee, knee_half = benchmark.pedantic(
        _compare, rounds=1, iterations=1)
    f_lo, f_hi = fixed.per_ci()
    a_lo, a_hi = adaptive.per_ci()
    k_lo, k_hi = knee.per_ci()
    lines = [
        f"point: {PHY} over {CHANNEL} @ {SNR_DB} dB "
        f"(precision target {PRECISION:.0%} rel. half-width)",
        f"fixed    : PER {fixed.per:.3f} [{f_lo:.3f}, {f_hi:.3f}]  "
        f"{fixed.n_packets} packets ({fixed.mc.stop_reason})",
        f"adaptive : PER {adaptive.per:.3f} [{a_lo:.3f}, {a_hi:.3f}]  "
        f"{adaptive.n_packets} packets ({adaptive.mc.stop_reason})",
        f"saving   : {FIXED_BUDGET / adaptive.n_packets:.0f}x fewer "
        f"packets for the same certified precision",
        f"knee @ {KNEE_SNR_DB} dB: fixed PER {knee_fixed.per:.3f}; "
        f"adaptive PER {knee.per:.3f} [{k_lo:.3f}, {k_hi:.3f}] in "
        f"{knee.n_packets} packets at {PRECISION:.0%}, "
        f"{knee_half.n_packets} at {PRECISION / 2:.0%}",
    ]
    report("MC: adaptive precision targeting vs a fixed trial budget",
           lines)

    # The acceptance criterion: the adaptive run reaches the default
    # PER precision with measurably fewer trials than the fixed budget.
    assert adaptive.mc.stop_reason == "precision"
    # Seeded, so the trial counts are exact. At PER 1.0 one 50-packet
    # batch certifies any target the Wilson interval at 50/50 meets.
    assert fixed.n_packets == 1000
    assert adaptive.n_packets == 50
    assert FIXED_BUDGET / adaptive.n_packets == 20
    assert adaptive.mc.rel_half_width <= PRECISION
    # Both intervals cover the other mode's estimate: same physics.
    assert a_lo <= fixed.per <= a_hi

    # At the knee the target sets the count: several batches at the
    # default, more again for a target half as wide.
    assert 0.2 < knee.per < 0.8
    assert knee.mc.stop_reason == "precision"
    assert knee.n_packets == 250
    assert knee.mc.rel_half_width <= PRECISION
    assert k_lo <= knee_fixed.per <= k_hi
    assert knee_half.mc.stop_reason == "precision"
    assert knee_half.n_packets > knee.n_packets

    benchmark.extra_info["fixed_trials"] = fixed.n_packets
    benchmark.extra_info["adaptive_trials"] = adaptive.n_packets
    benchmark.extra_info["adaptive_ci"] = [float(a_lo), float(a_hi)]
    benchmark.extra_info["knee_trials"] = knee.n_packets
    benchmark.extra_info["knee_half_precision_trials"] = \
        knee_half.n_packets


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
