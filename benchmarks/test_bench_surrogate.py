"""E24 — network-scale simulation off a precomputed PER surface.

The waveform simulator prices every packet at full baseband cost;
a PER surface prices it at one table lookup. This benchmark measures
both sides honestly: the waveform per-packet cost on the same PHY,
the surrogate's bulk sample rate serving a 1000-station mesh, and the
speedup of the surrogate over the waveform path *extrapolated to the
same packet count* (the waveform path would take minutes; we never run
it at that scale, which is the point).
"""

from repro import obs
from repro.core.link import LinkSimulator
from repro.mesh.coverage import coverage_result
from repro.mesh.topology import random_positions
from repro.surrogate import AbstractLink, build_surface

N_STATIONS = 1000
AREA_M = 1500.0
N_SAMPLES = 40000
PAYLOAD_BYTES = 1500  # MTU-sized mesh data frames
WAVEFORM_PROBE_PACKETS = 60


def _waveform_per_packet_cost():
    """Seconds per waveform packet at the surface's operating point."""
    sim = LinkSimulator("ofdm-6", "awgn", rng=1)
    sim.run(4.0, 3, PAYLOAD_BYTES)  # warm caches outside the timed window
    with obs.timed() as clock:
        sim.run(4.0, WAVEFORM_PROBE_PACKETS, PAYLOAD_BYTES)
    return clock.seconds / WAVEFORM_PROBE_PACKETS


def _surrogate_mesh_run():
    surface = build_surface(
        "bench-e24", ["ofdm-6"],
        snr_db=[-2.0, 0.0, 2.0, 4.0, 6.0, 10.0],
        payload_bytes=[PAYLOAD_BYTES], n_packets=30, base_seed=18)
    link = AbstractLink(surface, rng=18)
    positions = random_positions(N_STATIONS, AREA_M, rng=18)
    with obs.timed() as clock:
        result = coverage_result(positions, AREA_M, link=link,
                                 max_per=0.1, n_samples=N_SAMPLES, rng=18)
    return surface, result, clock.seconds


def test_bench_surrogate_mesh(benchmark, report):
    t_packet = _waveform_per_packet_cost()
    surface, result, t_mesh = benchmark.pedantic(
        _surrogate_mesh_run, rounds=1, iterations=1)

    frac = result.n_events / result.n_trials
    rate = result.n_trials / t_mesh if t_mesh > 0 else float("inf")
    t_waveform_equiv = t_packet * result.n_trials
    speedup = t_waveform_equiv / t_mesh if t_mesh > 0 else float("inf")

    lines = [
        f"surface: {surface.n_cells} cells / "
        f"{surface.total_trials} waveform packets (one-time cost)",
        f"mesh   : {N_STATIONS} stations over "
        f"{AREA_M:.0f} m x {AREA_M:.0f} m",
        f"coverage (PER <= 0.1): {frac:.1%} "
        f"[{result.ci_low:.1%}, {result.ci_high:.1%}]",
        f"waveform cost : {1e6 * t_packet:8.1f} us/packet "
        f"-> {t_waveform_equiv:6.1f} s for {result.n_trials} packets",
        f"surrogate cost: {t_mesh:8.2f} s total ({rate:,.0f} packets/s)",
        f"speedup vs waveform path: {speedup:,.0f}x",
    ]
    report("E24: 1000-station mesh off a PER surface", lines)
    # The surrogate must beat the waveform path at equal packet counts
    # by far more than the 100x acceptance bar: the floor is 0.65x of
    # the 2506x measured single-core.
    assert speedup >= 1630.0
    # Seeded: 77.3% coverage, in the percolation region, not a trivial
    # grid.
    assert (result.n_events, result.n_trials) == (30920, N_SAMPLES)
    benchmark.extra_info["speedup"] = round(speedup)
    benchmark.extra_info["coverage"] = round(frac, 3)
