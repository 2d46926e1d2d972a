"""E25/E26 support — 802.11ac VHT waveform chain (extended claim C6).

The paper's arc stops at 802.11n's anticipated 600 Mbps / 15 bps/Hz.
This bench exercises the post-paper continuation at waveform level: a
256-QAM VHT PER waterfall on an 80 MHz channel, and the wide-channel
rate ladder the registry's 802.11ac entry is built from.
"""

from repro.core.link import LinkSimulator

SNRS = [16.0, 24.0, 32.0, 40.0]

#: (name, MCS) pairs for the 80 MHz single-stream waterfall; MCS 8/9 are
#: the 256-QAM points 802.11ac added beyond the HT ladder.
CONFIGS = [("vht80-0", 0), ("vht80-4", 4), ("vht80-8", 8), ("vht80-9", 9)]


def _waterfall():
    table = {}
    for name, _ in CONFIGS:
        sim = LinkSimulator(name, "awgn", rng=17)
        table[name] = [sim.run(snr, n_packets=10, payload_bytes=60).per
                       for snr in SNRS]
    return table


def test_bench_vht_waterfall(benchmark, report):
    table = benchmark.pedantic(_waterfall, rounds=1, iterations=1)
    rates = {name: LinkSimulator(name, "awgn").rate_mbps
             for name, _ in CONFIGS}
    lines = ["SNR (dB):              " + "".join(f"{s:>7.0f}" for s in SNRS)]
    for name, _ in CONFIGS:
        lines.append(f"{name:>8} {rates[name]:>7.1f} Mbps  PER " +
                     "".join(f"{p:>7.2f}" for p in table[name]))
    lines.append("256-QAM 5/6 on 80 MHz: 390 Mbps from one spatial stream")
    report(
        "E25a: 802.11ac VHT PER waterfalls, BPSK to 256-QAM on 80 MHz",
        lines,
    )
    assert rates["vht80-9"] == 390.0
    # BPSK decodes everywhere on this grid; 256-QAM needs the high end.
    assert table["vht80-0"][-1] == 0.0
    assert table["vht80-9"][-1] == 0.0
    assert table["vht80-9"][0] >= table["vht80-0"][0]


def test_bench_vht_wide_channel_ladder(benchmark, report):
    """The 20->160 MHz rate ladder behind the registry's 6.93 Gbps."""
    def ladder():
        out = {}
        # MCS 9 at 20 MHz is an excluded combination (non-integral data
        # bits per symbol), exactly as in the real standard; the 20 MHz
        # anchor uses MCS 8 instead.
        for name in ("vht-8", "vht40-9", "vht80-9", "vht160-9"):
            sim = LinkSimulator(name, "awgn", rng=3)
            res = sim.run(42.0, n_packets=4, payload_bytes=60)
            out[name] = (sim.rate_mbps, res.per)
        return out

    out = benchmark.pedantic(ladder, rounds=1, iterations=1)
    lines = [f"{name:>9}: {rate:>7.1f} Mbps (long GI), PER {per:.2f} @ 42 dB"
             for name, (rate, per) in out.items()]
    lines.append("doubling the channel doubles the rate; x8 streams and "
                 "short GI reach 6933 Mbps")
    report("E25b: VHT wide-channel ladder, 256-QAM", lines)
    assert out["vht160-9"][0] == 780.0
    widths = [out[n][0] for n in ("vht-8", "vht40-9", "vht80-9",
                                  "vht160-9")]
    assert all(b > 1.9 * a for a, b in zip(widths, widths[1:]))
    assert all(per == 0.0 for _, per in out.values())
