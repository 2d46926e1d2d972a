"""Union-bound BER for the (133, 171) convolutional code.

The first terms of the code's distance spectrum give the classic
high-SNR approximation

    Pb <= sum_d  B_d * P2(d)

with ``P2(d) = Q(sqrt(2 d R Eb/N0))`` for soft-decision BPSK. Used to
sanity-check the simulated coded waterfalls (and as the analysis the
LDPC comparison is judged against).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.ber_theory import q_function
from repro.errors import ConfigurationError
from repro.phy.convolutional import CODE_RATES, free_distance

#: Information-bit weight spectrum B_d of the K=7 (133, 171) mother code,
#: first terms from the literature (d_free = 10).
WEIGHT_SPECTRUM = {
    "1/2": {10: 36, 12: 211, 14: 1404, 16: 11633, 18: 77433},
    # Punctured spectra (Haccoun & Begin tables, leading terms).
    "2/3": {6: 3, 7: 70, 8: 285, 9: 1276, 10: 6160},
    "3/4": {5: 42, 6: 201, 7: 1492, 8: 10469, 9: 62935},
}


def union_bound_ber(ebn0_db, rate="1/2"):
    """Soft-decision union-bound BER at the given Eb/N0.

    Tight above ~4 dB; a (loose) upper bound below.
    """
    if rate not in WEIGHT_SPECTRUM:
        raise ConfigurationError(
            f"no spectrum table for rate {rate!r}; have "
            f"{sorted(WEIGHT_SPECTRUM)}"
        )
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    r = CODE_RATES[rate]
    total = np.zeros_like(np.asarray(ebn0, dtype=float))
    for d, b_d in WEIGHT_SPECTRUM[rate].items():
        total = total + b_d * q_function(np.sqrt(2.0 * d * r * ebn0))
    return total


def union_bound_per(ebn0_db, n_bits, rate="1/2"):
    """Union-bound PER for an ``n_bits`` payload.

    Combines :func:`union_bound_ber` with the independent-bit-error
    packet model ``1 - (1 - BER)^n``. Like the BER bound it is tight
    only at high SNR — the low-SNR union bound can exceed 1, so the
    result is clipped to [0, 1].
    """
    from repro.analysis.per import per_from_ber

    if n_bits <= 0:
        raise ConfigurationError(f"n_bits must be positive, got {n_bits}")
    ber = np.minimum(union_bound_ber(ebn0_db, rate), 1.0)
    return per_from_ber(ber, int(n_bits))


def coding_gain_db(rate="1/2", target_ber=1e-5):
    """Asymptotic soft-decision coding gain: 10 log10(R * d_free)."""
    d_free = free_distance(rate)  # raises on an unknown rate
    return float(10.0 * np.log10(CODE_RATES[rate] * d_free))
