"""Bianchi's analytical model of DCF saturation throughput.

G. Bianchi, "Performance Analysis of the IEEE 802.11 Distributed
Coordination Function", JSAC 2000. The per-station transmit probability
tau and conditional collision probability p satisfy the fixed point

    tau = 2 (1 - 2p) / ((1 - 2p)(W + 1) + p W (1 - (2p)^m))
    p   = 1 - (1 - tau)^(n-1)

with W = CWmin + 1 and m backoff stages. Saturation throughput follows
from the slot-type decomposition. Used to validate the DCF simulator in
benchmark E15.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.mac.timing import MacTiming


def bianchi_tau(n_stations, cw_min=15, m_stages=6):
    """Solve the Bianchi fixed point; returns (tau, p)."""
    from scipy.optimize import brentq

    if n_stations < 1:
        raise ConfigurationError("need at least one station")
    w = cw_min + 1

    def tau_of_p(p):
        if p >= 0.5 - 1e-12:
            # Degenerate branch of the closed form; evaluate the limit-safe
            # general expression instead.
            stages = np.arange(m_stages + 1)
            expected_w = (1 - p) * np.sum(
                (p ** stages) * (np.minimum(w * 2.0 ** stages, 1024) + 1)
            ) / (1 - p ** (m_stages + 1)) if p < 1 else 1024 + 1
            return 2.0 / (expected_w + 1)
        return (2.0 * (1 - 2 * p)
                / ((1 - 2 * p) * (w + 1) + p * w * (1 - (2 * p) ** m_stages)))

    if n_stations == 1:
        return tau_of_p(0.0), 0.0

    def fixed_point(p):
        tau = tau_of_p(p)
        return p - (1.0 - (1.0 - tau) ** (n_stations - 1))

    p_star = brentq(fixed_point, 1e-12, 1 - 1e-9)
    return tau_of_p(p_star), p_star


def bianchi_saturation_throughput(n_stations, standard="802.11a",
                                  rate_mbps=54.0, payload_bytes=1500,
                                  rts_cts=False, m_stages=6):
    """Saturation goodput (Mbps) predicted by the Bianchi model."""
    timing = MacTiming.for_standard(standard)
    tau, _ = bianchi_tau(n_stations, cw_min=timing.cw_min, m_stages=m_stages)
    n = n_stations
    p_tr = 1.0 - (1.0 - tau) ** n
    p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr if p_tr > 0 else 0.0
    t_s = timing.success_duration_s(payload_bytes, rate_mbps, rts_cts)
    t_c = timing.collision_duration_s(payload_bytes, rate_mbps, rts_cts)
    sigma = timing.slot_s
    payload_time = 8.0 * payload_bytes  # bits
    denom = ((1.0 - p_tr) * sigma + p_tr * p_s * t_s
             + p_tr * (1.0 - p_s) * t_c)
    return p_tr * p_s * payload_time / denom / 1e6
