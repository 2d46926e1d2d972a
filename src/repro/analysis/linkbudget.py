"""Link budgets: TX power to SNR at distance, and back.

Combines the dual-slope TGn path loss with the receiver noise floor to
answer "what SNR does a station see at d metres?" and its inverse "how far
can I be and still hold SNR x?" — the backbone of every range experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.channel.awgn import noise_floor_dbm
from repro.channel.pathloss import (
    breakpoint_path_loss_db,
    free_space_path_loss_db,
)
from repro.errors import ConfigurationError, LinkBudgetError


@dataclass
class LinkBudget:
    """A point-to-point radio link's budget.

    Parameters
    ----------
    tx_power_dbm : float
        Total transmit power (17 dBm is a typical 802.11 client).
    frequency_hz : float
    bandwidth_hz : float
    noise_figure_db : float
    antenna_gain_db : float
        Combined TX+RX fixed antenna gain.
    breakpoint_m : float
        Dual-slope breakpoint distance.
    path_loss_exponent : float
        Slope beyond the breakpoint.
    fade_margin_db : float
        Extra margin subtracted from the budget (slow fading allowance);
        diversity techniques reduce the margin needed.

    Every field must be finite, and the frequency, bandwidth, breakpoint
    and exponent positive, so SNR always falls with distance; anything
    else raises :class:`~repro.errors.ConfigurationError`.
    """

    tx_power_dbm: float = 17.0
    frequency_hz: float = 5.18e9
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 7.0
    antenna_gain_db: float = 0.0
    breakpoint_m: float = 5.0
    path_loss_exponent: float = 3.5
    fade_margin_db: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"LinkBudget.{f.name} must be finite, got {value!r}")
        for name in ("frequency_hz", "bandwidth_hz", "breakpoint_m",
                     "path_loss_exponent"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(
                    f"LinkBudget.{name} must be positive, got {value!r}")

    @property
    def noise_dbm(self):
        """Receiver noise floor."""
        return noise_floor_dbm(self.bandwidth_hz, self.noise_figure_db)

    def snr_at(self, distance_m):
        """Mean SNR (dB) at a distance under the dual-slope law."""
        loss = breakpoint_path_loss_db(
            distance_m, self.frequency_hz,
            self.breakpoint_m, self.path_loss_exponent,
        )
        return (self.tx_power_dbm + self.antenna_gain_db - loss
                - self.fade_margin_db - self.noise_dbm)

    def range_for_snr(self, required_snr_db):
        """Largest distance (m) at which ``required_snr_db`` is still met."""
        budget_db = (self.tx_power_dbm + self.antenna_gain_db
                     - self.fade_margin_db - self.noise_dbm
                     - required_snr_db)
        # Loss allowed = budget_db. Invert the dual-slope law.
        fs_at_bp = free_space_path_loss_db(self.breakpoint_m,
                                           self.frequency_hz)
        if budget_db <= 0:
            raise LinkBudgetError(
                f"SNR {required_snr_db} dB unreachable: budget {budget_db:.1f} dB"
            )
        fs_at_1m = free_space_path_loss_db(1.0, self.frequency_hz)
        if budget_db <= fs_at_bp:
            # Still in the free-space region: 20 dB/decade.
            return 10.0 ** ((budget_db - fs_at_1m) / 20.0)
        extra = budget_db - fs_at_bp
        return self.breakpoint_m * 10.0 ** (
            extra / (10.0 * self.path_loss_exponent)
        )

    def max_distance_for_rate(self, standard, rate_mbps):
        """Range at which ``standard`` sustains ``rate_mbps``."""
        entry = next(
            (r for r in standard.rates if r.rate_mbps == rate_mbps), None
        )
        if entry is None:
            raise ConfigurationError(
                f"{standard.name} has no {rate_mbps} Mbps rate"
            )
        return self.range_for_snr(entry.required_snr_db)
