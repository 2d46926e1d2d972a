"""Tests for the link budget."""

import pytest

from repro.analysis.linkbudget import LinkBudget
from repro.errors import ConfigurationError, LinkBudgetError
from repro.standards.registry import get_standard


class TestValidation:
    @pytest.mark.parametrize("field", ["tx_power_dbm", "frequency_hz",
                                       "noise_figure_db", "fade_margin_db"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be finite"):
            LinkBudget(**{field: value})

    @pytest.mark.parametrize("field", ["frequency_hz", "bandwidth_hz",
                                       "breakpoint_m", "path_loss_exponent"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be positive"):
            LinkBudget(**{field: value})

    def test_negative_gains_and_powers_allowed(self):
        budget = LinkBudget(tx_power_dbm=-10.0, antenna_gain_db=-3.0)
        assert budget.snr_at(10.0) < LinkBudget().snr_at(10.0)


class TestSnrAt:
    def test_monotone_decreasing(self):
        budget = LinkBudget()
        assert budget.snr_at(5.0) > budget.snr_at(50.0) > budget.snr_at(200.0)

    def test_tx_power_shifts_snr(self):
        low = LinkBudget(tx_power_dbm=10.0)
        high = LinkBudget(tx_power_dbm=20.0)
        assert high.snr_at(30.0) - low.snr_at(30.0) == pytest.approx(10.0)

    def test_fade_margin_subtracts(self):
        base = LinkBudget()
        margined = LinkBudget(fade_margin_db=10.0)
        assert base.snr_at(20.0) - margined.snr_at(20.0) == pytest.approx(10.0)


class TestRangeForSnr:
    def test_inverts_snr_at(self):
        budget = LinkBudget()
        for snr in (5.0, 15.0, 25.0):
            d = budget.range_for_snr(snr)
            assert budget.snr_at(d) == pytest.approx(snr, abs=0.01)

    def test_lower_requirement_longer_range(self):
        budget = LinkBudget()
        assert budget.range_for_snr(5.0) > budget.range_for_snr(25.0)

    def test_free_space_region(self):
        """Very high required SNR pins the range inside the breakpoint."""
        budget = LinkBudget(breakpoint_m=5.0)
        d = budget.range_for_snr(budget.snr_at(2.0))
        assert d == pytest.approx(2.0, rel=0.01)

    def test_unreachable_raises(self):
        with pytest.raises(LinkBudgetError):
            LinkBudget(tx_power_dbm=0.0).range_for_snr(200.0)

    def test_gain_extends_range_at_35db_decade(self):
        """+10.5 dB of link gain = 2x range at exponent 3.5."""
        base = LinkBudget()
        boosted = LinkBudget(antenna_gain_db=10.5)
        ratio = boosted.range_for_snr(20.0) / base.range_for_snr(20.0)
        assert ratio == pytest.approx(2.0, rel=0.01)


class TestRateRange:
    def test_54mbps_shorter_than_6mbps(self):
        budget = LinkBudget()
        std = get_standard("802.11a")
        assert budget.max_distance_for_rate(std, 54) < (
            budget.max_distance_for_rate(std, 6)
        )

    def test_unknown_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkBudget().max_distance_for_rate(get_standard("802.11a"), 33)
