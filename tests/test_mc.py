"""Tests for the adaptive Monte-Carlo engine and its statistics.

Three layers of guarantees:

* interval mathematics (Wilson / Clopper–Pearson / accumulators);
* engine semantics (fixed budget vs adaptive stopping, determinism);
* bit-exactness regressions — the refactored simulators must reproduce
  the seed-era serial loops *exactly* at the same seeds, using golden
  values captured from the pre-refactor implementations.
"""

import numpy as np
import pytest

from repro.core.mc import (
    DEFAULT_MAX_TRIALS,
    MeanAccumulator,
    QuantileAccumulator,
    RateAccumulator,
    clopper_pearson_interval,
    per_trial,
    rate_interval,
    run_grid_trials,
    run_trials,
    wilson_interval,
)
from repro.errors import ConfigurationError


class TestIntervals:
    def test_wilson_contains_point_estimate(self):
        lo, hi = wilson_interval(12, 100)
        assert lo < 0.12 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_wilson_zero_events_exact_edge(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0.0 < hi < 0.1

    def test_wilson_all_events_exact_edge(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert 0.9 < lo < 1.0

    def test_wilson_narrows_with_n(self):
        w_small = np.diff(wilson_interval(5, 50))[0]
        w_large = np.diff(wilson_interval(500, 5000))[0]
        assert w_large < w_small

    def test_wilson_zero_upper_bound_scales(self):
        """0/100 and 0/100000 must report different upper bounds."""
        _, hi_small = wilson_interval(0, 100)
        _, hi_large = wilson_interval(0, 100_000)
        assert hi_large < hi_small / 100

    def test_clopper_pearson_wider_than_wilson(self):
        w = np.diff(wilson_interval(7, 80))[0]
        cp = np.diff(clopper_pearson_interval(7, 80))[0]
        assert cp > w

    def test_clopper_pearson_edges(self):
        assert clopper_pearson_interval(0, 50)[0] == 0.0
        assert clopper_pearson_interval(50, 50)[1] == 1.0

    def test_higher_confidence_wider(self):
        w95 = np.diff(wilson_interval(10, 100, 0.95))[0]
        w99 = np.diff(wilson_interval(10, 100, 0.99))[0]
        assert w99 > w95

    def test_dispatch(self):
        assert rate_interval(3, 30, method="wilson") == \
            wilson_interval(3, 30)
        assert rate_interval(3, 30, method="clopper-pearson") == \
            clopper_pearson_interval(3, 30)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            rate_interval(3, 30, method="wald")

    @pytest.mark.parametrize("k,n", [(-1, 10), (11, 10), (5, -1)])
    def test_bad_counts_rejected(self, k, n):
        with pytest.raises(ConfigurationError):
            wilson_interval(k, n)

    @pytest.mark.parametrize("conf", [0.0, 1.0, -0.5, 2.0])
    def test_bad_confidence_rejected(self, conf):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 10, conf)

    def test_empty_sample_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert clopper_pearson_interval(0, 0) == (0.0, 1.0)


class TestWilsonCoverageProperty:
    def test_nominal_coverage(self, rng):
        """A 95% Wilson interval must contain the true rate ~95% of the
        time; with 400 seeded ensembles the observed coverage should not
        dip below 90%."""
        p_true, n, hits, ensembles = 0.3, 80, 0, 400
        for _ in range(ensembles):
            k = int(rng.binomial(n, p_true))
            lo, hi = wilson_interval(k, n)
            hits += lo <= p_true <= hi
        assert hits / ensembles > 0.90


class TestAccumulators:
    def test_rate_streaming_equals_oneshot(self):
        a, b = RateAccumulator(), RateAccumulator()
        a.add(3, 10)
        a.add(2, 40)
        b.add(5, 50)
        assert a.estimate() == b.estimate() == 0.1
        assert a.interval() == b.interval()

    def test_rate_zero_events_infinite_relative_width(self):
        acc = RateAccumulator()
        acc.add(0, 1000)
        assert acc.rel_half_width() == float("inf")

    def test_mean_matches_numpy(self, rng):
        values = rng.normal(size=200)
        acc = MeanAccumulator()
        acc.add(values[:150])
        acc.add(values[150:])
        assert acc.estimate() == pytest.approx(values.mean())
        lo, hi = acc.interval()
        assert lo < values.mean() < hi

    def test_mean_vector_valued(self, rng):
        values = rng.normal(size=(50, 3))
        acc = MeanAccumulator()
        acc.add(values)
        assert np.allclose(acc.estimate(), values.mean(axis=0))

    def test_mean_single_trial_infinite_width(self):
        acc = MeanAccumulator()
        acc.add([1.5])
        assert acc.rel_half_width() == float("inf")

    def test_quantile_matches_numpy(self, rng):
        values = rng.normal(size=500)
        acc = QuantileAccumulator(0.1)
        acc.add(values[:200])
        acc.add(values[200:])
        assert acc.estimate() == pytest.approx(np.quantile(values, 0.1))
        lo, hi = acc.interval()
        assert lo <= acc.estimate() <= hi

    def test_quantile_bad_q_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantileAccumulator(1.2)


def _bernoulli_trial(rng):
    return {"event": int(rng.uniform() < 0.4),
            "extra": int(rng.uniform() < 0.5)}


class TestEngineFixedBudget:
    bernoulli = staticmethod(per_trial(_bernoulli_trial))

    def test_preserves_draw_order(self):
        """The engine must consume a shared generator in exactly the
        order of a hand-rolled serial loop."""
        mc = run_trials(self.bernoulli, n_trials=300, target="event",
                        rng=np.random.default_rng(17))
        rng = np.random.default_rng(17)
        events = sum(_bernoulli_trial(rng)["event"] for _ in range(300))
        assert mc.n_events == events
        assert mc.n_trials == 300
        assert mc.stop_reason == "budget"

    def test_totals_carry_non_target_metrics(self):
        mc = run_trials(self.bernoulli, n_trials=100, target="event",
                        rng=np.random.default_rng(3))
        assert set(mc.totals) == {"event", "extra"}
        assert 0 <= mc.totals["extra"] <= 100
        assert mc.totals["event"] == mc.n_events

    def test_batch_function_matches_one_draw(self):
        """Four ``batch_size`` chunks draw what one 400-value call does."""
        def batch(rng, m):
            return {"event": int(np.count_nonzero(rng.uniform(size=m)
                                                  < 0.25))}
        mc = run_trials(batch, n_trials=400, target="event",
                        rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert mc.n_events == int(np.count_nonzero(
            rng.uniform(size=400) < 0.25))

    def test_result_interval_matches_counts(self):
        mc = run_trials(self.bernoulli, n_trials=200, target="event",
                        rng=np.random.default_rng(8))
        assert mc.ci() == wilson_interval(mc.n_events, 200)
        assert mc.estimate == mc.n_events / 200

    def test_missing_target_rejected(self):
        with pytest.raises(ConfigurationError, match="target metric"):
            run_trials(per_trial(lambda rng: {"other": 1}), n_trials=5,
                       target="event", rng=np.random.default_rng(0))

    def test_no_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trials(self.bernoulli, target="event")

    def test_bad_precision_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trials(self.bernoulli, target="event", precision=-0.1)

    def test_bad_estimand_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trials(self.bernoulli, n_trials=5, target="event",
                       estimand="median")

    def test_quantile_estimand_needs_q(self):
        with pytest.raises(ConfigurationError):
            run_trials(self.bernoulli, n_trials=5, target="event",
                       estimand="quantile")


class TestEngineAdaptive:
    coin = staticmethod(per_trial(
        lambda rng: {"event": int(rng.uniform() < 0.5)}))

    def test_deterministic_at_fixed_seed(self):
        runs = [run_trials(self.coin, target="event",
                           rng=np.random.default_rng(99), precision=0.2,
                           batch_size=50) for _ in range(2)]
        assert runs[0].n_trials == runs[1].n_trials
        assert runs[0].estimate == runs[1].estimate
        assert runs[0].ci() == runs[1].ci()

    def test_stops_on_precision(self):
        mc = run_trials(self.coin, target="event",
                        rng=np.random.default_rng(1), precision=0.2,
                        batch_size=50)
        assert mc.stop_reason == "precision"
        assert mc.rel_half_width <= 0.2
        assert mc.n_trials < DEFAULT_MAX_TRIALS
        assert mc.n_trials % 50 == 0

    def test_zero_events_run_to_ceiling(self):
        """No events → no precision claim: the engine must burn the
        whole ceiling rather than stop on an empty estimate."""
        mc = run_trials(per_trial(lambda rng: {"event": 0}), target="event",
                        rng=np.random.default_rng(2), precision=0.1,
                        max_trials=700, batch_size=100)
        assert mc.stop_reason == "max_trials"
        assert mc.n_trials == 700
        assert mc.estimate == 0.0
        assert mc.ci_high > 0.0

    def test_tighter_precision_needs_more_trials(self):
        loose = run_trials(self.coin, target="event",
                           rng=np.random.default_rng(4), precision=0.3,
                           batch_size=20)
        tight = run_trials(self.coin, target="event",
                           rng=np.random.default_rng(4), precision=0.05,
                           batch_size=20)
        assert tight.n_trials > loose.n_trials

    def test_adaptive_mean_estimand(self):
        mc = run_trials(lambda rng, m: {"v": rng.normal(10.0, 1.0, size=m)},
                        target="v", rng=np.random.default_rng(6),
                        precision=0.02, estimand="mean", batch_size=50)
        assert mc.stop_reason == "precision"
        assert mc.estimate == pytest.approx(10.0, abs=0.5)


def _pcg_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["has_uint32"], state["uinteger"])


def reference_driver(batch_fn, n_trials=None, *, target, rng,
                     precision=None, max_trials=None, batch_size=100,
                     confidence=0.95, estimand="rate", quantile=None):
    """``run_trials`` written out as a plain loop over the accumulators.

    Batches of ``batch_size`` trials (the last one partial) until the
    budget, the ceiling or the precision target; returns what the
    engine's result reports.
    """
    acc = {"rate": RateAccumulator, "mean": MeanAccumulator,
           "quantile": lambda: QuantileAccumulator(quantile)}[estimand]()
    limit = n_trials if precision is None else \
        (max_trials or DEFAULT_MAX_TRIALS)
    stop = "budget" if precision is None else "max_trials"
    totals, done = {}, 0
    while done < limit:
        m = min(batch_size, limit - done)
        out = batch_fn(rng, m)
        for key, val in out.items():
            if key != target:
                totals[key] = totals.get(key, 0) + val
        if estimand == "rate":
            acc.add(out[target], m)
        else:
            acc.add(out[target])
        done += m
        if precision is not None and \
                acc.rel_half_width(confidence) <= precision:
            stop = "precision"
            break
    if estimand == "rate":
        totals[target] = acc.n_events
    return acc.n_trials, acc.estimate(), acc.interval(confidence), stop, \
        totals


def _as_list(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


class TestReferenceDriver:
    """``run_trials`` equals the plain loop exactly, generator included."""

    @staticmethod
    def _rate(rng, m):
        return {"event": int(np.count_nonzero(rng.random(m) < 0.3)),
                "energy": float(rng.random(m).sum())}

    @staticmethod
    def _scalar(rng, m):
        v = rng.normal(10.0, 2.0, size=m)
        return {"v": v, "n_big": int(np.count_nonzero(v > 12.0))}

    @staticmethod
    def _vector(rng, m):
        return {"v": rng.normal([1.0, 5.0], 1.0, size=(m, 2))}

    @staticmethod
    def _exponential(rng, m):
        return {"v": rng.exponential(size=m)}

    ESTIMANDS = {
        "rate": ("_rate", "event", dict()),
        "scalar-mean": ("_scalar", "v", dict(estimand="mean")),
        "vector-mean": ("_vector", "v", dict(estimand="mean")),
        "quantile": ("_exponential", "v",
                     dict(estimand="quantile", quantile=0.1)),
    }
    # Every mode ends on a partial batch except a precision stop.
    MODES = {
        "fixed": (dict(n_trials=230, batch_size=50), "budget"),
        "precision": (dict(precision=0.1, max_trials=6000, batch_size=70),
                      "precision"),
        "ceiling": (dict(precision=1e-4, max_trials=430, batch_size=60),
                    "max_trials"),
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("estimand", sorted(ESTIMANDS))
    def test_matches_reference(self, estimand, mode):
        fn_name, target, kwargs = self.ESTIMANDS[estimand]
        mode_kwargs, stop = self.MODES[mode]
        kwargs = dict(kwargs, **mode_kwargs)
        fn = getattr(self, fn_name)
        rng = np.random.default_rng(41)
        mc = run_trials(fn, target=target, rng=rng, **kwargs)
        ref_rng = np.random.default_rng(41)
        n, est, (lo, hi), ref_stop, totals = reference_driver(
            fn, target=target, rng=ref_rng, **kwargs)
        assert mc.stop_reason == ref_stop == stop
        assert mc.n_trials == n
        assert _as_list(mc.estimate) == _as_list(est)
        assert (_as_list(mc.ci_low), _as_list(mc.ci_high)) == \
            (_as_list(lo), _as_list(hi))
        assert mc.totals == totals
        assert _pcg_state(rng) == _pcg_state(ref_rng)
        if mode == "fixed":
            assert n == 230
        if estimand == "rate":
            assert mc.n_events == totals["event"]
            assert mc.method == "wilson"
        else:
            assert mc.n_events is None
            assert mc.method == ("normal" if estimand.endswith("mean")
                                 else "order-stat")

    def test_per_trial_matches_hand_loop(self):
        """A per-trial function runs in ``batch_size`` chunks yet draws
        and sums exactly as one loop over the whole budget."""
        mc = run_trials(per_trial(_bernoulli_trial), n_trials=130,
                        target="event", rng=np.random.default_rng(3),
                        batch_size=40)
        rng = np.random.default_rng(3)
        outs = [_bernoulli_trial(rng) for _ in range(130)]
        assert mc.totals == {"event": sum(o["event"] for o in outs),
                             "extra": sum(o["extra"] for o in outs)}
        assert all(type(v) is int for v in mc.totals.values())

    def test_mean_target_needs_per_trial_values(self):
        with pytest.raises(ConfigurationError, match="one value per trial"):
            run_trials(lambda rng, m: {"v": float(m)}, n_trials=10,
                       target="v", rng=1, estimand="mean")
        with pytest.raises(ConfigurationError, match="one value per trial"):
            run_trials(lambda rng, m: {"v": np.zeros(m + 1)}, n_trials=10,
                       target="v", rng=1, estimand="quantile", quantile=0.5)

    def test_grid_mean_estimand_per_point(self):
        """A grid of means: each point's column is its own estimate."""
        values = np.arange(40.0).reshape(2, 20)

        def grid_fn(lo, hi, points):
            return {"v": values[points, lo:hi]}

        rs = run_grid_trials(grid_fn, 20, 2, target="v", batch_size=7,
                             estimand="mean")
        assert [r.estimate for r in rs] == [9.5, 29.5]
        assert all(r.n_trials == 20 and r.method == "normal" for r in rs)
        with pytest.raises(ConfigurationError, match="analytic"):
            run_grid_trials(grid_fn, 20, 2, target="v", estimand="mean",
                            analytic={0: 0.1})


class TestWholeNumberBudgets:
    """A fractional or boolean trial budget is rejected, never truncated."""

    @staticmethod
    def _batch(rng, m):
        return {"event": int(np.count_nonzero(rng.random(m) < 0.5))}

    @pytest.mark.parametrize("kwargs", [
        dict(n_trials=True), dict(n_trials=2.5), dict(n_trials=np.bool_(1)),
        dict(n_trials="10"), dict(n_trials=float("inf")),
        dict(n_trials=10, batch_size=100.9),
        dict(precision=0.1, max_trials=150.7, batch_size=100),
        dict(precision=0.1, max_trials=150, batch_size=False),
    ])
    def test_run_trials_rejects(self, kwargs):
        with pytest.raises(ConfigurationError, match="whole number"):
            run_trials(self._batch, target="event", rng=1, **kwargs)

    def test_integral_floats_accepted(self):
        a = run_trials(self._batch, n_trials=200.0, target="event", rng=4,
                       batch_size=np.float64(50.0))
        b = run_trials(self._batch, n_trials=200, target="event", rng=4,
                       batch_size=50)
        assert (a.n_trials, a.n_events) == (b.n_trials, b.n_events)
        c = run_trials(self._batch, target="event", rng=4, precision=1e-6,
                       max_trials=np.int64(150), batch_size=100)
        assert c.n_trials == 150

    def test_run_grid_trials_rejects(self):
        def fn(lo, hi, points):
            return {"event": np.zeros(len(points))}
        with pytest.raises(ConfigurationError, match="n_trials"):
            run_grid_trials(fn, 2.5, 2, target="event")

    def test_relay_rejects_fractional_blocks(self):
        from repro.coop.relay import RelaySimulator
        with pytest.raises(ConfigurationError, match="n_trials"):
            RelaySimulator("df", rng=1).run(10.0, n_blocks=2.5)

    def test_coded_rejects_fractional_blocks(self):
        from repro.coop.coded import CodedCooperationSimulator
        with pytest.raises(ConfigurationError, match="n_trials"):
            CodedCooperationSimulator(info_bits=48, rng=1).run(
                2.0, n_blocks=2.5)

    def test_capacity_rejects_fractional_draws(self):
        from repro.phy.mimo.capacity import ergodic_capacity, outage_capacity
        with pytest.raises(ConfigurationError, match="n_trials"):
            ergodic_capacity(2, 2, 10.0, n_draws=2.5, rng=1)
        with pytest.raises(ConfigurationError, match="n_trials"):
            outage_capacity(2, 2, 10.0, n_draws=True, rng=1)


# -- bit-exactness regressions ----------------------------------------------
#
# Golden values captured by running the pre-refactor (seed-era) serial
# loops at these exact seeds and budgets. The refactored engine-backed
# paths must reproduce them bit for bit.


class TestGoldenLink:
    def test_cck_awgn(self):
        from repro.core.link import LinkSimulator
        r = LinkSimulator("cck-5.5", "awgn", rng=123).run(2.0, 40, 25)
        assert (r.n_packet_errors, r.n_bit_errors) == (16, 31)

    def test_ofdm_rayleigh(self):
        from repro.core.link import LinkSimulator
        r = LinkSimulator("ofdm-12", "rayleigh", rng=77).run(14.0, 30, 40)
        assert (r.n_packet_errors, r.n_bit_errors) == (6, 693)

    # Adaptive and partial-batch OFDM runs: (phy, channel, seed, snr,
    # run kwargs) -> (packets, packet errors, bit errors), stop reason,
    # Wilson CI and the PCG64 (state, uinteger) the run leaves behind.
    ADAPTIVE = {
        "awgn-precision": (
            ("ofdm-54", "awgn", 1, 5.0,
             dict(n_packets=2000, payload_bytes=40, precision=0.1,
                  max_trials=2000, batch_size=30)),
            (30, 30, 4791), "precision",
            (0.8864866068260312, 1.0),
            (66414853672726482429754365871209706627,
             194290289479364712180083596243593368443, 2231026496)),
        "rayleigh-max-trials-partial-batch": (
            ("ofdm-12", "rayleigh", 77, 20.0,
             dict(n_packets=10, payload_bytes=40, precision=0.05,
                  max_trials=70, batch_size=30)),
            (70, 1, 8), "max_trials",
            (0.002526246457890312, 0.07658187131208327),
            (54495354812160467399888985368295645682,
             336983293413220778415499640756163231851, 4266528287)),
        "tgn-c-precision": (
            ("ofdm-6", "tgn-C", 5, 6.0,
             dict(n_packets=10, payload_bytes=30, precision=0.3,
                  max_trials=200, batch_size=16)),
            (128, 33, 2475), "precision",
            (0.18986902089941152, 0.3398691922955691),
            (315315744009448200893048164001778653767,
             233193750087604940414945475171846202189, 523962047)),
        "fixed-budget-partial-batch": (
            ("ofdm-24", "rayleigh", 9, 16.0,
             dict(n_packets=23, payload_bytes=30, batch_size=10)),
            (23, 5, 454), "budget",
            (0.09663978026586204, 0.4190348301626401),
            (179914797641409289060851005111937534172,
             47650611409575876553999889140290214363, 133410238)),
    }

    @staticmethod
    def _check(sim, r, counts, stop, ci, state):
        assert (r.n_packets, r.n_packet_errors, r.n_bit_errors) == counts
        assert r.mc.stop_reason == stop
        assert (r.mc.ci_low, r.mc.ci_high) == ci
        assert r.mc.n_trials == counts[0] and r.mc.n_events == counts[1]
        assert r.mc.totals == {"packet_error": counts[1],
                               "bit_errors": counts[2]}
        assert all(type(v) is int for v in r.mc.totals.values())
        assert sim.rng.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": state[0], "inc": state[1]},
            "has_uint32": 0, "uinteger": state[2]}

    @pytest.mark.parametrize("case", sorted(ADAPTIVE))
    def test_ofdm_adaptive(self, case):
        from repro.core.link import LinkSimulator
        (phy, channel, seed, snr, kwargs), *expected = self.ADAPTIVE[case]
        sim = LinkSimulator(phy, channel, rng=seed)
        r = sim.run(snr, **kwargs)
        assert r.mc.precision == kwargs.get("precision")
        self._check(sim, r, *expected)

    def test_ofdm_two_runs_one_simulator(self):
        from repro.core.link import LinkSimulator
        sim = LinkSimulator("ofdm-18", "rayleigh", rng=31)
        kwargs = dict(n_packets=5, payload_bytes=30, precision=0.2,
                      max_trials=45, batch_size=20)
        inc = 107090353359002252723118071224206516545
        self._check(sim, sim.run(12.0, **kwargs), (45, 8, 653), "max_trials",
                    (0.09294389514104148, 0.3132982462645977),
                    (77355757324086614254909224411049634451, inc,
                     3825051445))
        self._check(sim, sim.run(14.0, **kwargs), (45, 5, 425), "max_trials",
                    (0.04840471794567186, 0.2349909699576858),
                    (307499715852669291376018963769495043122, inc,
                     2914440138))


class TestGoldenRelay:
    def test_decode_and_forward(self):
        from repro.coop.relay import RelaySimulator
        r = RelaySimulator("df", rng=5).run(10.0, 60, 32)
        assert r.ber_direct == 0.027083333333333334
        assert r.ber_cooperative == 0.0067708333333333336
        assert r.outage_direct == 0.18333333333333332
        assert r.outage_cooperative == 0.06666666666666667
        assert r.relay_decode_rate == 0.8333333333333334

    def test_amplify_and_forward(self):
        from repro.coop.relay import RelaySimulator
        r = RelaySimulator("af", rng=9).run(8.0, 50, 32)
        assert r.ber_direct == 0.029375
        assert r.ber_cooperative == 0.015625
        assert r.outage_direct == 0.26
        assert r.outage_cooperative == 0.2
        assert r.relay_decode_rate == 1.0


class TestGoldenCodedCoop:
    def test_coded_cooperation(self):
        from repro.coop.coded import CodedCooperationSimulator
        r = CodedCooperationSimulator(info_bits=48, rng=3).run(2.0, 30)
        assert r.bler_direct == 0.3333333333333333
        assert r.bler_repetition == 0.06666666666666667
        assert r.bler_coded == 0.1
        assert r.relay_decode_rate == 0.7333333333333333


class TestGoldenCoverageAndCapacity:
    def test_coverage(self):
        from repro.mesh.coverage import coverage_fraction
        from repro.mesh.topology import grid_positions
        frac = coverage_fraction(grid_positions(2, 60.0) + 40.0, 200.0,
                                 n_samples=600, rng=2024)
        assert frac == 0.585

    def test_ergodic_scalar(self):
        from repro.phy.mimo.capacity import ergodic_capacity
        c = ergodic_capacity(2, 2, 10.0, n_draws=300, rng=42)
        assert c == 5.494824002499881

    def test_ergodic_vector(self):
        from repro.phy.mimo.capacity import ergodic_capacity
        c = ergodic_capacity(3, 2, np.array([0.0, 10.0, 20.0]),
                             n_draws=200, rng=7)
        assert c.tolist() == [2.284122809786747, 6.967766566301601,
                              13.219137020577397]

    def test_outage(self):
        from repro.phy.mimo.capacity import outage_capacity
        c = outage_capacity(2, 2, 12.0, outage=0.1, n_draws=400, rng=11)
        assert c == 4.684408364547731


class TestGoldenAdaptive:
    """Adaptive runs of every ``run_trials`` caller, pinned with the
    generator state they leave behind: (trials, events, estimate, CI,
    stop reason, totals, PCG64 (state, inc, has_uint32, uinteger))."""

    @staticmethod
    def _check(mc, rng, trials, events, estimate, ci, stop, totals, state):
        assert (mc.n_trials, mc.n_events, mc.stop_reason) == \
            (trials, events, stop)
        assert _as_list(mc.estimate) == estimate
        assert (_as_list(mc.ci_low), _as_list(mc.ci_high)) == ci
        assert mc.totals == totals
        assert _pcg_state(rng) == state

    @pytest.mark.parametrize("kwargs, expected", [
        (dict(precision=0.05, max_trials=20000, batch_size=300),
         (1200, 716, 0.5966666666666667,
          (0.5686449001068568, 0.6240715064432811), "precision",
          {"covered": 716},
          (307248263011167316367896548615323983294,
           263843294879837360010514471918415607657, 0, 0))),
        (dict(precision=0.001, max_trials=1300, batch_size=500),
         (1300, 783, 0.6023076923076923,
          (0.5754390262028862, 0.6285735078367917), "max_trials",
          {"covered": 783},
          (250448521894655241403571266376784171638,
           263843294879837360010514471918415607657, 0, 0))),
    ])
    def test_coverage(self, kwargs, expected):
        from repro.mesh.coverage import coverage_result
        from repro.mesh.topology import grid_positions
        rng = np.random.default_rng(2024)
        mc = coverage_result(grid_positions(2, 60.0) + 40.0, 200.0,
                             rng=rng, **kwargs)
        self._check(mc, rng, *expected)

    @pytest.mark.parametrize("protocol, seed, snr, max_trials, expected", [
        ("df", 5, 10.0, 990,
         (990, 50, 0.050505050505050504,
          (0.03851750524884598, 0.06596742833795952), "max_trials",
          {"direct_bit_errors": 710, "coop_bit_errors": 168,
           "direct_outage": 183, "coop_outage": 50, "relay_decode": 804},
          (332042406838303182697483937956484930934,
           233193750087604940414945475171846202189, 0, 3651025533))),
        ("af", 9, 8.0, 1000,
         (350, 54, 0.15428571428571428,
          (0.12021496943716672, 0.19586291242960666), "precision",
          {"direct_bit_errors": 379, "coop_bit_errors": 126,
           "direct_outage": 96, "coop_outage": 54, "relay_decode": 350},
          (288563245757243277643936431712570465841,
           47650611409575876553999889140290214363, 0, 678750799))),
    ])
    def test_relay(self, protocol, seed, snr, max_trials, expected):
        from repro.coop.relay import RelaySimulator
        sim = RelaySimulator(protocol, rng=seed)
        r = sim.run(snr, 60, 32, precision=0.25, max_trials=max_trials,
                    batch_size=25)
        self._check(r.mc, sim.rng, *expected)

    def test_coded_cooperation(self):
        from repro.coop.coded import CodedCooperationSimulator
        sim = CodedCooperationSimulator(info_bits=48, rng=3)
        r = sim.run(2.0, 30, precision=0.35, max_trials=200, batch_size=15)
        self._check(r.mc, sim.rng, 120, 25, 0.20833333333333334,
                    (0.14528439608109694, 0.2894767843298135), "precision",
                    {"direct_failure": 35, "repetition_failure": 17,
                     "coded_failure": 25, "relay_decode": 83},
                    (210826208637226897119776779696359644303,
                     222003063171874261427395693950637096479, 0,
                     3450870204))

    def test_ergodic_capacity(self):
        from repro.phy.mimo.capacity import ergodic_capacity
        rng = np.random.default_rng(13)
        mc = ergodic_capacity(2, 2, np.array([0.0, 10.0]), rng=rng,
                              precision=0.02, max_trials=4000,
                              batch_size=250, return_result=True)
        self._check(mc, rng, 1250, None,
                    [1.6888136308228183, 5.560822332177396],
                    ([1.6553171954174448, 5.486073824417886],
                     [1.7223100662281918, 5.635570839936905]),
                    "precision", {},
                    (275165010362826316376025622823638022318,
                     317612346296202158696945144441957901887, 0, 0))
        assert mc.method == "normal"

    def test_outage_capacity(self):
        from repro.phy.mimo.capacity import outage_capacity
        rng = np.random.default_rng(11)
        mc = outage_capacity(2, 2, 12.0, outage=0.1, rng=rng,
                             precision=0.05, max_trials=5000,
                             batch_size=700, return_result=True)
        self._check(mc, rng, 700, None, 4.730568995076885,
                    (4.458194292116585, 4.834223064839035), "precision", {},
                    (305346244871625043839982635840544740673,
                     7937318808080196428804369945471644491, 0, 0))
        assert mc.method == "order-stat"


class TestSimulatorAdaptiveMode:
    def test_link_saturated_point_stops_early(self):
        """PER ~ 1 settles in a couple of batches, not the full budget."""
        from repro.core.link import LinkSimulator
        sim = LinkSimulator("ofdm-54", "awgn", rng=1)
        r = sim.run(5.0, n_packets=2000, payload_bytes=40,
                    precision=0.1, max_trials=2000, batch_size=50)
        assert r.mc.stop_reason == "precision"
        assert r.n_packets < 200
        lo, hi = r.per_ci()
        assert lo <= r.per <= hi

    def test_coverage_result_carries_interval(self):
        from repro.mesh.coverage import coverage_result
        mc = coverage_result(np.array([[100.0, 100.0]]), 200.0,
                             rng=np.random.default_rng(12),
                             precision=0.1, max_trials=5000)
        assert mc.stop_reason in ("precision", "max_trials")
        assert mc.ci_low <= mc.estimate <= mc.ci_high

    def test_ergodic_return_result(self):
        from repro.phy.mimo.capacity import ergodic_capacity
        mc = ergodic_capacity(2, 2, 10.0, rng=np.random.default_rng(13),
                              precision=0.02, max_trials=4000,
                              return_result=True)
        assert mc.estimand == "mean"
        assert mc.ci_low < mc.estimate < mc.ci_high
