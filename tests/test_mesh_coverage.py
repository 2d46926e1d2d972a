"""Tests for mesh coverage analysis."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.linkbudget import LinkBudget
from repro.errors import ConfigurationError
from repro.mesh.coverage import (
    coverage_area_m2,
    coverage_fraction,
    coverage_result,
    single_ap_radius_m,
)
from repro.mesh.network import MeshNetwork
from repro.mesh.topology import grid_positions
from repro.standards.registry import get_standard
from repro.surrogate import AbstractLink, PerSurface


class TestSingleApRadius:
    def test_radius_positive(self):
        assert single_ap_radius_m() > 10.0

    def test_higher_rate_smaller_radius(self):
        assert single_ap_radius_m(54.0) < single_ap_radius_m(6.0)

    def test_impossible_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            single_ap_radius_m(100.0, standard="802.11a")


class TestCoverage:
    AREA = 240.0

    def test_mesh_beats_single_ap(self, rng_factory):
        """The paper: mesh 'dramatically increases the area served'."""
        single = coverage_fraction(
            np.array([[120.0, 120.0]]), self.AREA, rng=rng_factory(1)
        )
        # 3x3 grid, 55 m spacing: inside the ~62 m mesh-link range, so the
        # whole mesh reaches the portal.
        mesh = coverage_fraction(
            grid_positions(3, 55.0) + 65.0, self.AREA, rng=rng_factory(1)
        )
        assert mesh > single * 1.5

    def test_fraction_bounded(self, rng_factory):
        frac = coverage_fraction(np.array([[0.0, 0.0]]), self.AREA,
                                 rng=rng_factory(2))
        assert 0.0 <= frac <= 1.0

    def test_portal_reachability_matters(self, rng_factory):
        """An island mesh point (unreachable from the portal) adds nothing."""
        connected = coverage_fraction(
            np.array([[60.0, 60.0], [110.0, 60.0]]), self.AREA,
            rng=rng_factory(3),
        )
        island = coverage_fraction(
            np.array([[60.0, 60.0], [5000.0, 60.0]]), self.AREA,
            rng=rng_factory(3),
        )
        lone = coverage_fraction(
            np.array([[60.0, 60.0]]), self.AREA, rng=rng_factory(3)
        )
        assert island == pytest.approx(lone, abs=0.02)
        assert connected > island

    def test_high_rate_coverage_smaller(self, rng_factory):
        pos = np.array([[120.0, 120.0]])
        low = coverage_fraction(pos, self.AREA, min_rate_mbps=6.0,
                                rng=rng_factory(4))
        high = coverage_fraction(pos, self.AREA, min_rate_mbps=54.0,
                                 rng=rng_factory(4))
        assert high < low

    def test_area_scales_fraction(self, rng_factory):
        pos = np.array([[120.0, 120.0]])
        frac = coverage_fraction(pos, self.AREA, rng=rng_factory(5))
        area = coverage_area_m2(pos, self.AREA, rng=rng_factory(5))
        assert area == pytest.approx(frac * self.AREA ** 2, rel=0.01)

    def test_bad_positions_rejected(self, rng_factory):
        with pytest.raises(ConfigurationError):
            coverage_fraction(np.zeros(3), 100.0, rng=rng_factory(6))

    @pytest.mark.parametrize("side", [np.nan, np.inf, -np.inf, -10.0, 0.0])
    def test_bad_area_side_rejected(self, side):
        with pytest.raises(ConfigurationError):
            coverage_result(np.array([[0.0, 0.0]]), side, rng=1)

    @pytest.mark.parametrize("portal", [1.7, 0.0, True, False, "0", None])
    def test_non_integer_portal_rejected(self, portal):
        with pytest.raises(ConfigurationError):
            coverage_result(np.array([[0.0, 0.0], [30.0, 0.0]]), 100.0,
                            portal=portal, rng=1)

    def test_numpy_integer_portal_accepted(self):
        pos = np.array([[0.0, 0.0], [30.0, 0.0]])
        assert coverage_result(pos, 100.0, portal=np.int64(1), rng=1,
                               n_samples=200).n_events == \
            coverage_result(pos, 100.0, portal=1, rng=1,
                            n_samples=200).n_events

    @pytest.mark.parametrize("n_samples", [2.5, 2.0, True, 0, -3, "10"])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(ConfigurationError, match="n_samples"):
            coverage_result(grid_positions(2, 40.0), 100.0,
                            n_samples=n_samples, rng=1)

    def test_numpy_integer_sample_count_accepted(self):
        pos = grid_positions(2, 40.0) + 30.0
        assert coverage_result(pos, 100.0, n_samples=np.int32(300),
                               rng=1).n_events == \
            coverage_result(pos, 100.0, n_samples=300, rng=1).n_events

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_min_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError, match="min_rate_mbps"):
            coverage_result(grid_positions(2, 40.0), 100.0,
                            min_rate_mbps=rate, rng=1)

    def test_non_finite_mesh_position_rejected(self):
        with pytest.raises(ConfigurationError):
            coverage_result(np.array([[0.0, 0.0], [np.nan, 0.0]]), 100.0,
                            rng=1)

    def test_e10_outputs_unchanged(self):
        """E10's coverage figures (benchmarks/test_bench_mesh_coverage)."""
        area = 240.0
        fractions = [
            coverage_fraction(np.array([[area / 2, area / 2]]), area,
                              n_samples=2500, rng=3),
            coverage_fraction(grid_positions(2, 55.0) + (area - 55.0) / 2,
                              area, n_samples=2500, rng=3),
            coverage_fraction(grid_positions(3, 55.0) + (area - 110.0) / 2,
                              area, n_samples=2500, rng=3),
        ]
        assert fractions == [0.198, 0.4712, 0.866]

    def test_vectorized_identical_to_scalar_loop(self, rng_factory):
        """The distance-matrix path must reproduce the seed-era
        per-sample scalar loop bit for bit at the same seed."""
        from repro.analysis.linkbudget import LinkBudget
        from repro.standards.registry import get_standard

        positions = grid_positions(2, 60.0) + 40.0
        n_samples, min_rate = 500, 6.0
        vec = coverage_fraction(positions, self.AREA,
                                min_rate_mbps=min_rate,
                                n_samples=n_samples, rng=rng_factory(31))

        # Inline seed-era reference: every mesh point here reaches the
        # portal (55 m links), so reachability pruning is a no-op.
        budget = LinkBudget()
        std = get_standard("802.11a")
        rng = rng_factory(31)
        points = rng.uniform(0.0, self.AREA, size=(n_samples, 2))
        covered = 0
        for p in points:
            d = np.sqrt(((positions - p) ** 2).sum(axis=1))
            snr = budget.snr_at(max(float(d.min()), 0.1))
            entry = std.rate_at_snr(snr)
            if entry is not None and entry.rate_mbps >= min_rate:
                covered += 1
        assert vec == covered / n_samples


def access_link():
    """One-phy hand-built surface: PER 1 -> 0 across 0..30 dB."""
    per = np.array([[[1.0, 0.5, 0.04, 0.0]]])
    return AbstractLink(PerSurface(
        name="access", channel="awgn", phys=["ofdm-54"], rate_mbps=[54.0],
        snr_db=[0.0, 10.0, 20.0, 30.0], payload_bytes=[1000], per=per,
        per_ci_low=per, per_ci_high=per, ber=per / 100.0,
        n_trials=np.full(per.shape, 100.0),
    ))


def reference_covered(positions, side, n_samples, seed, link=None,
                      max_per=0.1, min_rate_mbps=6.0, portal=0,
                      standard="802.11a"):
    """Covered count from the full ``(m, n, 2)`` distance matrix.

    Reachability is tested node by node with ``nx.has_path``; the sample
    points are the same ``n_samples`` uniform draws the engine makes.
    """
    budget = LinkBudget()
    std = get_standard(standard)
    net = MeshNetwork(positions, std, budget)
    reach = [j for j in range(len(positions))
             if nx.has_path(net.graph, portal, j)]
    points = np.random.default_rng(seed).uniform(0.0, side, (n_samples, 2))
    d = np.sqrt(((points[:, None, :] - positions[reach][None, :, :]) ** 2)
                .sum(axis=2))
    snr = budget.snr_at(np.maximum(d.min(axis=1), 0.1))
    if link is not None:
        return int(np.count_nonzero(np.asarray(link.per_at(snr)) <= max_per))
    entries = [std.rate_at_snr(s) for s in snr]
    return sum(e is not None and e.rate_mbps >= min_rate_mbps
               for e in entries)


def layout(kind, seed):
    """Seeded mesh layouts with a known share of portal-reachable nodes."""
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-5.0, 5.0, size=(9, 2))
    if kind == "one-reachable":
        # The portal is an island: the other nodes sit inside the area
        # but out of its link range.
        return np.array([[40.0, 40.0], [200.0, 60.0], [60.0, 200.0]]) \
            + jitter[:3]
    if kind == "all-reachable":
        return grid_positions(3, 55.0) + 65.0 + jitter
    if kind == "city-1000":
        # K=1000 on a 100 m grid with +-25 m jitter, in a 3200 m square.
        return grid_positions(32, 100.0)[:1000] + 50.0 \
            + rng.uniform(-25.0, 25.0, (1000, 2))
    if kind == "tied-grid":
        # Grid-aligned, four nodes doubled: link distances tie exactly,
        # and a doubled node is two exactly equidistant nearest points.
        grid = grid_positions(4, 50.0) + 45.0
        return np.concatenate([grid, grid[[0, 5, 10, 15]]])
    # Two 2x2 clusters far apart: only the portal's cluster counts.
    near = grid_positions(2, 50.0) + 30.0
    far = grid_positions(2, 50.0) + 170.0
    return np.concatenate([near, far]) + jitter[:8]


class TestCoverageMatchesDistanceMatrix:
    AREA = 240.0
    N_SAMPLES = 1500  # two engine batches of the default 1000

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["one-reachable", "all-reachable",
                                      "partly-disconnected"])
    @pytest.mark.parametrize("with_link", [False, True])
    def test_n_events_identical(self, kind, seed, with_link):
        positions = layout(kind, seed)
        link = access_link() if with_link else None
        net = MeshNetwork(positions, "802.11a", LinkBudget())
        n_reach = len(nx.node_connected_component(net.graph, 0))
        expected_reach = {"one-reachable": 1, "all-reachable": 9,
                          "partly-disconnected": 4}[kind]
        assert n_reach == expected_reach
        kwargs = {"link": link} if with_link else {}
        result = coverage_result(positions, self.AREA,
                                 n_samples=self.N_SAMPLES, rng=seed,
                                 **kwargs)
        assert result.n_events == reference_covered(
            positions, self.AREA, self.N_SAMPLES, seed, link=link)
        assert 0 < result.n_events < self.N_SAMPLES

    # kind -> (area side in m, standard of the mesh links)
    WIDE = {"city-1000": (3200.0, "802.11b"), "tied-grid": (400.0, "802.11a")}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(WIDE))
    @pytest.mark.parametrize("with_link", [False, True])
    def test_city_scale_and_tied_layouts(self, kind, seed, with_link):
        side, standard = self.WIDE[kind]
        positions = layout(kind, seed)
        link = access_link() if with_link else None
        kwargs = {"link": link} if with_link else {}
        result = coverage_result(positions, side, standard=standard,
                                 n_samples=self.N_SAMPLES, rng=seed,
                                 **kwargs)
        assert result.n_events == reference_covered(
            positions, side, self.N_SAMPLES, seed, link=link,
            standard=standard)
        assert 0 < result.n_events < self.N_SAMPLES
