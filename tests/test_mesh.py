"""Tests for mesh topology, metrics, network and routing."""

import math

import numpy as np
import pytest

from repro import obs
from repro.analysis.linkbudget import LinkBudget
from repro.errors import ConfigurationError
from repro.mesh.metrics import airtime_metric_s, hop_count_metric
from repro.mesh.network import MeshNetwork
from repro.mesh.routing import compare_direct_vs_relay
from repro.mesh.topology import (
    grid_positions,
    line_positions,
    pairwise_distances,
    random_positions,
)
from repro.standards.registry import get_standard


class TestTopology:
    def test_random_positions_in_area(self, rng):
        pos = random_positions(50, 100.0, rng)
        assert pos.shape == (50, 2)
        assert pos.min() >= 0 and pos.max() <= 100.0

    def test_grid_count_and_spacing(self):
        pos = grid_positions(3, 10.0)
        assert pos.shape == (9, 2)
        d = pairwise_distances(pos)
        assert d[0, 1] == pytest.approx(10.0)

    def test_line_positions(self):
        pos = line_positions(4, 25.0)
        assert pairwise_distances(pos)[0, 3] == pytest.approx(75.0)

    def test_distance_matrix_symmetric(self, rng):
        d = pairwise_distances(random_positions(10, 50.0, rng))
        assert np.allclose(d, d.T)
        assert np.allclose(np.diag(d), 0.0)

    def test_invalid_args_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            random_positions(0, 10.0, rng)
        with pytest.raises(ConfigurationError):
            line_positions(1, 5.0)


class TestMetrics:
    def test_airtime_decreases_with_rate(self):
        assert airtime_metric_s(54.0) < airtime_metric_s(6.0)

    def test_airtime_grows_with_error_rate(self):
        assert airtime_metric_s(54.0, 0.5) == pytest.approx(
            2 * airtime_metric_s(54.0, 0.0)
        )

    def test_hop_count_is_constant(self):
        assert hop_count_metric(6.0) == hop_count_metric(54.0) == 1.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            airtime_metric_s(0.0)


class TestMeshNetwork:
    def test_close_nodes_fast_link(self):
        net = MeshNetwork(line_positions(2, 5.0))
        assert net.link_rate_mbps(0, 1) == 54.0

    def test_distant_nodes_disconnected(self):
        net = MeshNetwork(line_positions(2, 5000.0))
        assert net.link_rate_mbps(0, 1) is None

    def test_multihop_beats_weak_direct_link(self):
        """The paper's claim: two fast hops beat one slow hop."""
        net = MeshNetwork(line_positions(3, 28.0))
        result = compare_direct_vs_relay(net, 0, 2)
        assert result["multihop_wins"]
        assert len(result["routed_path"]) == 3

    def test_direct_link_kept_when_strong(self):
        net = MeshNetwork(line_positions(3, 4.0))
        path = net.best_path(0, 2)
        assert path == [0, 2]

    def test_hop_metric_prefers_fewer_hops(self):
        net = MeshNetwork(line_positions(3, 28.0))
        assert net.best_path(0, 2, metric="hops") == [0, 2]
        assert net.best_path(0, 2, metric="airtime") == [0, 1, 2]

    def test_path_throughput_harmonic(self):
        net = MeshNetwork(line_positions(3, 10.0))
        # Two 54 Mbps hops on a shared medium: 27 Mbps end to end.
        assert net.path_throughput_mbps([0, 1, 2]) == pytest.approx(27.0)

    def test_airtime_per_bit(self):
        net = MeshNetwork(line_positions(2, 10.0))
        assert net.path_airtime_per_bit([0, 1]) == pytest.approx(
            1.0 / 54e6
        )

    def test_disconnected_throughput_zero(self):
        net = MeshNetwork(np.array([[0.0, 0.0], [9000.0, 0.0]]))
        assert net.end_to_end_throughput_mbps(0, 1) == 0.0

    def test_connectivity_check(self):
        assert MeshNetwork(line_positions(4, 20.0)).is_connected()
        assert not MeshNetwork(
            np.array([[0.0, 0.0], [9000.0, 0.0]])
        ).is_connected()

    @pytest.mark.parametrize("source, destination",
                             [(0, 7), (7, 0), (-1, 2), (0, 1.0), (True, 2)])
    def test_bad_endpoint_rejected(self, source, destination):
        net = MeshNetwork(line_positions(3, 20.0))
        with pytest.raises(ConfigurationError, match="must index a mesh"):
            net.best_path(source, destination)

    @pytest.mark.parametrize("k", [1, 16, 64, 256])
    def test_components_match_networkx(self, k):
        nx = pytest.importorskip("networkx")
        net = MeshNetwork(city_layout(k, k, spacing_m=60.0), "802.11a")
        for node in range(0, k, max(k // 8, 1)):
            assert net.component(np.int64(node)).tolist() == sorted(
                nx.node_connected_component(net.graph, node))
        assert net.is_connected() == nx.is_connected(net.graph)

    def test_empty_mesh_is_connected(self):
        net = MeshNetwork(np.zeros((0, 2)))
        assert net.is_connected()
        with pytest.raises(ConfigurationError):
            net.component(0)

    def test_unknown_metric_rejected(self):
        net = MeshNetwork(line_positions(2, 5.0))
        with pytest.raises(ConfigurationError):
            net.best_path(0, 1, metric="magic")

    def test_bad_positions_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshNetwork(np.zeros((3, 3)))

    def test_average_throughput_positive_when_connected(self):
        net = MeshNetwork(grid_positions(2, 20.0))
        assert net.average_throughput_matrix() > 0

    def test_non_finite_positions_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError):
                MeshNetwork([[0.0, 0.0], [bad, 0.0], [50.0, 0.0]],
                            "802.11b")

    def test_unreachable_budget_is_edgeless(self):
        budget = LinkBudget(fade_margin_db=200.0)
        net = MeshNetwork(grid_positions(3, 0.05), "802.11a", budget)
        assert net.graph.number_of_nodes() == 9
        assert net.graph.number_of_edges() == 0


def all_pairs_edges(positions, standard="802.11a", budget=None):
    """Every link of a mesh from the full distance matrix.

    Prices all N(N-1)/2 pairs in row-major ``(i, j)`` order: SNR over
    the clamped upper triangle, then the standard's ``rate_at_snr`` per
    link. Returns what ``list(graph.edges(data=True))`` lists.
    """
    positions = np.asarray(positions, dtype=float)
    std = get_standard(standard)
    budget = budget or LinkBudget()
    if len(positions) < 2:
        return []
    iu, ju = np.triu_indices(len(positions), k=1)
    pair_d = pairwise_distances(positions)[iu, ju]
    snr = np.asarray(budget.snr_at(np.maximum(pair_d, 0.1)), dtype=float)
    edges = []
    for i, j, d, s in zip(iu, ju, pair_d, snr):
        entry = std.rate_at_snr(s)
        if entry is None:
            continue
        rate = float(entry.rate_mbps)
        edges.append((int(i), int(j), {
            "distance_m": float(d), "snr_db": float(s), "rate_mbps": rate,
            "airtime_s": airtime_metric_s(rate),
            "hops": hop_count_metric(rate),
        }))
    return edges


def city_layout(seed, k, spacing_m=100.0, jitter=0.25):
    """A K-node mesh on a jittered grid whose side grows with sqrt(K)."""
    rng = np.random.default_rng(seed)
    n_side = math.ceil(math.sqrt(k))
    cells = rng.permutation(n_side * n_side)[:k]
    ij = np.stack([cells // n_side, cells % n_side], axis=1)
    return (ij + 0.5 + rng.uniform(-jitter, jitter, (k, 2))) * spacing_m


def assert_matches_all_pairs(positions, standard="802.11a", budget=None):
    net = MeshNetwork(positions, standard, budget)
    assert list(net.graph.nodes) == list(range(len(positions)))
    assert list(net.graph.edges(data=True)) == all_pairs_edges(
        positions, standard, budget)
    return net


class TestGraphMatchesAllPairs:
    """The neighbour-search graph equals the all-pairs one, order included."""

    @pytest.mark.parametrize("query", range(10))
    def test_city_layouts(self, query):
        k = (16, 64, 64, 256, 1000)[query % 5]
        net = assert_matches_all_pairs(city_layout(query, k), "802.11b")
        assert net.graph.number_of_edges() > k

    @pytest.mark.parametrize("standard",
                             ["802.11", "802.11a", "802.11b", "802.11g"])
    def test_standards(self, standard, rng):
        assert_matches_all_pairs(random_positions(120, 400.0, rng),
                                 standard)

    @pytest.mark.parametrize("budget", [
        LinkBudget(tx_power_dbm=-10.0),   # range inside the breakpoint
        LinkBudget(fade_margin_db=15.0),
        LinkBudget(breakpoint_m=30.0),
        LinkBudget(fade_margin_db=200.0),  # lowest rung unreachable
    ], ids=["low-tx", "fade-margin", "breakpoint-30m", "unreachable"])
    @pytest.mark.parametrize("standard", ["802.11a", "802.11b"])
    def test_non_default_budgets(self, budget, standard, rng):
        assert_matches_all_pairs(random_positions(80, 150.0, rng),
                                 standard, budget)

    @pytest.mark.parametrize("exponent", [0.0, -1.0])
    def test_flat_or_rising_loss_budget_rejected(self, exponent):
        """A budget whose SNR does not fall with distance is refused, so
        the neighbour search never needs an every-pair fallback for it."""
        with pytest.raises(ConfigurationError, match="path_loss_exponent"):
            LinkBudget(path_loss_exponent=exponent)

    def test_links_of_an_unreachable_range(self):
        """At 100 MHz the free-space loss is negative below ~0.24 m, so a
        budget ``range_for_snr`` rejects still links pairs within ~0.17 m
        (0.05 m through the 0.1 m clamp, and 0.15 m)."""
        budget = LinkBudget(frequency_hz=1e8, fade_margin_db=102.0)
        positions = [[0.0, 0.0], [0.05, 0.0], [0.15, 0.0], [0.2, 0.0],
                     [5.0, 0.0]]
        net = assert_matches_all_pairs(positions, "802.11a", budget)
        assert net.graph.has_edge(0, 1) and net.graph.has_edge(0, 2)
        assert not net.graph.has_edge(0, 3)

    def test_co_located_nodes(self, rng):
        base = random_positions(20, 200.0, rng)
        positions = np.concatenate([base, base[:5], base[5:10] + 0.03])
        net = assert_matches_all_pairs(positions)
        # Both the 0 m and the ~0.04 m pairs are priced at the 0.1 m clamp.
        assert net.graph.edges[0, 20]["distance_m"] == 0.0
        assert net.graph.edges[0, 20]["snr_db"] == \
            net.graph.edges[5, 25]["snr_db"]

    @pytest.mark.parametrize("budget", [LinkBudget(),
                                        LinkBudget(tx_power_dbm=-10.0)])
    @pytest.mark.parametrize("standard", ["802.11a", "802.11b"])
    def test_range_boundary(self, budget, standard):
        lowest = min(r.required_snr_db
                     for r in get_standard(standard).rates)
        reach = budget.range_for_snr(lowest)
        # The last and first distances (in ulps past the range) at which
        # the lowest rung still holds / no longer holds.
        steps = [reach]
        for _ in range(4000):
            steps.append(np.nextafter(steps[-1], np.inf))
        ok = budget.snr_at(np.array(steps)) >= lowest
        last = int(np.flatnonzero(ok)[-1])
        assert last + 1 < len(steps)
        inside = np.nextafter(reach, 0.0)
        for d, linked in ((reach, ok[0]), (inside, True),
                          (steps[last], True), (steps[last + 1], False)):
            net = assert_matches_all_pairs([[0.0, 0.0], [d, 0.0]],
                                           standard, budget)
            assert net.graph.has_edge(0, 1) == linked, d

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_meshes(self, n):
        net = assert_matches_all_pairs(line_positions(3, 20.0)[:n])
        assert net.n_nodes == n

    def test_equal_cost_tie_break_pinned(self):
        """Four equal-cost routes across a 3x3 grid (no diagonals at
        45 m spacing): the one picked follows edge insertion order."""
        net = MeshNetwork(grid_positions(3, 45.0))
        assert not net.graph.has_edge(0, 4)
        assert net.best_path(0, 8) == [0, 1, 2, 5, 8]
        assert net.best_path(0, 8, metric="hops") == [0, 1, 2, 5, 8]
        assert net.best_path(8, 0) == [8, 5, 2, 1, 0]

    def test_e9_multihop_outputs_unchanged(self):
        rows = []
        for total in (10.0, 20.0, 30.0, 40.0, 56.0, 70.0):
            net = MeshNetwork(line_positions(3, total / 2.0))
            rows.append((net.link_rate_mbps(0, 2) or 0.0,
                         net.end_to_end_throughput_mbps(0, 2),
                         net.end_to_end_throughput_mbps(0, 2, "hops")))
        assert rows == [(54.0, 54.0, 54.0), (54.0, 54.0, 54.0),
                        (24.0, 24.0, 24.0), (18.0, 27.0, 18.0),
                        (9.0, 18.0, 9.0), (0.0, 12.0, 12.0)]


class TestGraphSpan:
    def test_span_counts(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            net = MeshNetwork(line_positions(4, 28.0))
        (event,) = [e for e in tracer.drain()
                    if e["type"] == "span" and e["name"] == "mesh.graph"]
        # 28 m and 56 m apart link; 84 m is past the 62 m lowest-rung
        # range, so that pair is never priced.
        assert event["attrs"] == {"n_nodes": 4, "n_candidates": 5,
                                  "n_edges": 5}
        assert net.graph.number_of_edges() == 5

    def test_span_counts_unpriced_mesh(self):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            MeshNetwork(np.zeros((1, 2)))
        (event,) = [e for e in tracer.drain() if e["type"] == "span"]
        assert event["name"] == "mesh.graph"
        assert event["attrs"] == {"n_nodes": 1, "n_candidates": 0,
                                  "n_edges": 0}
