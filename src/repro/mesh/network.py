"""The mesh network object: positions + link budget -> routed throughput."""

from __future__ import annotations

import contextlib

import networkx as nx
import numpy as np

from repro import obs
from repro.analysis.linkbudget import LinkBudget
from repro.errors import ConfigurationError, LinkBudgetError
from repro.mesh.metrics import airtime_metric_s, hop_count_metric
from repro.standards.registry import get_standard


class MeshNetwork:
    """A mesh of WLAN nodes over a distance-based link abstraction.

    Parameters
    ----------
    positions : (N, 2) array
        Node coordinates in metres.
    standard : str
        Which generation's rate table links use (default "802.11a").
    budget : LinkBudget, optional
        Radio parameters shared by all nodes.

    Examples
    --------
    >>> from repro.mesh.topology import line_positions
    >>> net = MeshNetwork(line_positions(3, 30.0))
    >>> path = net.best_path(0, 2)
    >>> net.path_throughput_mbps(path) > 0
    True
    """

    def __init__(self, positions, standard="802.11a", budget=None):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ConfigurationError("positions must be (N, 2)")
        if not np.isfinite(self.positions).all():
            raise ConfigurationError("positions must be finite")
        self.standard = get_standard(standard) if isinstance(standard, str) \
            else standard
        self.budget = budget or LinkBudget()
        self.n_nodes = self.positions.shape[0]
        self._build_graph()

    def _build_graph(self):
        """Link graph from a neighbour search, priced as all pairs were.

        A pair is a link when the SNR at its distance (clamped to 0.1 m)
        meets the standard's lowest rung. Only the candidate pairs of
        :meth:`_candidate_pairs` are priced: distance with the per-pair
        arithmetic of ``pairwise_distances``, ``snr_at``, then
        ``rate_at_snr`` replicated as a searchsorted against the sorted
        SNR thresholds with a running max of the rates they unlock (the
        highest rate whose requirement is met). Edges are added in
        row-major ``(i, j)`` order, so the graph, its attributes and its
        insertion order (hence shortest-path tie-breaking) are exactly
        those of the all-pairs pass, at O(N) cost for a sparse mesh.
        """
        self.graph = nx.Graph()
        self.graph.add_nodes_from(range(self.n_nodes))
        with obs.span("mesh.graph", n_nodes=self.n_nodes) as span:
            if self.n_nodes < 2 or not self.standard.rates:
                span.set(n_candidates=0, n_edges=0)
                return
            entries = sorted(self.standard.rates,
                             key=lambda r: r.required_snr_db)
            thresholds = np.array([r.required_snr_db for r in entries])
            best_rate = np.maximum.accumulate(
                np.array([r.rate_mbps for r in entries], dtype=float))

            iu, ju = self._candidate_pairs(thresholds[0])
            deltas = self.positions[iu] - self.positions[ju]
            pair_d = np.sqrt((deltas ** 2).sum(axis=1))
            snr = np.asarray(self.budget.snr_at(np.maximum(pair_d, 0.1)),
                             dtype=float)
            idx = np.searchsorted(thresholds, snr, side="right") - 1
            usable = idx >= 0

            # Metric functions are pure in the rate; price each distinct
            # ladder rung once instead of once per edge.
            metric_cache = {
                float(r): (airtime_metric_s(r), hop_count_metric(r))
                for r in np.unique(best_rate)
            }
            self.graph.add_edges_from(
                (i, j, {
                    "distance_m": d,
                    "snr_db": s,
                    "rate_mbps": rate,
                    "airtime_s": metric_cache[rate][0],
                    "hops": metric_cache[rate][1],
                })
                for i, j, d, s, rate in zip(
                    iu[usable].tolist(), ju[usable].tolist(),
                    pair_d[usable].tolist(), snr[usable].tolist(),
                    best_rate[idx[usable]].tolist())
            )
            span.set(n_candidates=len(iu),
                     n_edges=int(np.count_nonzero(usable)))

    def _candidate_pairs(self, lowest_snr_db):
        """Row-major sorted ``(i, j)``, i < j, of every possible link.

        A :class:`LinkBudget`'s SNR only falls with distance, so every
        link lies within the lowest rung's range, widened by a relative
        1e-9 plus 1e-9 m so rounding cannot drop a link on the boundary.
        Where ``range_for_snr`` rejects the rung as unreachable every
        pair is a candidate.
        """
        from scipy.spatial import cKDTree

        reach = np.inf
        with contextlib.suppress(LinkBudgetError):
            reach = self.budget.range_for_snr(lowest_snr_db)
        radius = reach * (1.0 + 1e-9) + 1e-9 if np.isfinite(reach) \
            else np.inf
        pairs = cKDTree(self.positions).query_pairs(radius,
                                                    output_type="ndarray")
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].T

    def link_rate_mbps(self, i, j):
        """Rate of the direct link i-j (None if out of range)."""
        if not self.graph.has_edge(i, j):
            return None
        return self.graph.edges[i, j]["rate_mbps"]

    def best_path(self, source, destination, metric="airtime"):
        """Minimum-cost path under the chosen metric.

        ``metric`` is "airtime" (the 802.11s intelligent-routing metric) or
        "hops" (naive shortest hop count). Returns the node list, or None
        when disconnected.
        """
        weight = {"airtime": "airtime_s", "hops": "hops"}.get(metric)
        if weight is None:
            raise ConfigurationError(
                f"metric must be 'airtime' or 'hops', got {metric!r}"
            )
        try:
            return nx.shortest_path(self.graph, source, destination,
                                    weight=weight)
        except nx.NetworkXNoPath:
            return None

    def path_rates(self, path):
        """Per-hop link rates along a node path."""
        if path is None or len(path) < 2:
            raise ConfigurationError("path must contain at least two nodes")
        return [self.graph.edges[a, b]["rate_mbps"]
                for a, b in zip(path[:-1], path[1:])]

    def path_throughput_mbps(self, path):
        """End-to-end goodput over a shared half-duplex medium.

        Hops of one flow cannot transmit simultaneously (single radio,
        single channel), so moving one bit end to end costs the *sum* of
        per-hop airtimes: throughput = 1 / sum_i (1 / r_i).
        """
        rates = self.path_rates(path)
        return 1.0 / sum(1.0 / r for r in rates)

    def path_airtime_per_bit(self, path):
        """Channel seconds consumed per delivered bit (spectral-efficiency
        proxy: lower is better)."""
        rates = self.path_rates(path)
        return sum(1.0 / (r * 1e6) for r in rates)

    def end_to_end_throughput_mbps(self, source, destination,
                                   metric="airtime"):
        """Best-path goodput between two nodes (0 when disconnected)."""
        path = self.best_path(source, destination, metric)
        if path is None or len(path) < 2:
            return 0.0
        return self.path_throughput_mbps(path)

    def is_connected(self):
        """True if every node can reach every other node."""
        return nx.is_connected(self.graph) if self.n_nodes > 0 else True

    def average_throughput_matrix(self, metric="airtime"):
        """Mean end-to-end goodput over all ordered node pairs."""
        totals = []
        for s in range(self.n_nodes):
            for d in range(self.n_nodes):
                if s == d:
                    continue
                totals.append(self.end_to_end_throughput_mbps(s, d, metric))
        return float(np.mean(totals)) if totals else 0.0
