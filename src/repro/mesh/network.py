"""The mesh network object: positions + link budget -> routed throughput."""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from repro import obs
from repro.analysis.linkbudget import LinkBudget
from repro.errors import ConfigurationError, LinkBudgetError
from repro.mesh.metrics import airtime_metric_s, hop_count_metric
from repro.standards.registry import get_standard


def check_node_index(node, n_nodes, name="node"):
    """``node`` as an int, if it indexes one of ``n_nodes`` mesh nodes."""
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)) \
            or not 0 <= node < n_nodes:
        raise ConfigurationError(
            f"{name} must index a mesh node (0..{n_nodes - 1}), got {node!r}"
        )
    return int(node)


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

    Attributes
    ----------
    links : record array
        The usable links in row-major ``(i, j)`` order, ``i < j``, with
        fields ``i``, ``j``, ``distance_m``, ``snr_db`` and ``rate_mbps``.

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
        self.links = self._price_links()

    def _price_links(self):
        """Usable links from a neighbour search, priced as all pairs were.

        A pair is a link when the SNR at its distance (clamped to 0.1 m)
        meets the standard's lowest rung. Only the candidate pairs of
        :meth:`_candidate_pairs` are priced: distance with the per-pair
        arithmetic of ``pairwise_distances``, ``snr_at``, then
        ``rate_at_snr`` replicated as a searchsorted against the sorted
        SNR thresholds with a running max of the rates they unlock (the
        highest rate whose requirement is met). Links are kept in
        row-major ``(i, j)`` order, so :attr:`graph`, its attributes and
        its insertion order (hence shortest-path tie-breaking) are
        exactly those of the all-pairs pass, at O(N) cost for a sparse
        mesh.
        """
        with obs.span("mesh.graph", n_nodes=self.n_nodes) as span:
            entries = sorted(self.standard.rates,
                             key=lambda r: r.required_snr_db)
            thresholds = np.array([r.required_snr_db for r in entries])
            best_rate = np.maximum.accumulate(
                np.array([r.rate_mbps for r in entries], dtype=float))
            iu = ju = np.empty(0, dtype=np.intp)
            if self.n_nodes >= 2 and entries:
                iu, ju = self._candidate_pairs(thresholds[0])
            deltas = self.positions[iu] - self.positions[ju]
            pair_d = np.sqrt((deltas ** 2).sum(axis=1))
            snr = np.asarray(self.budget.snr_at(np.maximum(pair_d, 0.1)),
                             dtype=float)
            idx = np.searchsorted(thresholds, snr, side="right") - 1
            usable = idx >= 0
            span.set(n_candidates=len(iu),
                     n_edges=int(np.count_nonzero(usable)))
            return np.rec.fromarrays(
                [iu[usable], ju[usable], pair_d[usable], snr[usable],
                 best_rate[idx[usable]]],
                names="i,j,distance_m,snr_db,rate_mbps")

    @functools.cached_property
    def graph(self):
        """The links as a networkx graph, built on first use.

        Nodes ``0..N-1``; one edge per link in row-major ``(i, j)``
        order, carrying ``distance_m``, ``snr_db``, ``rate_mbps`` and the
        ``airtime_s`` and ``hops`` routing metrics.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_nodes))
        # Metric functions are pure in the rate; price each distinct
        # ladder rung once instead of once per edge.
        metrics = {rate: (airtime_metric_s(rate), hop_count_metric(rate))
                   for rate in set(self.links.rate_mbps.tolist())}
        graph.add_edges_from(
            (i, j, {"distance_m": d, "snr_db": s, "rate_mbps": rate,
                    "airtime_s": metrics[rate][0], "hops": metrics[rate][1]})
            for i, j, d, s, rate in self.links.tolist())
        return graph

    @functools.cached_property
    def _component_labels(self):
        """Connected-component label of every node, from the link arrays."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        links, n = self.links, self.n_nodes
        adjacency = coo_matrix((np.ones(len(links)), (links.i, links.j)),
                               shape=(n, n))
        return connected_components(adjacency, directed=False)[1]

    def component(self, node):
        """Sorted indices of the nodes ``node`` reaches, itself included."""
        node = check_node_index(node, self.n_nodes)
        labels = self._component_labels
        return np.flatnonzero(labels == labels[node])

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
        when disconnected; an endpoint that is not a node index raises
        ``ConfigurationError``.
        """
        import networkx as nx

        weight = {"airtime": "airtime_s", "hops": "hops"}.get(metric)
        if weight is None:
            raise ConfigurationError(
                f"metric must be 'airtime' or 'hops', got {metric!r}"
            )
        source = check_node_index(source, self.n_nodes, "source")
        destination = check_node_index(destination, self.n_nodes,
                                       "destination")
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
        return not self._component_labels.any()

    def average_throughput_matrix(self, metric="airtime"):
        """Mean end-to-end goodput over all ordered node pairs."""
        totals = []
        for s in range(self.n_nodes):
            for d in range(self.n_nodes):
                if s == d:
                    continue
                totals.append(self.end_to_end_throughput_mbps(s, d, metric))
        return float(np.mean(totals)) if totals else 0.0
