"""Multi-cell frequency reuse and co-channel interference.

The paper's history hinges on spectrum: "the large commercial success of
wireless LAN products ... motivated regulatory bodies ... to open
additional spectrum at 5 GHz". The practical consequence is channel
count: 2.4 GHz offers only 3 non-overlapping 20 MHz channels, the
2005-era 5 GHz U-NII bands offered 8+. This module quantifies what that
buys a dense deployment:

* conflict-graph channel assignment (greedy colouring over networkx);
* SINR at client points with co-channel interference summed linearly;
* deployment capacity comparisons between band plans.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.linkbudget import LinkBudget
from repro.errors import ConfigurationError
from repro.mesh.topology import pairwise_distances
from repro.standards.registry import get_standard
from repro.utils.conversion import dbm_to_watts, watts_to_dbm
from repro.utils.rng import as_generator

#: Non-overlapping 20 MHz channels per band plan (2005-era regulations).
BAND_PLANS = {
    "2.4GHz": 3,    # channels 1 / 6 / 11
    "5GHz": 8,      # U-NII-1 + U-NII-2 as opened for 802.11a
    "5GHz-extended": 12,  # after the 2004 U-NII-2e expansion
}


def channels_in_band(band):
    """Number of non-overlapping channels a band plan offers."""
    if band not in BAND_PLANS:
        raise ConfigurationError(
            f"unknown band {band!r}; choose from {sorted(BAND_PLANS)}"
        )
    return BAND_PLANS[band]


def conflict_graph(positions, interference_range_m):
    """Graph with an edge between every AP pair that can interfere."""
    import networkx as nx

    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError("positions must be (N, 2)")
    distances = pairwise_distances(positions)
    graph = nx.Graph()
    graph.add_nodes_from(range(positions.shape[0]))
    n = positions.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if distances[i, j] <= interference_range_m:
                graph.add_edge(i, j)
    return graph


def assign_channels(positions, n_channels, interference_range_m=120.0):
    """Greedy channel assignment over the conflict graph.

    Returns
    -------
    (assignment, conflicts) : (list of int, int)
        ``assignment[i]`` is AP i's channel (0-based); ``conflicts`` counts
        conflict-graph edges whose endpoints had to share a channel (0 when
        the graph is n_channels-colourable by the greedy order).
    """
    import networkx as nx

    if n_channels < 1:
        raise ConfigurationError("need at least one channel")
    graph = conflict_graph(positions, interference_range_m)
    colours = nx.greedy_color(graph, strategy="largest_first")
    assignment = [colours[i] % n_channels for i in range(len(positions))]
    conflicts = sum(
        1 for a, b in graph.edges if assignment[a] == assignment[b]
    )
    return assignment, conflicts


def sinr_db_at(point, serving_index, positions, assignment, budget=None):
    """SINR at a client point served by one AP amid co-channel others."""
    budget = budget or LinkBudget()
    positions = np.asarray(positions, dtype=float)
    point = np.asarray(point, dtype=float)
    distances = np.sqrt(((positions - point) ** 2).sum(axis=1))
    distances = np.maximum(distances, 0.5)
    rx_dbm = np.array([
        budget.tx_power_dbm + budget.antenna_gain_db
        - _loss_db(budget, d) for d in distances
    ])
    signal_w = dbm_to_watts(rx_dbm[serving_index])
    noise_w = dbm_to_watts(budget.noise_dbm)
    interferers = [
        i for i in range(len(positions))
        if i != serving_index and assignment[i] == assignment[serving_index]
    ]
    interference_w = sum(dbm_to_watts(rx_dbm[i]) for i in interferers)
    return float(watts_to_dbm(signal_w) - watts_to_dbm(
        noise_w + interference_w
    ))


def _loss_db(budget, distance_m):
    from repro.channel.pathloss import breakpoint_path_loss_db

    return breakpoint_path_loss_db(
        distance_m, budget.frequency_hz, budget.breakpoint_m,
        budget.path_loss_exponent,
    )


def deployment_capacity(positions, band, standard="802.11a", budget=None,
                        interference_range_m=120.0, n_clients=400,
                        area_side_m=None, rng=None):
    """Mean client rate across a deployment under a band plan.

    Clients are scattered uniformly; each associates with its nearest AP
    and gets the standard's best rate at its SINR (0 if below the ladder).

    Returns
    -------
    dict with ``mean_rate_mbps``, ``outage_fraction`` (clients with no
    usable rate), ``conflicts`` and ``n_channels``.
    """
    budget = budget or LinkBudget()
    std = get_standard(standard) if isinstance(standard, str) else standard
    rng = as_generator(rng)
    positions = np.asarray(positions, dtype=float)
    n_channels = channels_in_band(band)
    assignment, conflicts = assign_channels(
        positions, n_channels, interference_range_m
    )
    if area_side_m is None:
        area_side_m = float(positions.max() + positions.min())
    clients = rng.uniform(0.0, area_side_m, size=(int(n_clients), 2))
    rates = np.zeros(int(n_clients))
    for i, point in enumerate(clients):
        distances = np.sqrt(((positions - point) ** 2).sum(axis=1))
        serving = int(np.argmin(distances))
        sinr = sinr_db_at(point, serving, positions, assignment, budget)
        entry = std.rate_at_snr(sinr)
        rates[i] = 0.0 if entry is None else entry.rate_mbps
    return {
        "mean_rate_mbps": float(rates.mean()),
        "outage_fraction": float((rates == 0).mean()),
        "conflicts": conflicts,
        "n_channels": n_channels,
    }
