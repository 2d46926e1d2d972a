"""repro — reproduction of "Wireless LAN: Past, Present, and Future"
(Keith Holt, DATE 2005).

A full-stack 802.11 simulation library covering every generation the
paper surveys:

* ``repro.phy`` — baseband PHYs: DSSS/FHSS (802.11), CCK (802.11b),
  OFDM (802.11a/g), MIMO-OFDM with STBC/beamforming (802.11n), plus the
  complete FEC chain (scrambler, convolutional/Viterbi, LDPC).
* ``repro.channel`` — AWGN, Rayleigh/Ricean fading, TGn-style multipath,
  dual-slope path loss.
* ``repro.standards`` — rate tables, MCS tables, timing for each
  generation.
* ``repro.mac`` — DCF CSMA/CA discrete-event simulation, the Bianchi
  model, 802.11 power save.
* ``repro.mesh`` — mesh topologies, airtime-metric routing, coverage.
* ``repro.coop`` — cooperative diversity (DF/AF relaying, outage theory).
* ``repro.power`` — PAPR, PA back-off, MIMO chain power, platform budgets.
* ``repro.core`` — the link-level engine and the paper's evolution
  framework.
* ``repro.campaign`` — declarative parameter sweeps run inline or on a
  sharded work queue, with per-point seed substreams and a persistent
  results store.
* ``repro.obs`` — structured tracing and run telemetry: nestable
  spans, counters, per-process JSONL traces, ``repro trace report``.
* ``repro.analysis`` — closed-form BER/capacity/link-budget yardsticks.

Quick start::

    from repro import LinkSimulator
    result = LinkSimulator("ofdm-54", "awgn", rng=0).run(snr_db=30)
    print(result.per, result.goodput_mbps)
"""

from repro.analysis.linkbudget import LinkBudget
from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.core.evolution import evolution_report, format_evolution_table
from repro.core.link import LinkResult, LinkSimulator
from repro.errors import (
    CodingError,
    ConfigurationError,
    DemodulationError,
    LinkBudgetError,
    ReproError,
    SimulationError,
)
from repro.mac.dcf import DcfSimulator
from repro.mesh.network import MeshNetwork
from repro.standards.registry import GENERATIONS, get_standard

__version__ = "1.0.0"

__all__ = [
    "CampaignSpec",
    "LinkBudget",
    "ResultsStore",
    "run_campaign",
    "evolution_report",
    "format_evolution_table",
    "LinkResult",
    "LinkSimulator",
    "CodingError",
    "ConfigurationError",
    "DemodulationError",
    "LinkBudgetError",
    "ReproError",
    "SimulationError",
    "DcfSimulator",
    "MeshNetwork",
    "GENERATIONS",
    "get_standard",
    "__version__",
]
