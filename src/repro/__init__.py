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

``import repro`` itself loads no subpackage. The top-level names
(``repro.LinkSimulator``, ``repro.run_campaign``, ...) and the
subpackages (``repro.mesh``, ...) resolve on first use, so a link user
never pays for networkx or ``scipy.signal``.

Quick start::

    from repro import LinkSimulator
    result = LinkSimulator("ofdm-54", "awgn", rng=0).run(snr_db=30)
    print(result.per, result.goodput_mbps)
"""

import importlib
import importlib.util

#: Each top-level name and the module that defines it; ``__getattr__``
#: (PEP 562) imports that module the first time the name is used.
_EXPORTS = {
    "LinkBudget": "repro.analysis.linkbudget",
    "CampaignSpec": "repro.campaign",
    "ResultsStore": "repro.campaign",
    "run_campaign": "repro.campaign",
    "evolution_report": "repro.core.evolution",
    "format_evolution_table": "repro.core.evolution",
    "LinkResult": "repro.core.link",
    "LinkSimulator": "repro.core.link",
    "CodingError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "DemodulationError": "repro.errors",
    "LinkBudgetError": "repro.errors",
    "ReproError": "repro.errors",
    "SimulationError": "repro.errors",
    "DcfSimulator": "repro.mac.dcf",
    "MeshNetwork": "repro.mesh.network",
    "GENERATIONS": "repro.standards.registry",
    "get_standard": "repro.standards.registry",
}

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


def __getattr__(name):
    """Resolve a top-level name or subpackage on first use and cache it."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    elif (not name.startswith("_")
          and importlib.util.find_spec(f"{__name__}.{name}") is not None):
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    """Module attributes plus the lazily resolved top-level names."""
    return sorted(set(globals()) | set(__all__))
