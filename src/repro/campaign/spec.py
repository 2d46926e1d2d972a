"""Declarative sweep specifications.

A :class:`CampaignSpec` names a parameter study: a *kind* (which
registered point function runs each point, see
:mod:`repro.campaign.runner`), a grid of *factors* (each a name mapped to
the values it sweeps), *fixed* parameters shared by every point, and a
*base seed* from which every point derives its own independent random
stream. ``expand()`` turns the spec into a deterministic, ordered list of
:class:`SweepPoint` objects — the cross product of the factors, with the
last factor varying fastest — whose indices double as substream indices.

Specs round-trip through plain dicts / JSON so campaigns can live in
files and be re-run byte-for-byte later::

    {
      "name": "ofdm-awgn",
      "kind": "link",
      "factors": {"phy": ["ofdm-6", "ofdm-54"], "snr_db": [10, 20, 30]},
      "fixed": {"channel": "awgn", "n_packets": 100, "payload_bytes": 100},
      "base_seed": 7,
      "meta": {"report": {"value": "per", "rows": "snr_db", "cols": "phy"}},
      "retries": 1,
      "timeout_s": 30.0
    }

``retries`` and ``timeout_s`` are the spec's failure-handling knobs:
how many extra deterministic attempts a failing point gets, and how
long one point may run before being recorded as ``timeout``. Both are
optional and both can be overridden per run from the CLI.

``store`` picks *where* records land (see :mod:`repro.campaign.store`);
``backend`` is a legacy knob that old specs still carry — it is
validated but selects nothing, since the worker count alone decides how
points run (see :mod:`repro.campaign.runner`). Neither enters the cache
key or the per-point seeds, so the same spec run under any store or
worker count produces bit-identical records — which is what makes a
killed run resumable under a different configuration than it started
with.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_SCALAR_TYPES = (str, int, float, bool, type(None))

#: Accepted values of the legacy ``backend`` knob. Both select the same
#: execution — inline at one worker, the sharded local queue (see
#: :mod:`repro.campaign.queue`) at more — and are kept only so old
#: specs and scripts still validate. The spec, runner and CLI all use
#: this rather than re-listing it.
EXECUTION_BACKENDS = ("pool", "local-queue")

#: Results-store backends (see :mod:`repro.campaign.store`).
STORE_BACKENDS = ("jsonl", "sqlite")


def validate_campaign_name(name):
    """Return ``name`` if it is a safe campaign identifier, else raise.

    Campaign names become directory names under the results store, so
    anything that is not a single filesystem-safe path component
    (letters, digits, ``.``, ``_``, ``-``; no separators, no leading
    dot) is rejected — this is also the store's defence against path
    traversal through CLI-supplied names like ``../../etc``.
    """
    if not isinstance(name, str) or not name or not _NAME_RE.match(name):
        raise ConfigurationError(
            f"campaign name {name!r} must be non-empty and "
            "filesystem-safe (letters, digits, '.', '_', '-')"
        )
    return name


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the expanded grid.

    ``index`` is the point's position in the deterministic expansion
    order; it is also the substream index used to derive the point's
    random seed and part of its cache identity.
    """

    index: int
    params: dict


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative description of one parameter sweep."""

    name: str
    kind: str
    factors: dict
    fixed: dict = field(default_factory=dict)
    base_seed: int = 0
    meta: dict = field(default_factory=dict)
    #: Extra attempts after the first for each failing point (0 = no
    #: retries). Attempt ``k`` draws from an independent deterministic
    #: stream; see :mod:`repro.campaign.seeding`.
    retries: int = 0
    #: Per-point wall-clock budget in seconds; ``None`` means unlimited.
    #: A point still running at the deadline is recorded as ``timeout``
    #: and the sweep moves on (timeouts are not retried).
    timeout_s: float = None
    #: Legacy execution backend knob: validated against
    #: :data:`EXECUTION_BACKENDS` but selects nothing (the worker count
    #: decides). Kept so old ``spec.json`` files still load.
    backend: str = None
    #: Default results-store backend (``None`` = resolve from
    #: environment / existing records / ``jsonl``). Overridable with
    #: ``--store``.
    store: str = None

    def __post_init__(self):
        validate_campaign_name(self.name)
        if not self.kind:
            raise ConfigurationError("campaign kind must be non-empty")
        if not self.factors:
            raise ConfigurationError("campaign needs at least one factor")
        for factor, values in self.factors.items():
            if isinstance(values, (str, bytes)) or not hasattr(values,
                                                              "__len__"):
                raise ConfigurationError(
                    f"factor {factor!r} must map to a sequence of values"
                )
            if len(values) == 0:
                raise ConfigurationError(f"factor {factor!r} has no values")
            for v in values:
                self._check_scalar(factor, v)
        overlap = set(self.factors) & set(self.fixed)
        if overlap:
            raise ConfigurationError(
                f"parameters {sorted(overlap)} appear in both factors and "
                "fixed"
            )
        for key, v in self.fixed.items():
            # Fixed params additionally allow flat lists of scalars —
            # cross-point kinds (link-grid) take e.g. an SNR list as one
            # parameter. Factors stay scalar: a list factor value would
            # make grid axes ambiguous.
            if isinstance(v, (list, tuple)):
                if len(v) == 0:
                    raise ConfigurationError(
                        f"fixed parameter {key!r} is an empty list")
                for item in v:
                    self._check_scalar(key, item)
            else:
                self._check_scalar(key, v)
        if isinstance(self.retries, bool) or not isinstance(self.retries,
                                                            int) \
                or self.retries < 0:
            raise ConfigurationError(
                f"retries must be a non-negative integer, got "
                f"{self.retries!r}"
            )
        if self.timeout_s is not None:
            if isinstance(self.timeout_s, bool) \
                    or not isinstance(self.timeout_s, (int, float)) \
                    or not math.isfinite(self.timeout_s) \
                    or self.timeout_s <= 0:
                raise ConfigurationError(
                    f"timeout_s must be a positive finite number or None, "
                    f"got {self.timeout_s!r}"
                )
        if self.backend is not None and self.backend not in \
                EXECUTION_BACKENDS:
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; available: "
                f"{', '.join(EXECUTION_BACKENDS)}"
            )
        if self.store is not None and self.store not in STORE_BACKENDS:
            raise ConfigurationError(
                f"unknown store backend {self.store!r}; available: "
                f"{', '.join(STORE_BACKENDS)}"
            )

    @staticmethod
    def _check_scalar(name, value):
        if not isinstance(value, _SCALAR_TYPES):
            raise ConfigurationError(
                f"parameter {name!r} value {value!r} is not a JSON scalar "
                "(str/int/float/bool/None)"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(
                f"parameter {name!r} value {value!r} is not finite; "
                "NaN/Infinity cannot round-trip through JSON specs or "
                "cache keys"
            )

    # -- expansion -----------------------------------------------------------

    @property
    def factor_names(self):
        """Factor names in declaration order (the grid's axis order)."""
        return list(self.factors)

    @property
    def n_points(self):
        """Size of the expanded grid (product of factor lengths)."""
        n = 1
        for values in self.factors.values():
            n *= len(values)
        return n

    def expand(self):
        """The full grid as an ordered list of :class:`SweepPoint`.

        The cross product iterates factors in declaration order with the
        last factor varying fastest, so a spec always expands to the same
        point ordering — which is what ties each point to a stable
        substream index.
        """
        names = self.factor_names
        points = []
        for index, combo in enumerate(
                itertools.product(*(self.factors[n] for n in names))):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            points.append(SweepPoint(index=index, params=params))
        return points

    # -- (de)serialisation ---------------------------------------------------

    def to_dict(self):
        """Plain-dict form, JSON-serialisable and `from_dict`-invertible."""
        return {
            "name": self.name,
            "kind": self.kind,
            "factors": {k: list(v) for k, v in self.factors.items()},
            "fixed": dict(self.fixed),
            "base_seed": self.base_seed,
            "meta": dict(self.meta),
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "backend": self.backend,
            "store": self.store,
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigurationError("campaign spec must be a JSON object")
        unknown = set(data) - {"name", "kind", "factors", "fixed",
                               "base_seed", "meta", "retries", "timeout_s",
                               "backend", "store"}
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec fields: {sorted(unknown)}"
            )
        try:
            return cls(
                name=data["name"],
                kind=data["kind"],
                factors=dict(data["factors"]),
                fixed=dict(data.get("fixed", {})),
                base_seed=int(data.get("base_seed", 0)),
                meta=dict(data.get("meta", {})),
                retries=data.get("retries", 0),
                timeout_s=data.get("timeout_s"),
                backend=data.get("backend"),
                store=data.get("store"),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"campaign spec missing required field {exc.args[0]!r}"
            ) from None

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"campaign spec {path}: invalid JSON ({exc})"
                ) from None
        return cls.from_dict(data)


# -- built-in campaigns ------------------------------------------------------
#
# Canonical specs for the paper experiments that are parameter sweeps. The
# CLI accepts these names anywhere it accepts a spec file, and the quick
# experiments in repro.core.experiments run scaled-down variants of them.

def _builtin_specs():
    return {
        "e3-dsss-cck": CampaignSpec(
            name="e3-dsss-cck",
            kind="link",
            factors={
                "phy": ["dsss-1", "dsss-2", "cck-5.5", "cck-11"],
                "snr_db": [-2.0, 2.0, 6.0, 10.0, 14.0],
            },
            fixed={"channel": "awgn", "n_packets": 25, "payload_bytes": 50},
            base_seed=42,
            meta={
                "description": "E3: 802.11/802.11b PER waterfalls "
                               "(2 -> 11 Mbps ladder)",
                "report": {"value": "per", "rows": "snr_db", "cols": "phy"},
            },
        ),
        "e4-ofdm": CampaignSpec(
            name="e4-ofdm",
            kind="link",
            factors={
                "phy": [f"ofdm-{r}" for r in (6, 9, 12, 18, 24, 36, 48, 54)],
                "snr_db": [4.0, 10.0, 16.0, 22.0, 28.0],
            },
            fixed={"channel": "awgn", "n_packets": 12, "payload_bytes": 60},
            base_seed=17,
            meta={
                "description": "E4: 802.11a OFDM PER waterfalls, 6-54 Mbps",
                "report": {"value": "per", "rows": "snr_db", "cols": "phy"},
            },
        ),
        "e6-mimo-range": CampaignSpec(
            name="e6-mimo-range",
            kind="mimo-range",
            factors={"antennas": ["1x1", "1x2", "2x2", "4x4"]},
            fixed={"n_draws": 4000, "outage": 0.01},
            base_seed=11,
            meta={
                "description": "E6: MIMO diversity 1%-outage fade margins "
                               "in Rayleigh fading",
                "report": {"value": "margin_db", "rows": "antennas"},
            },
        ),
        "e15-dcf": CampaignSpec(
            name="e15-dcf",
            kind="dcf",
            factors={"n_stations": [1, 5, 10, 20, 30]},
            fixed={"standard": "802.11a", "rate_mbps": 54.0,
                   "payload_bytes": 1500, "duration": 0.2},
            base_seed=0,
            meta={
                "description": "E15: DCF saturation throughput vs "
                               "station count",
                "report": {"value": "throughput_mbps", "rows": "n_stations"},
            },
        ),
    }


def builtin_campaigns():
    """Name -> :class:`CampaignSpec` for every built-in campaign."""
    return _builtin_specs()


def builtin_campaign(name):
    """Fetch one built-in campaign spec by name."""
    specs = _builtin_specs()
    if name not in specs:
        raise ConfigurationError(
            f"unknown built-in campaign {name!r}; available: "
            f"{', '.join(sorted(specs))}"
        )
    return specs[name]


def load_spec(name_or_path):
    """Resolve a CLI spec argument: built-in name or path to a JSON file."""
    if name_or_path in _builtin_specs():
        return _builtin_specs()[name_or_path]
    if str(name_or_path).endswith(".json"):
        return CampaignSpec.from_json(name_or_path)
    raise ConfigurationError(
        f"{name_or_path!r} is neither a built-in campaign "
        f"({', '.join(sorted(_builtin_specs()))}) nor a .json spec file"
    )
