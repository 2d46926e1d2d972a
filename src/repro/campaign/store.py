"""Persistent results store: ``results/<campaign>/`` on disk.

Two interchangeable backends share the store interface:

``jsonl`` (:class:`ResultsStore`, the default)
    One JSON object per completed point, appended as points finish.
    Append-only: re-running a point writes a new line, and loading
    dedupes by cache key with last-write-wins, so a crashed or
    ``--force`` run never corrupts earlier results. Each append is a
    single ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
    appenders (campaign parents, external processes on a shared
    filesystem) can never interleave torn lines — a kill at any byte
    loses at most the final, partially-written line, which the reader
    skips.
``sqlite`` (:class:`~repro.campaign.store_sqlite.SqliteResultsStore`)
    A WAL-journaled SQLite database keyed by cache key, for campaigns
    big enough that re-reading and deduping a JSONL file per query
    hurts. Dedupe happens at write time (key upsert) and ``report``/
    ``show`` stream aggregates from an index instead of loading every
    record. Selected with ``--store sqlite`` or ``REPRO_STORE=sqlite``.

Each campaign directory holds

``spec.json``
    The spec of the last run (for ``show``/``report`` defaults).
    Always a filesystem file, whichever backend holds the records.
``records.jsonl`` / ``records.sqlite``
    The backend's record storage.
``trace/``
    Telemetry of the last ``--trace`` run: per-process JSONL part
    files, merged into ``trace/trace.jsonl`` after the workers exit
    (see :mod:`repro.obs`). ``repro trace report`` renders it.

Records are plain dicts (see :mod:`repro.campaign.runner` for the
schema); the store never interprets metrics, it only rounds-trips them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from repro.campaign.spec import (STORE_BACKENDS, CampaignSpec,
                                 validate_campaign_name)
from repro.errors import ConfigurationError

RECORDS_FILE = "records.jsonl"
SPEC_FILE = "spec.json"
TRACE_DIR = "trace"

# Bookkeeping fields the runner adds in memory but that must not be
# persisted (they describe one run, not the point's result).
_EPHEMERAL_FIELDS = ("cached",)


def _json_safe(value):
    """Copy ``value`` with numpy leaves coerced and non-finites nulled.

    Metrics come from arbitrary point functions, so a stray ``nan``
    quantile or ``inf`` margin must not corrupt the store with tokens a
    strict parser rejects. Numpy scalars are normalized *first*: a
    ``np.float32("nan")`` is not a ``float`` subclass, so testing
    ``isinstance(value, float)`` alone would wave it through to
    ``json.dumps(allow_nan=False)``, which raises and kills the record.
    """
    if isinstance(value, np.generic):
        value = value.item()
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def encode_record(record):
    """One record as a complete, newline-terminated JSONL line (bytes).

    Ephemeral per-run fields are stripped and values sanitized; the
    result is what both backends persist, so their records compare
    byte-for-byte.
    """
    clean = _json_safe({k: v for k, v in record.items()
                        if k not in _EPHEMERAL_FIELDS})
    return (json.dumps(clean, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


class ResultsStore:
    """Filesystem-backed store of campaign results (JSONL backend)."""

    #: Backend name this class implements (``make_store`` key).
    backend = "jsonl"

    def __init__(self, root="results"):
        self.root = os.fspath(root)

    def campaign_dir(self, name):
        """Directory holding one campaign's spec and records.

        ``name`` is validated against the spec naming rule before being
        joined under ``root``, so CLI-supplied names like ``../../etc``
        cannot escape the store.
        """
        validate_campaign_name(name)
        return os.path.join(self.root, name)

    def _records_path(self, name):
        return os.path.join(self.campaign_dir(name), RECORDS_FILE)

    def trace_dir(self, name):
        """Directory for a campaign's trace part files (may not exist)."""
        return os.path.join(self.campaign_dir(name), TRACE_DIR)

    def trace_path(self, name):
        """The merged trace a traced run leaves behind, or ``None``.

        ``repro trace report`` reads this; ``None`` means the campaign
        was never run with ``--trace`` against this store.
        """
        from repro.obs import MERGED_TRACE_FILE

        path = os.path.join(self.trace_dir(name), MERGED_TRACE_FILE)
        return path if os.path.exists(path) else None

    def status_path(self, name):
        """Where a live run writes its ``status.json`` snapshot.

        Always returns the path (``repro campaign watch`` polls it into
        existence); callers check ``os.path.exists`` themselves.
        """
        from repro.obs import live

        return live.status_path(self.campaign_dir(name))

    # -- writing -------------------------------------------------------------

    def write_spec(self, spec):
        """Persist the spec alongside its records."""
        os.makedirs(self.campaign_dir(spec.name), exist_ok=True)
        path = os.path.join(self.campaign_dir(spec.name), SPEC_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def append(self, name, record):
        """Append one completed point record, atomically.

        The line is encoded in full first and emitted with a single
        ``os.write`` on an ``O_APPEND`` descriptor. POSIX serializes
        ``O_APPEND`` writes, so concurrent appenders from any number of
        processes cannot interleave torn lines — which a buffered text
        handle *can* once a line outgrows its buffer, silently breaking
        resume (the reader tolerates the tear but then re-runs or loses
        the point).
        """
        os.makedirs(self.campaign_dir(name), exist_ok=True)
        data = encode_record(record)
        fd = os.open(self._records_path(name),
                     os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            # Heal a torn tail before writing behind it: a file killed
            # mid-append ends without a newline, and appending straight
            # after the fragment would glue this record onto it —
            # corrupting a *good* record instead of just losing the torn
            # one. Every writer emits newline-terminated lines, so a
            # missing final newline can only mean a tear (or a stray
            # concurrent fragment, where the extra blank line is
            # harmless — the reader skips it).
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            os.write(fd, data)
        finally:
            os.close(fd)

    def append_many(self, name, records):
        """Append a batch of records (one atomic write each)."""
        for record in records:
            self.append(name, record)

    # -- reading -------------------------------------------------------------

    def load(self, name):
        """All records for a campaign, deduped by key (last write wins)."""
        path = self._records_path(name)
        if not os.path.exists(path):
            return []
        by_key = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line from a killed run
                if not isinstance(record, dict) or not record.get("key"):
                    continue  # keyless lines cannot be deduped or cached
                by_key[record["key"]] = record
        return sorted(by_key.values(),
                      key=lambda r: (r.get("index", 0), r.get("key", "")))

    def iter_records(self, name):
        """Iterate records in ``(index, key)`` order.

        The JSONL backend must still read the whole file to dedupe
        (last write wins needs the future), so this is a convenience
        over :meth:`load`; the sqlite backend overrides it with a true
        streaming cursor.
        """
        yield from self.load(name)

    def count(self, name):
        """Number of (deduped) records for a campaign."""
        return len(self.load(name))

    def load_spec(self, name):
        """The spec saved with a campaign's results."""
        path = os.path.join(self.campaign_dir(name), SPEC_FILE)
        if not os.path.exists(path):
            raise ConfigurationError(
                f"campaign {name!r} has no spec in {self.root!r} "
                "(never run here?)"
            )
        return CampaignSpec.from_json(path)

    def campaigns(self):
        """Sorted ``(name, n_records)`` for every campaign in the store."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for entry in sorted(os.listdir(self.root)):
            try:
                validate_campaign_name(entry)
            except ConfigurationError:
                continue  # stray directory that no campaign could own
            cdir = os.path.join(self.root, entry)
            if not os.path.isdir(cdir):
                continue
            has_spec = os.path.exists(os.path.join(cdir, SPEC_FILE))
            has_records = os.path.exists(os.path.join(cdir, RECORDS_FILE))
            if has_spec or has_records:
                found.append((entry, self.count(entry)))
        return found

    def close(self):
        """Release any held resources (no-op for the JSONL backend)."""


# -- backend selection -------------------------------------------------------

def make_store(root="results", backend=None):
    """Instantiate a results store for ``backend``.

    ``backend`` resolves as: explicit argument, else the
    ``REPRO_STORE`` environment variable, else ``jsonl``. Unknown names
    raise :class:`~repro.errors.ConfigurationError`.
    """
    backend = backend or os.environ.get("REPRO_STORE") or "jsonl"
    if backend == "jsonl":
        return ResultsStore(root)
    if backend == "sqlite":
        from repro.campaign.store_sqlite import SqliteResultsStore

        return SqliteResultsStore(root)
    raise ConfigurationError(
        f"unknown store backend {backend!r}; available: "
        f"{', '.join(STORE_BACKENDS)}"
    )


def detect_store_backend(root, name):
    """Which backend holds records for ``name`` under ``root``, if any.

    Returns ``"sqlite"``, ``"jsonl"``, or ``None`` when the campaign
    has no records in either backend. ``repro campaign resume`` uses
    this so a campaign resumes against the store that actually holds
    its partial results, whatever the current default is.
    """
    from repro.campaign.store_sqlite import DB_FILE

    validate_campaign_name(name)
    cdir = os.path.join(os.fspath(root), name)
    if os.path.exists(os.path.join(cdir, DB_FILE)):
        return "sqlite"
    if os.path.exists(os.path.join(cdir, RECORDS_FILE)):
        return "jsonl"
    return None


def resolve_store_backend(root=None, name=None, explicit=None,
                          spec_default=None):
    """The store backend to use, by precedence.

    Explicit CLI flag > ``REPRO_STORE`` environment > the spec's
    ``store`` knob > detection of existing records (when ``root`` and
    ``name`` are given) > ``jsonl``.
    """
    if explicit:
        return explicit
    env = os.environ.get("REPRO_STORE")
    if env:
        return env
    if spec_default:
        return spec_default
    if root is not None and name is not None:
        detected = detect_store_backend(root, name)
        if detected:
            return detected
    return "jsonl"


def scan_campaigns(root):
    """Every campaign under ``root`` across both backends.

    Returns sorted ``(name, n_records, backend)`` tuples; campaigns
    with a spec but no records yet report the default backend and a
    zero count.
    """
    root = os.fspath(root)
    if not os.path.isdir(root):
        return []
    found = []
    for entry in sorted(os.listdir(root)):
        try:
            validate_campaign_name(entry)
        except ConfigurationError:
            continue
        cdir = os.path.join(root, entry)
        if not os.path.isdir(cdir):
            continue
        backend = detect_store_backend(root, entry)
        if backend is None:
            if os.path.exists(os.path.join(cdir, SPEC_FILE)):
                found.append((entry, 0, "jsonl"))
            continue
        store = make_store(root, backend)
        try:
            found.append((entry, store.count(entry), backend))
        finally:
            store.close()
    return found
