"""Indexed results store: SQLite with WAL journaling.

Same interface as the JSONL :class:`~repro.campaign.store.ResultsStore`
— ``append``/``load``/``iter_records``/``count``/``campaigns`` and the
inherited spec/trace plumbing — but records live in
``results/<campaign>/records.sqlite`` keyed by cache key:

* dedupe happens at write time (``INSERT OR REPLACE`` on the key), so
  readers never re-read and dedupe a whole file;
* ``iter_records`` is a true streaming cursor in ``(index, key)``
  order, so ``report``/``show`` on 10^5+ records never materialize the
  full record list;
* ``count``/``outcome_counts`` are index lookups.

Crash safety: every ``append`` is its own committed transaction in WAL
mode, so a SIGKILL at any byte loses at most in-flight appends — the
next open replays the WAL and sees every committed record. Even
deleting the ``-wal``/``-shm`` sidecars after a kill (losing the
committed-but-uncheckpointed tail) only costs recomputation: resume
re-runs the missing points from their deterministic substreams and the
final record set is bit-identical.

Records are stored as their canonical JSONL line (the same bytes the
JSONL backend appends), so the two backends are byte-for-byte
interchangeable and a record survives a backend migration unchanged.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time

from repro.campaign.store import (SPEC_FILE, ResultsStore, encode_record)
from repro.errors import ConfigurationError

DB_FILE = "records.sqlite"

#: Seconds a connection waits on another writer's lock.
BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    key     TEXT PRIMARY KEY,
    idx     INTEGER NOT NULL,
    outcome TEXT,
    record  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS records_idx ON records (idx);
CREATE INDEX IF NOT EXISTS records_outcome ON records (outcome);
"""


class SqliteResultsStore(ResultsStore):
    """SQLite-backed campaign results store (``--store sqlite``)."""

    backend = "sqlite"

    def __init__(self, root="results"):
        super().__init__(root)
        self._connections = {}

    def _db_path(self, name):
        return os.path.join(self.campaign_dir(name), DB_FILE)

    def _connect(self, name):
        conn = self._connections.get(name)
        if conn is not None:
            return conn
        os.makedirs(self.campaign_dir(name), exist_ok=True)
        conn = sqlite3.connect(self._db_path(name), timeout=BUSY_TIMEOUT_S)
        # Processes opening a new database together can get "database is
        # locked" at once from the set-up below: SQLite skips the busy
        # handler where waiting could deadlock. Retry until the timeout.
        deadline = time.monotonic() + BUSY_TIMEOUT_S
        while True:
            try:
                # WAL keeps readers unblocked during appends and makes
                # each committed transaction the crash-safety unit;
                # NORMAL sync is safe with WAL (a crash can lose the
                # last commit, never corrupt the database — resume
                # recomputes the difference).
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(_SCHEMA)
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    conn.close()
                    raise
                time.sleep(0.01)
        self._connections[name] = conn
        return conn

    # -- writing -------------------------------------------------------------

    def append(self, name, record):
        """Upsert one record by key, committed immediately.

        The per-append commit is deliberate: it makes every completed
        point durable the moment it lands, which is the property resume
        relies on after a SIGKILL.
        """
        key = record.get("key")
        if not key:
            raise ConfigurationError(
                "sqlite store requires records with a non-empty 'key'"
            )
        line = encode_record(record).decode("utf-8").rstrip("\n")
        conn = self._connect(name)
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO records (key, idx, outcome, record) "
                "VALUES (?, ?, ?, ?)",
                (key, int(record.get("index", 0)),
                 record.get("outcome"), line),
            )

    def append_many(self, name, records):
        """Upsert a batch of records in one transaction (bulk loads)."""
        rows = []
        for record in records:
            key = record.get("key")
            if not key:
                raise ConfigurationError(
                    "sqlite store requires records with a non-empty 'key'"
                )
            line = encode_record(record).decode("utf-8").rstrip("\n")
            rows.append((key, int(record.get("index", 0)),
                         record.get("outcome"), line))
        conn = self._connect(name)
        with conn:
            conn.executemany(
                "INSERT OR REPLACE INTO records (key, idx, outcome, record) "
                "VALUES (?, ?, ?, ?)", rows)

    # -- reading -------------------------------------------------------------

    def iter_records(self, name):
        """Stream records in ``(index, key)`` order without loading all."""
        if not os.path.exists(self._db_path(name)):
            return
        cursor = self._connect(name).execute(
            "SELECT record FROM records ORDER BY idx, key")
        for (line,) in cursor:
            yield json.loads(line)

    def load(self, name):
        """All records for a campaign (already deduped at write time)."""
        return list(self.iter_records(name))

    def count(self, name):
        """Number of records, from the index — no record loads."""
        if not os.path.exists(self._db_path(name)):
            return 0
        (n,) = self._connect(name).execute(
            "SELECT COUNT(*) FROM records").fetchone()
        return n

    def outcome_counts(self, name):
        """``{outcome: count}`` streamed from the outcome index."""
        if not os.path.exists(self._db_path(name)):
            return {}
        cursor = self._connect(name).execute(
            "SELECT outcome, COUNT(*) FROM records GROUP BY outcome")
        return {outcome: n for outcome, n in cursor}

    def campaigns(self):
        """Sorted ``(name, n_records)`` for campaigns with sqlite records."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for entry in sorted(os.listdir(self.root)):
            cdir = os.path.join(self.root, entry)
            if not os.path.isdir(cdir):
                continue
            has_db = os.path.exists(os.path.join(cdir, DB_FILE))
            has_spec = os.path.exists(os.path.join(cdir, SPEC_FILE))
            if has_db or has_spec:
                found.append((entry, self.count(entry)))
        return found

    def close(self):
        """Close every cached connection (flushes the WAL checkpoint)."""
        for conn in self._connections.values():
            conn.close()
        self._connections.clear()
