"""In-memory span tracer that wraps the library's public functions from outside.

Nothing inside ``src/`` is instrumented: :meth:`Tracer.install` replaces
each function or method listed in :data:`WRAPS` with a wrapper that
records a span (calls, busy time, time covered by child spans, items
processed) and :meth:`Tracer.uninstall` puts the originals back.

Spans nest per thread, so a layer's self time is its busy time minus the
time its direct child spans cover. Campaign workers are forked while the
wrappers are installed: a forked process starts from empty statistics
and, whenever its outermost span closes, rewrites
``<flush_dir>/worker-<pid>.json`` with everything it has recorded. The
parent folds those files in with :meth:`Tracer.absorb_worker_files`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

import numpy as np

_perf = time.perf_counter


def _nth(args, kwargs, index, name):
    """Positional-or-keyword argument lookup for the item counters."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _rows(value):
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return int(shape[0]) if len(shape) > 1 else 1


# (module, class or None, attribute, span name, items(args, kwargs, out)).
# A function imported by name into another module is wrapped where it is
# looked up at call time, so the same function may appear more than once.
WRAPS = [
    ("repro.phy.ofdm", "OfdmPhy", "transmit_batch", "phy.ofdm.tx",
     lambda a, k, o: {"rows": len(_nth(a, k, 1, "psdus"))}),
    ("repro.phy.ofdm", "OfdmPhy", "receive_batch", "phy.ofdm.rx",
     lambda a, k, o: {"rows": len(o),
                      "failed_rows": sum(1 for p in o if p is None)}),
    ("repro.phy.convolutional", None, "viterbi_decode", "phy.viterbi",
     lambda a, k, o: {"rows": _rows(_nth(a, k, 0, "soft_bits"))}),
    ("repro.phy.modulation", "Modulator", "demodulate_soft", "phy.demap",
     lambda a, k, o: {"symbols": int(np.size(_nth(a, k, 1, "symbols")))}),
    ("repro.phy.mimo.ht", "HtPhy", "transmit", "phy.ht.tx", None),
    ("repro.phy.mimo.ht", "HtPhy", "receive", "phy.ht.rx",
     lambda a, k, o: {"packets": 1}),
    ("repro.phy.dsss", "DsssPhy", "modulate", "phy.chips", None),
    ("repro.phy.dsss", "DsssPhy", "demodulate", "phy.chips", None),
    ("repro.phy.cck", "CckPhy", "modulate", "phy.chips", None),
    ("repro.phy.cck", "CckPhy", "demodulate", "phy.chips", None),
    ("repro.core.link", None, "tgn_channel", "channel.tgn", None),
    ("repro.channel.multipath", "TappedDelayLine", "apply", "channel.tgn",
     None),
    ("repro.core.link", None, "grid_trial_draws", "link.draws", None),
    ("repro.core.link", "LinkSimulator", "run", "link.run",
     lambda a, k, o: {"packets": o.n_packets}),
    ("repro.core.link", None, "run_link_grid", "link.grid", None),
    ("repro.core.link", None, "run_grid_trials", "mc.grid",
     lambda a, k, o: {"trials": sum(m.n_trials for m in o)}),
    ("repro.core.link", None, "run_trials", "mc.run",
     lambda a, k, o: {"trials": o.n_trials}),
    ("repro.mesh.coverage", None, "run_trials", "mc.run",
     lambda a, k, o: {"trials": o.n_trials}),
    ("repro.core.link", None, "union_bound_per", "analysis.union_bound",
     None),
    ("repro.core.link", None, "union_bound_ber", "analysis.union_bound",
     None),
    ("repro.campaign.store_sqlite", "SqliteResultsStore", "append",
     "campaign.store.append", None),
    ("repro.campaign.store_sqlite", "SqliteResultsStore", "iter_records",
     "campaign.store.read", "generator"),
    ("repro.surrogate.surface", "PerSurface", "interpolate",
     "surrogate.interp",
     lambda a, k, o: {"points": int(np.size(_nth(a, k, 2, "snr_db")))}),
    ("repro.surrogate.surface", "PerSurface", "per_for_rate",
     "surrogate.per_for_rate", None),
    ("repro.surrogate.builder", None, "build_surface", "surrogate.build",
     None),
    ("repro.mesh.network", "MeshNetwork", "__init__", "mesh.graph", None),
    ("repro.mesh.coverage", None, "coverage_result", "mesh.coverage",
     lambda a, k, o: {"samples": o.n_trials}),
    ("repro.mac.rate_adaptation", None, "simulate_rate_adaptation",
     "mac.rate_adaptation", lambda a, k, o: {"packets": o.packets}),
]


class Tracer:
    """Per-name span statistics: calls, busy_s, child_s and item counts."""

    def __init__(self, flush_dir=None):
        self.flush_dir = flush_dir
        self._owner = os.getpid()
        self._pid = self._owner
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.stats = {}

    # -- recording -----------------------------------------------------------

    def _stack(self):
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker inherits the parent's statistics and open
            # spans; it reports only what it does itself.
            self._pid = pid
            self._lock = threading.Lock()
            self._local = threading.local()
            self.stats = {}
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"calls": 0, "busy_s": 0.0,
                                        "child_s": 0.0, "items": {}}
        return entry

    def _close(self, name, stack, dt, child_s, calls=1):
        with self._lock:
            entry = self._entry(name)
            entry["calls"] += calls
            # A span nested in a span of the same name is already inside
            # the outer one's busy time.
            if all(frame[0] != name for frame in stack):
                entry["busy_s"] += dt
                entry["child_s"] += child_s
        if stack:
            stack[-1][1] += dt
        elif self._pid != self._owner and self.flush_dir:
            self._flush()

    def _count(self, name, items):
        with self._lock:
            counts = self._entry(name)["items"]
            for key, value in items.items():
                counts[key] = counts.get(key, 0) + value

    def _flush(self):
        path = os.path.join(self.flush_dir, f"worker-{self._pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.stats, fh)
        os.replace(path + ".tmp", path)

    def absorb_worker_files(self):
        """Fold the workers' flushed statistics into this tracer's."""
        if not self.flush_dir or not os.path.isdir(self.flush_dir):
            return
        for fname in sorted(os.listdir(self.flush_dir)):
            if not (fname.startswith("worker-") and fname.endswith(".json")):
                continue
            path = os.path.join(self.flush_dir, fname)
            with open(path, encoding="utf-8") as fh:
                worker = json.load(fh)
            os.remove(path)
            for name, theirs in worker.items():
                ours = self._entry(name)
                for key in ("calls", "busy_s", "child_s"):
                    ours[key] += theirs[key]
                for key, value in theirs["items"].items():
                    ours["items"][key] = ours["items"].get(key, 0) + value

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, func, name, items):
        tracer = self

        if items == "generator":
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                it = func(*args, **kwargs)
                calls = 1
                while True:
                    stack = tracer._stack()
                    stack.append([name, 0.0])
                    t0 = _perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = _perf() - t0
                        child_s = stack.pop()[1]
                        tracer._close(name, stack, dt, child_s, calls)
                        calls = 0
                    yield item
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append([name, 0.0])
            t0 = _perf()
            try:
                out = func(*args, **kwargs)
            finally:
                dt = _perf() - t0
                child_s = stack.pop()[1]
                tracer._close(name, stack, dt, child_s)
            if items is not None:
                tracer._count(name, items(args, kwargs, out))
            return out
        return wrapper

    def install(self):
        """Replace every function in :data:`WRAPS` by its traced wrapper."""
        if self._patches:
            return
        for module_name, cls_name, attr, name, items in WRAPS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, items))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore the original functions, in reverse order of patching."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -------------------------------------------------------------

    def busy(self, name):
        """Busy seconds recorded under ``name`` (0 when never entered)."""
        return self.stats.get(name, {}).get("busy_s", 0.0)

    def self_s(self, name):
        """Busy seconds minus the time direct child spans covered."""
        entry = self.stats.get(name)
        return entry["busy_s"] - entry["child_s"] if entry else 0.0

    def calls(self, name):
        """How many times ``name`` was entered."""
        return self.stats.get(name, {}).get("calls", 0)

    def items(self, name, key):
        """Items of kind ``key`` counted under ``name``."""
        return self.stats.get(name, {}).get("items", {}).get(key, 0)
