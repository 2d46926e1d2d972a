"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one of the paper's quantitative claims (see
DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-measured
records). Result blocks bypass pytest's capture (so they are always
visible) and are also appended to ``benchmarks/results.txt`` as a durable
artifact of the last run.

Each benchmark asserts its own figures: deterministic counts and rates
exactly, timing ratios against a floor. Absolute speed is measured by
``perfbench/`` (``BENCHMARK.json``), not here.
"""

import os
import sys

import pytest

_RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")
_run_started = False


def emit(title, lines):
    """Print an experiment's result block and log it to results.txt."""
    global _run_started
    out = ["", "=" * 72, title, "-" * 72]
    out.extend(str(line) for line in lines)
    out.append("=" * 72)
    text = "\n".join(out)
    # sys.__stdout__ bypasses pytest's capture of sys.stdout.
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()
    mode = "a" if _run_started else "w"
    _run_started = True
    with open(_RESULTS_PATH, mode) as fh:
        fh.write(text + "\n")


@pytest.fixture
def report():
    """Fixture handing benchmarks the emit helper."""
    return emit
