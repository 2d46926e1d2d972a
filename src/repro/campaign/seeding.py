"""Deterministic per-point seeding for parallel campaigns.

Each sweep point gets its own :class:`numpy.random.SeedSequence` derived
from the campaign's base seed and the point's grid index via
``SeedSequence`` spawning (:func:`repro.utils.rng.substream`). The
derivation is *stateless* — child ``i`` is a pure function of
``(base_seed, i)`` — so:

* every point's stream is statistically independent of every other's;
* a point computes identical results whether it runs in the main
  process, in any of N queue workers, first or last: an ``N``-worker
  campaign is bit-identical to the serial one;
* re-expanding the same spec reproduces the same streams, which is what
  makes cached results interchangeable with fresh ones.

The flip side: a point's seed depends on its *index*, so editing the
grid (adding/removing/reordering factor values) renumbers points and
deliberately invalidates their cache entries.

Retries extend the scheme one level: attempt ``k`` of point ``i`` draws
from ``SeedSequence(base_seed, spawn_key=(i, k))`` for ``k >= 1``, while
attempt 0 keeps the plain per-point stream ``spawn_key=(i,)``. First-try
results are therefore bit-identical whether retries are enabled or not,
and every retry is itself a pure function of ``(base_seed, index,
attempt)`` — a sweep that needed a second attempt on point 7 reproduces
that second attempt exactly on every machine.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator, spawn_seeds, substream


def point_seed(base_seed, index):
    """The :class:`~numpy.random.SeedSequence` for grid point ``index``."""
    return substream(base_seed, index)


def point_generator(base_seed, index):
    """A fresh :class:`~numpy.random.Generator` for grid point ``index``."""
    return as_generator(point_seed(base_seed, index))


def attempt_seed(base_seed, index, attempt=0):
    """The :class:`~numpy.random.SeedSequence` for retry ``attempt``.

    Attempt 0 is exactly :func:`point_seed` — enabling retries never
    changes what a first-try success computes. Attempt ``k >= 1`` uses
    the spawn key ``(index, k)``: deterministic, independent of the
    attempt-0 stream, and independent across attempts.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if attempt == 0:
        return point_seed(base_seed, index)
    return np.random.SeedSequence(base_seed,
                                  spawn_key=(int(index), int(attempt)))


def attempt_generator(base_seed, index, attempt=0):
    """A fresh :class:`~numpy.random.Generator` for retry ``attempt``."""
    return as_generator(attempt_seed(base_seed, index, attempt))


def campaign_seeds(base_seed, n_points):
    """All ``n_points`` seed sequences at once (equals per-point spawning)."""
    return spawn_seeds(base_seed, n_points)
