"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic RNG so every test run is reproducible."""
    return np.random.default_rng(0xDA7E2005)


@pytest.fixture
def rng_factory():
    """Factory for independent deterministic generators."""
    def make(seed=0):
        return np.random.default_rng(seed)
    return make


@pytest.fixture
def failing_write(monkeypatch):
    """Make :func:`repro.utils.fileio.write_atomic` fail part-way.

    The temp file receives the first half of the bytes, then the write
    raises ``OSError(ENOSPC)``, as a disk filling up mid-write would.
    """
    import errno

    from repro.utils import fileio

    class HalfWriter:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, data):
            self._fh.write(data[:len(data) // 2])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(fileio, "open",
                        lambda path, mode: HalfWriter(open(path, mode)),
                        raising=False)
