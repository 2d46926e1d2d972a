"""Small argument-validation helpers that raise :class:`ConfigurationError`."""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.errors import ConfigurationError


def require_positive(name, value):
    """Raise unless ``value`` is a positive number; returns the value."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def require_finite(name, value):
    """Raise unless ``value`` is a finite real number; returns ``float``."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name} must be a real number, got {value!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{name} must be finite, got {value!r}"
        )
    return value


def require_count(name, value):
    """Raise unless ``value`` is a whole number >= 1; returns an ``int``.

    Integers and integral floats (``200.0``) pass; a bool, a fractional
    or non-finite float and a non-number raise, so a trial budget is
    never silently truncated.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if whole and not isinstance(value, (bool, np.bool_)) and value >= 1:
        return int(value)
    raise ConfigurationError(
        f"{name} must be a whole number >= 1, got {value!r}")


def require_snr_array(name, values):
    """Validate an SNR sweep array: non-empty, all entries finite.

    Returns the values as a 1-D float array. Shared by the waveform
    :class:`~repro.core.link.LinkSimulator` and the surrogate
    :class:`~repro.surrogate.AbstractLink` so both reject bad sweeps
    with identical :class:`ConfigurationError` messages.
    """
    arr = np.atleast_1d(np.asarray(values, dtype=float)).ravel()
    if arr.size == 0:
        raise ConfigurationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        bad = arr[~np.isfinite(arr)][0]
        raise ConfigurationError(
            f"{name} must contain only finite values, found {bad!r}"
        )
    return arr


def validate_link_run_args(snr_db, n_packets, payload_bytes):
    """Validate one link measurement's arguments; returns them normalised.

    The shared front door for :meth:`LinkSimulator.run` and
    :meth:`AbstractLink.run`: a NaN SNR, a zero or fractional packet
    budget, or a non-positive or fractional payload fails identically on
    the waveform and surrogate paths. Returns ``(float snr_db, int
    n_packets, int payload_bytes)``.
    """
    return (require_finite("snr_db", snr_db),
            require_count("n_packets", n_packets),
            require_count("payload_bytes", payload_bytes))


def require_in(name, value, allowed):
    """Raise unless ``value`` is one of ``allowed``; returns the value."""
    if value not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {sorted(allowed, key=str)}, got {value!r}"
        )
    return value


def require_power_of_two(name, value):
    """Raise unless ``value`` is a positive power of two; returns the value."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{name} must be a power of two, got {value!r}")
    return value
