"""AbstractLink: the waveform simulator's consumer surface, table-driven.

:class:`AbstractLink` mirrors :class:`~repro.core.link.LinkSimulator`'s
consumer API — ``run`` / ``waterfall`` / ``snr_for_per``, returning the
same :class:`~repro.core.link.LinkResult` — but instead of modulating
waveforms it interpolates a precomputed :class:`PerSurface` and draws
packet outcomes as batched Bernoulli trials. A packet that cost the
waveform path milliseconds costs the surrogate one comparison against a
uniform draw, which is what lets :mod:`repro.mesh` and
:mod:`repro.mac` scale to thousands of stations.

:class:`WaveformLink` is the same consumer surface backed by a real
:class:`LinkSimulator` with per-SNR memoization — the reference
implementation surrogate results are validated against, and the slow
side of every speedup figure.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.link import LinkResult, LinkSimulator
from repro.core.mc import run_trials
from repro.errors import ConfigurationError
from repro.utils.rng import as_generator
from repro.utils.validation import (require_count, require_snr_array,
                                    validate_link_run_args)


class AbstractLink:
    """Interpolating link-level oracle over one surface phy.

    Parameters
    ----------
    surface : PerSurface
        The precomputed grid (see :mod:`repro.surrogate.builder`).
    phy : str or None
        Which of the surface's phys this link speaks for. ``None`` is
        allowed when the surface holds exactly one.
    rng : seed or Generator
        Stream for the Bernoulli packet draws.
    out_of_grid : str
        ``"clamp"`` (default) pins queries beyond the grid edge to the
        edge value; ``"error"`` raises — choose it when silently flat
        tails would corrupt a study.
    """

    def __init__(self, surface, phy=None, rng=None, out_of_grid="clamp"):
        if phy is None:
            if len(surface.phys) != 1:
                raise ConfigurationError(
                    f"surface {surface.name!r} holds {len(surface.phys)} "
                    f"phys ({', '.join(surface.phys)}); pass phy= to pick "
                    "one"
                )
            phy = surface.phys[0]
        self.surface = surface
        self.phy_name = str(phy)
        self.channel_name = surface.channel
        self.rate_mbps = float(surface.rate_mbps[surface.phy_index(phy)])
        self.rng = as_generator(rng)
        self.out_of_grid = out_of_grid
        # Fail fast on a bad policy instead of on the first query.
        surface.per_at(self.phy_name, float(surface.snr_db[0]),
                       out_of_grid=out_of_grid)

    def for_phy(self, phy, rng=None):
        """A sibling link over another phy of the same surface."""
        return AbstractLink(self.surface, phy,
                            rng if rng is not None else self.rng,
                            self.out_of_grid)

    # -- interpolated queries (no randomness) -------------------------------

    def per_at(self, snr_db, payload_bytes=None):
        """Interpolated PER at ``snr_db`` (scalar or array)."""
        return self.surface.per_at(self.phy_name, snr_db, payload_bytes,
                                   self.out_of_grid)

    def ber_at(self, snr_db, payload_bytes=None):
        """Interpolated payload BER at ``snr_db`` (scalar or array)."""
        return self.surface.interpolate(self.phy_name, snr_db,
                                        payload_bytes, self.out_of_grid,
                                        values="ber")

    def per_for_rate(self, rate_mbps, snr_db, payload_bytes=None):
        """PER of the surface phy running at ``rate_mbps``.

        Rate controllers hold a ladder of Mbps values; this resolves
        each to its surface phy so one link can serve a whole ladder.
        """
        return self.surface.per_for_rate(rate_mbps, snr_db, payload_bytes,
                                         self.out_of_grid)

    # -- sampled packet outcomes --------------------------------------------

    def packet_success(self, snr_db, payload_bytes=None, rng=None):
        """Bernoulli packet outcomes: ``True`` where delivery succeeded.

        Vectorized: ``snr_db`` may be an array (one packet per entry)
        and the result has its shape. Scalar in, scalar out.
        """
        rng = self.rng if rng is None else as_generator(rng)
        per = self.per_at(snr_db, payload_bytes)
        if np.ndim(per) == 0:
            return bool(rng.random() >= per)
        return rng.random(np.shape(per)) >= per

    def run(self, snr_db, n_packets=100, payload_bytes=100, *,
            precision=None, max_trials=None, confidence=0.95,
            batch_size=1000):
        """Drop-in for :meth:`LinkSimulator.run`, Bernoulli-backed.

        Packet errors are drawn against the interpolated PER and bit
        errors against the interpolated BER (a marginal approximation:
        real bit errors cluster inside lost packets, the surrogate
        draws them independently — PER statistics are exact, joint
        bit/packet statistics are not). Arguments are validated by the
        same front door as the waveform path, so bad input fails with
        identical messages.
        """
        snr_db, n_packets, payload_bytes = validate_link_run_args(
            snr_db, n_packets, payload_bytes)
        per = float(self.per_at(snr_db, payload_bytes))
        ber = float(self.ber_at(snr_db, payload_bytes))
        n_bits_per_packet = 8 * payload_bytes

        def trial_batch(rng, m):
            errors = int((rng.random(m) < per).sum())
            obs.counter("surrogate.packets", m)
            bit_errors = int(rng.binomial(m * n_bits_per_packet, ber))
            return {"packet_error": errors, "bit_errors": bit_errors}

        with obs.span("surrogate.run", phy=self.phy_name,
                      channel=self.channel_name,
                      snr_db=float(snr_db)) as span:
            mc = run_trials(trial_batch, n_packets, target="packet_error",
                            rng=self.rng, precision=precision,
                            max_trials=max_trials, confidence=confidence,
                            batch_size=batch_size)
            span.set(n_trials=mc.n_trials, stop_reason=mc.stop_reason)
        return LinkResult(
            phy=self.phy_name,
            channel=self.channel_name,
            snr_db=float(snr_db),
            n_packets=mc.n_trials,
            n_packet_errors=mc.n_events,
            n_bits=n_bits_per_packet * mc.n_trials,
            n_bit_errors=int(mc.totals.get("bit_errors", 0)),
            payload_bytes=payload_bytes,
            rate_mbps=self.rate_mbps,
            extras={"surrogate": True, "surface": self.surface.name,
                    "per_interpolated": per},
            mc=mc,
        )

    def waterfall(self, snr_values_db, n_packets=100, payload_bytes=100,
                  **mc_kwargs):
        """Drop-in for :meth:`LinkSimulator.waterfall`."""
        snrs = require_snr_array("snr_values_db", snr_values_db)
        with obs.span("surrogate.waterfall", phy=self.phy_name,
                      n_points=len(snrs)):
            return [self.run(snr, n_packets, payload_bytes, **mc_kwargs)
                    for snr in snrs]

    def snr_for_per(self, target_per=0.1, lo_db=-5.0, hi_db=45.0,
                    n_packets=100, payload_bytes=100, tolerance_db=0.5,
                    **mc_kwargs):
        """Drop-in for :meth:`LinkSimulator.snr_for_per`, noise-free.

        Bisects the *interpolated* PER curve directly — no packets are
        drawn, so the answer is deterministic at ``tolerance_db``
        resolution. ``n_packets`` and MC kwargs are accepted for
        signature parity and ignored. The waveform method's contract is
        kept: the low edge short-circuits and an unreachable target
        raises the same :class:`ConfigurationError`.
        """
        del n_packets, mc_kwargs
        if not 0 < target_per < 1:
            raise ConfigurationError("target PER must be in (0, 1)")
        lo, hi = float(lo_db), float(hi_db)
        payload = int(payload_bytes)
        with obs.span("surrogate.snr_for_per", phy=self.phy_name,
                      target_per=float(target_per)) as span:
            if self.per_at(lo, payload) <= target_per:
                span.set(snr_db=lo, low_edge=True)
                return lo
            if self.per_at(hi, payload) > target_per:
                raise ConfigurationError(
                    f"PER target {target_per} not met even at {hi} dB"
                )
            while hi - lo > tolerance_db:
                mid = 0.5 * (lo + hi)
                if self.per_at(mid, payload) > target_per:
                    lo = mid
                else:
                    hi = mid
            span.set(snr_db=0.5 * (lo + hi))
        return 0.5 * (lo + hi)


class WaveformLink:
    """The same per-SNR oracle surface, backed by real waveforms.

    Answers :meth:`per_at` by actually running
    :meth:`LinkSimulator.run` — memoized per quantized SNR so a mesh
    with thousands of near-identical links does not re-measure the same
    operating point. This is the reference the surrogate is validated
    against, and the baseline every speedup figure divides by.
    """

    def __init__(self, phy, channel="awgn", rng=None, n_packets=100,
                 payload_bytes=100, quantize_db=0.5, **sim_kwargs):
        self.sim = LinkSimulator(phy, channel, rng=rng, **sim_kwargs)
        self.phy_name = self.sim.phy_name
        self.channel_name = self.sim.channel_name
        self.rate_mbps = self.sim.rate_mbps
        self.n_packets = require_count("n_packets", n_packets)
        self.payload_bytes = require_count("payload_bytes", payload_bytes)
        self.quantize_db = float(quantize_db)
        if not self.quantize_db > 0:
            raise ConfigurationError(
                f"quantize_db must be positive, got {quantize_db!r}"
            )
        self._cache = {}

    def _result_at(self, snr_db):
        q = round(float(snr_db) / self.quantize_db) * self.quantize_db
        result = self._cache.get(q)
        if result is None:
            result = self.sim.run(q, self.n_packets, self.payload_bytes)
            self._cache[q] = result
        return result

    def per_at(self, snr_db, payload_bytes=None):
        """Measured PER at ``snr_db`` (scalar or array), memoized."""
        del payload_bytes  # fixed per link; kept for surface parity
        arr = np.asarray(snr_db, dtype=float)
        if arr.ndim == 0:
            return self._result_at(arr).per
        return np.array([self._result_at(s).per for s in arr.ravel()]
                        ).reshape(arr.shape)

    def per_ci_at(self, snr_db, confidence=0.95):
        """Wilson ``(lo, hi)`` of the memoized measurement at one SNR."""
        return self._result_at(snr_db).per_ci(confidence)

    def packet_success(self, snr_db, payload_bytes=None, rng=None):
        """Bernoulli outcomes against the *measured* PER (array in, array out)."""
        rng = self.sim.rng if rng is None else as_generator(rng)
        per = self.per_at(snr_db, payload_bytes)
        if np.ndim(per) == 0:
            return bool(rng.random() >= per)
        return rng.random(np.shape(per)) >= per

    def per_for_rate(self, rate_mbps, snr_db, payload_bytes=None):
        """Surface parity; only this link's own rate is answerable."""
        if not np.isclose(float(rate_mbps), self.rate_mbps,
                          rtol=1e-9, atol=1e-6):
            raise ConfigurationError(
                f"WaveformLink({self.phy_name!r}) runs at "
                f"{self.rate_mbps} Mbps, not {rate_mbps}"
            )
        return self.per_at(snr_db, payload_bytes)
