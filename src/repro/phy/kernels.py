"""Optional compiled decoder kernels with always-available numpy fallbacks.

The two Monte-Carlo hot loops — the Viterbi add-compare-select sweep
(:mod:`repro.phy.convolutional`) and the LDPC normalised-min-sum check
update (:mod:`repro.phy.ldpc`) — each exist in two bit-identical
implementations:

``numpy``
    The vectorised ufunc formulations the decoders have always used.
    No extra dependencies; always available.
``numba``
    ``@njit``-compiled scalar loops over the same arithmetic in the
    same order (``fastmath`` stays *off*), so path metrics and check
    messages are IEEE-identical to the numpy path. Requires the
    optional ``numba`` dependency (``pip install repro[fast]``).

Backend selection, in precedence order:

1. an explicit ``backend=`` argument on the kernel call;
2. a process-wide override installed via :func:`set_backend` (the CLI's
   ``--kernels`` knob);
3. the ``REPRO_KERNELS`` environment variable (``numba`` / ``numpy`` /
   ``auto``);
4. ``auto`` — numba when importable, numpy otherwise.

Requesting ``numba`` when it is not installed raises
:class:`~repro.errors.ConfigurationError` (a clean CLI error, exit 2),
never an ``ImportError`` traceback. ``tests/test_kernels.py`` checks
every available backend against a plain-Python ACS and traceback, and
both backends are held bit-exactly to the ``tests/test_phy_goldens.py``
golden vectors.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from repro.errors import ConfigurationError

#: Backends a caller may name (``auto`` resolves to one of the others).
KNOWN_BACKENDS = ("auto", "numpy", "numba")

_OVERRIDE = None  # process-wide backend override (set_backend)
_NUMBA_OK = None  # tri-state import-probe cache: None = not yet probed
_COMPILED = {}  # name -> jitted function, filled on first numba use


def numba_available():
    """True when the optional numba dependency is importable."""
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401
            _NUMBA_OK = True
        except Exception:
            _NUMBA_OK = False
    return _NUMBA_OK


def available_backends():
    """The resolvable backend names on this interpreter."""
    return ("numpy", "numba") if numba_available() else ("numpy",)


def set_backend(name):
    """Install (or with ``None`` clear) the process-wide backend override.

    Returns the previous override so callers can restore it.
    """
    global _OVERRIDE
    if name is not None:
        name = str(name)
        if name not in KNOWN_BACKENDS:
            raise ConfigurationError(
                f"unknown kernels backend {name!r}; use one of "
                f"{', '.join(KNOWN_BACKENDS)}"
            )
        if name == "numba":
            require_backend("numba")
    previous, _OVERRIDE = _OVERRIDE, name
    return previous


@contextlib.contextmanager
def use_backend(name):
    """Context manager: run a block under one kernels backend."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def require_backend(name):
    """Validate that ``name`` is usable here; raise cleanly otherwise."""
    if name not in KNOWN_BACKENDS:
        raise ConfigurationError(
            f"unknown kernels backend {name!r}; use one of "
            f"{', '.join(KNOWN_BACKENDS)}"
        )
    if name == "numba" and not numba_available():
        raise ConfigurationError(
            "kernels backend 'numba' requested but numba is not "
            "installed; install it with `pip install repro[fast]` or "
            "select the numpy fallback (REPRO_KERNELS=numpy)"
        )
    return name


def resolve_backend(backend=None):
    """Resolve ``backend``/override/env/auto to ``"numpy"`` or ``"numba"``.

    ``auto`` (the default) picks numba when it is installed — the
    fallback is silent by design, so an environment without the
    optional dependency runs the identical numpy arithmetic.
    """
    name = backend if backend is not None else (
        _OVERRIDE if _OVERRIDE is not None
        else os.environ.get("REPRO_KERNELS") or "auto")
    require_backend(str(name))
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    return str(name)


# ---------------------------------------------------------------------------
# numba kernels (compiled lazily, only when the backend resolves to numba)
# ---------------------------------------------------------------------------

def _numba_kernels():
    """Compile (once per process) and return the jitted kernel table.

    ``fastmath`` is deliberately left off and every loop reproduces the
    numpy formulation's operation order — ``(metric + a_branch) +
    b_branch`` for the ACS sweep — so both backends produce the same
    IEEE-754 doubles, not merely close ones.
    """
    if _COMPILED:
        return _COMPILED
    import numba

    @numba.njit(cache=False)
    def acs_forward(llr_a, llr_b, sign_a, sign_b, decisions, metrics):
        """Viterbi forward sweep: fill ``decisions``, update ``metrics``.

        ``llr_a``/``llr_b`` are ``(batch, n_steps)`` depunctured soft
        bits, ``sign_a``/``sign_b`` are the ``(64, 2)`` expected-output
        sign tables indexed ``[next_state, predecessor]``, ``decisions``
        is ``(n_steps, batch, 64)`` bool and ``metrics`` is the
        ``(batch, 64)`` path-metric array (updated in place).
        """
        n_steps = llr_a.shape[1]
        batch = llr_a.shape[0]
        new = np.empty(64)
        for t in range(n_steps):
            for b in range(batch):
                la = llr_a[b, t]
                lb = llr_b[b, t]
                for ns in range(64):
                    pred0 = (ns & 31) << 1
                    c0 = (metrics[b, pred0] + sign_a[ns, 0] * la) \
                        + sign_b[ns, 0] * lb
                    c1 = (metrics[b, pred0 | 1] + sign_a[ns, 1] * la) \
                        + sign_b[ns, 1] * lb
                    take1 = c1 > c0
                    decisions[t, b, ns] = take1
                    new[ns] = c1 if take1 else c0
                for ns in range(64):
                    metrics[b, ns] = new[ns]

    @numba.njit(cache=False)
    def traceback(decisions, start_states, decoded):
        """Trace survivors backwards; fills ``decoded`` (batch, n_steps)."""
        n_steps = decisions.shape[0]
        batch = decisions.shape[1]
        for b in range(batch):
            state = start_states[b]
            for t in range(n_steps - 1, -1, -1):
                decoded[b, t] = state >> 5
                pred0 = (state & 31) << 1
                state = pred0 | 1 if decisions[t, b, state] else pred0

    @numba.njit(cache=False)
    def min_sum_check(m_vc, starts, counts, normalisation, clip, out):
        """Normalised min-sum check update over check-sorted edges.

        Exactly the numpy formulation: per check, the outgoing
        magnitude on each edge is the minimum over the *other* edges
        (min1, or min2 on the unique-minimum edge), the sign is the
        product of the other edges' signs, and the result is
        ``(normalisation * sign) * magnitude`` clipped to ``clip``.
        """
        n_checks = starts.shape[0]
        for c in range(n_checks):
            lo = starts[c]
            hi = lo + counts[c]
            min1 = np.inf
            min2 = np.inf
            n_min = 0
            sign_prod = 1.0
            for e in range(lo, hi):
                v = m_vc[e]
                if v < 0.0:
                    sign_prod = -sign_prod
                    v = -v
                if v < min1:
                    min2 = min1
                    min1 = v
                    n_min = 1
                elif v == min1:
                    n_min += 1
                else:
                    if v < min2:
                        min2 = v
            if n_min > 1:
                min2 = min1
            for e in range(lo, hi):
                v = m_vc[e]
                sign = -1.0 if v < 0.0 else 1.0
                mag = -v if v < 0.0 else v
                others = min2 if (mag == min1 and n_min == 1) else min1
                value = (normalisation * (sign_prod * sign)) * others
                if value > clip:
                    value = clip
                elif value < -clip:
                    value = -clip
                out[e] = value

    _COMPILED.update(acs_forward=acs_forward, traceback=traceback,
                     min_sum_check=min_sum_check)
    return _COMPILED


# ---------------------------------------------------------------------------
# Dispatching kernel entry points
# ---------------------------------------------------------------------------

def viterbi_forward(llr_a, llr_b, sign_a, sign_b, backend=None):
    """Run the ACS sweep; returns ``(decisions, final_metrics)``.

    ``decisions`` is ``(n_steps, batch, 64)`` bool — True where the
    odd predecessor won — and ``final_metrics`` is ``(batch, 64)``.
    """
    batch, n_steps = llr_a.shape
    metrics = np.full((batch, 64), -np.inf)
    metrics[:, 0] = 0.0
    decisions = np.empty((n_steps, batch, 64), dtype=bool)
    if resolve_backend(backend) == "numba":
        _numba_kernels()["acs_forward"](
            np.ascontiguousarray(llr_a), np.ascontiguousarray(llr_b),
            sign_a, sign_b, decisions, metrics)
        return decisions, metrics
    # numpy: both predecessor candidates of every state carried in one
    # (batch, 2, 32, 2) block — [half of the state space, i, predecessor]
    # — so each trellis step is four whole-array ufunc calls writing into
    # preallocated memory, with no gather: state h*32+i has predecessors
    # (2i, 2i+1) regardless of h, so the predecessor metrics are just
    # metrics.reshape(batch, 32, 2) broadcast over both halves. The
    # sign * llr branch terms of a chunk of steps are formed in one call
    # each (multiplying by +-1 is exact). Additions stay in the exact
    # (metric + a-branch) + b-branch order of the scalar formulation, so
    # path metrics are bit-identical to it (and to the numba loop).
    # maximum(c1, c0) gives the value the scalar c1 > c0 select gives; it
    # may differ only in a zero's sign, which no later comparison sees,
    # and on NaN, which finite LLRs never produce.
    sa = sign_a.reshape(2, 32, 2)
    sb = sign_b.reshape(2, 32, 2)
    chunk = max(1, min(n_steps, acs_chunk(batch)))
    bm_a = np.empty((chunk, batch, 2, 32, 2))
    bm_b = np.empty((chunk, batch, 2, 32, 2))
    cand = np.empty((batch, 2, 32, 2))
    pred = metrics.reshape(batch, 1, 32, 2)
    best = metrics.reshape(batch, 2, 32)
    take1 = decisions.reshape(n_steps, batch, 2, 32)
    c0 = cand[:, :, :, 0]
    c1 = cand[:, :, :, 1]
    for lo in range(0, n_steps, chunk):
        k = min(chunk, n_steps - lo)
        np.multiply(sa, llr_a[:, lo:lo + k].T[:, :, None, None, None],
                    out=bm_a[:k])
        np.multiply(sb, llr_b[:, lo:lo + k].T[:, :, None, None, None],
                    out=bm_b[:k])
        for j in range(k):
            np.add(pred, bm_a[j], out=cand)
            np.add(cand, bm_b[j], out=cand)
            np.greater(c1, c0, out=take1[lo + j])
            np.maximum(c1, c0, out=best)
    return decisions, metrics


#: Branch-metric values the numpy ACS sweep precomputes per buffer; the
#: chunk of trellis steps shrinks as the batch grows, so each of its two
#: buffers stays at 256 KiB whatever the batch.
ACS_CHUNK_VALUES = 1 << 15


def acs_chunk(batch):
    """Trellis steps whose branch terms the numpy sweep forms at once."""
    return max(1, ACS_CHUNK_VALUES // (128 * max(1, int(batch))))


def viterbi_traceback(decisions, start_states, backend=None):
    """Walk the survivor memory backwards; returns (batch, n_steps) bits."""
    n_steps, batch, _ = decisions.shape
    decoded = np.empty((batch, n_steps), dtype=np.int8)
    if resolve_backend(backend) == "numba":
        _numba_kernels()["traceback"](
            decisions, np.ascontiguousarray(start_states, dtype=np.int64),
            decoded)
        return decoded
    state = np.asarray(start_states, dtype=np.int64).copy()
    rows = np.arange(batch)
    pred0_of = (np.arange(64) & 31) << 1
    input_of = np.arange(64) >> 5
    for t in range(n_steps - 1, -1, -1):
        decoded[:, t] = input_of[state]
        taken = decisions[t, rows, state]
        state = np.where(taken, pred0_of[state] | 1, pred0_of[state])
    return decoded


def min_sum_check_update(m_vc, starts, counts, normalisation, clip,
                         backend=None):
    """Normalised min-sum check-node update (check-sorted edge order)."""
    if resolve_backend(backend) == "numba":
        out = np.empty_like(m_vc)
        _numba_kernels()["min_sum_check"](
            np.ascontiguousarray(m_vc, dtype=np.float64),
            np.ascontiguousarray(starts, dtype=np.int64),
            np.ascontiguousarray(counts, dtype=np.int64),
            float(normalisation), float(clip), out)
        return out
    mags = np.abs(m_vc)
    signs = np.where(m_vc < 0, -1.0, 1.0)
    sign_prod = np.multiply.reduceat(signs, starts)
    # min and second-min magnitude per check
    min1 = np.minimum.reduceat(mags, starts)
    min1_full = np.repeat(min1, counts)
    is_min = mags == min1_full
    # Mask out one occurrence of the minimum to find the runner-up.
    masked = np.where(is_min, np.inf, mags)
    min2 = np.minimum.reduceat(masked, starts)
    # A check where the minimum occurs twice has min-of-others equal
    # to min1 for every edge.
    min_count = np.add.reduceat(is_min.astype(float), starts)
    min2 = np.where(min_count > 1, min1, min2)
    min2_full = np.repeat(min2, counts)
    others_min = np.where(is_min & np.repeat(min_count == 1, counts),
                          min2_full, min1_full)
    sign_full = np.repeat(sign_prod, counts) * signs
    return np.clip(normalisation * sign_full * others_min, -clip, clip)
