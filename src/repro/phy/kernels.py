"""Optional compiled decoder kernels with always-available numpy fallbacks.

The two Monte-Carlo hot loops — the Viterbi add-compare-select sweep
(:mod:`repro.phy.convolutional`) and the LDPC normalised-min-sum check
update (:mod:`repro.phy.ldpc`) — each exist in two bit-identical
implementations:

``numpy``
    Vectorised ufunc formulations. No extra dependencies; always
    available. The ACS sweep costs three ufunc calls per trellis step
    (add, add, maximum) over a predecessor-major candidate buffer, with
    the branch terms and decisions formed a chunk of steps at a time.
    The traceback walks a frame in blocks of at most ``CHECKED_SPAN``
    steps, all blocks one step per Python iteration: each block guesses
    its top state from a warm-up walk, checks it against the block
    above and is walked again until every check holds. On decoder
    output a call costs 100-500 Python iterations, the more the lower
    the SNR, where a walk one step at a time costs one per trellis step.
``numba``
    ``@njit``-compiled scalar loops over the same arithmetic in the
    same order (``fastmath`` stays *off*), so path metrics and check
    messages are IEEE-identical to the numpy path. Requires the
    optional ``numba`` dependency (``pip install repro[fast]``).

The ``REPRO_KERNELS`` environment variable is the one switch between
them: ``numba``, ``numpy`` or ``auto``; unset means ``auto`` (numba
when importable, numpy otherwise). It is read on every kernel call, so
a change takes effect on the next decode.

Setting ``REPRO_KERNELS=numba`` when numba is not installed raises
:class:`~repro.errors.ConfigurationError` on the first decode (a clean
CLI error, exit 2), never an ``ImportError`` traceback.
``tests/test_kernels.py`` checks every available backend against a
plain-Python ACS and traceback, and both backends are held bit-exactly
to the ``tests/test_phy_goldens.py`` golden vectors.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import ConfigurationError

#: Values ``REPRO_KERNELS`` may take (``auto`` resolves to another).
KNOWN_BACKENDS = ("auto", "numpy", "numba")

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


def resolve_backend():
    """Resolve ``REPRO_KERNELS`` (unset: ``auto``) to ``"numpy"``/``"numba"``.

    ``auto`` picks numba when it is installed — the fallback is silent
    by design, so an environment without the optional dependency runs
    the identical numpy arithmetic.
    """
    name = require_backend(os.environ.get("REPRO_KERNELS") or "auto")
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    return name


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

def viterbi_forward(llr_a, llr_b, sign_a, sign_b):
    """Run the ACS sweep; returns ``(decisions, final_metrics)``.

    ``decisions`` is ``(n_steps, batch, 64)`` bool — True where the
    odd predecessor won — and ``final_metrics`` is ``(batch, 64)``.
    """
    batch, n_steps = llr_a.shape
    metrics = np.full((batch, 64), -np.inf)
    metrics[:, 0] = 0.0
    decisions = np.empty((n_steps, batch, 64), dtype=bool)
    if resolve_backend() == "numba":
        _numba_kernels()["acs_forward"](
            np.ascontiguousarray(llr_a), np.ascontiguousarray(llr_b),
            sign_a, sign_b, decisions, metrics)
        return decisions, metrics
    # numpy: one trellis step is three whole-array ufunc calls writing
    # into preallocated chunk buffers. State h*32+i (h = input bit) has
    # predecessors 2i+p, p in {0, 1}, whatever h is, so the candidates
    # are laid out predecessor-major as [p, batch, h, i]: the predecessor
    # metrics are metrics.reshape(batch, 32, 2) transposed to [p, batch,
    # i] and broadcast over h, and the select reads the two contiguous
    # halves cand[1] and cand[0]. Two buffers each hold a chunk of steps
    # (acs_chunk) of the a- and b-branch terms sign * llr (formed in one
    # call each; multiplying by +-1 is exact). Each step adds into its
    # own slot of the a-branch buffer, so the chunk's candidates are all
    # kept and one np.greater per chunk forms the chunk's decisions.
    # Additions stay in the exact (metric + a-branch) + b-branch order of
    # the scalar formulation, so path metrics are bit-identical to it
    # (and to the numba loop).
    # maximum(c1, c0) gives the value the scalar c1 > c0 select gives; it
    # may differ only in a zero's sign, which no later comparison sees,
    # and on NaN, which finite LLRs never produce.
    sa = sign_a.reshape(2, 32, 2).transpose(2, 0, 1)[:, None]
    sb = sign_b.reshape(2, 32, 2).transpose(2, 0, 1)[:, None]
    chunk = max(1, min(n_steps, acs_chunk(batch)))
    cand = np.empty((chunk, 2, batch, 2, 32))
    bm_b = np.empty((chunk, 2, batch, 2, 32))
    pred = metrics.reshape(batch, 32, 2).transpose(2, 0, 1)[:, :, None]
    best = metrics.reshape(batch, 2, 32)
    take1 = decisions.reshape(n_steps, batch, 2, 32)
    steps = [(cand[j], bm_b[j], cand[j, 1], cand[j, 0])
             for j in range(chunk)]
    add, maximum = np.add, np.maximum
    for lo in range(0, n_steps, chunk):
        k = min(chunk, n_steps - lo)
        np.multiply(sa, llr_a[:, lo:lo + k].T[:, None, :, None, None],
                    out=cand[:k])
        np.multiply(sb, llr_b[:, lo:lo + k].T[:, None, :, None, None],
                    out=bm_b[:k])
        for c, b, c1, c0 in steps[:k]:
            add(pred, c, out=c)
            add(c, b, out=c)
            maximum(c1, c0, out=best)
        np.greater(cand[:k, 1], cand[:k, 0], out=take1[lo:lo + k])
    return decisions, metrics


#: Values each of the numpy ACS sweep's two chunk buffers holds at most:
#: the a- and b-branch terms, each laid out [step, p, batch, h, i], the
#: first overwritten step by step with the candidates. The chunk of
#: trellis steps shrinks as the batch grows, so neither buffer grows past
#: 256 KiB whatever the batch.
ACS_CHUNK_VALUES = 1 << 15
#: Longest chunk, in trellis steps. Calls of up to three rows reach it;
#: it keeps their buffers and per-step views small at no cost in time.
ACS_CHUNK_STEPS = 64

#: Longest block and warm-up depth, in trellis steps, of the numpy
#: traceback (``_checked_traceback``).
CHECKED_SPAN = 64
CHECKED_WARM_UP = 48


def acs_chunk(batch):
    """Trellis steps whose branch terms the numpy sweep forms at once."""
    return max(1, min(ACS_CHUNK_STEPS,
                      ACS_CHUNK_VALUES // (128 * max(1, int(batch)))))


def viterbi_traceback(decisions, start_states):
    """Walk the survivor memory backwards; returns (batch, n_steps) bits.

    On numpy the checked block walk (``_checked_traceback``) returns
    the bits a one-step-at-a-time walk returns.
    """
    n_steps, batch, _ = decisions.shape
    if resolve_backend() == "numba":
        decoded = np.empty((batch, n_steps), dtype=np.int8)
        _numba_kernels()["traceback"](
            decisions, np.ascontiguousarray(start_states, dtype=np.int64),
            decoded)
        return decoded
    if not n_steps:
        return np.empty((batch, 0), dtype=np.int8)
    return _checked_traceback(np.ascontiguousarray(decisions, dtype=bool),
                              start_states)


#: Even predecessor ``(state & 31) << 1`` of every state; OR-ing in a
#: decision gives the survivor's predecessor.
_PRED0 = (np.arange(64) & 31) << 1


def _checked_traceback(decisions, start_states):
    """The survivor walk, all blocks of a frame at once.

    The n steps split into blocks of at most ``CHECKED_SPAN`` steps,
    block 0 (at the bottom) padded below step 0 to full length. A walk
    fills ``states[j, k, row]``: step j of block k leads from state
    ``states[j + 1]`` back to ``states[j]``, and the top bit of
    ``states[j + 1]`` is that step's decoded bit. Every block below the
    top one guesses its top state by walking ``CHECKED_WARM_UP`` steps
    of the block above from state 0; survivor paths merge, so it
    usually reaches the true one. All blocks then walk together, the
    top one from the start states. A block's walk is right when its top
    state equals the bottom state of a right block above it, and the
    top block's always is; every block that fails the check walks again
    from the bottom state of the block above, all such blocks at once,
    until none fails. Each round settles at least the highest unsettled
    block of every row, so the bits are those of a walk one step at a
    time whatever the guesses; on decoder output a few re-walks
    settle everything. Steps outside the frame (the padding, and the top
    block's warm-up) wrap round into it; what is walked there is never
    returned.
    """
    n_steps, batch, _ = decisions.shape
    n_blocks = -(-n_steps // CHECKED_SPAN)
    span = -(-n_steps // n_blocks)
    warm_up = min(CHECKED_WARM_UP, span) if n_blocks > 1 else 0
    pad = n_blocks * span - n_steps
    # base[j, k, row]: offset of step j of block k, counted from the
    # block's foot, in the flattened (n_steps, batch, 64) decisions.
    steps = (np.arange(span + warm_up)[:, None]
             + np.arange(n_blocks) * span - pad) % n_steps
    base = (steps[:, :, None] * batch + np.arange(batch)) * 64
    bits = decisions.view(np.int8).reshape(-1)
    guess = np.zeros((n_blocks, batch), dtype=np.int64)
    for j in range(span + warm_up - 1, span - 1, -1):
        guess = _PRED0[guess] | bits[base[j] + guess]
    states = np.empty((span + 1, n_blocks, batch), dtype=np.int64)
    states[-1] = guess
    states[-1, -1] = start_states
    _walk(bits, base, states)
    while True:
        blocks, rows = np.nonzero(states[-1, :-1] != states[0, 1:])
        if not blocks.size:
            break
        walk = np.empty((span + 1, blocks.size), dtype=np.int64)
        walk[-1] = states[0, blocks + 1, rows]
        _walk(bits, base[:span, blocks, rows], walk)
        states[:, blocks, rows] = walk
    decoded = np.empty((batch, n_blocks, span), dtype=np.int8)
    np.right_shift(states[1:].transpose(2, 1, 0), 5, out=decoded,
                   casting="unsafe")
    return np.ascontiguousarray(decoded.reshape(batch, -1)[:, pad:])


def _walk(bits, base, states):
    """Walk every column of ``states`` down from ``states[-1]``.

    ``bits`` is the flat decision array and ``base[j]`` the offsets of
    the step each column walks through from ``states[j + 1]``.
    """
    for j in range(states.shape[0] - 1, 0, -1):
        state = states[j]
        np.bitwise_or(_PRED0[state], bits[base[j - 1] + state],
                      out=states[j - 1])


def min_sum_check_update(m_vc, starts, counts, normalisation, clip):
    """Normalised min-sum check-node update (check-sorted edge order)."""
    if resolve_backend() == "numba":
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
