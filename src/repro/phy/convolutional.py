"""The 802.11 K=7 convolutional code with Viterbi decoding and puncturing.

The mother code is the industry-standard rate-1/2 constraint-length-7 code
with generators g0 = 133 (octal) and g1 = 171 (octal). Rates 2/3, 3/4 and
5/6 are obtained by puncturing exactly as 802.11a/n specify.

The Viterbi decoder is vectorised across the 64 trellis states and accepts
either hard bits or soft LLRs (positive LLR favouring bit 0); punctured
positions are treated as erasures (LLR 0).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import obs
from repro.errors import CodingError, ConfigurationError
from repro.phy import kernels

CONSTRAINT_LENGTH = 7
N_STATES = 64
G0 = 0o133
G1 = 0o171

#: Puncturing masks as (keep_a, keep_b) pairs over the pattern period.
PUNCTURE_PATTERNS = {
    "1/2": ((1, 1),),
    "2/3": ((1, 1), (1, 0)),
    "3/4": ((1, 1), (1, 0), (0, 1)),
    "5/6": ((1, 1), (1, 0), (0, 1), (1, 0), (0, 1)),
}

#: Numeric value of each supported code rate.
CODE_RATES = {"1/2": 0.5, "2/3": 2.0 / 3.0, "3/4": 0.75, "5/6": 5.0 / 6.0}


def _parity(values):
    """Bitwise parity of each element of an integer array."""
    values = np.asarray(values, dtype=np.int64)
    result = np.zeros_like(values)
    shift = 0
    while np.any(values >> shift):
        result ^= (values >> shift) & 1
        shift += 1
    return result


def _build_tables():
    """Output bits and decoded input for every (state, input) transition.

    The 7-bit window is ``(input << 6) | state`` with the window's MSB being
    the newest bit; the next state is ``window >> 1``.
    """
    states = np.arange(N_STATES)
    outputs_a = np.empty((N_STATES, 2), dtype=np.int8)
    outputs_b = np.empty((N_STATES, 2), dtype=np.int8)
    next_state = np.empty((N_STATES, 2), dtype=np.int64)
    for bit in (0, 1):
        window = (bit << 6) | states
        outputs_a[:, bit] = _parity(window & G0)
        outputs_b[:, bit] = _parity(window & G1)
        next_state[:, bit] = window >> 1
    return outputs_a, outputs_b, next_state


_OUT_A, _OUT_B, _NEXT_STATE = _build_tables()

# Predecessor structure: state ns has predecessors (ns & 31) << 1 | {0, 1},
# and the input bit consumed on the way in is ns >> 5.
_PRED0 = (np.arange(N_STATES) & 31) << 1
_PRED1 = _PRED0 | 1
_INPUT_OF_STATE = np.arange(N_STATES) >> 5

# Expected (a, b) output bits on the transition into each next-state from
# each of its two predecessors.
_EXP_A = np.empty((N_STATES, 2), dtype=np.int8)
_EXP_B = np.empty((N_STATES, 2), dtype=np.int8)
for _ns in range(N_STATES):
    _bit = _ns >> 5
    _EXP_A[_ns, 0] = _OUT_A[_PRED0[_ns], _bit]
    _EXP_B[_ns, 0] = _OUT_B[_PRED0[_ns], _bit]
    _EXP_A[_ns, 1] = _OUT_A[_PRED1[_ns], _bit]
    _EXP_B[_ns, 1] = _OUT_B[_PRED1[_ns], _bit]
_SIGN_A = 1.0 - 2.0 * _EXP_A  # +1 for expected bit 0, -1 for expected bit 1
_SIGN_B = 1.0 - 2.0 * _EXP_B

# Tap delays of each generator: output bit i is the XOR of input bits
# x[i - d] for every delay d in the generator's tap set. This is the
# sliding-window identity that lets encode() run as pure shifted XORs
# instead of stepping the shift register bit by bit.
_TAPS_A = tuple(6 - p for p in range(6, -1, -1) if (G0 >> p) & 1)
_TAPS_B = tuple(6 - p for p in range(6, -1, -1) if (G1 >> p) & 1)


def encode(bits, terminate=True):
    """Encode at the rate-1/2 mother code.

    Parameters
    ----------
    bits : array of 0/1
        Information bits: a 1-D vector, or a 2-D batch (one row per
        independent frame, each starting from the zero state).
    terminate : bool
        Append six zero tail bits to drive the encoder back to state 0
        (802.11 always does this).

    Returns
    -------
    numpy.ndarray
        Coded bits, interleaved as ``a0 b0 a1 b1 ...`` along the last
        axis (int8, same leading batch shape as the input).
    """
    bits = np.asarray(bits).astype(np.int8)
    if bits.ndim == 1:
        return _encode_2d(bits[None, :], terminate)[0]
    if bits.ndim != 2:
        raise CodingError(f"bits must be 1-D or 2-D, got shape {bits.shape}")
    return _encode_2d(bits, terminate)


def _encode_2d(bits, terminate):
    """Vectorised encoder over a (batch, n_bits) block of frames."""
    batch, n = bits.shape
    if terminate:
        n += 6
    # Six leading zeros stand in for the all-zero initial encoder state;
    # terminating tail zeros are implicit in the padded length.
    padded = np.zeros((batch, n + 6), dtype=np.int8)
    padded[:, 6 : 6 + bits.shape[1]] = bits
    coded = np.zeros((batch, 2 * n), dtype=np.int8)
    a = coded[:, 0::2]
    b = coded[:, 1::2]
    for d in _TAPS_A:
        a ^= padded[:, 6 - d : 6 - d + n]
    for d in _TAPS_B:
        b ^= padded[:, 6 - d : 6 - d + n]
    return coded


def puncture(coded_bits, rate="1/2"):
    """Delete coded bits according to the 802.11 puncturing pattern.

    Applies along the last axis, so a 2-D batch of frames punctures all
    rows at once.
    """
    coded_bits = np.asarray(coded_bits)
    mask = _puncture_mask(coded_bits.shape[-1], rate)
    return coded_bits[..., mask]


def depuncture_llrs(llrs, rate="1/2", n_mother_bits=None):
    """Re-insert zeros (erasures) where ``puncture`` deleted bits.

    ``llrs`` holds one soft value per *transmitted* coded bit; the result
    has one value per *mother-code* bit.

    Parameters
    ----------
    llrs : array of float
        Soft values for the surviving (transmitted) coded bits.
    rate : str
        Puncturing rate the transmitter used.
    n_mother_bits : int, optional
        Exact mother-code length to reconstruct. If omitted, the smallest
        even length whose puncture mask keeps exactly ``len(llrs)`` bits
        is used.
    """
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigurationError(f"unknown code rate {rate!r}")
    llrs = np.asarray(llrs, dtype=float).ravel()
    if n_mother_bits is None:
        pattern = np.array(PUNCTURE_PATTERNS[rate]).ravel().astype(bool)
        n_mother_bits = 0
        kept = 0
        while kept < llrs.size or n_mother_bits % 2:
            if pattern[n_mother_bits % pattern.size]:
                kept += 1
            n_mother_bits += 1
    mask = _puncture_mask(n_mother_bits, rate)
    n_kept = int(mask.sum())
    if n_kept != llrs.size:
        raise CodingError(
            f"{llrs.size} soft bits cannot fill a {n_mother_bits}-bit mother "
            f"block at rate {rate} (needs {n_kept})"
        )
    out = np.zeros(n_mother_bits, dtype=float)
    out[mask] = llrs
    return out


def _puncture_mask(n_coded, rate):
    if rate not in PUNCTURE_PATTERNS:
        raise ConfigurationError(f"unknown code rate {rate!r}")
    return _cached_puncture_mask(int(n_coded), rate)


@lru_cache(maxsize=512)
def _cached_puncture_mask(n_coded, rate):
    pattern = np.array(PUNCTURE_PATTERNS[rate]).ravel().astype(bool)
    reps = int(np.ceil(n_coded / pattern.size))
    mask = np.tile(pattern, reps)[:n_coded]
    mask.setflags(write=False)
    return mask


def coded_length(n_info_bits, rate="1/2", terminate=True):
    """Number of transmitted coded bits for ``n_info_bits`` information bits."""
    n = n_info_bits + (6 if terminate else 0)
    mother = 2 * n
    mask = _puncture_mask(mother, rate)
    return int(mask.sum())


@lru_cache(maxsize=512)
def _decode_plan(n_info_bits, rate, terminated):
    """Cached per-(length, rate, termination) decode tables.

    Everything ``viterbi_decode`` needs beyond the soft bits themselves
    — the expected input length, the trellis depth and the depuncture
    scatter mask — is a pure function of these three arguments, so
    repeated decodes of the same frame geometry (every packet of a
    Monte-Carlo run) do no table construction work at all. A
    micro-benchmark assertion in ``tests/test_convolutional.py`` keeps
    it that way.
    """
    expected = coded_length(n_info_bits, rate=rate, terminate=terminated)
    n_steps = n_info_bits + (6 if terminated else 0)
    keep = _puncture_mask(2 * n_steps, rate)
    return expected, n_steps, keep


def viterbi_decode(soft_bits, n_info_bits, rate="1/2", terminated=True):
    """Maximum-likelihood sequence decoding of the (133, 171) code.

    Parameters
    ----------
    soft_bits : array of float
        One value per transmitted coded bit. For soft decisions pass LLRs
        (positive favouring bit 0); for hard decisions pass ``1 - 2*bit``.
    n_info_bits : int
        Number of information bits to recover (excluding tail).
    rate : str
        "1/2", "2/3", "3/4" or "5/6".
    terminated : bool
        Whether the encoder appended six tail zeros (forces the traceback
        to end in state 0).

    Returns
    -------
    numpy.ndarray
        Decoded information bits (int8). A 2-D ``(batch, n_coded)`` input
        decodes every frame in one trellis sweep and returns a
        ``(batch, n_info_bits)`` array.
    """
    soft = np.asarray(soft_bits, dtype=float)
    if soft.ndim == 1:
        return _viterbi_2d(soft[None, :], n_info_bits, rate, terminated)[0]
    if soft.ndim != 2:
        raise CodingError(f"soft bits must be 1-D or 2-D, got shape {soft.shape}")
    return _viterbi_2d(soft, n_info_bits, rate, terminated)


def _viterbi_2d(soft, n_info_bits, rate, terminated):
    """One add-compare-select sweep shared by a whole batch of frames."""
    expected, n_steps, keep = _decode_plan(int(n_info_bits), rate,
                                           bool(terminated))
    if soft.shape[1] != expected:
        raise CodingError(
            f"expected {expected} coded bits for {n_info_bits} info bits at "
            f"rate {rate}, got {soft.shape[1]}"
        )
    batch = soft.shape[0]
    mother = np.zeros((batch, 2 * n_steps))
    mother[:, keep] = soft
    llr_a = mother[:, 0::2]
    llr_b = mother[:, 1::2]

    # The ACS sweep and traceback are the kernels in repro.phy.kernels.
    with obs.span("phy.viterbi", rows=batch, steps=n_steps):
        decisions, metrics = kernels.viterbi_forward(llr_a, llr_b,
                                                     _SIGN_A, _SIGN_B)
        if terminated:
            state = np.zeros(batch, dtype=np.int64)
        else:
            state = np.argmax(metrics, axis=1)
        decoded = kernels.viterbi_traceback(decisions, state)
    return decoded[:, :n_info_bits]


def encode_punctured(bits, rate="1/2", terminate=True):
    """Convenience: encode then puncture in one call."""
    return puncture(encode(bits, terminate=terminate), rate=rate)


def hard_to_soft(bits):
    """Map hard bits {0,1} to the +/-1 soft convention used by the decoder."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def free_distance(rate="1/2"):
    """Free distance of the (possibly punctured) code, from the literature.

    Used by the analysis module for union-bound BER estimates.
    """
    known = {"1/2": 10, "2/3": 6, "3/4": 5, "5/6": 4}
    if rate not in known:
        raise ConfigurationError(f"unknown code rate {rate!r}")
    return known[rate]
