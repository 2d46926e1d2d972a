"""The decoder kernels against plain-Python references, and plan caching.

The Viterbi sweep and traceback are checked against a plain-Python ACS
and traceback straight from the code's generators, the LDPC min-sum
check update against a plain-Python loop over the check-sorted edges.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.phy import convolutional as cc
from repro.phy import kernels
from repro.phy.ldpc import LdpcCode


def _random_soft(rng, n_info, rate, terminated=True):
    bits = rng.integers(0, 2, n_info).astype(np.uint8)
    coded = cc.puncture(cc.encode(bits, terminate=terminated), rate)
    soft = 1.0 - 2.0 * coded.astype(float)
    soft += 0.6 * rng.normal(size=soft.shape)
    return bits, soft


def _parity(value):
    return bin(value).count("1") & 1


def _reference_viterbi(llr_a, llr_b):
    """Plain-Python ACS sweep straight from the (133, 171) generators.

    State ``s`` holds the six previous inputs, newest in bit 5; input
    ``u`` forms the window ``(u << 6) | s`` and moves to ``window >> 1``.
    Each next state ``ns`` is entered on input ``ns >> 5`` from its even
    predecessor ``(ns & 31) << 1`` or its odd one (``| 1``). The odd one
    wins only when its candidate is strictly larger, and each candidate
    is ``(metric + a-branch) + b-branch`` in that order.
    """
    batch, n_steps = llr_a.shape
    decisions = np.zeros((n_steps, batch, 64), dtype=bool)
    finals = []
    for b in range(batch):
        metric = [0.0] + [-np.inf] * 63
        for t in range(n_steps):
            la, lb = float(llr_a[b, t]), float(llr_b[b, t])
            new = [0.0] * 64
            for ns in range(64):
                cands = []
                for pred in ((ns & 31) << 1, ((ns & 31) << 1) | 1):
                    window = ((ns >> 5) << 6) | pred
                    sa = 1.0 - 2.0 * _parity(window & cc.G0)
                    sb = 1.0 - 2.0 * _parity(window & cc.G1)
                    cands.append((metric[pred] + sa * la) + sb * lb)
                take1 = cands[1] > cands[0]
                decisions[t, b, ns] = take1
                new[ns] = cands[1] if take1 else cands[0]
            metric = new
        finals.append(metric)
    return decisions, np.array(finals)


def _reference_traceback(decisions, start_states):
    n_steps, batch, _ = decisions.shape
    decoded = np.zeros((batch, n_steps), dtype=np.int8)
    for b in range(batch):
        state = int(start_states[b])
        for t in range(n_steps - 1, -1, -1):
            decoded[b, t] = state >> 5
            pred0 = (state & 31) << 1
            state = pred0 | 1 if decisions[t, b, state] else pred0
    return decoded


#: Rows from one to past the widest ``link-grid`` call's 32.
REFERENCE_BATCHES = (1, 2, 5, 8, 9, 33)


def _reference_cases():
    """(batch, n_steps) pairs around every walk and chunk boundary.

    1 and 8 steps make single-step and single-block walks, 24 is the
    SIGNAL field. 63-65 straddle the traceback's one and two blocks,
    127-129 its two and three (64 and 128 tile exactly). The rest
    straddle the ACS sweep's chunk, and 255-257 and 300 steps span
    several chunks of the narrow calls.
    """
    cases = []
    for batch in REFERENCE_BATCHES:
        chunk = kernels.acs_chunk(batch)
        steps = {1, 8, 24, 63, 64, 65, 127, 128, 129,
                 chunk - 1, chunk, chunk + 1}
        if batch <= 5:
            steps |= {255, 256, 257, 300}
        cases += [(batch, n) for n in sorted(steps - {0})]
    return cases


def _reference_starts(batch, metrics):
    """Both start styles: the terminated (zeros) and the argmax one."""
    return (np.zeros(batch, dtype=np.int64), np.argmax(metrics, axis=1))


def _numpy_ids(cases):
    """Ids of ``cases`` with the ``-numpy`` tail, naming the kernels."""
    return ["-".join(map(str, case if isinstance(case, tuple) else (case,)))
            + "-numpy" for case in cases]


class TestReferenceDecoder:
    """The kernels equal a plain-Python ACS and traceback.

    Decisions and decoded bits must match bit for bit and final metrics
    in value (a zero's sign is free: no later comparison can see it).
    LLRs include punctured zeros, and hard +-1 values that make equal
    candidates common, so the tie rule (the even predecessor wins) is
    exercised as well as the -inf start metrics of the unreached states.
    """

    @pytest.mark.parametrize("batch,n_steps", _reference_cases(),
                             ids=_numpy_ids(_reference_cases()))
    @pytest.mark.parametrize("style", ["soft", "hard"])
    def test_matches_reference(self, batch, n_steps, style):
        rng = np.random.default_rng([batch, n_steps])
        shape = (batch, n_steps)
        if style == "soft":
            llr_a, llr_b = rng.normal(size=shape), rng.normal(size=shape)
        else:
            llr_a = 1.0 - 2.0 * rng.integers(0, 2, shape)
            llr_b = 1.0 - 2.0 * rng.integers(0, 2, shape)
        llr_a[rng.random(shape) < 0.25] = 0.0
        llr_b[rng.random(shape) < 0.25] = 0.0
        want_dec, want_metrics = _reference_viterbi(llr_a, llr_b)
        dec, metrics = kernels.viterbi_forward(
            llr_a, llr_b, cc._SIGN_A, cc._SIGN_B)
        assert_array_equal(dec, want_dec)
        assert_array_equal(metrics, want_metrics)
        for start in _reference_starts(batch, want_metrics):
            assert_array_equal(
                kernels.viterbi_traceback(dec, start),
                _reference_traceback(want_dec, start))

    @pytest.mark.parametrize("batch", REFERENCE_BATCHES,
                             ids=_numpy_ids(REFERENCE_BATCHES))
    @pytest.mark.parametrize("pattern", ["random", "rotate"])
    def test_long_frame_traceback(self, batch, pattern):
        """A 12,096-step frame (1500 bytes at 6 Mbps), traceback only.

        Random decisions are what a noise-only frame gives: survivors
        merge late, so the block walk's guesses often fail and it
        re-walks. ``rotate`` makes every step a permutation of the
        states (the odd predecessor wins exactly for states >= 32), so
        survivors never merge and every guess but a lucky one fails.
        """
        rng = np.random.default_rng([batch, 12096])
        if pattern == "random":
            dec = rng.random((12096, batch, 64)) < 0.5
        else:
            dec = np.broadcast_to(np.arange(64) >= 32, (12096, batch, 64))
        start = rng.integers(0, 64, batch)
        assert_array_equal(kernels.viterbi_traceback(dec, start),
                           _reference_traceback(dec, start))

    @pytest.mark.parametrize("rate", sorted(cc.PUNCTURE_PATTERNS),
                             ids=_numpy_ids(sorted(cc.PUNCTURE_PATTERNS)))
    def test_long_frame_round_trip(self, rate):
        """Two noiseless 1500-byte frames decode to what was sent."""
        rng = np.random.default_rng(1500)
        bits = rng.integers(0, 2, (2, 8 * 1500)).astype(np.uint8)
        soft = np.stack([cc.hard_to_soft(cc.encode_punctured(row, rate))
                         for row in bits])
        assert_array_equal(cc.viterbi_decode(soft, bits.shape[1], rate=rate),
                           bits)


def _reference_min_sum(m_vc, starts, counts, normalisation, clip):
    """Plain-Python normalised min-sum over check-sorted edges.

    Per check, the outgoing magnitude on each edge is the minimum over
    the *other* edges (min1, or min2 on the unique-minimum edge), the
    sign is the product of the other edges' signs, and the result is
    ``(normalisation * sign) * magnitude`` clipped to ``clip``.
    """
    out = np.empty(len(m_vc))
    for lo, count in zip(starts, counts):
        hi = lo + count
        min1 = min2 = np.inf
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
            elif v < min2:
                min2 = v
        if n_min > 1:
            min2 = min1
        for e in range(lo, hi):
            v = m_vc[e]
            sign = -1.0 if v < 0.0 else 1.0
            mag = -v if v < 0.0 else v
            others = min2 if (mag == min1 and n_min == 1) else min1
            value = (normalisation * (sign_prod * sign)) * others
            out[e] = min(max(value, -clip), clip)
    return out


def _random_edge_set(rng, clip):
    """Check-sorted edges of 1-40 checks of degree 1-12.

    Messages are integer-valued in [-6, 6], so equal minima are common,
    with a share replaced by -0.0, 0.0 and values beyond ``clip``.
    """
    counts = rng.integers(1, 13, rng.integers(1, 41))
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    m_vc = rng.integers(-6, 7, counts.sum()).astype(float)
    special = np.array([-0.0, 0.0, clip + 1.0, -(clip + 1.0), 4.0 * clip])
    pick = rng.random(m_vc.size) < 0.2
    m_vc[pick] = rng.choice(special, pick.sum())
    return m_vc, starts, counts


class TestReferenceMinSum:
    """The min-sum kernel equals a plain-Python check update.

    Messages must match in value (a zero's sign is free: the variable
    update adds messages, and an added zero changes no hard decision).
    """

    @pytest.mark.parametrize("normalisation", [0.8, 1.0])
    def test_random_edge_sets(self, normalisation):
        rng = np.random.default_rng([13, int(10 * normalisation)])
        clip = 25.0
        for _ in range(150):
            m_vc, starts, counts = _random_edge_set(rng, clip)
            assert_array_equal(
                kernels.min_sum_check_update(m_vc, starts, counts,
                                             normalisation, clip),
                _reference_min_sum(m_vc, starts, counts, normalisation,
                                   clip))

    def test_standard_code_edges(self):
        """The (648, 1/2) code's own edges with noisy soft messages."""
        code = LdpcCode.from_standard(648, "1/2")
        starts, counts = code._check_starts, code._check_counts
        rng = np.random.default_rng(14)
        for scale in (0.5, 2.0, 30.0):
            m_vc = scale * rng.normal(size=counts.sum())
            assert_array_equal(
                kernels.min_sum_check_update(m_vc, starts, counts, 0.8,
                                             25.0),
                _reference_min_sum(m_vc, starts, counts, 0.8, 25.0))


class TestDecodePlanCache:
    """Repeated viterbi_decode calls must do no table construction."""

    def test_plan_cached_across_calls(self):
        rng = np.random.default_rng(21)
        _, soft = _random_soft(rng, 90, "2/3")
        cc.viterbi_decode(soft, 90, rate="2/3")  # warm
        before = cc._decode_plan.cache_info()
        for _ in range(5):
            cc.viterbi_decode(soft, 90, rate="2/3")
        after = cc._decode_plan.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 5

    def test_plan_identity(self):
        """The cached plan is reused by object, not rebuilt per call."""
        plan_a = cc._decode_plan(64, "1/2", True)
        plan_b = cc._decode_plan(64, "1/2", True)
        assert plan_a[2] is plan_b[2]  # the puncture keep-mask array

    def test_micro_bench_no_rebuild(self):
        """Decoding twice must not be slower than decode + table build.

        A loose 'no table construction on the hot path' assertion:
        after warmup, per-call time with a cached plan stays within 3x
        of the fastest observed call (timer noise) — rebuilding the
        puncture mask and plan every call showed up as >5x here before
        the cache existed.
        """
        import time

        rng = np.random.default_rng(22)
        _, soft = _random_soft(rng, 200, "3/4")
        cc.viterbi_decode(soft, 200, rate="3/4")  # warm cache + numpy
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            cc.viterbi_decode(soft, 200, rate="3/4")
            times.append(time.perf_counter() - t0)
        assert min(times) > 0
        assert max(times) < 10 * min(times)
