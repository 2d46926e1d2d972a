"""Kernel backend registry, numpy/numba parity, and hot-path caching.

The numba half of the parity matrix only runs where numba is installed
(the ``kernels-parity`` CI job); everywhere else those tests skip and
the numpy fallback — the reference arithmetic — is what's exercised.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.errors import ConfigurationError
from repro.phy import convolutional as cc
from repro.phy import kernels
from repro.phy.ldpc import LdpcCode

GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "goldens",
                            "phy_goldens.npz")

needs_numba = pytest.mark.skipif(not kernels.numba_available(),
                                 reason="numba not installed")


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Start every test with ``REPRO_KERNELS`` unset (``auto``)."""
    monkeypatch.delenv("REPRO_KERNELS", raising=False)


def _under(monkeypatch, backend, fn, *args, **kwargs):
    """Call ``fn`` with ``REPRO_KERNELS`` set to ``backend``."""
    monkeypatch.setenv("REPRO_KERNELS", backend)
    return fn(*args, **kwargs)


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_resolve_default_is_numpy_without_numba(self):
        if not kernels.numba_available():
            assert kernels.resolve_backend() == "numpy"

    def test_resolve_env(self, monkeypatch):
        assert _under(monkeypatch, "numpy", kernels.resolve_backend) == "numpy"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="unknown kernels"):
            kernels.require_backend("fortran")
        with pytest.raises(ConfigurationError, match="unknown kernels"):
            _under(monkeypatch, "fortran", kernels.resolve_backend)

    def test_numba_missing_is_clean_error(self, monkeypatch):
        if kernels.numba_available():
            pytest.skip("numba installed here")
        with pytest.raises(ConfigurationError, match="repro\\[fast\\]"):
            kernels.require_backend("numba")
        with pytest.raises(ConfigurationError, match="repro\\[fast\\]"):
            _under(monkeypatch, "numba", kernels.resolve_backend)

    def test_require_numpy_ok(self):
        assert kernels.require_backend("numpy") == "numpy"


class TestCliKernelsFlag:
    """``repro link`` under the ``REPRO_KERNELS`` environment switch."""

    def test_link_kernels_numba_missing_exits_2(self):
        """`REPRO_KERNELS=numba repro link` fails cleanly, no traceback."""
        if kernels.numba_available():
            pytest.skip("numba installed here")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "link", "ofdm-6", "awgn", "20",
             "--packets", "1", "--bytes", "20"],
            capture_output=True, text=True,
            env={**os.environ, "REPRO_KERNELS": "numba",
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            os.pardir, "src")})
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "repro[fast]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_link_kernels_numpy_runs(self, capsys, monkeypatch):
        from repro.cli import main

        assert _under(monkeypatch, "numpy", main,
                      ["link", "ofdm-6", "awgn", "20", "--packets", "2",
                       "--bytes", "20"]) == 0
        assert "PER" in capsys.readouterr().out


def _random_soft(rng, n_info, rate, terminated=True):
    bits = rng.integers(0, 2, n_info).astype(np.uint8)
    coded = cc.puncture(cc.encode(bits, terminate=terminated), rate)
    soft = 1.0 - 2.0 * coded.astype(float)
    soft += 0.6 * rng.normal(size=soft.shape)
    return bits, soft


class TestNumpyDecoderEquivalence:
    """REPRO_KERNELS=numpy must be THE decoder, not a sibling."""

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
    def test_viterbi_backend_arg_is_noop(self, rate, monkeypatch):
        rng = np.random.default_rng(5)
        _, soft = _random_soft(rng, 120, rate)
        base = cc.viterbi_decode(soft, 120, rate=rate)
        assert_array_equal(base, _under(monkeypatch, "numpy",
                                        cc.viterbi_decode, soft, 120,
                                        rate=rate))

    def test_viterbi_batch_and_env(self, monkeypatch):
        rng = np.random.default_rng(6)
        soft = np.stack([_random_soft(rng, 80, "1/2")[1]
                         for _ in range(4)])
        base = cc.viterbi_decode(soft, 80)
        assert_array_equal(base, _under(monkeypatch, "numpy",
                                        cc.viterbi_decode, soft, 80))

    def test_ldpc_backend_arg_is_noop(self, monkeypatch):
        rng = np.random.default_rng(7)
        code = LdpcCode.from_standard(648, "1/2")
        n_info = int(round(648 * code.rate))
        bits = rng.integers(0, 2, n_info).astype(np.uint8)
        llr = (1.0 - 2.0 * code.encode(bits).astype(float)
               + 0.8 * rng.normal(size=648))
        a = code.decode(llr, max_iterations=12)
        b = _under(monkeypatch, "numpy", code.decode, llr, max_iterations=12)
        assert a[1:] == b[1:]
        assert_array_equal(a[0], b[0])


@needs_numba
class TestNumbaParity:
    """Bit-exact numba-vs-numpy parity on random and golden vectors."""

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4", "5/6"])
    @pytest.mark.parametrize("terminated", [True, False])
    def test_viterbi_random(self, rate, terminated, monkeypatch):
        rng = np.random.default_rng(11)
        for n_info in (24, 97, 200):
            _, soft = _random_soft(rng, n_info, rate, terminated)
            assert_array_equal(
                _under(monkeypatch, "numpy", cc.viterbi_decode, soft,
                       n_info, rate=rate, terminated=terminated),
                _under(monkeypatch, "numba", cc.viterbi_decode, soft,
                       n_info, rate=rate, terminated=terminated))

    def test_viterbi_batch(self, monkeypatch):
        rng = np.random.default_rng(12)
        soft = np.stack([_random_soft(rng, 60, "3/4")[1]
                         for _ in range(5)])
        assert_array_equal(
            _under(monkeypatch, "numpy", cc.viterbi_decode, soft, 60,
                   rate="3/4"),
            _under(monkeypatch, "numba", cc.viterbi_decode, soft, 60,
                   rate="3/4"))

    @pytest.mark.parametrize("tag,rate", [("12", "1/2"), ("23", "2/3"),
                                          ("34", "3/4"), ("56", "5/6")])
    def test_viterbi_goldens(self, tag, rate, monkeypatch):
        gold = np.load(GOLDENS_PATH)
        decoded = _under(monkeypatch, "numba", cc.viterbi_decode,
                         gold[f"cc_soft_{tag}"], 500, rate=rate)
        assert_array_equal(decoded, gold[f"cc_dec_{tag}"])

    def test_min_sum_parity(self, monkeypatch):
        rng = np.random.default_rng(13)
        code = LdpcCode.from_standard(648, "1/2")
        n_info = int(round(648 * code.rate))
        for snr_scale in (0.5, 0.9, 1.5):
            bits = rng.integers(0, 2, n_info).astype(np.uint8)
            llr = (1.0 - 2.0 * code.encode(bits).astype(float)
                   + snr_scale * rng.normal(size=648))
            a = _under(monkeypatch, "numpy", code.decode, llr,
                       max_iterations=20)
            b = _under(monkeypatch, "numba", code.decode, llr,
                       max_iterations=20)
            assert a[1:] == b[1:]
            assert_array_equal(a[0], b[0])

    def test_raw_kernel_parity(self, monkeypatch):
        """Kernel-level parity, decisions and final metrics included."""
        rng = np.random.default_rng(14)
        llr_a = rng.normal(size=(3, 40))
        llr_b = rng.normal(size=(3, 40))
        d_np, m_np = _under(monkeypatch, "numpy", kernels.viterbi_forward,
                            llr_a, llr_b, cc._SIGN_A, cc._SIGN_B)
        d_nb, m_nb = _under(monkeypatch, "numba", kernels.viterbi_forward,
                            llr_a, llr_b, cc._SIGN_A, cc._SIGN_B)
        assert_array_equal(d_np, d_nb)
        assert_array_equal(m_np, m_nb)
        start = np.argmax(m_np, axis=1)
        assert_array_equal(
            _under(monkeypatch, "numpy", kernels.viterbi_traceback,
                   d_np, start),
            _under(monkeypatch, "numba", kernels.viterbi_traceback,
                   d_np, start))


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
    """(batch, n_steps) pairs around every numpy walk and chunk boundary.

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


class TestReferenceDecoder:
    """Every backend equals a plain-Python ACS and traceback.

    Decisions and decoded bits must match bit for bit and final metrics
    in value (a zero's sign is free: no later comparison can see it).
    LLRs include punctured zeros, and hard +-1 values that make equal
    candidates common, so the tie rule (the even predecessor wins) is
    exercised as well as the -inf start metrics of the unreached states.
    """

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("batch,n_steps", _reference_cases())
    @pytest.mark.parametrize("style", ["soft", "hard"])
    def test_matches_reference(self, backend, batch, n_steps, style,
                               monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", backend)
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

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("batch", REFERENCE_BATCHES)
    @pytest.mark.parametrize("pattern", ["random", "rotate"])
    def test_long_frame_traceback(self, backend, batch, pattern,
                                  monkeypatch):
        """A 12,096-step frame (1500 bytes at 6 Mbps), traceback only.

        Random decisions are what a noise-only frame gives: survivors
        merge late, so the block walk's guesses often fail and it
        re-walks. ``rotate`` makes every step a permutation of the
        states (the odd predecessor wins exactly for states >= 32), so
        survivors never merge and every guess but a lucky one fails.
        """
        monkeypatch.setenv("REPRO_KERNELS", backend)
        rng = np.random.default_rng([batch, 12096])
        if pattern == "random":
            dec = rng.random((12096, batch, 64)) < 0.5
        else:
            dec = np.broadcast_to(np.arange(64) >= 32, (12096, batch, 64))
        start = rng.integers(0, 64, batch)
        assert_array_equal(kernels.viterbi_traceback(dec, start),
                           _reference_traceback(dec, start))

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("rate", sorted(cc.PUNCTURE_PATTERNS))
    def test_long_frame_round_trip(self, backend, rate, monkeypatch):
        """Two noiseless 1500-byte frames decode to what was sent."""
        monkeypatch.setenv("REPRO_KERNELS", backend)
        rng = np.random.default_rng(1500)
        bits = rng.integers(0, 2, (2, 8 * 1500)).astype(np.uint8)
        soft = np.stack([cc.hard_to_soft(cc.encode_punctured(row, rate))
                         for row in bits])
        assert_array_equal(cc.viterbi_decode(soft, bits.shape[1], rate=rate),
                           bits)


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
