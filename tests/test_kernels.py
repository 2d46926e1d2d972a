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
def _clean_backend_state():
    """Isolate override/env state so tests cannot leak into each other."""
    previous = kernels.set_backend(None)
    env = os.environ.pop("REPRO_KERNELS", None)
    yield
    kernels.set_backend(previous)
    if env is not None:
        os.environ["REPRO_KERNELS"] = env


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available_backends()

    def test_resolve_default_is_numpy_without_numba(self):
        if not kernels.numba_available():
            assert kernels.resolve_backend() == "numpy"

    def test_resolve_explicit_arg_wins(self):
        kernels.set_backend("auto")
        assert kernels.resolve_backend("numpy") == "numpy"

    def test_resolve_env(self):
        os.environ["REPRO_KERNELS"] = "numpy"
        assert kernels.resolve_backend() == "numpy"

    def test_override_beats_env(self):
        os.environ["REPRO_KERNELS"] = "auto"
        kernels.set_backend("numpy")
        assert kernels.resolve_backend() == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernels"):
            kernels.resolve_backend("fortran")
        with pytest.raises(ConfigurationError, match="unknown kernels"):
            kernels.set_backend("fortran")

    def test_use_backend_restores(self):
        with kernels.use_backend("numpy"):
            assert kernels.resolve_backend() == "numpy"
        assert kernels._OVERRIDE is None

    def test_numba_missing_is_clean_error(self):
        if kernels.numba_available():
            pytest.skip("numba installed here")
        with pytest.raises(ConfigurationError, match="repro\\[fast\\]"):
            kernels.require_backend("numba")
        with pytest.raises(ConfigurationError, match="repro\\[fast\\]"):
            kernels.set_backend("numba")

    def test_require_numpy_ok(self):
        assert kernels.require_backend("numpy") == "numpy"


class TestCliKernelsFlag:
    def test_link_kernels_numba_missing_exits_2(self):
        """`repro link --kernels numba` must fail cleanly, not traceback."""
        if kernels.numba_available():
            pytest.skip("numba installed here")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "link", "ofdm-6", "awgn", "20",
             "--packets", "1", "--bytes", "20", "--kernels", "numba"],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            os.pardir, "src")})
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "repro[fast]" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_link_kernels_numpy_runs(self, capsys):
        from repro.cli import main

        assert main(["link", "ofdm-6", "awgn", "20", "--packets", "2",
                     "--bytes", "20", "--kernels", "numpy"]) == 0
        assert "PER" in capsys.readouterr().out


def _random_soft(rng, n_info, rate, terminated=True):
    bits = rng.integers(0, 2, n_info).astype(np.uint8)
    coded = cc.puncture(cc.encode(bits, terminate=terminated), rate)
    soft = 1.0 - 2.0 * coded.astype(float)
    soft += 0.6 * rng.normal(size=soft.shape)
    return bits, soft


class TestNumpyDecoderEquivalence:
    """kernels_backend="numpy" must be THE decoder, not a sibling."""

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4"])
    def test_viterbi_backend_arg_is_noop(self, rate):
        rng = np.random.default_rng(5)
        _, soft = _random_soft(rng, 120, rate)
        assert_array_equal(
            cc.viterbi_decode(soft, 120, rate=rate),
            cc.viterbi_decode(soft, 120, rate=rate,
                              kernels_backend="numpy"))

    def test_viterbi_batch_and_env(self):
        rng = np.random.default_rng(6)
        soft = np.stack([_random_soft(rng, 80, "1/2")[1]
                         for _ in range(4)])
        base = cc.viterbi_decode(soft, 80)
        os.environ["REPRO_KERNELS"] = "numpy"
        assert_array_equal(base, cc.viterbi_decode(soft, 80))

    def test_ldpc_backend_arg_is_noop(self):
        rng = np.random.default_rng(7)
        code = LdpcCode.from_standard(648, "1/2")
        n_info = int(round(648 * code.rate))
        bits = rng.integers(0, 2, n_info).astype(np.uint8)
        llr = (1.0 - 2.0 * code.encode(bits).astype(float)
               + 0.8 * rng.normal(size=648))
        a = code.decode(llr, max_iterations=12)
        b = code.decode(llr, max_iterations=12, kernels_backend="numpy")
        assert a[1:] == b[1:]
        assert_array_equal(a[0], b[0])


@needs_numba
class TestNumbaParity:
    """Bit-exact numba-vs-numpy parity on random and golden vectors."""

    @pytest.mark.parametrize("rate", ["1/2", "2/3", "3/4", "5/6"])
    @pytest.mark.parametrize("terminated", [True, False])
    def test_viterbi_random(self, rate, terminated):
        rng = np.random.default_rng(11)
        for n_info in (24, 97, 200):
            _, soft = _random_soft(rng, n_info, rate, terminated)
            assert_array_equal(
                cc.viterbi_decode(soft, n_info, rate=rate,
                                  terminated=terminated,
                                  kernels_backend="numpy"),
                cc.viterbi_decode(soft, n_info, rate=rate,
                                  terminated=terminated,
                                  kernels_backend="numba"))

    def test_viterbi_batch(self):
        rng = np.random.default_rng(12)
        soft = np.stack([_random_soft(rng, 60, "3/4")[1]
                         for _ in range(5)])
        assert_array_equal(
            cc.viterbi_decode(soft, 60, rate="3/4",
                              kernels_backend="numpy"),
            cc.viterbi_decode(soft, 60, rate="3/4",
                              kernels_backend="numba"))

    @pytest.mark.parametrize("tag,rate", [("12", "1/2"), ("23", "2/3"),
                                          ("34", "3/4"), ("56", "5/6")])
    def test_viterbi_goldens(self, tag, rate):
        gold = np.load(GOLDENS_PATH)
        decoded = cc.viterbi_decode(gold[f"cc_soft_{tag}"], 500, rate=rate,
                                    kernels_backend="numba")
        assert_array_equal(decoded, gold[f"cc_dec_{tag}"])

    def test_min_sum_parity(self):
        rng = np.random.default_rng(13)
        code = LdpcCode.from_standard(648, "1/2")
        n_info = int(round(648 * code.rate))
        for snr_scale in (0.5, 0.9, 1.5):
            bits = rng.integers(0, 2, n_info).astype(np.uint8)
            llr = (1.0 - 2.0 * code.encode(bits).astype(float)
                   + snr_scale * rng.normal(size=648))
            a = code.decode(llr, max_iterations=20,
                            kernels_backend="numpy")
            b = code.decode(llr, max_iterations=20,
                            kernels_backend="numba")
            assert a[1:] == b[1:]
            assert_array_equal(a[0], b[0])

    def test_raw_kernel_parity(self):
        """Kernel-level parity, decisions and final metrics included."""
        rng = np.random.default_rng(14)
        llr_a = rng.normal(size=(3, 40))
        llr_b = rng.normal(size=(3, 40))
        d_np, m_np = kernels.viterbi_forward(
            llr_a, llr_b, cc._SIGN_A, cc._SIGN_B, backend="numpy")
        d_nb, m_nb = kernels.viterbi_forward(
            llr_a, llr_b, cc._SIGN_A, cc._SIGN_B, backend="numba")
        assert_array_equal(d_np, d_nb)
        assert_array_equal(m_np, m_nb)
        start = np.argmax(m_np, axis=1)
        assert_array_equal(
            kernels.viterbi_traceback(d_np, start, backend="numpy"),
            kernels.viterbi_traceback(d_np, start, backend="numba"))


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


def _reference_cases():
    """(batch, n_steps) pairs around the numpy sweep's chunk boundary."""
    cases = []
    for batch in (1, 5):
        chunk = kernels.acs_chunk(batch)
        for n_steps in sorted({1, chunk - 1, chunk, chunk + 1, 300} - {0}):
            cases.append((batch, n_steps))
    return cases


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
    def test_matches_reference(self, backend, batch, n_steps, style):
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
            llr_a, llr_b, cc._SIGN_A, cc._SIGN_B, backend=backend)
        assert_array_equal(dec, want_dec)
        assert_array_equal(metrics, want_metrics)
        for start in (np.zeros(batch, dtype=np.int64),
                      np.argmax(want_metrics, axis=1)):
            assert_array_equal(
                kernels.viterbi_traceback(dec, start, backend=backend),
                _reference_traceback(want_dec, start))


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
