"""Low-density parity-check codes — the 802.11n optional advanced code.

The paper singles out LDPC as a likely 802.11n range-extending enhancement
(~1.5-2 dB over the mandatory convolutional code). This module provides:

* GF(2) linear algebra (row reduction, rank, generator from parity check);
* two constructions: regular Gallager ensembles and quasi-cyclic codes with
  4-cycle avoidance, at the 802.11n block lengths (648/1296/1944) and rates
  (1/2, 2/3, 3/4, 5/6). The QC structure mirrors the standard's, with
  pseudo-random circulant shifts rather than the published tables (see
  DESIGN.md substitution log);
* a systematic encoder derived by Gaussian elimination;
* belief-propagation decoding: normalised min-sum (hardware-typical) and
  sum-product (reference), both vectorised over the Tanner-graph edges.

LLR convention: positive favours bit 0, matching
:meth:`repro.phy.modulation.Modulator.demodulate_soft`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import CodingError, ConfigurationError
from repro.phy import kernels
from repro.utils.rng import as_generator

#: Block lengths standardised by 802.11n.
STANDARD_BLOCK_LENGTHS = (648, 1296, 1944)

#: Code rates standardised by 802.11n.
STANDARD_RATES = ("1/2", "2/3", "3/4", "5/6")

_RATE_VALUES = {"1/2": 0.5, "2/3": 2.0 / 3.0, "3/4": 0.75, "5/6": 5.0 / 6.0}

_MSG_CLIP = 25.0  # LLR magnitude clip keeping tanh/arctanh well conditioned


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def gf2_row_reduce(matrix):
    """Row-reduce a binary matrix in place logic (returns copy + pivot cols).

    Returns
    -------
    (reduced, pivot_cols) : (numpy.ndarray, list of int)
        ``reduced`` is in reduced row-echelon form over GF(2).
    """
    m = np.asarray(matrix, dtype=np.uint8).copy()
    rows, cols = m.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_rows = np.nonzero(m[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pivot = r + pivot_rows[0]
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        # Clear every other 1 in this column.
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        m[others] ^= m[r]
        pivot_cols.append(c)
        r += 1
    return m, pivot_cols


def gf2_rank(matrix):
    """Rank of a binary matrix over GF(2)."""
    _, pivots = gf2_row_reduce(matrix)
    return len(pivots)


def generator_from_parity_check(parity_check):
    """Systematic generator matrix for a parity-check matrix.

    Columns of ``H`` are permuted so the pivot columns form an identity
    block; the returned permutation maps generator columns back to the
    original code positions.

    Returns
    -------
    (G, column_permutation) : (numpy.ndarray, numpy.ndarray)
        ``G`` has shape (k, n) with ``G = [I_k | P]`` in permuted
        coordinates; ``column_permutation[j]`` is the original position of
        permuted column ``j``.

    Raises
    ------
    CodingError
        If ``H`` has linearly dependent rows reducing the code dimension
        below ``n - rows`` is fine, but a zero-rank matrix is rejected.
    """
    h = np.asarray(parity_check, dtype=np.uint8)
    n = h.shape[1]
    reduced, pivots = gf2_row_reduce(h)
    rank = len(pivots)
    if rank == 0:
        raise CodingError("parity-check matrix has rank 0")
    k = n - rank
    non_pivots = [c for c in range(n) if c not in set(pivots)]
    # Permute: [pivot cols | non-pivot cols]  ->  H' = [I_r | A]
    perm = np.array(pivots + non_pivots)
    a = reduced[:rank][:, non_pivots]  # r x k
    # Codeword in permuted coords: [p | s] with p = A s  =>  G' = [A^T | I_k]
    g = np.zeros((k, n), dtype=np.uint8)
    g[:, :rank] = a.T
    g[:, rank:] = np.eye(k, dtype=np.uint8)
    # Reorder G' columns so it is [I_k | P] with systematic bits first.
    sys_order = np.concatenate([np.arange(rank, n), np.arange(rank)])
    g = g[:, sys_order]
    perm = perm[sys_order]
    return g, perm


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def gallager_regular(n, column_weight=3, row_weight=6, rng=None):
    """Regular Gallager-ensemble parity-check matrix.

    ``n * column_weight`` must be divisible by ``row_weight``. The first
    sub-block is deterministic; the rest are column permutations of it,
    exactly as in Gallager's 1962 construction.
    """
    if (n * column_weight) % row_weight != 0:
        raise ConfigurationError(
            f"n*wc ({n}*{column_weight}) must be divisible by wr ({row_weight})"
        )
    rng = as_generator(rng)
    rows_per_block = n * column_weight // row_weight // column_weight
    block = np.zeros((rows_per_block, n), dtype=np.uint8)
    for i in range(rows_per_block):
        block[i, i * row_weight : (i + 1) * row_weight] = 1
    blocks = [block]
    for _ in range(column_weight - 1):
        blocks.append(block[:, rng.permutation(n)])
    return np.concatenate(blocks, axis=0)


def quasi_cyclic(n, rate="1/2", lifting=27, rng=None, max_tries=200):
    """Quasi-cyclic LDPC parity check at 802.11n-style geometry.

    The base graph has ``n/lifting`` columns and ``(1-R) * n/lifting`` rows;
    each base edge becomes a ``lifting x lifting`` cyclically shifted
    identity. Shift values are chosen pseudo-randomly but re-drawn whenever
    they would close a length-4 cycle, which is the dominant quality factor
    at these lengths.
    """
    if rate not in _RATE_VALUES:
        raise ConfigurationError(f"unknown rate {rate!r}")
    if n % lifting != 0:
        raise ConfigurationError(f"n={n} not divisible by lifting={lifting}")
    rng = as_generator(rng)
    n_base_cols = n // lifting
    n_base_rows = int(round(n_base_cols * (1.0 - _RATE_VALUES[rate])))
    if n_base_rows < 2:
        raise ConfigurationError("geometry too small for the requested rate")

    # Base matrix: every column gets weight 3 (weight 2 on the last columns
    # forming a dual-diagonal-ish parity part keeps encoding well behaved,
    # but systematic encoding via elimination does not require it).
    base = -np.ones((n_base_rows, n_base_cols), dtype=np.int64)  # -1 = no edge
    for col in range(n_base_cols):
        weight = 3 if n_base_rows >= 3 else n_base_rows
        rows = rng.choice(n_base_rows, size=weight, replace=False)
        for row in rows:
            for _ in range(max_tries):
                shift = int(rng.integers(0, lifting))
                base[row, col] = shift
                if not _closes_4cycle(base, row, col, lifting):
                    break
                base[row, col] = -1
            else:
                base[row, col] = int(rng.integers(0, lifting))
    return expand_base_matrix(base, lifting)


def _closes_4cycle(base, row, col, lifting):
    """Check whether edge (row, col) participates in a 4-cycle.

    For QC codes, a 4-cycle among base edges (r1,c1),(r1,c2),(r2,c1),(r2,c2)
    exists iff ``s(r1,c1) - s(r1,c2) + s(r2,c2) - s(r2,c1) == 0 (mod Z)``.
    """
    other_cols = np.nonzero(base[row] >= 0)[0]
    other_cols = other_cols[other_cols != col]
    other_rows = np.nonzero(base[:, col] >= 0)[0]
    other_rows = other_rows[other_rows != row]
    for r2 in other_rows:
        for c2 in other_cols:
            if base[r2, c2] < 0:
                continue
            delta = (
                base[row, col] - base[row, c2] + base[r2, c2] - base[r2, col]
            ) % lifting
            if delta == 0:
                return True
    return False


def expand_base_matrix(base, lifting):
    """Expand a shift matrix (-1 = zero block) into a full binary H."""
    base = np.asarray(base)
    rows, cols = base.shape
    h = np.zeros((rows * lifting, cols * lifting), dtype=np.uint8)
    eye = np.eye(lifting, dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            shift = base[r, c]
            if shift >= 0:
                h[
                    r * lifting : (r + 1) * lifting,
                    c * lifting : (c + 1) * lifting,
                ] = np.roll(eye, -int(shift), axis=1)
    return h


# ---------------------------------------------------------------------------
# The code object
# ---------------------------------------------------------------------------

class LdpcCode:
    """An LDPC code: encoder + belief-propagation decoder.

    Parameters
    ----------
    parity_check : 2-D binary array
        The parity-check matrix H.

    Attributes
    ----------
    n : int
        Block length.
    k : int
        Information length (``n - rank(H)``).
    """

    def __init__(self, parity_check):
        self.h = np.asarray(parity_check, dtype=np.uint8)
        if self.h.ndim != 2:
            raise ConfigurationError("parity-check matrix must be 2-D")
        self.n = self.h.shape[1]
        self.g, self._perm = generator_from_parity_check(self.h)
        self.k = self.g.shape[0]
        self._build_graph()

    @classmethod
    def from_standard(cls, n=648, rate="1/2", construction="qc", rng=0):
        """Construct a code at 802.11n geometry.

        ``rng`` defaults to a fixed seed so the same (deterministic) code is
        shared by encoder and decoder without further coordination.
        """
        if n not in STANDARD_BLOCK_LENGTHS:
            raise ConfigurationError(
                f"n must be one of {STANDARD_BLOCK_LENGTHS}, got {n}"
            )
        # Graph construction (Gaussian elimination + edge lists) is costly
        # and fully determined by the arguments when the seed is an int, so
        # identical codes are shared across transceiver instances.
        if cls is LdpcCode and isinstance(rng, (int, np.integer)):
            return _cached_standard_code(int(n), rate, construction, int(rng))
        return cls._build_standard(n, rate, construction, rng)

    @classmethod
    def _build_standard(cls, n, rate, construction, rng):
        if construction == "qc":
            h = quasi_cyclic(n, rate=rate, lifting=n // 24, rng=rng)
        elif construction == "gallager":
            wr = {"1/2": 6, "2/3": 9, "3/4": 12, "5/6": 18}[rate]
            h = gallager_regular(n, column_weight=3, row_weight=wr, rng=rng)
        else:
            raise ConfigurationError(f"unknown construction {construction!r}")
        return cls(h)

    @property
    def rate(self):
        """Actual code rate k/n (may exceed the design rate if H is rank
        deficient)."""
        return self.k / self.n

    def _build_graph(self):
        # reduceat segments must be non-empty: drop all-zero check rows (they
        # impose no constraint) and reject all-zero columns (an unprotected,
        # undecodable bit would silently break the variable update).
        live_rows = self.h.any(axis=1)
        self._h_graph = self.h[live_rows]
        if not self.h.any(axis=0).all():
            raise ConfigurationError(
                "parity-check matrix has an all-zero column (unprotected bit)"
            )
        check_idx, var_idx = np.nonzero(self._h_graph)
        # Edge list sorted by check (for check updates) ...
        order_c = np.lexsort((var_idx, check_idx))
        self._edge_check = check_idx[order_c]
        self._edge_var = var_idx[order_c]
        self._n_edges = self._edge_check.size
        counts_c = np.bincount(self._edge_check, minlength=self._h_graph.shape[0])
        self._check_starts = np.concatenate([[0], np.cumsum(counts_c)[:-1]])
        self._check_counts = counts_c
        # ... and the permutation into variable-sorted order (for var updates).
        order_v = np.lexsort((self._edge_check, self._edge_var))
        self._to_var_order = order_v
        self._from_var_order = np.argsort(order_v)
        counts_v = np.bincount(self._edge_var, minlength=self.n)
        self._var_starts = np.concatenate([[0], np.cumsum(counts_v)[:-1]])
        self._var_counts = counts_v

    # -- encoding --------------------------------------------------------

    def encode(self, info_bits):
        """Encode ``k`` information bits into an ``n``-bit codeword.

        The codeword is systematic in permuted coordinates; positions are
        mapped back so ``H @ codeword = 0`` in the original coordinates.
        """
        info_bits = np.asarray(info_bits).astype(np.uint8)
        if info_bits.ndim == 1:
            info_bits = info_bits.ravel()
        if info_bits.shape[-1] != self.k:
            raise CodingError(
                f"expected {self.k} info bits, got {info_bits.shape[-1]}"
            )
        # Exact GF(2) arithmetic, so a 2-D batch of blocks encodes in one
        # matmul with bit-identical rows.
        permuted = (info_bits @ self.g) % 2
        codeword = np.zeros(info_bits.shape[:-1] + (self.n,), dtype=np.int8)
        codeword[..., self._perm] = permuted
        return codeword

    def extract_info(self, codeword):
        """Recover the information bits from a (corrected) codeword."""
        codeword = np.asarray(codeword).astype(np.int8).ravel()
        if codeword.size != self.n:
            raise CodingError(f"expected {self.n} code bits, got {codeword.size}")
        return codeword[self._perm[: self.k]]

    def syndrome(self, codeword):
        """H @ c mod 2; all-zero iff ``codeword`` is valid."""
        return (self.h @ np.asarray(codeword).astype(np.uint8)) % 2

    def is_codeword(self, codeword):
        """True iff the syndrome is zero."""
        return not np.any(self.syndrome(codeword))

    # -- decoding --------------------------------------------------------

    def decode(
        self,
        llrs,
        max_iterations=50,
        algorithm="min-sum",
        normalisation=0.8,
    ):
        """Belief-propagation decoding.

        Parameters
        ----------
        llrs : array of float
            Channel LLRs, one per code bit, positive favouring 0.
        max_iterations : int
            BP iteration cap; decoding stops early on a zero syndrome.
        algorithm : str
            "min-sum" (normalised) or "sum-product".
        normalisation : float
            Scaling factor for normalised min-sum (ignored by sum-product).

        Returns
        -------
        (bits, converged, iterations) : (numpy.ndarray, bool, int)
        """
        llrs = np.asarray(llrs, dtype=float).ravel()
        if llrs.size != self.n:
            raise CodingError(f"expected {self.n} LLRs, got {llrs.size}")
        if algorithm not in ("min-sum", "sum-product"):
            raise ConfigurationError(f"unknown BP algorithm {algorithm!r}")

        llrs = np.clip(llrs, -_MSG_CLIP, _MSG_CLIP)
        m_vc = llrs[self._edge_var].copy()  # edge order: check-sorted
        m_cv = np.zeros(self._n_edges)
        hard = (llrs < 0).astype(np.int8)
        if self.is_codeword(hard):
            return hard, True, 0

        for iteration in range(1, max_iterations + 1):
            m_cv = self._check_update(m_vc, algorithm, normalisation)
            totals = llrs + np.add.reduceat(
                m_cv[self._to_var_order], self._var_starts
            )
            m_vc = np.clip(totals[self._edge_var] - m_cv, -_MSG_CLIP, _MSG_CLIP)
            hard = (totals < 0).astype(np.int8)
            if self.is_codeword(hard):
                return hard, True, iteration
        return hard, False, max_iterations

    def _check_update(self, m_vc, algorithm, normalisation):
        starts = self._check_starts
        if algorithm == "min-sum":
            # Hot BP kernel: the min-sum update in repro.phy.kernels.
            return kernels.min_sum_check_update(
                m_vc, starts, self._check_counts, normalisation, _MSG_CLIP)
        # sum-product via tanh rule, excluding self by division in the
        # magnitude-log domain to stay numerically safe.
        t = np.tanh(np.clip(m_vc, -_MSG_CLIP, _MSG_CLIP) / 2.0)
        signs = np.where(t < 0, -1.0, 1.0)
        logmag = np.log(np.maximum(np.abs(t), 1e-300))
        sign_prod = np.multiply.reduceat(signs, starts)
        logmag_sum = np.add.reduceat(logmag, starts)
        others_log = np.repeat(logmag_sum, self._check_counts) - logmag
        others_sign = np.repeat(sign_prod, self._check_counts) * signs
        prod_others = others_sign * np.exp(np.minimum(others_log, 0.0))
        prod_others = np.clip(prod_others, -0.9999999999, 0.9999999999)
        return np.clip(2.0 * np.arctanh(prod_others), -_MSG_CLIP, _MSG_CLIP)


@lru_cache(maxsize=None)
def _cached_standard_code(n, rate, construction, rng):
    """One shared :class:`LdpcCode` per deterministic standard geometry."""
    return LdpcCode._build_standard(n, rate, construction, rng)
