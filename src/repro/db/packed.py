"""Packed-bitset query kernels: uint64 columns *and* rows, batched popcounts.

Every batch consumer of itemset frequencies in this repository -- the
:class:`~repro.db.queries.FrequencyOracle`, the miners, RELEASE-ANSWERS'
``C(d, k)`` precomputation -- reduces to one of two primitives, each
implemented here once and fully vectorized:

* :class:`PackedColumns` (column-major): intersect a few packed *column*
  bitsets and count the surviving rows.  Optimal for support **counts**:
  a k-itemset query touches ``k * ceil(n / 64)`` words.
* :class:`PackedRows` (row-major): AND a packed itemset mask against every
  packed *row* and compare popcounts.  Optimal for row-**membership**
  answers (which rows contain ``T``): one query yields the full boolean
  containment mask in ``n * ceil(d / 64)`` word operations, and batches
  yield ``(m, n)`` mask matrices.

Representation
--------------
A database column (``n`` boolean row-entries) is stored as ``n_words =
ceil(n / 64)`` little-endian ``uint64`` words: bit ``b`` of word ``w``
(i.e. ``(word >> b) & 1``) is row ``w * 64 + b``.  The tail word's padding
bits (rows ``>= n``) are always zero, which makes intersections of
*non-empty* itemsets self-masking: no per-query tail fix-up is needed.  Only
the empty itemset needs an explicit all-rows mask, built arithmetically as
``(1 << valid_bits) - 1`` for the tail word (no unpack/repack round-trips,
no endianness traps).  :class:`PackedRows` uses the same word layout along
the *item* axis: bit ``b`` of word ``w`` of row ``i`` is item
``w * 64 + b`` of row ``i``.

Construction is one :func:`numpy.packbits` call over the whole matrix
(``bitorder="little"``) followed by a byte-level view as ``'<u8'`` --
explicit little-endian words, so the layout is identical on any host.
Popcounts go through :func:`numpy.bitwise_count` when available
(numpy >= 2.0) with a 16-bit lookup-table fallback for older numpy.

Sharded evaluation
------------------
The batched evaluators accept a ``workers=`` parameter, the only
execution setting: the combination / query index is split into
contiguous shards, each running one of the module-level kernel functions
below over a disjoint slice of a preallocated output, so results are
bit-identical for every worker count.  Shards run inline for one worker
and on threads otherwise (:func:`~repro.db.backends.run_threaded`); the
hot AND / popcount calls release the GIL, so threads scale without
copying the packed words anywhere.  ``workers=None`` applies the auto
heuristic -- serial below :data:`PARALLEL_MIN_WORDS` estimated
word-operations or on a single-core host, else one worker per core
(capped) -- so small problems never pay dispatch.  Every count is
clamped to ``os.cpu_count()``, so an oversized request cannot
oversubscribe the host.

Kernel implementations
----------------------
*What code* evaluates each shard follows from the host: the cffi-compiled
C kernels of :mod:`repro.db._native` (fused AND + popcount with no
intermediate mask matrices, prefix-sharing leaf sweeps, word-at-a-time
early-exit containment) whenever that module loads, and the vectorized
numpy kernels in this module otherwise -- no cffi, no compiler.
:func:`resolve_kernel` reports which tier runs.  Both tiers are
bit-identical for every kernel and worker count; the differential suite
in ``tests/test_native_kernels.py`` is the gate.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import chain, combinations
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ParameterError
from . import _native
from .backends import ShardJob, ShardKernel, run_threaded

__all__ = [
    "PackedColumns",
    "PackedRows",
    "popcount_words",
    "popcount_sum",
    "pack_columns",
    "pack_rows",
    "unpack_rows",
    "combination_index_array",
    "resolve_workers",
    "resolve_kernel",
    "PARALLEL_MIN_WORDS",
]

#: Bits per packed word.
WORD_BITS = 64

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

def _popcount_words_bitwise(words: np.ndarray) -> np.ndarray:
    """Elementwise popcount via :func:`numpy.bitwise_count` (numpy >= 2.0)."""
    return np.bitwise_count(words).astype(np.int64)


def _popcount_sum_bitwise(masks: np.ndarray) -> np.ndarray:
    """Row-wise popcount totals via :func:`numpy.bitwise_count`."""
    return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)


#: 16-bit popcount lookup table for the numpy < 2.0 fallback; built on
#: first use so numpy >= 2.0 hosts never allocate it.
_POPCOUNT16: np.ndarray | None = None


def _popcount16_table() -> np.ndarray:
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        _POPCOUNT16 = np.array(
            [bin(i).count("1") for i in range(1 << 16)], dtype=np.int64
        )
    return _POPCOUNT16


def _popcount_words_lut(words: np.ndarray) -> np.ndarray:
    """Elementwise popcount via the 16-bit lookup table (numpy < 2.0)."""
    arr = np.ascontiguousarray(words)
    halves = arr.view(np.uint16).reshape(arr.shape + (4,))
    return _popcount16_table()[halves].sum(axis=-1)


def _popcount_sum_lut(masks: np.ndarray) -> np.ndarray:
    """Row-wise popcount totals via the 16-bit lookup table."""
    return _popcount_words_lut(masks).sum(axis=1)


# The numpy-version branch is resolved once at import into module-level
# function pointers -- never re-checked per call.  Both implementations
# stay importable (and unit-tested) on every numpy version.
if hasattr(np, "bitwise_count"):
    popcount_words = _popcount_words_bitwise
    popcount_sum = _popcount_sum_bitwise
else:  # pragma: no cover - exercised only on numpy < 2.0
    popcount_words = _popcount_words_lut
    popcount_sum = _popcount_sum_lut


def pack_columns(rows: np.ndarray) -> np.ndarray:
    """Pack an ``(n, d)`` boolean matrix into ``(d, n_words)`` uint64 words.

    Bit ``b`` of word ``w`` of row ``j`` of the result is entry
    ``rows[w * 64 + b, j]``; padding bits beyond ``n`` are zero.  One
    vectorized :func:`numpy.packbits` call -- no per-column Python loop.
    """
    arr = np.asarray(rows, dtype=bool)
    if arr.ndim != 2:
        raise ParameterError(f"pack_columns expects a 2-D matrix, got shape {arr.shape}")
    n, d = arr.shape
    n_words = max(1, -(-n // WORD_BITS))
    packed = np.packbits(arr, axis=0, bitorder="little")  # (ceil(n/8), d)
    buf = np.zeros((n_words * 8, d), dtype=np.uint8)
    buf[: packed.shape[0]] = packed
    # '<u8' makes the word layout explicitly little-endian on every host.
    words = np.ascontiguousarray(buf.T).view(np.dtype("<u8"))
    return words.astype(np.uint64, copy=False)


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack an ``(n, d)`` boolean matrix into ``(n, d_words)`` uint64 words.

    The row-major twin of :func:`pack_columns`: bit ``b`` of word ``w`` of
    row ``i`` is entry ``rows[i, w * 64 + b]``; padding bits beyond ``d``
    are zero.  One vectorized :func:`numpy.packbits` call.
    """
    arr = np.asarray(rows, dtype=bool)
    if arr.ndim != 2:
        raise ParameterError(f"pack_rows expects a 2-D matrix, got shape {arr.shape}")
    n, d = arr.shape
    d_words = max(1, -(-d // WORD_BITS))
    packed = np.packbits(arr, axis=1, bitorder="little")  # (n, ceil(d/8))
    buf = np.zeros((n, d_words * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    # '<u8' makes the word layout explicitly little-endian on every host.
    words = np.ascontiguousarray(buf).view(np.dtype("<u8"))
    return words.astype(np.uint64, copy=False)


def unpack_rows(words: np.ndarray, d: int) -> np.ndarray:
    """Unpack ``(n, d_words)`` row words back into an ``(n, d)`` boolean matrix.

    Inverse of :func:`pack_rows` given the original column count ``d``.
    """
    arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
    if arr.ndim != 2:
        raise ParameterError(f"unpack_rows expects a 2-D array, got shape {arr.shape}")
    d_words = max(1, -(-d // WORD_BITS))
    if arr.shape[1] != d_words:
        raise ParameterError(
            f"d={d} needs {d_words} words per row, got {arr.shape[1]}"
        )
    as_bytes = arr.astype(np.dtype("<u8"), copy=False).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(arr.shape[0], -1), axis=1, bitorder="little")
    return bits[:, :d].astype(bool)


# ----------------------------------------------------------------------
# Sharded (multi-worker) evaluation plumbing.
# ----------------------------------------------------------------------

#: Auto heuristic: stay serial below this many estimated uint64 word
#: operations -- thread dispatch costs more than it saves on tiny sweeps.
PARALLEL_MIN_WORDS = 1 << 17

#: Auto heuristic never spawns more threads than this, however many cores.
_MAX_AUTO_WORKERS = 8


def resolve_kernel() -> str:
    """The tier that runs: ``"native"`` if the compiled module loads, else ``"numpy"``.

    The first call builds the native module if needed; a host without
    cffi or a C compiler gets the numpy kernels, never an error.
    """
    return "native" if _native.available() else "numpy"


def resolve_workers(workers: int | None, word_ops: int) -> int:
    """Worker count for a sweep of ~``word_ops`` uint64 operations.

    Explicit ``workers`` wins; ``None`` applies the auto heuristic:
    serial below :data:`PARALLEL_MIN_WORDS` or on a single-core host,
    else one worker per core capped at 8.  Every resolved count is
    clamped to ``os.cpu_count()``: extra shards beyond the core count
    only add dispatch overhead, never throughput.
    """
    cpu_limit = os.cpu_count() or 1
    if workers is None:
        if word_ops < PARALLEL_MIN_WORDS:
            return 1
        return max(1, min(_MAX_AUTO_WORKERS, cpu_limit))
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return max(1, min(workers, cpu_limit))


def _run_job(
    op: str,
    arrays: dict[str, np.ndarray],
    outs: dict[str, np.ndarray],
    total: int,
    word_ops: int,
    workers: int | None,
    params: dict | None = None,
) -> None:
    """Resolve workers and kernel tier, then run one sharded sweep.

    ``op`` names the kernel in :data:`_KERNEL_IMPLS`.  The shards run
    inline or on threads, and both tiers are bit-identical, so results
    cannot depend on the worker count or the tier.  Exceptions propagate.
    """
    fn = _KERNEL_IMPLS[op, resolve_kernel()]
    job = ShardJob(kernel=fn, arrays=arrays, outs=outs, total=total, params=params or {})
    run_threaded(job, resolve_workers(workers, word_ops))


def _batch_index_array(batch: Sequence[tuple[int, ...]], d: int) -> np.ndarray:
    """Ragged itemset batch -> ``(m, max_k)`` index array padded with ``d``.

    Shared by both kernels: ``d`` is the padding sentinel (the virtual
    all-rows column for :class:`PackedColumns`, a no-op bit for
    :class:`PackedRows`).  Uniform-length batches convert straight to the
    array with no per-element Python loop; items are range-checked either
    way.
    """
    m = len(batch)
    max_k = max(len(t) for t in batch)
    if all(len(t) == max_k for t in batch):
        idx = np.asarray(batch, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= d):
            bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
            raise ParameterError(f"item {bad} out of range for d={d}")
        return idx
    idx = np.full((m, max_k), d, dtype=np.intp)
    for i, t in enumerate(batch):
        for pos, j in enumerate(t):
            if not 0 <= j < d:
                raise ParameterError(f"item {j} out of range for d={d}")
            idx[i, pos] = j
    return idx


#: Cache combination index arrays only below this element count (larger
#: sweeps rebuild rather than pin memory).
_INDEX_CACHE_MAX = 1_000_000


def _build_combination_index(d: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros((1, 0), dtype=np.intp)
    m = comb(d, k)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(d), k)), dtype=np.intp, count=m * k
    )
    return flat.reshape(m, k)


@lru_cache(maxsize=16)
def _combination_index_cached(d: int, k: int) -> np.ndarray:
    idx = _build_combination_index(d, k)
    idx.setflags(write=False)
    return idx


def combination_index_array(d: int, k: int) -> np.ndarray:
    """All k-subsets of ``range(d)`` as a ``(C(d, k), k)`` index array.

    Lexicographic row order (the order of :func:`itertools.combinations`),
    materialized with one :func:`numpy.fromiter` pass.  Small enumerations
    are cached (read-only) -- repeated full-``C(d, k)`` workloads reuse the
    same index block.
    """
    if not 0 <= k <= d:
        raise ParameterError(f"need 0 <= k <= d, got k={k}, d={d}")
    if comb(d, k) * max(k, 1) > _INDEX_CACHE_MAX:
        return _build_combination_index(d, k)
    return _combination_index_cached(d, k)


# ----------------------------------------------------------------------
# Shard kernels.  Each reads shared input arrays and writes the disjoint
# ``[lo:hi)`` slice of a preallocated output.
# ----------------------------------------------------------------------
def _index_supports_kernel(
    arrays: Mapping[str, np.ndarray],
    outs: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping,
) -> None:
    """Shard of :meth:`PackedColumns.supports_for_index_array`."""
    if lo >= hi:
        return
    ext = arrays["ext"]
    idx = arrays["idx"]
    k = idx.shape[1]
    masks = ext[idx[lo:hi, 0]]  # fancy indexing copies; AND in place
    for pos in range(1, k):
        masks &= ext[idx[lo:hi, pos]]
    outs["counts"][lo:hi] = popcount_sum(masks)


def _combination_supports_kernel(
    arrays: Mapping[str, np.ndarray],
    outs: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping,
) -> None:
    """Shard of :meth:`PackedColumns.combination_supports` (k >= 2 leaves)."""
    words = arrays["words"]
    pmask = arrays["pmask"]
    leaf_prefix = arrays["leaf_prefix"]
    last = arrays["last"]
    counts = outs["counts"]
    chunk_size = int(params["chunk_size"])
    for clo in range(lo, hi, chunk_size):
        chi = min(clo + chunk_size, hi)
        masks = pmask[leaf_prefix[clo:chi]]
        masks &= words[last[clo:chi]]
        counts[clo:chi] = popcount_sum(masks)


def _contains_kernel(
    arrays: Mapping[str, np.ndarray],
    outs: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping,
) -> None:
    """Shard of :meth:`PackedRows.contains_batch`.

    Word-at-a-time evaluation of ``row & mask == mask`` into preallocated
    buffers: a 2-D uint64 scratch block (reused across chunks) holds the
    AND, the equality writes straight into the output slice, and further
    words fold in with an in-place boolean AND.  No 3-D temporaries, no
    ``.all(axis=2)`` reduction pass -- this is what lifted the
    ``row_containment`` bench out of the noise.
    """
    if lo >= hi:
        return
    words = arrays["words"]  # (n, d_words)
    masks = arrays["masks"]  # (m, d_words) query masks, built once per call
    out = outs["mask"]  # (m, n) boolean containment matrix
    chunk = int(params["chunk"])
    n, d_words = words.shape
    width = min(chunk, hi - lo)
    scratch = np.empty((width, n), dtype=np.uint64)
    fold = np.empty((width, n), dtype=bool) if d_words > 1 else None
    for clo in range(lo, hi, chunk):
        chi = min(clo + chunk, hi)
        m_c = chi - clo
        block = out[clo:chi]
        for w in range(d_words):
            q = masks[clo:chi, w, None]  # (m_c, 1) broadcasts over rows
            np.bitwise_and(words[:, w][None, :], q, out=scratch[:m_c])
            if w == 0:
                np.equal(scratch[:m_c], q, out=block)
            else:
                np.equal(scratch[:m_c], q, out=fold[:m_c])
                block &= fold[:m_c]


# ----------------------------------------------------------------------
# Native-tier shard kernels: same signature, same [lo:hi) contract, but
# the loop body is cffi-compiled C (fused AND + popcount, early-exit
# containment) that releases the GIL.  They run only when
# resolve_kernel() found the compiled library in this process.
# ----------------------------------------------------------------------
def _index_supports_kernel_native(
    arrays: Mapping[str, np.ndarray],
    outs: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping,
) -> None:
    """Native shard of :meth:`PackedColumns.supports_for_index_array`."""
    _native.load().index_supports(arrays["ext"], arrays["idx"], outs["counts"], lo, hi)


def _combination_supports_kernel_native(
    arrays: Mapping[str, np.ndarray],
    outs: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping,
) -> None:
    """Native shard of :meth:`PackedColumns.combination_supports`."""
    _native.load().combination_supports(
        arrays["words"],
        arrays["pmask"],
        arrays["leaf_prefix"],
        arrays["last"],
        outs["counts"],
        lo,
        hi,
    )


def _contains_kernel_native(
    arrays: Mapping[str, np.ndarray],
    outs: Mapping[str, np.ndarray],
    lo: int,
    hi: int,
    params: Mapping,
) -> None:
    """Native shard of :meth:`PackedRows.contains_batch` (early-exit C loop)."""
    _native.load().contains(arrays["words"], arrays["masks"], outs["mask"], lo, hi)


#: Kernel registry: (operation, implementation tier) -> shard function.
_KERNEL_IMPLS: dict[tuple[str, str], ShardKernel] = {
    ("index_supports", "numpy"): _index_supports_kernel,
    ("index_supports", "native"): _index_supports_kernel_native,
    ("combination_supports", "numpy"): _combination_supports_kernel,
    ("combination_supports", "native"): _combination_supports_kernel_native,
    ("contains", "numpy"): _contains_kernel,
    ("contains", "native"): _contains_kernel_native,
}


def _tail_mask(n: int, n_words: int) -> np.ndarray:
    """All-rows mask: every bit below ``n`` set, padding bits clear."""
    mask = np.full(n_words, _ALL_ONES, dtype=np.uint64)
    if n == 0:
        mask[:] = 0
        return mask
    valid = n - (n_words - 1) * WORD_BITS
    if valid < WORD_BITS:
        mask[-1] = np.uint64((1 << valid) - 1)
    return mask


class PackedColumns:
    """Vertical packed-bitset view of a boolean matrix, plus batch kernels.

    Parameters
    ----------
    rows:
        ``(n, d)`` boolean matrix (rows are transactions, columns are items).

    Notes
    -----
    All query methods take plain item-index sequences, not
    :class:`~repro.db.itemset.Itemset` objects -- this is the layer below the
    oracle, shared by the miners and the sketchers.
    """

    __slots__ = ("_words", "_n", "_d", "_full", "_ext")

    def __init__(self, rows: np.ndarray) -> None:
        words = pack_columns(rows)
        self._words = words
        self._n = int(np.asarray(rows).shape[0])
        self._d = int(words.shape[0])
        self._full = _tail_mask(self._n, words.shape[1])
        self._ext: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, rows: np.ndarray) -> "PackedColumns":
        """Build from any 2-D boolean-convertible matrix."""
        return cls(rows)

    # ------------------------------------------------------------------
    # Shape and raw access.
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of rows."""
        return self._n

    @property
    def d(self) -> int:
        """Number of columns (items)."""
        return self._d

    @property
    def n_words(self) -> int:
        """uint64 words per column."""
        return int(self._words.shape[1])

    @property
    def words(self) -> np.ndarray:
        """The ``(d, n_words)`` packed words (do not mutate)."""
        return self._words

    @property
    def full_mask(self) -> np.ndarray:
        """All-rows mask (the empty itemset's intersection)."""
        return self._full.copy()

    def column_words(self, j: int) -> np.ndarray:
        """Packed words of column ``j``."""
        return self._words[self._check_item(j)]

    def _check_item(self, j: int) -> int:
        if not 0 <= j < self._d:
            raise ParameterError(f"item {j} out of range for d={self._d}")
        return j

    def _extended(self) -> np.ndarray:
        """Words with one extra virtual column ``d`` = all rows (batch padding)."""
        if self._ext is None:
            self._ext = np.vstack([self._words, self._full[None, :]])
        return self._ext

    # ------------------------------------------------------------------
    # Single-itemset kernels.
    # ------------------------------------------------------------------
    def intersect(self, items: Sequence[int]) -> np.ndarray:
        """Packed row-bitset of rows containing every item in ``items``.

        The empty selection returns the all-rows mask; non-empty selections
        need no tail masking because padding bits are zero by construction.
        """
        if len(items) == 0:
            return self._full.copy()
        mask = self._words[self._check_item(items[0])].copy()
        for j in items[1:]:
            mask &= self._words[self._check_item(j)]
        return mask

    def support(self, items: Sequence[int]) -> int:
        """Number of rows containing every item in ``items``."""
        if len(items) == 0:
            return self._n
        return int(popcount_words(self.intersect(items)).sum())

    # ------------------------------------------------------------------
    # Batched kernels.
    # ------------------------------------------------------------------
    def supports_for_index_array(
        self, idx: np.ndarray, workers: int | None = None
    ) -> np.ndarray:
        """Support counts for an ``(m, k)`` item-index array (one sweep).

        The core batched kernel: ``k - 1`` AND passes over an
        ``(m, n_words)`` block followed by one batched popcount.  Indices
        equal to ``d`` select the virtual all-rows column (ragged padding).
        With ``workers > 1`` the index rows are sharded, each shard writing
        a disjoint slice of the output; ``None`` applies the auto heuristic
        of :func:`resolve_workers`.
        """
        m, k = idx.shape
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        if k == 0:
            return np.full(m, self._n, dtype=np.int64)
        out = np.empty(m, dtype=np.int64)
        _run_job(
            "index_supports",
            arrays={"ext": self._extended(), "idx": np.ascontiguousarray(idx)},
            outs={"counts": out},
            total=m,
            word_ops=m * k * self.n_words,
            workers=workers,
        )
        return out

    def supports_batch(
        self,
        itemsets: Iterable[Sequence[int]],
        workers: int | None = None,
    ) -> np.ndarray:
        """Support counts for many itemsets in one vectorized sweep.

        Ragged batches are handled by padding with a virtual all-rows
        column; uniform-length batches (a miner's candidate level) convert
        straight to the index array with no per-element Python loop.
        ``workers`` shards the sweep (see :meth:`supports_for_index_array`).
        """
        batch = [tuple(t) for t in itemsets]
        m = len(batch)
        if m == 0:
            return np.zeros(0, dtype=np.int64)
        if max(len(t) for t in batch) == 0:
            return np.full(m, self._n, dtype=np.int64)
        idx = _batch_index_array(batch, self._d)
        return self.supports_for_index_array(idx, workers=workers)

    def _colex_ranks(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized colex ranks of an ``(m, k)`` sorted-combination array.

        ``rank(T) = sum_i C(c_i, i + 1)`` -- one Pascal-table gather, no
        per-itemset arithmetic.
        """
        k = idx.shape[1]
        if k == 0:
            return np.zeros(idx.shape[0], dtype=np.int64)
        pascal = np.array(
            [[comb(j, i + 1) for i in range(k)] for j in range(self._d)],
            dtype=np.int64,
        )
        return pascal[idx, np.arange(k)].sum(axis=1)

    def combination_supports(
        self,
        k: int,
        chunk_size: int = 1 << 16,
        workers: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Supports of all ``C(d, k)`` k-itemsets in lexicographic order.

        Returns ``(indices, counts)``: the ``(C(d, k), k)`` lex-ordered
        index array and the matching support counts.  The evaluator shares
        ``(k - 1)``-prefix intersections: the ``C(d, k - 1)`` prefix masks
        are built once (indexed by colex rank), and each leaf is then a
        single gather + AND + popcount, evaluated in memory-bounded chunks
        (the native tier fuses gather, AND, and popcount into one C loop
        and needs no chunking).  With ``workers > 1`` the leaf range is
        sharded over threads that share the prefix masks in place; every
        worker count and kernel tier produces bit-identical counts.
        """
        idx = combination_index_array(self._d, k)
        if k <= 1:
            return idx, self.supports_for_index_array(idx, workers=workers)
        pidx = combination_index_array(self._d, k - 1)
        pmask = self._words[pidx[:, 0]]
        for pos in range(1, k - 1):
            pmask &= self._words[pidx[:, pos]]
        # Lex order groups k-combinations contiguously by (k-1)-prefix: the
        # prefix ending at j extends with j+1 .. d-1, so the leaf -> prefix
        # map is a plain repeat, no rank arithmetic or scatter needed.
        leaf_prefix = np.repeat(
            np.arange(pidx.shape[0], dtype=np.intp), self._d - 1 - pidx[:, -1]
        )
        counts = np.empty(idx.shape[0], dtype=np.int64)
        _run_job(
            "combination_supports",
            arrays={
                "words": self._words,
                "pmask": pmask,
                "leaf_prefix": leaf_prefix,
                "last": np.ascontiguousarray(idx[:, k - 1]),
            },
            outs={"counts": counts},
            total=idx.shape[0],
            word_ops=2 * idx.shape[0] * self.n_words,
            workers=workers,
            params={"chunk_size": int(chunk_size)},
        )
        return idx, counts

    def extension_supports(
        self, mask: np.ndarray, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """AND ``mask`` against columns ``lo..hi-1`` at once.

        Returns ``(child_masks, counts)``: the ``(hi - lo, n_words)`` packed
        intersections and their popcounts.  This is the shared inner step of
        the prefix-sharing evaluators (oracle DFS and Eclat).
        """
        child = self._words[lo:hi] & mask
        return child, popcount_sum(child)

    # ------------------------------------------------------------------
    # Prefix-sharing enumeration (Eclat-style DFS over packed words).
    # ------------------------------------------------------------------
    def iter_supports(
        self, k: int, min_count: int = 0
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        """Yield ``(items, support)`` for k-itemsets in lexicographic order.

        Shares each ``(k-1)``-prefix intersection across its extensions
        instead of intersecting every itemset from scratch, and evaluates the
        final level as one vectorized AND + popcount per prefix.  With
        ``min_count > 0`` the DFS prunes by monotonicity (a prefix below the
        threshold cannot have a qualifying extension) and yields only
        itemsets with ``support >= min_count``.
        """
        if not 0 <= k <= self._d:
            raise ParameterError(f"need 0 <= k <= d, got k={k}, d={self._d}")
        if k == 0:
            if self._n >= min_count:
                yield (), self._n
            return
        yield from self._dfs((), self._full, 0, k, min_count)

    def _dfs(
        self,
        prefix: tuple[int, ...],
        mask: np.ndarray,
        start: int,
        k: int,
        min_count: int,
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        depth = len(prefix)
        remaining = k - depth
        hi = self._d - remaining + 1
        if remaining == 1:
            child, counts = self.extension_supports(mask, start, self._d)
            for off in range(self._d - start):
                count = int(counts[off])
                if count >= min_count:
                    yield prefix + (start + off,), count
            return
        child = self._words[start:] & mask
        if min_count > 0:
            counts = popcount_sum(child)
        for j in range(start, hi):
            if min_count > 0 and counts[j - start] < min_count:
                continue
            yield from self._dfs(
                prefix + (j,), child[j - start], j + 1, k, min_count
            )

    def support_counts_all(self, k: int, workers: int | None = None) -> np.ndarray:
        """Supports of all ``C(d, k)`` k-itemsets, indexed by colex rank.

        The rank convention matches :func:`~repro.db.itemset.rank_itemset`
        (``rank(T) = sum_i C(c_i, i+1)``), so ``result[rank_itemset(T)]`` is
        the support of ``T``.  One flat batched kernel sweep (optionally
        sharded via ``workers``) plus a vectorized
        Pascal-table rank scatter.
        """
        if not 0 <= k <= self._d:
            raise ParameterError(f"need 0 <= k <= d, got k={k}, d={self._d}")
        idx, counts = self.combination_supports(k, workers=workers)
        if k == 0:
            return counts
        out = np.empty_like(counts)
        out[self._colex_ranks(idx)] = counts
        return out

    def __repr__(self) -> str:
        return f"PackedColumns(n={self._n}, d={self._d}, n_words={self.n_words})"


#: Element budget per intermediate block in PackedRows batch kernels
#: (uint64 elements; ~16 MB per temporary at 8 bytes each).
_ROW_BATCH_ELEMS = 1 << 21


class PackedRows:
    """Horizontal packed-bitset view of a boolean matrix: row containment.

    Rows are packed along the *item* axis (``d_words = ceil(d / 64)``
    little-endian uint64 words per row).  A k-itemset becomes a single
    packed query mask, and containment is batched AND + popcount-equality:
    row ``i`` contains ``T`` iff ``popcount(row_i & mask_T) ==
    popcount(mask_T)`` -- realized wordwise as ``row_i & mask_T == mask_T``,
    which is the same predicate without materializing popcounts.  Because
    the right-hand side is the OR-ed mask -- not the length of the item
    sequence -- duplicate items in a query collapse naturally and count
    once.

    This is the membership-side twin of :class:`PackedColumns`: use it when
    the answer is *which rows* contain an itemset (boolean masks, mask
    matrices, streaming row ingestion), not just how many.
    """

    __slots__ = ("_words", "_n", "_d")

    def __init__(self, rows: np.ndarray) -> None:
        words = pack_rows(rows)
        self._words = words
        self._n = int(words.shape[0])
        self._d = int(np.asarray(rows).shape[1])

    @classmethod
    def from_matrix(cls, rows: np.ndarray) -> "PackedRows":
        """Build from any 2-D boolean-convertible matrix."""
        return cls(rows)

    @classmethod
    def from_words(cls, words: np.ndarray, d: int) -> "PackedRows":
        """Adopt an already-packed ``(n, d_words)`` word block (no repack).

        ``words`` must follow the :func:`pack_rows` layout for ``d`` items,
        padding bits clear.  Used by derived views (row subsampling) to
        gather packed rows without a pack/unpack round trip.
        """
        arr = np.ascontiguousarray(np.asarray(words, dtype=np.uint64))
        d_words = max(1, -(-d // WORD_BITS))
        if arr.ndim != 2 or arr.shape[1] != d_words:
            raise ParameterError(
                f"expected (n, {d_words}) words for d={d}, got shape {arr.shape}"
            )
        obj = object.__new__(cls)
        obj._words = arr
        obj._n = int(arr.shape[0])
        obj._d = int(d)
        return obj

    # ------------------------------------------------------------------
    # Shape and raw access.
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of rows."""
        return self._n

    @property
    def d(self) -> int:
        """Number of items (columns)."""
        return self._d

    @property
    def d_words(self) -> int:
        """uint64 words per row."""
        return int(self._words.shape[1])

    @property
    def words(self) -> np.ndarray:
        """The ``(n, d_words)`` packed row words (do not mutate)."""
        return self._words

    def row_words(self, i: int) -> np.ndarray:
        """Packed words of row ``i``."""
        return self._words[i]

    def to_matrix(self) -> np.ndarray:
        """Unpack back to the ``(n, d)`` boolean matrix."""
        return unpack_rows(self._words, self._d)

    def take(self, indices: Sequence[int] | np.ndarray) -> "PackedRows":
        """Packed view of the selected rows (with multiplicity, no repack).

        The packed-domain form of row subsampling: gathering uint64 words
        moves ``d / 8`` bytes per row instead of ``d`` booleans.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return PackedRows.from_words(self._words[idx], self._d)

    def _check_item(self, j: int) -> int:
        if not 0 <= j < self._d:
            raise ParameterError(f"item {j} out of range for d={self._d}")
        return j

    # ------------------------------------------------------------------
    # Query-mask construction.
    # ------------------------------------------------------------------
    def query_mask(self, items: Sequence[int]) -> np.ndarray:
        """Packed ``(d_words,)`` indicator mask of an item sequence.

        Duplicate items OR into the same bit, so the mask's popcount is the
        number of *distinct* items.
        """
        mask = np.zeros(self._words.shape[1], dtype=np.uint64)
        for j in items:
            j = self._check_item(int(j))
            mask[j // WORD_BITS] |= np.uint64(1) << np.uint64(j % WORD_BITS)
        return mask

    def _query_masks(self, idx: np.ndarray) -> np.ndarray:
        """Packed masks for an ``(m, k)`` index array (``d`` = padding)."""
        m, k = idx.shape
        masks = np.zeros((m, self._words.shape[1]), dtype=np.uint64)
        if k == 0:
            return masks
        flat = idx.reshape(-1)
        valid = flat < self._d  # padding sentinel contributes no bit
        row_ids = np.repeat(np.arange(m, dtype=np.intp), k)[valid]
        cols = flat[valid]
        bits = np.uint64(1) << (cols % WORD_BITS).astype(np.uint64)
        np.bitwise_or.at(masks, (row_ids, cols // WORD_BITS), bits)
        return masks

    # ------------------------------------------------------------------
    # Containment kernels.
    # ------------------------------------------------------------------
    def contains(self, items: Sequence[int]) -> np.ndarray:
        """Boolean ``(n,)`` mask of rows containing every item in ``items``.

        One batched AND + popcount-equality pass over the packed rows:
        ``popcount(row & mask) == popcount(mask)`` holds exactly when
        ``row & mask == mask`` wordwise, so the test runs as an AND plus a
        word-equality reduction -- no popcount arrays materialized.  The
        empty itemset (and any empty mask) is contained in every row.
        """
        mask = self.query_mask(items)
        if not mask.any():
            return np.ones(self._n, dtype=bool)
        return ((self._words & mask) == mask).all(axis=1)

    def support(self, items: Sequence[int]) -> int:
        """Number of rows containing every item in ``items``."""
        return int(self.contains(items).sum())

    def contains_batch(
        self,
        itemsets: Iterable[Sequence[int]],
        workers: int | None = None,
    ) -> np.ndarray:
        """Boolean ``(m, n)`` containment mask matrix for many itemsets.

        Row ``i`` of the result is ``contains(itemsets[i])``.  The query
        masks are built once per call (outside the shard loop); each shard
        then evaluates ``row & mask == mask`` word-at-a-time through
        preallocated scratch buffers, writing equality results straight
        into its disjoint output slice -- no per-chunk 3-D temporaries
        (the native tier instead early-exits per row on the first
        mismatching word).  ``workers`` shards the itemset axis (``None``
        = auto heuristic).
        """
        batch = [tuple(t) for t in itemsets]
        m = len(batch)
        out = np.empty((m, self._n), dtype=bool)
        if m == 0:
            return out
        if max(len(t) for t in batch) == 0:
            out[:] = True
            return out
        idx = _batch_index_array(batch, self._d)
        masks = self._query_masks(idx)
        block = self._n * self._words.shape[1]
        chunk = max(1, _ROW_BATCH_ELEMS // max(1, self._n))
        _run_job(
            "contains",
            arrays={"words": self._words, "masks": masks},
            outs={"mask": out},
            total=m,
            word_ops=m * block,
            workers=workers,
            params={"chunk": int(chunk)},
        )
        return out

    def supports_batch(
        self,
        itemsets: Iterable[Sequence[int]],
        workers: int | None = None,
    ) -> np.ndarray:
        """Support counts for many itemsets via the row-containment kernel.

        Equivalent to ``contains_batch(...).sum(axis=1)``.  Prefer
        :meth:`PackedColumns.supports_batch` when only counts are needed --
        the column kernel touches ``k`` columns per query instead of every
        row -- and this one when the masks are needed anyway.
        """
        return self.contains_batch(itemsets, workers=workers).sum(
            axis=1, dtype=np.int64
        )

    def __repr__(self) -> str:
        return f"PackedRows(n={self._n}, d={self._d}, d_words={self.d_words})"
