"""Binary database substrate: matrices, itemsets, queries, generators.

This package realises the data model of Section 1.3 of the paper: binary
databases ``D ∈ ({0,1}^d)^n``, itemsets ``T ⊆ [d]``, and frequency queries
``f_T(D)``, plus the exact bit-level serialization that all sketch size
accounting rests on.

Query kernels
-------------
All frequency and containment evaluation runs on two packed uint64 kernels,
cached per database (``db.packed`` / ``db.packed_rows``) and sharing one
word convention:

* **Word layout** -- an axis of 64 bits per little-endian uint64 word; bit
  ``b`` of word ``w`` (``(word >> b) & 1``) is position ``w * 64 + b``.
  The byte order is pinned to ``'<u8'`` at construction, so payloads and
  query results are host-independent.
* **Tail padding convention** -- bits beyond the axis length in the last
  word are always zero.  Column intersections of non-empty itemsets
  therefore need no per-query masking; only the empty itemset uses an
  explicit all-rows mask, built arithmetically as ``(1 << valid_bits) - 1``
  (never via unpack/repack round-trips, which are endianness-sensitive).
* **numpy version fallback** -- popcounts use :func:`numpy.bitwise_count`
  (numpy >= 2.0) and fall back to a 16-bit lookup table on older numpy;
  both paths return identical ``int64`` counts.

**Column-major** (:class:`~repro.db.packed.PackedColumns`, ``db.packed``)
packs each *column* into ``ceil(n / 64)`` words.  Use it when the answer is
a support **count**: a k-itemset query ANDs ``k`` packed columns
(``k * ceil(n / 64)`` word ops), batches share ``(k-1)``-prefix
intersections, and full ``C(d, k)`` sweeps are a handful of vectorized
kernel calls.  The :class:`~repro.db.queries.FrequencyOracle`, the miners,
and RELEASE-ANSWERS' precomputation run here.

**Row-major** (:class:`~repro.db.packed.PackedRows`, ``db.packed_rows``)
packs each *row* into ``ceil(d / 64)`` words.  Use it when the answer is
row **membership**: ``support_mask`` / ``contains_matrix`` evaluate packed
AND + popcount-equality against every row, returning boolean masks (and
``(m, n)`` mask matrices for batches).  Row subsampling, the biclique
correspondence, reconstruction-attack diagnostics, and streaming row
ingestion (reservoirs, the itemset miner) run here -- streamed rows are
stored and gathered in this layout without re-packing.

**Sharding** -- the batched evaluators of both kernels take ``workers=``,
the only execution setting (``None`` auto-resolves: serial for small
sweeps, else one shard per core, always clamped to ``os.cpu_count()``).
Shards are contiguous slices of one preallocated output running the same
kernel code, so results are bit-identical for every worker count, which
the differential suites in ``tests/test_parallel_eval.py`` enforce.
Shards run inline for one worker and on threads for more
(:mod:`repro.db.backends`).  The AND / popcount calls release the GIL, so
threads share the packed words in place.  Measured with 2 workers on a
2-vCPU host, the ``C(28, 4)`` sweep over 65,536 rows took 40 ms on
threads and 67 ms on a shared-memory process pool with the native
kernels (104 vs 139 ms with numpy).  Stream ingestion does not shard: a
micro-batch folds into its summary at numpy speed in one call
(:mod:`repro.streaming.pipeline`).

**Kernel implementation tiers** -- *what runs inside* each shard follows
from the host (:func:`~repro.db.packed.resolve_kernel`):

* ``"native"`` -- cffi-compiled C (``_kernels.c``): single fused
  AND + ``POPCNT`` passes with no intermediate mask matrices, prefix
  hoisting in the combination sweep, word-at-a-time early-exit row
  containment.  Compiled at install time (``REPRO_BUILD_NATIVE=1 pip
  install .[native]``) or on first use into a per-source-hash cache.
  Used whenever the compiled module loads, so installing the
  ``[native]`` extra is the whole opt-in.
* ``"numpy"`` -- the vectorized numpy kernels above, the bit-for-bit
  reference.  Used when there is no cffi or no C compiler, never as an
  error.

Both tiers are bit-identical for every worker count, enforced by the
numpy-vs-native differential suite in ``tests/test_native_kernels.py``.

Wire format
-----------
Sketch payloads are real bit strings.  :class:`~repro.db.serialize.BitWriter`
and :class:`~repro.db.serialize.BitReader` are the payload primitives --
packed (a ``bytearray`` plus a bit count on write, the payload bytes plus
a bit position on read; byte-aligned fields whose width is a multiple of
8 move as big-endian bytes in one step, any other field packs or unpacks
only the bytes it spans) and strict on read (byte length must match the
declared bit count exactly; trailing padding must be zero).
:mod:`repro.wire` frames payloads for transport.  Single frames are
written as v2 and multi-frame containers as v3; v1 frames and chunked
v2 frames are decode-only::

    v1: magic "IFSK" | 1 | codec id | params | extras JSON | n_bits | payload | crc32
    v2: magic "IFSK" | 2 | codec id | flags | varint params | varint fields
        | n_bits | payload (varint length, or u32 chunks) | crc32

Wire v2 adds zlib payload compression; ``load_from`` reads a file
object in bounded windows, assembles the payload once and checks its
byte total and CRC before any field is decoded.  The *charged* size is
invariant -- ``n_bits`` is always the uncompressed payload length.

* **Payload vs header** -- the payload carries exactly the bits the
  summary's ``size_in_bits`` accounting charges (the registry contract is
  ``size_in_bits() == n_bits``, asserted by the round-trip suite); the
  header carries public parameters only, mirroring this package's
  convention that a matrix's shape is metadata, not payload.
* **Codecs** -- one registered codec per sketcher name (``release-db``,
  ``release-answers``, ``subsample``, ``importance-sample``) and per
  streaming summary (``count-min``, ``misra-gries``, ``space-saving``,
  ``lossy-counting``, ``sticky-sampling``, ``reservoir``,
  ``row-reservoir``, ``itemset-miner``).  ``dump``/``load`` dispatch by
  concrete type, so Theorem 12's best-of-naive selector round-trips
  through whichever codec matches the sketch it built.
* **Process separation** -- the ``repro sketch`` / ``repro query`` CLI
  commands run ``S`` and ``Q`` as separate processes over a sketch file;
  :func:`repro.streaming.merge.merge_payloads` merges serialized remote
  shards (distributed ingest), consuming byte strings or an iterable of
  open shard files; ``repro merge`` and ``repro inspect`` expose the
  coordinator and the header-only frame introspection on the CLI.
* **Strict decoding** -- bad magic, unknown codec or version, truncated
  or oversized buffers, CRC mismatches, misdeclared bit counts, and
  nonzero padding all raise :class:`~repro.errors.WireFormatError`.
"""

from .database import BinaryDatabase
from .generators import (
    correlated_database,
    market_basket_database,
    planted_database,
    random_database,
    random_itemset,
    zipf_item_stream,
    zipf_weights,
)
from .itemset import Itemset, all_itemsets, rank_itemset, unrank_itemset
from .packed import (
    PackedColumns,
    PackedRows,
    pack_columns,
    pack_rows,
    popcount_words,
    resolve_kernel,
    unpack_rows,
)
from .queries import (
    FrequencyOracle,
    all_frequencies,
    frequencies_from_marginal,
    frequent_itemsets_exact,
    marginal_from_frequencies,
    marginal_table,
)
from .serialize import BitReader, BitWriter, frequency_bits
from .transactions import (
    database_to_transactions,
    read_transactions,
    transactions_to_database,
    write_transactions,
)

__all__ = [
    "BinaryDatabase",
    "Itemset",
    "all_itemsets",
    "rank_itemset",
    "unrank_itemset",
    "PackedColumns",
    "PackedRows",
    "resolve_kernel",
    "pack_columns",
    "pack_rows",
    "unpack_rows",
    "popcount_words",
    "FrequencyOracle",
    "all_frequencies",
    "frequent_itemsets_exact",
    "marginal_table",
    "marginal_from_frequencies",
    "frequencies_from_marginal",
    "random_database",
    "random_itemset",
    "planted_database",
    "market_basket_database",
    "correlated_database",
    "zipf_item_stream",
    "zipf_weights",
    "BitWriter",
    "BitReader",
    "frequency_bits",
    "transactions_to_database",
    "database_to_transactions",
    "read_transactions",
    "write_transactions",
]
