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

**Sharding and executor backends** -- the batched evaluators of both
kernels take ``workers=`` (shard count; ``None`` auto-resolves, clamped to
``os.cpu_count()``, ``REPRO_WORKERS`` overrides) and ``backend=`` (where
the shards run; ``REPRO_EVAL_BACKEND`` overrides).  Three executors are
registered in :mod:`repro.db.backends`:

* ``"serial"`` -- one inline kernel call.  The baseline every other
  backend must match bit-for-bit; also what every backend degenerates to
  when the resolved worker count is 1.
* ``"thread"`` -- shared-memory threads.  Zero setup cost; scales
  wherever numpy releases the GIL (the hot AND / popcount ops).  The
  right choice for mid-sized sweeps and the default escalation step.
* ``"process"`` -- a persistent worker-process pool over named
  :mod:`multiprocessing.shared_memory` blocks.  The packed word arrays
  are published once per sweep; workers reattach by ``(shm_name, shape,
  dtype)`` and write a shared output block, so no row data or results are
  ever pickled.  Pays ~milliseconds of publication overhead, so it is
  for the largest sweeps -- full ``C(d, k)`` enumerations at big ``n`` --
  where Python-level orchestration, not numpy, bounds thread scaling.

``backend=None`` escalates serial -> thread -> process automatically by
estimated word-op volume (process above
:data:`~repro.db.backends.PROCESS_MIN_WORDS` word ops, where ``fork`` is
available).  Results are bit-identical for every worker count and every
executor -- shards are contiguous slices of one preallocated output
running the same kernel code -- which the differential suites in
``tests/test_parallel_eval.py`` enforce.  Pick explicitly when profiling:
``backend="thread"`` to avoid process startup in short-lived scripts,
``backend="process"`` to force multi-core throughput for repeated large
sweeps (the pool and its workers are reused across calls).

**Kernel implementation tiers** -- orthogonal to *where* shards run is
*what runs inside* each shard.  The same evaluators take ``kernel=``
(``REPRO_EVAL_KERNEL`` overrides; ``repro ... --kernel`` on the CLI),
selecting from a two-entry registry in :mod:`repro.db.packed`:

* ``"numpy"`` -- the vectorized numpy kernels above.  Always available;
  the bit-for-bit reference implementation.
* ``"native"`` -- cffi-compiled C (``_kernels.c``): single fused
  AND + ``POPCNT`` passes with no intermediate mask matrices, prefix
  hoisting in the combination sweep, word-at-a-time early-exit row
  containment.  Compiled at install time (``REPRO_BUILD_NATIVE=1 pip
  install .[native]``) or on first use into a per-source-hash cache;
  no cffi or no compiler degrades to ``"numpy"`` -- silently under
  ``auto``, with a one-time :class:`RuntimeWarning` when requested
  explicitly, never an error.  The C calls release the GIL, so the
  ``thread`` backend scales on this tier even where numpy would
  serialize.

The full matrix is 2 kernel tiers x 3 backends (x any worker count),
every cell bit-identical -- enforced by the numpy-vs-native
differential suite in ``tests/test_native_kernels.py``.  ``kernel=None``
(auto) uses native whenever the compiled module loads, so installing
the ``[native]`` extra is the whole opt-in.

Wire format
-----------
Sketch payloads are real bit strings.  :class:`~repro.db.serialize.BitWriter`
and :class:`~repro.db.serialize.BitReader` are the payload primitives --
vectorized (whole-chunk numpy appends, one :func:`numpy.packbits` pass,
batched fixed-width integer fields) and strict on read (byte length must
match the declared bit count exactly; trailing padding must be zero).
:mod:`repro.wire` frames payloads for transport.  Single frames are
written as v2 and multi-frame containers as v3; v1 frames and chunked
v2 frames are decode-only::

    v1: magic "IFSK" | 1 | codec id | params | extras JSON | n_bits | payload | crc32
    v2: magic "IFSK" | 2 | codec id | flags | varint params | varint fields
        | n_bits | payload (varint length, or u32 chunks) | crc32

Wire v2 adds zlib payload compression; ``load_from`` decodes a file
object windowed, backed by
:meth:`~repro.db.serialize.BitReader.windowed`.  The *charged* size is
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

from .backends import (
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    ThreadBackend,
    available_backends,
    get_backend,
)
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
    available_kernels,
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
    "ShardBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "available_backends",
    "get_backend",
    "available_kernels",
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
