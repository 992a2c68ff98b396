"""Reservoir sampling: SUBSAMPLE as a one-pass streaming algorithm.

Vitter's Algorithm R maintains a uniform sample of ``size`` elements from a
stream of unknown length, which is exactly how the paper's SUBSAMPLE sketch
is realised in a streaming setting (Section 1.2's framing: none of the
streaming algorithms beat uniform row sampling -- this *is* the uniform
row sampler).

Two variants are provided: :class:`ReservoirSample` over item ids (for
E-STRM's heavy-hitter comparisons) and :class:`RowReservoir` over database
rows, which yields a genuine :class:`~repro.core.subsample.SubsampleSketch`
at the end of the pass.
"""

from __future__ import annotations

import numpy as np

from ..core.subsample import SubsampleSketch
from ..db.database import BinaryDatabase
from ..db.generators import as_rng
from ..db.packed import PackedRows, pack_rows
from ..errors import StreamError
from ..params import SketchParams
from .base import COUNT_BITS, StreamSummary, item_id_bits

__all__ = ["ReservoirSample", "RowReservoir"]


class ReservoirSample(StreamSummary):
    """Uniform sample of ``size`` item occurrences (Algorithm R).

    Parameters
    ----------
    universe:
        Item-id universe size.
    size:
        Reservoir capacity.
    rng:
        Sampling randomness.
    """

    #: Evictions draw from ``rng``, which the wire codec does not carry.
    deterministic_updates = False

    def __init__(
        self,
        universe: int,
        size: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(universe)
        if size < 1:
            raise StreamError(f"size must be >= 1, got {size}")
        self.size = size
        self._rng = as_rng(rng)
        self._reservoir: list[int] = []

    @property
    def sample(self) -> list[int]:
        """The current reservoir contents (uniform over the prefix)."""
        return list(self._reservoir)

    def _update(self, item: int) -> None:
        if len(self._reservoir) < self.size:
            self._reservoir.append(item)
            return
        j = int(self._rng.integers(0, self.stream_length))
        if j < self.size:
            self._reservoir[j] = item

    def _update_many(self, items: np.ndarray) -> None:
        """Bulk path: Algorithm R with one draw call per batch.

        The first items fill the free slots; the item at 1-based stream
        position ``t`` after that draws ``j`` uniform in ``[0, t)`` and
        replaces slot ``j`` when ``j < size``.  All of the batch's draws
        come from one ``integers(0, positions)`` call and the hits apply
        in stream order, so the sample has Algorithm R's distribution;
        only the draw sequence differs from the itemwise loop.
        """
        fill = min(self.size - len(self._reservoir), int(items.size))
        self._reservoir.extend(items[:fill].tolist())
        start = self.stream_length + fill
        self.stream_length += int(items.size)
        rest = items[fill:]
        if not rest.size:
            return
        slots = self._rng.integers(0, np.arange(start + 1, start + 1 + rest.size))
        hits = np.flatnonzero(slots < self.size)
        for slot, item in zip(slots[hits].tolist(), rest[hits].tolist()):
            self._reservoir[slot] = item

    def estimate_count(self, item: int) -> float:
        """Scale the in-sample count back to the stream length."""
        if not self._reservoir:
            return 0.0
        in_sample = sum(1 for x in self._reservoir if x == item)
        return in_sample * self.stream_length / len(self._reservoir)

    def size_in_bits(self) -> int:
        """Stored ids plus the stream-length counter."""
        return self.size * item_id_bits(self.universe) + COUNT_BITS


class RowReservoir:
    """Uniform reservoir over database *rows*: streaming SUBSAMPLE.

    Feed rows with :meth:`update`; :meth:`to_sketch` packages the reservoir
    as a standard :class:`~repro.core.subsample.SubsampleSketch` whose size
    accounting (``s * d`` bits) matches Lemma 9.

    Reservoir slots hold rows in the :class:`~repro.db.packed.PackedRows`
    word layout (``ceil(d / 64)`` uint64 words per row, an 8x memory
    reduction over boolean storage) -- the in-memory reservoir mirrors the
    ``d`` bits per row the sketch is charged for.  :meth:`extend` reads the
    database's shared packed-row kernel directly, so whole-database
    streaming never re-packs per row, and the eviction RNG sequence is
    identical to the row-at-a-time path.
    """

    def __init__(
        self, d: int, size: int, rng: np.random.Generator | int | None = None
    ) -> None:
        if d < 1:
            raise StreamError(f"d must be >= 1, got {d}")
        if size < 1:
            raise StreamError(f"size must be >= 1, got {size}")
        self.d = d
        self.size = size
        self._rng = as_rng(rng)
        self._words: list[np.ndarray] = []
        self.rows_seen = 0

    def _offer(self, row_words: np.ndarray) -> None:
        """Reservoir step for one packed row (Algorithm R)."""
        self.rows_seen += 1
        if len(self._words) < self.size:
            self._words.append(row_words.copy())
            return
        j = int(self._rng.integers(0, self.rows_seen))
        if j < self.size:
            self._words[j] = row_words.copy()

    def update(self, row: np.ndarray) -> None:
        """Offer one row (boolean attribute vector) to the reservoir."""
        arr = np.asarray(row, dtype=bool).reshape(-1)
        if arr.size != self.d:
            raise StreamError(f"row must have {self.d} attributes, got {arr.size}")
        self._offer(pack_rows(arr[None, :])[0])

    def extend(self, db: BinaryDatabase) -> None:
        """Stream every row of a database through the reservoir.

        Routes through ``db.packed_rows``: rows arrive already packed, and
        the kernel stays cached on the database for other consumers.
        """
        if db.d != self.d:
            raise StreamError(f"row must have {self.d} attributes, got {db.d}")
        words = db.packed_rows.words
        for i in range(db.n):
            self._offer(words[i])

    def size_in_bits(self) -> int:
        """``size * d + 64`` bits: capacity row slots plus the row counter.

        Charged at capacity (like :class:`ReservoirSample`'s id slots), so
        a shard's size does not leak how many rows it has absorbed.
        ``rows_seen`` is summary state, not a public parameter -- the
        merge rule weights shards by it -- so it is charged at
        :data:`~repro.streaming.base.COUNT_BITS` like every stream-length
        counter.
        """
        return self.size * self.d + COUNT_BITS

    def to_bytes(self, *, compress: bool = False) -> bytes:
        """Serialize the reservoir shard (:mod:`repro.wire` frame).

        The distributed SUBSAMPLE transport: dump a shard where the rows
        live, ship it, :meth:`from_bytes` it, and merge with
        :func:`repro.streaming.merge.merge_row_reservoirs`.
        """
        from ..wire import dump

        return dump(self, compress=compress)

    @staticmethod
    def from_bytes(buf: bytes) -> "RowReservoir":
        """Reconstruct a reservoir shard serialized by :meth:`to_bytes`."""
        from ..wire import load_as

        return load_as(RowReservoir, buf)

    def to_sketch(self, params: SketchParams) -> SubsampleSketch:
        """Package the reservoir as a SUBSAMPLE sketch.

        The sampled database adopts the reservoir's packed words as its
        row-major kernel directly (no re-pack).

        Raises
        ------
        StreamError
            If the reservoir is empty.
        """
        if not self._words:
            raise StreamError("reservoir is empty; stream rows first")
        words = np.array(self._words, dtype=np.uint64)
        sample = BinaryDatabase.from_packed_rows(PackedRows.from_words(words, self.d))
        return SubsampleSketch(params, sample)
