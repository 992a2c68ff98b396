"""Common interface for streaming frequency summaries.

Section 1.2 situates the paper against the streaming frequent-items
literature (Manku-Motwani and the heavy-hitters line).  Every summary here
processes a stream of items one at a time, answers count/frequency
estimates, and reports an exact bit-size via the same accounting rules the
sketches use -- so the E-STRM benchmark can put them on one axis against
uniform sampling.

Bulk ingestion: :meth:`StreamSummary.update_many` consumes a whole item
array at once through the subclass's ``_update_many`` (the default is the
itemwise loop).  Two contracts, one per kind of summary:

* Count-Min and Lossy Counting leave *bit-identical* state to the
  equivalent sequence of itemwise updates, so batch boundaries are not
  observable.
* Misra-Gries, Space-Saving and the item reservoir fold each call once:
  the two counter summaries summarize the batch exactly and fold it in
  with their merge rule (:mod:`repro.streaming.merge`), and the reservoir
  draws all of the batch's Algorithm R positions in one vectorized call.
  Each keeps its summary's guarantee over the whole stream, but the
  state depends on where the batches split.

Itemwise :meth:`~StreamSummary.update` is the classic algorithm for every
summary.  ``extend`` routes through ``update_many``, so E-STRM runs never
pay one Python call per element.

Size accounting convention: a counter or stored item costs
``ceil(log2(universe))`` bits for the id plus 64 bits for the count, the
standard cost model in the streaming literature.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from ..errors import StreamError

__all__ = ["StreamSummary", "COUNT_BITS", "EXTEND_CHUNK_ITEMS", "item_id_bits"]

#: Bits charged per stored counter value.
COUNT_BITS = 64

#: Items pulled from a lazy iterable per :meth:`StreamSummary.extend` chunk.
EXTEND_CHUNK_ITEMS = 1 << 16


def item_id_bits(universe: int) -> int:
    """Bits to store one item identifier from a universe of ``universe`` ids."""
    if universe < 1:
        raise StreamError(f"universe must be >= 1, got {universe}")
    return max(1, math.ceil(math.log2(max(universe, 2))))


class StreamSummary(ABC):
    """A one-pass summary of an item stream.

    Parameters
    ----------
    universe:
        Number of distinct possible items (ids are ``0..universe-1``).
    """

    #: True when ``_update`` consumes no randomness, so replaying the
    #: same item batch on a bit-identical summary reproduces a
    #: bit-identical result.  Sampling summaries (reservoirs, sticky
    #: sampling) override this to False; the durability layer then
    #: journals their post-batch *state* instead of the item batch,
    #: because the wire codecs do not carry rng state and an item-level
    #: replay could not reproduce the live draw sequence.
    deterministic_updates: bool = True

    def __init__(self, universe: int) -> None:
        if universe < 1:
            raise StreamError(f"universe must be >= 1, got {universe}")
        self.universe = universe
        self.stream_length = 0

    def update(self, item: int) -> None:
        """Process one stream item."""
        if not 0 <= item < self.universe:
            raise StreamError(
                f"item {item} outside universe [0, {self.universe})"
            )
        self.stream_length += 1
        self._update(item)

    def extend(self, items: Iterable[int]) -> None:
        """Process a batch of items in order (bulk path).

        Array-like inputs go straight to :meth:`update_many`; lazy
        iterables are consumed in :data:`EXTEND_CHUNK_ITEMS`-sized chunks,
        so an unbounded generator never materializes in memory.  Each
        chunk is one ``update_many`` call: for the summaries that fold a
        batch at a time (Misra-Gries, Space-Saving, the reservoir) the
        state is that of ``update_many`` over the same chunks; for
        Count-Min and Lossy Counting it equals one-shot ingestion.
        """
        if isinstance(items, (np.ndarray, Sequence)):
            arr = np.asarray(items)
            if arr.size:  # np.asarray([]) defaults to float64; empty is a no-op
                self.update_many(arr)
            return
        it = iter(items)
        while True:
            chunk = np.fromiter(
                itertools.islice(it, EXTEND_CHUNK_ITEMS), dtype=np.int64
            )
            if chunk.size:
                self.update_many(chunk)
            if chunk.size < EXTEND_CHUNK_ITEMS:
                return

    def update_many(self, items: Sequence[int] | np.ndarray) -> None:
        """Process a whole batch of items in order.

        Validates the batch up front (all-or-nothing: a batch containing an
        out-of-universe id is rejected before any item is applied), then
        hands it to the summary's ``_update_many`` fast path.  Count-Min
        and Lossy Counting end bit-identical to calling :meth:`update` per
        item; Misra-Gries, Space-Saving and the reservoir fold the batch
        once (see the module docstring) and keep their guarantees.
        """
        arr = np.asarray(items)
        if arr.ndim > 1:
            raise StreamError(f"update_many expects a 1-D batch, got shape {arr.shape}")
        if arr.dtype.kind not in "iub":
            raise StreamError(f"update_many expects integer items, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False).reshape(-1)
        if arr.size == 0:
            return
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= self.universe:
            bad = lo if lo < 0 else hi
            raise StreamError(f"item {bad} outside universe [0, {self.universe})")
        self._update_many(arr)

    def _update_many(self, items: np.ndarray) -> None:
        """Batch processing of validated items; override for a fast path.

        Implementations own the ``stream_length`` bookkeeping (some
        summaries' transition rules read it mid-batch).
        """
        for item in items.tolist():
            self.stream_length += 1
            self._update(item)

    @abstractmethod
    def _update(self, item: int) -> None:
        """Summary-specific processing of one (validated) item."""

    @abstractmethod
    def estimate_count(self, item: int) -> float:
        """Estimated number of occurrences of ``item`` so far."""

    def estimate_frequency(self, item: int) -> float:
        """Estimated relative frequency (count / stream length)."""
        if self.stream_length == 0:
            return 0.0
        return self.estimate_count(item) / self.stream_length

    @abstractmethod
    def size_in_bits(self) -> int:
        """Exact size of the summary's state under the cost model.

        Equal, for every summary with a registered wire codec, to the bit
        length of the payload :meth:`to_bytes` frames.
        """

    def to_bytes(self, *, compress: bool = False) -> bytes:
        """Serialize to the framed wire format (:mod:`repro.wire`).

        This is the distributed-ingest transport: summaries built where
        the data lives are dumped, shipped, reconstructed with
        :meth:`from_bytes`, and merged via :mod:`repro.streaming.merge`.
        ``compress`` stores a zlib payload; the charged bit count is
        unchanged by compression.
        """
        from ..wire import dump

        return dump(self, compress=compress)

    @staticmethod
    def from_bytes(buf: bytes) -> "StreamSummary":
        """Reconstruct a summary serialized by :meth:`to_bytes`.

        Raises
        ------
        repro.errors.WireFormatError
            If the frame is malformed, corrupted, or not a streaming
            summary.
        """
        from ..wire import load_as

        return load_as(StreamSummary, buf)

    def heavy_hitters(self, threshold: float) -> dict[int, float]:
        """Items with estimated frequency above ``threshold``.

        Default implementation scans the universe; summaries that track
        explicit candidate sets override this with their candidate scan.
        """
        if not 0.0 < threshold <= 1.0:
            raise StreamError(f"threshold must lie in (0, 1], got {threshold}")
        return {
            item: freq
            for item in range(self.universe)
            if (freq := self.estimate_frequency(item)) > threshold
        }
