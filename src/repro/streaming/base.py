"""Common interface for streaming frequency summaries.

Section 1.2 situates the paper against the streaming frequent-items
literature (Manku-Motwani and the heavy-hitters line).  Every summary here
processes a stream of items one at a time, answers count/frequency
estimates, and reports an exact bit-size via the same accounting rules the
sketches use -- so the E-STRM benchmark can put them on one axis against
uniform sampling.

Bulk ingestion: :meth:`StreamSummary.update_many` consumes a whole item
array at once.  Subclasses override ``_update_many`` with a vectorized fast
path that is required to leave the summary in *bit-identical* state to the
equivalent sequence of itemwise updates (the property tests enforce this);
the default falls back to the itemwise loop.  ``extend`` routes through
``update_many``, so E-STRM runs never pay one Python call per element.

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


def drain_counter_batch(
    summary: "StreamSummary", counts: dict[int, int], k: int, items: np.ndarray
) -> None:
    """Shared bulk path for k-counter summaries (Misra-Gries, SpaceSaving).

    Both summaries mutate their tracked-key set only when an *untracked*
    item arrives at a full table (Misra-Gries decrements everything,
    SpaceSaving evicts the minimum); increments of tracked items commute.
    So: flag tracked items against the current key set in one
    :func:`numpy.isin` sweep, fold each maximal tracked run with one
    :func:`numpy.unique` aggregation, and replay only the mutating events
    itemwise -- rebuilding the flags after each one, since evictions
    invalidate them.  Rebuilds are capped; pathological all-miss batches
    degrade to the plain itemwise loop rather than quadratic rescans.

    State after this call is bit-identical to itemwise updates: run folds
    apply exactly the increments the loop would, in a commuting region, and
    every order-sensitive event goes through the summary's own ``_update``.
    """
    total = int(items.size)
    pos = 0
    rebuilds = 0
    while pos < total:
        if not counts or rebuilds >= 64:
            for item in items[pos:].tolist():
                summary._update(item)
            return
        keys = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        tracked = np.isin(items[pos:], keys)
        rebuilds += 1
        misses = np.flatnonzero(~tracked)
        chunk_start = 0  # relative to pos
        for miss in misses.tolist():
            if miss > chunk_start:
                vals, reps = np.unique(
                    items[pos + chunk_start : pos + miss], return_counts=True
                )
                for v, c in zip(vals.tolist(), reps.tolist()):
                    counts[v] += c
            item = int(items[pos + miss])
            mutates = item not in counts and len(counts) >= k
            summary._update(item)
            chunk_start = miss + 1
            if mutates:
                # Keys were evicted; the tracked flags are stale.
                break
        else:
            if chunk_start < tracked.size:
                vals, reps = np.unique(items[pos + chunk_start :], return_counts=True)
                for v, c in zip(vals.tolist(), reps.tolist()):
                    counts[v] += c
            return
        pos += chunk_start


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
        so an unbounded generator never materializes in memory.  State is
        bit-identical to one-shot ingestion either way: ``update_many``
        batch boundaries are not observable (the property tests pin this).
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
        hands it to the summary's ``_update_many`` fast path.  The resulting
        state is bit-identical to calling :meth:`update` per item.
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
