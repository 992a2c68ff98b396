"""SpaceSaving (Metwally-Agrawal-El Abbadi): overcounting heavy hitters.

Keeps ``k`` counters; an untracked item evicts the *minimum* counter and
inherits its count plus one.  Estimates never undercount and overcount by
at most ``m / k``; the summary also stores each counter's maximum possible
overestimate so answers come with per-item error certificates.
"""

from __future__ import annotations

import numpy as np

from ..errors import StreamError
from .base import COUNT_BITS, StreamSummary, item_id_bits

__all__ = ["SpaceSaving"]


class SpaceSaving(StreamSummary):
    """The SpaceSaving summary with ``k`` counters.

    Parameters
    ----------
    universe:
        Item-id universe size.
    k:
        Number of counters; guarantees overcount <= ``m / k``.
    """

    def __init__(self, universe: int, k: int) -> None:
        super().__init__(universe)
        if k < 1:
            raise StreamError(f"k must be >= 1, got {k}")
        self.k = k
        self._counts: dict[int, int] = {}
        self._errors: dict[int, int] = {}

    def _update(self, item: int) -> None:
        counts = self._counts
        if item in counts:
            counts[item] += 1
            return
        if len(counts) < self.k:
            counts[item] = 1
            self._errors[item] = 0
            return
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[item] = floor + 1
        self._errors[item] = floor

    def _update_many(self, items: np.ndarray) -> None:
        """Bulk path: summarize the batch exactly, then merge it in.

        The batch's ``k`` largest exact counts (ties broken by item id,
        errors 0) form a Space-Saving summary of the batch -- every
        dropped item counts at most its smallest kept counter -- folded
        in with :func:`~repro.streaming.merge.merge_space_saving`, so
        estimates never undercount and the ``m / k`` overcount bound
        holds over the whole stream.
        """
        from .merge import merge_space_saving

        values, counts = np.unique(items, return_counts=True)
        if values.size > self.k:
            # np.unique sorts by id, so the stable sort breaks ties by id.
            top = np.argsort(-counts, kind="stable")[: self.k]
            values, counts = values[top], counts[top]
        batch = SpaceSaving(self.universe, self.k)
        batch.stream_length = int(items.size)
        batch._counts = dict(zip(values.tolist(), counts.tolist()))
        batch._errors = dict.fromkeys(batch._counts, 0)
        merged = merge_space_saving(self, batch)
        self._counts, self._errors = merged._counts, merged._errors
        self.stream_length = merged.stream_length

    def estimate_count(self, item: int) -> float:
        """Stored count (never an undercount; overcounts <= m/k)."""
        return float(self._counts.get(item, 0))

    def guaranteed_error(self, item: int) -> float:
        """Certified maximum overcount for a tracked item (0 if untracked)."""
        return float(self._errors.get(item, 0))

    def max_overcount(self) -> float:
        """The guarantee: estimates are high by at most ``m / k``."""
        return self.stream_length / self.k

    def size_in_bits(self) -> int:
        """``k`` slots of (id, count, error) under the cost model."""
        return self.k * (item_id_bits(self.universe) + 2 * COUNT_BITS)

    def heavy_hitters(self, threshold: float) -> dict[int, float]:
        """Scan only the tracked candidates."""
        if not 0.0 < threshold <= 1.0:
            raise StreamError(f"threshold must lie in (0, 1], got {threshold}")
        if self.stream_length == 0:
            return {}
        return {
            item: count / self.stream_length
            for item, count in self._counts.items()
            if count / self.stream_length > threshold
        }
