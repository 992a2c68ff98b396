"""Misra-Gries: the deterministic k-counter heavy-hitters summary.

Keeps at most ``k`` (item, count) pairs; a new item either increments its
counter, claims a free slot, or decrements *all* counters.  The classic
guarantee: every estimate undercounts by at most ``m / (k + 1)`` for a
stream of length ``m``, so ``k = 1/eps`` solves the eps-heavy-hitters
problem -- the "much simpler approximate frequent items problem" whose
lower bounds the paper contrasts with its own (Section 1.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import StreamError
from .base import COUNT_BITS, StreamSummary, item_id_bits

__all__ = ["MisraGries"]


class MisraGries(StreamSummary):
    """The Misra-Gries summary with ``k`` counters.

    Parameters
    ----------
    universe:
        Item-id universe size.
    k:
        Number of counters; guarantees undercount <= ``m / (k+1)``.
    """

    def __init__(self, universe: int, k: int) -> None:
        super().__init__(universe)
        if k < 1:
            raise StreamError(f"k must be >= 1, got {k}")
        self.k = k
        self._counters: dict[int, int] = {}

    def _update(self, item: int) -> None:
        counters = self._counters
        if item in counters:
            counters[item] += 1
        elif len(counters) < self.k:
            counters[item] = 1
        else:
            for key in list(counters):
                counters[key] -= 1
                if counters[key] == 0:
                    del counters[key]

    def _update_many(self, items: np.ndarray) -> None:
        """Bulk path: summarize the batch exactly, then merge it in.

        The batch's exact histogram is cut to ``k`` counters by
        subtracting its (k+1)-th largest count (which is at most
        ``len(items) / (k + 1)``) and folded in with
        :func:`~repro.streaming.merge.merge_misra_gries`, so the
        ``m / (k + 1)`` undercount bound holds over the whole stream.
        """
        from .merge import merge_misra_gries

        values, counts = np.unique(items, return_counts=True)
        if values.size > self.k:
            cutoff = np.partition(counts, values.size - self.k - 1)[
                values.size - self.k - 1
            ]
            keep = counts > cutoff
            values, counts = values[keep], counts[keep] - cutoff
        batch = MisraGries(self.universe, self.k)
        batch.stream_length = int(items.size)
        batch._counters = dict(zip(values.tolist(), counts.tolist()))
        merged = merge_misra_gries(self, batch)
        self._counters, self.stream_length = merged._counters, merged.stream_length

    def estimate_count(self, item: int) -> float:
        """Stored counter (0 if untracked); undercounts by <= m/(k+1)."""
        return float(self._counters.get(item, 0))

    def max_undercount(self) -> float:
        """The guarantee: estimates are low by at most ``m / (k + 1)``."""
        return self.stream_length / (self.k + 1)

    def size_in_bits(self) -> int:
        """``k`` slots of (id, count) under the standard cost model."""
        return self.k * (item_id_bits(self.universe) + COUNT_BITS)

    def heavy_hitters(self, threshold: float) -> dict[int, float]:
        """Candidates whose count clears ``(threshold - 1/(k+1)) * m``.

        The deficit compensation is the standard query rule: estimates
        undercount by up to ``m/(k+1)``, so cutting at the compensated
        threshold guarantees no item with true frequency above
        ``threshold`` is missed (choose ``k >= 1/threshold`` for a
        meaningful report).
        """
        if not 0.0 < threshold <= 1.0:
            raise StreamError(f"threshold must lie in (0, 1], got {threshold}")
        if self.stream_length == 0:
            return {}
        cut = (threshold - 1.0 / (self.k + 1)) * self.stream_length
        return {
            item: count / self.stream_length
            for item, count in self._counters.items()
            if count >= cut
        }
