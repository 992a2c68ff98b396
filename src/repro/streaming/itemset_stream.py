"""Streaming frequent *itemset* mining: lossy counting over subsets.

The natural extension of Manku-Motwani to itemsets (the object of the
survey [CKN08] cited in Section 1.2): each arriving transaction (database
row) charges every one of its subsets of size <= ``max_size``, maintained
under the lossy-counting eviction rule.  The per-itemset deficit guarantee
(``epsilon * m``) carries over verbatim, but the tracked-set blow-up is
combinatorial -- which is the phenomenon the paper's lower bounds say no
summary can fundamentally avoid (the E-STRM bench measures this against
the flat cost of reservoir row sampling).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ..db.database import BinaryDatabase
from ..db.itemset import Itemset
from ..db.packed import PackedRows
from ..errors import StreamError
from .base import COUNT_BITS

__all__ = ["StreamingItemsetMiner"]


class StreamingItemsetMiner:
    """Lossy counting over the subsets of each transaction.

    Parameters
    ----------
    d:
        Number of attributes.
    epsilon:
        Lossy-counting deficit parameter (undercount <= ``epsilon * m``).
    max_size:
        Largest itemset cardinality tracked.
    max_row_items:
        Guard: transactions with more than this many 1s only contribute
        subsets of their first ``max_row_items`` items (documented cap to
        keep ``C(row, k)`` enumeration bounded).
    """

    def __init__(
        self, d: int, epsilon: float, max_size: int, max_row_items: int = 20
    ) -> None:
        if d < 1:
            raise StreamError(f"d must be >= 1, got {d}")
        if not 0.0 < epsilon < 1.0:
            raise StreamError(f"epsilon must lie in (0, 1), got {epsilon}")
        if not 1 <= max_size <= d:
            raise StreamError(f"need 1 <= max_size <= d, got {max_size}")
        self.d = d
        self.epsilon = epsilon
        self.max_size = max_size
        self.max_row_items = max_row_items
        self.bucket_width = math.ceil(1.0 / epsilon)
        self.rows_seen = 0
        self._entries: dict[Itemset, tuple[int, int]] = {}

    @property
    def current_bucket(self) -> int:
        """Bucket id of the most recent transaction."""
        return max(1, math.ceil(self.rows_seen / self.bucket_width))

    def update(self, row: np.ndarray) -> None:
        """Process one transaction (boolean attribute vector)."""
        arr = np.asarray(row, dtype=bool).reshape(-1)
        if arr.size != self.d:
            raise StreamError(f"row must have {self.d} attributes, got {arr.size}")
        self.rows_seen += 1
        items = np.flatnonzero(arr)[: self.max_row_items]
        bucket = self.current_bucket
        self._charge(items.tolist(), bucket)
        if self.rows_seen % self.bucket_width == 0:
            self._evict(bucket)

    def _charge(self, items: list[int], bucket: int) -> None:
        """Charge every tracked-size subset of one transaction."""
        for size in range(1, min(self.max_size, len(items)) + 1):
            for combo in combinations(items, size):
                key = Itemset(combo)
                count, delta = self._entries.get(key, (0, bucket - 1))
                self._entries[key] = (count + 1, delta)

    def _evict(self, bucket: int) -> None:
        """Lossy-counting eviction at a bucket boundary."""
        self._entries = {
            k: (c, dl) for k, (c, dl) in self._entries.items() if c + dl > bucket
        }

    def update_many(self, rows: np.ndarray | PackedRows) -> None:
        """Bulk-ingest many transactions (bit-identical to repeated update).

        ``rows`` is an ``(m, d)`` boolean matrix or a
        :class:`~repro.db.packed.PackedRows` block.  Item indices for all
        rows come from one vectorized :func:`numpy.nonzero` pass, and rows
        are processed in bucket-aligned chunks: every row of a chunk shares
        one bucket id, and eviction runs exactly at bucket boundaries --
        the tracked-entry state after ingestion equals the row-at-a-time
        path's state.
        """
        if isinstance(rows, PackedRows):
            if rows.d != self.d:
                raise StreamError(
                    f"row must have {self.d} attributes, got {rows.d}"
                )
            arr = rows.to_matrix()
        else:
            arr = np.asarray(rows, dtype=bool)
            if arr.ndim != 2 or arr.shape[1] != self.d:
                raise StreamError(
                    f"rows must be (m, {self.d}), got shape {arr.shape}"
                )
        m = arr.shape[0]
        if m == 0:
            return
        row_ids, cols = np.nonzero(arr)
        boundaries = np.searchsorted(row_ids, np.arange(1, m))
        per_row = np.split(cols, boundaries)
        pos = 0
        while pos < m:
            # All rows up to the next bucket boundary share one bucket id.
            room = self.bucket_width - self.rows_seen % self.bucket_width
            take = min(room, m - pos)
            self.rows_seen += take
            bucket = self.current_bucket
            for r in range(pos, pos + take):
                self._charge(per_row[r][: self.max_row_items].tolist(), bucket)
            if self.rows_seen % self.bucket_width == 0:
                self._evict(bucket)
            pos += take

    def extend(self, db: BinaryDatabase) -> None:
        """Stream a whole database through the bulk :meth:`update_many` path.

        The boolean matrix feeds ``update_many`` directly -- the
        :class:`~repro.db.packed.PackedRows` input form is for streams that
        arrive already packed (reservoir-style transport), where unpacking
        once here beats unpacking per row.
        """
        self.update_many(db.rows)

    def estimate_frequency(self, itemset: Itemset) -> float:
        """Estimated frequency (undercounts by at most ``epsilon``)."""
        if self.rows_seen == 0:
            return 0.0
        return self._entries.get(itemset, (0, 0))[0] / self.rows_seen

    def frequent_itemsets(self, threshold: float) -> dict[Itemset, float]:
        """Itemsets with estimated count >= ``(threshold - epsilon) m``."""
        if not 0.0 < threshold <= 1.0:
            raise StreamError(f"threshold must lie in (0, 1], got {threshold}")
        if self.rows_seen == 0:
            return {}
        cut = (threshold - self.epsilon) * self.rows_seen
        return {
            itemset: count / self.rows_seen
            for itemset, (count, _) in self._entries.items()
            if count >= cut
        }

    def n_entries(self) -> int:
        """Number of itemsets currently tracked."""
        return len(self._entries)

    def size_in_bits(self) -> int:
        """Tracked entries: each costs an itemset id plus two counters.

        An itemset of size ``<= max_size`` is charged
        ``max_size * ceil(log2 d)`` id bits, the dominant term the E-STRM
        bench compares against row sampling's flat ``d`` bits per row.
        """
        id_bits = self.max_size * max(1, math.ceil(math.log2(max(self.d, 2))))
        return max(1, self.n_entries()) * (id_bits + 2 * COUNT_BITS)

    def to_bytes(self, *, compress: bool = False) -> bytes:
        """Serialize the tracked entries (:mod:`repro.wire` frame)."""
        from ..wire import dump

        return dump(self, compress=compress)

    @staticmethod
    def from_bytes(buf: bytes) -> "StreamingItemsetMiner":
        """Reconstruct a miner serialized by :meth:`to_bytes`."""
        from ..wire import load_as

        return load_as(StreamingItemsetMiner, buf)
