"""Batch frequency queries and marginal contingency tables.

Two query surfaces sit on top of :class:`~repro.db.database.BinaryDatabase`:

* :class:`FrequencyOracle` -- evaluates many itemset frequency queries
  through the packed-bitset kernel of :mod:`repro.db.packed`: one uint64
  AND-reduce plus popcount per query, batched over whole query sets, with a
  prefix-sharing DFS for full ``C(d, k)`` enumerations (RELEASE-ANSWERS'
  precomputation, the miners' ground truth).
* :func:`marginal_table` -- the ``2^k``-entry marginal contingency table of
  Section 1.1.2: one count per setting of the k attributes.  The paper notes
  marginal tables are "essentially just a list of itemset frequencies"; we
  realise both directions of that equivalence via vectorized zeta/Moebius
  (subset-sum) transforms over the ``2^k`` table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ParameterError
from .database import BinaryDatabase
from .itemset import Itemset, lex_itemsets
from .packed import PackedColumns

__all__ = [
    "FrequencyOracle",
    "marginal_table",
    "marginal_from_frequencies",
    "frequencies_from_marginal",
    "all_frequencies",
    "frequent_itemsets_exact",
]


class FrequencyOracle:
    """Fast repeated itemset frequency evaluation over a fixed database.

    Columns are packed into uint64 words once (one vectorized
    :func:`numpy.packbits` pass); each query intersects the packed columns
    and popcounts the result.  Batches go through
    :meth:`supports_batch` -- a single vectorized kernel call for the whole
    query set -- and full ``C(d, k)`` sweeps share ``(k-1)``-prefix
    intersections Eclat-style instead of intersecting from scratch per query.
    """

    def __init__(self, db: BinaryDatabase) -> None:
        self._db = db
        self._kernel = db.packed

    @property
    def database(self) -> BinaryDatabase:
        """The database this oracle answers for."""
        return self._db

    @property
    def kernel(self) -> PackedColumns:
        """The shared packed-bitset kernel (for miners and sketchers)."""
        return self._kernel

    def _check(self, itemset: Itemset) -> Itemset:
        if itemset.items and itemset.items[-1] >= self._db.d:
            raise ParameterError(
                f"itemset {itemset} out of range for d={self._db.d}"
            )
        return itemset

    def support(self, itemset: Itemset) -> int:
        """Number of rows containing ``itemset``."""
        return self._kernel.support(self._check(itemset).items)

    def frequency(self, itemset: Itemset) -> float:
        """``f_T(D)`` for a single itemset."""
        return self.support(itemset) / self._db.n

    def supports_batch(
        self,
        itemsets: Iterable[Itemset | Sequence[int]],
        workers: int | None = None,
    ) -> np.ndarray:
        """Support counts for a batch of itemsets in one vectorized sweep.

        ``workers`` shards the sweep over threads (``None`` applies the
        auto heuristic); results are identical for every worker count.
        """
        batch = [
            t.items if isinstance(t, Itemset) else tuple(t) for t in itemsets
        ]
        return self._kernel.supports_batch(batch, workers=workers)

    def frequencies(
        self, itemsets: Iterable[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Frequencies for a batch of itemsets (single kernel call)."""
        return self.supports_batch(itemsets, workers=workers) / self._db.n

    def all_supports(self, k: int, workers: int | None = None) -> np.ndarray:
        """Supports of all ``C(d, k)`` k-itemsets, indexed by colex rank.

        ``result[rank_itemset(T)]`` is the support of ``T``; computed with
        shared prefix intersections (one word-AND + popcount per itemset),
        optionally sharded via ``workers``.
        """
        return self._kernel.support_counts_all(k, workers=workers)

    def iter_supports(
        self, k: int, min_count: int = 0
    ) -> Iterable[tuple[tuple[int, ...], int]]:
        """Yield ``(items, support)`` over k-itemsets (lex order, pruned DFS)."""
        return self._kernel.iter_supports(k, min_count=min_count)


def all_frequencies(
    db: BinaryDatabase, k: int, workers: int | None = None
) -> dict[Itemset, float]:
    """Exact frequencies of *all* ``C(d, k)`` k-itemsets.

    This is RELEASE-ANSWERS' precomputation step (Definition 7), evaluated
    as one flat batched kernel sweep (a handful of vectorized AND + popcount
    calls for the whole ``C(d, k)`` space) zipped against the cached
    lexicographic itemset enumeration.  ``workers`` shards the sweep
    over threads (``None`` = auto; serial below the size threshold).
    """
    _, counts = db.packed.combination_supports(k, workers=workers)
    freqs = counts / db.n
    return dict(zip(lex_itemsets(db.d, k), freqs.tolist()))


def frequent_itemsets_exact(
    db: BinaryDatabase, k: int, epsilon: float
) -> list[Itemset]:
    """All k-itemsets with frequency strictly above ``epsilon``.

    Serves as ground truth for the indicator sketches and the miners.  The
    DFS prunes by monotonicity: a prefix at or below the threshold cannot
    have a qualifying extension.  Results are in lexicographic order.
    """
    oracle = FrequencyOracle(db)
    # Smallest integer count with count / n > epsilon.
    min_count = int(np.floor(epsilon * db.n + 1e-9)) + 1
    return [
        Itemset.from_sorted(items)
        for items, _ in oracle.iter_supports(k, min_count=min_count)
    ]


def marginal_table(db: BinaryDatabase, itemset: Itemset) -> np.ndarray:
    """The ``2^k`` marginal contingency table for the attributes in ``itemset``.

    Entry ``b`` (read as a k-bit number, most significant bit = first
    attribute of the sorted itemset) counts rows whose restriction to the
    itemset's attributes equals the bit pattern of ``b``.
    """
    k = len(itemset)
    if k == 0:
        return np.array([db.n], dtype=np.int64)
    cols = db.rows[:, list(itemset.items)]
    weights = 1 << np.arange(k - 1, -1, -1)
    cell = cols @ weights
    return np.bincount(cell, minlength=1 << k).astype(np.int64)


def _pattern_attrs(attrs: Sequence[int], pattern: int, k: int) -> Itemset:
    """The sub-itemset whose attributes sit on ``pattern``'s set bits."""
    return Itemset(attrs[i] for i in range(k) if (pattern >> (k - 1 - i)) & 1)


def _superset_zeta(table: np.ndarray, k: int) -> np.ndarray:
    """Superset-sum (zeta) transform: ``out[S] = sum_{P >= S} table[P]``.

    ``P >= S`` means ``P``'s bit pattern covers ``S``'s.  Vectorized over the
    ``2^k`` table: one in-place axis-fold per attribute instead of the naive
    ``O(4^k)`` double loop.
    """
    t = table.astype(float).reshape((2,) * k)
    for axis in range(k):
        lo = tuple(slice(None) if a != axis else 0 for a in range(k))
        hi = tuple(slice(None) if a != axis else 1 for a in range(k))
        t[lo] += t[hi]
    return t.reshape(-1)


def _superset_moebius(values: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_superset_zeta` (signed subset-sum / Moebius)."""
    t = values.astype(float).reshape((2,) * k)
    for axis in range(k):
        lo = tuple(slice(None) if a != axis else 0 for a in range(k))
        hi = tuple(slice(None) if a != axis else 1 for a in range(k))
        t[lo] -= t[hi]
    return t.reshape(-1)


def marginal_from_frequencies(
    itemset: Itemset, freq_of: dict[Itemset, float], n: int
) -> np.ndarray:
    """Reconstruct a marginal table from monotone-conjunction frequencies.

    Implements the inclusion-exclusion (Moebius) inversion noted in the
    paper's footnote 2 -- non-monotone conjunction counts are signed sums of
    monotone ones -- as one vectorized superset-Moebius transform over the
    ``2^k`` table.  ``freq_of`` must contain the frequency of every subset
    of ``itemset`` (including the empty itemset, frequency 1).
    """
    attrs = list(itemset.items)
    k = len(attrs)
    if k == 0:
        return np.array([freq_of[Itemset([])] * n], dtype=float)
    counts = np.empty(1 << k, dtype=float)
    for pattern in range(1 << k):
        counts[pattern] = freq_of[_pattern_attrs(attrs, pattern, k)] * n
    return _superset_moebius(counts, k)


def frequencies_from_marginal(
    itemset: Itemset, table: np.ndarray, n: int
) -> dict[Itemset, float]:
    """Frequencies of all subsets of ``itemset`` from its marginal table.

    The inverse direction of the equivalence -- the frequency of a
    sub-itemset is the sum of table cells whose pattern has 1s on that
    subset -- computed as one vectorized superset-zeta transform.
    """
    attrs = list(itemset.items)
    k = len(attrs)
    if len(table) != 1 << k:
        raise ParameterError(
            f"marginal table for {k} attributes needs {1 << k} entries, "
            f"got {len(table)}"
        )
    if k == 0:
        return {Itemset([]): float(table[0]) / n}
    sums = _superset_zeta(np.asarray(table, dtype=float), k)
    return {
        _pattern_attrs(attrs, pattern, k): sums[pattern] / n
        for pattern in range(1 << k)
    }
