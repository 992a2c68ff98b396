"""The Apriori algorithm (Agrawal-Imielinski-Swami lineage, Section 1.1.1).

Level-wise frequent itemset mining: frequent 1-itemsets seed the search;
level ``k+1`` candidates are joins of frequent k-itemsets sharing a
``(k-1)``-prefix, pruned by the downward-closure property (every subset of
a frequent itemset is frequent).  Runs against any
:class:`~repro.mining.base.FrequencySource`, so the same code mines exact
databases and sketches -- the E-MINE experiment compares the two.
"""

from __future__ import annotations

from itertools import combinations

from ..db.itemset import Itemset
from ..errors import ParameterError
from .base import FrequencySource, as_source, batch_frequencies

__all__ = ["apriori"]


def _join_level(frequent: list[Itemset]) -> set[Itemset]:
    """Candidate (k+1)-itemsets: prefix joins of frequent k-itemsets."""
    candidates: set[Itemset] = set()
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for itemset in frequent:
        prefix, last = itemset.items[:-1], itemset.items[-1]
        by_prefix.setdefault(prefix, []).append(last)
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for a, b in combinations(lasts, 2):
            candidates.add(Itemset(prefix + (a, b)))
    return candidates


def _downward_closed(candidate: Itemset, frequent_prev: set[Itemset]) -> bool:
    """Apriori pruning: all k-subsets of the candidate must be frequent."""
    return all(
        Itemset(sub) in frequent_prev
        for sub in combinations(candidate.items, len(candidate) - 1)
    )


def apriori(
    source: FrequencySource,
    min_frequency: float,
    max_size: int | None = None,
    workers: int | None = None,
) -> dict[Itemset, float]:
    """All itemsets with frequency >= ``min_frequency`` (up to ``max_size``).

    Parameters
    ----------
    source:
        A database, sketch, or any frequency source
        (coerced via :func:`~repro.mining.base.as_source`).
    min_frequency:
        Support threshold in ``(0, 1]``.
    max_size:
        Optional cap on itemset cardinality (``None`` = no cap).
    workers:
        Shards each level's batched frequency sweep (``None`` = auto
        heuristic).

    Returns
    -------
    Mapping from each frequent itemset to its (reported) frequency.
    """
    if not 0.0 < min_frequency <= 1.0:
        raise ParameterError(f"min_frequency must lie in (0, 1], got {min_frequency}")
    src = as_source(source)
    if max_size is None:
        max_size = src.d
    result: dict[Itemset, float] = {}
    level = []
    # Each level is counted in one batched call: a single vectorized kernel
    # sweep on databases, a per-itemset loop on sketches.
    singletons = [Itemset([j]) for j in range(src.d)]
    for itemset, freq in zip(
        singletons, batch_frequencies(src, singletons, workers=workers)
    ):
        if freq >= min_frequency:
            result[itemset] = float(freq)
            level.append(itemset)
    size = 1
    while level and size < max_size:
        prev_set = set(level)
        candidates = [
            c for c in sorted(_join_level(level)) if _downward_closed(c, prev_set)
        ]
        next_level = []
        for candidate, freq in zip(
            candidates,
            batch_frequencies(src, candidates, workers=workers),
        ):
            if freq >= min_frequency:
                result[candidate] = float(freq)
                next_level.append(candidate)
        level = next_level
        size += 1
    return result
