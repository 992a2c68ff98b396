"""Frequency sources: the common substrate miners run on.

The paper's point (Section 1.1.2) is that data-mining algorithms can run on
a *sketch* instead of the database.  To make that literal, the miners in
this package accept anything satisfying :class:`FrequencySource` --
``d`` attributes plus a ``frequency(itemset)`` method -- and we provide
adapters for exact databases and for every sketch in :mod:`repro.core`.

Sources may additionally expose ``frequencies_batch(itemsets)``; miners
evaluate whole candidate levels through :func:`batch_frequencies`, which
uses that vectorized path when present (one packed-kernel call per level
for databases) and falls back to per-itemset calls otherwise.
"""

from __future__ import annotations

import inspect
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.base import FrequencySketch
from ..db.database import BinaryDatabase
from ..db.itemset import Itemset
from ..db.queries import FrequencyOracle

__all__ = [
    "FrequencySource",
    "DatabaseSource",
    "SketchSource",
    "as_source",
    "batch_frequencies",
]


@runtime_checkable
class FrequencySource(Protocol):
    """Anything that can report (approximate) itemset frequencies."""

    @property
    def d(self) -> int:
        """Number of attributes."""
        ...

    def frequency(self, itemset: Itemset) -> float:
        """(Approximate) frequency of ``itemset``."""
        ...


class DatabaseSource:
    """Exact frequencies from a database (via the packed-column oracle)."""

    def __init__(self, db: BinaryDatabase) -> None:
        self._oracle = FrequencyOracle(db)
        self._d = db.d

    @property
    def d(self) -> int:
        """Number of attributes."""
        return self._d

    def frequency(self, itemset: Itemset) -> float:
        """Exact ``f_T(D)``."""
        return self._oracle.frequency(itemset)

    def frequencies_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Exact frequencies for a whole batch in one kernel sweep.

        ``workers`` shards the sweep.
        """
        return self._oracle.frequencies(itemsets, workers=workers)


class SketchSource:
    """Approximate frequencies from any :class:`FrequencySketch`."""

    def __init__(self, sketch: FrequencySketch) -> None:
        self._sketch = sketch

    @property
    def d(self) -> int:
        """Number of attributes (from the sketch's parameters)."""
        return self._sketch.params.d

    def frequency(self, itemset: Itemset) -> float:
        """The sketch's estimate ``Q(S, T)``."""
        return self._sketch.estimate(itemset)

    def frequencies_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Batched estimates through the sketch's ``estimate_batch``.

        Sketches that query a stored database run one sharded kernel
        sweep; stored-answer sketches ignore ``workers`` (table lookups).
        """
        return self._sketch.estimate_batch(itemsets, workers=workers)


def as_source(obj: BinaryDatabase | FrequencySketch | FrequencySource) -> FrequencySource:
    """Coerce a database, sketch, or source into a :class:`FrequencySource`."""
    if isinstance(obj, BinaryDatabase):
        return DatabaseSource(obj)
    if isinstance(obj, FrequencySketch):
        return SketchSource(obj)
    return obj


def batch_frequencies(
    source: FrequencySource,
    itemsets: Iterable[Itemset],
    workers: int | None = None,
) -> np.ndarray:
    """Frequencies for many itemsets, batched when the source supports it.

    Uses the source's ``frequencies_batch`` (one vectorized kernel call)
    when available, otherwise one ``frequency`` call per itemset.  Both
    paths return identical values.  ``workers`` shards batched sweeps;
    sources whose batch path does not take it are called without it.
    """
    batch = list(itemsets)
    fast = getattr(source, "frequencies_batch", None)
    if fast is not None:
        if workers is not None and _accepts_kwarg(fast, "workers"):
            return np.asarray(fast(batch, workers=workers), dtype=float)
        return np.asarray(fast(batch), dtype=float)
    return np.array([source.frequency(t) for t in batch], dtype=float)


def _accepts_kwarg(fn, name: str) -> bool:
    """Whether a batch evaluator's signature takes the named kwarg.

    Inspected once per call site rather than probed with try/except, so a
    genuine ``TypeError`` raised *inside* the sweep propagates instead of
    silently re-running the whole kernel call.
    """
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
