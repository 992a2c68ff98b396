"""RELEASE-DB (Definition 6): the identity sketch.

``S`` is the identity function and ``Q`` is a standard database query.  The
summary size is exactly ``n * d`` bits, and every answer is exact, so the
sketch is trivially valid for all four tasks.  It is the minimum-size naive
algorithm whenever ``n <= 1/epsilon`` (the regime where Theorem 13 is tight).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..db.database import BinaryDatabase
from ..db.itemset import Itemset
from ..params import SketchParams
from .base import INDICATOR_THRESHOLD_FACTOR, FrequencySketch, Sketcher, Task

__all__ = ["ReleaseDbSketch", "ReleaseDbSketcher"]


class ReleaseDbSketch(FrequencySketch):
    """The database itself, answering queries exactly.

    Queries run on the database's shared packed kernels: single estimates
    through the column-major kernel, batches (the reconstruction attacks'
    query loops) through one vectorized sweep, and row-membership questions
    through the row-major kernel via :meth:`support_mask`.
    """

    def __init__(self, params: SketchParams, db: BinaryDatabase) -> None:
        super().__init__(params)
        self._db = db

    @property
    def database(self) -> BinaryDatabase:
        """The verbatim database stored in the summary."""
        return self._db

    def estimate(self, itemset: Itemset) -> float:
        """Exact frequency ``f_T(D)``."""
        return self._db.frequency(itemset)

    def estimate_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Exact frequencies for a whole query set (one kernel sweep).

        ``workers`` shards the sweep.
        """
        return self._db.frequencies(itemsets, workers=workers)

    def indicate_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Thresholded exact frequencies, one (sharded) kernel sweep.

        Same answers as the base per-itemset loop -- ``indicate`` is
        exactly this threshold on ``estimate`` -- but batched, so
        ``workers`` actually shards indicator validation too.
        """
        threshold = INDICATOR_THRESHOLD_FACTOR * self._params.epsilon
        return self.estimate_batch(itemsets, workers=workers) >= threshold

    def support_mask(self, itemset: Itemset) -> np.ndarray:
        """Which stored rows contain ``itemset`` (row-major kernel)."""
        return self._db.support_mask(itemset)

    def size_in_bits(self) -> int:
        """``n * d`` bits: the packed database."""
        return self._db.size_in_bits()


class ReleaseDbSketcher(Sketcher):
    """Definition 6's RELEASE-DB algorithm (task-independent)."""

    name = "release-db"

    def sketch(
        self,
        db: BinaryDatabase,
        params: SketchParams,
        rng: np.random.Generator | int | None = None,
    ) -> ReleaseDbSketch:
        """Return the database verbatim (deterministic; ``rng`` unused)."""
        return ReleaseDbSketch(params, db)

    def theoretical_size_bits(self, params: SketchParams) -> int:
        """``n * d``."""
        return params.database_bits
