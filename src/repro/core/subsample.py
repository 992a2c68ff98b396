"""SUBSAMPLE (Definition 8): uniform row sampling with replacement.

The sketch is the sampled rows themselves (``s`` rows of ``d`` bits each);
``Q`` evaluates the query on the sample.  Lemma 9 fixes the sample counts
per task:

* For-Each indicator:  ``s = O(eps^-1 log(1/delta))``
* For-Each estimator:  ``s = O(eps^-2 log(1/delta))``
* For-All indicator:   ``s = O(eps^-1 log(C(d,k)/delta))``
* For-All estimator:   ``s = O(eps^-2 log(C(d,k)/delta))``

with explicit constants from the proof, implemented in
:mod:`repro.analysis.chernoff`.  The paper's main theorems show this
algorithm is essentially space-optimal; the benchmarks measure exactly the
sizes reported here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.chernoff import (
    forall_estimator_samples,
    forall_indicator_samples,
    foreach_estimator_samples,
    foreach_indicator_samples,
)
from ..db.database import BinaryDatabase
from ..db.itemset import Itemset
from ..errors import ParameterError
from ..params import SketchParams
from .base import INDICATOR_THRESHOLD_FACTOR, FrequencySketch, Sketcher, Task

__all__ = ["SubsampleSketch", "SubsampleSketcher", "sample_count_for"]


def sample_count_for(task: Task, params: SketchParams) -> int:
    """Lemma 9's sample count for the given task and parameters."""
    eps, delta = params.epsilon, params.delta
    if task is Task.FOREACH_INDICATOR:
        return foreach_indicator_samples(eps, delta)
    if task is Task.FOREACH_ESTIMATOR:
        return foreach_estimator_samples(eps, delta)
    if task is Task.FORALL_INDICATOR:
        return forall_indicator_samples(eps, delta, params.d, params.k)
    if task is Task.FORALL_ESTIMATOR:
        return forall_estimator_samples(eps, delta, params.d, params.k)
    raise ParameterError(f"unknown task {task}")


class SubsampleSketch(FrequencySketch):
    """A database of sampled rows; ``Q`` queries the sample.

    Queries run on the sample's shared packed kernels: single estimates on
    the column-major kernel, batches as one vectorized sweep, and
    row-membership diagnostics (which *samples* contain ``T``) on the
    row-major kernel -- the latter is gathered from the parent database's
    packed rows at sketch time when available, with no re-packing.
    """

    def __init__(self, params: SketchParams, sample: BinaryDatabase) -> None:
        super().__init__(params)
        self._sample = sample

    @property
    def sample(self) -> BinaryDatabase:
        """The sampled rows (with multiplicity)."""
        return self._sample

    @property
    def n_samples(self) -> int:
        """Number of row samples ``s``."""
        return self._sample.n

    def estimate(self, itemset: Itemset) -> float:
        """Frequency of ``itemset`` among the sampled rows."""
        return self._sample.frequency(itemset)

    def estimate_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Sample frequencies for a whole query set (one kernel sweep).

        ``workers`` shards the sweep.
        """
        return self._sample.frequencies(itemsets, workers=workers)

    def indicate_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Thresholded sample frequencies, one (sharded) kernel sweep.

        Same answers as the base per-itemset loop -- ``indicate`` is
        exactly this threshold on ``estimate`` -- but batched, so
        ``workers`` actually shards indicator validation too.
        """
        threshold = INDICATOR_THRESHOLD_FACTOR * self._params.epsilon
        return self.estimate_batch(itemsets, workers=workers) >= threshold

    def support_mask(self, itemset: Itemset) -> np.ndarray:
        """Which sampled rows contain ``itemset`` (row-major kernel)."""
        return self._sample.support_mask(itemset)

    def size_in_bits(self) -> int:
        """``s * d`` bits: each row sample costs ``d`` bits (Lemma 9)."""
        return self._sample.size_in_bits()


class SubsampleSketcher(Sketcher):
    """Definition 8's SUBSAMPLE algorithm with Lemma 9 sample counts.

    Parameters
    ----------
    task:
        Which of the four guarantees to target (determines ``s``).
    sample_count:
        Optional override of the sample count; ``None`` uses Lemma 9's
        formula.  Sweeps use the override to trace the accuracy-vs-space
        trade-off curve.
    """

    name = "subsample"

    def __init__(self, task: Task, sample_count: int | None = None) -> None:
        super().__init__(task)
        if sample_count is not None and sample_count < 1:
            raise ParameterError(f"sample_count must be >= 1, got {sample_count}")
        self._sample_count = sample_count

    def samples_needed(self, params: SketchParams) -> int:
        """The sample count this sketcher will draw for ``params``."""
        if self._sample_count is not None:
            return self._sample_count
        return sample_count_for(self._task, params)

    def sketch(
        self,
        db: BinaryDatabase,
        params: SketchParams,
        rng: np.random.Generator | int | None = None,
    ) -> SubsampleSketch:
        """Draw ``s`` uniform row samples with replacement.

        Row gathering happens in the packed domain: the parent database's
        row-major kernel is built once (cached on the database), and each
        draw's sample inherits its packed rows via a uint64 word gather --
        repeated draws (validation re-sketches the same database many
        times) never re-pack.
        """
        gen = self._rng(rng)
        s = self.samples_needed(params)
        indices = gen.integers(0, db.n, size=s)
        db.packed_rows  # warm the shared kernel so sample_rows can gather it
        return SubsampleSketch(params, db.sample_rows(indices))

    def theoretical_size_bits(self, params: SketchParams) -> int:
        """``s * d`` with Lemma 9's ``s``."""
        return self.samples_needed(params) * params.d
