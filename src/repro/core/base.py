"""The four sketching tasks (Definitions 1-4) and the (S, Q) interface.

The paper models a sketch as a pair ``(S, Q)``: a randomized *sketching
algorithm* ``S`` mapping a database to a bit string, and a deterministic
*query procedure* ``Q`` mapping (summary, itemset) to an answer.  We mirror
that split:

* :class:`Sketcher` is ``S``.  Its :meth:`Sketcher.sketch` consumes a
  database plus :class:`~repro.params.SketchParams` and randomness.
* :class:`FrequencySketch` is the summary together with ``Q``.  It exposes
  :meth:`FrequencySketch.estimate` (Definitions 2/4) and
  :meth:`FrequencySketch.indicate` (Definitions 1/3), and reports its exact
  serialized size via :meth:`FrequencySketch.size_in_bits`.

:class:`Task` names the four problem variants; sketchers use it to decide
what to store (an indicator sketch may store a single bit per answer where
an estimator stores ``log(1/epsilon)`` bits).

The indicator convention throughout the library: ``indicate`` returns
``estimate(T) >= 3 epsilon / 4``.  Any estimator with additive error below
``epsilon/4`` therefore satisfies Definition 1's two clauses, and the
validator (:mod:`repro.core.validate`) checks the clauses directly, never
this internal threshold.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..db.database import BinaryDatabase
from ..db.generators import as_rng
from ..db.itemset import Itemset
from ..params import SketchParams

__all__ = ["Task", "FrequencySketch", "Sketcher", "INDICATOR_THRESHOLD_FACTOR"]

#: ``indicate`` returns ``estimate >= INDICATOR_THRESHOLD_FACTOR * epsilon``.
#: 3/4 sits midway between Definition 1's two clauses (``> eps`` must give 1,
#: ``< eps/2`` must give 0), leaving eps/4 of slack on each side.
INDICATOR_THRESHOLD_FACTOR = 0.75


class Task(enum.Enum):
    """The four sketching problems of Definitions 1-4."""

    FORALL_INDICATOR = "for-all-indicator"
    FORALL_ESTIMATOR = "for-all-estimator"
    FOREACH_INDICATOR = "for-each-indicator"
    FOREACH_ESTIMATOR = "for-each-estimator"

    @property
    def is_forall(self) -> bool:
        """Whether the guarantee must hold for all itemsets simultaneously."""
        return self in (Task.FORALL_INDICATOR, Task.FORALL_ESTIMATOR)

    @property
    def is_indicator(self) -> bool:
        """Whether the answer is a threshold bit rather than an estimate."""
        return self in (Task.FORALL_INDICATOR, Task.FOREACH_INDICATOR)

    @property
    def for_each_analog(self) -> "Task":
        """The For-Each variant of this task (identity on For-Each tasks)."""
        return {
            Task.FORALL_INDICATOR: Task.FOREACH_INDICATOR,
            Task.FORALL_ESTIMATOR: Task.FOREACH_ESTIMATOR,
        }.get(self, self)

    @property
    def for_all_analog(self) -> "Task":
        """The For-All variant of this task (identity on For-All tasks)."""
        return {
            Task.FOREACH_INDICATOR: Task.FORALL_INDICATOR,
            Task.FOREACH_ESTIMATOR: Task.FORALL_ESTIMATOR,
        }.get(self, self)


class FrequencySketch(ABC):
    """A summary bit string together with its query procedure ``Q``.

    Subclasses must implement :meth:`estimate` and :meth:`size_in_bits`;
    :meth:`indicate` has a default derived from :meth:`estimate`.
    """

    def __init__(self, params: SketchParams) -> None:
        self._params = params

    @property
    def params(self) -> SketchParams:
        """The ``(n, d, k, epsilon, delta)`` tuple this sketch was built for."""
        return self._params

    @abstractmethod
    def estimate(self, itemset: Itemset) -> float:
        """``Q(S, T)`` for the estimator tasks: an approximate ``f_T``."""

    def indicate(self, itemset: Itemset) -> bool:
        """``Q(S, T)`` for the indicator tasks: is ``f_T`` above threshold?

        Default: threshold the estimate at ``3 epsilon / 4``.
        """
        return self.estimate(itemset) >= INDICATOR_THRESHOLD_FACTOR * self._params.epsilon

    def estimate_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Estimates for many itemsets as a float vector.

        Default: one :meth:`estimate` call per itemset.  Sketches that
        store a queryable database (RELEASE-DB, SUBSAMPLE) override this
        with a single batched kernel sweep -- the reconstruction attacks
        and the validation/benchmark harnesses query through this surface.
        ``workers`` shards that sweep where the sketch has a kernel to
        shard; stored-answer sketches, whose batch path is a table lookup,
        ignore it.
        """
        return np.array([self.estimate(t) for t in itemsets], dtype=float)

    def indicate_batch(
        self, itemsets: Sequence[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Indicator answers for many itemsets as a boolean vector.

        Default: one :meth:`indicate` call per itemset, so subclasses that
        override only :meth:`indicate` (stored-bit sketches) stay correct.
        """
        return np.array([self.indicate(t) for t in itemsets], dtype=bool)

    @abstractmethod
    def size_in_bits(self) -> int:
        """Exact size of the serialized summary, in bits.

        Equal, for every sketch with a registered wire codec, to the bit
        length of the payload :meth:`to_bytes` frames -- the accounting is
        measured, not declared.
        """

    def to_bytes(self, *, compress: bool = False) -> bytes:
        """Serialize to the framed wire format (:mod:`repro.wire`).

        The frame's payload is exactly :meth:`size_in_bits` bits; the
        sketch can be reconstructed in another process with
        :meth:`from_bytes` and answers queries bit-identically.
        ``compress`` stores a zlib payload -- the charged bit count is
        unchanged.
        """
        from ..wire import dump

        return dump(self, compress=compress)

    @staticmethod
    def from_bytes(buf: bytes) -> "FrequencySketch":
        """Reconstruct a sketch serialized by :meth:`to_bytes`.

        Raises
        ------
        repro.errors.WireFormatError
            If the frame is malformed, corrupted, or not a frequency
            sketch.
        """
        from ..wire import load_as

        return load_as(FrequencySketch, buf)


class Sketcher(ABC):
    """A randomized sketching algorithm ``S`` (Definitions 1-4).

    Subclasses provide :meth:`sketch` plus a :meth:`theoretical_size_bits`
    formula so benchmarks can compare measured and predicted sizes.
    """

    #: Short name used in reports ("release-db", "subsample", ...).
    name: str = "abstract"

    def __init__(self, task: Task) -> None:
        self._task = task

    @property
    def task(self) -> Task:
        """Which of the four problems this sketcher is configured for."""
        return self._task

    @abstractmethod
    def sketch(
        self,
        db: BinaryDatabase,
        params: SketchParams,
        rng: np.random.Generator | int | None = None,
    ) -> FrequencySketch:
        """Build a summary of ``db`` for the given parameters."""

    @abstractmethod
    def theoretical_size_bits(self, params: SketchParams) -> int:
        """Predicted summary size in bits for these parameters."""

    def _rng(self, rng: np.random.Generator | int | None) -> np.random.Generator:
        return as_rng(rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(task={self._task.value})"
