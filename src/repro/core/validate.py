"""Empirical validity checking for Definitions 1-4.

A sketch is *valid* when it satisfies its definition's accuracy clauses with
probability ``1 - delta`` over the sketching algorithm's randomness.  These
harnesses estimate that probability by re-sketching a fixed database many
times and checking the clauses against exact frequencies:

* Definition 1 (For-All indicator): in each trial, *every* k-itemset with
  ``f_T > eps`` must indicate 1 and every one with ``f_T < eps/2`` must
  indicate 0; the trial fails if any itemset violates.
* Definition 2 (For-All estimator): every k-itemset must satisfy
  ``|estimate - f_T| <= eps`` simultaneously.
* Definitions 3/4 (For-Each): the same clauses, but failures are counted
  per (trial, itemset) pair -- the probability is per query.

Reports include the exact ground truth and the failure rate so tests can
assert ``failure_rate <= delta`` (plus slack for the Monte-Carlo noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..db.database import BinaryDatabase
from ..db.generators import as_rng
from ..db.itemset import Itemset, all_itemsets
from ..db.queries import FrequencyOracle
from ..errors import ParameterError
from ..params import SketchParams
from .base import Sketcher, Task

__all__ = ["ValidationReport", "validate_sketcher"]


@dataclass
class ValidationReport:
    """Outcome of an empirical validation run.

    Attributes
    ----------
    task:
        Which definition was checked.
    trials:
        Number of independent sketches drawn.
    failures:
        Number of failed units (trials for For-All; (trial, itemset) pairs
        for For-Each).
    units:
        Total units checked (== trials for For-All; trials * #itemsets for
        For-Each).
    violating_itemsets:
        Example itemsets that violated a clause (at most 10 retained).
    """

    task: Task
    trials: int
    failures: int
    units: int
    violating_itemsets: list[Itemset] = field(default_factory=list)

    @property
    def failure_rate(self) -> float:
        """Observed failure probability estimate."""
        return self.failures / max(self.units, 1)

    def ok(self, delta: float, slack: float = 2.0) -> bool:
        """Whether the observed rate is within ``slack * delta``."""
        return self.failure_rate <= slack * delta


def _itemsets_to_check(
    params: SketchParams, max_itemsets: int, rng: np.random.Generator
) -> list[Itemset]:
    total = params.num_itemsets
    if total <= max_itemsets:
        return list(all_itemsets(params.d, params.k))
    # Sample distinct itemsets by rank.
    from ..db.itemset import unrank_itemset

    ranks = rng.choice(total, size=max_itemsets, replace=False)
    return [unrank_itemset(int(r), params.k) for r in ranks]


def validate_sketcher(
    sketcher: Sketcher,
    db: BinaryDatabase,
    params: SketchParams,
    trials: int = 20,
    max_itemsets: int = 2000,
    rng: np.random.Generator | int | None = None,
    workers: int | None = None,
) -> ValidationReport:
    """Estimate a sketcher's failure probability on ``db``.

    Checks the clauses of the sketcher's configured task.  For tractability
    at most ``max_itemsets`` itemsets are checked (all of them when
    ``C(d,k)`` is small; a uniform sample otherwise -- a *lower* bound on
    the true For-All failure rate, which the reports note).

    ``workers`` shards the batched kernel sweeps -- the exact ground-truth
    evaluation and each trial's sketch queries (``None`` = auto heuristic;
    results are identical for every worker count).

    Raises
    ------
    ParameterError
        If the database shape disagrees with ``params``.
    """
    if (db.n, db.d) != (params.n, params.d):
        raise ParameterError(
            f"database shape {db.shape} does not match params (n={params.n}, d={params.d})"
        )
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    gen = as_rng(rng)
    itemsets = _itemsets_to_check(params, max_itemsets, gen)
    oracle = FrequencyOracle(db)
    truth = oracle.frequencies(itemsets, workers=workers)
    eps = params.epsilon
    task = sketcher.task

    failures = 0
    units = 0
    violators: list[Itemset] = []

    for _ in range(trials):
        sketch = sketcher.sketch(db, params, gen)
        if task.is_indicator:
            answers = np.asarray(
                sketch.indicate_batch(itemsets, workers=workers),
                dtype=bool,
            )
            must_be_one = truth > eps
            must_be_zero = truth < eps / 2.0
            bad = (must_be_one & ~answers) | (must_be_zero & answers)
        else:
            answers = np.asarray(
                sketch.estimate_batch(itemsets, workers=workers),
                dtype=float,
            )
            bad = np.abs(answers - truth) > eps + 1e-12
        if task.is_forall:
            units += 1
            if bad.any():
                failures += 1
        else:
            units += len(itemsets)
            failures += int(bad.sum())
        for idx in np.flatnonzero(bad)[: max(0, 10 - len(violators))]:
            violators.append(itemsets[int(idx)])

    return ValidationReport(
        task=task,
        trials=trials,
        failures=failures,
        units=units,
        violating_itemsets=violators,
    )
