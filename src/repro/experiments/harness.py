"""Parameter sweeps and measurement helpers shared by the benchmarks."""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ..core.base import Sketcher
from ..db.database import BinaryDatabase
from ..db.generators import as_rng
from ..db.itemset import Itemset, unrank_itemset
from ..db.queries import FrequencyOracle
from ..errors import ParameterError
from ..params import SketchParams

__all__ = [
    "grid",
    "measure_sketch_error",
    "measure_sketch_sizes",
    "empirical_failure_rate",
    "log_slope",
]


def grid(**axes: Iterable[Any]) -> Iterator[dict[str, Any]]:
    """Cartesian product of named axes as dicts (deterministic order).

    >>> list(grid(a=[1, 2], b=['x']))
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    names = list(axes)
    for values in product(*(list(axes[name]) for name in names)):
        yield dict(zip(names, values))


def _sample_itemsets(
    params: SketchParams, count: int, rng: np.random.Generator
) -> list[Itemset]:
    total = params.num_itemsets
    if total <= count:
        ranks = np.arange(total)
    else:
        ranks = rng.choice(total, size=count, replace=False)
    return [unrank_itemset(int(r), params.k) for r in ranks]


def measure_sketch_error(
    sketcher: Sketcher,
    db: BinaryDatabase,
    params: SketchParams,
    n_itemsets: int = 200,
    rng: np.random.Generator | int | None = None,
    workers: int | None = None,
) -> dict[str, float]:
    """One sketch draw: max/mean absolute estimation error over itemsets.

    Returns a dict with ``max_error``, ``mean_error`` and ``bits``.
    ``workers`` shards the exact ground-truth sweep and the sketch's
    batched queries (``None`` = auto heuristic).
    """
    gen = as_rng(rng)
    itemsets = _sample_itemsets(params, n_itemsets, gen)
    oracle = FrequencyOracle(db)
    sketch = sketcher.sketch(db, params, gen)
    exact = oracle.frequencies(itemsets, workers=workers)
    estimates = np.asarray(sketch.estimate_batch(itemsets, workers=workers))
    errors = np.abs(estimates - exact)
    return {
        "max_error": float(errors.max()),
        "mean_error": float(errors.mean()),
        "bits": float(sketch.size_in_bits()),
    }


def measure_sketch_sizes(
    sketcher: Sketcher,
    db: BinaryDatabase,
    params: SketchParams,
    rng: np.random.Generator | int | None = None,
) -> dict[str, float]:
    """One sketch draw: measured vs theoretical vs lower-bound size columns.

    ``measured_bits`` is the bit length of the sketch's *serialized wire
    payload* (:func:`repro.wire.payload_size_bits`), not a formula -- the
    number a lower bound is literally a statement about.  The charged
    size is invariant under transport choices: every frame layout
    declares the same ``n_bits``, and zlib payload compression shrinks
    only the stored bytes, never ``size_in_bits`` (lower bounds
    constrain information content, which deflation preserves).  The
    returned row also carries the sketcher's closed-form prediction and
    the best applicable lower bound for the task, with the two ratios
    the reports print (``measured / theoretical`` should be 1.0 exactly
    for the naive algorithms; ``measured / lower`` is the optimality
    gap).
    """
    from ..core.bounds import lower_bound_bits
    from ..wire import payload_size_bits

    sketch = sketcher.sketch(db, params, as_rng(rng))
    measured = payload_size_bits(sketch)
    theoretical = sketcher.theoretical_size_bits(params)
    lower = lower_bound_bits(sketcher.task, params)
    return {
        "measured_bits": float(measured),
        "theoretical_bits": float(theoretical),
        "lower_bound_bits": float(lower),
        "measured_over_theoretical": measured / max(theoretical, 1),
        "measured_over_lower": measured / max(lower, 1.0),
    }


def empirical_failure_rate(
    check: Callable[[np.random.Generator], bool],
    trials: int,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Fraction of trials where ``check`` returned False (= failed)."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    gen = as_rng(rng)
    failures = sum(not check(gen) for _ in range(trials))
    return failures / trials


def log_slope(xs: Iterable[float], ys: Iterable[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    The "figure" benchmarks assert scaling exponents with this: sketch
    size vs ``1/eps`` should have slope ~1 (indicator) or ~2 (estimator).
    """
    x = np.log(np.asarray(list(xs), dtype=float))
    y = np.log(np.asarray(list(ys), dtype=float))
    if x.size != y.size or x.size < 2:
        raise ParameterError("need at least two matching points")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
