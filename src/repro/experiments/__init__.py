"""Experiment harness: registry, sweeps, and plain-text reporting."""

from .harness import (
    empirical_failure_rate,
    grid,
    log_slope,
    measure_sketch_error,
    measure_sketch_sizes,
)
from .registry import EXPERIMENTS, Experiment, experiment_by_id
from .report import (
    format_series,
    format_table,
    print_experiment_header,
    size_columns,
)

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "experiment_by_id",
    "grid",
    "measure_sketch_error",
    "measure_sketch_sizes",
    "empirical_failure_rate",
    "log_slope",
    "format_table",
    "format_series",
    "print_experiment_header",
    "size_columns",
]
