"""Plain-text tables and series for benchmark output.

The paper has no numeric tables, so these helpers are how our benches
"print the same rows the paper reports": one table per claim, with a
``paper says`` column where applicable (EXPERIMENTS.md records the pairs).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = [
    "format_table",
    "format_series",
    "print_experiment_header",
    "size_columns",
]


def format_table(
    rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None
) -> str:
    """Render dict-rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0])
    rendered = [[_fmt(row.get(c, "")) for c in cols] for row in rows]
    widths = [
        max(len(cols[i]), *(len(r[i]) for r in rendered)) for i in range(len(cols))
    ]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(cols))) for r in rendered
    )
    return f"{header}\n{sep}\n{body}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def size_columns(
    measured_bits: int | float,
    theoretical_bits: int | float,
    lower_bound_bits: int | float,
) -> dict[str, Any]:
    """The standard size triple as ordered table columns.

    ``measured`` is the serialized wire-payload length, ``theoretical``
    the sketcher's closed-form prediction, ``lower`` the best applicable
    lower bound; ``meas/lower`` is the optimality gap the paper's
    theorems constrain.  Use with :func:`format_table` so every report
    prints the three sizes in the same order with the same headers.

    The charged-bits rule: ``measured`` is always the *uncompressed*
    payload bit count ``n_bits``.  Wire-format transport choices --
    frame version, chunking, zlib payload compression -- change the
    stored byte count but never ``size_in_bits``, so these columns are
    invariant under how the sketch happens to be shipped.
    """
    return {
        "measured": int(measured_bits),
        "theoretical": int(theoretical_bits),
        "lower": int(round(float(lower_bound_bits))),
        "meas/lower": float(measured_bits) / max(float(lower_bound_bits), 1.0),
    }


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """Render an (x, y) series -- the benches' figure-equivalent output."""
    pairs = "  ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def print_experiment_header(exp_id: str) -> None:
    """Banner naming the experiment and its paper anchor."""
    from .registry import experiment_by_id

    exp = experiment_by_id(exp_id)
    print(f"\n=== {exp.exp_id} [{exp.paper_anchor}] ===")
    print(exp.claim)
