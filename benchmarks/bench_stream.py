"""Micro-batch stream pipeline: per-kind batch folds against itemwise updates.

Measures :class:`repro.streaming.pipeline.StreamPipeline` ingesting one
Zipf stream into each pipeline summary kind, where every micro-batch is
one ``update_many`` fold in the sketching thread.

Cases:

* ``batch_fold``: for count-min, misra-gries, space-saving and reservoir,
  items/sec through the pipeline, through a bare ``update_many`` loop
  over the same batches (no queue, no thread), and through the classic
  itemwise ``update()`` loop on the stream's first batch.  Every kind's
  answer is checked, not sampled: the pipeline frame equals the bare
  loop's, and each summary meets its certificate over the whole stream
  (Count-Min: that bare loop, which adds exact counts; Misra-Gries:
  ``0 <= true - est <= m/(k+1)`` for every item; Space-Saving:
  ``true <= est <= true + error <= true + m/k`` for every tracked item;
  reservoir: a full sample of ids from the stream).  The pipeline must
  beat the itemwise loop by :data:`MIN_FOLD_SPEEDUP` per item.
* ``queue_behavior``: the bounded-queue stats for a slow-consumer run --
  max resident queue depth (must never exceed the configured bound) and
  producer backpressure wait time, the "bounded RSS" contract in numbers.

The record carries the host's CPU count and whether the native kernel
tier loaded.  Writes ``BENCH_stream.json`` (repo root) unless ``--out``
says otherwise.  Run directly::

    PYTHONPATH=src python benchmarks/bench_stream.py [--quick] [--out PATH]

or through pytest (``pytest benchmarks/bench_stream.py -s``), which
writes its record to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.db import _native  # noqa: E402
from repro.streaming.pipeline import (  # noqa: E402
    SUMMARY_KINDS,
    StreamPipeline,
    SummarySpec,
)
from repro.streaming.traffic import zipf_traffic  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_stream.json"

#: Every kind's pipeline must ingest at least this many times as many
#: items per second as the itemwise ``update()`` loop.
MIN_FOLD_SPEEDUP = 10.0

UNIVERSE = 100_000


def _spec(kind: str = "count-min", seed: int = 7) -> SummarySpec:
    return SummarySpec(
        kind=kind, universe=UNIVERSE, k=64, width=4096, depth=4, size=256, seed=seed
    )


def _batches(total_items: int, batch_items: int) -> list[np.ndarray]:
    # Pre-generate outside every timed region: the bench times ingestion,
    # not the traffic generator.
    return list(
        zipf_traffic(
            UNIVERSE,
            exponent=1.1,
            batch_items=batch_items,
            total_items=total_items,
            rng=3,
        )
    )


def _time(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _certify(kind: str, summary, true: np.ndarray, bare) -> dict:
    """Assert ``kind``'s certificate over the stream; report its error."""
    total = int(true.sum())
    assert summary.stream_length == total, f"{kind}: stream_length drifted"
    if kind == "count-min":
        assert summary.to_bytes() == bare.to_bytes(), (
            "count-min pipeline diverged from bare update_many"
        )
        return {}
    if kind == "misra-gries":
        est = np.zeros_like(true)
        for item, count in summary._counters.items():
            est[item] = count
        deficit = true - est
        bound = summary.max_undercount()
        assert deficit.min() >= 0 and deficit.max() <= bound, (
            f"misra-gries undercount {deficit.max()} outside [0, {bound}]"
        )
        return {"max_error": int(deficit.max()), "bound": bound}
    if kind == "space-saving":
        bound = summary.max_overcount()
        worst = 0
        for item, count in summary._counts.items():
            error = summary._errors[item]
            assert true[item] <= count <= true[item] + error, (
                f"space-saving item {item}: {count} outside its certificate"
            )
            assert error <= bound, f"space-saving error {error} > {bound}"
            worst = max(worst, count - int(true[item]))
        return {"max_error": worst, "bound": bound}
    sample = np.asarray(summary.sample)
    assert sample.size == summary.size, "reservoir not full"
    assert (true[sample] > 0).all(), "reservoir holds an id never streamed"
    return {}


def bench_batch_fold(total_items: int, batch_items: int, repeats: int) -> dict:
    """Per kind: items/sec through the pipeline, bare folds and itemwise."""
    batches = _batches(total_items, batch_items)
    true = np.bincount(np.concatenate(batches), minlength=UNIVERSE)
    itemwise_items = batches[0].tolist()
    result: dict = {
        "config": {
            "universe": UNIVERSE,
            "total_items": total_items,
            "batch_items": batch_items,
            "itemwise_items": len(itemwise_items),
            "cpu_count": os.cpu_count(),
            "native_tier": _native.available(),
            "summaries": "count-min(width=4096, depth=4), misra-gries(k=64), "
            "space-saving(k=64), reservoir(size=256)",
        },
    }
    for kind in SUMMARY_KINDS:
        spec = _spec(kind)

        def bare():
            summary = spec.build()
            for batch in batches:
                summary.update_many(batch)
            return summary

        def piped():
            return StreamPipeline(spec, batch_items=batch_items).run(batches)

        def itemwise():
            summary = spec.build()
            for item in itemwise_items:
                summary.update(item)
            return summary

        bare_time, reference = _time(bare, repeats)
        pipe_time, summary = _time(piped, repeats)
        item_time, _ = _time(itemwise, repeats)
        assert summary.to_bytes() == reference.to_bytes(), (
            f"{kind} pipeline diverged from update_many over the same batches"
        )
        pipe_rate = total_items / pipe_time
        item_rate = len(itemwise_items) / item_time
        result[kind] = {
            "pipeline": {"seconds": pipe_time, "items_per_sec": pipe_rate},
            "bare_update_many": {
                "seconds": bare_time,
                "items_per_sec": total_items / bare_time,
            },
            "itemwise": {"seconds": item_time, "items_per_sec": item_rate},
            "speedup_over_itemwise": pipe_rate / item_rate,
            **_certify(kind, summary, true, reference),
        }
    return result


def bench_queue_behavior(total_items: int, batch_items: int) -> dict:
    """Backpressure in numbers: a slow consumer must bound the queue.

    The producer is throttled by the queue, never by the consumer's
    progress, so ``max_queue_depth <= queue_depth`` and the producer's
    blocked time shows up in ``feed_wait_s``.
    """
    batches = _batches(total_items, batch_items)
    queue_depth = 2
    pipeline = StreamPipeline(
        _spec(), batch_items=batch_items, queue_depth=queue_depth
    )
    began = time.perf_counter()
    pipeline.run(batches)
    seconds = time.perf_counter() - began
    stats = pipeline.stats
    assert stats.max_queue_depth <= queue_depth, (
        f"queue grew to {stats.max_queue_depth} > bound {queue_depth}"
    )
    assert stats.items == total_items
    return {
        "config": {
            "total_items": total_items,
            "batch_items": batch_items,
            "queue_depth": queue_depth,
        },
        "seconds": seconds,
        "items_per_sec": total_items / seconds,
        "batches": stats.batches,
        "max_queue_depth": stats.max_queue_depth,
        "feed_wait_s": stats.feed_wait_s,
        "sketch_s": stats.sketch_s,
    }


def run(quick: bool = False, out_path: Path = DEFAULT_OUT) -> dict:
    repeats = 2 if quick else 3
    if quick:
        total_items, batch_items = 400_000, 1 << 15
    else:
        total_items, batch_items = 4_000_000, 1 << 17
    results = {
        "batch_fold": bench_batch_fold(total_items, batch_items, repeats),
        "queue_behavior": bench_queue_behavior(
            min(total_items, 1_000_000), batch_items
        ),
    }
    for kind in SUMMARY_KINDS:
        speedup = results["batch_fold"][kind]["speedup_over_itemwise"]
        assert speedup >= MIN_FOLD_SPEEDUP, (
            f"{kind} pipeline only {speedup:.1f}x the itemwise loop "
            f"(floor {MIN_FOLD_SPEEDUP}x)"
        )
    record = {
        "benchmark": "stream_pipeline",
        "quick": quick,
        "results": results,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def _report(record: dict) -> None:
    fold = record["results"]["batch_fold"]
    config = fold["config"]
    print(
        f"batch_fold (items={config['total_items']}, "
        f"batch={config['batch_items']}, {config['cpu_count']} cpus, "
        f"native tier {'loaded' if config['native_tier'] else 'absent'}):"
    )
    for kind in SUMMARY_KINDS:
        row = fold[kind]
        error = (
            f", max error {row['max_error']} of {row['bound']:.0f}"
            if "bound" in row
            else ""
        )
        print(
            f"  {kind:<13} pipeline {row['pipeline']['items_per_sec']:>12,.0f} "
            f"items/sec, itemwise {row['itemwise']['items_per_sec']:>10,.0f} "
            f"({row['speedup_over_itemwise']:.0f}x){error}"
        )
    queue = record["results"]["queue_behavior"]
    print(
        f"queue_behavior (depth={queue['config']['queue_depth']}): "
        f"max depth {queue['max_queue_depth']}, "
        f"feed wait {queue['feed_wait_s']:.3f}s over {queue['batches']} batches"
    )


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: bench_* files are opt-in).
# ----------------------------------------------------------------------
def test_stream_pipeline_quick(tmp_path):
    print()
    _report(run(quick=True, out_path=tmp_path / "BENCH_stream.json"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration (CI)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    _report(run(quick=args.quick, out_path=args.out))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
