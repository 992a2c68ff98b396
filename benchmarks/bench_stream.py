"""Micro-batch stream pipeline: serial vs process-pool ingestion.

Measures the PR-8 tentpole -- :class:`repro.streaming.pipeline.StreamPipeline`
partitioning an unbounded item stream into micro-batches and sketching each
batch's partials in parallel worker processes (one summary partial per
worker, folded by ``merge_summaries``) -- against the serial
``update_many`` path on the same batches.

Cases:

* ``pipeline_backends``: items/sec for the same Zipf stream pushed through
  the pipeline with one worker (``serial``: the resident summary's own
  ``update_many``) and with several (``process``: partials on the shared
  process pool), plus the bare ``update_many`` loop (no queue, no thread)
  as the floor.  Count-min is the timed summary because its partials sum
  exactly, so both must produce *bit-identical* frames -- correctness is
  asserted, not sampled.
* ``queue_behavior``: the bounded-queue stats for a slow-consumer run --
  max resident queue depth (must never exceed the configured bound) and
  producer backpressure wait time, the "bounded RSS" contract in numbers.
* ``durability_overhead``: socket INGEST throughput into ``serve_in_thread``
  with the write-ahead log off vs on (PR 9's ``--data-dir``), isolating
  the fsync-before-ack price per acknowledged batch.

On hosts with fewer than 4 CPUs the worker count clamps toward 1, so the
committed JSON from such a host records few workers (``config.cpu_count``
says how many cores) and the multi-core acceptance assertion (process >=
1.5x serial) is gated accordingly, mirroring ``bench_query_engine.py``.

Writes ``BENCH_stream.json`` (repo root).  Run directly::

    PYTHONPATH=src python benchmarks/bench_stream.py [--quick]

or through pytest (``pytest benchmarks/bench_stream.py -s``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import wire  # noqa: E402
from repro.server import Client, serve_in_thread  # noqa: E402
from repro.streaming.pipeline import StreamPipeline, SummarySpec  # noqa: E402
from repro.streaming.traffic import zipf_traffic  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_stream.json"

#: PR-8 acceptance floor on a real multi-core host: the process pool must
#: beat the serial per-batch path by this factor on the large stream.
MIN_PROCESS_SPEEDUP = 1.5

UNIVERSE = 100_000


def _spec(seed: int = 7) -> SummarySpec:
    # Count-min: the one summary whose multi-worker fold is bit-identical
    # to the serial path, so every timed variant can be equality-checked.
    return SummarySpec(kind="count-min", universe=UNIVERSE, width=4096, depth=4, seed=seed)


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


def bench_pipeline_backends(
    total_items: int, batch_items: int, repeats: int
) -> dict:
    """items/sec: bare update_many vs the pipeline serial and on processes."""
    batches = _batches(total_items, batch_items)
    workers = max(1, min(4, os.cpu_count() or 1))
    spec = _spec()

    def bare():
        summary = spec.build()
        for batch in batches:
            summary.update_many(batch)
        return summary

    def piped(n_workers: int):
        def run():
            pipeline = StreamPipeline(spec, batch_items=batch_items, workers=n_workers)
            summary = pipeline.run(batches)
            return summary, pipeline.stats

        return run

    bare_time, reference = _time(bare, repeats)
    reference_bytes = reference.to_bytes()

    result: dict = {
        "config": {
            "universe": UNIVERSE,
            "total_items": total_items,
            "batch_items": batch_items,
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "summary": "count-min(width=4096, depth=4)",
        },
        "bare_update_many": {
            "seconds": bare_time,
            "items_per_sec": total_items / bare_time,
        },
    }
    for label, n_workers in (("serial", 1), ("process", workers)):
        seconds, (summary, stats) = _time(piped(n_workers), repeats)
        assert summary.to_bytes() == reference_bytes, (
            f"{label} pipeline diverged from the serial reference"
        )
        result[label] = {
            "seconds": seconds,
            "items_per_sec": total_items / seconds,
            "batches": stats.batches,
            "folds": stats.folds,
            "max_queue_depth": stats.max_queue_depth,
            "feed_wait_s": stats.feed_wait_s,
            "sketch_s": stats.sketch_s,
        }
    result["speedup"] = result["serial"]["seconds"] / result["process"]["seconds"]
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
        _spec(), batch_items=batch_items, queue_depth=queue_depth, workers=1
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


def bench_durability_overhead(
    total_items: int, batch_items: int, repeats: int
) -> dict:
    """Socket INGEST throughput with the write-ahead log off vs on.

    Each acknowledged INGEST on a ``--data-dir`` server appends one
    CRC-framed record and ``fsync``\\ s it before the ack, so the
    overhead ratio is the per-batch durability price at this batch
    size.  Both variants run the same client loop against
    ``serve_in_thread`` on loopback; the final resident frames must be
    bit-identical (count-min, exact partial sums).
    """
    batches = _batches(total_items, batch_items)
    spec = _spec()
    empty_frame = wire.dump(spec.build())

    def run_once(durable: bool):
        with tempfile.TemporaryDirectory(prefix="repro_bench_wal_") as tmp:
            target = str(Path(tmp) / "data") if durable else None
            with serve_in_thread(data_dir=target) as handle:
                with Client(handle.host, handle.port) as client:
                    client.load("cm", empty_frame)
                    began = time.perf_counter()
                    for batch in batches:
                        client.ingest("cm", batch)
                    seconds = time.perf_counter() - began
                    [(_, summary)], _ = handle.registry.dump_for_snapshot()
                    frame = wire.dump(summary)
        return seconds, frame

    result: dict = {
        "config": {
            "total_items": total_items,
            "batch_items": batch_items,
            "batches": len(batches),
            "summary": "count-min(width=4096, depth=4)",
        },
    }
    frames = {}
    for label, durable in (("wal_off", False), ("wal_on", True)):
        best = float("inf")
        for _ in range(repeats):
            seconds, frame = run_once(durable)
            best = min(best, seconds)
            frames[label] = frame
        result[label] = {
            "seconds": best,
            "items_per_sec": total_items / best,
        }
    assert frames["wal_on"] == frames["wal_off"], (
        "journaled ingestion diverged from the in-memory path"
    )
    result["overhead_ratio"] = (
        result["wal_on"]["seconds"] / result["wal_off"]["seconds"]
    )
    return result


def run(quick: bool = False, out_path: Path = DEFAULT_OUT) -> dict:
    repeats = 2 if quick else 3
    if quick:
        total_items, batch_items = 400_000, 1 << 15
    else:
        total_items, batch_items = 4_000_000, 1 << 17
    results = {
        "pipeline_backends": bench_pipeline_backends(
            total_items, batch_items, repeats
        ),
        "queue_behavior": bench_queue_behavior(
            min(total_items, 1_000_000), batch_items
        ),
        "durability_overhead": bench_durability_overhead(
            min(total_items, 1_000_000), batch_items, repeats
        ),
    }
    backends = results["pipeline_backends"]
    # PR-8 acceptance: with real cores to shard over, the process pool
    # beats the serial per-batch path by >= 1.5x on the large stream.  On
    # fewer cores the worker count clamps, so the committed record
    # documents the host instead.
    if (os.cpu_count() or 1) >= 4:
        assert backends["speedup"] >= MIN_PROCESS_SPEEDUP, (
            f"process pipeline {backends['speedup']:.2f}x < "
            f"{MIN_PROCESS_SPEEDUP}x serial on a "
            f"{os.cpu_count()}-core host"
        )
    record = {
        "benchmark": "stream_pipeline",
        "pr": 9,
        "quick": quick,
        "results": results,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: bench_* files are opt-in).
# ----------------------------------------------------------------------
def test_stream_pipeline_quick():
    record = run(quick=True)
    backends = record["results"]["pipeline_backends"]
    print(
        f"\npipeline_backends: bare "
        f"{backends['bare_update_many']['items_per_sec']:,.0f} items/sec, "
        f"serial {backends['serial']['items_per_sec']:,.0f}, "
        f"process {backends['process']['items_per_sec']:,.0f} "
        f"({backends['speedup']:.2f}x) "
        f"with {backends['config']['workers']} workers"
    )
    wal = record["results"]["durability_overhead"]
    print(
        f"durability_overhead: wal off "
        f"{wal['wal_off']['items_per_sec']:,.0f} items/sec, "
        f"wal on {wal['wal_on']['items_per_sec']:,.0f} "
        f"({wal['overhead_ratio']:.2f}x slower)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration (CI)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick, out_path=args.out)
    backends = record["results"]["pipeline_backends"]
    config = backends["config"]
    print(
        f"pipeline_backends (items={config['total_items']}, "
        f"batch={config['batch_items']}, workers={config['workers']} of "
        f"{config['cpu_count']} cpus):"
    )
    print(
        f"  bare update_many "
        f"{backends['bare_update_many']['items_per_sec']:,.0f} items/sec"
    )
    for label in ("serial", "process"):
        row = backends[label]
        print(
            f"  {label:<8} {row['items_per_sec']:,.0f} items/sec "
            f"(queue depth <= {row['max_queue_depth']}, "
            f"feed wait {row['feed_wait_s']:.3f}s, "
            f"sketch {row['sketch_s']:.3f}s)"
        )
    print(f"  speedup: process {backends['speedup']:.2f}x")
    queue = record["results"]["queue_behavior"]
    print(
        f"queue_behavior (depth={queue['config']['queue_depth']}): "
        f"max depth {queue['max_queue_depth']}, "
        f"feed wait {queue['feed_wait_s']:.3f}s over {queue['batches']} batches"
    )
    wal = record["results"]["durability_overhead"]
    print(
        f"durability_overhead ({wal['config']['batches']} INGEST batches of "
        f"{wal['config']['batch_items']}): "
        f"wal off {wal['wal_off']['items_per_sec']:,.0f} items/sec, "
        f"wal on {wal['wal_on']['items_per_sec']:,.0f} "
        f"({wal['overhead_ratio']:.2f}x slower)"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
