"""Bounded-memory stream ingestion: generator -> pipeline -> live queries.

The paper's sketching party ``S`` never holds the stream -- it keeps one
mergeable summary whose size depends on the accuracy target, not on the
stream length.  This example runs that loop end to end:

1. generate bursty item traffic (a flash crowd rotating through hot
   items) with :func:`repro.streaming.traffic.bursty_traffic`;
2. push it through :class:`repro.streaming.pipeline.StreamPipeline`,
   which partitions the stream into micro-batches behind a bounded
   queue and folds each whole batch into the resident summary, so it
   is *always* complete and queryable;
3. snapshot the resident summary mid-stream (the query party ``Q`` never
   waits for the stream to end);
4. compare the final heavy hitters and count-min estimates against exact
   counts, and show the space the pipeline never spent.

The same loop is available from the shell::

    python -m repro.streaming.traffic bursty --d 10000 --items 2000000 \
        --format u64 | repro stream - --format u64 --summary count-min \
        --universe 10000 --out crowd.bin

and over a socket via ``repro serve`` + ``repro stream --connect`` +
``repro query --connect``.

Run with:  python examples/stream_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.streaming.pipeline import StreamPipeline, SummarySpec
from repro.streaming.traffic import bursty_traffic

UNIVERSE = 10_000
TOTAL_ITEMS = 2_000_000


def main() -> None:
    spec = SummarySpec(
        kind="count-min", universe=UNIVERSE, width=4096, depth=4, seed=11
    )
    traffic = bursty_traffic(
        UNIVERSE, batch_items=1 << 14, total_items=TOTAL_ITEMS, rng=4
    )

    exact = np.zeros(UNIVERSE, dtype=np.int64)
    midstream = None
    with StreamPipeline(spec, batch_items=1 << 16, queue_depth=4) as pipeline:
        for batch in traffic:
            exact += np.bincount(batch, minlength=UNIVERSE)
            pipeline.feed(batch)
            # Q queries while S is still ingesting: a snapshot is a
            # complete prefix of the stream, never a half-applied batch.
            if midstream is None and pipeline.stats.items >= TOTAL_ITEMS // 2:
                midstream = pipeline.snapshot()
        summary = pipeline.finish()
    stats = pipeline.stats

    print(
        f"ingested {stats.items:,} items in {stats.batches} micro-batches "
        f"(peak queue depth {stats.max_queue_depth})"
    )
    raw_bits = TOTAL_ITEMS * int(np.ceil(np.log2(UNIVERSE)))
    print(
        f"mid-stream snapshot answered after {midstream.stream_length:,} "
        f"items; final summary holds {summary.size_in_bits():,} bits vs "
        f"{raw_bits:,} bits of raw stream"
    )

    top = np.argsort(exact)[::-1][:5]
    print("\nitem      exact-freq   cms-estimate")
    for item in top:
        true_frequency = exact[item] / stats.items
        estimate = summary.estimate_frequency(int(item))
        print(f"{item:<8}  {true_frequency:.5f}      {estimate:.5f}")
    worst = max(
        summary.estimate_frequency(int(i)) - exact[i] / stats.items
        for i in range(UNIVERSE)
    )
    print(f"\nworst CMS overestimate across the universe: {worst:.5f}")


if __name__ == "__main__":
    main()
