"""Bounded-memory micro-batch ingestion: the driver/executor pipeline.

The paper's sketches only matter operationally if the system can *build*
them from an unbounded stream in bounded memory at hardware speed.  This
module supplies that layer, in the MapReduce count-sketch shape: the
driver partitions the incoming item stream into micro-batches behind a
bounded queue (a full queue blocks the producer -- backpressure, not
buffering), each micro-batch is partitioned across shard workers that
each build **one summary partial** over their slice through the existing
vectorized ``update_many`` fast paths, and the partials are folded into
the resident summary via the mergeable-summary rules of
:mod:`repro.streaming.merge`.  The resident object is therefore always a
*complete*, queryable summary of some prefix of the stream -- never a
half-merged intermediate.

Worker processes
----------------
With more than one worker, partials are sketched on the shared
:data:`~repro.db.backends.PROCESS_POOL`.  ``workers`` is the only
setting; the executor is not, because building a partial is
Python-level work that holds the GIL (Space-Saving's and Misra-Gries'
counter updates, reservoir sampling, frame encoding), so threads would
mostly take turns.  Measured over 1 M Zipf items in 131,072-item
batches with 2 workers on a 2-vCPU host, processes beat threads in 5 of
5 alternating rounds: Misra-Gries 267 ms against 422 ms, Space-Saving
1.6 s against 3.1 s, reservoir 1.6 s against 2.9 s, with identical
frames; Count-Min was about even (170 vs 189 ms, faster in 3 of 5).
Against one worker (the resident ``update_many``) on the same stream,
the pool won 5 of 5 rounds for Misra-Gries (248 ms against 2.3 s),
Space-Saving (1.4 s against 3.6 s) and reservoir (1.5 s against 2.4 s),
and lost 5 of 5 for Count-Min (126 ms against 100 ms), whose one-worker
path is already vectorized (one ``bincount`` per table row).
The batch array is published once into named shared memory -- **no
per-item pickling** -- every worker runs the module-level
:func:`_partial_sketch_kernel` over its contiguous slice, and each
partial travels back as a serialized wire frame in a preallocated
output buffer.  The sketching thread decodes and folds the frames
with :func:`~repro.streaming.merge.merge_summaries`, so the shard
results cross process boundaries exactly as distributed-ingest shards
do over the network -- one codec path end to end.

Guarantees
----------
* ``workers == 1`` bypasses the partial path entirely and feeds the
  resident summary's own ``update_many``, so single-worker pipeline
  state is **bit-identical** to one-shot bulk ingestion.
* Multi-worker folds inherit each summary's merge certificates:
  Misra-Gries undercounts by at most ``m/(k+1)`` over the combined
  stream, SpaceSaving overcounts by at most ``m/k``, and a
  non-conservative Count-Min table is *exactly* the one-shot table
  (partial bincounts add), so CMS pipelines are bit-identical at every
  worker count.
* Peak resident memory is bounded by ``queue_depth + 2`` micro-batches
  plus one summary per worker, independent of stream length.
* Supervision: if a shard worker process dies mid-batch (the pool
  surfaces ``BrokenProcessPool``), the pipeline rebuilds the pool
  and retries that batch once -- with the same salt, so the retried
  partials are bit-identical -- before surfacing the failure.  The
  resident summary is untouched by the failed attempt (partials fold
  only after the whole batch succeeds), so no batch is half-applied.
"""

from __future__ import annotations

import copy
import queue
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator

import numpy as np

from ..db.backends import PROCESS_POOL, ShardJob, shard_edges
from ..db.generators import as_rng
from ..db.packed import resolve_workers
from ..errors import StreamError
from .base import StreamSummary
from .count_min import CountMinSketch
from .merge import merge_summaries
from .misra_gries import MisraGries
from .reservoir import ReservoirSample
from .space_saving import SpaceSaving

__all__ = [
    "DEFAULT_BATCH_ITEMS",
    "DEFAULT_QUEUE_DEPTH",
    "PipelineStats",
    "StreamPipeline",
    "SUMMARY_KINDS",
    "SummarySpec",
    "batches_from_binary",
    "batches_from_text",
]

#: Default micro-batch size (items); the memory/backpressure granule.
DEFAULT_BATCH_ITEMS = 1 << 16

#: Default bound on queued micro-batches awaiting sketching.
DEFAULT_QUEUE_DEPTH = 8

#: Summary kinds a pipeline can build.  All four merge (see
#: :mod:`repro.streaming.merge`), so partials always fold.
SUMMARY_KINDS = ("count-min", "misra-gries", "space-saving", "reservoir")

_SENTINEL = object()


@dataclass(frozen=True)
class SummarySpec:
    """A picklable recipe for building one stream summary.

    The pipeline ships this dict-of-scalars across the process boundary
    so every shard worker constructs its partial from the same recipe:
    Count-Min partials draw identical hash coefficients from ``seed``
    (required by :func:`~repro.streaming.merge.merge_count_min`), while
    sampling summaries derive per-(batch, shard) seeds so partials are
    independent.

    Parameters
    ----------
    kind:
        One of :data:`SUMMARY_KINDS`.
    universe:
        Item-id universe size (ids ``0..universe-1``).
    k:
        Counter slots for ``misra-gries`` / ``space-saving``.
    width, depth:
        Table shape for ``count-min``.
    size:
        Reservoir capacity for ``reservoir``.
    seed:
        Hash/sampling seed (see above).
    """

    kind: str
    universe: int
    k: int = 64
    width: int = 1024
    depth: int = 4
    size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SUMMARY_KINDS:
            raise StreamError(
                f"unknown summary kind {self.kind!r}; expected one of {SUMMARY_KINDS}"
            )
        if self.universe < 1:
            raise StreamError(f"universe must be >= 1, got {self.universe}")

    def to_params(self) -> dict:
        """The spec as a plain dict of scalars (picklable kernel params)."""
        return {
            "kind": self.kind,
            "universe": self.universe,
            "k": self.k,
            "width": self.width,
            "depth": self.depth,
            "size": self.size,
            "seed": self.seed,
        }

    @staticmethod
    def from_params(params: dict) -> "SummarySpec":
        """Rebuild a spec from :meth:`to_params` output."""
        return SummarySpec(**params)

    def build(self, shard_seed: int | None = None) -> StreamSummary:
        """Construct an empty summary from the recipe.

        ``shard_seed`` replaces ``seed`` for the *sampling* randomness of
        a worker-side partial (reservoirs); hash-seeded summaries ignore
        it so every partial shares the resident hash functions.
        """
        if self.kind == "count-min":
            return CountMinSketch(self.universe, self.width, self.depth, rng=self.seed)
        if self.kind == "misra-gries":
            return MisraGries(self.universe, self.k)
        if self.kind == "space-saving":
            return SpaceSaving(self.universe, self.k)
        seed = self.seed if shard_seed is None else shard_seed
        return ReservoirSample(self.universe, self.size, rng=seed)


def _shard_seed(seed: int, salt: int, shard: int) -> int:
    """A stable per-(batch, shard) sampling seed, identical cross-process."""
    state = np.random.SeedSequence(entropy=(seed, salt, shard)).generate_state(1)
    return int(state[0])


def _frame_capacity(spec: SummarySpec) -> int:
    """Bytes reserved per partial frame in the shard output buffer.

    Every pipeline summary kind has fill-independent payload accounting
    (slot-capacity encoding: ``payload n_bits == size_in_bits()`` whether
    empty or full), so an empty summary's frame bounds a full one's up to
    header varint growth -- covered by the fixed slack.
    """
    from ..wire import payload_size_bits

    return 512 + (payload_size_bits(spec.build()) + 7) // 8


def _partial_sketch_kernel(arrays, outs, lo, hi, params) -> None:
    """Shard kernel: build one summary partial and emit it as a wire frame.

    Runs in a pool worker: ``arrays`` holds the published micro-batch,
    ``outs`` one frame row + length slot per shard.  Module-level so the
    pool ships it by qualified name; only the spec dict and shard edges
    cross the boundary.
    """
    spec = SummarySpec.from_params(params["spec"])
    edges = params["edges"]
    shard = int(np.searchsorted(np.asarray(edges), lo))
    summary = spec.build(shard_seed=_shard_seed(spec.seed, params["salt"], shard))
    items = arrays["items"][lo:hi]
    if items.size:
        summary.update_many(items)
    frame = summary.to_bytes()
    frames, lens = outs["frames"], outs["lens"]
    if len(frame) > frames.shape[1]:
        raise StreamError(
            f"partial frame of {len(frame)} bytes exceeds the reserved "
            f"{frames.shape[1]}-byte slot"
        )
    frames[shard, : len(frame)] = np.frombuffer(frame, dtype=np.uint8)
    lens[shard] = len(frame)


@dataclass
class PipelineStats:
    """Observability counters for one pipeline run.

    ``feed_wait_s`` is total producer time blocked on a full queue (the
    backpressure signal); ``sketch_s`` is consumer time spent sketching
    and folding; ``max_queue_depth`` the high-water mark of batches
    resident in the queue; ``worker_restarts`` counts process-pool
    rebuilds after a shard worker died mid-batch (each one is a batch
    retried once, not lost).
    """

    items: int = 0
    batches: int = 0
    folds: int = 0
    max_queue_depth: int = 0
    feed_wait_s: float = 0.0
    sketch_s: float = 0.0
    worker_restarts: int = 0

    def snapshot(self) -> "PipelineStats":
        return replace(self)


class StreamPipeline:
    """Driver/executor micro-batch ingestion into one resident summary.

    Parameters
    ----------
    spec:
        A :class:`SummarySpec` (or its dict form) describing the summary
        to build.
    batch_items:
        Micro-batch size; :meth:`feed` re-chunks larger arrays.
    queue_depth:
        Bound on batches queued ahead of the sketching thread; a full
        queue blocks :meth:`feed` (backpressure).
    workers:
        Shard count per batch (default: the auto heuristic of
        :func:`~repro.db.packed.resolve_workers`, clamped to the host's
        cores).  One worker updates the resident summary inline; more
        sketch one partial per worker process.  The workers are spawned,
        so a script that runs a multi-worker pipeline must guard its
        entry point with ``if __name__ == "__main__":``.
    rng:
        Randomness for sampling-based merge rules (reservoir folds);
        defaults to the spec's seed.

    Usage::

        pipeline = StreamPipeline(SummarySpec("count-min", universe=1024))
        summary = pipeline.run(batches)          # drive end to end

    or incrementally: :meth:`start`, :meth:`feed` from the producer,
    :meth:`snapshot` for a consistent mid-stream copy, :meth:`finish`
    for the final summary.
    """

    def __init__(
        self,
        spec: SummarySpec | dict,
        *,
        batch_items: int = DEFAULT_BATCH_ITEMS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        workers: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if batch_items < 1:
            raise StreamError(f"batch_items must be >= 1, got {batch_items}")
        if queue_depth < 1:
            raise StreamError(f"queue_depth must be >= 1, got {queue_depth}")
        self.spec = spec if isinstance(spec, SummarySpec) else SummarySpec(**spec)
        self.batch_items = batch_items
        self.queue_depth = queue_depth
        # One worker sketches ~batch_items ids per shard dispatch; reuse
        # the evaluators' resolution (explicit > auto, clamped to cores)
        # with the batch volume as the heuristic input.
        self.workers = resolve_workers(workers, batch_items)
        self._rng = as_rng(self.spec.seed if rng is None else rng)
        self._resident = self.spec.build()
        self._capacity = _frame_capacity(self.spec)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._lock = threading.Lock()
        self._stats = PipelineStats()
        self._salt = 0
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._finished = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "StreamPipeline":
        """Start the sketching thread (idempotent until :meth:`finish`)."""
        if self._finished:
            raise StreamError("pipeline already finished")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._drain, name="repro-stream-pipeline", daemon=True
            )
            self._thread.start()
        return self

    def feed(self, items) -> None:
        """Enqueue items for sketching; blocks while the queue is full.

        Arrays larger than ``batch_items`` are split into micro-batches,
        so feeding one huge array still bounds queue memory.  Raises the
        sketching thread's failure (e.g. an out-of-universe id) on the
        next call after it occurs.
        """
        self._check_alive()
        arr = np.asarray(items)
        if arr.ndim != 1:
            raise StreamError(f"feed expects a 1-D batch, got shape {arr.shape}")
        if arr.dtype.kind not in "iub":
            raise StreamError(f"feed expects integer items, got dtype {arr.dtype}")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        for lo in range(0, arr.size, self.batch_items):
            self._raise_failure()
            batch = arr[lo : lo + self.batch_items]
            if not batch.size:
                continue
            began = time.perf_counter()
            self._queue.put(batch)
            waited = time.perf_counter() - began
            with self._lock:
                self._stats.feed_wait_s += waited
                self._stats.max_queue_depth = max(
                    self._stats.max_queue_depth, self._queue.qsize()
                )

    def snapshot(self) -> StreamSummary:
        """A deep copy of the resident summary: always a complete fold.

        Consistent at micro-batch granularity -- the copy reflects every
        batch fully absorbed so far and nothing partial.
        """
        with self._lock:
            return copy.deepcopy(self._resident)

    def finish(self) -> StreamSummary:
        """Drain the queue, stop the sketching thread, return the summary.

        Idempotent; re-raises any failure the sketching thread hit.
        """
        if not self._finished:
            self._finished = True
            if self._thread is not None:
                self._queue.put(_SENTINEL)
                self._thread.join()
        self._raise_failure()
        return self._resident

    def run(self, batches: Iterable) -> StreamSummary:
        """Drive a whole (possibly unbounded) batch iterable end to end."""
        self.start()
        for batch in batches:
            self.feed(batch)
        return self.finish()

    @property
    def stats(self) -> PipelineStats:
        """A consistent copy of the run counters."""
        with self._lock:
            return self._stats.snapshot()

    def __enter__(self) -> "StreamPipeline":
        return self.start()

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if exc_type is None:
            self.finish()
        else:  # unblock and stop the thread; keep the caller's exception
            self._finished = True
            if self._thread is not None:
                self._queue.put(_SENTINEL)
                self._thread.join()

    def _check_alive(self) -> None:
        if self._finished:
            raise StreamError("pipeline already finished")
        if self._thread is None:
            raise StreamError("pipeline not started; call start() or run()")
        self._raise_failure()

    def _raise_failure(self) -> None:
        if self._error is not None:
            raise StreamError(
                f"stream pipeline failed: {self._error}"
            ) from self._error

    # -- consumer side --------------------------------------------------
    def _drain(self) -> None:
        """Sketching thread: absorb batches until the sentinel arrives.

        After a failure, keeps consuming (and discarding) so a blocked
        producer always unblocks; the failure surfaces in feed/finish.
        """
        while True:
            batch = self._queue.get()
            if batch is _SENTINEL:
                return
            if self._error is not None:
                continue
            began = time.perf_counter()
            try:
                self._absorb(batch)
            except BaseException as exc:  # surface in the producer thread
                self._error = exc
                continue
            with self._lock:
                self._stats.items += int(batch.size)
                self._stats.batches += 1
                self._stats.sketch_s += time.perf_counter() - began

    def _absorb(self, batch: np.ndarray) -> None:
        shards = min(self.workers, int(batch.size))
        if shards <= 1:
            # Single-worker path: the resident summary's own bulk update,
            # bit-identical to one-shot update_many over the whole stream.
            with self._lock:
                self._resident.update_many(batch)
            return
        merged = self._sketch_partials(batch, shards)
        with self._lock:
            self._resident = merged

    def _sketch_partials(self, batch: np.ndarray, shards: int) -> StreamSummary:
        """Partition one batch, sketch partials in the pool, fold them."""
        from ..wire import load_as

        edges = shard_edges(int(batch.size), shards)
        frames = np.zeros((len(edges), self._capacity), dtype=np.uint8)
        lens = np.zeros(len(edges), dtype=np.int64)
        job = ShardJob(
            kernel=_partial_sketch_kernel,
            arrays={"items": batch},
            outs={"frames": frames, "lens": lens},
            total=int(batch.size),
            params={
                "spec": self.spec.to_params(),
                "edges": [lo for lo, _ in edges],
                "salt": self._salt,
            },
        )
        self._salt += 1
        try:
            PROCESS_POOL.run(job, shards)
        except BrokenProcessPool:
            # A shard worker died (OOM kill, SIGKILL, hard crash) and
            # poisoned the pool.  ProcessBackend already dropped the dead
            # pool on this exception, so rerunning builds a fresh one;
            # the job reuses the same salt, so the retried partials are
            # bit-identical to what the dead worker would have produced.
            # One retry only: a second death is a real failure, and it
            # propagates to feed()/finish() like any other.
            with self._lock:
                self._stats.worker_restarts += 1
            frames[:] = 0
            lens[:] = 0
            PROCESS_POOL.run(job, shards)
        merged = self._resident
        for i in range(len(edges)):
            n = int(lens[i])
            if n == 0:
                raise StreamError(f"shard {i} returned no partial frame")
            partial = load_as(StreamSummary, frames[i, :n].tobytes())
            merged = merge_summaries(merged, partial, rng=self._rng)
            with self._lock:
                self._stats.folds += 1
        return merged


# ----------------------------------------------------------------------
# Stream sources: bounded-memory batch iterators over byte/text streams.
# ----------------------------------------------------------------------
def batches_from_text(
    stream: IO[str],
    batch_items: int = DEFAULT_BATCH_ITEMS,
    *,
    max_items: int | None = None,
    read_chars: int = 1 << 20,
) -> Iterator[np.ndarray]:
    """Micro-batches of whitespace-separated integer ids from a text stream.

    Reads ``read_chars`` at a time and never materializes more than one
    window plus one pending batch, so an unbounded stdin stays bounded.
    ``max_items`` truncates the stream after that many items (the tail of
    the source is left unread).

    Raises
    ------
    StreamError
        On a token that is not an integer.
    """
    if batch_items < 1:
        raise StreamError(f"batch_items must be >= 1, got {batch_items}")
    pending: list[np.ndarray] = []
    have = 0
    emitted = 0

    def flush(arrs: list[np.ndarray]) -> np.ndarray:
        return arrs[0] if len(arrs) == 1 else np.concatenate(arrs)

    def parse(text: str) -> np.ndarray:
        try:
            return np.array(text.split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise StreamError(f"invalid item token in text stream: {exc}") from None

    tail = ""
    eof = False
    while not eof:
        chunk = stream.read(read_chars)
        if not chunk:
            eof = True
            text, tail = tail, ""
        else:
            merged_text = tail + chunk
            # Hold back a trailing partial token for the next window.
            cut = len(merged_text)
            while cut > 0 and not merged_text[cut - 1].isspace():
                cut -= 1
            text, tail = merged_text[:cut], merged_text[cut:]
            if not text:
                continue  # one token larger than the window; keep reading
        arr = parse(text) if text.strip() else np.empty(0, dtype=np.int64)
        if arr.size:
            pending.append(arr)
            have += arr.size
        while have >= batch_items or (eof and have > 0):
            whole = flush(pending)
            batch, rest = whole[:batch_items], whole[batch_items:]
            pending, have = ([rest], int(rest.size)) if rest.size else ([], 0)
            if max_items is not None and emitted + batch.size > max_items:
                batch = batch[: max_items - emitted]
            if batch.size:
                emitted += int(batch.size)
                yield batch
            if max_items is not None and emitted >= max_items:
                return


def batches_from_binary(
    stream: IO[bytes],
    batch_items: int = DEFAULT_BATCH_ITEMS,
    *,
    max_items: int | None = None,
) -> Iterator[np.ndarray]:
    """Micro-batches of little-endian u64 item ids from a binary stream.

    The wire-speed input format of ``repro stream --format u64``: eight
    bytes per item, no framing, one :func:`numpy.frombuffer` per batch.
    Reads at most one batch's bytes ahead.

    Raises
    ------
    StreamError
        If the stream ends mid-item or an id exceeds ``2**63 - 1``.
    """
    if batch_items < 1:
        raise StreamError(f"batch_items must be >= 1, got {batch_items}")
    emitted = 0
    carry = b""
    while True:
        if max_items is not None and emitted >= max_items:
            return
        want = batch_items * 8 - len(carry)
        data = stream.read(want)
        buf = carry + (data or b"")
        usable = len(buf) - len(buf) % 8
        carry = buf[usable:]
        if usable:
            raw = np.frombuffer(buf[:usable], dtype="<u8")
            if raw.size and int(raw.max()) > np.iinfo(np.int64).max:
                raise StreamError("item id exceeds the signed 64-bit range")
            batch = raw.astype(np.int64)
            if max_items is not None and emitted + batch.size > max_items:
                batch = batch[: max_items - emitted]
            emitted += int(batch.size)
            yield batch
        if not data:
            if carry:
                raise StreamError(
                    f"truncated u64 item stream: {len(carry)} trailing bytes"
                )
            return
