"""Shard executors: threads for query sweeps, a process pool for partials.

The sharded evaluators in :mod:`repro.db.packed` and the stream pipeline
in :mod:`repro.streaming.pipeline` split an index range into contiguous
shards and run one kernel function ``kernel(arrays, outs, lo, hi,
params)`` per shard, each writing a disjoint slice of a preallocated
output, so the answer cannot depend on the shard count or on where the
shards run.  ``workers`` is the only setting; the executor follows from
the kind of job, each chosen by measurement (2-vCPU host, 2 workers):

* :func:`run_threaded` runs **query sweeps**: inline for one worker, else
  on a :class:`~concurrent.futures.ThreadPoolExecutor` over the shared
  arrays.  The sweep's time goes to calls that release the GIL (the cffi
  C kernels, numpy's AND and popcount loops), so threads scale with no
  copying.  The ``C(28, 4)`` sweep over 65,536 rows took 40 ms on threads
  and 67 ms on the process pool with the native kernels (104 vs 139 ms
  with numpy): publishing the packed words costs more than processes
  save.
* :class:`ProcessBackend` runs **stream-pipeline partials**: a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` over named
  :mod:`multiprocessing.shared_memory` blocks.  Building a summary partial
  is Python-level work under the GIL, so processes win there: over 1 M
  Zipf items in 131,072-item batches, Misra-Gries took 267 ms against
  422 ms on threads, Space-Saving 1.6 s against 3.1 s, and reservoir
  sampling 1.6 s against 2.9 s (Count-Min about even, 170 vs 189 ms).
  Input arrays are published once per run; workers reattach by
  ``(shm_name, shape, dtype)`` and write a shared output block, so **no
  row data or results are ever pickled** -- only descriptor tuples and
  scalar params cross the process boundary.  :data:`PROCESS_POOL` is the
  instance the pipelines share.

Lifecycle
---------
Shared-memory blocks are created per ``run`` call and unconditionally
closed and unlinked in a ``finally`` block, worker exceptions included --
a failed run leaves nothing in ``/dev/shm``.  Workers attach without
resource-tracker registration (the parent owns the segments; on Python <
3.13 the tracker would otherwise double-count attachments), and drop
their numpy views before closing.  The worker pool itself is lazily
created, reused across calls to amortize startup, grown on demand,
rebuilt after a worker dies, and torn down by
:meth:`ProcessBackend.shutdown` or interpreter exit.
"""

from __future__ import annotations

import atexit
import secrets
import sys
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "ShardJob",
    "ProcessBackend",
    "PROCESS_POOL",
    "run_threaded",
    "shard_edges",
    "SHM_PREFIX",
]

#: Name prefix for every shared-memory block this module creates; tests
#: scan ``/dev/shm`` for it to assert cleanup.
SHM_PREFIX = "repro_shm_"

#: Kernel signature shared by all sharded jobs: read-only input arrays,
#: preallocated outputs, a contiguous index range, scalar params.
ShardKernel = Callable[
    [Mapping[str, np.ndarray], Mapping[str, np.ndarray], int, int, Mapping], None
]


@dataclass
class ShardJob:
    """One sharded run: a kernel plus the arrays it reads and writes.

    ``kernel`` must be a module-level function (the process pool ships it
    by qualified name); ``arrays`` are read-only inputs, ``outs``
    preallocated outputs whose disjoint ``[lo:hi]`` slices the shards
    fill, ``params`` picklable scalars, and ``total`` the index range
    being sharded.
    """

    kernel: ShardKernel
    arrays: dict[str, np.ndarray]
    outs: dict[str, np.ndarray]
    total: int
    params: dict = field(default_factory=dict)

    def run_slice(self, lo: int, hi: int) -> None:
        """Run the kernel over ``[lo, hi)`` in the calling thread."""
        self.kernel(self.arrays, self.outs, lo, hi, self.params)


def shard_edges(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` shard bounds covering ``range(total)``."""
    edges = np.linspace(0, total, workers + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def run_threaded(job: ShardJob, workers: int) -> None:
    """Run ``job`` over at most ``workers`` thread shards (1 runs inline)."""
    workers = min(workers, job.total)
    if workers <= 1:
        job.run_slice(0, job.total)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(job.run_slice, lo, hi)
            for lo, hi in shard_edges(job.total, workers)
        ]
        for future in futures:
            future.result()


def _attach_untracked(shm_name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker registration.

    The parent that created the block owns its lifetime; worker-side
    registration would make the tracker double-count the segment (and
    complain, or unlink prematurely, at worker exit).  Python 3.13 has
    ``track=False`` for exactly this; older versions need the register
    call suppressed for the duration of the attach.
    """
    if sys.version_info >= (3, 13):  # pragma: no cover - 3.11/3.12 container
        return shared_memory.SharedMemory(name=shm_name, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original


#: Descriptor a worker needs to reattach one published array:
#: ``(shm_name, shape, dtype_str)``.
_ArrayDesc = tuple[str, tuple[int, ...], str]


def _shard_entry(
    kernel: ShardKernel,
    array_descs: dict[str, _ArrayDesc],
    out_descs: dict[str, _ArrayDesc],
    params: dict,
    lo: int,
    hi: int,
) -> None:
    """Worker-side shard: reattach by descriptor, run, detach.

    Everything crossing the process boundary is in this signature: the
    kernel (pickled as a module-qualified name), descriptor tuples, and
    scalar params -- never array contents.
    """
    segments: list[shared_memory.SharedMemory] = []
    arrays: dict[str, np.ndarray] = {}
    outs: dict[str, np.ndarray] = {}
    try:
        for name, (shm_name, shape, dtype) in array_descs.items():
            shm = _attach_untracked(shm_name)
            segments.append(shm)
            arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        for name, (shm_name, shape, dtype) in out_descs.items():
            shm = _attach_untracked(shm_name)
            segments.append(shm)
            outs[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        kernel(arrays, outs, lo, hi, params)
    finally:
        # numpy views pin the mapped buffer; drop them before closing.
        arrays.clear()
        outs.clear()
        for shm in segments:
            shm.close()


class _ShmPublisher:
    """Parent-side shared-memory lifecycle for one run.

    Publishes arrays into fresh named blocks and guarantees close+unlink
    on every exit path via :meth:`cleanup` (called from the backend's
    ``finally``), so a failed run leaves no segments behind.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._views: list[np.ndarray] = []

    def publish(self, arr: np.ndarray) -> tuple[_ArrayDesc, np.ndarray]:
        """Copy ``arr`` into a new block; return its descriptor and view."""
        arr = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(arr.nbytes, 1),
            name=SHM_PREFIX + secrets.token_hex(8),
        )
        self._segments.append(shm)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        self._views.append(view)
        return (shm.name, arr.shape, arr.dtype.str), view

    def cleanup(self) -> None:
        """Close and unlink every block created by this publisher."""
        self._views.clear()  # views pin the mapped buffers
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()


class ProcessBackend:
    """Process-pool execution over named shared-memory blocks.

    Workers start with the ``spawn`` method.  A forked worker inherits
    every lock another thread of the parent held at the fork: ``repro
    stream -`` forks while its main thread blocks in a read of stdin, and
    each forked worker then hung for good when multiprocessing closed
    that stdin at worker start.  Spawned workers re-import :mod:`repro`
    (``sys.path`` and the environment are passed on) to unpickle their
    entry point and kernel, about 0.3 s of start-up per worker, once per
    pool; that path imports no scipy, which would add about 1.1 s.

    The pool is created lazily on first use and reused across runs; it
    grows to the largest shard count asked of it.  Shared-memory blocks
    are per-run and always unlinked, error paths included.
    """

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._lock = threading.Lock()

    def _ensure_pool_locked(self, workers: int) -> ProcessPoolExecutor:
        """Pool with capacity for ``workers`` shards; caller holds ``_lock``."""
        if self._pool is not None and self._pool_workers < workers:
            # Growing waits for in-flight runs to drain (their shards
            # were submitted under the lock, so none can hit the old pool
            # after this point).
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=workers, mp_context=get_context("spawn")
            )
            self._pool_workers = workers
        return self._pool

    def run(self, job: ShardJob, workers: int) -> None:
        """Publish inputs and outputs once, fan shards out, copy results back.

        ``workers <= 1`` (or an empty range) runs inline in the calling
        thread, so the pool is only ever asked for multi-shard runs.
        A dead worker raises :class:`BrokenProcessPool` and drops the
        pool, so the next run starts a fresh one.
        """
        workers = min(workers, job.total)
        if workers <= 1:
            job.run_slice(0, job.total)
            return
        publisher = _ShmPublisher()
        try:
            array_descs = {
                name: publisher.publish(arr)[0] for name, arr in job.arrays.items()
            }
            out_views: dict[str, np.ndarray] = {}
            out_descs: dict[str, _ArrayDesc] = {}
            for name, out in job.outs.items():
                # publish() copies the (uninitialized) output buffer too;
                # that memcpy is the price of one code path, and outputs
                # are small relative to the inputs.
                desc, view = publisher.publish(out)
                out_descs[name] = desc
                out_views[name] = view
            # Submitting under the lock pins the pool for this run: a
            # concurrent run() that needs a bigger pool replaces it only
            # between runs, never under one (its shutdown(wait=True)
            # drains these shards first).
            with self._lock:
                pool = self._ensure_pool_locked(workers)
                futures = [
                    pool.submit(
                        _shard_entry,
                        job.kernel,
                        array_descs,
                        out_descs,
                        job.params,
                        lo,
                        hi,
                    )
                    for lo, hi in shard_edges(job.total, workers)
                ]
            try:
                for future in futures:
                    future.result()
            except BrokenProcessPool:
                # A dead worker poisons the whole executor; drop it so the
                # next run gets a fresh pool instead of the same error.
                with self._lock:
                    if self._pool is pool:
                        self._pool = None
                        self._pool_workers = 0
                raise
            for name, out in job.outs.items():
                out[...] = out_views[name]
        finally:
            publisher.cleanup()

    def shutdown(self) -> None:
        """Tear the worker pool down (it is re-created on next use)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_workers = 0


#: The pool every stream pipeline shares.  Its workers start on first use
#: and are reused across runs.  Long-lived hosts -- the sketch server, a
#: ``repro stream`` killed by SIGTERM -- must not orphan them, so
#: interpreter exit retires the pool (per-run cleanup already unlinks
#: every shared-memory block).
PROCESS_POOL = ProcessBackend()
atexit.register(PROCESS_POOL.shutdown)
