"""Shard execution for query sweeps: inline or on threads.

The sharded evaluators in :mod:`repro.db.packed` split an index range
into contiguous shards and run one kernel function ``kernel(arrays, outs,
lo, hi, params)`` per shard, each writing a disjoint slice of a
preallocated output, so the answer cannot depend on the shard count.
``workers`` is the only setting: :func:`run_threaded` runs one worker
inline and more on a :class:`~concurrent.futures.ThreadPoolExecutor` over
the shared arrays.  The sweep's time goes to calls that release the GIL
(the cffi C kernels, numpy's AND and popcount loops), so threads scale
with no copying.  Measured with 2 workers on a 2-vCPU host, the
``C(28, 4)`` sweep over 65,536 rows took 40 ms on threads and 67 ms on a
shared-memory process pool with the native kernels (104 vs 139 ms with
numpy): publishing the packed words cost more than processes saved.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = ["ShardJob", "run_threaded", "shard_edges"]

#: Kernel signature shared by all sharded jobs: read-only input arrays,
#: preallocated outputs, a contiguous index range, scalar params.
ShardKernel = Callable[
    [Mapping[str, np.ndarray], Mapping[str, np.ndarray], int, int, Mapping], None
]


@dataclass
class ShardJob:
    """One sharded run: a kernel plus the arrays it reads and writes.

    ``arrays`` are read-only inputs, ``outs`` preallocated outputs whose
    disjoint ``[lo:hi]`` slices the shards fill, ``params`` scalar
    settings, and ``total`` the index range being sharded.
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
