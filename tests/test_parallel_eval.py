"""Tests for the sharded batch evaluators and their executors.

The contract: every worker count produces bit-identical arrays (values
and dtype) -- shards are contiguous slices of one preallocated output
running the same kernel code -- and the auto heuristics keep tiny
problems serial so they never pay dispatch.  Where shards run is decided
by the job: query sweeps run inline or on threads, never in another
process, and the shared-memory process pool that sketches stream
partials keeps its own lifecycle contract (no leaked blocks, no pickled
rows, recovery from a dead worker, teardown at exit).

``resolve_workers`` clamps every requested count to ``os.cpu_count()``,
so the forced-sharding tests pretend to have several cores (the kernels
themselves are oblivious: over-sharding a 1-core host is slow, never
wrong).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import sys
import threading
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    BinaryDatabase,
    FrequencyOracle,
    PackedColumns,
    PackedRows,
    all_frequencies,
    packed,
)
from repro.db import _native, backends
from repro.db.backends import SHM_PREFIX, ProcessBackend, ShardJob
from repro.db.packed import (
    PARALLEL_MIN_WORDS,
    _MAX_AUTO_WORKERS,
    combination_index_array,
    resolve_kernel,
    resolve_workers,
)
from repro.errors import ParameterError
from repro.streaming import SUMMARY_KINDS, StreamPipeline, SummarySpec
from repro.streaming import pipeline as pipeline_module

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _leftover_segments() -> list[str]:
    if sys.platform != "linux":  # pragma: no cover - CI and dev are linux
        return []
    return glob.glob(f"/dev/shm/{SHM_PREFIX}*")


@pytest.fixture(scope="module")
def kernel() -> PackedColumns:
    rng = np.random.default_rng(42)
    # 150 rows -> 3 words per column; 12 items -> C(12, 4) = 495 leaves.
    return PackedColumns(rng.random((150, 12)) < 0.35)


@pytest.mark.usefixtures("many_cores")
class TestWorkerEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_combination_supports_identical_across_workers(self, kernel, k):
        idx1, serial = kernel.combination_supports(k, workers=1)
        idx4, sharded = kernel.combination_supports(k, workers=4)
        assert np.array_equal(idx1, idx4)
        assert np.array_equal(serial, sharded)
        assert serial.dtype == sharded.dtype == np.int64
        assert serial.shape == (comb(kernel.d, k),)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_supports_batch_identical_across_workers(self, kernel, k):
        batch = list(combinations(range(kernel.d), k))
        serial = kernel.supports_batch(batch, workers=1)
        sharded = kernel.supports_batch(batch, workers=4)
        assert np.array_equal(serial, sharded)
        assert serial.dtype == sharded.dtype == np.int64

    def test_ragged_batch_identical_across_workers(self, kernel):
        batch = [(), (0,), (1, 3, 5), (11,), (0, 2), ()]
        serial = kernel.supports_batch(batch, workers=1)
        for w in (2, 3, 4, 7):
            assert np.array_equal(kernel.supports_batch(batch, workers=w), serial)

    def test_small_chunks_force_many_shard_steps(self, kernel):
        # chunk_size smaller than the shard length exercises the inner loop.
        _, serial = kernel.combination_supports(3, chunk_size=7, workers=1)
        _, sharded = kernel.combination_supports(3, chunk_size=7, workers=4)
        assert np.array_equal(serial, sharded)

    def test_more_workers_than_leaves(self, kernel, monkeypatch):
        # 64 cores pretended so the clamp leaves workers > C(12, 1) = 12
        # leaves and the min(workers, total) degenerate path really runs.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        _, serial = kernel.combination_supports(1, workers=1)
        _, sharded = kernel.combination_supports(1, workers=64)
        assert np.array_equal(serial, sharded)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_kernel_identical_across_workers(self, k):
        rng = np.random.default_rng(17)
        rows = rng.random((130, 70)) < 0.4  # two words per packed row
        pr = PackedRows(rows)
        batch = list(combinations(range(8), k)) + [(), (69,)]
        serial_masks = pr.contains_batch(batch, workers=1)
        sharded_masks = pr.contains_batch(batch, workers=4)
        assert np.array_equal(serial_masks, sharded_masks)
        assert serial_masks.dtype == sharded_masks.dtype == np.bool_
        serial = pr.supports_batch(batch, workers=1)
        sharded = pr.supports_batch(batch, workers=4)
        assert np.array_equal(serial, sharded)
        assert serial.dtype == sharded.dtype == np.int64

    def test_support_counts_all_identical_across_workers(self, kernel):
        for k in (1, 2, 3):
            assert np.array_equal(
                kernel.support_counts_all(k, workers=1),
                kernel.support_counts_all(k, workers=4),
            )

    def test_counts_match_naive_path(self, kernel):
        rows = np.array(
            [[(w >> b) & 1 for b in range(kernel.d)] for w in range(150)], dtype=bool
        )
        pc = PackedColumns(rows)
        idx = combination_index_array(pc.d, 3)
        sharded = pc.supports_for_index_array(idx, workers=4)
        naive = np.array(
            [int(rows[:, list(t)].all(axis=1).sum()) for t in map(tuple, idx)],
            dtype=np.int64,
        )
        assert np.array_equal(sharded, naive)


@pytest.mark.usefixtures("many_cores")
class TestOracleAndQueriesPassThrough:
    def test_oracle_workers_identical(self):
        rng = np.random.default_rng(5)
        db = BinaryDatabase(rng.random((130, 10)) < 0.4)
        oracle = FrequencyOracle(db)
        itemsets = list(combinations(range(10), 2))
        assert np.array_equal(
            oracle.supports_batch(itemsets, workers=1),
            oracle.supports_batch(itemsets, workers=4),
        )
        assert np.array_equal(
            oracle.all_supports(3, workers=1), oracle.all_supports(3, workers=4)
        )

    def test_all_frequencies_workers_identical(self):
        rng = np.random.default_rng(6)
        db = BinaryDatabase(rng.random((100, 9)) < 0.3)
        assert all_frequencies(db, 2, workers=1) == all_frequencies(db, 2, workers=4)


@pytest.mark.usefixtures("two_cores")
class TestSweepExecutor:
    """Query sweeps shard on threads of this process, never on the pool."""

    def test_large_sweep_runs_on_threads(self, in_process_only, monkeypatch):
        """The C(28, 4) sweep over 65,536 rows (41.9 M word operations) at
        ``workers=2`` and auto: two thread shards in this process, no
        shared-memory block published, no process started."""
        tier = resolve_kernel()
        real = packed._KERNEL_IMPLS["combination_supports", tier]
        seen = []

        def recording(arrays, outs, lo, hi, params):
            seen.append((os.getpid(), threading.get_ident()))
            real(arrays, outs, lo, hi, params)

        monkeypatch.setitem(
            packed._KERNEL_IMPLS, ("combination_supports", tier), recording
        )
        pc = PackedColumns(np.random.default_rng(28).random((65_536, 28)) < 0.3)
        _, serial = pc.combination_supports(4, workers=1)
        assert seen == [(os.getpid(), threading.get_ident())]
        for workers in (2, None):
            seen.clear()
            _, counts = pc.combination_supports(4, workers=workers)
            assert np.array_equal(counts, serial)
            assert len(seen) == 2  # one call per shard
            assert {pid for pid, _ in seen} == {os.getpid()}
            threads = {ident for _, ident in seen}
            assert len(threads) == 2 and threading.get_ident() not in threads
        assert not _leftover_segments()


@pytest.fixture
def in_process_only(monkeypatch):
    """Fail the test if anything publishes shared memory or starts a process."""

    def refuse(*args, **kwargs):
        raise AssertionError("a query sweep left this process")

    monkeypatch.setattr(backends.shared_memory, "SharedMemory", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


@pytest.mark.usefixtures("many_cores")
class TestBackendResolution:
    """A sweep's executor follows its volume: inline, then threads."""

    def test_auto_escalates_by_volume(self, in_process_only, monkeypatch):
        """Below :data:`PARALLEL_MIN_WORDS` a sweep runs inline; from there
        on it shards on one thread per core -- never in another process."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        shard_counts = []

        def recording(job, workers):
            shard_counts.append(workers)
            backends.run_threaded(job, workers)

        monkeypatch.setattr(packed, "run_threaded", recording)
        # 4,096 rows = 64 words per column; 2-itemsets cost 2 * 64 words.
        pc = PackedColumns(np.random.default_rng(3).random((4096, 64)) < 0.4)
        pairs = list(combinations(range(pc.d), 2))
        per_query = 2 * pc.n_words
        small = pairs[: PARALLEL_MIN_WORDS // per_query - 1]
        large = pairs[: PARALLEL_MIN_WORDS // per_query]
        small_counts = pc.supports_batch(small)
        large_counts = pc.supports_batch(large)
        assert shard_counts == [1, 4]
        assert np.array_equal(large_counts[: len(small)], small_counts)
        assert np.array_equal(large_counts, pc.supports_batch(large, workers=1))


@pytest.mark.usefixtures("many_cores")
class TestProcessBackendDifferential:
    """The process pool answers bit-for-bit like inline execution."""

    @given(
        kind=st.sampled_from(sorted(SUMMARY_KINDS)),
        size=st.integers(min_value=1, max_value=3000),
        shards=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=12, deadline=None)
    def test_forced_process_backend_bit_identical(self, kind, size, shards, seed):
        """Partial frames sketched in pool processes equal inline ones."""
        spec = SummarySpec(kind, universe=64, k=5, width=32, depth=3, size=16)
        items = np.random.default_rng(seed).integers(0, 64, size=size)

        def partial_job() -> ShardJob:
            edges = backends.shard_edges(size, shards)
            capacity = pipeline_module._frame_capacity(spec)
            return ShardJob(
                kernel=pipeline_module._partial_sketch_kernel,
                arrays={"items": items},
                outs={
                    "frames": np.zeros((len(edges), capacity), dtype=np.uint8),
                    "lens": np.zeros(len(edges), dtype=np.int64),
                },
                total=size,
                params={
                    "spec": spec.to_params(),
                    "edges": [lo for lo, _ in edges],
                    "salt": seed % 7,
                },
            )

        inline, pooled = partial_job(), partial_job()
        for lo, hi in backends.shard_edges(size, shards):
            inline.run_slice(lo, hi)
        backends.PROCESS_POOL.run(pooled, shards)
        assert (pooled.outs["lens"] > 0).all()
        for name in ("frames", "lens"):
            assert np.array_equal(inline.outs[name], pooled.outs[name])
        assert not _leftover_segments()


def _square_kernel(arrays, outs, lo, hi, params):
    """Module-level on purpose: the process pool ships kernels by name."""
    outs["y"][lo:hi] = arrays["x"][lo:hi] ** 2


def _boom_kernel(arrays, outs, lo, hi, params):
    raise ValueError("shard exploded")


def _die_kernel(arrays, outs, lo, hi, params):
    """Kill the worker process outright (poisons the executor)."""
    os._exit(1)


def _job(kernel, n: int = 64) -> ShardJob:
    return ShardJob(
        kernel=kernel,
        arrays={"x": np.arange(n, dtype=np.int64)},
        outs={"y": np.zeros(n, dtype=np.int64)},
        total=n,
    )


def _run_squares(backend: ProcessBackend, workers: int) -> None:
    job = _job(_square_kernel)
    backend.run(job, workers)
    assert np.array_equal(job.outs["y"], np.arange(64) ** 2)


_SPEC = SummarySpec("count-min", universe=64, width=32, depth=3, seed=11)
_STREAM = np.random.default_rng(9).integers(0, 64, size=12_000)


def _pipeline_matches_one_shot() -> None:
    """A 2-worker pipeline (partials in pool processes) equals one-shot."""
    piped = StreamPipeline(_SPEC, batch_items=4000, workers=2).run([_STREAM])
    oneshot = _SPEC.build()
    oneshot.update_many(_STREAM)
    assert piped.to_bytes() == oneshot.to_bytes()


class TestProcessBackendLifecycle:
    def test_shm_cleanup_on_worker_exception(self, many_cores):
        backend = ProcessBackend()
        try:
            with pytest.raises(ValueError, match="shard exploded"):
                backend.run(_job(_boom_kernel), workers=2)
            assert not _leftover_segments()
        finally:
            backend.shutdown()

    def test_shm_cleanup_after_success(self, many_cores):
        _pipeline_matches_one_shot()
        assert backends.PROCESS_POOL._pool is not None  # it ran in the pool
        assert not _leftover_segments()

    def test_no_row_data_pickled(self, many_cores, monkeypatch):
        """Only descriptors and scalars cross the process boundary."""
        from concurrent.futures import ProcessPoolExecutor

        backend = ProcessBackend()
        monkeypatch.setattr(pipeline_module, "PROCESS_POOL", backend)
        recorded = []
        original = ProcessPoolExecutor.submit

        def spy(pool, fn, *args, **kwargs):
            recorded.append(args)
            return original(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        try:
            _pipeline_matches_one_shot()
            assert recorded, "the pipeline never reached the pool"
            for args in recorded:
                _, array_descs, out_descs, params, lo, hi = args
                descs = list(array_descs.values()) + list(out_descs.values())
                for shm_name, shape, dtype in descs:
                    assert shm_name.startswith(SHM_PREFIX)
                    assert isinstance(shape, tuple) and isinstance(dtype, str)
                payload = list(params.values()) + [lo, hi]
                assert not any(isinstance(v, np.ndarray) for v in payload)
        finally:
            backend.shutdown()

    def test_spawn_context_regression(self, many_cores, monkeypatch):
        """Workers are spawned, re-import repro, and sketch exact partials."""
        backend = ProcessBackend()
        monkeypatch.setattr(pipeline_module, "PROCESS_POOL", backend)
        try:
            _pipeline_matches_one_shot()
            assert backend._pool._mp_context.get_start_method() == "spawn"
            assert not _leftover_segments()
        finally:
            backend.shutdown()

    def test_worker_start_imports_no_scipy(self):
        """A spawned worker imports ``repro`` to unpickle its entry point
        and the partial kernel; scipy must stay off that path, or every
        pool start pays its import (about 1.1 s a worker)."""
        import subprocess

        script = (
            "import sys, repro.db.backends, repro.streaming.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_broken_pool_recovers_and_cleans_up(self, many_cores):
        """A killed worker poisons one run, not the backend."""
        from concurrent.futures.process import BrokenProcessPool

        backend = ProcessBackend()
        try:
            with pytest.raises(BrokenProcessPool):
                backend.run(_job(_die_kernel), workers=2)
            assert not _leftover_segments()
            # The next run gets a fresh pool and succeeds.
            _run_squares(backend, workers=2)
        finally:
            backend.shutdown()

    def test_pool_reuse_and_growth(self, many_cores):
        backend = ProcessBackend()
        try:
            _run_squares(backend, workers=2)
            first = backend._pool
            _run_squares(backend, workers=2)
            assert backend._pool is first  # reused, not rebuilt
            _run_squares(backend, workers=4)
            assert backend._pool_workers == 4  # grown on demand
        finally:
            backend.shutdown()

    def test_shm_cleanup_on_exception_in_reused_pool(self, many_cores):
        """A raising kernel unlinks every block on the *warm* pool too.

        The fresh-pool case is covered above; this pins the second-call
        path, where the existing executor is reused and the
        publish/cleanup bracket must still run unconditionally.
        """
        backend = ProcessBackend()
        try:
            # Warm the pool with a successful run first.
            _run_squares(backend, workers=2)
            warm = backend._pool
            assert warm is not None
            with pytest.raises(ValueError, match="shard exploded"):
                backend.run(_job(_boom_kernel), workers=2)
            assert backend._pool is warm  # the reused pool, not a fresh one
            assert not _leftover_segments()
            # The pool survives the failed run and keeps answering.
            _run_squares(backend, workers=2)
            assert not _leftover_segments()
        finally:
            backend.shutdown()


class TestAutoHeuristic:
    def test_tiny_inputs_stay_serial(self):
        assert resolve_workers(None, 0) == 1
        assert resolve_workers(None, PARALLEL_MIN_WORDS - 1) == 1

    def test_large_inputs_scale_with_cores(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers(None, PARALLEL_MIN_WORDS) == 6
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert resolve_workers(None, PARALLEL_MIN_WORDS) == _MAX_AUTO_WORKERS
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert resolve_workers(None, PARALLEL_MIN_WORDS) == 1

    def test_explicit_workers_win(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_workers(3, 0) == 3
        assert resolve_workers(1, 10**12) == 1

    def test_invalid_worker_counts(self):
        with pytest.raises(ParameterError):
            resolve_workers(0, 100)
        with pytest.raises(ParameterError):
            resolve_workers(-2, 100)


class TestWorkerClamp:
    """Nothing may oversubscribe the host's cores."""

    def test_explicit_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert resolve_workers(64, 10**9) == 2
        assert resolve_workers(2, 0) == 2
        assert resolve_workers(1, 10**9) == 1

    def test_auto_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert resolve_workers(None, 10**9) == 2

    def test_unknown_cpu_count_means_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_workers(8, 10**9) == 1
        assert resolve_workers(None, 10**9) == 1

    def test_clamped_results_still_identical(self, kernel, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        _, clamped = kernel.combination_supports(3, workers=64)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        _, wide = kernel.combination_supports(3, workers=8)
        assert np.array_equal(clamped, wide)


class TestKernelEnvResolution:
    """The kernel tier follows the host environment -- whether the
    compiled module loads -- and nothing else."""

    def test_resolution_matches_availability(self):
        expected = "native" if _native.available() else "numpy"
        assert resolve_kernel() == expected

    def test_auto_falls_back_silently_without_native(self, native_unavailable):
        import warnings

        with native_unavailable(), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel() == "numpy"
            assert not _native.available()
            assert "forced" in (_native.unavailable_reason() or "")

    def test_sweeps_stay_correct_without_native(self, native_unavailable, kernel):
        """End to end: the numpy-only world answers like this host's tier."""
        expected = kernel.combination_supports(2, workers=1)[1]
        with native_unavailable():
            assert resolve_kernel() == "numpy"
            for workers in (1, 3):
                assert np.array_equal(
                    kernel.combination_supports(2, workers=workers)[1], expected
                )


class TestAtexitTeardown:
    """Interpreter exit must retire the shared pool and leave no shm.

    A ``repro stream`` killed by SIGTERM, or any long-lived host, never
    reaches an explicit ``shutdown()``; the atexit hook has to tear the
    lazily created worker pool down so no ``repro_shm_*`` segments or
    pool workers outlive the process.
    """

    def test_interpreter_exit_retires_pools_and_shm(self):
        import subprocess
        import textwrap

        script = textwrap.dedent(
            """
            import os
            os.cpu_count = lambda: 8
            import numpy as np
            from repro.db import backends
            from repro.streaming import SUMMARY_KINDS, StreamPipeline, SummarySpec

            spec = SummarySpec("count-min", universe=64, width=32, depth=3)
            stream = np.arange(8192, dtype=np.int64) % 64
            StreamPipeline(spec, batch_items=4096, workers=2).run([stream])
            assert backends.PROCESS_POOL._pool is not None, "pool never spun up"
            print("PIPELINE-OK", flush=True)
            # Exit WITHOUT calling shutdown(): the atexit hook must do it.
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PIPELINE-OK" in proc.stdout
        assert not _leftover_segments()
        # No resource-tracker complaints about leaked segments either.
        assert "leaked shared_memory" not in proc.stderr

    def test_atexit_hook_is_registered_and_idempotent(self):
        pool = backends.PROCESS_POOL
        pool.shutdown()  # the exit hook: a no-op with no pool running
        pool.shutdown()
        assert pool._pool is None
