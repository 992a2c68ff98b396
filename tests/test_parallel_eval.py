"""Tests for the sharded batch evaluators and their executors.

The contract: every worker count produces bit-identical arrays (values
and dtype) -- shards are contiguous slices of one preallocated output
running the same kernel code -- and the auto heuristics keep tiny
problems serial so they never pay dispatch.  Query sweeps run inline or
on threads, never in another process.

``resolve_workers`` clamps every requested count to ``os.cpu_count()``,
so the forced-sharding tests pretend to have several cores (the kernels
themselves are oblivious: over-sharding a 1-core host is slow, never
wrong).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.shared_memory
import os
import threading
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.db import (
    BinaryDatabase,
    FrequencyOracle,
    PackedColumns,
    PackedRows,
    all_frequencies,
    packed,
)
from repro.db import _native, backends
from repro.db.packed import (
    PARALLEL_MIN_WORDS,
    _MAX_AUTO_WORKERS,
    combination_index_array,
    resolve_kernel,
    resolve_workers,
)
from repro.errors import ParameterError


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
    """Query sweeps shard on threads of this process, never elsewhere."""

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


@pytest.fixture
def in_process_only(monkeypatch):
    """Fail the test if anything publishes shared memory or starts a process."""

    def refuse(*args, **kwargs):
        raise AssertionError("a query sweep left this process")

    monkeypatch.setattr(multiprocessing.shared_memory, "SharedMemory", refuse)
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
