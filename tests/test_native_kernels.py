"""Differential tests for the cffi-compiled native kernel tier.

The contract: the native kernels must be **bit-identical** to the numpy
reference for every kernel (index supports, combination sweep, row
containment) at every worker count.  Which tier runs is not a setting --
it is native whenever the compiled module loads -- so the numpy answers
come from the same calls inside the ``native_unavailable`` switch
(``conftest.py``), which makes the loader fail as on a host without cffi
or a compiler.  Sweeps shard on threads, so every case runs at one
worker (inline) and three (thread shards); the hypothesis differential
drives random shapes through both.

The differential classes skip cleanly when the native tier cannot load
(no cffi, no compiler) -- that world is itself under test through the
same switch in ``test_parallel_eval.py`` -- and the graceful-degradation
unit tests here run on either world.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import _native
from repro.db.packed import PackedColumns, PackedRows, combination_index_array
from repro.errors import ParameterError

needs_native = pytest.mark.skipif(
    not _native.available(),
    reason=f"native kernel tier unavailable: {_native.unavailable_reason()}",
)

#: Worker counts of the differential: one runs inline, three shard on
#: threads (the ids name the executor each one gets).
WORKERS = [pytest.param(1, id="serial"), pytest.param(3, id="thread")]


@pytest.fixture(scope="module")
def pc() -> PackedColumns:
    rng = np.random.default_rng(31)
    # 200 rows -> 4 words per column; 12 items -> C(12, 4) = 495 leaves.
    return PackedColumns(rng.random((200, 12)) < 0.35)


@pytest.fixture(scope="module")
def pr() -> PackedRows:
    rng = np.random.default_rng(32)
    return PackedRows(rng.random((170, 70)) < 0.4)  # two words per row


@needs_native
@pytest.mark.usefixtures("many_cores")
class TestNativeNumpyDifferential:
    """numpy vs native, bit for bit, on every kernel and worker count."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_combination_supports(self, pc, native_unavailable, workers, k):
        with native_unavailable():
            idx_np, ref = pc.combination_supports(k, workers=1)
        idx_nat, native = pc.combination_supports(k, workers=workers)
        assert np.array_equal(idx_np, idx_nat)
        assert np.array_equal(ref, native)
        assert native.dtype == np.int64
        assert native.shape == (comb(pc.d, k),)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_index_supports(self, pc, native_unavailable, workers):
        idx = combination_index_array(pc.d, 3)
        with native_unavailable():
            ref = pc.supports_for_index_array(idx, workers=1)
        native = pc.supports_for_index_array(idx, workers=workers)
        assert np.array_equal(ref, native)
        assert native.dtype == np.int64

    @pytest.mark.parametrize("workers", WORKERS)
    def test_ragged_batch(self, pc, native_unavailable, workers):
        # Empty itemsets, duplicates, and mixed sizes exercise the
        # extended block's all-rows sentinel column (ragged padding).
        batch = [(), (0,), (1, 3, 5), (11,), (0, 2), (), (4, 4, 4)]
        with native_unavailable():
            ref = pc.supports_batch(batch, workers=1)
        native = pc.supports_batch(batch, workers=workers)
        assert np.array_equal(ref, native)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_contains_batch(self, pr, native_unavailable, workers):
        batch = list(combinations(range(10), 2)) + [(), (69,), (0, 0, 5)]
        with native_unavailable():
            ref = pr.contains_batch(batch, workers=1)
            ref_supports = pr.supports_batch(batch, workers=1)
        native = pr.contains_batch(batch, workers=workers)
        assert np.array_equal(ref, native)
        assert native.dtype == np.bool_
        assert np.array_equal(ref_supports, pr.supports_batch(batch, workers=workers))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128])
    @pytest.mark.parametrize("d", [1, 64, 65])
    def test_word_boundary_shapes(self, native_unavailable, n, d):
        """Exact word multiples and one-past shapes, all three kernels."""
        rng = np.random.default_rng(n * 131 + d)
        rows = rng.random((n, d)) < 0.5
        pc = PackedColumns(rows)
        pr = PackedRows(rows)
        batch = [(), (0,), (d - 1,), tuple(range(min(d, 3)))]
        k = min(d, 2)

        def answers():
            return (
                pc.supports_batch(batch, workers=1),
                pc.combination_supports(k, workers=1)[1],
                pr.contains_batch(batch, workers=1),
            )

        with native_unavailable():
            ref = answers()
        for expected, got in zip(ref, answers()):
            assert np.array_equal(expected, got)

    @given(
        n=st.integers(min_value=1, max_value=140),
        d=st.integers(min_value=1, max_value=70),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        workers=st.sampled_from([1, 3]),
    )
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_differential(
        self, native_unavailable, n, d, density, seed, workers
    ):
        """Random shapes through every kernel, inline and on threads."""
        rng = np.random.default_rng(seed)
        rows = rng.random((n, d)) < density
        pc = PackedColumns(rows)
        pr = PackedRows(rows)
        k = min(d, 2)
        batch = [tuple(t) for t in combinations(range(min(d, 8)), k)] or [()]
        batch += [(), (d - 1,)]

        def answers(w):
            return (
                pc.supports_batch(batch, workers=w),
                pc.combination_supports(k, workers=w)[1],
                pr.contains_batch(batch, workers=w),
            )

        with native_unavailable():
            ref = answers(1)
        native = answers(workers)
        for expected, got in zip(ref, native):
            assert np.array_equal(expected, got)
        assert native[0].dtype == np.int64
        assert native[2].dtype == np.bool_

    def test_matches_python_naive(self):
        """Native agrees with a from-scratch Python evaluation, not just numpy."""
        rng = np.random.default_rng(99)
        rows = rng.random((67, 9)) < 0.4
        pc = PackedColumns(rows)
        idx = combination_index_array(pc.d, 3)
        native = pc.supports_for_index_array(idx, workers=1)
        naive = np.array(
            [int(rows[:, list(t)].all(axis=1).sum()) for t in map(tuple, idx)],
            dtype=np.int64,
        )
        assert np.array_equal(native, naive)


@needs_native
class TestNativeKernelsFacade:
    """The NativeKernels wrapper validates before handing out pointers."""

    def test_rejects_wrong_dtype(self):
        lib = _native.load()
        bad = np.zeros((2, 2), dtype=np.uint32)
        counts = np.zeros(2, dtype=np.int64)
        idx = np.zeros((2, 1), dtype=np.intp)
        with pytest.raises(ParameterError, match="uint64"):
            lib.index_supports(bad, idx, counts, 0, 2)

    def test_rejects_non_contiguous(self):
        lib = _native.load()
        ext = np.zeros((4, 4), dtype=np.uint64)[:, ::2]
        counts = np.zeros(2, dtype=np.int64)
        idx = np.zeros((2, 1), dtype=np.intp)
        with pytest.raises(ParameterError, match="non-contiguous"):
            lib.index_supports(ext, idx, counts, 0, 2)

    def test_load_is_cached_singleton(self):
        assert _native.load() is _native.load()
        assert _native.unavailable_reason() is None


class TestGracefulDegradation:
    """These run identically whether or not the native tier compiled."""

    def test_load_never_raises(self):
        lib = _native.load()
        assert lib is None or isinstance(lib, _native.NativeKernels)
        if lib is None:
            assert _native.unavailable_reason()
