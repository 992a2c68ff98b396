"""Differential tests for the row-major containment kernel (PackedRows).

The contract under test: ``PackedRows`` containment masks,
``PackedColumns`` supports, and the naive unpacked
``rows[:, items].all(axis=1)`` path agree bit-for-bit on every database --
including row and column counts that straddle the 64-bit word boundary,
empty itemsets, duplicate items, and all-zero / all-one rows.  The batch
kernels are checked inline (``workers=1``) and sharded on threads
(``workers=2``, with at least two cores reported).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.db import BinaryDatabase, Itemset, PackedColumns, PackedRows
from repro.db.packed import pack_rows, unpack_rows
from repro.errors import ParameterError


def _naive_mask(rows: np.ndarray, items: tuple[int, ...]) -> np.ndarray:
    if not items:
        return np.ones(rows.shape[0], dtype=bool)
    return rows[:, list(items)].all(axis=1)


# Shapes deliberately straddle the word boundary on both axes.
_matrices = arrays(bool, st.tuples(st.integers(1, 140), st.integers(1, 70)))

#: The differential runs every batch kernel inline and on two threads.
WORKERS = (1, 2)


def _itemset_batches(d: int):
    return st.lists(
        st.lists(st.integers(0, d - 1), min_size=0, max_size=4).map(tuple),
        min_size=0,
        max_size=8,
    )


class TestRowLayout:
    def test_word_layout_is_lsb_first(self):
        # Item j sets bit j of word j // 64 of its row.
        rows = np.zeros((2, 130), dtype=bool)
        rows[0, [0, 5, 63, 64, 129]] = True
        words = pack_rows(rows)
        assert words.shape == (2, 3)
        assert words[0, 0] == (1 << 0) | (1 << 5) | (1 << 63)
        assert words[0, 1] == 1 << 0
        assert words[0, 2] == 1 << 1
        assert not words[1].any()

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 127, 128, 129])
    def test_pack_unpack_roundtrip_non_aligned(self, d):
        rng = np.random.default_rng(d)
        rows = rng.random((9, d)) < 0.5
        assert np.array_equal(unpack_rows(pack_rows(rows), d), rows)

    def test_unpack_rows_shape_check(self):
        with pytest.raises(ParameterError):
            unpack_rows(np.zeros((3, 2), dtype=np.uint64), 64)

    def test_take_gathers_packed_rows(self):
        rng = np.random.default_rng(1)
        rows = rng.random((20, 70)) < 0.5
        pr = PackedRows(rows)
        idx = [3, 3, 0, 19]
        assert np.array_equal(pr.take(idx).to_matrix(), rows[idx])

    def test_out_of_range_item(self):
        pr = PackedRows(np.ones((4, 3), dtype=bool))
        with pytest.raises(ParameterError):
            pr.contains((3,))
        with pytest.raises(ParameterError):
            pr.contains_batch([(0, 5)])
        with pytest.raises(ParameterError):
            pr.contains((-1,))


@pytest.mark.usefixtures("two_cores")
class TestKernelDifferential:
    @given(_matrices, st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_contains_matches_naive(self, mat, data):
        """PackedRows.contains == naive unpacked row walk, any shape."""
        pr = PackedRows(mat)
        d = mat.shape[1]
        items = tuple(
            data.draw(st.lists(st.integers(0, d - 1), max_size=4, unique=True))
        )
        assert np.array_equal(pr.contains(items), _naive_mask(mat, items))

    @given(_matrices, st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_three_way_agreement(self, mat, data):
        """PackedRows masks, PackedColumns supports, naive path: one answer."""
        pr = PackedRows(mat)
        pc = PackedColumns(mat)
        batch = data.draw(_itemset_batches(mat.shape[1]))
        for workers in WORKERS:
            mask_matrix = pr.contains_batch(batch, workers=workers)
            col_counts = pc.supports_batch(batch, workers=workers)
            assert mask_matrix.shape == (len(batch), mat.shape[0])
            for t, row_mask, col_count in zip(batch, mask_matrix, col_counts):
                naive = _naive_mask(mat, t)
                assert np.array_equal(row_mask, naive)
                assert col_count == int(naive.sum())
            row_counts = pr.supports_batch(batch, workers=workers)
            assert np.array_equal(row_counts, col_counts)
            assert row_counts.dtype == col_counts.dtype == np.int64

    @given(_matrices)
    @settings(max_examples=25, deadline=None)
    def test_property_empty_itemset_contained_everywhere(self, mat):
        pr = PackedRows(mat)
        assert pr.contains(()).all()
        assert pr.support(()) == mat.shape[0]
        for workers in WORKERS:
            got = pr.contains_batch([(), ()], workers=workers)
            assert got.shape == (2, mat.shape[0]) and got.all()

    @given(st.integers(1, 140), st.integers(1, 70))
    @settings(max_examples=25, deadline=None)
    def test_property_all_zero_and_all_one_rows(self, n, d):
        for fill in (False, True):
            rows = np.full((n, d), fill, dtype=bool)
            pr = PackedRows(rows)
            items = tuple(range(min(3, d)))
            expect = np.full(n, fill, dtype=bool)
            assert np.array_equal(pr.contains(items), expect)
            assert np.array_equal(pr.contains(()), np.ones(n, dtype=bool))
            assert pr.support(items) == (n if fill else 0)

    @given(_matrices)
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_any_shape(self, mat):
        pr = PackedRows(mat)
        assert np.array_equal(pr.to_matrix(), mat)


class TestDatabaseRouting:
    def test_support_mask_routes_through_packed_rows(self, small_db):
        # The cached row kernel is built on first support_mask use.
        assert small_db._packed_rows is None
        mask = small_db.support_mask(Itemset([1]))
        assert small_db._packed_rows is not None
        assert mask.tolist() == [True, True, True, False]

    def test_contains_matrix_matches_per_itemset_masks(self):
        rng = np.random.default_rng(7)
        db = BinaryDatabase(rng.random((90, 9)) < 0.4)
        itemsets = [Itemset(t) for k in range(3) for t in combinations(range(9), k)]
        matrix = db.contains_matrix(itemsets)
        assert matrix.shape == (len(itemsets), db.n)
        for t, row in zip(itemsets, matrix):
            assert np.array_equal(row, db.support_mask(t))

    def test_sample_rows_shares_packed_words(self):
        rng = np.random.default_rng(8)
        db = BinaryDatabase(rng.random((50, 130)) < 0.5)
        db.packed_rows  # warm the parent kernel
        idx = rng.integers(0, 50, size=12)
        sampled = db.sample_rows(idx)
        assert sampled._packed_rows is not None  # gathered, not re-packed
        assert np.array_equal(sampled.packed_rows.to_matrix(), sampled.rows)
        for t in (Itemset([]), Itemset([0, 64]), Itemset([129])):
            assert np.array_equal(
                sampled.support_mask(t), _naive_mask(sampled.rows, t.items)
            )

    def test_from_packed_rows_adopts_kernel(self):
        rng = np.random.default_rng(9)
        rows = rng.random((30, 65)) < 0.5
        pr = PackedRows(rows)
        db = BinaryDatabase.from_packed_rows(pr)
        assert db._packed_rows is pr
        assert np.array_equal(db.rows, rows)
