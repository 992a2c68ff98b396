"""Tests for the packed-bitset query kernel (repro.db.packed).

The core contract: every frequency evaluator in the repo --
``PackedColumns`` batch supports, ``FrequencyOracle``,
``BinaryDatabase.frequency``, and ``eclat`` -- agrees exactly on every
database, including row counts that are not multiples of 64 and the empty
itemset.  The batch evaluators are checked inline (``workers=1``) and
sharded on threads (``workers=2``, with at least two cores reported).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.db import BinaryDatabase, FrequencyOracle, Itemset, PackedColumns
from repro.db import packed
from repro.db.itemset import rank_itemset
from repro.db.packed import pack_columns, popcount_words
from repro.errors import ParameterError
from repro.mining import eclat


def _direct_support(rows: np.ndarray, items: tuple[int, ...]) -> int:
    if not items:
        return rows.shape[0]
    return int(rows[:, list(items)].all(axis=1).sum())


class TestPackedLayout:
    def test_word_layout_is_lsb_first(self):
        # Row r sets bit r of word r // 64.
        rows = np.zeros((130, 1), dtype=bool)
        rows[[0, 5, 63, 64, 129]] = True
        words = pack_columns(rows)
        assert words.shape == (1, 3)
        assert words[0, 0] == (1 << 0) | (1 << 5) | (1 << 63)
        assert words[0, 1] == 1 << 0
        assert words[0, 2] == 1 << 1

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_tail_padding_is_zero(self, n):
        rows = np.ones((n, 2), dtype=bool)
        pc = PackedColumns(rows)
        assert int(popcount_words(pc.words).sum()) == 2 * n

    @pytest.mark.parametrize("n", [1, 63, 64, 65])
    def test_full_mask_padding_regression(self, n):
        # The all-rows mask must cover exactly n bits: the empty itemset's
        # support is n, with no padding-bit leakage in the tail word.
        db = BinaryDatabase(np.ones((n, 3), dtype=bool))
        oracle = FrequencyOracle(db)
        assert oracle.support(Itemset([])) == n
        assert oracle.frequency(Itemset([])) == 1.0
        pc = oracle.kernel
        assert int(popcount_words(pc.full_mask).sum()) == n
        assert pc.support(()) == n

    def test_popcount_words_matches_python(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=(4, 7), dtype=np.int64).astype(np.uint64)
        expect = np.vectorize(lambda w: bin(int(w)).count("1"))(words)
        assert np.array_equal(popcount_words(words), expect)


class TestPopcountBranches:
    """Both numpy-version popcount implementations, on every numpy.

    The version check is resolved once at import into the module-level
    ``popcount_words`` / ``popcount_sum`` pointers; the underlying branch
    functions stay importable everywhere, so the branch that this host's
    numpy would *not* pick is unit-tested too.
    """

    @pytest.fixture(scope="class")
    def words(self) -> np.ndarray:
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2**63, size=(5, 4), dtype=np.int64).astype(np.uint64)
        # Edge words the random draw misses: empty, full, single-bit.
        words[0, :] = (0, np.uint64(2**64 - 1), 1, np.uint64(1) << np.uint64(63))
        return words

    @pytest.fixture(scope="class")
    def expect_words(self, words) -> np.ndarray:
        return np.vectorize(lambda w: bin(int(w)).count("1"))(words)

    def test_lut_branch(self, words, expect_words):
        assert np.array_equal(packed._popcount_words_lut(words), expect_words)
        assert np.array_equal(
            packed._popcount_sum_lut(words), expect_words.sum(axis=1)
        )
        assert packed._popcount_sum_lut(words).dtype == np.int64

    @pytest.mark.skipif(
        not hasattr(np, "bitwise_count"), reason="numpy < 2.0: no bitwise_count"
    )
    def test_bitwise_count_branch(self, words, expect_words):
        assert np.array_equal(packed._popcount_words_bitwise(words), expect_words)
        assert np.array_equal(
            packed._popcount_sum_bitwise(words), expect_words.sum(axis=1)
        )
        assert packed._popcount_sum_bitwise(words).dtype == np.int64

    def test_branches_agree(self, words):
        if hasattr(np, "bitwise_count"):
            assert np.array_equal(
                packed._popcount_words_bitwise(words),
                packed._popcount_words_lut(words),
            )

    def test_module_pointers_match_host_numpy(self):
        """The import-time resolution picked the branch this numpy has."""
        if hasattr(np, "bitwise_count"):
            assert packed.popcount_words is packed._popcount_words_bitwise
            assert packed.popcount_sum is packed._popcount_sum_bitwise
        else:  # pragma: no cover - numpy >= 2 in this environment
            assert packed.popcount_words is packed._popcount_words_lut
            assert packed.popcount_sum is packed._popcount_sum_lut

    def test_lut_built_lazily_and_cached(self):
        table = packed._popcount16_table()
        assert table.shape == (1 << 16,)
        assert table[0] == 0 and table[0xFFFF] == 16 and table[0b1011] == 3
        assert packed._popcount16_table() is table

    def test_out_of_range_item(self):
        pc = PackedColumns(np.ones((4, 3), dtype=bool))
        with pytest.raises(ParameterError):
            pc.support((3,))
        with pytest.raises(ParameterError):
            pc.supports_batch([(0, 5)])


#: The differential runs every batch evaluator inline and on two threads.
WORKERS = (1, 2)


@pytest.mark.usefixtures("two_cores")
class TestBatchKernels:
    def test_supports_batch_ragged(self):
        rng = np.random.default_rng(1)
        rows = rng.random((100, 6)) < 0.5
        pc = PackedColumns(rows)
        batch = [(), (0,), (1, 3), (0, 2, 4), (5,), ()]
        for workers in WORKERS:
            got = pc.supports_batch(batch, workers=workers)
            assert got.tolist() == [_direct_support(rows, t) for t in batch]

    def test_supports_batch_empty_batch(self):
        pc = PackedColumns(np.ones((5, 2), dtype=bool))
        assert pc.supports_batch([]).shape == (0,)

    def test_oracle_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        db = BinaryDatabase(rng.random((77, 8)) < 0.4)
        oracle = FrequencyOracle(db)
        itemsets = [Itemset(t) for k in range(3) for t in combinations(range(8), k)]
        for workers in WORKERS:
            batch = oracle.frequencies(itemsets, workers=workers)
            for t, f in zip(itemsets, batch):
                assert f == oracle.frequency(t) == db.frequency(t)

    def test_support_counts_all_rank_indexed(self):
        rng = np.random.default_rng(4)
        rows = rng.random((90, 7)) < 0.3
        pc = PackedColumns(rows)
        for k, workers in ((k, w) for k in range(4) for w in WORKERS):
            counts = pc.support_counts_all(k, workers=workers)
            assert counts.shape == (comb(7, k),)
            for t in combinations(range(7), k):
                assert counts[rank_itemset(t)] == _direct_support(rows, t)

    def test_iter_supports_pruning(self):
        rng = np.random.default_rng(5)
        rows = rng.random((200, 9)) < 0.35
        pc = PackedColumns(rows)
        min_count = 20
        got = dict(pc.iter_supports(3, min_count=min_count))
        want = {
            t: _direct_support(rows, t)
            for t in combinations(range(9), 3)
            if _direct_support(rows, t) >= min_count
        }
        assert got == want


@pytest.mark.usefixtures("two_cores")
class TestEvaluatorAgreement:
    @given(
        arrays(bool, st.tuples(st.integers(1, 70), st.integers(1, 8))),
        st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_all_evaluators_agree(self, mat, k):
        """PackedColumns, FrequencyOracle, BinaryDatabase, eclat: one answer."""
        db = BinaryDatabase(mat)
        k = min(k, db.d)
        pc = PackedColumns(mat)
        oracle = FrequencyOracle(db)
        sets = list(combinations(range(db.d), k))
        for workers in WORKERS:
            batch = pc.supports_batch(sets, workers=workers)
            for t, c in zip(sets, batch):
                direct = _direct_support(db.rows, t)
                assert c == direct
                assert oracle.support(Itemset(t)) == direct
                assert db.frequency(Itemset(t)) == pytest.approx(direct / db.n)

    @given(arrays(bool, st.tuples(st.integers(1, 70), st.integers(1, 7))))
    @settings(max_examples=25, deadline=None)
    def test_property_eclat_agrees_with_oracle(self, mat):
        db = BinaryDatabase(mat)
        threshold = 0.25
        mined = eclat(db, threshold)
        oracle = FrequencyOracle(db)
        # Everything mined has the exact frequency and clears the threshold.
        for itemset, freq in mined.items():
            assert freq == pytest.approx(oracle.frequency(itemset))
            assert freq >= threshold - 1e-12
        # Nothing qualifying is missed (check all sizes up to d).
        for k in range(1, db.d + 1):
            for items, count in oracle.iter_supports(k):
                if count / db.n >= threshold:
                    assert Itemset(items) in mined

    @given(arrays(bool, st.tuples(st.integers(1, 130), st.integers(1, 6))))
    @settings(max_examples=25, deadline=None)
    def test_property_all_frequencies_non_word_aligned(self, mat):
        from repro.db import all_frequencies

        db = BinaryDatabase(mat)
        k = min(2, db.d)
        for workers in WORKERS:
            freqs = all_frequencies(db, k, workers=workers)
            assert len(freqs) == comb(db.d, k)
            for t, f in freqs.items():
                assert f == pytest.approx(db.frequency(t))
