"""Tests for summary merging (distributed sketching)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Task
from repro.db import Itemset, planted_database, zipf_item_stream
from repro.errors import StreamError
from repro.params import SketchParams
from repro.streaming import (
    CountMinSketch,
    MisraGries,
    ReservoirSample,
    RowReservoir,
    SpaceSaving,
    merge_count_min,
    merge_misra_gries,
    merge_payloads,
    merge_reservoirs,
    merge_row_reservoirs,
    merge_space_saving,
)


@pytest.fixture(scope="module")
def shards():
    a = zipf_item_stream(10_000, 60, exponent=1.3, rng=0).tolist()
    b = zipf_item_stream(15_000, 60, exponent=1.3, rng=1).tolist()
    return a, b


class TestMisraGriesMerge:
    def test_merged_deficit_bound(self, shards):
        a_stream, b_stream = shards
        a = MisraGries(60, k=25)
        b = MisraGries(60, k=25)
        a.extend(a_stream)
        b.extend(b_stream)
        merged = merge_misra_gries(a, b)
        total = np.bincount(a_stream + b_stream, minlength=60)
        m = len(a_stream) + len(b_stream)
        assert merged.stream_length == m
        for item in range(60):
            estimate = merged.estimate_count(item)
            assert estimate <= total[item]
            # Mergeable-summaries guarantee: deficit <= m / (k + 1).
            assert total[item] - estimate <= m / 26 + 1e-9

    def test_counter_budget_respected(self, shards):
        a_stream, b_stream = shards
        a = MisraGries(60, k=10)
        b = MisraGries(60, k=10)
        a.extend(a_stream)
        b.extend(b_stream)
        assert len(merge_misra_gries(a, b)._counters) <= 10

    def test_mismatched_k_rejected(self):
        with pytest.raises(StreamError):
            merge_misra_gries(MisraGries(10, 2), MisraGries(10, 3))


class TestSpaceSavingMerge:
    def test_merged_overcount_respects_summed_bound(self, shards):
        a_stream, b_stream = shards
        a = SpaceSaving(60, k=20)
        b = SpaceSaving(60, k=20)
        a.extend(a_stream)
        b.extend(b_stream)
        merged = merge_space_saving(a, b)
        total = np.bincount(a_stream + b_stream, minlength=60)
        assert merged.stream_length == len(a_stream) + len(b_stream)
        # Summed error bound: m_a/k + m_b/k == merged.max_overcount().
        assert merged.max_overcount() == a.max_overcount() + b.max_overcount()
        for item, count in merged._counts.items():
            assert count >= total[item]  # never undercounts
            assert count - total[item] <= merged.guaranteed_error(item) + 1e-9
            assert count - total[item] <= merged.max_overcount() + 1e-9

    def test_counter_budget_and_eviction_order(self, shards):
        a_stream, b_stream = shards
        a = SpaceSaving(60, k=8)
        b = SpaceSaving(60, k=8)
        a.extend(a_stream)
        b.extend(b_stream)
        merged = merge_space_saving(a, b)
        assert len(merged._counts) <= 8
        # Dropped items sit at or below the smallest kept counter, exactly
        # as after an ordinary eviction.
        if len(merged._counts) == 8:
            floor = min(merged._counts.values())
            total = np.bincount(a_stream + b_stream, minlength=60)
            for item in range(60):
                if item not in merged._counts:
                    assert total[item] <= floor + merged.max_overcount()

    def test_mismatched_rejected(self):
        with pytest.raises(StreamError):
            merge_space_saving(SpaceSaving(10, 2), SpaceSaving(10, 3))
        with pytest.raises(StreamError):
            merge_space_saving(SpaceSaving(10, 2), SpaceSaving(11, 2))

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.integers(min_value=1, max_value=24),
        len_a=st.integers(min_value=0, max_value=400),
        len_b=st.integers(min_value=0, max_value=400),
        universe=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_merged_payloads_respect_summed_error_bound(
        self, seed, k, len_a, len_b, universe
    ):
        """Wire round-trip + merge keeps the SpaceSaving guarantees."""
        rng = np.random.default_rng(seed)
        a_stream = rng.integers(0, universe, size=len_a).tolist()
        b_stream = rng.integers(0, universe, size=len_b).tolist()
        a = SpaceSaving(universe, k=k)
        b = SpaceSaving(universe, k=k)
        a.extend(a_stream)
        b.extend(b_stream)
        merged = merge_payloads(a.to_bytes(), b.to_bytes())
        assert isinstance(merged, SpaceSaving)
        assert merged.stream_length == len_a + len_b
        total = np.bincount(a_stream + b_stream, minlength=universe)
        bound = merged.max_overcount()
        for item, count in merged._counts.items():
            assert count >= total[item]
            assert count - total[item] <= merged.guaranteed_error(item) + 1e-9
            assert count - total[item] <= bound + 1e-9


class TestCountMinMerge:
    def test_merge_equals_joint_stream(self, shards):
        a_stream, b_stream = shards
        a = CountMinSketch(60, width=120, depth=4, rng=7)
        b = CountMinSketch(60, width=120, depth=4, rng=7)  # same hashes
        joint = CountMinSketch(60, width=120, depth=4, rng=7)
        a.extend(a_stream)
        b.extend(b_stream)
        joint.extend(a_stream + b_stream)
        merged = merge_count_min(a, b)
        for item in range(60):
            assert merged.estimate_count(item) == joint.estimate_count(item)

    def test_different_hashes_rejected(self):
        a = CountMinSketch(10, 16, 2, rng=1)
        b = CountMinSketch(10, 16, 2, rng=2)
        with pytest.raises(StreamError):
            merge_count_min(a, b)

    def test_conservative_rejected(self):
        a = CountMinSketch(10, 16, 2, conservative=True, rng=1)
        b = CountMinSketch(10, 16, 2, conservative=True, rng=1)
        with pytest.raises(StreamError):
            merge_count_min(a, b)


class TestReservoirMerge:
    def test_size_and_membership(self, shards):
        a_stream, b_stream = shards
        a = ReservoirSample(60, size=300, rng=2)
        b = ReservoirSample(60, size=300, rng=3)
        a.extend(a_stream)
        b.extend(b_stream)
        merged = merge_reservoirs(a, b, rng=4)
        assert len(merged.sample) == 300
        assert merged.stream_length == 25_000
        pool = set(a.sample) | set(b.sample)
        assert all(item in pool for item in merged.sample)

    def test_merged_frequencies_unbiased(self, shards):
        a_stream, b_stream = shards
        total = np.bincount(a_stream + b_stream, minlength=60)
        m = len(a_stream) + len(b_stream)
        estimates = np.zeros(60)
        for seed in range(15):
            a = ReservoirSample(60, size=400, rng=seed)
            b = ReservoirSample(60, size=400, rng=seed + 100)
            a.extend(a_stream)
            b.extend(b_stream)
            merged = merge_reservoirs(a, b, rng=seed + 200)
            estimates += [merged.estimate_count(i) for i in range(60)]
        estimates /= 15
        top = int(np.argmax(total))
        assert abs(estimates[top] - total[top]) / total[top] < 0.2

    def test_mismatched_rejected(self):
        with pytest.raises(StreamError):
            merge_reservoirs(ReservoirSample(10, 5), ReservoirSample(10, 6))


class TestRowReservoirMerge:
    def test_distributed_subsample_answers_queries(self):
        db = planted_database(
            8000, 12, [(Itemset([0, 1]), 0.4)], background=0.05, rng=5
        )
        # Shard the database across two "sites".
        first = db.sample_rows(range(0, 4000))
        second = db.sample_rows(range(4000, 8000))
        a = RowReservoir(db.d, size=600, rng=6)
        b = RowReservoir(db.d, size=600, rng=7)
        a.extend(first)
        b.extend(second)
        merged = merge_row_reservoirs(a, b, rng=8)
        params = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1, delta=0.1)
        sketch = merged.to_sketch(params)
        assert abs(sketch.estimate(Itemset([0, 1])) - db.frequency(Itemset([0, 1]))) < 0.08

    def test_mismatched_rejected(self):
        with pytest.raises(StreamError):
            merge_row_reservoirs(RowReservoir(4, 5), RowReservoir(5, 5))


class TestMergePayloadStreams:
    """merge_payloads consumes shard files/streams, not just byte strings."""

    def _shards(self, count=3, universe=80, k=10, per_shard=500):
        rng = np.random.default_rng(17)
        shards = []
        for _ in range(count):
            mg = MisraGries(universe, k)
            mg.update_many(rng.integers(0, universe, per_shard))
            shards.append(mg)
        return shards

    def test_iterable_of_file_streams(self, tmp_path):
        import io

        shards = self._shards()
        paths = []
        for index, shard in enumerate(shards):
            path = tmp_path / f"shard{index}.bin"
            path.write_bytes(shard.to_bytes())
            paths.append(path)
        local = shards[0]
        for shard in shards[1:]:
            local = merge_misra_gries(local, shard)

        def streams():
            for path in paths:
                with open(path, "rb") as fh:
                    yield io.BytesIO(fh.read())

        remote = merge_payloads(streams())
        assert remote._counters == local._counters
        assert remote.stream_length == local.stream_length

    def test_chunked_compressed_shard_files(self):
        """Committed chunked + zlib v2 shard files merge from open streams."""
        from pathlib import Path

        from repro.wire import load

        fixtures = Path(__file__).resolve().parent / "fixtures"
        path = fixtures / "v2" / "misra-gries.c.ifsk"
        shard = load(path.read_bytes())
        local = merge_misra_gries(shard, shard)
        with open(path, "rb") as a, open(path, "rb") as b:
            remote = merge_payloads(a, b)
        assert remote._counters == local._counters
        assert remote.stream_length == local.stream_length

    @pytest.mark.parametrize(
        "codec",
        ["misra-gries", "space-saving", "count-min", "reservoir", "row-reservoir"],
    )
    def test_committed_v1_shard_files(self, codec):
        """Decode-only v1 shard files merge, from open files and mixed with
        v2 bytes, exactly like the same shards written as plain v2."""
        from pathlib import Path

        from repro.wire import dump

        fixtures = Path(__file__).resolve().parent / "fixtures"
        v1_path = fixtures / "v1" / f"{codec}.ifsk"
        v2 = (fixtures / "v2" / f"{codec}.ifsk").read_bytes()
        expected = dump(merge_payloads(v2, v2, v2, rng=5))
        with open(v1_path, "rb") as a, open(v1_path, "rb") as b:
            assert dump(merge_payloads(a, v2, b, rng=5)) == expected
        v1 = v1_path.read_bytes()
        assert dump(merge_payloads(iter([v1, v1, v1]), rng=5)) == expected

    def test_mixed_bytes_and_streams(self):
        import io

        a, b, c = self._shards()
        local = merge_misra_gries(merge_misra_gries(a, b), c)
        remote = merge_payloads(
            a.to_bytes(), io.BytesIO(b.to_bytes()), c.to_bytes()
        )
        assert remote._counters == local._counters

    def test_three_row_reservoir_shards_fold(self):
        from repro.db import random_database

        db = random_database(300, 8, 0.3, rng=5)
        shards = []
        for seed in (1, 2, 3):
            rr = RowReservoir(8, 15, rng=seed)
            rr.extend(db)
            shards.append(rr.to_bytes())
        merged = merge_payloads(iter(shards), rng=9)
        assert isinstance(merged, RowReservoir)
        assert merged.rows_seen == 3 * db.n
        assert len(merged._words) == 15

    def test_fewer_than_two_shards_rejected(self):
        (a,) = self._shards(count=1)
        with pytest.raises(StreamError, match="at least two"):
            merge_payloads(a.to_bytes())
        with pytest.raises(StreamError, match="at least two"):
            merge_payloads(iter([a.to_bytes()]))
        with pytest.raises(StreamError, match="at least two"):
            merge_payloads(iter([]))

    def test_non_shard_type_rejected(self):
        with pytest.raises(StreamError, match="frame bytes or a binary stream"):
            merge_payloads(12345, 67890)
