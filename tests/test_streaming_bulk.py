"""Bulk ingestion (update_many): two contracts, pinned per summary kind.

* Count-Min and Lossy Counting: for every stream shape -- skewed,
  uniform, all-miss adversarial, sorted, split across many batches --
  ``update_many`` leaves exactly the state the itemwise ``update`` loop
  would have left.
* Misra-Gries and Space-Saving fold each call once: ``update_many`` equals
  an independent model of the fold (a :class:`collections.Counter` of the
  batch, cut to ``k`` counters, folded in by the existing merge rule), and
  keeps each summary's guarantee on adversarial shapes in uneven batches.
  A one-item Misra-Gries batch is exactly one itemwise update.
* The reservoir draws a whole batch's Algorithm R positions at once:
  every stream position lands in the sample with frequency ``size / m``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streaming import (
    CountMinSketch,
    LossyCounting,
    MisraGries,
    ReservoirSample,
    SpaceSaving,
    merge_misra_gries,
    merge_space_saving,
)

UNIVERSE = 40


def _factories():
    return {
        "misra-gries-small": lambda: MisraGries(UNIVERSE, k=4),
        "misra-gries-large": lambda: MisraGries(UNIVERSE, k=50),
        "space-saving-small": lambda: SpaceSaving(UNIVERSE, k=4),
        "space-saving-large": lambda: SpaceSaving(UNIVERSE, k=50),
        "lossy-counting": lambda: LossyCounting(UNIVERSE, epsilon=0.05),
        "lossy-counting-wide": lambda: LossyCounting(UNIVERSE, epsilon=0.4),
        "count-min": lambda: CountMinSketch(UNIVERSE, width=16, depth=3, rng=9),
        "count-min-conservative": lambda: CountMinSketch(
            UNIVERSE, width=16, depth=3, conservative=True, rng=9
        ),
    }


def _state(summary):
    if isinstance(summary, MisraGries):
        return dict(summary._counters), summary.stream_length
    if isinstance(summary, SpaceSaving):
        return dict(summary._counts), dict(summary._errors), summary.stream_length
    if isinstance(summary, LossyCounting):
        return dict(summary._entries), summary.stream_length
    if isinstance(summary, CountMinSketch):
        return summary._table.tolist(), summary.stream_length
    raise AssertionError(type(summary))


def _reference_fold(summary, batch: np.ndarray):
    """An independent model of one Misra-Gries / Space-Saving ``update_many``.

    Counts the batch with a :class:`~collections.Counter`, cuts it to
    ``k`` counters in plain Python, and folds the result in with the
    summary's existing merge rule.
    """
    counts = Counter(batch.tolist())
    k = summary.k
    if isinstance(summary, MisraGries):
        part = MisraGries(summary.universe, k)
        if len(counts) > k:
            cutoff = sorted(counts.values(), reverse=True)[k]
            counts = Counter({i: c - cutoff for i, c in counts.items() if c > cutoff})
        part._counters = dict(counts)
        part.stream_length = len(batch)
        return merge_misra_gries(summary, part)
    part = SpaceSaving(summary.universe, k)
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    part._counts = dict(top)
    part._errors = {item: 0 for item, _ in top}
    part.stream_length = len(batch)
    return merge_space_saving(summary, part)


def _expected(make, batches):
    """What ``update_many`` over ``batches`` must leave, per contract."""
    summary = make()
    if isinstance(summary, (MisraGries, SpaceSaving)):
        for batch in batches:
            summary = _reference_fold(summary, batch)
        return summary
    for batch in batches:
        for item in batch.tolist():
            summary.update(item)
    return summary


def _streams():
    rng = np.random.default_rng(7)
    return {
        "zipf": (rng.zipf(1.3, 2000) % UNIVERSE).astype(np.int64),
        "uniform": rng.integers(0, UNIVERSE, 2000),
        "all-miss": np.arange(2000, dtype=np.int64) % UNIVERSE,
        "sorted": np.sort(rng.integers(0, UNIVERSE, 2000)),
        "constant": np.zeros(500, dtype=np.int64),
        "single": np.array([3], dtype=np.int64),
    }


@pytest.mark.parametrize("summary_name", sorted(_factories()))
@pytest.mark.parametrize("stream_name", sorted(_streams()))
def test_update_many_bit_identical(summary_name, stream_name):
    make = _factories()[summary_name]
    stream = _streams()[stream_name]
    bulk = make()
    bulk.update_many(stream)
    assert _state(bulk) == _state(_expected(make, [stream]))


@pytest.mark.parametrize("summary_name", sorted(_factories()))
def test_update_many_split_batches(summary_name):
    """Arbitrary batch boundaries (including mid-bucket) follow the contract."""
    make = _factories()[summary_name]
    stream = _streams()["zipf"]
    edges = [(0, 1), (1, 7), (7, 500), (500, 501), (501, 2000)]
    batches = [stream[lo:hi] for lo, hi in edges]
    bulk = make()
    for batch in batches:
        bulk.update_many(batch)
    assert _state(bulk) == _state(_expected(make, batches))


@given(
    st.lists(st.integers(0, UNIVERSE - 1), min_size=0, max_size=400),
    st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_property_counter_summaries_bit_identical(items, k):
    batch = np.array(items, dtype=np.int64)
    for make in (
        lambda: MisraGries(UNIVERSE, k=k),
        lambda: SpaceSaving(UNIVERSE, k=k),
        lambda: LossyCounting(UNIVERSE, epsilon=1.0 / (3 * k)),
    ):
        bulk = make()
        bulk.update_many(batch)
        assert _state(bulk) == _state(_expected(make, [batch]))


def test_misra_gries_one_item_batches_match_itemwise():
    """A one-item fold is exactly one classic update, frame bytes included."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        stream = rng.integers(0, 12, int(rng.integers(0, 200)))
        itemwise, bulk = MisraGries(12, k), MisraGries(12, k)
        for item in stream.tolist():
            itemwise.update(item)
            bulk.update_many([item])
        assert itemwise.to_bytes() == bulk.to_bytes(), seed


def _adversarial_streams():
    rng = np.random.default_rng(21)
    zipf = (rng.zipf(1.2, 6000) % 5000).astype(np.int64)
    return {
        "all-miss": np.arange(6000, dtype=np.int64),
        "sorted": np.sort(zipf),
        "constant": np.full(6000, 17, dtype=np.int64),
        "zipf": zipf,
        "strided-4": rng.integers(0, 64, 6000) << 4,
        "strided-13": rng.integers(0, 64, 6000) << 13,
    }


def _uneven_batches(stream: np.ndarray) -> list[np.ndarray]:
    sizes = itertools.cycle([1, 7, 64, 3, 500, 2, 129, 1000, 33])
    batches, lo = [], 0
    while lo < stream.size:
        hi = lo + next(sizes)
        batches.append(stream[lo:hi])
        lo = hi
    return batches


@pytest.mark.parametrize("k", [1, 4, 32])
@pytest.mark.parametrize("stream_name", sorted(_adversarial_streams()))
def test_counter_folds_keep_their_guarantees(stream_name, k):
    stream = _adversarial_streams()[stream_name]
    universe = 1 << 20
    mg, ss = MisraGries(universe, k), SpaceSaving(universe, k)
    true = Counter()
    for batch in _uneven_batches(stream):
        mg.update_many(batch)
        ss.update_many(batch)
        true.update(batch.tolist())
        assert mg.stream_length == ss.stream_length == sum(true.values())
        assert len(mg._counters) <= k and len(ss._counts) <= k
        for item in true.keys() | mg._counters.keys():
            deficit = true[item] - mg.estimate_count(item)
            assert 0 <= deficit <= mg.max_undercount()
        for item in ss._counts:
            est, err = ss.estimate_count(item), ss.guaranteed_error(item)
            assert true[item] <= est <= true[item] + err
            assert err <= ss.max_overcount()


def test_reservoir_fold_is_uniform_over_positions():
    """Each of m positions lands in the sample with frequency size / m.

    Items are their own stream positions, so the sample names the
    positions it kept.  Every position's inclusion count must sit within
    a multiplicative Chernoff band whose union over positions fails with
    probability below 1e-6.
    """
    m, size, batch, trials = 200, 10, 37, 20_000
    stream = np.arange(m, dtype=np.int64)
    batches = [stream[lo : lo + batch] for lo in range(0, m, batch)]
    rng = np.random.default_rng(2024)
    kept = np.zeros(m, dtype=np.int64)
    for _ in range(trials):
        reservoir = ReservoirSample(m, size, rng=rng)
        for part in batches:
            reservoir.update_many(part)
        kept[reservoir.sample] += 1
    mean = trials * size / m
    # P[|X - mean| >= d * mean] <= 2 exp(-d^2 mean / 3) per position.
    d = math.sqrt(3 * math.log(2 * m / 1e-6) / mean)
    assert np.all(np.abs(kept - mean) <= d * mean), (kept.min(), kept.max())
    assert kept.sum() == trials * size


def test_reservoir_fill_straddles_a_batch():
    """A batch that crosses the fill boundary fills, then samples."""
    reservoir = ReservoirSample(100, 10, rng=3)
    seen = 0
    for size in (3, 4, 6, 1, 9, 0, 30):
        part = np.arange(seen, seen + size, dtype=np.int64)
        reservoir.update_many(part)
        seen += size
        assert reservoir.stream_length == seen
        sample = reservoir.sample
        assert len(sample) == min(10, seen)
        if seen <= 10:
            assert sample == list(range(seen))  # filling keeps stream order
        # Slot j holds item j from the fill or a later replacement.
        assert all(item == j or 10 <= item < seen for j, item in enumerate(sample))


def test_reservoir_draws_span_each_items_stream_position():
    """The item at 1-based position t > size draws from [0, t)."""

    class Recording:
        def __init__(self, gen):
            self.gen, self.highs = gen, []

        def integers(self, low, high):
            self.highs.append(np.array(high, ndmin=1))
            return self.gen.integers(low, high)

    reservoir = ReservoirSample(100, 10, rng=0)
    reservoir._rng = recording = Recording(np.random.default_rng(0))
    for size in (4, 9, 1, 50):
        reservoir.update_many(np.zeros(size, dtype=np.int64))
    assert np.array_equal(np.concatenate(recording.highs), np.arange(11, 65))


def test_update_many_validates_batch_upfront():
    mg = MisraGries(UNIVERSE, k=4)
    with pytest.raises(StreamError):
        mg.update_many([1, 2, UNIVERSE])
    with pytest.raises(StreamError):
        mg.update_many([-1])
    with pytest.raises(StreamError):
        mg.update_many(np.array([1.5, 2.0]))  # floats are not items
    with pytest.raises(StreamError):
        mg.update_many(np.zeros((2, 3), dtype=np.int64))  # no silent flatten
    # All-or-nothing: the bad batch left no trace.
    assert mg.stream_length == 0
    assert _state(mg) == ({}, 0)


def test_update_many_empty_batch_is_noop():
    ss = SpaceSaving(UNIVERSE, k=4)
    ss.update_many(np.array([], dtype=np.int64))
    assert ss.stream_length == 0


def test_extend_routes_through_bulk_path():
    stream = _streams()["zipf"]
    a, b = MisraGries(UNIVERSE, k=6), MisraGries(UNIVERSE, k=6)
    a.extend(iter(stream.tolist()))  # generator input still works
    b.update_many(stream)
    assert _state(a) == _state(b)


@pytest.mark.parametrize("summary_name", sorted(_factories()))
def test_extend_chunked_iterator_bit_identical(summary_name, monkeypatch):
    """Lazy-iterator extend is one ``update_many`` per chunk.

    The chunk size is pinned tiny so a 2000-item stream crosses many chunk
    boundaries; the state must be bit-identical to ``update_many`` over
    the same chunks for every summary, and for the summaries whose bulk
    path is itemwise-exact, to one-shot ``update_many`` too.
    """
    from repro.streaming import base as streaming_base

    monkeypatch.setattr(streaming_base, "EXTEND_CHUNK_ITEMS", 17)
    make = _factories()[summary_name]
    stream = _streams()["zipf"]
    chunked, per_chunk, oneshot = make(), make(), make()
    chunked.extend(item for item in stream.tolist())
    for lo in range(0, stream.size, 17):
        per_chunk.update_many(stream[lo : lo + 17])
    assert _state(chunked) == _state(per_chunk)
    if not isinstance(chunked, (MisraGries, SpaceSaving)):
        oneshot.update_many(stream)
        assert _state(chunked) == _state(oneshot)


def test_extend_generator_is_bounded(monkeypatch):
    """extend never materializes a lazy stream: lookahead == one chunk."""
    from repro.streaming import base as streaming_base

    monkeypatch.setattr(streaming_base, "EXTEND_CHUNK_ITEMS", 8)
    pulled = 0

    def metered(n):
        nonlocal pulled
        for i in range(n):
            pulled += 1
            yield i % UNIVERSE

    mg = MisraGries(UNIVERSE, k=4)
    original = mg.update_many

    def checked(items):
        # Between what the source has produced and what the summary has
        # absorbed there is at most one chunk in flight; the old
        # np.fromiter(whole stream) path would show pulled == 1000 here.
        assert pulled - mg.stream_length <= 8
        original(items)

    monkeypatch.setattr(mg, "update_many", checked)
    mg.extend(metered(1000))
    assert mg.stream_length == 1000


def test_extend_sequence_fast_path():
    """ndarray/list inputs go straight to update_many (no chunk loop)."""
    stream = _streams()["uniform"]
    a, b, c = (CountMinSketch(UNIVERSE, width=16, depth=3, rng=9) for _ in range(3))
    a.extend(stream)            # ndarray
    b.extend(stream.tolist())   # plain list
    c.update_many(stream)
    assert _state(a) == _state(c) == _state(b)
