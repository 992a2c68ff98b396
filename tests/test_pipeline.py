"""The micro-batch ingestion pipeline: equivalence, certificates, bounds.

Three layers of guarantees, each pinned here:

1. **Micro-batch bit-identity** -- a pipeline leaves *exactly* the state
   ``update_many`` leaves over the same micro-batches, for every summary
   kind and any batch partitioning (hypothesis-driven); Count-Min, whose
   bulk path adds exact counts, also equals one-shot ingestion.
2. **Fold certificates** -- Misra-Gries and Space-Saving fold each batch
   through their merge rules, so their state depends on the batching but
   obeys each summary's error bounds: Misra-Gries never overestimates
   and undercounts by at most ``max_undercount()``; SpaceSaving never
   underestimates and overcounts by at most ``max_overcount()``.
3. **Operational behavior** -- bounded queue with backpressure, consistent
   snapshots, error propagation out of the sketching thread, bounded
   sources, traffic generator contracts, and a start-up import path that
   loads no scipy.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streaming import (
    SUMMARY_KINDS,
    StreamPipeline,
    SummarySpec,
    adversarial_traffic,
    batches_from_binary,
    batches_from_text,
    bursty_traffic,
    zipf_traffic,
)

UNIVERSE = 64

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _spec(kind: str, **overrides) -> SummarySpec:
    base = dict(universe=UNIVERSE, k=5, width=32, depth=3, size=16, seed=11)
    base.update(overrides)
    return SummarySpec(kind, **base)


def _state(summary):
    """Comparable full state per summary type (mirrors test_streaming_bulk)."""
    from repro.streaming import (
        CountMinSketch,
        MisraGries,
        ReservoirSample,
        SpaceSaving,
    )

    if isinstance(summary, MisraGries):
        return dict(summary._counters), summary.stream_length
    if isinstance(summary, SpaceSaving):
        return dict(summary._counts), dict(summary._errors), summary.stream_length
    if isinstance(summary, CountMinSketch):
        return summary._table.tolist(), summary.stream_length
    if isinstance(summary, ReservoirSample):
        return list(summary.sample), summary.stream_length
    raise AssertionError(type(summary))


def _batched(spec: SummarySpec, stream: np.ndarray, batch_items: int):
    """The reference: ``update_many`` over the pipeline's micro-batches."""
    summary = spec.build()
    for lo in range(0, stream.size, batch_items):
        summary.update_many(stream[lo : lo + batch_items])
    return summary


class TestSummarySpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(StreamError):
            SummarySpec("bloom", universe=8)

    def test_rejects_bad_universe(self):
        with pytest.raises(StreamError):
            SummarySpec("count-min", universe=0)

    def test_build_shares_hash_seeds(self):
        """Two builds of one CMS spec must be mergeable (identical hashes)."""
        spec = _spec("count-min")
        a, b = spec.build(), spec.build()
        assert np.array_equal(a._a, b._a) and np.array_equal(a._b, b._b)


class TestSingleWorkerBitIdentity:
    """A pipeline is ``update_many`` over its micro-batches, verbatim."""

    @pytest.mark.parametrize("kind", sorted(SUMMARY_KINDS))
    def test_matches_one_shot(self, kind):
        rng = np.random.default_rng(3)
        stream = rng.integers(0, UNIVERSE, size=7000)
        spec = _spec(kind)
        piped = StreamPipeline(spec, batch_items=512).run([stream])
        assert _state(piped) == _state(_batched(spec, stream, 512))
        if kind == "count-min":
            oneshot = spec.build()
            oneshot.update_many(stream)
            assert _state(piped) == _state(oneshot)

    @given(
        items=st.lists(st.integers(0, UNIVERSE - 1), min_size=0, max_size=500),
        batch_items=st.integers(1, 64),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_any_partitioning(self, items, batch_items):
        stream = np.array(items, dtype=np.int64)
        for kind in sorted(SUMMARY_KINDS):
            spec = _spec(kind)
            piped = StreamPipeline(spec, batch_items=batch_items).run([stream])
            assert _state(piped) == _state(
                _batched(spec, stream, batch_items)
            ), kind


class TestMultiWorkerCertificates:
    """Micro-batch folds obey each summary's error certificates."""

    def test_misra_gries_undercount_bound(self):
        rng = np.random.default_rng(6)
        stream = (rng.zipf(1.4, 30000) % UNIVERSE).astype(np.int64)
        spec = _spec("misra-gries")
        summary = StreamPipeline(spec, batch_items=2048).run([stream])
        true = np.bincount(stream, minlength=UNIVERSE)
        assert summary.stream_length == stream.size
        slack = summary.max_undercount()
        for item in range(UNIVERSE):
            est = summary.estimate_count(item)
            assert est <= true[item]  # MG never overestimates
            assert est >= true[item] - slack

    def test_space_saving_overcount_bound(self):
        rng = np.random.default_rng(7)
        stream = (rng.zipf(1.4, 30000) % UNIVERSE).astype(np.int64)
        spec = _spec("space-saving")
        summary = StreamPipeline(spec, batch_items=2048).run([stream])
        true = np.bincount(stream, minlength=UNIVERSE)
        assert summary.stream_length == stream.size
        slack = summary.max_overcount()
        for item in np.flatnonzero(true).tolist():
            est = summary.estimate_count(item)
            if est > 0.0:  # tracked items never underestimate in SS
                assert true[item] <= est <= true[item] + slack

    def test_reservoir_sample_is_plausible(self):
        spec = _spec("reservoir")
        rng = np.random.default_rng(8)
        stream = rng.integers(0, UNIVERSE, size=9000)
        summary = StreamPipeline(spec, batch_items=1000).run([stream])
        assert summary.stream_length == stream.size
        assert len(summary.sample) == spec.size
        assert all(0 <= item < UNIVERSE for item in summary.sample)

    @given(items=st.lists(st.integers(0, UNIVERSE - 1), min_size=50, max_size=400))
    @settings(max_examples=15, deadline=None)
    def test_property_cms_any_stream(self, items):
        stream = np.array(items, dtype=np.int64)
        spec = _spec("count-min")
        piped = StreamPipeline(spec, batch_items=64).run([stream])
        oneshot = spec.build()
        oneshot.update_many(stream)
        assert np.array_equal(piped._table, oneshot._table)


class TestImports:
    def test_pipeline_and_server_import_no_scipy(self):
        """``repro stream`` and ``repro serve`` start through these
        imports; scipy must stay off that path, where it would add about
        1.1 s to every start."""
        script = (
            "import sys, repro.streaming.pipeline, repro.server; "
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


class TestPipelineBehavior:
    def test_feed_rechunks_large_arrays(self):
        spec = _spec("misra-gries")
        pipe = StreamPipeline(spec, batch_items=100)
        pipe.start()
        pipe.feed(np.arange(1000) % UNIVERSE)
        pipe.finish()
        stats = pipe.stats
        assert stats.items == 1000
        assert stats.batches == 10

    def test_queue_depth_bounds_buffering(self):
        """max_queue_depth never exceeds the configured bound."""
        spec = _spec("count-min")
        pipe = StreamPipeline(spec, batch_items=100, queue_depth=2)
        rng = np.random.default_rng(1)
        pipe.run(rng.integers(0, UNIVERSE, size=(40, 100)))
        assert pipe.stats.max_queue_depth <= 2

    def test_snapshot_is_complete_and_isolated(self):
        spec = _spec("count-min")
        pipe = StreamPipeline(spec, batch_items=50)
        pipe.start()
        pipe.feed(np.arange(500) % UNIVERSE)
        snap = pipe.snapshot()
        # The snapshot reflects whole absorbed batches only.
        assert snap.stream_length % 50 == 0
        table_before = snap._table.copy()
        pipe.feed(np.arange(500) % UNIVERSE)
        pipe.finish()
        assert np.array_equal(snap._table, table_before)  # deep copy

    def test_error_in_sketching_thread_propagates(self):
        spec = _spec("misra-gries")
        pipe = StreamPipeline(spec, batch_items=64)
        pipe.start()
        with pytest.raises(StreamError, match="outside universe"):
            # The bad id is detected on the sketching thread; feed/finish
            # must re-raise instead of hanging or swallowing it.
            for _ in range(50):
                pipe.feed(np.array([UNIVERSE + 5]))
            pipe.finish()
        with pytest.raises(StreamError):
            pipe.feed(np.array([1]))

    def test_finish_is_idempotent_and_terminal(self):
        spec = _spec("misra-gries")
        pipe = StreamPipeline(spec, batch_items=64)
        pipe.start()
        pipe.feed(np.array([1, 2, 3]))
        first = pipe.finish()
        assert pipe.finish() is first
        with pytest.raises(StreamError):
            pipe.feed(np.array([1]))

    def test_feed_before_start_raises(self):
        pipe = StreamPipeline(_spec("misra-gries"))
        with pytest.raises(StreamError, match="not started"):
            pipe.feed(np.array([1]))

    def test_context_manager(self):
        with StreamPipeline(_spec("count-min"), batch_items=32) as pipe:
            pipe.feed(np.arange(100) % UNIVERSE)
        assert pipe.stats.items == 100

    def test_rejects_bad_config(self):
        with pytest.raises(StreamError):
            StreamPipeline(_spec("count-min"), batch_items=0)
        with pytest.raises(StreamError):
            StreamPipeline(_spec("count-min"), queue_depth=0)

    def test_rejects_bad_batches(self):
        pipe = StreamPipeline(_spec("count-min"))
        pipe.start()
        with pytest.raises(StreamError, match="1-D"):
            pipe.feed(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(StreamError, match="integer"):
            pipe.feed(np.array([1.5]))
        pipe.finish()

    def test_backpressure_blocks_producer(self):
        """A full queue stalls feed() until the consumer drains."""
        spec = _spec("misra-gries")
        pipe = StreamPipeline(spec, batch_items=10, queue_depth=1)
        gate = threading.Event()
        original = pipe._absorb

        def slow_absorb(batch):
            gate.wait(timeout=30)
            original(batch)

        pipe._absorb = slow_absorb
        pipe.start()
        feeder_done = threading.Event()

        def feeder():
            for _ in range(4):
                pipe.feed(np.arange(10) % UNIVERSE)
            feeder_done.set()

        thread = threading.Thread(target=feeder, daemon=True)
        thread.start()
        # With depth 1 and the consumer gated, the feeder cannot finish.
        assert not feeder_done.wait(timeout=0.3)
        gate.set()
        thread.join(timeout=30)
        assert feeder_done.is_set()
        assert pipe.finish().stream_length == 40
        assert pipe.stats.feed_wait_s > 0.0


class TestSources:
    def test_text_chunk_boundaries_never_split_tokens(self):
        items = np.arange(3000, dtype=np.int64)
        text = " ".join(map(str, items.tolist()))
        for read_chars in (7, 64, 1 << 20):
            batches = list(
                batches_from_text(io.StringIO(text), 256, read_chars=read_chars)
            )
            assert np.array_equal(np.concatenate(batches), items)
            assert all(b.size <= 256 for b in batches)

    def test_text_max_items_truncates(self):
        text = " ".join(map(str, range(1000)))
        batches = list(batches_from_text(io.StringIO(text), 64, max_items=129))
        got = np.concatenate(batches)
        assert np.array_equal(got, np.arange(129))

    def test_text_rejects_garbage_tokens(self):
        with pytest.raises(StreamError, match="invalid item token"):
            list(batches_from_text(io.StringIO("1 2 pear 4"), 8))

    def test_text_empty_stream(self):
        assert list(batches_from_text(io.StringIO(""), 8)) == []
        assert list(batches_from_text(io.StringIO("   \n  "), 8)) == []

    def test_binary_round_trip(self):
        items = np.arange(2000, dtype=np.int64)
        raw = io.BytesIO(items.astype("<u8").tobytes())
        batches = list(batches_from_binary(raw, 128))
        assert np.array_equal(np.concatenate(batches), items)
        assert all(b.size <= 128 for b in batches)

    def test_binary_truncation_raises(self):
        raw = io.BytesIO(np.arange(10, dtype="<u8").tobytes()[:-3])
        with pytest.raises(StreamError, match="truncated"):
            list(batches_from_binary(raw, 128))

    def test_binary_rejects_oversized_ids(self):
        raw = io.BytesIO(np.array([2**63], dtype="<u8").tobytes())
        with pytest.raises(StreamError, match="signed 64-bit"):
            list(batches_from_binary(raw, 8))

    def test_binary_max_items(self):
        items = np.arange(100, dtype=np.int64)
        raw = io.BytesIO(items.astype("<u8").tobytes())
        batches = list(batches_from_binary(raw, 32, max_items=50))
        assert np.array_equal(np.concatenate(batches), np.arange(50))


class TestTraffic:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: zipf_traffic(100, total_items=5000, batch_items=512, rng=0),
            lambda: bursty_traffic(100, total_items=5000, batch_items=512, rng=0),
            lambda: adversarial_traffic(
                100, total_items=5000, batch_items=512, rng=0
            ),
        ],
        ids=["zipf", "bursty", "adversarial"],
    )
    def test_respects_budget_and_universe(self, make):
        batches = list(make())
        assert sum(b.size for b in batches) == 5000
        for batch in batches:
            assert batch.dtype == np.int64
            assert batch.min() >= 0 and batch.max() < 100

    def test_deterministic_given_seed(self):
        a = np.concatenate(list(zipf_traffic(50, total_items=2000, rng=42)))
        b = np.concatenate(list(zipf_traffic(50, total_items=2000, rng=42)))
        assert np.array_equal(a, b)

    def test_zipf_is_skewed(self):
        stream = np.concatenate(
            list(zipf_traffic(100, exponent=1.5, total_items=20000, rng=1))
        )
        counts = np.bincount(stream, minlength=100)
        assert counts[0] > 10 * max(counts[50:].max(), 1)

    def test_bursty_batches_grow_in_bursts(self):
        sizes = [
            b.size
            for b in bursty_traffic(
                100, batch_items=100, total_items=20000,
                calm_batches=2, burst_batches=1, burst_scale=4, rng=2,
            )
        ]
        assert max(sizes) == 400 and min(sizes) == 100

    def test_adversarial_keeps_heavy_hitter_heavy(self):
        stream = np.concatenate(
            list(
                adversarial_traffic(
                    1000, total_items=30000, batch_items=512,
                    heavy_share=0.25, rng=3,
                )
            )
        )
        share = float(np.mean(stream == 0))
        assert 0.2 < share < 0.3
        # The churn cohort rotates: many distinct non-heavy ids appear.
        assert len(np.unique(stream[stream != 0])) > 500

    def test_unbounded_mode_keeps_producing(self):
        gen = zipf_traffic(50, batch_items=64, rng=4)
        sizes = [next(gen).size for _ in range(10)]
        assert sizes == [64] * 10

    def test_pipeline_consumes_traffic(self):
        spec = _spec("space-saving")
        pipe = StreamPipeline(spec, batch_items=512)
        summary = pipe.run(
            bursty_traffic(UNIVERSE, total_items=10000, batch_items=512, rng=5)
        )
        assert summary.stream_length == 10000

    def test_traffic_cli_writes_streams(self, capsysbinary):
        from repro.streaming.traffic import _main

        assert _main(["zipf", "--d", "32", "--items", "100", "--format", "u64"]) == 0
        raw = capsysbinary.readouterr().out
        arr = np.frombuffer(raw, dtype="<u8")
        assert arr.size == 100 and int(arr.max()) < 32

        assert _main(["adversarial", "--d", "32", "--items", "50"]) == 0
        text = capsysbinary.readouterr().out.decode()
        items = np.array(text.split(), dtype=np.int64)
        assert items.size == 50 and int(items.max()) < 32
