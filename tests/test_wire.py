"""Tests for the versioned wire format (repro.wire).

The registry contract under test, for every codec:

* ``from_bytes(to_bytes(s))`` answers every query bit-identically;
* ``size_in_bits() == n_bits`` of the serialized payload, exactly, and the
  payload's byte length is ``ceil(n_bits / 8)`` (``8 * len(payload) -
  n_bits < 8`` padding bits, all zero);
* corrupted, truncated, or foreign frames are rejected with
  :class:`~repro.errors.WireFormatError`.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.db.database import BinaryDatabase
from repro.db.serialize import encode_svarint, encode_uvarint
from repro.core import (
    BestOfNaiveSketcher,
    ImportanceSampleSketcher,
    ReleaseAnswersSketcher,
    ReleaseDbSketcher,
    SubsampleSketcher,
    Task,
)
from repro.core.base import FrequencySketch
from repro.db import Itemset, all_itemsets, random_database
from repro.errors import WireFormatError
from repro.params import SketchParams
from repro.streaming import (
    CountMinSketch,
    LossyCounting,
    MisraGries,
    ReservoirSample,
    RowReservoir,
    SpaceSaving,
    StickySampling,
    StreamingItemsetMiner,
    StreamSummary,
    merge_count_min,
    merge_misra_gries,
    merge_payloads,
    merge_row_reservoirs,
)

ALL_CODECS = {
    "release-db",
    "release-answers",
    "subsample",
    "importance-sample",
    "count-min",
    "misra-gries",
    "space-saving",
    "lossy-counting",
    "sticky-sampling",
    "reservoir",
    "row-reservoir",
    "itemset-miner",
}


def _core_sketchers(task: Task):
    return [
        ReleaseDbSketcher(task),
        ReleaseAnswersSketcher(task),
        SubsampleSketcher(task, sample_count=40),
        ImportanceSampleSketcher(task, sample_count=40),
        BestOfNaiveSketcher(task),
    ]


def _stream_summaries(universe: int):
    return [
        CountMinSketch(universe, 32, 3, rng=0),
        CountMinSketch(universe, 32, 3, conservative=True, rng=0),
        MisraGries(universe, 12),
        SpaceSaving(universe, 12),
        LossyCounting(universe, 0.02),
        StickySampling(universe, 0.01, 0.05, rng=0),
        ReservoirSample(universe, 25, rng=0),
    ]


def _assert_size_identity(obj):
    """size_in_bits == payload n_bits == 8 * len(payload) - padding."""
    frame = wire.decode_frame(wire.dump(obj))
    assert frame.n_bits == obj.size_in_bits()
    padding = 8 * len(frame.payload) - frame.n_bits
    assert 0 <= padding < 8
    assert wire.payload_size_bits(obj) == frame.n_bits


def _craft_v1(codec, params, extras, payload, n_bits) -> bytes:
    """Assemble a v1 frame (valid CRC), the layout nothing writes any more."""
    name = codec.encode("ascii")
    if params is None:
        params_block = b"\x00"
    else:
        params_block = b"\x01" + struct.pack(
            ">QIIdd", params.n, params.d, params.k, params.epsilon, params.delta
        )
    blob = json.dumps(dict(extras), sort_keys=True, separators=(",", ":")).encode()
    body = b"".join([
        wire.MAGIC, bytes([wire.WIRE_V1, len(name)]), name, params_block,
        struct.pack(">I", len(blob)), blob, struct.pack(">Q", n_bits), payload,
    ])
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _as_v1(frame_bytes: bytes) -> bytes:
    """Re-frame any frame's header and payload as a v1 frame."""
    f = wire.decode_frame(frame_bytes)
    return _craft_v1(f.codec, f.params, f.extras, f.payload, f.n_bits)


class TestRegistry:
    def test_every_expected_codec_registered(self):
        assert set(wire.codec_names()) == ALL_CODECS

    def test_codec_for_unknown_type(self):
        with pytest.raises(WireFormatError):
            wire.codec_for(object())

    def test_frame_fields_round_trip(self):
        p = SketchParams(n=100, d=8, k=2, epsilon=0.1, delta=0.05)
        buf = wire.encode_frame("release-db", p, {"n": 100, "d": 8}, b"\xff", 8)
        frame = wire.decode_frame(buf)
        assert frame.codec == "release-db"
        assert frame.params == p
        assert frame.extras == {"n": 100, "d": 8}
        assert frame.payload == b"\xff" and frame.n_bits == 8


class TestCoreSketchRoundTrip:
    @pytest.mark.parametrize("task", list(Task))
    def test_bit_identical_answers_all_tasks(self, task):
        db = random_database(200, 10, 0.3, rng=3)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1, delta=0.1)
        queries = list(all_itemsets(db.d, p.k))
        for sketcher in _core_sketchers(task):
            sketch = sketcher.sketch(db, p, rng=7)
            clone = FrequencySketch.from_bytes(sketch.to_bytes())
            assert type(clone) is type(sketch)
            np.testing.assert_array_equal(
                sketch.estimate_batch(queries), clone.estimate_batch(queries)
            )
            np.testing.assert_array_equal(
                sketch.indicate_batch(queries), clone.indicate_batch(queries)
            )
            assert clone.params == sketch.params
            assert clone.size_in_bits() == sketch.size_in_bits()
            _assert_size_identity(sketch)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(20, 150),
        d=st.integers(2, 14),
        seed=st.integers(0, 2**16),
        inv_eps=st.sampled_from([4, 8, 16]),
    )
    def test_property_round_trip(self, n, d, seed, inv_eps):
        """Round-trips hold for plain, v1 and zlib frames."""
        db = random_database(n, d, 0.35, rng=seed)
        k = min(2, d)
        p = SketchParams(n=n, d=d, k=k, epsilon=1.0 / inv_eps, delta=0.1)
        queries = list(all_itemsets(d, k))
        for sketcher in _core_sketchers(Task.FORALL_ESTIMATOR):
            sketch = sketcher.sketch(db, p, rng=seed + 1)
            plain = sketch.to_bytes()
            frames = [plain, _as_v1(plain), wire.dump(sketch, compress=True)]
            expected = sketch.estimate_batch(queries)
            for buf in frames:
                clone = FrequencySketch.from_bytes(buf)
                np.testing.assert_array_equal(expected, clone.estimate_batch(queries))
                assert clone.params == sketch.params
                assert wire.decode_frame(buf).n_bits == sketch.size_in_bits()
            _assert_size_identity(sketch)


class TestStreamingRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(
        universe=st.integers(2, 300),
        length=st.integers(0, 600),
        seed=st.integers(0, 2**16),
    )
    def test_property_round_trip(self, universe, length, seed):
        """Every summary round-trips through plain, v1 and compressed frames."""
        rng = np.random.default_rng(seed)
        stream = rng.integers(0, universe, size=length, dtype=np.int64)
        for summary in _stream_summaries(universe):
            if length:
                summary.update_many(stream)
            probe = np.unique(stream)[:50] if length else np.arange(min(universe, 20))
            plain = summary.to_bytes()
            for buf in (plain, _as_v1(plain), wire.dump(summary, compress=True)):
                clone = StreamSummary.from_bytes(buf)
                assert type(clone) is type(summary)
                assert clone.stream_length == summary.stream_length
                for item in probe.tolist():
                    assert clone.estimate_count(item) == summary.estimate_count(item)
                assert clone.size_in_bits() == summary.size_in_bits()
            _assert_size_identity(summary)

    def test_heavy_hitters_survive_round_trip(self):
        rng = np.random.default_rng(9)
        stream = (rng.zipf(1.4, 4000) % 100).astype(np.int64)
        for summary in _stream_summaries(100):
            summary.update_many(stream)
            clone = StreamSummary.from_bytes(summary.to_bytes())
            assert clone.heavy_hitters(0.1) == summary.heavy_hitters(0.1)

    def test_row_reservoir_round_trip(self):
        db = random_database(120, 9, 0.4, rng=2)
        reservoir = RowReservoir(db.d, 30, rng=4)
        reservoir.extend(db)
        clone = RowReservoir.from_bytes(reservoir.to_bytes())
        assert clone.rows_seen == reservoir.rows_seen
        assert len(clone._words) == len(reservoir._words)
        for ours, theirs in zip(reservoir._words, clone._words):
            np.testing.assert_array_equal(ours, theirs)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        queries = list(all_itemsets(db.d, 2))
        np.testing.assert_array_equal(
            reservoir.to_sketch(p).estimate_batch(queries),
            clone.to_sketch(p).estimate_batch(queries),
        )
        _assert_size_identity(reservoir)

    def test_partial_and_empty_summaries(self):
        partial = RowReservoir(6, 10, rng=0)
        partial.update(np.array([1, 0, 1, 0, 0, 1], dtype=bool))
        clone = RowReservoir.from_bytes(partial.to_bytes())
        assert len(clone._words) == 1 and clone.rows_seen == 1
        for summary in _stream_summaries(50):
            clone = StreamSummary.from_bytes(summary.to_bytes())
            assert clone.stream_length == 0
            assert clone.size_in_bits() == summary.size_in_bits()

    def test_itemset_miner_round_trip(self):
        db = random_database(250, 11, 0.35, rng=6)
        miner = StreamingItemsetMiner(db.d, 0.02, 3)
        miner.extend(db)
        clone = StreamingItemsetMiner.from_bytes(miner.to_bytes())
        assert clone._entries == miner._entries
        assert clone.rows_seen == miner.rows_seen
        assert clone.frequent_itemsets(0.2) == miner.frequent_itemsets(0.2)
        assert clone.estimate_frequency(Itemset([0, 1])) == miner.estimate_frequency(
            Itemset([0, 1])
        )
        _assert_size_identity(miner)
        # A deserialized miner keeps streaming identically to the original.
        more = random_database(60, db.d, 0.35, rng=8)
        miner.extend(more)
        clone.extend(more)
        assert clone._entries == miner._entries


class TestWorkersBatchEquivalence:
    """workers= on the sketch query surface is sharded, not a no-op."""

    def test_indicate_batch_sharded_matches_serial(self):
        db = random_database(300, 12, 0.3, rng=8)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        queries = list(all_itemsets(db.d, 2))
        for sketcher in (
            ReleaseDbSketcher(Task.FORALL_INDICATOR),
            SubsampleSketcher(Task.FORALL_INDICATOR, sample_count=60),
        ):
            sketch = sketcher.sketch(db, p, rng=1)
            serial = sketch.indicate_batch(queries)
            sharded = sketch.indicate_batch(queries, workers=2)
            np.testing.assert_array_equal(serial, sharded)
            # The batch path answers exactly like the per-itemset loop.
            loop = np.array([sketch.indicate(t) for t in queries], dtype=bool)
            np.testing.assert_array_equal(serial, loop)
            np.testing.assert_array_equal(
                sketch.estimate_batch(queries),
                sketch.estimate_batch(queries, workers=2),
            )


class TestDistributedMerge:
    """Serialized remote shards merge exactly like local summaries."""

    def test_misra_gries_shards(self):
        rng = np.random.default_rng(1)
        stream = (rng.zipf(1.3, 6000) % 150).astype(np.int64)
        a, b = MisraGries(150, 15), MisraGries(150, 15)
        a.update_many(stream[:3000])
        b.update_many(stream[3000:])
        local = merge_misra_gries(a, b)
        remote = merge_payloads(a.to_bytes(), b.to_bytes())
        assert local._counters == remote._counters
        assert local.stream_length == remote.stream_length

    def test_count_min_shards(self):
        a = CountMinSketch(100, 32, 4, rng=5)
        b = CountMinSketch.from_bytes(a.to_bytes())  # same hash family
        rng = np.random.default_rng(2)
        a.update_many(rng.integers(0, 100, 2000))
        b.update_many(rng.integers(0, 100, 2000))
        local = merge_count_min(a, b)
        remote = merge_payloads(a.to_bytes(), b.to_bytes())
        np.testing.assert_array_equal(local._table, remote._table)
        assert local.stream_length == remote.stream_length

    def test_row_reservoir_shards_distribution_inputs(self):
        db = random_database(200, 8, 0.3, rng=3)
        a, b = RowReservoir(8, 20, rng=1), RowReservoir(8, 20, rng=2)
        a.extend(db)
        b.extend(db)
        local = merge_row_reservoirs(a, b, rng=11)
        remote = merge_payloads(a.to_bytes(), b.to_bytes(), rng=11)
        assert local.rows_seen == remote.rows_seen
        assert sorted(tuple(w.tolist()) for w in local._words) == sorted(
            tuple(w.tolist()) for w in remote._words
        )

    def test_mismatched_shard_types_rejected(self):
        from repro.errors import StreamError

        a, b = MisraGries(50, 5), SpaceSaving(50, 5)
        with pytest.raises(StreamError):
            merge_payloads(a.to_bytes(), b.to_bytes())


def _release_db_frame() -> bytes:
    db = random_database(50, 8, 0.3, rng=0)
    p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
    return ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p).to_bytes()


class TestFrameRejection:
    """Every way a frame can lie must raise WireFormatError."""

    @pytest.fixture
    def frame_bytes(self):
        return _release_db_frame()

    @pytest.fixture
    def encode(self):
        """The frame assembler, taking ``encode_frame``'s positional fields."""
        return wire.encode_frame

    def test_bad_magic(self, frame_bytes):
        with pytest.raises(WireFormatError, match="magic"):
            wire.load(b"XXXX" + frame_bytes[4:])

    def test_unsupported_version(self, frame_bytes):
        buf = bytearray(frame_bytes)
        buf[4] = 99
        with pytest.raises(WireFormatError):
            wire.load(bytes(buf))

    def test_truncation_everywhere(self, frame_bytes):
        for cut in (0, 3, 7, len(frame_bytes) // 2, len(frame_bytes) - 1):
            with pytest.raises(WireFormatError):
                wire.load(frame_bytes[:cut])

    def test_trailing_garbage(self, frame_bytes):
        with pytest.raises(WireFormatError):
            wire.load(frame_bytes + b"\x00")

    def test_corruption_any_byte(self, frame_bytes):
        for offset in range(0, len(frame_bytes), max(1, len(frame_bytes) // 23)):
            buf = bytearray(frame_bytes)
            buf[offset] ^= 0x40
            with pytest.raises(WireFormatError):
                wire.load(bytes(buf))

    def test_unknown_codec(self, encode):
        buf = encode("no-such-codec", None, {}, b"", 0)
        with pytest.raises(WireFormatError, match="unknown codec"):
            wire.load(buf)

    def test_declared_bits_disagree_with_payload(self, encode):
        # The v2 writer refuses to assemble it; a v1 frame saying so is
        # refused by the reader.
        with pytest.raises(WireFormatError):
            wire.load(encode("release-db", None, {}, b"\x00", 9))

    def test_missing_extras_rejected(self, encode):
        p = SketchParams(n=2, d=4, k=1, epsilon=0.5)
        buf = encode("release-db", p, {}, b"\x00", 8)
        with pytest.raises(WireFormatError, match="missing extra"):
            wire.load(buf)

    def test_payload_shape_mismatch_rejected(self, encode):
        p = SketchParams(n=2, d=4, k=1, epsilon=0.5)
        buf = encode("release-db", p, {"n": 2, "d": 4}, b"\x00", 7)
        with pytest.raises(WireFormatError, match="n\\*d"):
            wire.load(buf)

    def test_release_answers_inflated_bit_count_rejected(self, encode):
        # A re-framed payload with extra zero bytes and an inflated n_bits
        # (valid CRC, valid padding) must not decode to a sketch whose
        # size_in_bits disagrees with the real answer table.
        db = random_database(30, 6, 0.3, rng=1)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.25)
        sketch = ReleaseAnswersSketcher(Task.FORALL_INDICATOR).sketch(db, p)
        frame = wire.decode_frame(sketch.to_bytes())
        inflated = encode(
            frame.codec,
            frame.params,
            frame.extras,
            frame.payload + b"\x00\x00",
            frame.n_bits + 16,
        )
        with pytest.raises(WireFormatError, match="C\\(d,k\\)"):
            wire.load(inflated)

    def test_malformed_extras_raise_wire_error_not_stream_error(self, encode):
        """Constructor validation of untrusted header fields surfaces as
        WireFormatError, the one exception type the contract documents."""
        mg = MisraGries(50, 5)
        frame = wire.decode_frame(mg.to_bytes())
        for bad_extras in (
            {**frame.extras, "k": -1},
            {**frame.extras, "universe": 0},
        ):
            buf = encode(frame.codec, None, bad_extras, frame.payload, frame.n_bits)
            with pytest.raises(WireFormatError):
                wire.load(buf)

    def test_cross_family_from_bytes_rejected(self, encode):
        def reframe(buf):
            f = wire.decode_frame(buf)
            return encode(f.codec, f.params, f.extras, f.payload, f.n_bits)

        mg = MisraGries(20, 4)
        with pytest.raises(WireFormatError, match="not a FrequencySketch"):
            FrequencySketch.from_bytes(reframe(mg.to_bytes()))
        db = random_database(20, 6, 0.3, rng=0)
        p = SketchParams(n=20, d=6, k=2, epsilon=0.2)
        sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p)
        with pytest.raises(WireFormatError, match="not a StreamSummary"):
            StreamSummary.from_bytes(reframe(sketch.to_bytes()))


class TestV1FrameRejection(TestFrameRejection):
    """The same lies told in the decode-only v1 layout."""

    @pytest.fixture
    def frame_bytes(self):
        return _as_v1(_release_db_frame())

    @pytest.fixture
    def encode(self):
        return _craft_v1

    def test_corrupt_bit_count_fails_without_a_payload_sized_read(self):
        # A flipped high byte of n_bits declares an exabyte-scale payload.
        spy = _SpyStream(_craft_v1("misra-gries", None, {}, b"", 2**60))
        with pytest.raises(WireFormatError, match="truncated"):
            wire.load_from(spy)
        assert max(spy.read_sizes) <= wire.DEFAULT_CHUNK_BYTES

    def test_crafted_frames_match_committed_v1_frames(self):
        """The v1 rows in this file are real v1 frames: re-framing each
        codec's plain v2 fixture gives its committed v1 fixture."""
        for path in sorted((FIXTURES / "v1").glob("*.ifsk")):
            plain = (FIXTURES / "v2" / path.name).read_bytes()
            assert _as_v1(plain) == path.read_bytes(), path.name


# ----------------------------------------------------------------------
# Wire-format v2: binary headers, compression, chunked streaming.
# ----------------------------------------------------------------------
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _all_codec_objects():
    """One instance per registered codec (the golden-fixture builder)."""
    import importlib.util

    path = FIXTURES / "generate_v2_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_v2_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_fixture_objects()


class _SpyStream(io.BytesIO):
    """A BytesIO that records the size asked of every read."""

    def __init__(self, data: bytes = b"") -> None:
        super().__init__(data)
        self.read_sizes: list[int] = []

    def read(self, n=-1):
        self.read_sizes.append(n)
        return super().read(n)


class TestWireV2:
    def test_dump_writes_plain_v2(self):
        mg = MisraGries(30, 4)
        for buf in (wire.dump(mg), mg.to_bytes()):
            frame = wire.decode_frame(buf)
            assert buf[4] == frame.version == wire.WIRE_V2
            assert not frame.chunked and not frame.compressed

    def test_size_identity_every_codec_with_and_without_compression(self):
        """The acceptance invariant: size_in_bits == n_bits under v2,
        compressed or not -- compression shrinks stored bytes only."""
        for name, obj in _all_codec_objects().items():
            for compress in (False, True):
                buf = wire.dump(obj, compress=compress)
                frame = wire.decode_frame(buf)
                assert frame.codec == name and frame.version == wire.WIRE_V2
                assert frame.compressed is compress
                assert frame.n_bits == obj.size_in_bits()
                clone = wire.load(buf)
                assert clone.size_in_bits() == obj.size_in_bits()

    def test_stream_round_trip_every_codec(self):
        for name, obj in _all_codec_objects().items():
            for compress in (False, True):
                stream = io.BytesIO()
                n = wire.dump_to(obj, stream, compress=compress)
                assert n == stream.tell()
                assert stream.getvalue() == wire.dump(obj, compress=compress)
                stream.seek(0)
                clone = wire.load_from(stream)
                assert type(clone) is type(obj), name
                assert clone.size_in_bits() == obj.size_in_bits()
                # Exactly one frame was consumed: the stream is at EOF.
                assert stream.read() == b""

    def test_chunked_decode_is_windowed(self):
        """load_from never issues a payload-sized read from the file."""
        db = random_database(400, 16, 0.3, rng=6)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p)
        chunk = 64
        frame_bytes = _chunked_v2(wire.dump(sketch), chunk)
        payload_bytes = (sketch.size_in_bits() + 7) // 8
        assert payload_bytes > 10 * chunk  # the case is actually chunked
        assert wire.decode_frame(frame_bytes).chunked
        spy = _SpyStream(frame_bytes)
        clone = wire.load_from(spy)
        np.testing.assert_array_equal(clone.database.rows, sketch.database.rows)
        assert max(spy.read_sizes) <= chunk

    def test_unchunked_small_frames_stay_compact(self):
        """dump_to writes exactly dump's plain frame, whatever the size."""
        db = random_database(2048, 300, 0.3, rng=5)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        big = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p)
        assert (big.size_in_bits() + 7) // 8 > wire.DEFAULT_CHUNK_BYTES
        for obj in (MisraGries(30, 4), big):
            stream = io.BytesIO()
            wire.dump_to(obj, stream)
            stream.seek(0)
            frame = wire.read_frame(stream)
            assert not frame.chunked
            assert stream.getvalue() == wire.dump(obj)

    def test_compressed_frame_smaller_on_redundant_payload(self):
        db = BinaryDatabase(np.zeros((64, 16), dtype=bool))
        p = SketchParams(n=64, d=16, k=2, epsilon=0.1)
        from repro.core.release_db import ReleaseDbSketch

        sketch = ReleaseDbSketch(p, db)
        plain = wire.dump(sketch)
        squeezed = wire.dump(sketch, compress=True)
        assert len(squeezed) < len(plain)
        assert wire.decode_frame(squeezed).n_bits == sketch.size_in_bits()

    def test_inspect_frame_reads_header_only(self):
        db = random_database(80, 9, 0.3, rng=7)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p)
        buf = wire.dump(sketch)
        info = wire.inspect_frame(io.BytesIO(buf))
        assert info.codec == "release-db" and info.version == wire.WIRE_V2
        assert info.n_bits == sketch.size_in_bits()
        assert info.params == p and info.extras == {"n": db.n, "d": db.d}
        assert info.frame_bytes == len(buf)
        assert info.crc_ok
        # A committed v1 frame reports the same header as its v2 twin.
        v1 = (FIXTURES / "v1" / "release-db.ifsk").read_bytes()
        v1_info = wire.inspect_frame(io.BytesIO(v1))
        v2_info = wire.inspect_frame(
            io.BytesIO((FIXTURES / "v2" / "release-db.ifsk").read_bytes())
        )
        assert v1_info.version == wire.WIRE_V1 and v1_info.crc_ok
        assert v1_info.frame_bytes == len(v1)
        assert (v1_info.codec, v1_info.params, v1_info.extras, v1_info.n_bits) == (
            v2_info.codec, v2_info.params, v2_info.extras, v2_info.n_bits
        )
        corrupted = bytearray(buf)
        corrupted[-10] ^= 0x20  # payload byte: header still parses
        info = wire.inspect_frame(io.BytesIO(bytes(corrupted)))
        assert not info.crc_ok

    def test_header_builder_rejects_bad_fields(self):
        header = wire.Header()
        with pytest.raises(WireFormatError, match="unsupported type"):
            header.set("rows", [1, 2])
        with pytest.raises(WireFormatError, match="1..255"):
            header.set("", 1)
        header.set("n", 5).set("ok", True)
        assert header.fields == {"n": 5, "ok": True}
        with pytest.raises(WireFormatError, match="missing extra"):
            header.get_int("absent")
        with pytest.raises(WireFormatError, match="must be int"):
            header.get_int("ok")  # bools are not ints on the wire
        assert header.get_bool("ok") is True


def _craft_v2(
    name: bytes = b"misra-gries",
    flags: int = 0,
    fields: bytes = b"\x00",
    n_bits_raw: bytes = b"\x00",
    payload_section: bytes = b"\x00",
) -> bytes:
    """Assemble a raw v2 frame (valid CRC) for header-rejection tests."""
    body = (
        wire.MAGIC
        + bytes([wire.WIRE_V2, len(name)])
        + name
        + bytes([flags])
        + fields
        + n_bits_raw
        + payload_section
    )
    return body + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)


def _chunked_v2(plain: bytes, chunk_bytes: int, *, compress: bool = False) -> bytes:
    """Re-frame a plain v2 frame in the decode-only chunked layout.

    Nothing writes chunked frames any more, so :func:`_craft_v2` rebuilds
    one from the plain frame's header fields and its payload (zlib
    compressed first when ``compress``), split into ``chunk_bytes``
    chunks.
    """
    frame = wire.decode_frame(plain)
    name = frame.codec.encode("ascii")
    flags_at = len(wire.MAGIC) + 2 + len(name)
    n_bits_raw = encode_uvarint(frame.n_bits)
    header_end = wire.inspect_frame(io.BytesIO(plain)).header_bytes
    stored = zlib.compress(frame.payload, 6) if compress else frame.payload
    chunks = [stored[i : i + chunk_bytes] for i in range(0, len(stored), chunk_bytes)]
    return _craft_v2(
        name,
        flags=plain[flags_at] | 0x04 | (0x02 if compress else 0),
        fields=plain[flags_at + 1 : header_end - len(n_bits_raw)],
        n_bits_raw=n_bits_raw,
        payload_section=b"".join(struct.pack(">I", len(c)) + c for c in chunks)
        + struct.pack(">I", 0),
    )


class TestV2FrameRejection:
    """Every way a v2 frame can lie must raise WireFormatError."""

    @pytest.fixture
    def v2_frame(self):
        db = random_database(50, 8, 0.3, rng=0)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p)
        return wire.dump(sketch)

    @pytest.fixture
    def v2_chunked_frame(self):
        db = random_database(200, 12, 0.3, rng=1)
        p = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.1)
        sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p)
        return _chunked_v2(wire.dump(sketch), 48, compress=True)

    def test_corruption_any_byte(self, v2_frame, v2_chunked_frame):
        for frame_bytes in (v2_frame, v2_chunked_frame):
            step = max(1, len(frame_bytes) // 23)
            for offset in range(0, len(frame_bytes), step):
                buf = bytearray(frame_bytes)
                buf[offset] ^= 0x40
                with pytest.raises(WireFormatError):
                    wire.load(bytes(buf))

    def test_truncation_everywhere(self, v2_chunked_frame):
        for cut in (0, 3, 7, len(v2_chunked_frame) // 2, len(v2_chunked_frame) - 1):
            with pytest.raises(WireFormatError):
                wire.load(v2_chunked_frame[:cut])

    def test_trailing_garbage(self, v2_frame):
        with pytest.raises(WireFormatError, match="trailing garbage"):
            wire.load(v2_frame + b"\x00")

    def test_unknown_flags(self):
        with pytest.raises(WireFormatError, match="unknown frame flags"):
            wire.load(_craft_v2(flags=0x08))

    def test_duplicate_field(self):
        field = b"\x01k\x00" + encode_svarint(3)
        with pytest.raises(WireFormatError, match="duplicate header field"):
            wire.load(_craft_v2(fields=b"\x02" + field + field))

    def test_unknown_field_tag(self):
        with pytest.raises(WireFormatError, match="unknown header field tag"):
            wire.load(_craft_v2(fields=b"\x01\x01k\x09\x00"))

    def test_bad_bool_value(self):
        with pytest.raises(WireFormatError, match="bool field"):
            wire.load(_craft_v2(fields=b"\x01\x01k\x02\x02"))

    def test_empty_field_key(self):
        with pytest.raises(WireFormatError, match="empty header field key"):
            wire.load(_craft_v2(fields=b"\x01\x00"))

    def test_oversized_string_field_fails_without_a_field_sized_read(self):
        # A string field declaring a 1 TiB value, in a 30-byte frame.
        fields = b"\x01\x01k\x03" + encode_uvarint(1 << 40)
        spy = _SpyStream(_craft_v2(fields=fields))
        with pytest.raises(WireFormatError, match="truncated"):
            wire.load_from(spy)
        assert max(spy.read_sizes) <= wire.DEFAULT_CHUNK_BYTES

    def test_non_canonical_varint(self):
        # n_bits encoded as the padded two-byte form of zero.
        with pytest.raises(WireFormatError, match="varint"):
            wire.load(_craft_v2(n_bits_raw=b"\x80\x00"))

    def test_payload_shorter_than_declared(self):
        # Declares 16 bits but stores a single byte.
        with pytest.raises(WireFormatError, match="disagrees with declared"):
            wire.load(_craft_v2(n_bits_raw=b"\x10", payload_section=b"\x01\x00"))

    def test_chunk_bytes_exceed_declared(self):
        # Chunked frame: declares 8 bits but ships a 2-byte chunk.
        section = struct.pack(">I", 2) + b"\x00\x00" + struct.pack(">I", 0)
        with pytest.raises(WireFormatError, match="disagrees with declared"):
            wire.load(
                _craft_v2(flags=0x04, n_bits_raw=b"\x08", payload_section=section)
            )

    def test_missing_chunk_sentinel(self):
        section = struct.pack(">I", 1) + b"\x00"  # no zero sentinel
        with pytest.raises(WireFormatError):
            wire.load(
                _craft_v2(flags=0x04, n_bits_raw=b"\x08", payload_section=section)
            )

    def test_compressed_garbage_payload(self):
        # ZLIB flag set but the stored bytes are not a zlib stream.
        section = b"\x04" + b"\xde\xad\xbe\xef"
        with pytest.raises(WireFormatError, match="compressed payload"):
            wire.load(
                _craft_v2(flags=0x02, n_bits_raw=b"\x20", payload_section=section)
            )

    def test_nonzero_padding_rejected(self):
        # 4 declared bits but the low nibble of the byte is set.
        buf = _craft_v2(n_bits_raw=b"\x04", payload_section=b"\x01\xff")
        mg_like = wire.decode_frame(buf)
        with pytest.raises(Exception, match="padding"):
            mg_like.reader()


class _DribbleStream:
    """A socket-like stream: every read returns at most one byte."""

    def __init__(self, data: bytes) -> None:
        self._buf = io.BytesIO(data)

    def read(self, n: int = -1) -> bytes:
        return self._buf.read(min(n, 1) if n >= 0 else 1)


class TestStreamTruncation:
    """A peer disconnecting mid-frame must surface as WireFormatError.

    These tests cut serialized frames at *every* byte offset -- covering
    every section boundary (magic, header, chunk length, mid-chunk, zero
    sentinel, CRC trailer) -- and assert the stream entry points raise
    the wire-format error: never ``struct.error``, never a silently
    short payload.
    """

    @staticmethod
    def _frames() -> dict[str, bytes]:
        mg = MisraGries(64, 8)
        mg.update_many(np.arange(256) % 11)
        plain = wire.dump(mg)
        return {
            "v1": (FIXTURES / "v1" / "misra-gries.ifsk").read_bytes(),
            "v2-plain": plain,
            "v2-chunked": _chunked_v2(plain, 16),
            "v2-zlib-chunked": (FIXTURES / "v2" / "misra-gries.c.ifsk").read_bytes(),
        }

    def test_every_cut_fails_cleanly_eager(self):
        for label, frame_bytes in self._frames().items():
            for cut in range(len(frame_bytes)):
                with pytest.raises(WireFormatError):
                    wire.load_from(io.BytesIO(frame_bytes[:cut]))

    def test_every_cut_fails_cleanly_lazy(self):
        # The lazy path: read_frame succeeds once the header is intact,
        # but materializing the payload must still raise, even when the
        # missing bytes are only the sentinel or the CRC trailer.
        for label, frame_bytes in self._frames().items():
            for cut in range(len(frame_bytes)):
                with pytest.raises(WireFormatError):
                    frame = wire.read_frame(io.BytesIO(frame_bytes[:cut]))
                    frame.payload

    def test_every_cut_fails_cleanly_windowed_reader(self):
        # Decoding through the windowed bit reader (the codec path).
        frame_bytes = self._frames()["v2-chunked"]
        for cut in range(len(frame_bytes)):
            with pytest.raises(WireFormatError):
                wire.load_from(_DribbleStream(frame_bytes[:cut]))

    def test_intact_frames_survive_dribbling_streams(self):
        # One byte per read -- the exactness loop, not the caller, must
        # assemble full sections.
        for label, frame_bytes in self._frames().items():
            obj = wire.load_from(_DribbleStream(frame_bytes))
            assert isinstance(obj, MisraGries)
            assert obj.estimate_count(1) >= 0

    def test_stalled_sentinel_is_wire_error(self):
        # A stream that ends right where the zero sentinel belongs.
        frame_bytes = self._frames()["v2-chunked"]
        with pytest.raises(WireFormatError):
            wire.load_from(io.BytesIO(frame_bytes[: len(frame_bytes) - 8]))

    def test_stalled_crc_trailer_is_wire_error(self):
        frame_bytes = self._frames()["v2-chunked"]
        for missing in (1, 2, 3, 4):
            with pytest.raises(WireFormatError):
                wire.load_from(io.BytesIO(frame_bytes[: len(frame_bytes) - missing]))


class TestMaxBytesBudget:
    """The ``max_bytes`` guard for untrusted transports."""

    @staticmethod
    def _chunked_frame() -> bytes:
        mg = MisraGries(64, 8)
        mg.update_many(np.arange(256) % 11)
        return _chunked_v2(wire.dump(mg), 16)

    def test_exact_budget_decodes(self):
        frame_bytes = self._chunked_frame()
        obj = wire.load_from(io.BytesIO(frame_bytes), max_bytes=len(frame_bytes))
        assert isinstance(obj, MisraGries)

    def test_short_budget_rejected(self):
        frame_bytes = self._chunked_frame()
        for budget in (1, 8, len(frame_bytes) // 2, len(frame_bytes) - 1):
            with pytest.raises(WireFormatError, match="limit"):
                wire.load_from(io.BytesIO(frame_bytes), max_bytes=budget)
        with pytest.raises(WireFormatError):
            wire.read_frame(io.BytesIO(frame_bytes), max_bytes=4).payload
        with pytest.raises(WireFormatError, match="limit"):
            wire.inspect_frame(io.BytesIO(frame_bytes), max_bytes=8)

    def test_hostile_chunk_length_rejected_before_read(self):
        # Patch the first chunk's length word to claim ~4 GiB; with a
        # budget set, the reader must refuse before attempting the read.
        frame_bytes = bytearray(self._chunked_frame())
        needle = struct.pack(">I", 16)  # first 16-byte chunk's length
        offset = frame_bytes.index(needle, 8)
        frame_bytes[offset : offset + 4] = struct.pack(">I", 0xFFFF_FFF0)

        class _Explosive(io.BytesIO):
            def read(self, n: int = -1) -> bytes:
                assert n < (1 << 20), f"attempted a {n}-byte read"
                return super().read(n)

        with pytest.raises(WireFormatError, match="limit"):
            wire.load_from(
                _Explosive(bytes(frame_bytes)), max_bytes=len(frame_bytes)
            )

    def test_corrupt_chunk_length_fails_without_a_chunk_sized_read(self):
        # Without a budget too: a flipped high bit claims a ~1 GiB chunk.
        frame_bytes = bytearray(self._chunked_frame())
        offset = frame_bytes.index(struct.pack(">I", 16), 8)
        frame_bytes[offset] ^= 0x40
        spy = _SpyStream(bytes(frame_bytes))
        with pytest.raises(WireFormatError, match="truncated"):
            wire.load_from(spy)
        assert max(spy.read_sizes) <= wire.DEFAULT_CHUNK_BYTES

    def test_invalid_budget_rejected(self):
        with pytest.raises(WireFormatError, match="max_bytes"):
            wire.read_frame(io.BytesIO(b"x"), max_bytes=0)
