"""Tests for the wire-v3 multi-frame container (repro.wire).

The container contract under test:

* round-trip: any mix of codecs packs into one container and every shard
  loads back bit-identically, through both the seeking reader
  (:class:`~repro.wire.ContainerReader`) and the sequential one-pass
  iterators -- including empty and single-frame containers;
* accounting: every manifest entry's charged ``n_bits`` equals the
  shard's ``size_in_bits()`` exactly, under dictionary codec ids, delta
  payloads, and zlib alike -- stored bytes shrink, charged bits never;
* laziness: loading one shard of a 64-shard container reads
  O(header + manifest + that record) bytes, pinned by a spy file;
* strictness: truncation at *every* byte and a corrupted manifest entry
  are rejected on every read path.
"""

from __future__ import annotations

import functools
import importlib.util
import io
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.db.serialize import encode_uvarint
from repro.errors import WireFormatError
from repro.streaming import MisraGries


@functools.lru_cache(maxsize=1)
def _zoo() -> dict[str, object]:
    """One deterministic summary per codec (the golden-fixture objects)."""
    path = Path(__file__).resolve().parent / "fixtures" / "generate_v2_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_v2_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_fixture_objects()


def _misra_gries(seed: int = 0, universe: int = 96, k: int = 8) -> MisraGries:
    mg = MisraGries(universe, k)
    mg.update_many(np.random.default_rng(seed).integers(0, universe, 300))
    return mg


def _container(items, **kwargs) -> bytes:
    buf = io.BytesIO()
    wire.write_container(buf, items, **kwargs)
    return buf.getvalue()


class SpyFile(io.BytesIO):
    """A seekable stream that counts every byte handed to the reader."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


# ----------------------------------------------------------------------
# Round-trips.
# ----------------------------------------------------------------------
class TestContainerRoundTrip:
    def test_all_codecs_round_trip(self):
        items = sorted(_zoo().items())
        data = _container(items)
        reader = wire.ContainerReader.open(io.BytesIO(data))
        assert reader.names() == tuple(name for name, _ in items)
        for name, obj in items:
            assert wire.dump(reader.load(name)) == wire.dump(obj)

    def test_sequential_paths_match_seek_path(self):
        items = sorted(_zoo().items())
        data = _container(items)
        reader = wire.ContainerReader.open(io.BytesIO(data))
        seeked = [wire.dump(reader.load(name)) for name, _ in items]
        streamed = [
            wire.dump(obj)
            for obj in wire.iter_container_objects(io.BytesIO(data))
        ]
        assert streamed == seeked
        info = wire.inspect_container(io.BytesIO(data))
        assert info.crc_ok and len(info.entries) == len(items)

    def test_empty_container(self):
        data = _container([])
        reader = wire.ContainerReader.open(io.BytesIO(data))
        assert len(reader) == 0 and reader.names() == ()
        assert list(wire.iter_container_frames(io.BytesIO(data))) == []
        with pytest.raises(WireFormatError, match="holds no frames"):
            wire.load(data)

    def test_meta_round_trips(self):
        data = _container([("mg", _misra_gries())], meta={"last_seq": 42})
        reader = wire.ContainerReader.open(io.BytesIO(data))
        assert reader.meta == {"last_seq": 42}
        assert wire.inspect_container(io.BytesIO(data)).meta == {"last_seq": 42}

    def test_single_anonymous_frame_is_a_plain_sketch_file(self):
        """A one-entry container flows through load/read_frame unchanged."""
        obj = _misra_gries()
        data = _container([("", obj)])
        assert wire.peek_wire_version(data) == wire.WIRE_V3
        assert wire.dump(wire.load(data)) == wire.dump(obj)
        info = wire.inspect_frame(io.BytesIO(data))
        assert info.version == wire.WIRE_V3
        assert info.n_bits == obj.size_in_bits() and info.crc_ok

    def test_multi_frame_refused_by_read_frame(self):
        data = _container([("a", _misra_gries(1)), ("b", _misra_gries(2))])
        with pytest.raises(WireFormatError, match="multi-frame container"):
            wire.load(data)

    def test_extract_reopens_as_single_shard_container(self):
        items = [("a", _misra_gries(1)), ("b", _misra_gries(2))]
        data = _container(items)
        reader = wire.ContainerReader.open(io.BytesIO(data))
        for name, obj in items:
            shard = reader.extract(name)
            sub = wire.ContainerReader.open(io.BytesIO(shard))
            assert sub.names() == (name,)
            assert wire.dump(sub.load(name)) == wire.dump(obj)
            # The extract is also a valid standalone frame file.
            assert wire.dump(wire.load(shard)) == wire.dump(obj)

    def test_deterministic_encode(self):
        items = sorted(_zoo().items())
        assert _container(items) == _container(items)

    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(
            st.sampled_from(sorted(_zoo())), min_size=0, max_size=5
        ),
        compress=st.booleans(),
        delta=st.booleans(),
    )
    def test_arbitrary_codec_mixes_round_trip(self, picks, compress, delta):
        zoo = _zoo()
        items = [(f"s{i}-{codec}", zoo[codec]) for i, codec in enumerate(picks)]
        data = _container(items, compress=compress, delta=delta)
        reader = wire.ContainerReader.open(io.BytesIO(data))
        assert reader.names() == tuple(name for name, _ in items)
        for name, obj in items:
            assert wire.dump(reader.load(name)) == wire.dump(obj)
        streamed = list(wire.iter_container_objects(io.BytesIO(data)))
        assert [wire.dump(o) for o in streamed] == [
            wire.dump(obj) for _, obj in items
        ]


# ----------------------------------------------------------------------
# Accounting: charged bits never change, stored bytes may shrink.
# ----------------------------------------------------------------------
class TestChargedBits:
    @pytest.mark.parametrize("compress", [False, True])
    def test_manifest_n_bits_is_size_in_bits(self, compress):
        items = sorted(_zoo().items())
        data = _container(items, compress=compress)
        reader = wire.ContainerReader.open(io.BytesIO(data))
        for entry, (name, obj) in zip(reader.entries, items):
            assert entry.name == name
            assert entry.n_bits == obj.size_in_bits()
            frame = reader.frame(name)
            assert frame.n_bits == obj.size_in_bits()

    def test_delta_shrinks_sparse_payloads_not_charged_bits(self):
        """A sparse payload stores fewer bytes under delta; n_bits exact."""
        zoo = _zoo()
        sparse = {
            name: obj
            for name, obj in zoo.items()
            if name in ("itemset-miner", "misra-gries", "space-saving")
        }
        items = sorted(sparse.items())
        with_delta = wire.ContainerReader.open(
            io.BytesIO(_container(items, delta=True))
        )
        without = wire.ContainerReader.open(
            io.BytesIO(_container(items, delta=False))
        )
        shrunk = 0
        for on, off, (name, obj) in zip(
            with_delta.entries, without.entries, items
        ):
            assert on.n_bits == off.n_bits == obj.size_in_bits()
            assert on.record_bytes <= off.record_bytes
            shrunk += on.record_bytes < off.record_bytes
            assert wire.dump(with_delta.load(name)) == wire.dump(obj)
        assert shrunk > 0, "delta never engaged on any sparse payload"

    def test_stored_never_exceeds_raw(self):
        """min(raw, delta, zlib) selection: v3 stored <= raw packed bytes."""
        info = wire.inspect_container(
            io.BytesIO(_container(sorted(_zoo().items()), compress=True))
        )
        for entry in info.entries:
            raw_bytes = -(-entry.n_bits // 8)
            # The stored payload never exceeds the raw packed bytes; the
            # record adds only its bounded header + varints + crc.
            assert entry.record_bytes <= raw_bytes + 64


# ----------------------------------------------------------------------
# Laziness: one shard costs O(header + manifest + that record) bytes.
# ----------------------------------------------------------------------
class TestLazyLoad:
    def test_single_shard_load_reads_header_manifest_record_only(self):
        items = [
            (f"shard{i:02d}", _misra_gries(i, universe=4096, k=64))
            for i in range(64)
        ]
        data = _container(items)
        spy = SpyFile(data)
        reader = wire.ContainerReader.open(spy)
        open_cost = spy.bytes_read
        target = reader.entry("shard37")
        obj = reader.load("shard37")
        assert wire.dump(obj) == wire.dump(items[37][1])
        load_cost = spy.bytes_read - open_cost
        manifest_bytes = reader.container_bytes - reader.manifest_offset
        # Opening touches header + codec table + manifest + footer only.
        assert open_cost <= reader.header_bytes + manifest_bytes + 32
        # The load touches that record (and its sentinel), nothing else.
        assert load_cost <= target.record_bytes + 8
        # Together: a small fraction of the 64-shard container.
        assert spy.bytes_read < len(data) / 4

    def test_max_bytes_budget_caps_record_reads(self):
        """The budget lets small shards through and rejects the big one."""
        # Itemwise updates keep all 64 counters live over 300 spread-out
        # items (one batch fold would cut most of them to zero).
        big = MisraGries(4096, 64)
        for item in np.random.default_rng(1).integers(0, 4096, 300).tolist():
            big.update(item)
        items = [("big", big), ("small", _misra_gries(2))]
        data = _container(items)
        reader = wire.ContainerReader.open(io.BytesIO(data), max_bytes=300)
        assert wire.dump(reader.load("small")) == wire.dump(items[1][1])
        with pytest.raises(WireFormatError, match="limit"):
            reader.load("big")
        with pytest.raises(WireFormatError, match="limit"):
            reader.record("big")


# ----------------------------------------------------------------------
# Strictness: every truncation and manifest lie is rejected.
# ----------------------------------------------------------------------
def _read_all_seek(data: bytes):
    reader = wire.ContainerReader.open(io.BytesIO(data))
    return [reader.load(entry) for entry in reader.entries]


def _read_all_stream(data: bytes):
    return list(wire.iter_container_objects(io.BytesIO(data)))


class TestRejection:
    def test_every_truncation_rejected(self):
        data = _container([("a", _misra_gries(1)), ("b", _misra_gries(2))])
        _read_all_seek(data)  # sanity: intact container decodes
        _read_all_stream(data)
        for cut in range(len(data)):
            truncated = data[:cut]
            with pytest.raises((WireFormatError, EOFError)):
                _read_all_seek(truncated)
            with pytest.raises((WireFormatError, EOFError)):
                _read_all_stream(truncated)

    def test_every_byte_corruption_detected(self):
        data = bytearray(
            _container([("a", _misra_gries(1)), ("b", _misra_gries(2))])
        )
        for i in range(len(data)):
            data[i] ^= 0x40
            corrupted = bytes(data)
            data[i] ^= 0x40
            with pytest.raises(WireFormatError):
                _read_all_seek(corrupted)
            with pytest.raises(WireFormatError):
                _read_all_stream(corrupted)
            try:
                info = wire.inspect_container(io.BytesIO(corrupted))
            except WireFormatError:
                pass
            else:
                assert not info.crc_ok, f"inspect missed corruption at byte {i}"

    @pytest.mark.parametrize(
        "field", ["offset", "record_bytes", "n_bits", "crc", "codec_index"]
    )
    def test_corrupted_manifest_entry_rejected(self, field):
        """A manifest lying about a record is caught even with valid CRCs."""
        data = _container([("a", _misra_gries(1)), ("b", _misra_gries(2))])
        reader = wire.ContainerReader.open(io.BytesIO(data))
        entries = list(reader.entries)
        bad = entries[1]
        mutated = {
            "offset": lambda e: {"offset": e.offset + 1},
            "record_bytes": lambda e: {"record_bytes": e.record_bytes + 1},
            "n_bits": lambda e: {"n_bits": e.n_bits + 1},
            "crc": lambda e: {"crc": e.crc ^ 1},
            "codec_index": lambda e: {"codec_index": 0, "codec": "release-db"},
        }[field](bad)
        entries[1] = type(bad)(**{**bad.__dict__, **mutated})
        forged = _forge_manifest(data, reader, entries)
        with pytest.raises(WireFormatError):
            _read_all_seek(forged)
        with pytest.raises(WireFormatError):
            _read_all_stream(forged)

    def test_duplicate_names_rejected_by_writer(self):
        with pytest.raises(WireFormatError, match="duplicate"):
            _container([("a", _misra_gries(1)), ("a", _misra_gries(2))])

    def test_footer_not_pointing_at_manifest_rejected(self):
        data = bytearray(_container([("a", _misra_gries())]))
        # Re-point the footer one byte early, with a freshly valid CRC.
        offset = struct.unpack(">Q", data[-16:-8])[0] - 1
        tail = struct.pack(">Q", offset)
        data[-16:] = tail + struct.pack(">I", zlib.crc32(tail)) + b"KSFI"
        with pytest.raises(WireFormatError):
            wire.ContainerReader.open(io.BytesIO(bytes(data)))


def _forge_manifest(data: bytes, reader, entries) -> bytes:
    """Rebuild a container's manifest (and CRCs) around forged entries.

    Produces bytes that pass every checksum -- only the manifest's
    *claims* about the records are wrong -- so tests exercise the
    manifest-vs-record cross-checks, not the CRC layer.
    """
    codec_index = {name: i for i, name in enumerate(reader.codecs)}
    manifest = encode_uvarint(len(entries))
    for entry in entries:
        name = entry.name.encode("ascii")
        manifest += bytes([len(name)]) + name
        manifest += encode_uvarint(codec_index[entry.codec])
        manifest += encode_uvarint(entry.offset)
        manifest += encode_uvarint(entry.record_bytes)
        manifest += encode_uvarint(entry.n_bits)
        manifest += struct.pack(">I", entry.crc)
    offset = reader.manifest_offset
    body = data[:offset] + manifest
    body += struct.pack(">I", zlib.crc32(manifest))
    tail = struct.pack(">Q", offset)
    return body + tail + struct.pack(">I", zlib.crc32(tail)) + b"KSFI"
