"""Tests for the durability layer (repro.server.persistence).

The contract under test, in increasing order of assembly:

* the record codec round-trips any body and *every* truncation point is
  caught: torn at EOF -> :class:`TruncatedRecordError`, anything else
  (bad length, CRC mismatch) -> :class:`~repro.errors.PersistenceError`;
* the WAL tolerates exactly a torn final record -- healing it on open --
  and refuses all in-place corruption (mid-file CRC flips, bytes after
  the torn point, sequence numbers going backwards);
* snapshots are strict: published whole via ``os.replace``, so *any*
  truncation is corruption;
* the store's kill-restart property: after a crash at an arbitrary byte
  of the log (injected with :class:`~repro.testing.FaultyFile`), a fresh
  recovery reproduces **exactly the acknowledged prefix** of the op
  sequence -- no acknowledged op lost, no unacknowledged op surviving;
* compaction is crash-safe in both windows: before the snapshot
  publishes (old snapshot + full WAL still recover) and after it
  publishes but before the WAL resets (the sequence watermark prevents
  double-apply).
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.db.serialize import encode_uvarint
from repro.errors import PersistenceError, ProtocolError, ReproError
from repro.server import SketchRegistry, protocol
from repro.server.persistence import (
    PersistentStore,
    TruncatedRecordError,
    WriteAheadLog,
    encode_record,
    read_record,
    read_snapshot,
    write_snapshot,
)
from repro.streaming import MisraGries
from repro.testing import FaultyFile

MAX = 1 << 20


def _misra_gries(seed: int = 0, universe: int = 48, k: int = 6) -> MisraGries:
    mg = MisraGries(universe, k)
    rng = np.random.default_rng(seed)
    mg.update_many(rng.integers(0, universe, 400))
    return mg


def _load_body(name: str, seed: int = 0) -> bytes:
    return protocol.encode_request(
        protocol.OP_LOAD, name=name, frame=wire.dump(_misra_gries(seed))
    )


def _ingest_body(name: str, items) -> bytes:
    return protocol.encode_request(
        protocol.OP_INGEST, name=name, items=np.asarray(items)
    )


# ----------------------------------------------------------------------
# Record codec.
# ----------------------------------------------------------------------
class TestRecordCodec:
    @given(body=st.binary(min_size=1, max_size=2048))
    @settings(max_examples=60)
    def test_round_trips(self, body):
        framed = encode_record(body, max_bytes=MAX)
        assert read_record(io.BytesIO(framed), max_bytes=MAX) == body

    @given(bodies=st.lists(st.binary(min_size=1, max_size=64), max_size=8))
    @settings(max_examples=40)
    def test_concatenated_records_read_in_order(self, bodies):
        stream = io.BytesIO(
            b"".join(encode_record(b, max_bytes=MAX) for b in bodies)
        )
        out = []
        while (body := read_record(stream, max_bytes=MAX)) is not None:
            out.append(body)
        assert out == bodies

    def test_truncated_everywhere(self):
        framed = encode_record(b"payload-bytes", max_bytes=MAX)
        assert read_record(io.BytesIO(framed), max_bytes=MAX) == b"payload-bytes"
        for cut in range(1, len(framed)):
            with pytest.raises(TruncatedRecordError):
                read_record(io.BytesIO(framed[:cut]), max_bytes=MAX)
        # A clean EOF (no bytes at all) is not an error.
        assert read_record(io.BytesIO(b""), max_bytes=MAX) is None

    def test_crc_flip_detected_at_every_byte(self):
        framed = bytearray(encode_record(b"payload", max_bytes=MAX))
        for index in range(len(framed)):
            corrupt = bytearray(framed)
            corrupt[index] ^= 0x01
            with pytest.raises(PersistenceError):
                read_record(io.BytesIO(bytes(corrupt)), max_bytes=MAX)

    def test_length_bounds_enforced(self):
        with pytest.raises(PersistenceError, match="outside"):
            encode_record(b"", max_bytes=MAX)
        with pytest.raises(PersistenceError, match="outside"):
            encode_record(b"xy", max_bytes=1)
        framed = encode_record(b"abc", max_bytes=MAX)
        with pytest.raises(PersistenceError, match="outside"):
            read_record(io.BytesIO(framed), max_bytes=2)


# ----------------------------------------------------------------------
# Write-ahead log.
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def _fresh(self, tmp_path, n_ops: int = 3) -> WriteAheadLog:
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.open_append()
        for i in range(n_ops):
            wal.append(_load_body(f"s{i}", seed=i))
        wal.close()
        return wal

    def test_append_scan_round_trip(self, tmp_path):
        self._fresh(tmp_path)
        scan = WriteAheadLog(tmp_path / "wal.log").scan()
        assert [r.seq for r in scan.records] == [1, 2, 3]
        assert not scan.torn_tail
        for i, record in enumerate(scan.records):
            parsed = protocol.parse_request(record.request_body)
            assert (parsed.op, parsed.name) == (protocol.OP_LOAD, f"s{i}")

    def test_missing_file_scans_empty(self, tmp_path):
        scan = WriteAheadLog(tmp_path / "wal.log").scan()
        assert scan == type(scan)(
            records=(), good_offset=0, torn_tail=False, exists=False
        )

    def test_truncation_everywhere(self, tmp_path):
        """Every byte-level truncation is either a clean prefix or torn."""
        self._fresh(tmp_path)
        path = tmp_path / "wal.log"
        data = path.read_bytes()
        # Record boundaries: header (5 bytes) then each good_offset.
        boundaries = {5}
        wal = WriteAheadLog(path)
        full = wal.scan()
        stream = io.BytesIO(data)
        stream.seek(5)
        while read_record(stream, max_bytes=wal.max_record_bytes) is not None:
            boundaries.add(stream.tell())
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            if cut < 5:
                # Torn file header: there is no log to recover.
                with pytest.raises(PersistenceError):
                    wal.scan()
                continue
            scan = wal.scan()
            assert scan.torn_tail == (cut not in boundaries)
            assert scan.records == full.records[: len(scan.records)]
            # Healing: open_append truncates back to the good prefix and
            # the next append lands cleanly with the next seq.
            wal2 = WriteAheadLog(path)
            wal2.open_append(scan)
            seq = wal2.append(_load_body("healed"))
            wal2.close()
            assert seq == scan.last_seq + 1
            healed = wal2.scan()
            assert not healed.torn_tail
            assert [r.seq for r in healed.records] == [
                *(r.seq for r in scan.records), seq,
            ]
        path.write_bytes(data)

    def test_midfile_corruption_refused(self, tmp_path):
        self._fresh(tmp_path)
        path = tmp_path / "wal.log"
        data = bytearray(path.read_bytes())
        # Flip one byte inside the *first* record's body: a fully-present
        # record with a bad CRC is in-place corruption, never torn.
        data[5 + 8 + 1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(PersistenceError, match="CRC"):
            WriteAheadLog(path).scan()

    def test_backwards_seq_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        records = b"".join(
            encode_record(encode_uvarint(seq) + _load_body("s"), max_bytes=MAX)
            for seq in (2, 1)
        )
        path.write_bytes(b"IFWL\x01" + records)
        with pytest.raises(PersistenceError, match="backwards"):
            WriteAheadLog(path).scan()

    def test_non_mutating_op_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        body = encode_uvarint(1) + protocol.encode_request(protocol.OP_PING)
        path.write_bytes(b"IFWL\x01" + encode_record(body, max_bytes=MAX))
        with pytest.raises(PersistenceError, match="non-mutating"):
            WriteAheadLog(path).scan()

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOPE\x01")
        with pytest.raises(PersistenceError, match="magic"):
            WriteAheadLog(path).scan()
        path.write_bytes(b"IFWL\x02")
        with pytest.raises(PersistenceError, match="version"):
            WriteAheadLog(path).scan()

    def test_reset_keeps_records_past_watermark(self, tmp_path):
        wal = self._fresh(tmp_path, n_ops=4)
        wal.open_append()
        wal.reset(keep_after_seq=2)
        seq = wal.append(_load_body("post"))
        wal.close()
        scan = wal.scan()
        assert [r.seq for r in scan.records] == [3, 4, seq]


# ----------------------------------------------------------------------
# Snapshots.
# ----------------------------------------------------------------------
class TestSnapshot:
    def test_round_trips(self, tmp_path):
        objects = [("a", _misra_gries(1)), ("b", _misra_gries(2))]
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, objects, last_seq=17)
        entries, last_seq = read_snapshot(path)
        assert last_seq == 17
        assert [name for name, _ in entries] == ["a", "b"]
        # Each extracted frame decodes back to the object that went in
        # (compared via canonical re-encoding).
        for (_, frame), (_, obj) in zip(entries, objects):
            assert wire.dump(wire.load(frame)) == wire.dump(obj)
        write_snapshot(path, [], last_seq=0)
        assert read_snapshot(path) == ([], 0)

    def test_snapshot_is_a_wire_container(self, tmp_path):
        """The snapshot file doubles as an ordinary v3 shard container."""
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, [("mg", _misra_gries())], last_seq=9)
        with path.open("rb") as stream:
            reader = wire.ContainerReader.open(stream)
            assert reader.meta == {"last_seq": 9}
            assert reader.names() == ("mg",)
            loaded = reader.load("mg")
        assert wire.dump(loaded) == wire.dump(_misra_gries())

    def test_truncation_everywhere_is_corruption(self, tmp_path):
        """Snapshots publish atomically, so torn is never legitimate."""
        path = tmp_path / "snapshot.bin"
        write_snapshot(path, [("a", _misra_gries())], last_seq=3)
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(PersistenceError):
                read_snapshot(path)
        path.write_bytes(data + b"\x00")
        with pytest.raises(PersistenceError):
            read_snapshot(path)

    def test_snapshot_meta_validated(self, tmp_path):
        """A pushed shard container is not a snapshot: last_seq required."""
        path = tmp_path / "snapshot.bin"
        with path.open("wb") as out:
            wire.write_container(out, [("mg", _misra_gries())])
        with pytest.raises(PersistenceError, match="last_seq"):
            read_snapshot(path)

    def test_non_container_snapshot_refused(self, tmp_path):
        """Snapshots are v3 containers; any other file is refused in one line."""
        path = tmp_path / "snapshot.bin"
        for data in (
            b"IFSN\x01" + encode_uvarint(0) + encode_uvarint(0),
            _misra_gries().to_bytes(),
            b"",
        ):
            path.write_bytes(data)
            with pytest.raises(PersistenceError, match="not a wire-v3 container") as info:
                read_snapshot(path)
            assert "\n" not in str(info.value)


# ----------------------------------------------------------------------
# The store: recovery, journaling, compaction.
# ----------------------------------------------------------------------
def _estimates(registry: SketchRegistry, name: str, universe: int = 48):
    from repro.db import Itemset

    return registry.estimate(name, [Itemset([i]) for i in range(universe)])


class TestPersistentStore:
    def test_journal_then_recover_round_trip(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        info = store.recover(registry)
        assert (info.snapshot_entries, info.replayed_ops) == (0, 0)
        registry.load("mg", wire.dump(_misra_gries()))
        registry.ingest("mg", np.arange(20, dtype=np.int64) % 48)
        registry.load("other", wire.dump(_misra_gries(5)))
        registry.drop("other")
        expected = _estimates(registry, "mg")
        store.close()

        fresh = SketchRegistry()
        info = PersistentStore(tmp_path / "data").recover(fresh)
        assert info.replayed_ops == 4
        assert [e.name for e in fresh.entries()] == ["mg"]
        assert _estimates(fresh, "mg") == expected

    def test_journaled_v1_load_recovers_and_compacts(self, tmp_path):
        """A LOAD of a decode-only v1 frame is journaled verbatim, replays
        on recovery and compacts into the v3 snapshot."""
        from pathlib import Path

        v1 = Path(__file__).resolve().parent / "fixtures" / "v1" / "misra-gries.ifsk"
        frame = v1.read_bytes()
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", frame)
        expected = _estimates(registry, "mg", 60)
        store.close()
        (record,) = WriteAheadLog(tmp_path / "data" / "wal.log").scan().records
        assert frame in record.request_body

        for _ in range(2):
            fresh = SketchRegistry()
            store = PersistentStore(tmp_path / "data")
            store.recover(fresh)
            assert _estimates(fresh, "mg", 60) == expected
            store.compact()
            store.close()

    def test_replay_does_not_relog(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        store.close()
        size = (tmp_path / "data" / "wal.log").stat().st_size

        second = PersistentStore(tmp_path / "data")
        second.recover(SketchRegistry())
        second.close()
        assert (tmp_path / "data" / "wal.log").stat().st_size == size

    def test_recover_twice_refused(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        store.recover(SketchRegistry())
        with pytest.raises(PersistenceError, match="already recovered"):
            store.recover(SketchRegistry())
        store.close()

    def test_failed_op_not_journaled(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        with pytest.raises(ReproError):
            registry.load("bad", b"not a frame")
        with pytest.raises(ProtocolError):
            registry.drop("ghost")
        store.close()
        scan = WriteAheadLog(tmp_path / "data" / "wal.log").scan()
        assert len(scan.records) == 1  # only the successful LOAD

    def test_compaction_folds_and_preserves_answers(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        for chunk in range(3):
            registry.ingest("mg", np.arange(30, dtype=np.int64) % 48)
        expected = _estimates(registry, "mg")
        last_seq = store.last_seq
        assert store.compact() == 1
        assert store.last_seq == last_seq  # seq continues, never rewinds
        assert WriteAheadLog(tmp_path / "data" / "wal.log").scan().records == ()
        registry.ingest("mg", np.arange(10, dtype=np.int64) % 48)
        post = _estimates(registry, "mg")
        store.close()

        fresh = SketchRegistry()
        info = PersistentStore(tmp_path / "data").recover(fresh)
        assert (info.snapshot_entries, info.replayed_ops) == (1, 1)
        assert _estimates(fresh, "mg") == post
        assert expected is not None

    def test_watermark_prevents_double_apply(self, tmp_path):
        """Crash window: snapshot published, WAL reset never happened."""
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        registry.ingest("mg", np.arange(25, dtype=np.int64) % 48)
        expected = _estimates(registry, "mg")
        # Publish the snapshot exactly as compact() would, then "crash"
        # before the WAL reset: both full log and snapshot are on disk.
        entries, last_seq = registry.dump_for_snapshot()
        write_snapshot(store.snapshot_path, entries, last_seq=last_seq)
        store.close()

        fresh = SketchRegistry()
        info = PersistentStore(tmp_path / "data").recover(fresh)
        # Every WAL record is at or below the watermark: none replays.
        assert (info.snapshot_entries, info.replayed_ops) == (1, 0)
        assert _estimates(fresh, "mg") == expected

    def test_maybe_compact_threshold(self, tmp_path):
        store = PersistentStore(tmp_path / "data", compact_every=3)
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        assert store.maybe_compact() is False
        registry.ingest("mg", np.arange(5, dtype=np.int64) % 48)
        assert store.maybe_compact() is False
        registry.ingest("mg", np.arange(5, dtype=np.int64) % 48)
        assert store.maybe_compact() is True
        assert store.maybe_compact() is False  # counter reset
        store.close()

    def test_corrupted_wal_refused_on_recover(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        registry.load("mg2", wire.dump(_misra_gries(2)))
        store.close()
        path = tmp_path / "data" / "wal.log"
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF  # inside the first record
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError):
            PersistentStore(tmp_path / "data").recover(SketchRegistry())


# ----------------------------------------------------------------------
# Write-ahead ordering: a failed append leaves live state untouched.
# ----------------------------------------------------------------------
class _BrokenJournal:
    """A journal whose appends always fail, like a full disk."""

    def record_load(self, name, frame):
        raise OSError("disk full")

    def record_ingest(self, name, items):
        raise OSError("disk full")

    def record_drop(self, name):
        raise OSError("disk full")


class TestWriteAheadOrdering:
    """The live registry must match the (error) answer the client got.

    If the WAL append raises, the client is told the op failed -- so the
    op must not have been applied in memory either, or live answers
    diverge from both the acknowledgement and the recovered state (a
    'failed' DROP that is actually gone, then resurrects on restart).
    """

    def _registry_with_resident(self):
        registry = SketchRegistry()
        registry.load("mg", wire.dump(_misra_gries()))
        before = _estimates(registry, "mg")
        registry.journal = _BrokenJournal()
        return registry, before

    def test_failed_drop_keeps_entry_resident(self):
        registry, before = self._registry_with_resident()
        with pytest.raises(OSError, match="disk full"):
            registry.drop("mg")
        assert "mg" in registry
        assert _estimates(registry, "mg") == before

    def test_failed_load_installs_nothing(self):
        registry, _ = self._registry_with_resident()
        with pytest.raises(OSError, match="disk full"):
            registry.load("fresh", wire.dump(_misra_gries(7)))
        assert "fresh" not in registry

    def test_failed_collision_load_keeps_old_entry(self):
        registry, before = self._registry_with_resident()
        with pytest.raises(OSError, match="disk full"):
            registry.load("mg", wire.dump(_misra_gries(7)))
        assert _estimates(registry, "mg") == before

    def test_failed_ingest_keeps_old_counts(self):
        registry, before = self._registry_with_resident()
        with pytest.raises(OSError, match="disk full"):
            registry.ingest("mg", np.arange(10, dtype=np.int64) % 48)
        assert _estimates(registry, "mg") == before


# ----------------------------------------------------------------------
# Rng-free replay: sampling merges/ingests recover bit-identically.
# ----------------------------------------------------------------------
class TestRngFreeReplay:
    """WAL replay must not depend on any rng reproducing live draws.

    Collision LOADs journal the post-merge frame and sampling INGESTs
    journal the post-batch frame, so recovery -- even from a snapshot
    that skipped the rng-consuming prefix, even under a different seed
    -- restores the exact resident objects.
    """

    @staticmethod
    def _reservoir_frame(seed: int):
        from repro.streaming import ReservoirSample

        res = ReservoirSample(universe=64, size=8, rng=seed)
        res.update_many(np.random.default_rng(seed).integers(0, 64, 200))
        return wire.dump(res)

    @staticmethod
    def _frames(registry: SketchRegistry):
        return {
            name: wire.dump(registry._entries[name].obj)
            for name in [e.name for e in registry.entries()]
        }

    def test_reservoir_merge_survives_compaction_bit_identically(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry(rng=0)
        store.recover(registry)
        registry.load("res", self._reservoir_frame(1))
        registry.load("res", self._reservoir_frame(2))  # rng-consuming merge
        store.compact()  # pre-watermark ops will never replay again
        registry.load("res", self._reservoir_frame(3))  # post-snapshot merge
        registry.ingest("res", np.arange(40, dtype=np.int64) % 64)  # rng ingest
        live = self._frames(registry)
        store.close()

        # A different recovery seed must not matter: replay is rng-free.
        fresh = SketchRegistry(rng=12345)
        PersistentStore(tmp_path / "data").recover(fresh)
        assert self._frames(fresh) == live

    def test_collision_load_journals_post_merge_state(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry(rng=0)
        store.recover(registry)
        incoming_a, incoming_b = self._reservoir_frame(1), self._reservoir_frame(2)
        registry.load("res", incoming_a)
        registry.load("res", incoming_b)
        live = self._frames(registry)["res"]
        store.close()
        scan = WriteAheadLog(tmp_path / "data" / "wal.log").scan()
        first = protocol.parse_request(scan.records[0].request_body)
        second = protocol.parse_request(scan.records[1].request_body)
        assert first.frame == incoming_a  # install: incoming verbatim
        assert second.frame == live  # collision: the merged state
        assert second.frame != incoming_b

    def test_sampling_ingest_journals_post_batch_state(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry(rng=0)
        store.recover(registry)
        registry.load("res", self._reservoir_frame(1))
        registry.ingest("res", np.arange(40, dtype=np.int64) % 64)
        live = self._frames(registry)["res"]
        store.close()
        scan = WriteAheadLog(tmp_path / "data" / "wal.log").scan()
        record = protocol.parse_request(scan.records[1].request_body)
        assert record.op == protocol.OP_LOAD  # state, not an item batch
        assert record.frame == live

    def test_deterministic_ingest_still_journals_items(self, tmp_path):
        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("mg", wire.dump(_misra_gries()))
        registry.ingest("mg", np.arange(40, dtype=np.int64) % 48)
        store.close()
        scan = WriteAheadLog(tmp_path / "data" / "wal.log").scan()
        record = protocol.parse_request(scan.records[1].request_body)
        assert record.op == protocol.OP_INGEST


# ----------------------------------------------------------------------
# Preload idempotence under recovery (repro serve --data-dir --load).
# ----------------------------------------------------------------------
class TestPreloadIdempotence:
    def test_recovered_preload_is_skipped_not_double_folded(self, tmp_path):
        from repro.server import preload_files

        frame_path = tmp_path / "mg.ifsk"
        frame_path.write_bytes(wire.dump(_misra_gries()))

        store = PersistentStore(tmp_path / "data")
        registry = SketchRegistry()
        store.recover(registry)
        assert preload_files(registry, [str(frame_path)], skip_resident=True) == ["mg"]
        expected = _estimates(registry, "mg")
        store.close()

        # Restart: recovery replays the journaled preload; preloading
        # again must be a no-op, not a merge of the sketch into itself.
        for _restart in range(3):
            fresh = SketchRegistry()
            second = PersistentStore(tmp_path / "data")
            second.recover(fresh)
            assert preload_files(fresh, [str(frame_path)], skip_resident=True) == []
            assert _estimates(fresh, "mg") == expected
            second.close()


# ----------------------------------------------------------------------
# The write-ahead log never changes what INGEST computes.
# ----------------------------------------------------------------------
class TestDurableIngestParity:
    @pytest.mark.parametrize("kind", ["count-min", "misra-gries"])
    def test_wal_on_and_off_end_in_identical_frames(self, tmp_path, kind):
        """The same INGEST batches over a socket, with the WAL off and on,
        leave byte-identical resident frames -- and so does a restart that
        replays the journaled batches."""
        from repro.server import Client, serve_in_thread
        from repro.streaming import SummarySpec, zipf_traffic

        spec = SummarySpec(kind, universe=5000, k=16, width=256, depth=4, seed=7)
        batches = list(
            zipf_traffic(5000, batch_items=4096, total_items=40_000, rng=3)
        )

        def ingest_all(data_dir) -> bytes:
            with serve_in_thread(data_dir=data_dir) as handle:
                with Client(handle.host, handle.port) as client:
                    client.load("s", wire.dump(spec.build()))
                    for batch in batches:
                        client.ingest("s", batch)
                [(_, summary)], _ = handle.registry.dump_for_snapshot()
                return wire.dump(summary)

        data_dir = str(tmp_path / "data")
        wal_off, wal_on = ingest_all(None), ingest_all(data_dir)
        assert wal_off == wal_on

        fresh = SketchRegistry()
        store = PersistentStore(data_dir)
        store.recover(fresh)
        store.close()
        [(_, recovered)], _ = fresh.dump_for_snapshot()
        assert wire.dump(recovered) == wal_off


# ----------------------------------------------------------------------
# Kill-restart prefix property, via injected torn writes.
# ----------------------------------------------------------------------
class TestKillRestartPrefix:
    def _ops(self):
        """A mixed op script; each entry is (apply, describe)."""
        items = np.arange(15, dtype=np.int64) % 48
        return [
            lambda r: r.load("a", wire.dump(_misra_gries(1))),
            lambda r: r.ingest("a", items),
            lambda r: r.load("b", wire.dump(_misra_gries(2))),
            lambda r: r.ingest("b", items * 2 % 48),
            lambda r: r.load("a", wire.dump(_misra_gries(3))),  # merge
            lambda r: r.drop("b"),
            lambda r: r.ingest("a", items * 3 % 48),
        ]

    def _reference_states(self):
        """Registry state (as stat tuples) after each acked prefix."""
        states = []
        registry = SketchRegistry()
        states.append(self._fingerprint(registry))
        for op in self._ops():
            op(registry)
            states.append(self._fingerprint(registry))
        return states

    @staticmethod
    def _fingerprint(registry: SketchRegistry):
        out = []
        for entry in registry.entries():
            est = tuple(_estimates(registry, entry.name))
            out.append((entry.name, entry.codec, entry.size_in_bits, est))
        return tuple(out)

    @pytest.mark.parametrize("crash_after_bytes", [0, 1, 37, 150, 400, 1000, 2500])
    def test_recovery_is_exactly_the_acked_prefix(self, tmp_path, crash_after_bytes):
        data_dir = tmp_path / f"data-{crash_after_bytes}"
        store = PersistentStore(data_dir)
        registry = SketchRegistry()
        store.recover(registry)
        # Arm the crash: every WAL append now runs through a FaultyFile
        # that dies once cumulative bytes pass the budget, leaving a torn
        # record exactly like a power cut mid-append.
        store._wal._file = FaultyFile(
            store._wal._file, fail_after_bytes=crash_after_bytes
        )
        acked = 0
        for op in self._ops():
            try:
                op(registry)
            except OSError:
                break  # the "crash": append failed, op neither applied nor acked
            acked += 1
        store._wal._file = store._wal._file._file  # detach before close
        store.close()

        fresh = SketchRegistry()
        info = PersistentStore(data_dir).recover(fresh)
        states = self._reference_states()
        assert self._fingerprint(fresh) == states[acked]
        assert info.replayed_ops == acked

    def test_every_crash_point_over_first_op(self, tmp_path):
        """Sweep the budget across the whole first record byte range."""
        probe_dir = tmp_path / "probe"
        store = PersistentStore(probe_dir)
        registry = SketchRegistry()
        store.recover(registry)
        registry.load("a", wire.dump(_misra_gries(1)))
        store.close()
        first_record_bytes = (
            (probe_dir / "wal.log").stat().st_size - 5
        )

        for crash in range(0, first_record_bytes, 7):
            data_dir = tmp_path / f"d{crash}"
            store = PersistentStore(data_dir)
            registry = SketchRegistry()
            store.recover(registry)
            store._wal._file = FaultyFile(store._wal._file, fail_after_bytes=crash)
            with pytest.raises(OSError, match="injected crash"):
                registry.load("a", wire.dump(_misra_gries(1)))
            store._wal._file = store._wal._file._file
            store.close()
            fresh = SketchRegistry()
            info = PersistentStore(data_dir).recover(fresh)
            assert len(fresh) == 0  # the op was never acked
            assert info.replayed_ops == 0
            assert info.torn_tail == (crash > 0)
