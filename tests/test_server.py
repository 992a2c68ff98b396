"""Tests for the resident sketch server (repro.server).

The contract under test, mirroring the paper's ``(S, Q)`` split over
sockets:

* protocol bodies round-trip exactly and reject every malformation with
  :class:`~repro.errors.ProtocolError`;
* the registry folds shards atomically -- queries always answer from a
  complete pre- or post-merge state, and failed loads leave it untouched;
* answers over the socket are bit-identical to answers computed from the
  decoded frame directly (the differential the wire format promises);
* one misbehaving connection (malformed body, oversized length prefix,
  mid-frame disconnect) never disturbs the registry or other clients.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.core import (
    ImportanceSampleSketcher,
    ReleaseAnswersSketcher,
    ReleaseDbSketcher,
    SubsampleSketcher,
    Task,
)
from repro.db import Itemset, random_database
from repro.errors import (
    ProtocolError,
    ServerError,
    StreamError,
    WireFormatError,
)
from repro.params import SketchParams
from repro.server import Client, SketchRegistry, serve_in_thread
from repro.server import protocol
from repro.streaming import MisraGries, merge_misra_gries


def _misra_gries(seed: int = 0, universe: int = 48, k: int = 6) -> MisraGries:
    mg = MisraGries(universe, k)
    rng = np.random.default_rng(seed)
    mg.update_many(rng.integers(0, universe, 400))
    return mg


# ----------------------------------------------------------------------
# Protocol bodies.
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_round_trips(self):
        itemsets = (Itemset([0, 3]), Itemset([1]), Itemset([]))
        cases = [
            dict(op=protocol.OP_LOAD, name="mg", frame=b"\x01\x02\x03"),
            dict(op=protocol.OP_ESTIMATE, name="mg", itemsets=itemsets),
            dict(op=protocol.OP_INDICATE, name="a-b.c", itemsets=itemsets),
            dict(op=protocol.OP_STAT, name="x" * 255),
            dict(op=protocol.OP_LIST),
            dict(op=protocol.OP_DROP, name="mg"),
            dict(op=protocol.OP_PING),
        ]
        for case in cases:
            parsed = protocol.parse_request(protocol.encode_request(**case))
            assert parsed.op == case["op"]
            assert parsed.name == case.get("name")
            assert parsed.itemsets == tuple(case.get("itemsets", ()))
            assert parsed.frame == case.get("frame", b"")

    def test_request_truncated_everywhere(self):
        body = protocol.encode_request(
            protocol.OP_ESTIMATE,
            name="sketch",
            itemsets=[Itemset([0, 5, 9]), Itemset([2])],
        )
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                protocol.parse_request(body[:cut])

    def test_request_trailing_bytes_rejected(self):
        body = protocol.encode_request(protocol.OP_PING)
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.parse_request(body + b"\x00")

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request op"):
            protocol.parse_request(bytes([99]))

    def test_bad_names_rejected(self):
        for name in ("", "x" * 256, "café"):
            with pytest.raises(ProtocolError):
                protocol.encode_request(protocol.OP_STAT, name=name)

    def test_load_without_frame_rejected(self):
        with pytest.raises(ProtocolError, match="frame"):
            protocol.encode_request(protocol.OP_LOAD, name="mg", frame=b"")
        with pytest.raises(ProtocolError, match="frame"):
            protocol.parse_request(bytes([protocol.OP_LOAD, 2]) + b"mg")

    def test_estimates_round_trip_bit_exact(self):
        values = [0.1, -0.0, 2.0 ** -1074, 1 / 3, 1e300, float("inf")]
        out = protocol.parse_estimates(protocol.encode_estimates(values))
        assert [struct.pack(">d", v) for v in out] == [
            struct.pack(">d", v) for v in values
        ]

    def test_indicators_round_trip(self):
        values = [True, False, True, True]
        assert protocol.parse_indicators(protocol.encode_indicators(values)) == values
        bad = bytes([protocol.STATUS_OK]) + b"\x01\x02"
        with pytest.raises(ProtocolError, match="0 or 1"):
            protocol.parse_indicators(bad)

    def test_stat_round_trips_with_and_without_params(self):
        params = SketchParams(n=100, d=12, k=2, epsilon=0.1, delta=0.05)
        for p in (params, None):
            info = protocol.StatInfo(
                name="mg", codec="misra-gries", size_in_bits=276, params=p
            )
            assert protocol.parse_stat(protocol.encode_stat(info)) == info

    def test_entries_round_trip(self):
        entries = [
            protocol.EntryInfo(name="a", codec="subsample", size_in_bits=10),
            protocol.EntryInfo(name="b", codec="misra-gries", size_in_bits=99),
        ]
        assert protocol.parse_entries(protocol.encode_entries(entries)) == entries

    def test_error_response_raises_server_error(self):
        body = protocol.encode_error("no sketch named 'x'")
        for parse in (
            protocol.parse_empty_ok,
            protocol.parse_estimates,
            protocol.parse_indicators,
            protocol.parse_stat,
            protocol.parse_entries,
            protocol.parse_load_ok,
        ):
            with pytest.raises(ServerError, match="no sketch named 'x'"):
                parse(body)

    def test_response_truncated_everywhere(self):
        params = SketchParams(n=100, d=12, k=2, epsilon=0.1, delta=0.05)
        info = protocol.StatInfo("mg", "misra-gries", 276, params)
        bodies = [
            (protocol.encode_stat(info), protocol.parse_stat),
            (protocol.encode_estimates([0.25, 0.5]), protocol.parse_estimates),
            (protocol.encode_load_ok("subsample", 138, True), protocol.parse_load_ok),
        ]
        for body, parse in bodies:
            for cut in range(len(body)):
                with pytest.raises(ProtocolError):
                    parse(body[:cut])

    def test_message_framing_bounds(self):
        framed = protocol.frame_message(b"abc")
        assert framed == struct.pack(">I", 3) + b"abc"
        import io

        assert protocol.read_message(io.BytesIO(framed)) == b"abc"
        with pytest.raises(ProtocolError, match="outside"):
            protocol.frame_message(b"")
        with pytest.raises(ProtocolError, match="outside"):
            protocol.frame_message(b"toolong", max_frame_bytes=3)
        with pytest.raises(ProtocolError, match="outside"):
            protocol.read_message(io.BytesIO(struct.pack(">I", 10)), max_frame_bytes=5)
        with pytest.raises(ProtocolError, match="truncated"):
            protocol.read_message(io.BytesIO(struct.pack(">I", 10) + b"short"))


# ----------------------------------------------------------------------
# Registry semantics (no sockets).
# ----------------------------------------------------------------------
class TestRegistry:
    def test_load_stat_entries_drop(self):
        registry = SketchRegistry()
        mg = _misra_gries()
        codec, size, merged = registry.load("mg", wire.dump(mg))
        assert (codec, merged) == ("misra-gries", False)
        assert size == mg.size_in_bits()
        info = registry.stat("mg")
        assert (info.codec, info.size_in_bits, info.params) == (codec, size, None)
        registry.load("aaa", wire.dump(_misra_gries(1)))
        assert [e.name for e in registry.entries()] == ["aaa", "mg"]
        registry.drop("aaa")
        assert len(registry) == 1
        with pytest.raises(ProtocolError, match="no sketch named"):
            registry.drop("aaa")

    def test_collision_folds_like_merge_rule(self):
        a, b = _misra_gries(0), _misra_gries(1)
        registry = SketchRegistry()
        registry.load("mg", wire.dump(a))
        codec, size, merged = registry.load("mg", wire.dump(b))
        assert merged is True
        expected = merge_misra_gries(a, b)
        for item in range(a.universe):
            assert registry.estimate("mg", [Itemset([item])]) == [
                expected.estimate_frequency(item)
            ]

    def test_malformed_frame_leaves_registry_unchanged(self):
        registry = SketchRegistry()
        registry.load("mg", wire.dump(_misra_gries()))
        before = registry.stat("mg")
        frame = bytearray(wire.dump(_misra_gries(2)))
        frame[10] ^= 0xFF
        with pytest.raises(WireFormatError):
            registry.load("mg", bytes(frame))
        with pytest.raises(WireFormatError):
            registry.load("fresh", b"not a frame")
        assert registry.stat("mg") == before
        assert [e.name for e in registry.entries()] == ["mg"]

    def test_unmergeable_collision_keeps_resident_entry(self):
        db = random_database(60, 8, 0.3, rng=0)
        params = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.2, delta=0.2)
        sketch = SubsampleSketcher(Task.FORALL_ESTIMATOR).sketch(db, params, rng=1)
        registry = SketchRegistry()
        registry.load("s", wire.dump(sketch))
        before = registry.estimate("s", [Itemset([0, 1])])
        with pytest.raises(StreamError):
            registry.load("s", wire.dump(sketch))
        assert registry.estimate("s", [Itemset([0, 1])]) == before

    def test_frequency_sketch_answers_match_batch(self):
        db = random_database(80, 8, 0.3, rng=3)
        params = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.2, delta=0.2)
        sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, params, rng=4)
        registry = SketchRegistry()
        registry.load("rdb", wire.dump(sketch))
        itemsets = [Itemset([0]), Itemset([1, 3]), Itemset([2, 5, 7])]
        assert registry.estimate("rdb", itemsets) == [
            float(v) for v in sketch.estimate_batch(itemsets)
        ]
        assert registry.indicate("rdb", itemsets) == [
            bool(v) for v in sketch.indicate_batch(itemsets)
        ]
        assert registry.stat("rdb").params == params

    def test_summary_queries_are_singletons_only(self):
        registry = SketchRegistry()
        registry.load("mg", wire.dump(_misra_gries()))
        with pytest.raises(ProtocolError, match="singleton"):
            registry.estimate("mg", [Itemset([1, 2])])
        with pytest.raises(ProtocolError, match="ESTIMATE"):
            registry.indicate("mg", [Itemset([1])])

    def test_oversized_frame_rejected_by_budget(self):
        registry = SketchRegistry(max_frame_bytes=16)
        with pytest.raises(WireFormatError, match="limit"):
            registry.load("mg", wire.dump(_misra_gries()))
        assert len(registry) == 0


# ----------------------------------------------------------------------
# End-to-end over real sockets.
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    with serve_in_thread() as handle:
        yield handle


class TestServerEndToEnd:
    def test_all_verbs(self, server):
        mg = _misra_gries()
        with Client(server.host, server.port) as client:
            client.ping()
            codec, size, merged = client.load("mg", wire.dump(mg))
            assert (codec, size, merged) == ("misra-gries", mg.size_in_bits(), False)
            assert client.estimate("mg", [Itemset([3])]) == [
                mg.estimate_frequency(3)
            ]
            info = client.stat("mg")
            assert (info.name, info.codec) == ("mg", "misra-gries")
            assert [e.name for e in client.entries()] == ["mg"]
            client.drop("mg")
            assert client.entries() == []

    def test_load_committed_v1_frames(self, server):
        """Decode-only v1 frames LOAD, answer and fold like v2 frames."""
        v1_dir = Path(__file__).resolve().parent / "fixtures" / "v1"
        frames = {p.stem: p.read_bytes() for p in sorted(v1_dir.glob("*.ifsk"))}
        assert len(frames) == 12
        with Client(server.host, server.port) as client:
            for codec, frame in frames.items():
                size = wire.load(frame).size_in_bits()
                assert client.load(codec, frame) == (codec, size, False)
            rdb = wire.load(frames["release-db"])
            itemsets = [Itemset([0]), Itemset([1, 2]), Itemset([3, 5, 7])]
            assert client.estimate("release-db", itemsets) == [
                float(v) for v in rdb.estimate_batch(itemsets)
            ]
            assert client.stat("release-db").params == rdb.params
            mg = wire.load(frames["misra-gries"])
            singletons = [Itemset([i]) for i in range(mg.universe)]
            assert client.load("misra-gries", frames["misra-gries"])[2] is True
            folded = merge_misra_gries(mg, mg)
            expected = [folded.estimate_frequency(i) for i in range(mg.universe)]
            assert client.estimate("misra-gries", singletons) == expected
            bad = bytearray(frames["misra-gries"])
            bad[-6] ^= 0x08
            with pytest.raises(ServerError, match="checksum"):
                client.load("misra-gries", bytes(bad))
            assert client.estimate("misra-gries", singletons) == expected

    def test_server_error_keeps_connection_usable(self, server):
        with Client(server.host, server.port) as client:
            with pytest.raises(ServerError, match="no sketch named"):
                client.estimate("ghost", [Itemset([0])])
            with pytest.raises(ServerError):
                client.load("bad", b"this is not a frame")
            client.ping()  # same connection still answers

    def test_malformed_request_body_answered_not_fatal(self, server):
        raw = socket.create_connection((server.host, server.port), timeout=10)
        try:
            stream = raw.makefile("rwb")
            stream.write(protocol.frame_message(bytes([240, 1, 2, 3])))
            stream.flush()
            with pytest.raises(ServerError, match="unknown request op"):
                protocol.parse_empty_ok(protocol.read_message(stream))
            # The framing was intact, so the connection keeps serving.
            stream.write(
                protocol.frame_message(protocol.encode_request(protocol.OP_PING))
            )
            stream.flush()
            protocol.parse_empty_ok(protocol.read_message(stream))
        finally:
            raw.close()

    def test_oversized_length_prefix_errors_and_closes(self, server):
        raw = socket.create_connection((server.host, server.port), timeout=10)
        try:
            stream = raw.makefile("rwb")
            stream.write(struct.pack(">I", protocol.DEFAULT_MAX_FRAME_BYTES + 1))
            stream.flush()
            with pytest.raises(ServerError, match="outside"):
                protocol.parse_empty_ok(protocol.read_message(stream))
            assert stream.read(1) == b""  # server hung up
        finally:
            raw.close()

    def test_zero_length_prefix_errors_and_closes(self, server):
        raw = socket.create_connection((server.host, server.port), timeout=10)
        try:
            stream = raw.makefile("rwb")
            stream.write(struct.pack(">I", 0))
            stream.flush()
            with pytest.raises(ServerError, match="outside"):
                protocol.parse_empty_ok(protocol.read_message(stream))
            assert stream.read(1) == b""
        finally:
            raw.close()

    def test_midframe_disconnect_leaves_registry_serving(self, server):
        mg = _misra_gries()
        with Client(server.host, server.port) as client:
            client.load("mg", wire.dump(mg))
            before = client.stat("mg")

        body = protocol.encode_request(
            protocol.OP_LOAD, name="mg", frame=wire.dump(_misra_gries(9))
        )
        framed = protocol.frame_message(body)
        for cut in (2, 5, len(framed) // 2, len(framed) - 1):
            raw = socket.create_connection((server.host, server.port), timeout=10)
            raw.sendall(framed[:cut])
            raw.close()

        with Client(server.host, server.port) as client:
            # The registry never saw the half-pushed shards...
            assert client.stat("mg") == before
            assert [e.name for e in client.entries()] == ["mg"]
            # ...and still answers exactly as before.
            assert client.estimate("mg", [Itemset([3])]) == [
                mg.estimate_frequency(3)
            ]

    def test_many_sequential_clients(self, server):
        with Client(server.host, server.port) as client:
            client.load("mg", wire.dump(_misra_gries()))
        for _ in range(8):
            with Client(server.host, server.port) as client:
                assert [e.name for e in client.entries()] == ["mg"]


# ----------------------------------------------------------------------
# Satellite: concurrent queries during merges.
# ----------------------------------------------------------------------
class TestConcurrentAccess:
    def test_estimates_always_from_consistent_state(self):
        universe, k, item = 40, 6, 3
        rng = np.random.default_rng(5)
        shards = []
        for _ in range(10):
            mg = MisraGries(universe, k)
            mg.update_many(rng.integers(0, universe, 300))
            shards.append(mg)
        states = [shards[0]]
        for shard in shards[1:]:
            states.append(merge_misra_gries(states[-1], shard))
        allowed = {state.estimate_frequency(item) for state in states}

        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                client.load("mg", wire.dump(shards[0]))

            bad: list[float] = []
            stop = threading.Event()

            def hammer() -> None:
                with Client(handle.host, handle.port) as client:
                    while not stop.is_set():
                        [value] = client.estimate("mg", [Itemset([item])])
                        if value not in allowed:
                            bad.append(value)
                            return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                with Client(handle.host, handle.port) as client:
                    for shard in shards[1:]:
                        client.load("mg", wire.dump(shard))
                        time.sleep(0.01)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)

            assert not bad, f"answers from a half-merged state: {bad}"
            with Client(handle.host, handle.port) as client:
                assert client.estimate("mg", [Itemset([item])]) == [
                    states[-1].estimate_frequency(item)
                ]


# ----------------------------------------------------------------------
# Differential: socket answers == direct answers, bit for bit.
# ----------------------------------------------------------------------
_SKETCHERS = {
    "subsample": SubsampleSketcher,
    "release-db": ReleaseDbSketcher,
    "release-answers": ReleaseAnswersSketcher,
    "importance": ImportanceSampleSketcher,
}


@pytest.fixture(scope="module")
def served_sketches():
    db = random_database(250, 10, 0.35, rng=7)
    params = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.25, delta=0.2)
    sketches = {}
    handle = serve_in_thread()
    client = Client(handle.host, handle.port)
    try:
        for name, cls in _SKETCHERS.items():
            sketch = cls(Task.FORALL_ESTIMATOR).sketch(db, params, rng=11)
            # Round-trip through the frame first: the file-based `repro
            # query` answers from the decoded frame, so the reference
            # object must be the decoded copy too.
            decoded = wire.load(wire.dump(sketch))
            sketches[name] = decoded
            client.load(name, wire.dump(sketch))
        yield SimpleNamespace(
            client=client, sketches=sketches, d=db.d, k=params.k
        )
    finally:
        client.close()
        handle.close()


class TestSocketFileDifferential:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_socket_answers_bit_identical(self, served_sketches, data):
        name = data.draw(st.sampled_from(sorted(_SKETCHERS)))
        d, k = served_sketches.d, served_sketches.k
        if name == "release-answers":
            # Stored-answer sketches only answer exactly-k itemsets.
            itemset_st = st.sets(
                st.integers(0, d - 1), min_size=k, max_size=k
            ).map(Itemset)
        else:
            itemset_st = st.sets(
                st.integers(0, d - 1), min_size=0, max_size=3
            ).map(Itemset)
        itemsets = data.draw(st.lists(itemset_st, min_size=1, max_size=8))

        sketch = served_sketches.sketches[name]
        client = served_sketches.client
        expected_est = [float(v) for v in sketch.estimate_batch(itemsets)]
        expected_ind = [bool(v) for v in sketch.indicate_batch(itemsets)]
        got_est = client.estimate(name, itemsets)
        got_ind = client.indicate(name, itemsets)
        assert [struct.pack(">d", v) for v in got_est] == [
            struct.pack(">d", v) for v in expected_est
        ]
        assert got_ind == expected_ind

    def test_streaming_summary_differential(self, served_sketches):
        mg = _misra_gries(21)
        client = served_sketches.client
        client.load("mg-diff", wire.dump(mg))
        decoded = wire.load(wire.dump(mg))
        itemsets = [Itemset([i]) for i in range(mg.universe)]
        got = client.estimate("mg-diff", itemsets)
        expected = [decoded.estimate_frequency(i) for i in range(mg.universe)]
        assert [struct.pack(">d", v) for v in got] == [
            struct.pack(">d", v) for v in expected
        ]
        client.drop("mg-diff")


# ----------------------------------------------------------------------
# INGEST: streamed updates into a resident summary.
# ----------------------------------------------------------------------
class TestIngestProtocol:
    def test_round_trips(self):
        items = np.array([0, 7, 2**40, 2**63 - 1], dtype=np.int64)
        body = protocol.encode_request(protocol.OP_INGEST, name="s", items=items)
        parsed = protocol.parse_request(body)
        assert parsed.op == protocol.OP_INGEST
        assert parsed.name == "s"
        assert parsed.items is not None
        assert parsed.items.dtype == np.int64
        assert np.array_equal(parsed.items, items)

    def test_truncated_everywhere(self):
        body = protocol.encode_request(
            protocol.OP_INGEST, name="s", items=np.array([1, 2, 3])
        )
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                protocol.parse_request(body[:cut])

    def test_trailing_bytes_rejected(self):
        body = protocol.encode_request(
            protocol.OP_INGEST, name="s", items=np.array([1])
        )
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.parse_request(body + b"\x00")

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                protocol.OP_INGEST, name="s", items=np.array([], dtype=np.int64)
            )

    def test_oversized_count_rejected_before_allocation(self):
        header = bytes([protocol.OP_INGEST, 1]) + b"s"
        from repro.db.serialize import encode_uvarint

        body = header + encode_uvarint(protocol.MAX_INGEST_ITEMS + 1)
        with pytest.raises(ProtocolError, match="INGEST batch"):
            protocol.parse_request(body)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ProtocolError, match=r"2\*\*63"):
            protocol.encode_request(
                protocol.OP_INGEST, name="s", items=np.array([-1])
            )
        header = bytes([protocol.OP_INGEST, 1]) + b"s"
        from repro.db.serialize import encode_uvarint

        body = header + encode_uvarint(1) + (2**63).to_bytes(8, "big")
        with pytest.raises(ProtocolError, match=r"2\*\*63"):
            protocol.parse_request(body)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ProtocolError, match="1-D"):
            protocol.encode_request(
                protocol.OP_INGEST, name="s", items=np.zeros((2, 2), dtype=int)
            )
        with pytest.raises(ProtocolError, match="integer"):
            protocol.encode_request(
                protocol.OP_INGEST, name="s", items=np.array([1.5])
            )

    def test_ingest_ok_round_trips(self):
        body = protocol.encode_ingest_ok(12345, 6789)
        assert protocol.parse_ingest_ok(body) == (12345, 6789)
        for cut in range(1, len(body)):
            with pytest.raises(ProtocolError):
                protocol.parse_ingest_ok(body[:cut])


class TestIngestRegistry:
    def test_ingest_updates_resident_summary(self):
        registry = SketchRegistry()
        mg = _misra_gries(seed=1)
        registry.load("mg", wire.dump(mg))
        batch = np.array([1, 1, 2, 3], dtype=np.int64)
        length, size = registry.ingest("mg", batch)
        expected = _misra_gries(seed=1)
        expected.update_many(batch)
        assert length == expected.stream_length
        assert size == wire.payload_size_bits(expected)
        got = registry.estimate("mg", [Itemset([1])])
        assert got == [expected.estimate_frequency(1)]

    def test_ingest_unknown_name(self):
        with pytest.raises(ProtocolError, match="no sketch named"):
            SketchRegistry().ingest("ghost", np.array([1]))

    def test_ingest_non_summary_rejected(self):
        registry = SketchRegistry()
        db = random_database(60, 8, 0.3, rng=3)
        params = SketchParams(n=db.n, d=db.d, k=2, epsilon=0.3, delta=0.2)
        sketch = SubsampleSketcher(Task.FORALL_ESTIMATOR).sketch(db, params, rng=4)
        registry.load("subsample", wire.dump(sketch))
        with pytest.raises(ProtocolError, match="streaming summary"):
            registry.ingest("subsample", np.array([1]))

    def test_ingest_out_of_universe_leaves_entry_unchanged(self):
        registry = SketchRegistry()
        mg = _misra_gries(seed=2)
        registry.load("mg", wire.dump(mg))
        before = registry.stat("mg")
        with pytest.raises(StreamError, match="outside universe"):
            registry.ingest("mg", np.array([0, mg.universe], dtype=np.int64))
        after = registry.stat("mg")
        assert before == after
        assert registry.estimate("mg", [Itemset([0])]) == [
            mg.estimate_frequency(0)
        ]


class TestIngestEndToEnd:
    def test_socket_ingest_equals_file_path(self):
        """INGEST-then-ESTIMATE over the socket == the same updates locally."""
        universe = 48
        rng = np.random.default_rng(31)
        batches = [rng.integers(0, universe, 500) for _ in range(8)]
        reference = MisraGries(universe, 6)
        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                client.load("mg", wire.dump(MisraGries(universe, 6)))
                length = 0
                for batch in batches:
                    reference.update_many(batch)
                    length, size = client.ingest("mg", batch)
                    # Monotone prefix-fold: each ack covers everything so far.
                    assert length == reference.stream_length
                    assert size == wire.payload_size_bits(reference)
                itemsets = [Itemset([i]) for i in range(universe)]
                got = client.estimate("mg", itemsets)
        expected = [reference.estimate_frequency(i) for i in range(universe)]
        assert [struct.pack(">d", v) for v in got] == [
            struct.pack(">d", v) for v in expected
        ]

    def test_ingest_error_keeps_connection_usable(self):
        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ServerError, match="no sketch named"):
                    client.ingest("ghost", np.array([1]))
                client.ping()  # the connection survived the error

    def test_concurrent_queries_see_complete_prefix_folds(self):
        """ESTIMATEs during streamed ingestion always observe some prefix.

        The resident CMS after any prefix of batches has a well-defined
        table; a query must never observe a count outside the set of
        prefix states (which would mean a half-applied batch).
        """
        from repro.streaming import CountMinSketch

        universe, item = 32, 5
        rng = np.random.default_rng(17)
        batches = [rng.integers(0, universe, 400) for _ in range(12)]
        states = [CountMinSketch(universe, 64, 4, rng=9)]
        for batch in batches:
            import copy

            nxt = copy.deepcopy(states[-1])
            nxt.update_many(batch)
            states.append(nxt)
        allowed = {state.estimate_frequency(item) for state in states}

        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                client.load("cms", wire.dump(CountMinSketch(universe, 64, 4, rng=9)))

            bad: list[float] = []
            stop = threading.Event()

            def hammer() -> None:
                with Client(handle.host, handle.port) as client:
                    while not stop.is_set():
                        [value] = client.estimate("cms", [Itemset([item])])
                        if value not in allowed:
                            bad.append(value)
                            return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                with Client(handle.host, handle.port) as client:
                    for batch in batches:
                        client.ingest("cms", batch)
                        time.sleep(0.005)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)

            assert not bad, f"answers from a half-applied batch: {bad}"
            with Client(handle.host, handle.port) as client:
                assert client.estimate("cms", [Itemset([item])]) == [
                    states[-1].estimate_frequency(item)
                ]


# ----------------------------------------------------------------------
# Overload protection: connection cap, idle timeout, graceful drain.
# ----------------------------------------------------------------------
class TestOverloadProtection:
    def test_busy_answer_over_the_cap(self):
        from repro.errors import ServerBusyError

        with serve_in_thread(max_connections=2) as handle:
            first = Client(handle.host, handle.port)
            second = Client(handle.host, handle.port)
            first.ping()
            second.ping()
            try:
                shed = Client(handle.host, handle.port)
                with pytest.raises(ServerBusyError, match="capacity"):
                    shed.ping()
                shed.close()
                # BUSY costs nothing to the occupants...
                first.ping()
                second.ping()
            finally:
                first.close()
                second.close()
            # ...and the slot frees as soon as one hangs up.
            deadline = time.monotonic() + 5
            while True:
                replacement = Client(handle.host, handle.port)
                try:
                    replacement.ping()
                    break
                except ServerBusyError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
                finally:
                    replacement.close()

    def test_idle_timeout_closes_quiet_connections(self):
        with serve_in_thread(idle_timeout=0.2) as handle:
            raw = socket.create_connection((handle.host, handle.port), timeout=10)
            try:
                raw.settimeout(5)
                assert raw.recv(1) == b""  # server hung up on the idler
            finally:
                raw.close()
            # An active client immediately afterwards is unaffected.
            with Client(handle.host, handle.port) as client:
                client.ping()

    def test_idle_timeout_cuts_midframe_stall(self):
        with serve_in_thread(idle_timeout=0.2) as handle:
            raw = socket.create_connection((handle.host, handle.port), timeout=10)
            try:
                raw.sendall(struct.pack(">I", 64) + b"partial")  # then stall
                raw.settimeout(5)
                assert raw.recv(1) == b""
            finally:
                raw.close()

    def test_idle_timeout_is_between_bytes_not_a_frame_deadline(self):
        """A frame trickling in steadily but slower than idle_timeout in
        aggregate must still be answered: the clock resets on progress."""
        body = protocol.encode_request(protocol.OP_PING)
        wire_bytes = struct.pack(">I", len(body)) + body
        with serve_in_thread(idle_timeout=0.3) as handle:
            raw = socket.create_connection((handle.host, handle.port), timeout=10)
            try:
                for i in range(len(wire_bytes)):  # total well past 0.3s
                    raw.sendall(wire_bytes[i : i + 1])
                    time.sleep(0.12)
                raw.settimeout(10)
                header = raw.recv(4, socket.MSG_WAITALL)
                (length,) = struct.unpack(">I", header)
                answer = raw.recv(length, socket.MSG_WAITALL)
                protocol.parse_empty_ok(answer)  # PONG, not a hang-up
            finally:
                raw.close()

    def test_graceful_drain_answers_inflight_then_refuses(self):
        handle = serve_in_thread()
        client = Client(handle.host, handle.port)
        try:
            client.load("mg", wire.dump(_misra_gries()))
            handle.close(grace=5.0)
            # The listener is gone: new connections are refused.
            with pytest.raises(OSError):
                socket.create_connection((handle.host, handle.port), timeout=1)
        finally:
            client.close()
            handle.close()

    def test_drain_answers_a_request_that_started_before_shutdown(self):
        """A half-arrived request holds the drain open until it is answered;
        a connection idle between requests is closed at once."""
        mg = _misra_gries()
        message = protocol.frame_message(
            protocol.encode_request(protocol.OP_LOAD, name="mg", frame=wire.dump(mg))
        )
        handle = serve_in_thread()
        server = handle.server
        idle = Client(handle.host, handle.port)
        raw = None
        closer = threading.Thread(target=handle.close, kwargs={"grace": 5.0})

        def wait_for(active: int, idle_count: int) -> None:
            deadline = time.monotonic() + 5
            while (server.active_connections, len(server._idle_writers)) != (
                active,
                idle_count,
            ):
                assert time.monotonic() < deadline, "server never got there"
                time.sleep(0.005)

        try:
            idle.ping()
            wait_for(active=1, idle_count=1)  # the client waits between requests
            raw = socket.create_connection((handle.host, handle.port), timeout=10)
            raw.sendall(message[:10])  # length prefix plus part of the body
            wait_for(active=2, idle_count=1)  # the raw request has started
            began = time.monotonic()
            closer.start()
            while server.active_connections != 1:  # the idle client goes first
                assert time.monotonic() - began < 1.0, "idle connection kept"
                time.sleep(0.005)
            assert closer.is_alive()  # still draining the started request
            raw.sendall(message[10:])
            raw.settimeout(10)
            (length,) = struct.unpack(">I", raw.recv(4, socket.MSG_WAITALL))
            codec, size, merged = protocol.parse_load_ok(
                raw.recv(length, socket.MSG_WAITALL)
            )
            assert (codec, size, merged) == ("misra-gries", mg.size_in_bits(), False)
            assert raw.recv(1) == b""  # answered, then hung up
            closer.join(timeout=10)
            assert not closer.is_alive()
            assert time.monotonic() - began < 2.0  # nowhere near the grace
            assert "mg" in handle.registry
        finally:
            if raw is not None:
                raw.close()
            idle.close()
            if closer.is_alive():
                closer.join(timeout=10)
            handle.close()

    def test_close_is_idempotent(self):
        handle = serve_in_thread()
        handle.close()
        handle.close()


# ----------------------------------------------------------------------
# Satellite: serve_in_thread must not return a dead handle on timeout.
# ----------------------------------------------------------------------
class TestServeInThreadStartup:
    def test_startup_timeout_raises_instead_of_dead_handle(self, monkeypatch):
        from repro.server import server as server_module

        async def never_starts(self):  # pragma: no cover - body never ends
            import asyncio

            await asyncio.sleep(3600)

        monkeypatch.setattr(server_module.SketchServer, "start", never_starts)
        with pytest.raises(TimeoutError, match="failed to start"):
            serve_in_thread(startup_timeout=0.2)

    def test_bind_failure_raises_not_timeout(self):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        try:
            with pytest.raises(OSError):
                serve_in_thread(port=taken.getsockname()[1])
        finally:
            taken.close()


# ----------------------------------------------------------------------
# LOAD-many: seeding a fleet from one wire-v3 container.
# ----------------------------------------------------------------------
def _fleet_container(count: int = 4, *, seed0: int = 100) -> bytes:
    import io

    shards = [(f"fleet{i}", _misra_gries(seed0 + i)) for i in range(count)]
    buf = io.BytesIO()
    wire.write_container(buf, shards)
    return buf.getvalue()


class TestLoadManyProtocol:
    def test_request_round_trips(self):
        frame = wire.dump(_misra_gries())
        body = protocol.encode_request(
            protocol.OP_LOAD_MANY, name="s", frame=frame, index=3, count=8
        )
        parsed = protocol.parse_request(body)
        assert parsed.op == protocol.OP_LOAD_MANY
        assert (parsed.name, parsed.index, parsed.count) == ("s", 3, 8)
        assert parsed.frame == frame

    def test_response_round_trips(self):
        body = protocol.encode_load_many_ok(5, "misra-gries", 568, True)
        index, codec, size, merged = protocol.parse_load_many_ok(body)
        assert (index, codec, size, merged) == (5, "misra-gries", 568, True)

    @pytest.mark.parametrize(
        "index,count",
        [(0, 0), (3, 3), (5, 3), (0, protocol.MAX_LOAD_MANY_FRAMES + 1)],
    )
    def test_bad_index_count_refused(self, index, count):
        frame = wire.dump(_misra_gries())
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                protocol.OP_LOAD_MANY,
                name="s",
                frame=frame,
                index=index,
                count=count,
            )
        good = protocol.encode_request(
            protocol.OP_LOAD_MANY, name="s", frame=frame, index=0, count=1
        )
        # Forge the same bad values into a parsed body.
        from repro.db.serialize import encode_uvarint

        forged = (
            bytes([protocol.OP_LOAD_MANY, 1])
            + b"s"
            + encode_uvarint(index)
            + encode_uvarint(count)
            + frame
        )
        assert protocol.parse_request(good).count == 1
        with pytest.raises(ProtocolError):
            protocol.parse_request(forged)


class TestLoadManyEndToEnd:
    def test_container_push_bit_identical_to_per_file_loads(self):
        """The socket-vs-file differential for the fleet path."""
        container = _fleet_container(4)
        import io

        reader = wire.ContainerReader.open(io.BytesIO(container))
        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                results = client.load_many(container)
                assert [name for name, _, _, _ in results] == [
                    f"fleet{i}" for i in range(4)
                ]
                assert all(not merged for _, _, _, merged in results)
                # The same shards loaded one file at a time, other names.
                for i in range(4):
                    shard = reader.extract(f"fleet{i}")
                    client.load(f"solo{i}", shard)
                for i in range(4):
                    a = client.stat(f"fleet{i}")
                    b = client.stat(f"solo{i}")
                    assert (a.codec, a.size_in_bits) == (b.codec, b.size_in_bits)
                    itemsets = [Itemset([j]) for j in range(48)]
                    assert client.estimate(
                        f"fleet{i}", itemsets
                    ) == client.estimate(f"solo{i}", itemsets)

    def test_collision_folds_like_load(self):
        container = _fleet_container(2)
        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                first = client.load_many(container)
                second = client.load_many(container)
                assert all(not merged for _, _, _, merged in first)
                assert all(merged for _, _, _, merged in second)
                expected = merge_misra_gries(_misra_gries(100), _misra_gries(100))
                got = client.estimate(
                    "fleet0", [Itemset([i]) for i in range(48)]
                )
                assert got == [
                    expected.estimate_frequency(i) for i in range(48)
                ]

    def test_anonymous_shard_refused_client_side(self):
        import io

        out = io.BytesIO()
        wire.write_container(out, [("", _misra_gries())])
        frame = out.getvalue()
        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                with pytest.raises(ProtocolError, match="anonymous"):
                    client.load_many(frame)
                client.ping()  # connection still usable

    def test_accepts_reader_and_bytes(self):
        import io

        container = _fleet_container(2)
        reader = wire.ContainerReader.open(io.BytesIO(container))
        with serve_in_thread() as handle:
            with Client(handle.host, handle.port) as client:
                assert client.load_many(reader) == [
                    ("fleet0", "misra-gries", _misra_gries(100).size_in_bits(), False),
                    ("fleet1", "misra-gries", _misra_gries(101).size_in_bits(), False),
                ]
