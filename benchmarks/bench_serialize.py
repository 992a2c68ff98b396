"""Wire-format serialization: legacy-vs-vectorized throughput bench.

Measures the PR-3 serialization tentpole: the seed ``BitWriter`` kept a
per-bit Python list (``extend(bool(b) for b in array)`` per write, one
``bool`` object per payload bit), while the vectorized writer appends
whole numpy chunks and packs once.  Cases:

* ``bitwriter_payload`` -- build a ~10^6-bit RELEASE-DB-shaped payload
  (packed boolean matrix plus a fixed-width uint section) with the legacy
  list-based writer vs the vectorized writer.  The acceptance floor is
  :data:`MIN_SPEEDUP` (5x); in practice the gap is orders of magnitude.
* ``quantized_answers`` -- RELEASE-ANSWERS' answer-table serialization:
  one ``write_quantized`` call per frequency vs one
  ``write_quantized_batch`` call for the whole table (both on the new
  writer, so this isolates the batch-field win).
* ``sketch_file_round_trip`` -- end-to-end ``dump``/``load`` latency of
  framed sketch files (SUBSAMPLE, RELEASE-DB, Count-Min): the cost of
  actually crossing the (S, Q) process boundary.
* ``file_stream`` -- the file leg: a RELEASE-DB-sized frame
  written through a file object (``dump_to``) and decoded from it in
  bounded windows (``load_from``), with and without zlib.  Records
  throughput, the maximum single read (the decode-side memory-bound
  evidence), and the compression ratio; asserts the payload spans more
  than one window, no read exceeds ``DEFAULT_CHUNK_BYTES``, and the
  round trip stays bit-identical.
* ``sparse_delta`` -- the wire-v3 codec leg: sparse counter summaries
  dumped as v2 frames vs one-entry v3 containers (whose records pick the
  cheapest of raw / varint-delta / zlib per payload).  The gate is
  *strict in the weak direction*: v3 never stores more payload bytes
  than v2 on any case, while the charged ``n_bits`` stays exactly equal.
* ``container_ops`` -- the PR-10 container leg: pack a 64-shard fleet
  with ``ContainerWriter``, then measure a full sequential decode
  against one manifest-driven lazy load.  Asserts the partial load
  touches far less than the whole container (open cost is header +
  manifest only, load cost is one record).

Writes ``BENCH_serialize.json`` (repo root).  Run directly::

    PYTHONPATH=src python benchmarks/bench_serialize.py [--quick]

or through pytest (``pytest benchmarks/bench_serialize.py -s``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import wire  # noqa: E402
from repro.core import SubsampleSketcher, ReleaseDbSketcher, Task  # noqa: E402
from repro.db import BitWriter, random_database  # noqa: E402
from repro.db.bitmatrix import int_to_bits, pack_bits  # noqa: E402
from repro.db.serialize import BitReader  # noqa: E402
from repro.params import SketchParams  # noqa: E402
from repro.streaming import CountMinSketch  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_serialize.json"

#: Acceptance floor: vectorized writer vs the seed list-based path on a
#: ~10^6-bit payload.
MIN_SPEEDUP = 5.0


# ----------------------------------------------------------------------
# Faithful reimplementation of the seed (pre-PR3) per-bit writer.
# ----------------------------------------------------------------------
class _LegacyBitWriter:
    """The seed BitWriter, preserved verbatim as the baseline.

    Every write walks its input bit by bit in Python and appends one
    ``bool`` object per bit; ``getvalue`` re-materializes the list as an
    array before packing.
    """

    def __init__(self) -> None:
        self._bits: list[bool] = []

    def write_bit(self, bit) -> None:
        self._bits.append(bool(bit))

    def write_bits(self, bits) -> None:
        self._bits.extend(bool(b) for b in np.asarray(bits, dtype=bool))

    def write_uint(self, value: int, width: int) -> None:
        self.write_bits(int_to_bits(value, width))

    @property
    def n_bits(self) -> int:
        return len(self._bits)

    def getvalue(self) -> bytes:
        return pack_bits(np.array(self._bits, dtype=bool)) if self._bits else b""


def _time(fn, repeats: int = 1):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_bitwriter_payload(n_rows: int, d: int, n_uints: int, repeats: int) -> dict:
    """The tentpole comparison on a RELEASE-DB-shaped payload."""
    rng = np.random.default_rng(0)
    rows = rng.random((n_rows, d)) < 0.3
    uints = rng.integers(0, 2**32, size=n_uints)
    total_bits = n_rows * d + 64 * n_uints

    def build(writer_cls):
        writer = writer_cls()
        writer.write_bits(rows.reshape(-1))
        for value in uints.tolist():
            writer.write_uint(int(value), 64)
        return writer.getvalue()

    legacy_time, legacy_payload = _time(lambda: build(_LegacyBitWriter), repeats)
    vector_time, vector_payload = _time(lambda: build(BitWriter), repeats)
    assert legacy_payload == vector_payload, "vectorized writer changed the payload"
    return {
        "config": {"n_rows": n_rows, "d": d, "n_uints": n_uints, "bits": total_bits},
        "legacy": {"seconds": legacy_time, "bits_per_sec": total_bits / legacy_time},
        "vectorized": {"seconds": vector_time, "bits_per_sec": total_bits / vector_time},
        "speedup": legacy_time / vector_time,
    }


def bench_quantized_answers(n_answers: int, epsilon: float, repeats: int) -> dict:
    """RELEASE-ANSWERS' table: per-answer writes vs one batched write."""
    rng = np.random.default_rng(1)
    freqs = rng.random(n_answers)

    def itemwise():
        writer = BitWriter()
        for f in freqs.tolist():
            writer.write_quantized(f, epsilon)
        return writer.getvalue()

    def batched():
        writer = BitWriter()
        writer.write_quantized_batch(freqs, epsilon)
        return writer.getvalue()

    item_time, a = _time(itemwise, repeats)
    batch_time, b = _time(batched, repeats)
    assert a == b, "batched quantization changed the payload"
    return {
        "config": {"n_answers": n_answers, "epsilon": epsilon},
        "itemwise": {"seconds": item_time, "answers_per_sec": n_answers / item_time},
        "batched": {"seconds": batch_time, "answers_per_sec": n_answers / batch_time},
        "speedup": item_time / batch_time,
    }


def bench_round_trip(n: int, d: int, repeats: int) -> dict:
    """dump + load latency for framed sketch files."""
    db = random_database(n, d, density=0.3, rng=2)
    p = SketchParams(n=n, d=d, k=2, epsilon=0.05, delta=0.1)
    cms = CountMinSketch(10_000, 2048, 5, rng=0)
    cms.update_many(np.random.default_rng(3).integers(0, 10_000, 50_000))
    subjects = {
        "subsample": SubsampleSketcher(Task.FORALL_ESTIMATOR).sketch(db, p, rng=0),
        "release-db": ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p, rng=0),
        "count-min": cms,
    }
    cases = {}
    for name, obj in subjects.items():
        dump_time, buf = _time(lambda o=obj: wire.dump(o), repeats)
        load_time, clone = _time(lambda b=buf: wire.load(b), repeats)
        assert clone.size_in_bits() == obj.size_in_bits()
        cases[name] = {
            "frame_bytes": len(buf),
            "payload_bits": obj.size_in_bits(),
            "dump_seconds": dump_time,
            "load_seconds": load_time,
            "round_trips_per_sec": 1.0 / (dump_time + load_time),
        }
    return {"config": {"n": n, "d": d}, "cases": cases}


def bench_file_stream(n: int, d: int, repeats: int) -> dict:
    """v2 frames through a file object: throughput + decode memory bound."""
    import io

    class SpyStream(io.BytesIO):
        def __init__(self, data=b""):
            super().__init__(data)
            self.max_read = 0

        def read(self, size=-1):
            data = super().read(size)
            self.max_read = max(self.max_read, len(data))
            return data

    window = wire.DEFAULT_CHUNK_BYTES
    db = random_database(n, d, density=0.3, rng=6)
    p = SketchParams(n=n, d=d, k=2, epsilon=0.05, delta=0.1)
    sketch = ReleaseDbSketcher(Task.FORALL_ESTIMATOR).sketch(db, p, rng=0)
    payload_bits = sketch.size_in_bits()
    assert (payload_bits + 7) // 8 > window, "payload fits in one read window"
    cases = {}
    for label, compress in (("plain", False), ("zlib", True)):
        def encode():
            sink = io.BytesIO()
            wire.dump_to(sketch, sink, compress=compress)
            return sink.getvalue()

        encode_time, frame = _time(encode, repeats)

        def decode():
            reader = SpyStream(frame)
            clone = wire.load_from(reader)
            return reader, clone

        decode_time, (reader, clone) = _time(decode, repeats)
        assert clone.size_in_bits() == payload_bits
        np.testing.assert_array_equal(clone.database.rows, sketch.database.rows)
        # The memory-bound evidence: no single read touches more than one
        # window, so the decoder never materializes the stored payload.
        assert reader.max_read <= window, "decode materialized beyond one window"
        cases[label] = {
            "frame_bytes": len(frame),
            "stored_over_payload": len(frame) / max(1, (payload_bits + 7) // 8),
            "encode_seconds": encode_time,
            "decode_seconds": decode_time,
            "encode_mbits_per_sec": payload_bits / encode_time / 1e6,
            "decode_mbits_per_sec": payload_bits / decode_time / 1e6,
            "max_single_read": reader.max_read,
        }
    return {
        "config": {
            "n": n,
            "d": d,
            "payload_bits": payload_bits,
            "read_window_bytes": window,
        },
        "cases": cases,
    }


def bench_sparse_delta(universe: int, k: int, n_items: int, repeats: int) -> dict:
    """v2 frames vs one-entry v3 containers: stored payload bytes."""
    import io

    def container(summary) -> bytes:
        sink = io.BytesIO()
        wire.write_container(sink, [("", summary)])
        return sink.getvalue()

    from repro.streaming import MisraGries, SpaceSaving, StickySampling

    rng = np.random.default_rng(7)
    stream = rng.integers(0, universe, size=n_items, dtype=np.int64)
    subjects = {
        "misra-gries": MisraGries(universe, k),
        "space-saving": SpaceSaving(universe, k),
        "sticky-sampling": StickySampling(universe, 0.02, 0.1, rng=0),
    }
    cases = {}
    for name, summary in subjects.items():
        summary.update_many(stream)
        v2_time, v2_frame = _time(lambda s=summary: wire.dump(s), repeats)
        v3_time, v3_frame = _time(lambda s=summary: container(s), repeats)
        v2_info = wire.inspect_frame(io.BytesIO(v2_frame))
        v3_info = wire.inspect_frame(io.BytesIO(v3_frame))
        assert v3_info.stored_payload_bytes <= v2_info.stored_payload_bytes, (
            f"{name}: v3 stored {v3_info.stored_payload_bytes} B exceeds "
            f"v2's {v2_info.stored_payload_bytes} B"
        )
        assert v3_info.n_bits == v2_info.n_bits == summary.size_in_bits(), (
            f"{name}: charged bits drifted across versions"
        )
        clone = wire.load(v3_frame)
        assert wire.dump(clone) == v2_frame, (
            f"{name}: v3 round trip is not bit-identical"
        )
        cases[name] = {
            "payload_bits": v2_info.n_bits,
            "v2_stored_bytes": v2_info.stored_payload_bytes,
            "v3_stored_bytes": v3_info.stored_payload_bytes,
            "v3_delta_encoded": v3_info.delta,
            "stored_ratio": v3_info.stored_payload_bytes
            / max(1, v2_info.stored_payload_bytes),
            "v2_dump_seconds": v2_time,
            "v3_dump_seconds": v3_time,
        }
    return {
        "config": {"universe": universe, "k": k, "stream": n_items},
        "cases": cases,
    }


def bench_container_ops(n_shards: int, universe: int, k: int, repeats: int) -> dict:
    """Pack / sequential decode / manifest-driven lazy load on a fleet."""
    import io

    from repro.streaming import MisraGries

    class SpyFile(io.BytesIO):
        def __init__(self, data):
            super().__init__(data)
            self.bytes_read = 0

        def read(self, size=-1):
            data = super().read(size)
            self.bytes_read += len(data)
            return data

    shards = []
    for i in range(n_shards):
        mg = MisraGries(universe, k)
        mg.update_many(
            np.random.default_rng(200 + i).integers(0, universe, 5000)
        )
        shards.append((f"shard{i}", mg))

    def pack():
        sink = io.BytesIO()
        wire.write_container(sink, shards)
        return sink.getvalue()

    pack_time, data = _time(pack, repeats)

    def full_decode():
        return sum(1 for _ in wire.iter_container_objects(io.BytesIO(data)))

    full_time, decoded = _time(full_decode, repeats)
    assert decoded == n_shards

    target = f"shard{n_shards // 2}"

    def lazy_load():
        spy = SpyFile(data)
        reader = wire.ContainerReader.open(spy)
        obj = reader.load(reader.entries[n_shards // 2])
        return spy, obj

    lazy_time, (spy, obj) = _time(lazy_load, repeats)
    assert obj.size_in_bits() == dict(shards)[target].size_in_bits()
    # The lazy-load evidence: one shard costs header + manifest + one
    # record, a small fraction of the container.
    assert spy.bytes_read < len(data) / 4, (
        f"lazy load read {spy.bytes_read} of {len(data)} container bytes"
    )
    return {
        "config": {"n_shards": n_shards, "universe": universe, "k": k},
        "container_bytes": len(data),
        "pack_seconds": pack_time,
        "full_decode_seconds": full_time,
        "lazy_load_seconds": lazy_time,
        "lazy_load_bytes_read": spy.bytes_read,
        "lazy_read_fraction": spy.bytes_read / len(data),
        "shards_per_sec_packed": n_shards / pack_time,
        "shards_per_sec_decoded": n_shards / full_time,
    }


def run(quick: bool = False, out_path: Path = DEFAULT_OUT) -> dict:
    """Run the full suite and write the JSON trajectory record."""
    repeats = 1 if quick else 3
    if quick:
        results = {
            # The payload config is pinned at ~10^6 bits even in quick
            # mode: the >= 5x acceptance floor is defined at that size.
            "bitwriter_payload": bench_bitwriter_payload(15_360, 64, 400, repeats),
            "quantized_answers": bench_quantized_answers(20_000, 0.01, repeats),
            "sketch_file_round_trip": bench_round_trip(1024, 16, repeats),
            "file_stream": bench_file_stream(24_576, 24, repeats),
            "sparse_delta": bench_sparse_delta(1 << 16, 16, 20_000, repeats),
            "container_ops": bench_container_ops(64, 4096, 64, repeats),
        }
    else:
        results = {
            "bitwriter_payload": bench_bitwriter_payload(15_360, 64, 400, repeats),
            "quantized_answers": bench_quantized_answers(100_000, 0.01, repeats),
            "sketch_file_round_trip": bench_round_trip(4096, 24, repeats),
            "file_stream": bench_file_stream(32_768, 32, repeats),
            "sparse_delta": bench_sparse_delta(1 << 20, 32, 200_000, repeats),
            "container_ops": bench_container_ops(64, 65_536, 256, repeats),
        }
    tentpole = results["bitwriter_payload"]
    assert tentpole["config"]["bits"] >= 1_000_000, "payload case shrank below 10^6 bits"
    assert tentpole["speedup"] >= MIN_SPEEDUP, (
        f"vectorized BitWriter only {tentpole['speedup']:.1f}x faster than the "
        f"legacy list path (floor {MIN_SPEEDUP}x)"
    )
    record = {
        "benchmark": "serialize",
        "pr": 10,
        "quick": quick,
        "results": results,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    return record


# ----------------------------------------------------------------------
# pytest entry points (not part of tier-1: bench_* files are opt-in).
# ----------------------------------------------------------------------
def test_serializer_speedup_quick(tmp_path):
    record = run(quick=True, out_path=tmp_path / "BENCH_serialize.json")
    tentpole = record["results"]["bitwriter_payload"]
    print(
        f"\nbitwriter_payload ({tentpole['config']['bits']} bits): "
        f"legacy {tentpole['legacy']['bits_per_sec']:.3g} bits/s -> "
        f"vectorized {tentpole['vectorized']['bits_per_sec']:.3g} bits/s "
        f"({tentpole['speedup']:.0f}x)"
    )
    assert tentpole["speedup"] >= MIN_SPEEDUP
    assert record["results"]["quantized_answers"]["speedup"] > 1.0
    for label, case in record["results"]["file_stream"]["cases"].items():
        print(
            f"file_stream {label}: {case['encode_mbits_per_sec']:.0f} / "
            f"{case['decode_mbits_per_sec']:.0f} Mbit/s enc/dec, "
            f"max read {case['max_single_read']} B"
        )
    for name, case in record["results"]["sparse_delta"]["cases"].items():
        print(
            f"sparse_delta {name}: v2 {case['v2_stored_bytes']} B -> "
            f"v3 {case['v3_stored_bytes']} B stored "
            f"({'delta' if case['v3_delta_encoded'] else 'raw/zlib'})"
        )
        assert case["v3_stored_bytes"] <= case["v2_stored_bytes"]
    ops = record["results"]["container_ops"]
    print(
        f"container_ops: {ops['config']['n_shards']} shards in "
        f"{ops['container_bytes']} B; lazy load read "
        f"{ops['lazy_load_bytes_read']} B ({ops['lazy_read_fraction']:.1%})"
    )
    assert ops["lazy_read_fraction"] < 0.25


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small smoke configuration (CI)"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="JSON output path"
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick, out_path=args.out)
    for name, res in record["results"].items():
        if "speedup" in res:
            print(f"{name}: speedup {res['speedup']:.1f}x")
    trips = record["results"]["sketch_file_round_trip"]["cases"]
    for name, case in trips.items():
        print(
            f"round_trip {name}: {case['frame_bytes']} bytes, "
            f"{case['round_trips_per_sec']:.0f} round-trips/sec"
        )
    for name, case in record["results"]["sparse_delta"]["cases"].items():
        print(
            f"sparse_delta {name}: stored ratio "
            f"{case['stored_ratio']:.2f} (v3/v2)"
        )
    ops = record["results"]["container_ops"]
    print(
        f"container_ops: lazy load touched {ops['lazy_read_fraction']:.1%} "
        f"of the container"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
