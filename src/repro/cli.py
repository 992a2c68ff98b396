"""Command-line interface: ``python -m repro <command>``.

Thirteen commands cover the library's everyday entry points:

* ``experiments`` -- list the reproduced claims and their benchmarks;
* ``bounds``      -- print Theorem 12's sizes and the lower bounds for a
  parameter point;
* ``validate``    -- empirically validate a sketcher on a random database;
* ``attack``      -- run a lower-bound encoding attack end to end;
* ``mine``        -- mine frequent itemsets from a transaction file,
  exactly or through a sketch;
* ``sketch``      -- run ``S``: build a sketch of a transaction file and
  write its wire-format bit string to disk (``--compress`` stores a zlib
  payload -- the charged bit count never changes);
* ``query``       -- run ``Q``: answer an itemset query from a sketch
  file alone, in a separate process from the one that saw the data;
* ``merge``       -- fold two or more serialized summary shard files
  into one merged sketch file (the distributed-ingest coordinator);
* ``inspect``     -- print a sketch file's frame header (codec, wire
  version, params, extras, ``n_bits``, CRC status) without decoding the
  payload;
* ``serve``       -- run a resident sketch server: a long-lived daemon
  holding loaded sketches in memory and answering socket queries
  (``--load`` preloads frame files, ``--port 0`` binds an ephemeral
  port and prints it; ``--data-dir`` makes the registry durable --
  every acknowledged LOAD/INGEST/DROP is write-ahead logged and
  replayed on restart -- while ``--max-connections`` and
  ``--idle-timeout`` bound concurrent load);
* ``compact``     -- fold a ``--data-dir``'s write-ahead log into a
  fresh snapshot offline, bounding the next restart's replay time;
* ``push``        -- upload a sketch file into a running server's
  registry (name collisions fold shards via the merge rules);
* ``stream``      -- ingest an unbounded item stream (stdin or file,
  text or raw u64) into a streaming summary with bounded memory: the
  micro-batch pipeline folds each batch into the summary at numpy
  speed, writing a sketch file (``--out``) or pushing batches into a
  live daemon (``--connect``, the ``INGEST`` verb).

``sketch`` and ``query`` realise the paper's ``(S, Q)`` split across a
process boundary: the query process never sees the database, only the
serialized summary whose length the lower bounds are about.  ``serve``
extends the split over sockets -- ``query --connect host:port`` answers
from a resident sketch instead of a file, through the same codec path.
Every command that reads sketch files (``query``/``merge``/``inspect``)
reports corrupted or truncated frames as a one-line error and a nonzero
exit code, never a traceback; socket commands report connection and
server errors the same way, and ``serve``/``compact`` refuse a
corrupted data dir identically (a torn final WAL record -- the crash
signature -- is healed silently; anything else is corruption).  The
socket commands (``query --connect``/``push``/``stream --connect``)
take ``--retries``/``--deadline`` to survive transient faults with
exponential backoff; for ``push``/``stream`` that opt-in also covers
their mutating ops.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .core import (
    BestOfNaiveSketcher,
    ImportanceSampleSketcher,
    ReleaseAnswersSketcher,
    ReleaseDbSketcher,
    SubsampleSketcher,
    Task,
    lower_bound_bits,
    naive_upper_bounds,
    validate_sketcher,
)
from .core.base import FrequencySketch
from .db import Itemset, random_database
from .db.transactions import read_transactions
from .experiments import EXPERIMENTS, format_table
from .lowerbounds import (
    Theorem13Encoding,
    Theorem15Encoding,
    run_encoding_attack,
)
from .mining import apriori
from .params import SketchParams
from .server.protocol import DEFAULT_MAX_FRAME_BYTES, DEFAULT_PORT
from .streaming.pipeline import SUMMARY_KINDS

__all__ = ["main", "build_parser"]

_TASKS = {t.value: t for t in Task}

_SKETCHERS = {
    "subsample": SubsampleSketcher,
    "release-db": ReleaseDbSketcher,
    "release-answers": ReleaseAnswersSketcher,
    "importance": ImportanceSampleSketcher,
    "best": BestOfNaiveSketcher,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Itemset frequency sketches: algorithms, bounds, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list the reproduced claims")

    bounds = sub.add_parser("bounds", help="print upper/lower bounds")
    for flag, kind, default in (
        ("--n", int, 100000), ("--d", int, 32), ("--k", int, 2),
        ("--eps", float, 0.05), ("--delta", float, 0.1),
    ):
        bounds.add_argument(flag, type=kind, default=default)

    validate = sub.add_parser("validate", help="validate a sketcher empirically")
    validate.add_argument("--task", choices=sorted(_TASKS), default="for-all-estimator")
    validate.add_argument("--sketcher", choices=sorted(_SKETCHERS), default="subsample")
    validate.add_argument("--n", type=int, default=5000)
    validate.add_argument("--d", type=int, default=16)
    validate.add_argument("--k", type=int, default=2)
    validate.add_argument("--eps", type=float, default=0.1)
    validate.add_argument("--delta", type=float, default=0.1)
    validate.add_argument("--trials", type=int, default=10)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the sharded batch evaluators (default: auto)",
    )

    attack = sub.add_parser("attack", help="run a lower-bound encoding attack")
    attack.add_argument("--theorem", choices=["13", "15"], default="13")
    attack.add_argument("--d", type=int, default=32)
    attack.add_argument("--k", type=int, default=2)
    attack.add_argument("--m", type=int, default=16, help="1/eps for Thm 13")
    attack.add_argument("--sketcher", choices=sorted(_SKETCHERS), default="subsample")
    attack.add_argument("--seed", type=int, default=0)

    mine = sub.add_parser("mine", help="mine frequent itemsets from a file")
    mine.add_argument("path", help="transaction file (one basket per line)")
    mine.add_argument("--threshold", type=float, default=0.1)
    mine.add_argument("--max-size", type=int, default=3)
    mine.add_argument(
        "--via-sketch", action="store_true",
        help="mine through a SUBSAMPLE sketch instead of exactly",
    )
    mine.add_argument("--eps", type=float, default=0.02)
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the sharded batch evaluators (default: auto)",
    )

    sketch = sub.add_parser(
        "sketch", help="build a sketch of a transaction file and write it to disk"
    )
    sketch.add_argument("path", help="transaction file (one basket per line)")
    sketch.add_argument("--out", required=True, help="output sketch file")
    sketch.add_argument("--sketcher", choices=sorted(_SKETCHERS), default="subsample")
    sketch.add_argument("--task", choices=sorted(_TASKS), default="for-all-estimator")
    sketch.add_argument("--k", type=int, default=2)
    sketch.add_argument("--eps", type=float, default=0.1)
    sketch.add_argument("--delta", type=float, default=0.1)
    sketch.add_argument("--seed", type=int, default=0)
    sketch.add_argument(
        "--compress", action="store_true",
        help="store a zlib-compressed v2 payload (the charged size_in_bits "
             "is still the uncompressed bit count)",
    )

    query = sub.add_parser(
        "query", help="answer an itemset query from a sketch file alone"
    )
    query.add_argument(
        "path",
        help="sketch file written by `repro sketch` (with --connect: the "
             "name of a sketch resident on the server)",
    )
    query.add_argument(
        "items", nargs="*", type=int,
        help="attribute indices of the queried itemset (empty = empty itemset)",
    )
    query.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="answer from a running `repro serve` daemon instead of a "
             "file; PATH names the resident sketch",
    )
    _add_retry_flags(query)

    pack = sub.add_parser(
        "pack",
        help="pack sketch frame files into one multi-frame wire-v3 container",
    )
    pack.add_argument(
        "shards", nargs="+",
        help="sketch files to pack; each contributes its frames to the "
             "container, named by file stem (container inputs keep their "
             "own shard names)",
    )
    pack.add_argument("--out", required=True, help="output container file")
    pack.add_argument(
        "--compress", action="store_true",
        help="allow zlib-compressed stored payloads inside the container "
             "(the charged size_in_bits is still the uncompressed count)",
    )

    merge = sub.add_parser(
        "merge", help="merge serialized summary shard files into one sketch file"
    )
    merge.add_argument(
        "shards", nargs="+",
        help="two or more shard files holding frames of the same summary "
             "type (a wire-v3 container counts one shard per contained "
             "frame)",
    )
    merge.add_argument("--out", required=True, help="output sketch file")
    merge.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sampling-based merge rules (reservoirs)",
    )
    merge.add_argument(
        "--compress", action="store_true",
        help="store the merged frame with a zlib-compressed v2 payload",
    )

    inspect = sub.add_parser(
        "inspect",
        help="print a sketch file's frame header (or a container's "
             "manifest) without decoding any payload",
    )
    inspect.add_argument(
        "path",
        help="sketch file written by `repro sketch`, or a container from "
             "`repro pack` / `repro compact`",
    )

    serve = sub.add_parser(
        "serve", help="run a resident sketch server answering socket queries"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=None,
        help=f"TCP port (default {DEFAULT_PORT}; 0 binds an ephemeral "
             "port, printed on startup)",
    )
    serve.add_argument(
        "--max-frame-bytes", type=int, default=DEFAULT_MAX_FRAME_BYTES,
        help="cap on one request/response body; oversized requests are "
             "rejected before their payload is read "
             f"(default {DEFAULT_MAX_FRAME_BYTES})",
    )
    serve.add_argument(
        "--load", nargs="*", default=[], metavar="PATH",
        help="sketch files to preload into the registry, named by file "
             "stem; with --data-dir a name already recovered from the "
             "journal is skipped, so restarts never double-fold preloads",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sampling-based merge rules (reservoirs)",
    )
    serve.add_argument(
        "--data-dir", default=None, metavar="DIR",
        help="durable registry: write-ahead log every acknowledged "
             "LOAD/INGEST/DROP under DIR and replay snapshot+WAL on "
             "startup (created if missing)",
    )
    serve.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="cap on simultaneously served connections; excess "
             "connections get one BUSY response and are closed "
             "(default: uncapped)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="hang up on connections idle this long between bytes "
             "(default: wait forever)",
    )

    compact = sub.add_parser(
        "compact",
        help="fold a serve --data-dir's write-ahead log into a fresh "
             "snapshot (run offline; bounds the next restart's replay)",
    )
    compact.add_argument("data_dir", help="directory given to `repro serve --data-dir`")
    compact.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sampling-based merge rules during replay",
    )

    stream = sub.add_parser(
        "stream",
        help="ingest an unbounded item stream into a summary with bounded "
             "memory (micro-batch pipeline)",
    )
    stream.add_argument(
        "source",
        help="item stream: a file path, or '-' for stdin",
    )
    stream.add_argument(
        "--summary", choices=sorted(SUMMARY_KINDS), default="count-min",
        help="summary kind to build (default: count-min)",
    )
    stream.add_argument(
        "--universe", type=int, required=True,
        help="item-id universe size (ids are 0..universe-1)",
    )
    stream.add_argument("--k", type=int, default=64,
                        help="counters for misra-gries/space-saving")
    stream.add_argument("--width", type=int, default=1024, help="count-min width")
    stream.add_argument("--depth", type=int, default=4, help="count-min depth")
    stream.add_argument("--size", type=int, default=256, help="reservoir capacity")
    stream.add_argument("--seed", type=int, default=0,
                        help="hash/sampling seed for the summary")
    stream.add_argument(
        "--format", choices=("text", "u64"), default="text",
        help="text: whitespace-separated decimal ids; u64: raw "
             "little-endian 8-byte ids (the wire-speed path)",
    )
    stream.add_argument(
        "--max-batch-items", type=int, default=None,
        help="micro-batch size; the memory/backpressure granule and the "
             "unit each summary folds at once (default: 65536)",
    )
    stream.add_argument(
        "--queue-depth", type=int, default=None,
        help="bound on batches queued ahead of the sketching thread "
             "(default: 8)",
    )
    stream.add_argument(
        "--max-items", type=int, default=None,
        help="stop after this many items (default: drain the source)",
    )
    stream.add_argument(
        "--out", default=None,
        help="write the final summary as a sketch frame file",
    )
    stream.add_argument(
        "--compress", action="store_true",
        help="store --out with a zlib-compressed v2 payload",
    )
    stream.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="push batches into a running `repro serve` daemon via INGEST "
             "instead of writing a file",
    )
    stream.add_argument(
        "--name", default="stream",
        help="registry name for --connect ingestion (default: 'stream')",
    )
    _add_retry_flags(stream)

    push = sub.add_parser(
        "push",
        help="upload a sketch file (or a whole container fleet) into a "
             "running sketch server",
    )
    push.add_argument(
        "path",
        help="sketch file written by `repro sketch`, or a multi-frame "
             "container from `repro pack` / `repro compact` (each named "
             "shard loads under its manifest name via one LOAD-many "
             "session)",
    )
    push.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="address of a running `repro serve` daemon",
    )
    push.add_argument(
        "--name", default=None,
        help="registry name (default: the file's stem); pushing shards "
             "under one name folds them via the merge rules; refused for "
             "multi-shard containers, whose names come from the manifest",
    )
    _add_retry_flags(push)
    return parser


def _add_retry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transient socket failures up to N extra times with "
             "exponential backoff (default: fail fast); for push/stream "
             "this opts their mutating ops into retry too",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="overall wall-clock budget across attempts and backoff "
             "(implies --retries 3 when given alone)",
    )


def _retry_policy(args: argparse.Namespace, *, mutating: bool):
    """Build the client's RetryPolicy from --retries/--deadline, if any."""
    if args.retries is None and args.deadline is None:
        return None
    from .server.client import RetryPolicy

    return RetryPolicy(
        retries=3 if args.retries is None else args.retries,
        deadline=args.deadline,
        retry_mutating=mutating,
    )


def _cmd_experiments() -> int:
    rows = [
        {"id": e.exp_id, "anchor": e.paper_anchor, "bench": e.bench}
        for e in EXPERIMENTS
    ]
    print(format_table(rows))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = SketchParams(n=args.n, d=args.d, k=args.k, epsilon=args.eps, delta=args.delta)
    rows = []
    for task in Task:
        sizes = naive_upper_bounds(task, params)
        rows.append(
            {
                "task": task.value,
                **sizes,
                "upper (min)": min(sizes.values()),
                "lower bound": round(lower_bound_bits(task, params)),
            }
        )
    print(params.describe())
    print(format_table(rows))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    task = _TASKS[args.task]
    sketcher = _SKETCHERS[args.sketcher](task)
    params = SketchParams(n=args.n, d=args.d, k=args.k, epsilon=args.eps, delta=args.delta)
    db = random_database(args.n, args.d, 0.3, rng=args.seed)
    report = validate_sketcher(
        sketcher, db, params, trials=args.trials, rng=args.seed + 1,
        workers=args.workers,
    )
    print(
        f"{args.sketcher} on {task.value}: failure rate "
        f"{report.failure_rate:.3f} over {report.units} units "
        f"(delta = {params.delta})"
    )
    return 0 if report.ok(params.delta) else 1


def _cmd_attack(args: argparse.Namespace) -> int:
    if args.theorem == "13":
        encoding = Theorem13Encoding(d=args.d, k=max(args.k, 2), m=args.m)
        task = Task.FORALL_INDICATOR
    else:
        encoding = Theorem15Encoding(d=args.d, k=max(args.k, 2))
        task = Task.FORALL_INDICATOR
    sketcher = _SKETCHERS[args.sketcher](task)
    report = run_encoding_attack(encoding, sketcher, rng=args.seed)
    print(
        f"theorem {args.theorem} attack via {args.sketcher}: "
        f"recovered {report.payload_bits - report.bit_errors}/"
        f"{report.payload_bits} payload bits; sketch "
        f"{report.sketch_bits} bits >= fano {report.fano_bound_bits:.0f}"
    )
    return 0 if report.error_fraction <= 0.05 else 1


def _cmd_mine(args: argparse.Namespace) -> int:
    db = read_transactions(args.path)
    source = db
    if args.via_sketch:
        params = SketchParams(
            n=db.n, d=db.d, k=args.max_size, epsilon=args.eps, delta=0.05
        )
        source = SubsampleSketcher(Task.FORALL_ESTIMATOR).sketch(
            db, params, rng=args.seed
        )
    frequent = apriori(
        source, args.threshold, max_size=args.max_size, workers=args.workers
    )
    rows = [
        {"itemset": " ".join(map(str, t.items)), "frequency": round(f, 4)}
        for t, f in sorted(frequent.items(), key=lambda kv: -kv[1])
    ]
    print(format_table(rows) if rows else "(no frequent itemsets)")
    return 0


def _write_frame_file(obj, out_path: str, *, compress: bool) -> int:
    """Write one frame to ``out_path`` without clobbering it on failure.

    The frame is written to a sibling temp file and renamed over the
    target only once the encode succeeded, so a failed command never
    truncates a pre-existing good sketch file.  Returns frame bytes.
    """
    import os

    from .wire import dump_to

    tmp_path = f"{out_path}.tmp"
    try:
        with open(tmp_path, "wb") as stream:
            frame_bytes = dump_to(obj, stream, compress=compress)
        os.replace(tmp_path, out_path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return frame_bytes


def _read_frame_file(path: str):
    """Load the single frame a sketch file holds, rejecting trailing bytes."""
    from .errors import WireFormatError
    from .wire import load_from

    with open(path, "rb") as stream:
        obj = load_from(stream)
        if stream.read(1):
            raise WireFormatError("trailing garbage after frame")
    return obj


def _cmd_sketch(args: argparse.Namespace) -> int:
    """``S``: read transactions, sketch, stream the framed bit string."""
    from .errors import ReproError

    try:
        db = read_transactions(args.path)
        task = _TASKS[args.task]
        sketcher = _SKETCHERS[args.sketcher](task)
        params = SketchParams(
            n=db.n, d=db.d, k=args.k, epsilon=args.eps, delta=args.delta
        )
        sketch = sketcher.sketch(db, params, rng=args.seed)
        frame_bytes = _write_frame_file(sketch, args.out, compress=args.compress)
    except (ReproError, OSError) as exc:
        print(f"cannot sketch {args.path}: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.out}: {type(sketch).__name__} "
        f"({params.describe()}), payload {sketch.size_in_bits()} bits, "
        f"frame {frame_bytes} bytes, theoretical "
        f"{sketcher.theoretical_size_bits(params)} bits"
    )
    return 0


def _parse_connect(value: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` connect string; ``ProtocolError`` if malformed."""
    from .errors import ProtocolError

    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"--connect wants HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(f"invalid port in --connect {value!r}") from None
    if not 0 < port < 65536:
        raise ProtocolError(f"port {port} outside [1, 65535]")
    return host, port


def _query_over_socket(args: argparse.Namespace, itemset: Itemset, label: str) -> int:
    """``Q`` over a socket: same answer, resident sketch, zero file reads."""
    from .errors import ReproError, ServerError
    from .server import Client

    name = args.path
    try:
        host, port = _parse_connect(args.connect)
        with Client(host, port, retry=_retry_policy(args, mutating=False)) as client:
            stat = client.stat(name)
            [estimate] = client.estimate(name, [itemset])
            try:
                [indicator] = client.indicate(name, [itemset])
            except ServerError:
                indicator = None  # streaming summaries have no threshold
    except (ReproError, OSError) as exc:
        print(
            f"cannot query {name!r} via {args.connect}: {exc}", file=sys.stderr
        )
        return 1
    described = f"{stat.params.describe()}, " if stat.params else ""
    indicate_text = "n/a" if indicator is None else str(int(indicator))
    print(
        f"{stat.codec} ({described}{stat.size_in_bits} bits): "
        f"estimate[{label}] = {estimate:.6g}, indicate = {indicate_text}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """``Q``: answer from the serialized summary alone."""
    from .errors import ReproError, WireFormatError

    try:
        itemset = Itemset(args.items)
    except ReproError as exc:
        print(f"invalid itemset {args.items}: {exc}", file=sys.stderr)
        return 1
    label = " ".join(map(str, itemset.items)) or "(empty)"
    if args.connect:
        return _query_over_socket(args, itemset, label)
    from .streaming.base import StreamSummary

    try:
        sketch = _read_frame_file(args.path)
        if not isinstance(sketch, (FrequencySketch, StreamSummary)):
            raise WireFormatError(
                f"frame decodes to {type(sketch).__name__}, not a queryable sketch"
            )
    except (ReproError, OSError) as exc:
        print(f"cannot read sketch file {args.path}: {exc}", file=sys.stderr)
        return 1
    if isinstance(sketch, StreamSummary):
        # Same answer surface as the server registry: streaming summaries
        # estimate singleton frequencies and have no indicator threshold.
        if len(itemset) != 1:
            print(
                f"cannot answer [{label}] from a {type(sketch).__name__}: "
                "streaming summaries answer 1-itemsets only",
                file=sys.stderr,
            )
            return 1
        estimate = sketch.estimate_frequency(itemset.items[0])
        print(
            f"{type(sketch).__name__} ({sketch.size_in_bits()} bits): "
            f"estimate[{label}] = {estimate:.6g}, indicate = n/a"
        )
        return 0
    try:
        estimate = sketch.estimate(itemset)
        indicator = sketch.indicate(itemset)
    except ReproError as exc:
        # Stored-answer sketches only answer exactly-k itemsets; say so
        # instead of dumping a traceback (the frame header carries k).
        print(
            f"cannot answer [{label}] from this sketch "
            f"({sketch.params.describe()}): {exc}",
            file=sys.stderr,
        )
        return 1
    print(
        f"{type(sketch).__name__} ({sketch.params.describe()}, "
        f"{sketch.size_in_bits()} bits): "
        f"estimate[{label}] = {estimate:.6g}, indicate = {int(indicator)}"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """The distributed-ingest coordinator: fold shard files over the wire."""
    from contextlib import ExitStack

    from .errors import ReproError, WireFormatError
    from .streaming.merge import merge_payloads
    from .wire import WIRE_V3, ContainerReader, peek_wire_version

    try:
        # Count contributed shards up front: a container path folds in
        # one shard per manifest entry, a frame file exactly one.
        n_shards = 0
        for path in args.shards:
            with open(path, "rb") as stream:
                if peek_wire_version(stream.read(5)) == WIRE_V3:
                    stream.seek(0)
                    n_shards += len(ContainerReader.open(stream))
                else:
                    n_shards += 1
        with ExitStack() as stack:
            opened = []

            def shard_streams():
                for path in args.shards:
                    stream = stack.enter_context(open(path, "rb"))
                    opened.append((path, stream))
                    yield stream

            merged = merge_payloads(shard_streams(), rng=args.seed)
            # Each shard file holds exactly one frame (a container, its
            # frames); by now every stream has been consumed through it.
            for path, stream in opened:
                if stream.read(1):
                    raise WireFormatError(f"trailing garbage after frame in {path}")
        frame_bytes = _write_frame_file(merged, args.out, compress=args.compress)
    except (ReproError, OSError) as exc:
        print(f"cannot merge shards: {exc}", file=sys.stderr)
        return 1
    print(
        f"wrote {args.out}: {type(merged).__name__} merged from "
        f"{n_shards} shards, payload {merged.size_in_bits()} bits, "
        f"frame {frame_bytes} bytes"
    )
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    """Pack shard files into one manifest-indexed wire-v3 container."""
    import io
    import os

    from .errors import ReproError
    from .wire import (
        WIRE_V3,
        ContainerReader,
        ContainerWriter,
        load_from,
        peek_wire_version,
    )

    tmp_path = f"{args.out}.tmp"
    try:
        try:
            with open(tmp_path, "wb") as out:
                writer = ContainerWriter(out, compress=args.compress)
                for path in args.shards:
                    stem = Path(path).stem
                    with open(path, "rb") as stream:
                        if peek_wire_version(stream.read(5)) == WIRE_V3:
                            # A container input: re-pack its shards under
                            # their manifest names.
                            reader = ContainerReader.open(
                                io.BytesIO(Path(path).read_bytes())
                            )
                            for i, entry in enumerate(reader.entries):
                                name = entry.name or f"{stem}-{i}"
                                writer.add(name, reader.load(entry))
                        else:
                            stream.seek(0)
                            writer.add(stem, load_from(stream))
                entries = writer.close()
            os.replace(tmp_path, args.out)
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    except (ReproError, OSError) as exc:
        print(f"cannot pack shards: {exc}", file=sys.stderr)
        return 1
    total_bits = sum(e.n_bits for e in entries)
    total_bytes = Path(args.out).stat().st_size
    print(
        f"wrote {args.out}: container of {len(entries)} shards, "
        f"{total_bits} payload bits charged, {total_bytes} bytes stored"
    )
    for entry in entries:
        print(
            f"  {entry.name}: {entry.codec}, {entry.n_bits} bits, "
            f"{entry.record_bytes} bytes at offset {entry.offset}"
        )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Describe a sketch file from its frame header, payload undecoded."""
    from .errors import ReproError
    from .wire import WIRE_V3, inspect_container, inspect_frame, peek_wire_version

    try:
        with open(args.path, "rb") as stream:
            if peek_wire_version(stream.read(5)) == WIRE_V3:
                stream.seek(0)
                return _print_container_info(args.path, inspect_container(stream))
            stream.seek(0)
            info = inspect_frame(stream)
    except (ReproError, OSError) as exc:
        print(f"cannot inspect {args.path}: {exc}", file=sys.stderr)
        return 1
    layout = []
    if info.compressed:
        layout.append("zlib")
    if info.chunked:
        layout.append("chunked")
    print(f"file: {args.path} ({info.frame_bytes} bytes)")
    print(f"codec: {info.codec}   wire version: {info.version}")
    print(f"params: {info.params.describe() if info.params else '(none)'}")
    extras = " ".join(f"{k}={v}" for k, v in sorted(info.extras.items()))
    print(f"extras: {extras or '(none)'}")
    print(
        f"payload: {info.n_bits} bits ({info.stored_payload_bytes} bytes "
        f"stored{', ' + '+'.join(layout) if layout else ''}); "
        f"header {info.header_bytes} bytes"
    )
    print(f"crc: {'ok' if info.crc_ok else 'MISMATCH'}")
    return 0 if info.crc_ok else 1


def _print_container_info(path: str, info) -> int:
    """Render ``inspect_container`` output: meta, codec table, manifest."""
    print(f"file: {path} ({info.container_bytes} bytes, container)")
    print(
        f"wire version: {info.version}   shards: {len(info.entries)}   "
        f"codecs: {len(info.codecs)}"
    )
    meta = " ".join(f"{k}={v}" for k, v in sorted(info.meta.items()))
    print(f"meta: {meta or '(none)'}")
    print(
        f"layout: header {info.header_bytes} bytes, manifest at offset "
        f"{info.manifest_offset}"
    )
    for entry in info.entries:
        print(
            f"  {entry.name or '(anonymous)'}: {entry.codec}, "
            f"{entry.n_bits} bits charged, {entry.record_bytes} bytes "
            f"stored at offset {entry.offset}"
        )
    print(f"crc: {'ok' if info.crc_ok else 'MISMATCH'}")
    return 0 if info.crc_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident sketch server in the foreground until signalled.

    With ``--data-dir`` the registry is recovered from its snapshot and
    write-ahead log before the socket opens (so the first query already
    sees every previously acknowledged op), and every later mutation is
    logged-and-fsync'd before its acknowledgement.  ``--load`` preloads
    are applied after recovery and skip names the journal already
    replayed, so a durable server's preloads are ensure-present, not
    merge-again.  A corrupted data dir
    -- anything beyond the torn final record a crash legitimately leaves
    -- is refused with a one-line error and exit 1.  On SIGINT/SIGTERM
    the server drains gracefully: in-flight requests finish, new
    connections are refused, the store closes after the final append.
    """
    import asyncio
    import contextlib
    import signal

    from .errors import ReproError
    from .server import SketchServer, preload_files

    port = DEFAULT_PORT if args.port is None else args.port
    store = None
    try:
        registry = None
        if args.data_dir is not None:
            from .server.persistence import PersistentStore
            from .server.registry import SketchRegistry

            registry = SketchRegistry(
                rng=args.seed, max_frame_bytes=args.max_frame_bytes
            )
            store = PersistentStore(
                args.data_dir, max_frame_bytes=args.max_frame_bytes
            )
            info = store.recover(registry)
            print(f"{args.data_dir}: {info.describe()}", flush=True)
        server = SketchServer(
            args.host,
            port,
            max_frame_bytes=args.max_frame_bytes,
            rng=args.seed,
            registry=registry,
            max_connections=args.max_connections,
            idle_timeout=args.idle_timeout,
            store=store,
        )
        # Idempotent under recovery: a --load already replayed from the
        # journal is skipped, not merge-folded into itself.
        names = preload_files(
            server.registry, args.load, skip_resident=args.data_dir is not None
        )
    except (ReproError, OSError) as exc:
        if store is not None:
            store.close()
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 1

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        await server.start()
        for name in names:
            print(f"loaded {name!r}", flush=True)
        print(f"serving on {server.host}:{server.port}", flush=True)
        serving = asyncio.ensure_future(server.serve_forever())
        waiting = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            {serving, waiting}, return_when=asyncio.FIRST_COMPLETED
        )
        serving.cancel()
        waiting.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        await server.shutdown()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # bind failure (port in use, bad host)
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """Offline compaction: replay a data dir, publish a fresh snapshot."""
    from .errors import ReproError
    from .server.persistence import PersistentStore
    from .server.registry import SketchRegistry

    try:
        store = PersistentStore(args.data_dir, compact_every=None)
        registry = SketchRegistry(rng=args.seed)
        info = store.recover(registry)
        entries = store.compact()
        store.close()
    except (ReproError, OSError) as exc:
        print(f"cannot compact {args.data_dir}: {exc}", file=sys.stderr)
        return 1
    print(
        f"compacted {args.data_dir}: {info.describe()} -> "
        f"snapshot of {entries} entries, empty WAL"
    )
    return 0


def _stream_batches(args: argparse.Namespace, stack) -> "object":
    """The micro-batch iterator for ``repro stream``'s source arguments."""
    from .streaming.pipeline import (
        DEFAULT_BATCH_ITEMS,
        batches_from_binary,
        batches_from_text,
    )

    batch_items = (
        DEFAULT_BATCH_ITEMS if args.max_batch_items is None else args.max_batch_items
    )
    if args.format == "u64":
        if args.source == "-":
            stream = sys.stdin.buffer
        else:
            stream = stack.enter_context(open(args.source, "rb"))
        return batches_from_binary(stream, batch_items, max_items=args.max_items)
    if args.source == "-":
        stream = sys.stdin
    else:
        stream = stack.enter_context(open(args.source, "r"))
    return batches_from_text(stream, batch_items, max_items=args.max_items)


def _stream_to_server(args: argparse.Namespace, spec, batches) -> int:
    """``repro stream --connect``: feed batches to a daemon via INGEST.

    An empty spec-built summary is LOADed first so the entry exists (a
    collision folds it in -- merging with an empty summary is the
    identity); each batch then rides one INGEST round trip, and the
    daemon's atomic swap makes every acknowledged batch a complete
    prefix-fold for concurrent queriers.
    """
    import time

    from .server import Client

    host, port = _parse_connect(args.connect)
    began = time.perf_counter()
    total = 0
    with Client(host, port, retry=_retry_policy(args, mutating=True)) as client:
        _, size, _ = client.load(args.name, spec.build().to_bytes())
        length = 0
        for batch in batches:
            length, size = client.ingest(args.name, batch)
            total += int(batch.size)
    elapsed = time.perf_counter() - began
    rate = total / elapsed if elapsed > 0 else float("inf")
    print(
        f"streamed {total} items to {args.connect} as {args.name!r}: "
        f"stream_length {length}, {size} bits resident "
        f"({rate:,.0f} items/sec)"
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Bounded-memory ingestion: source -> micro-batch pipeline -> sink."""
    import time
    from contextlib import ExitStack

    from .errors import ReproError
    from .streaming.pipeline import (
        DEFAULT_BATCH_ITEMS,
        DEFAULT_QUEUE_DEPTH,
        StreamPipeline,
        SummarySpec,
    )

    if (args.out is None) == (args.connect is None):
        print(
            "stream needs exactly one sink: --out FILE or --connect HOST:PORT",
            file=sys.stderr,
        )
        return 1
    try:
        spec = SummarySpec(
            kind=args.summary,
            universe=args.universe,
            k=args.k,
            width=args.width,
            depth=args.depth,
            size=args.size,
            seed=args.seed,
        )
        with ExitStack() as stack:
            batches = _stream_batches(args, stack)
            if args.connect:
                return _stream_to_server(args, spec, batches)
            queue_depth = (
                DEFAULT_QUEUE_DEPTH if args.queue_depth is None else args.queue_depth
            )
            batch_items = (
                DEFAULT_BATCH_ITEMS
                if args.max_batch_items is None
                else args.max_batch_items
            )
            pipeline = StreamPipeline(
                spec, batch_items=batch_items, queue_depth=queue_depth
            )
            began = time.perf_counter()
            summary = pipeline.run(batches)
            elapsed = time.perf_counter() - began
        frame_bytes = _write_frame_file(summary, args.out, compress=args.compress)
    except (ReproError, OSError) as exc:
        print(f"cannot stream {args.source}: {exc}", file=sys.stderr)
        return 1
    stats = pipeline.stats
    rate = stats.items / elapsed if elapsed > 0 else float("inf")
    print(
        f"wrote {args.out}: {type(summary).__name__} over {stats.items} items "
        f"in {stats.batches} batches, payload "
        f"{summary.size_in_bits()} bits, frame {frame_bytes} bytes, "
        f"{rate:,.0f} items/sec"
    )
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    """Upload one sketch file -- or a whole container fleet -- into a server."""
    import io

    from .errors import ProtocolError, ReproError
    from .server import Client
    from .wire import WIRE_V3, ContainerReader, peek_wire_version

    try:
        frame = Path(args.path).read_bytes()
        host, port = _parse_connect(args.connect)
        reader = None
        if peek_wire_version(frame) == WIRE_V3:
            reader = ContainerReader.open(io.BytesIO(frame))
            if len(reader) == 1 and reader.entries[0].name == "":
                # A single anonymous frame (an earlier build's v3 sketch
                # file): pushed like any other frame under the file stem.
                reader = None
        if reader is not None:
            if args.name is not None:
                raise ProtocolError(
                    "--name does not apply to a multi-shard container; "
                    "shard names come from its manifest"
                )
            with Client(
                host, port, retry=_retry_policy(args, mutating=True)
            ) as client:
                results = client.load_many(reader)
        else:
            name = args.name if args.name else Path(args.path).stem
            with Client(
                host, port, retry=_retry_policy(args, mutating=True)
            ) as client:
                results = [(name, *client.load(name, frame))]
    except (ReproError, OSError) as exc:
        print(f"cannot push {args.path}: {exc}", file=sys.stderr)
        return 1
    noun = "shard" if len(results) == 1 else "shards"
    print(f"pushed {args.path} to {args.connect}: {len(results)} {noun}")
    for name, codec, size_in_bits, merged in results:
        print(
            f"  {name!r}: {codec}, {size_in_bits} bits resident "
            f"({'merged into existing entry' if merged else 'new entry'})"
        )
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiments":
        return _cmd_experiments()
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "attack":
        return _cmd_attack(args)
    if args.command == "mine":
        return _cmd_mine(args)
    if args.command == "sketch":
        return _cmd_sketch(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "pack":
        return _cmd_pack(args)
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "push":
        return _cmd_push(args)
    if args.command == "compact":
        return _cmd_compact(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    return _dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
