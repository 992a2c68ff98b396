"""Crash-safe durability for the sketch registry: WAL + snapshots.

A :class:`PersistentStore` turns a ``--data-dir`` directory into the
registry's durable twin.  Two files live there:

``wal.log``
    An append-only **write-ahead log**.  Each record wraps one mutating
    registry op (``LOAD`` / ``INGEST`` / ``DROP``) in the *existing*
    request encoding from :mod:`repro.server.protocol` -- a LOAD record
    carries a complete IFSK frame, the same codec path as file and
    socket -- prefixed by a monotone sequence number:

    .. code-block:: text

        wal       := "IFWL" u8(version=1) record*
        record    := u32_be(len(body)) u32_be(crc32(body)) body
        body      := uvarint(seq) request_body      # op in {LOAD, INGEST, DROP}

    Appends are flushed and ``fsync``'d before the server acknowledges
    the op, so every acknowledged mutation survives a crash.

    Replay is **rng-free**: wherever applying an op consumed randomness
    live (a collision LOAD's sampling merge, an INGEST into a summary
    without :attr:`~repro.streaming.base.StreamSummary.deterministic_updates`),
    the registry journals the resident *post-op frame* as a LOAD record,
    and recovery installs LOAD records with replace semantics
    (:meth:`~repro.server.registry.SketchRegistry.restore`) instead of
    re-merging.  Recovery is therefore bit-identical to the acknowledged
    fold at every prefix, with or without an intervening snapshot.

``snapshot.bin``
    Periodic **compaction** of the log: the full registry state as one
    standard wire-v3 multi-frame container (see :mod:`repro.wire`),
    whose meta block carries the sequence-number watermark as a
    ``last_seq`` field.  The snapshot *is* an ordinary container: the
    compactor's output is directly ``repro push``-able and
    ``repro inspect``-able, and recovery walks the trailing manifest and
    splices shards out one at a time (one record resident at once, no
    payload decode until :meth:`~repro.server.registry.SketchRegistry.
    restore` installs it).  A snapshot file that is not a container is
    refused.  Snapshots are written to a temp file, ``fsync``'d, and
    published with ``os.replace`` -- readers see the old snapshot or the
    new one, never a partial write.

Failure model
-------------
A crash during an append leaves a **torn tail**: the WAL ends mid-record.
Recovery tolerates exactly that -- the truncated tail is dropped (the op
was never acknowledged) and the file is truncated back to the last good
record before new appends.  Anything else -- bad magic, a CRC mismatch on
a fully-present record, a record after the torn point, out-of-order
sequence numbers -- means the log was corrupted *in place*, and recovery
raises :class:`~repro.errors.PersistenceError` rather than serve a
silently wrong registry.  Snapshots are atomically replaced, so a torn
snapshot is never legitimate: any truncation there is corruption.

The sequence watermark makes compaction itself crash-safe: recovery
replays only WAL records with ``seq > snapshot.last_seq``, so a crash
between publishing the snapshot and resetting the WAL never double-
applies an op, and :meth:`WriteAheadLog.reset` carries records newer
than the watermark into the fresh log so none is lost either.
"""

from __future__ import annotations

import io
import os
import struct
import threading
import zlib
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING

from ..db.serialize import encode_uvarint, read_uvarint
from ..errors import PersistenceError, ReproError
from ..wire import MAGIC as _CONTAINER_MAGIC
from ..wire import WIRE_V3, ContainerReader, ContainerWriter, ManifestEntry
from . import protocol
from .protocol import DEFAULT_MAX_FRAME_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .registry import SketchRegistry

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "PersistentStore",
    "RecoveryInfo",
    "TruncatedRecordError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "encode_record",
    "read_record",
    "read_snapshot",
    "write_snapshot",
]

WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.bin"

_WAL_MAGIC = b"IFWL"
_PERSIST_VERSION = 1

#: Auto-compact after this many ops have been appended since the last
#: snapshot (the server checks between requests; ``repro compact`` and
#: :meth:`PersistentStore.compact` work regardless).
DEFAULT_COMPACT_EVERY = 256

#: Headroom on top of ``max_frame_bytes`` for the op byte, sketch name,
#: sequence varint, and INGEST item-count varint.
_RECORD_SLACK = 4096

#: Ops that mutate the registry and therefore appear in the WAL.
MUTATING_OPS = frozenset({protocol.OP_LOAD, protocol.OP_INGEST, protocol.OP_DROP})

_U32 = struct.Struct(">I")
_RECORD_HEADER = struct.Struct(">II")  # length, crc32(body)


class TruncatedRecordError(PersistenceError):
    """A record ends mid-bytes at EOF -- the torn-tail signature.

    WAL recovery catches this and drops the tail; every other reader
    (snapshots, mid-file positions) lets it propagate as the
    :class:`~repro.errors.PersistenceError` it is.
    """


# ----------------------------------------------------------------------
# Record codec: u32_be(len) u32_be(crc32) body.
# ----------------------------------------------------------------------
def encode_record(body: bytes, *, max_bytes: int) -> bytes:
    """Frame one record body with its length and CRC-32."""
    if not 1 <= len(body) <= max_bytes:
        raise PersistenceError(
            f"record body of {len(body)} bytes outside [1, {max_bytes}]"
        )
    return _RECORD_HEADER.pack(len(body), zlib.crc32(body)) + body


def read_record(stream: IO[bytes], *, max_bytes: int) -> bytes | None:
    """Read one framed record body; ``None`` on clean EOF.

    Raises
    ------
    TruncatedRecordError
        If the stream ends partway through the header or body (a torn
        append).
    PersistenceError
        If the declared length is outside ``[1, max_bytes]`` or the CRC
        does not match -- in-place corruption, never a torn write.
    """
    header = stream.read(_RECORD_HEADER.size)
    if not header:
        return None
    if len(header) < _RECORD_HEADER.size:
        raise TruncatedRecordError(
            f"record header truncated to {len(header)} of {_RECORD_HEADER.size} bytes"
        )
    length, crc = _RECORD_HEADER.unpack(header)
    if not 1 <= length <= max_bytes:
        raise PersistenceError(
            f"record of {length} bytes outside [1, {max_bytes}]"
        )
    body = stream.read(length)
    if len(body) < length:
        raise TruncatedRecordError(
            f"record body truncated to {len(body)} of {length} bytes"
        )
    if zlib.crc32(body) != crc:
        raise PersistenceError(
            f"record CRC mismatch: stored {crc:#010x}, computed {zlib.crc32(body):#010x}"
        )
    return body


def _check_header(stream: IO[bytes], magic: bytes, what: str) -> None:
    header = stream.read(len(magic) + 1)
    if len(header) < len(magic) + 1:
        raise PersistenceError(f"{what} header truncated to {len(header)} bytes")
    if header[: len(magic)] != magic:
        raise PersistenceError(
            f"bad {what} magic {header[:len(magic)]!r}, expected {magic!r}"
        )
    version = header[len(magic)]
    if version != _PERSIST_VERSION:
        raise PersistenceError(
            f"unsupported {what} version {version}, expected {_PERSIST_VERSION}"
        )


def _fsync_dir(path: Path) -> None:
    # POSIX requires a directory fsync for the rename itself to be
    # durable; platforms that refuse to open directories just skip it.
    with suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _parse_wal_body(body: bytes, max_bytes: int) -> "WalRecord":
    stream = io.BytesIO(body)
    try:
        seq = read_uvarint(stream)
    except ReproError as exc:
        raise PersistenceError(f"invalid sequence varint in WAL record: {exc}") from exc
    request_body = stream.read()
    if not request_body:
        raise PersistenceError(f"WAL record seq {seq} carries no op body")
    op = request_body[0]
    if op not in MUTATING_OPS:
        raise PersistenceError(
            f"WAL record seq {seq} has non-mutating op {op}; "
            "only LOAD/INGEST/DROP belong in the log"
        )
    return WalRecord(seq=seq, request_body=request_body)


# ----------------------------------------------------------------------
# Write-ahead log.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalRecord:
    """One logged op: its sequence number and verbatim request body."""

    seq: int
    request_body: bytes


@dataclass(frozen=True)
class WalScan:
    """What a full WAL read found: the good records and where they end."""

    records: tuple[WalRecord, ...]
    good_offset: int
    torn_tail: bool
    exists: bool

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0


class WriteAheadLog:
    """Append-only op log with fsync-before-ack durability.

    ``scan`` reads and validates the whole file (tolerating only a torn
    final record); ``open_append`` truncates any torn tail and positions
    for appends; ``append`` frames, writes, flushes, and (by default)
    ``fsync``'s one op.  ``reset`` is compaction's half: it atomically
    replaces the log with a fresh one carrying only records newer than
    the snapshot watermark.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        max_record_bytes: int = DEFAULT_MAX_FRAME_BYTES + _RECORD_SLACK,
        sync: bool = True,
    ) -> None:
        self.path = Path(path)
        self.max_record_bytes = max_record_bytes
        self.sync = sync
        self.next_seq = 1
        self._file: IO[bytes] | None = None
        self._lock = threading.Lock()

    # -- reading -------------------------------------------------------
    def scan(self) -> WalScan:
        """Read every intact record, stopping only at a torn tail.

        Raises :class:`PersistenceError` on any mid-file corruption:
        bad magic/version, CRC mismatch, non-increasing sequence
        numbers, or bytes after a torn record.
        """
        if not self.path.exists():
            return WalScan(records=(), good_offset=0, torn_tail=False, exists=False)
        data = self.path.read_bytes()
        stream = io.BytesIO(data)
        _check_header(stream, _WAL_MAGIC, "WAL")
        records: list[WalRecord] = []
        offset = stream.tell()
        torn = False
        last_seq = 0
        while True:
            try:
                body = read_record(stream, max_bytes=self.max_record_bytes)
            except TruncatedRecordError:
                torn = True
                break
            if body is None:
                break
            record = _parse_wal_body(body, self.max_record_bytes)
            if record.seq <= last_seq:
                raise PersistenceError(
                    f"WAL sequence went backwards: {record.seq} after {last_seq}"
                )
            last_seq = record.seq
            records.append(record)
            offset = stream.tell()
        return WalScan(
            records=tuple(records),
            good_offset=offset,
            torn_tail=torn,
            exists=True,
        )

    # -- writing -------------------------------------------------------
    def open_append(self, scan: WalScan | None = None) -> WalScan:
        """Open (creating if needed) for appends; drop any torn tail."""
        with self._lock:
            if self._file is not None:
                raise PersistenceError(f"WAL {self.path} is already open")
            if scan is None:
                scan = self.scan()
            if not scan.exists:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "xb")
                self._file.write(_WAL_MAGIC + bytes([_PERSIST_VERSION]))
                self._sync_file()
            else:
                self._file = open(self.path, "r+b")
                if scan.torn_tail:
                    self._file.truncate(scan.good_offset)
                    self._sync_file()
                self._file.seek(scan.good_offset)
            self.next_seq = scan.last_seq + 1
            return scan

    def append(self, request_body: bytes) -> int:
        """Durably log one op body; returns its sequence number.

        The record hits disk (``flush`` + ``fsync`` when ``sync``) before
        this returns, so a caller that acknowledges afterwards never
        acknowledges an op the log might forget.
        """
        with self._lock:
            if self._file is None:
                raise PersistenceError(f"WAL {self.path} is not open for appends")
            seq = self.next_seq
            body = encode_uvarint(seq) + request_body
            self._file.write(encode_record(body, max_bytes=self.max_record_bytes))
            self._sync_file()
            self.next_seq = seq + 1
            return seq

    def reset(self, *, keep_after_seq: int) -> None:
        """Atomically replace the log, keeping records newer than a seq.

        Called after a snapshot covering ``keep_after_seq`` is published.
        Records appended concurrently with the snapshot (seq beyond the
        watermark) are carried into the fresh log, so compaction never
        loses an acknowledged op.
        """
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            survivors: list[WalRecord] = []
            if self.path.exists():
                survivors = [
                    r for r in self.scan().records if r.seq > keep_after_seq
                ]
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "wb") as fresh:
                fresh.write(_WAL_MAGIC + bytes([_PERSIST_VERSION]))
                for record in survivors:
                    body = encode_uvarint(record.seq) + record.request_body
                    fresh.write(encode_record(body, max_bytes=self.max_record_bytes))
                fresh.flush()
                if self.sync:
                    os.fsync(fresh.fileno())
            os.replace(tmp, self.path)
            _fsync_dir(self.path.parent)
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
            self.next_seq = max(self.next_seq, keep_after_seq + 1)

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def _sync_file(self) -> None:
        assert self._file is not None
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())


# ----------------------------------------------------------------------
# Snapshots.
# ----------------------------------------------------------------------
def write_snapshot(
    path: str | os.PathLike[str],
    entries: "list[tuple[str, object]]",
    *,
    last_seq: int,
    max_record_bytes: int = DEFAULT_MAX_FRAME_BYTES + _RECORD_SLACK,
    sync: bool = True,
) -> None:
    """Publish the registry state atomically as one wire-v3 container.

    ``entries`` is ``(name, summary_object)`` pairs (what
    :meth:`~repro.server.registry.SketchRegistry.dump_for_snapshot`
    hands out); each becomes one manifested frame record, and the
    journal watermark travels as the container's ``last_seq`` meta
    field.  Because the snapshot is an ordinary container, ``repro
    push`` accepts the compactor's output unchanged and recovery
    lazy-loads shards through the manifest.  The file is written to a
    sibling temp path, flushed, ``fsync``'d, and ``os.replace``'d into
    place.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as out:
            writer = ContainerWriter(out, meta={"last_seq": last_seq})
            for name, obj in entries:
                entry = writer.add(name, obj)
                if entry.record_bytes > max_record_bytes:
                    raise PersistenceError(
                        f"snapshot entry {name!r} of {entry.record_bytes} "
                        f"bytes exceeds the {max_record_bytes}-byte record cap"
                    )
            writer.close()
            out.flush()
            if sync:
                os.fsync(out.fileno())
    except PersistenceError:
        raise
    except ReproError as exc:
        raise PersistenceError(f"cannot encode snapshot: {exc}") from exc
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _open_snapshot(
    stream: IO[bytes], max_record_bytes: int
) -> tuple[ContainerReader, int]:
    """Open a snapshot container; returns its reader and ``last_seq``.

    Everything recovery relies on is checked before any shard is read:
    the file is a wire-v3 container, its meta carries the ``last_seq``
    watermark, and every shard is named.
    """
    if stream.read(len(_CONTAINER_MAGIC) + 1) != _CONTAINER_MAGIC + bytes([WIRE_V3]):
        raise PersistenceError(f"snapshot {stream.name} is not a wire-v3 container")
    try:
        reader = ContainerReader.open(stream, max_bytes=max_record_bytes)
    except ReproError as exc:
        raise PersistenceError(f"invalid container snapshot: {exc}") from exc
    last_seq = reader.meta.get("last_seq")
    if not isinstance(last_seq, int) or isinstance(last_seq, bool) or last_seq < 0:
        raise PersistenceError("container snapshot is missing its last_seq watermark")
    if any(not entry.name for entry in reader.entries):
        raise PersistenceError("container snapshot holds an anonymous shard")
    return reader, last_seq


def _extract(reader: ContainerReader, entry: ManifestEntry) -> bytes:
    try:
        return reader.extract(entry)
    except ReproError as exc:
        raise PersistenceError(f"invalid container snapshot: {exc}") from exc


def read_snapshot(
    path: str | os.PathLike[str],
    *,
    max_record_bytes: int = DEFAULT_MAX_FRAME_BYTES + _RECORD_SLACK,
) -> tuple[list[tuple[str, bytes]], int]:
    """Read a snapshot back as ``([(name, frame), ...], last_seq)``.

    Each manifested shard comes back as a standalone single-frame
    container (directly
    :meth:`~repro.server.registry.SketchRegistry.restore`-able, no
    payload decode here).  Snapshots are only ever published whole, so
    *every* defect -- including truncation, and a file that is not a
    container at all -- raises :class:`PersistenceError`.
    """
    with open(path, "rb") as stream:
        reader, last_seq = _open_snapshot(stream, max_record_bytes)
        entries = [(entry.name, _extract(reader, entry)) for entry in reader.entries]
    return entries, last_seq


# ----------------------------------------------------------------------
# The store: recovery + journaling + compaction, registry-facing.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryInfo:
    """What startup recovery found in a data dir."""

    snapshot_entries: int
    replayed_ops: int
    last_seq: int
    torn_tail: bool

    def describe(self) -> str:
        tail = ", torn tail dropped" if self.torn_tail else ""
        return (
            f"recovered {self.snapshot_entries} snapshot entries "
            f"+ {self.replayed_ops} WAL ops (seq {self.last_seq}{tail})"
        )


@dataclass
class PersistentStore:
    """A data directory bound to one :class:`SketchRegistry`.

    Lifecycle: construct, :meth:`recover` into a registry (which replays
    the snapshot + WAL and attaches this store as the registry's
    journal), serve.  From then on every successful ``LOAD`` / ``INGEST``
    / ``DROP`` is appended -- and fsync'd -- before the server sends its
    acknowledgement.  :meth:`maybe_compact` (called between requests)
    folds the log into a fresh snapshot every ``compact_every`` ops.
    """

    data_dir: Path
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    sync: bool = True
    compact_every: int | None = DEFAULT_COMPACT_EVERY
    _wal: WriteAheadLog = field(init=False)
    _registry: "SketchRegistry | None" = field(init=False, default=None)
    _ops_since_compact: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.data_dir = Path(self.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._wal = WriteAheadLog(
            self.data_dir / WAL_NAME,
            max_record_bytes=self.max_frame_bytes + _RECORD_SLACK,
            sync=self.sync,
        )

    @property
    def snapshot_path(self) -> Path:
        return self.data_dir / SNAPSHOT_NAME

    @property
    def wal_path(self) -> Path:
        return self._wal.path

    @property
    def last_seq(self) -> int:
        return self._wal.next_seq - 1

    @property
    def registry(self) -> "SketchRegistry | None":
        """The registry this store was recovered into, if any."""
        return self._registry

    # -- recovery ------------------------------------------------------
    def recover(self, registry: "SketchRegistry") -> RecoveryInfo:
        """Rebuild ``registry`` from disk and attach as its journal.

        Replays the snapshot (if any), then every WAL record past the
        snapshot's watermark, in order, with journaling detached (replay
        must not re-log itself).  Ends with the WAL open for appends and
        ``registry.journal`` pointing here.

        Raises
        ------
        PersistenceError
            On any corruption other than a torn final WAL record, or if
            a logged op no longer applies cleanly (the log and the state
            it describes have diverged).
        """
        if self._registry is not None:
            raise PersistenceError(f"store {self.data_dir} is already recovered")
        snapshot_count = 0
        snapshot_seq = 0
        if self.snapshot_path.exists():
            snapshot_count, snapshot_seq = self._recover_snapshot(registry)
        scan = self._wal.scan()
        replayed = 0
        for record in scan.records:
            if record.seq <= snapshot_seq:
                continue  # already folded into the snapshot
            try:
                request = protocol.parse_request(record.request_body)
            except ReproError as exc:
                raise PersistenceError(
                    f"invalid WAL op at seq {record.seq}: {exc}"
                ) from exc
            self._apply(registry, request, where=f"WAL seq {record.seq}")
            replayed += 1
        self._wal.open_append(scan)
        self._wal.next_seq = max(self._wal.next_seq, snapshot_seq + 1)
        self._registry = registry
        self._ops_since_compact = replayed
        registry.journal = self
        return RecoveryInfo(
            snapshot_entries=snapshot_count,
            replayed_ops=replayed,
            last_seq=max(scan.last_seq, snapshot_seq),
            torn_tail=scan.torn_tail,
        )

    def _recover_snapshot(self, registry: "SketchRegistry") -> tuple[int, int]:
        """Lazy manifest-driven replay of the snapshot container.

        Opens the container (O(header + manifest) bytes), then seeks to
        one record at a time: each shard is spliced out verbatim and
        installed via :meth:`~repro.server.registry.SketchRegistry.
        restore`, so at most one extracted record is resident on top of
        the decoding registry -- never the whole snapshot.
        """
        with open(self.snapshot_path, "rb") as stream:
            reader, last_seq = _open_snapshot(
                stream, self.max_frame_bytes + _RECORD_SLACK
            )
            for entry in reader.entries:
                frame = _extract(reader, entry)
                try:
                    registry.restore(entry.name, frame)
                except ReproError as exc:
                    raise PersistenceError(
                        f"cannot replay snapshot entry {entry.name!r}: {exc}"
                    ) from exc
        return len(reader.entries), last_seq

    @staticmethod
    def _apply(
        registry: "SketchRegistry", request: protocol.Request, *, where: str
    ) -> None:
        try:
            if request.op == protocol.OP_LOAD:
                # Replace, never merge: LOAD records carry the resident
                # post-op frame, so replay consumes no randomness.
                registry.restore(request.name, request.frame)
            elif request.op == protocol.OP_INGEST:
                registry.ingest(request.name, request.items)
            elif request.op == protocol.OP_DROP:
                registry.drop(request.name)
            else:  # pragma: no cover - scan/parse already reject these
                raise PersistenceError(f"non-mutating op {request.op} in {where}")
        except PersistenceError:
            raise
        except ReproError as exc:
            raise PersistenceError(f"cannot replay {where}: {exc}") from exc

    # -- journal hooks (called by the registry, post-apply) ------------
    def record_load(self, name: str, frame: bytes) -> int:
        return self._append(
            protocol.encode_request(protocol.OP_LOAD, name=name, frame=frame)
        )

    def record_ingest(self, name: str, items) -> int:
        return self._append(
            protocol.encode_request(protocol.OP_INGEST, name=name, items=items)
        )

    def record_drop(self, name: str) -> int:
        return self._append(
            protocol.encode_request(protocol.OP_DROP, name=name)
        )

    def _append(self, request_body: bytes) -> int:
        seq = self._wal.append(request_body)
        self._ops_since_compact += 1
        return seq

    # -- compaction ----------------------------------------------------
    def maybe_compact(self) -> bool:
        """Compact if ``compact_every`` ops accrued since the last one."""
        if self.compact_every is None:
            return False
        if self._ops_since_compact < self.compact_every:
            return False
        self.compact()
        return True

    def compact(self) -> int:
        """Fold the WAL into a fresh snapshot; returns entries written.

        The registry provides its entries *and* the journal watermark
        atomically (under its own lock), so the snapshot is an exact
        cut of the op sequence; :meth:`WriteAheadLog.reset` then keeps
        any record past that cut.
        """
        if self._registry is None:
            raise PersistenceError(
                f"store {self.data_dir} has no registry; call recover() first"
            )
        entries, last_seq = self._registry.dump_for_snapshot()
        write_snapshot(
            self.snapshot_path,
            entries,
            last_seq=last_seq,
            max_record_bytes=self.max_frame_bytes + _RECORD_SLACK,
            sync=self.sync,
        )
        self._wal.reset(keep_after_seq=last_seq)
        self._ops_since_compact = 0
        return len(entries)

    def close(self) -> None:
        """Detach from the registry and close the log."""
        if self._registry is not None and self._registry.journal is self:
            self._registry.journal = None
        self._registry = None
        self._wal.close()
