"""Versioned wire format: sketches become real bit strings.

The paper models a sketch as a pair ``(S, Q)``: ``S`` maps a database to a
*bit string* and ``Q`` answers queries from that string alone.  This module
makes the split literal.  Every sketch and streaming summary serializes to a
framed payload via :func:`dump` / :func:`dump_to` and is reconstructed -- in
another process, on another machine -- via :func:`load` / :func:`load_from`,
answering queries bit-identically to the original object.  The payload
length *is* the size the lower bounds are compared against: for every
registered codec, ``obj.size_in_bits() == n_bits`` of the encoded payload,
exactly.

Each wire format has exactly one writer.  Single frames are written as
version 2 (:func:`dump`, :func:`dump_to`, :func:`encode_frame`): binary
varint headers and an optional zlib payload.  Multi-frame containers are
written as version 3 (:class:`ContainerWriter`, :func:`write_container`):
many named shards in one file behind a trailing manifest, so encoding
streams in one pass and decoding can seek straight to one shard without
touching the rest.  Version 1 frames and chunked version 2 frames are
*decode-only*: every frame an earlier build wrote still decodes
bit-identically (the golden fixtures pin this), but nothing writes those
layouts any more.

Version 1 layout (all multi-byte header fields big-endian)::

    magic      4 bytes   b"IFSK"
    version    u8        1
    codec      u8 + n    length-prefixed ASCII codec name
    has_params u8        1 if a SketchParams block follows
    params     32 bytes  n u64, d u32, k u32, epsilon f64, delta f64
    extras     u32 + n   length-prefixed canonical JSON (codec metadata)
    n_bits     u64       exact payload length in bits
    payload    bytes     ceil(n_bits / 8) bytes, zero padded
    crc32      u32       CRC-32 of every preceding byte

Version 2 layout (varint = canonical unsigned LEB128, svarint = zigzag
LEB128; fixed-width fields big-endian)::

    magic      4 bytes   b"IFSK"
    version    u8        2
    codec      u8 + n    length-prefixed ASCII codec name
    flags      u8        bit0 PARAMS, bit1 ZLIB, bit2 CHUNKED
    params     varint n, varint d, varint k, f64 epsilon, f64 delta
                         (present iff PARAMS)
    extras     varint field count, then per field (sorted by key):
                 key      u8 + n    length-prefixed ASCII field name
                 tag      u8        0 int, 1 float, 2 bool, 3 str
                 value    svarint / f64 / u8 / varint + UTF-8 bytes
    n_bits     varint    exact *uncompressed* payload length in bits
    payload    not CHUNKED: varint stored byte length, then the bytes
               CHUNKED:     repeated [u32 length, chunk bytes], ended by
                            a u32 zero sentinel (decode-only)
    crc32      u32       running CRC-32 of every preceding byte

When ZLIB is set the stored payload bytes are a zlib stream whose
decompressed length is ``ceil(n_bits / 8)``.  **The charged size never
changes**: ``n_bits`` is always the uncompressed bit count, so
``size_in_bits() == n_bits`` holds with and without compression --
compression is transport thrift, not accounting thrift, exactly as the
lower bounds require (they constrain the information content, and a
deflated frame carries the same information).

Version 3 layout -- the multi-frame container (varint as in v2; u32/u64
big-endian; crc32 fields cover every byte of their own section only)::

    container  := magic u8(3) meta codec_table u32(header crc32)
                  { u8(0x01) record }*  u8(0x00) manifest
                  u32(manifest crc32) footer
    meta       := the v2 extras encoding (varint field count, then
                  sorted key/tag/value fields) -- container-level
                  metadata, e.g. a snapshot's {"last_seq": seq}
    codec_table:= varint count, then per codec u8 + n length-prefixed
                  ASCII name; unique, non-empty -- the dictionary that
                  records reference by index instead of repeating names
    record     := varint codec_index, flags u8 (bit0 PARAMS, bit1 ZLIB,
                  bit3 DELTA; ZLIB and DELTA mutually exclusive, never
                  CHUNKED), params and extras as in v2, varint n_bits,
                  varint stored byte length, stored bytes,
                  u32(record crc32)
    manifest   := varint count, then per entry: u8 + n shard name
                  (unique when non-empty; "" = anonymous), varint
                  codec_index, varint offset (of the record's first
                  byte, after its 0x01 sentinel), varint record_bytes,
                  varint n_bits, u32 crc (duplicating the record's own
                  trailing crc32, so a seeking reader can verify a
                  fetched record against the manifest alone)
    footer     := u64 manifest offset, u32 crc32 of those 8 bytes,
                  b"KSFI" -- 16 fixed bytes, so a seeking reader finds
                  the manifest by reading the file tail

When DELTA is set the stored bytes are a sparse row encoding of the
packed payload: varint popcount followed by varint-encoded gaps between
consecutive set-bit positions (gap 0 is the first position, later gaps
exclude the predecessor itself).  The writer picks the smallest stored
representation per record -- raw packed bytes, delta, or zlib -- and the
charged ``n_bits`` stays the uncompressed bit count in every case, same
accounting rule as ZLIB.

The manifest trails the records so :class:`ContainerWriter` streams an
unbounded fleet in one pass, while :class:`ContainerReader` (seekable
streams) reads header + footer + manifest and then fetches exactly the
records asked for -- a single-shard load of a 64-shard container touches
O(header + manifest + that record) bytes.  :func:`iter_container_frames`
/ :func:`iter_container_objects` are the sequential one-pass siblings
(sockets, pipes) holding at most one undecoded frame, and
:func:`inspect_container` skims structure and CRCs without decoding any
payload.  A *single-frame container* -- what
:meth:`ContainerReader.extract` splices out of a fleet -- flows through
every frame-shaped channel (a sketch file, a socket LOAD body):
:func:`read_frame` / :func:`load` accept exactly that shape and refuse
multi-frame containers, which go through the container entry points.
The server's persistence snapshot is an ordinary v3 container whose
meta carries the journal watermark, so ``repro compact`` output is
directly ``repro push``-able.

The *payload* carries exactly the bits the sketch's size accounting
charges; the header carries only public parameters (shapes, universe
sizes, stream lengths, hash-family metadata) in the same spirit as
:mod:`repro.db.bitmatrix`'s convention that a matrix's shape is public
metadata, not payload.  Decoding is strict: bad magic, unknown codec or
version, truncated or oversized buffers, checksum mismatches, misdeclared
bit counts, and nonzero padding all raise
:class:`~repro.errors.WireFormatError`.  :func:`decode_frame`,
:func:`read_frame`, and :func:`load` dispatch by the version byte, so
every generation decodes through one entry point.

Decoding is stream-first: :func:`load_from` pulls the stored payload
(plain, zlib, or chunked) from the stream in bounded reads of at most
:data:`DEFAULT_CHUNK_BYTES` (``max_bytes`` caps the stored bytes read),
assembles the uncompressed payload bytes once (exactly the declared
``n_bits``, never more), and checks
the byte total and the running CRC before the codec decodes any field
from them through a packed :class:`~repro.db.serialize.BitReader`.
:func:`inspect_frame` reads the header (and checks the CRC by skimming)
without decoding the payload at all.

Codecs are registered per *sketcher name* (``release-db``, ``subsample``,
...) and dispatch by concrete summary type, so
:class:`~repro.core.hybrid.BestOfNaiveSketcher` -- whose output is always
one of the three naive sketch types -- round-trips through whichever codec
matches the sketch it actually built.  Every codec encodes into and
decodes from a single :class:`Header` builder (typed fields, written as
v2 binary fields and read back from those or from a v1 JSON block)
instead of hand-rolling extras dicts.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator, Mapping

import numpy as np

from .core.importance import PROBABILITY_BITS, ImportanceSampleSketch
from .core.release_answers import ReleaseAnswersSketch
from .core.release_db import ReleaseDbSketch
from .core.subsample import SubsampleSketch
from .db.database import BinaryDatabase
from .db.packed import PackedRows, pack_rows, popcount_words
from .db.serialize import (
    DEFAULT_CHUNK_BYTES,
    BitReader,
    BitWriter,
    decode_uvarints,
    encode_svarint,
    encode_uvarint,
    encode_uvarints,
    read_svarint,
    read_uvarint,
    uvarint_lengths,
)
from .errors import ReproError, SketchSizeError, WireFormatError
from .params import SketchParams
from .streaming.base import COUNT_BITS, StreamSummary, item_id_bits
from .streaming.count_min import CountMinSketch
from .streaming.itemset_stream import StreamingItemsetMiner
from .streaming.lossy_counting import LossyCounting
from .streaming.misra_gries import MisraGries
from .streaming.reservoir import ReservoirSample, RowReservoir
from .streaming.space_saving import SpaceSaving
from .streaming.sticky_sampling import StickySampling

__all__ = [
    "MAGIC",
    "WIRE_V1",
    "WIRE_V2",
    "WIRE_V3",
    "SUPPORTED_WIRE_VERSIONS",
    "DEFAULT_CHUNK_BYTES",
    "peek_wire_version",
    "Header",
    "Frame",
    "FrameInfo",
    "ManifestEntry",
    "ContainerInfo",
    "ContainerWriter",
    "ContainerReader",
    "write_container",
    "iter_container_frames",
    "iter_container_objects",
    "inspect_container",
    "SketchCodec",
    "register_codec",
    "codec_names",
    "codec_for",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "inspect_frame",
    "dump",
    "dump_to",
    "load",
    "load_from",
    "load_as",
    "payload_size_bits",
]

MAGIC = b"IFSK"
WIRE_V1 = 1
WIRE_V2 = 2
WIRE_V3 = 3
#: Every version this build decodes; it writes single frames as v2 and
#: containers as v3.
SUPPORTED_WIRE_VERSIONS = (WIRE_V1, WIRE_V2, WIRE_V3)

_PARAMS_STRUCT = struct.Struct(">QIIdd")

_FLAG_PARAMS = 0x01
_FLAG_ZLIB = 0x02
_FLAG_CHUNKED = 0x04
_FLAG_DELTA = 0x08
_KNOWN_FLAGS = _FLAG_PARAMS | _FLAG_ZLIB | _FLAG_CHUNKED
#: v3 records drop CHUNKED (stored length is always known) and add DELTA.
_KNOWN_FLAGS_V3 = _FLAG_PARAMS | _FLAG_ZLIB | _FLAG_DELTA

#: Container footer: manifest offset + its CRC + the reversed magic.
_CONTAINER_END = b"KSFI"
_FOOTER_BYTES = 16
_RECORD_SENTINEL = 0x01
_MANIFEST_SENTINEL = 0x00
#: Hard caps on decoded container sections (hostile-peer guards).
_MAX_CONTAINER_CODECS = 4096
_MAX_CONTAINER_ENTRIES = 1 << 20

_FIELD_INT = 0
_FIELD_FLOAT = 1
_FIELD_BOOL = 2
_FIELD_STR = 3

#: Hard cap on decoded header fields (codecs use at most six).
_MAX_HEADER_FIELDS = 1024


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireFormatError(message)


# ----------------------------------------------------------------------
# The shared header-builder.
# ----------------------------------------------------------------------
class Header:
    """The codecs' common header-builder and typed decode view.

    On encode a codec fills the builder -- :meth:`set_params` for the
    public :class:`SketchParams` block, :meth:`set` for typed metadata
    fields -- and the frame writer serializes it once as binary varint
    fields.  On decode the codec reads the same fields back through the
    typed getters (whether they came from v2/v3 binary fields or a v1
    JSON block), every failure surfacing as :class:`WireFormatError`.
    Field values are restricted to the scalar types both serializations
    carry losslessly: ``bool``, ``int``, ``float``, ``str``.
    """

    __slots__ = ("params", "_fields")

    def __init__(
        self,
        params: SketchParams | None = None,
        fields: Mapping[str, Any] | None = None,
    ) -> None:
        self.params = params
        self._fields: dict[str, Any] = {}
        if fields:
            for key, value in fields.items():
                self.set(key, value)

    @classmethod
    def _decoded(
        cls, params: SketchParams | None, fields: dict[str, Any]
    ) -> "Header":
        """A view over already-parsed fields (typed getters still gate use)."""
        header = cls(params)
        header._fields = fields
        return header

    def set_params(self, params: SketchParams | None) -> "Header":
        """Attach the public parameter block."""
        self.params = params
        return self

    def set(self, key: str, value: Any) -> "Header":
        """Add one typed metadata field (chainable)."""
        if not isinstance(key, str) or not 1 <= len(key) <= 255:
            raise WireFormatError(f"header field key {key!r} must be 1..255 chars")
        try:
            key.encode("ascii")
        except UnicodeEncodeError as exc:
            raise WireFormatError(f"header field key {key!r} is not ASCII") from exc
        if not isinstance(value, (bool, int, float, str)):
            raise WireFormatError(
                f"header field {key!r} has unsupported type {type(value).__name__}"
            )
        self._fields[key] = value
        return self

    @property
    def fields(self) -> dict[str, Any]:
        """The metadata fields as a plain dict (copy)."""
        return dict(self._fields)

    def _get(self, key: str) -> Any:
        value = self._fields.get(key)
        _require(value is not None, f"frame header is missing extra {key!r}")
        return value

    def get_int(self, key: str) -> int:
        """Typed field access; bools are not ints on the wire."""
        value = self._get(key)
        _require(
            isinstance(value, int) and not isinstance(value, bool),
            f"extra {key!r} must be int",
        )
        return value

    def get_float(self, key: str) -> float:
        value = self._get(key)
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"extra {key!r} must be a number",
        )
        return float(value)

    def get_bool(self, key: str) -> bool:
        value = self._get(key)
        _require(isinstance(value, bool), f"extra {key!r} must be bool")
        return value

    def get_str(self, key: str) -> str:
        value = self._get(key)
        _require(isinstance(value, str), f"extra {key!r} must be str")
        return value


class Frame:
    """A decoded wire frame: codec id, header, and the payload.

    Frames read from a stream (:func:`read_frame`) keep their payloads
    *lazy*: the bytes stay in the stream until :attr:`payload` (or
    :meth:`reader`) materializes them, and the byte total and trailing
    CRC are verified as the final chunk is consumed.  In-memory frames
    (:func:`decode_frame`) are always materialized and verified up front.
    """

    __slots__ = (
        "codec",
        "version",
        "header",
        "n_bits",
        "compressed",
        "chunked",
        "delta",
        "_payload",
        "_chunks",
    )

    def __init__(
        self,
        codec: str,
        header: Header,
        n_bits: int,
        *,
        version: int,
        payload: bytes | None = None,
        chunks: Iterator[bytes] | None = None,
        compressed: bool = False,
        chunked: bool = False,
        delta: bool = False,
    ) -> None:
        if (payload is None) == (chunks is None):
            raise WireFormatError("frame needs exactly one of payload or chunks")
        self.codec = codec
        self.version = version
        self.header = header
        self.n_bits = n_bits
        self.compressed = compressed
        self.chunked = chunked
        self.delta = delta
        self._payload = payload
        self._chunks = chunks

    @property
    def params(self) -> SketchParams | None:
        """The public parameter block (header passthrough)."""
        return self.header.params

    @property
    def extras(self) -> dict[str, Any]:
        """The header's metadata fields as a plain dict."""
        return self.header.fields

    def _claim_chunks(self) -> Iterator[bytes]:
        if self._chunks is None:
            raise WireFormatError("frame payload stream already consumed")
        chunks, self._chunks = self._chunks, None
        return chunks

    @property
    def payload(self) -> bytes:
        """The uncompressed payload bytes (materialized on first access)."""
        if self._payload is None:
            self._payload = b"".join(self._claim_chunks())
        return self._payload

    def reader(self) -> BitReader:
        """A strict bit reader over :attr:`payload`.

        A streamed frame reads its payload to the end first, so the byte
        total and the trailing CRC are checked before any field is
        decoded; the reader then validates length and padding.
        """
        return BitReader(self.payload, self.n_bits)


@dataclass(frozen=True)
class FrameInfo:
    """What :func:`inspect_frame` learns from a frame without decoding it."""

    codec: str
    version: int
    params: SketchParams | None
    extras: dict[str, Any]
    n_bits: int
    compressed: bool
    chunked: bool
    header_bytes: int
    stored_payload_bytes: int
    frame_bytes: int
    crc_ok: bool
    delta: bool = False


@dataclass(frozen=True)
class ManifestEntry:
    """One shard in a v3 container's trailing manifest.

    ``offset`` is the byte offset of the frame record's first byte
    (after its sentinel) from the start of the container; ``record_bytes``
    is the record's total length including its own CRC trailer, so a
    seekable reader fetches exactly ``[offset, offset + record_bytes)``
    to load this shard and nothing else.  ``crc`` duplicates the record's
    trailing CRC so corruption is detectable from the manifest alone.
    """

    name: str
    codec: str
    codec_index: int
    offset: int
    record_bytes: int
    n_bits: int
    crc: int


@dataclass(frozen=True)
class ContainerInfo:
    """What :func:`inspect_container` learns without decoding any payload."""

    version: int
    meta: dict[str, Any]
    codecs: tuple[str, ...]
    entries: tuple[ManifestEntry, ...]
    header_bytes: int
    manifest_offset: int
    container_bytes: int
    crc_ok: bool


# ----------------------------------------------------------------------
# Checksummed stream adapters.
# ----------------------------------------------------------------------
class _CrcWriter:
    """Counts and CRCs every body byte written to the underlying stream."""

    __slots__ = ("_stream", "crc", "count")

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        self.crc = 0
        self.count = 0

    def write(self, data: bytes) -> None:
        if data:
            self._stream.write(data)
            self.crc = zlib.crc32(data, self.crc) & 0xFFFFFFFF
            self.count += len(data)

    def write_raw(self, data: bytes) -> None:
        """Write without updating the running CRC (the trailer itself)."""
        self._stream.write(data)
        self.count += len(data)


class _CrcReader:
    """Exact reads with a running CRC; short reads are frame errors.

    ``max_bytes`` bounds the total bytes this reader will consume from
    the stream.  The budget is checked *before* each read, so a frame
    that declares an oversized section (a 4 GiB chunk, a giant header
    string) is rejected without ever attempting the allocation -- the
    guard a socket server needs against hostile peers.  Without a
    budget, each stream read still asks for at most
    :data:`DEFAULT_CHUNK_BYTES`, so such a frame fails as truncated once
    the stream runs dry instead of requesting the declared size at once.
    """

    __slots__ = ("_stream", "crc", "count", "_max_bytes")

    def __init__(self, stream: IO[bytes], max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise WireFormatError(f"max_bytes must be >= 1, got {max_bytes}")
        self._stream = stream
        self.crc = 0
        self.count = 0
        self._max_bytes = max_bytes

    def _read_exact(self, n: int) -> bytes:
        if n == 0:
            return b""
        if self._max_bytes is not None and self.count + n > self._max_bytes:
            raise WireFormatError(
                f"frame exceeds the {self._max_bytes}-byte limit "
                f"(needs >= {self.count + n} bytes)"
            )
        parts: list[bytes] = []
        got = 0
        while got < n:
            data = self._stream.read(min(n - got, DEFAULT_CHUNK_BYTES))
            if not data:
                raise WireFormatError(
                    f"truncated frame: wanted {n} bytes, got {got}"
                )
            parts.append(data)
            got += len(data)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read(self, n: int) -> bytes:
        data = self._read_exact(n)
        self.crc = zlib.crc32(data, self.crc) & 0xFFFFFFFF
        self.count += len(data)
        return data

    def read_raw(self, n: int) -> bytes:
        """Read without updating the running CRC (the trailer itself)."""
        data = self._read_exact(n)
        self.count += len(data)
        return data


def _read_uvarint(reader: _CrcReader) -> int:
    try:
        return read_uvarint(reader)
    except SketchSizeError as exc:
        raise WireFormatError(f"invalid varint in frame: {exc}") from exc


def _read_svarint(reader: _CrcReader) -> int:
    try:
        return read_svarint(reader)
    except SketchSizeError as exc:
        raise WireFormatError(f"invalid varint in frame: {exc}") from exc


def _validate_codec_name(codec: str) -> bytes:
    try:
        name = codec.encode("ascii")
    except UnicodeEncodeError:
        raise WireFormatError(f"codec name {codec!r} must be ASCII") from None
    if not 1 <= len(name) <= 255:
        raise WireFormatError(f"codec name {codec!r} must be 1..255 ASCII bytes")
    return name


# ----------------------------------------------------------------------
# Version 1: decode only (every committed v1 frame decodes forever).
# ----------------------------------------------------------------------
def _read_header_v1(reader: _CrcReader) -> tuple[str, Header, int]:
    """Parse a v1 frame through its ``n_bits`` field (magic/version done)."""
    name_len = reader.read(1)[0]
    try:
        codec = reader.read(name_len).decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireFormatError("codec name is not ASCII") from exc
    has_params = reader.read(1)[0]
    params: SketchParams | None = None
    if has_params == 1:
        n, d, k, epsilon, delta = _PARAMS_STRUCT.unpack(reader.read(_PARAMS_STRUCT.size))
        try:
            params = SketchParams(n=n, d=d, k=k, epsilon=epsilon, delta=delta)
        except Exception as exc:
            raise WireFormatError(f"invalid params block: {exc}") from exc
    elif has_params != 0:
        raise WireFormatError(f"params flag must be 0 or 1, got {has_params}")
    (extras_len,) = struct.unpack(">I", reader.read(4))
    blob = reader.read(extras_len)
    try:
        extras = json.loads(blob.decode()) if extras_len else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"invalid extras block: {exc}") from exc
    if not isinstance(extras, dict):
        raise WireFormatError("extras block must decode to an object")
    (n_bits,) = struct.unpack(">Q", reader.read(8))
    return codec, Header._decoded(params, extras), n_bits


def _read_frame_v1(reader: _CrcReader) -> Frame:
    codec, header, n_bits = _read_header_v1(reader)
    payload = reader.read((n_bits + 7) // 8)
    _check_trailing_crc(reader)
    return Frame(codec, header, n_bits, version=WIRE_V1, payload=payload)


# ----------------------------------------------------------------------
# Version 2: varint binary header, optional zlib; chunked is decode-only.
# ----------------------------------------------------------------------
def _inflate(
    chunks: Iterable[bytes], window: int = DEFAULT_CHUNK_BYTES
) -> Iterator[bytes]:
    """Windowed zlib decode: output windows are bounded even for bombs."""
    inflater = zlib.decompressobj()
    for chunk in chunks:
        data = chunk
        while data:
            try:
                out = inflater.decompress(data, window)
            except zlib.error as exc:
                raise WireFormatError(f"corrupt compressed payload: {exc}") from exc
            if out:
                yield out
            data = inflater.unconsumed_tail
    try:
        tail = inflater.flush()
    except zlib.error as exc:
        raise WireFormatError(f"corrupt compressed payload: {exc}") from exc
    if tail:
        yield tail
    if not inflater.eof:
        raise WireFormatError("compressed payload ended before its zlib stream")
    if inflater.unused_data:
        raise WireFormatError("compressed payload has data after its zlib stream")


def _iter_stored(
    reader: _CrcReader, stored_len: int, window: int = DEFAULT_CHUNK_BYTES
) -> Iterator[bytes]:
    remaining = stored_len
    while remaining:
        take = min(window, remaining)
        yield reader.read(take)
        remaining -= take


def _iter_chunked(reader: _CrcReader) -> Iterator[bytes]:
    while True:
        (length,) = struct.unpack(">I", reader.read(4))
        if length == 0:
            return
        yield reader.read(length)


def _check_trailing_crc(reader: _CrcReader) -> None:
    (expected,) = struct.unpack(">I", reader.read_raw(4))
    if reader.crc != expected:
        raise WireFormatError("checksum mismatch: frame corrupted in transit")


def _finalize_payload(
    chunks: Iterable[bytes], need_bytes: int, n_bits: int, reader: _CrcReader
) -> Iterator[bytes]:
    """Enforce the byte total, then verify the CRC once the payload ends."""
    total = 0
    for chunk in chunks:
        if not chunk:
            continue
        total += len(chunk)
        if total > need_bytes:
            raise WireFormatError(
                f"payload of >= {total} bytes disagrees with declared "
                f"{n_bits} bits ({need_bytes} bytes expected)"
            )
        yield chunk
    if total != need_bytes:
        raise WireFormatError(
            f"payload of {total} bytes disagrees with declared "
            f"{n_bits} bits ({need_bytes} bytes expected)"
        )
    _check_trailing_crc(reader)


def _write_params_block(writer: _CrcWriter, params: SketchParams) -> None:
    """The varint params block shared by v2 headers and v3 records."""
    writer.write(
        encode_uvarint(params.n) + encode_uvarint(params.d) + encode_uvarint(params.k)
    )
    writer.write(struct.pack(">dd", params.epsilon, params.delta))


def _write_fields(writer: _CrcWriter, fields: Mapping[str, Any]) -> None:
    """Sorted typed fields (count-prefixed): v2 extras, v3 extras and meta."""
    items = sorted(fields.items())
    writer.write(encode_uvarint(len(items)))
    for key, value in items:
        try:
            key_bytes = key.encode("ascii")
        except (UnicodeEncodeError, AttributeError):
            raise WireFormatError(f"header field key {key!r} is not ASCII") from None
        if not 1 <= len(key_bytes) <= 255:
            raise WireFormatError(f"header field key {key!r} must be 1..255 chars")
        writer.write(bytes([len(key_bytes)]))
        writer.write(key_bytes)
        if isinstance(value, bool):
            writer.write(bytes([_FIELD_BOOL, 1 if value else 0]))
        elif isinstance(value, int):
            writer.write(bytes([_FIELD_INT]) + encode_svarint(value))
        elif isinstance(value, float):
            writer.write(bytes([_FIELD_FLOAT]) + struct.pack(">d", value))
        elif isinstance(value, str):
            data = value.encode("utf-8")
            writer.write(bytes([_FIELD_STR]) + encode_uvarint(len(data)))
            writer.write(data)
        else:
            raise WireFormatError(
                f"header field {key!r} has unsupported type {type(value).__name__}"
            )


def _read_params_block(reader: _CrcReader) -> SketchParams:
    """Inverse of :func:`_write_params_block`."""
    n = _read_uvarint(reader)
    d = _read_uvarint(reader)
    k = _read_uvarint(reader)
    epsilon, delta = struct.unpack(">dd", reader.read(16))
    try:
        return SketchParams(n=n, d=d, k=k, epsilon=epsilon, delta=delta)
    except Exception as exc:
        raise WireFormatError(f"invalid params block: {exc}") from exc


def _read_fields(reader: _CrcReader) -> dict[str, Any]:
    """Inverse of :func:`_write_fields` (shared by v2 and v3)."""
    n_fields = _read_uvarint(reader)
    if n_fields > _MAX_HEADER_FIELDS:
        raise WireFormatError(f"frame declares {n_fields} header fields")
    fields: dict[str, Any] = {}
    for _ in range(n_fields):
        key_len = reader.read(1)[0]
        if key_len == 0:
            raise WireFormatError("empty header field key")
        try:
            key = reader.read(key_len).decode("ascii")
        except UnicodeDecodeError as exc:
            raise WireFormatError("header field key is not ASCII") from exc
        if key in fields:
            raise WireFormatError(f"duplicate header field {key!r}")
        tag = reader.read(1)[0]
        value: Any
        if tag == _FIELD_INT:
            value = _read_svarint(reader)
        elif tag == _FIELD_FLOAT:
            (value,) = struct.unpack(">d", reader.read(8))
        elif tag == _FIELD_BOOL:
            raw = reader.read(1)[0]
            if raw > 1:
                raise WireFormatError(f"bool field {key!r} has value {raw}")
            value = bool(raw)
        elif tag == _FIELD_STR:
            length = _read_uvarint(reader)
            try:
                value = reader.read(length).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"str field {key!r} is not UTF-8") from exc
        else:
            raise WireFormatError(f"unknown header field tag {tag}")
        fields[key] = value
    return fields


def _read_header_v2(
    reader: _CrcReader,
) -> tuple[str, Header, int, bool, bool]:
    """Parse a v2 frame through its ``n_bits`` field (magic/version done)."""
    name_len = reader.read(1)[0]
    try:
        codec = reader.read(name_len).decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireFormatError("codec name is not ASCII") from exc
    flags = reader.read(1)[0]
    if flags & ~_KNOWN_FLAGS:
        raise WireFormatError(f"unknown frame flags 0x{flags:02x}")
    params: SketchParams | None = None
    if flags & _FLAG_PARAMS:
        params = _read_params_block(reader)
    fields = _read_fields(reader)
    n_bits = _read_uvarint(reader)
    compressed = bool(flags & _FLAG_ZLIB)
    chunked = bool(flags & _FLAG_CHUNKED)
    return codec, Header._decoded(params, fields), n_bits, compressed, chunked


def _read_frame_v2(reader: _CrcReader) -> Frame:
    codec, header, n_bits, compressed, chunked = _read_header_v2(reader)
    if chunked:
        raw: Iterator[bytes] = _iter_chunked(reader)
    else:
        stored_len = _read_uvarint(reader)
        raw = _iter_stored(reader, stored_len)
    source = _inflate(raw) if compressed else raw
    chunks = _finalize_payload(source, (n_bits + 7) // 8, n_bits, reader)
    return Frame(
        codec,
        header,
        n_bits,
        version=WIRE_V2,
        chunks=chunks,
        compressed=compressed,
        chunked=chunked,
    )


# ----------------------------------------------------------------------
# Version 3: the multi-frame container (codec dictionary, delta payloads,
# trailing shard manifest for one-pass encode + seekable lazy decode).
# ----------------------------------------------------------------------
def _validate_shard_name(name: str) -> bytes:
    """Shard names are 0..255 ASCII bytes (empty = anonymous)."""
    if not isinstance(name, str):
        raise WireFormatError(f"shard name must be str, got {type(name).__name__}")
    try:
        raw = name.encode("ascii")
    except UnicodeEncodeError:
        raise WireFormatError(f"shard name {name!r} must be ASCII") from None
    if len(raw) > 255:
        raise WireFormatError(f"shard name {name!r} exceeds 255 bytes")
    return raw


def _delta_encode_payload(payload: bytes, n_bits: int) -> bytes | None:
    """Varint-delta encoding of the payload's set-bit positions.

    The stored form is ``varint(popcount)`` followed by one varint per
    set bit: the first is the absolute bit position, each later one the
    gap to the previous set bit minus one.  Returns ``None`` unless the
    encoding is *strictly* smaller than the packed payload -- the caller
    keeps the raw layout otherwise, so dense payloads never regress.
    Stored bytes only: the charged ``n_bits`` is untouched.
    """
    if not n_bits or not payload:
        return None
    words = np.frombuffer(payload + bytes(-len(payload) % 8), dtype=np.uint64)
    popcount = int(popcount_words(words).sum())
    # Every set bit costs at least one varint byte: a payload this dense
    # cannot win, so skip the unpack and the per-gap pricing.
    if len(encode_uvarint(popcount)) + popcount >= len(payload):
        return None
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:n_bits]
    positions = np.flatnonzero(bits).astype(np.uint64)
    gaps = positions.copy()
    if positions.size > 1:
        gaps[1:] = positions[1:] - positions[:-1] - np.uint64(1)
    head = encode_uvarint(int(positions.size))
    # Price the run before encoding: skip the encode when it cannot win.
    stored = len(head) + int(uvarint_lengths(gaps).sum()) if gaps.size else len(head)
    if stored >= len(payload):
        return None
    return head + encode_uvarints(gaps)


def _delta_decode_payload(data: bytes, n_bits: int) -> bytes:
    """Inverse of :func:`_delta_encode_payload`, strict on every input.

    Truncated or trailing varints, positions at or past ``n_bits``,
    non-increasing positions (which also catches any 64-bit wraparound:
    a single gap cannot wrap past its predecessor), and padded varint
    groups all raise :class:`WireFormatError`.
    """
    need_bytes = (n_bits + 7) // 8
    stream = io.BytesIO(data)
    try:
        count = read_uvarint(stream)
        gaps = decode_uvarints(stream.read(), count)
    except SketchSizeError as exc:
        raise WireFormatError(f"corrupt delta payload: {exc}") from exc
    if count > n_bits:
        raise WireFormatError(
            f"delta payload declares {count} set bits in {n_bits} bits"
        )
    bits = np.zeros(need_bytes * 8, dtype=np.uint8)
    if count:
        positions = np.cumsum(gaps, dtype=np.uint64) + np.arange(
            count, dtype=np.uint64
        )
        if (count > 1 and not (positions[1:] > positions[:-1]).all()) or int(
            positions[-1]
        ) >= n_bits:
            raise WireFormatError("delta payload positions exceed declared bits")
        bits[positions.astype(np.int64)] = 1
    return np.packbits(bits).tobytes()


def _encode_record_v3(
    codec_index: int,
    params: SketchParams | None,
    fields: Mapping[str, Any],
    payload: bytes,
    n_bits: int,
    *,
    compress: bool,
    delta: bool,
) -> tuple[bytes, int]:
    """One container frame record plus its CRC.

    The stored payload is the smallest of raw / delta / zlib among the
    enabled transforms (delta preferred on ties); ``n_bits`` -- the
    charged size -- is written verbatim regardless.
    """
    stored = payload
    flags = _FLAG_PARAMS if params is not None else 0
    if delta:
        candidate = _delta_encode_payload(payload, n_bits)
        if candidate is not None:
            stored = candidate
            flags |= _FLAG_DELTA
    if compress:
        candidate = zlib.compress(payload, 6)
        if len(candidate) < len(stored):
            stored = candidate
            flags = (flags & ~_FLAG_DELTA) | _FLAG_ZLIB
    out = io.BytesIO()
    writer = _CrcWriter(out)
    writer.write(encode_uvarint(codec_index))
    writer.write(bytes([flags]))
    if params is not None:
        _write_params_block(writer, params)
    _write_fields(writer, fields)
    writer.write(encode_uvarint(n_bits))
    writer.write(encode_uvarint(len(stored)))
    writer.write(stored)
    crc = writer.crc
    writer.write_raw(struct.pack(">I", crc))
    return out.getvalue(), crc


def _read_record_header_v3(
    reader: _CrcReader, codecs: tuple[str, ...]
) -> tuple[int, str, Header, int, int]:
    """Parse a record through its ``n_bits`` field; returns flags too."""
    codec_index = _read_uvarint(reader)
    if codec_index >= len(codecs):
        raise WireFormatError(
            f"record codec index {codec_index} outside the container's "
            f"{len(codecs)}-entry codec table"
        )
    flags = reader.read(1)[0]
    if flags & ~_KNOWN_FLAGS_V3:
        raise WireFormatError(f"unknown record flags 0x{flags:02x}")
    if flags & _FLAG_ZLIB and flags & _FLAG_DELTA:
        raise WireFormatError("record sets both ZLIB and DELTA")
    params: SketchParams | None = None
    if flags & _FLAG_PARAMS:
        params = _read_params_block(reader)
    fields = _read_fields(reader)
    n_bits = _read_uvarint(reader)
    header = Header._decoded(params, fields)
    return codec_index, codecs[codec_index], header, n_bits, flags


def _read_record_v3(reader: _CrcReader, codecs: tuple[str, ...]) -> Frame:
    """Decode one record; ``reader.crc`` must be zeroed at record start.

    Raw and zlib payloads come back *lazy* (chunk generator, CRC checked
    at the final chunk); delta payloads are decoded eagerly -- they are
    small by construction -- so the frame is already materialized.
    """
    _, codec, header, n_bits, flags = _read_record_header_v3(reader, codecs)
    stored_len = _read_uvarint(reader)
    need = (n_bits + 7) // 8
    if flags & _FLAG_DELTA:
        data = b"".join(_iter_stored(reader, stored_len))
        _check_trailing_crc(reader)
        payload = _delta_decode_payload(data, n_bits)
        return Frame(
            codec, header, n_bits, version=WIRE_V3, payload=payload, delta=True
        )
    raw: Iterator[bytes] = _iter_stored(reader, stored_len)
    source = _inflate(raw) if flags & _FLAG_ZLIB else raw
    chunks = _finalize_payload(source, need, n_bits, reader)
    return Frame(
        codec,
        header,
        n_bits,
        version=WIRE_V3,
        chunks=chunks,
        compressed=bool(flags & _FLAG_ZLIB),
    )


def _read_container_head(reader: _CrcReader) -> tuple[dict[str, Any], tuple[str, ...]]:
    """Parse meta fields + codec table; the reader sits past the version."""
    meta = _read_fields(reader)
    count = _read_uvarint(reader)
    if count > _MAX_CONTAINER_CODECS:
        raise WireFormatError(f"container declares {count} codecs")
    codecs: list[str] = []
    for _ in range(count):
        name_len = reader.read(1)[0]
        if name_len == 0:
            raise WireFormatError("empty codec name in container table")
        try:
            codecs.append(reader.read(name_len).decode("ascii"))
        except UnicodeDecodeError as exc:
            raise WireFormatError("codec name is not ASCII") from exc
    if len(set(codecs)) != len(codecs):
        raise WireFormatError("duplicate codec name in container table")
    _check_trailing_crc(reader)
    return meta, tuple(codecs)


def _read_manifest(
    reader: _CrcReader, codecs: tuple[str, ...]
) -> tuple[ManifestEntry, ...]:
    """Parse the manifest; ``reader.crc`` must be zeroed at its start."""
    count = _read_uvarint(reader)
    if count > _MAX_CONTAINER_ENTRIES:
        raise WireFormatError(f"container manifest declares {count} entries")
    entries: list[ManifestEntry] = []
    names: set[str] = set()
    last_end = 0
    for _ in range(count):
        name_len = reader.read(1)[0]
        try:
            name = reader.read(name_len).decode("ascii") if name_len else ""
        except UnicodeDecodeError as exc:
            raise WireFormatError("shard name is not ASCII") from exc
        codec_index = _read_uvarint(reader)
        if codec_index >= len(codecs):
            raise WireFormatError(
                f"manifest codec index {codec_index} outside the container's "
                f"{len(codecs)}-entry codec table"
            )
        offset = _read_uvarint(reader)
        record_bytes = _read_uvarint(reader)
        n_bits = _read_uvarint(reader)
        (crc,) = struct.unpack(">I", reader.read(4))
        if record_bytes < 7:
            raise WireFormatError(f"manifest record length {record_bytes} too small")
        if offset < last_end:
            raise WireFormatError("manifest offsets overlap or go backwards")
        last_end = offset + record_bytes
        if name:
            if name in names:
                raise WireFormatError(f"duplicate shard name {name!r} in manifest")
            names.add(name)
        entries.append(
            ManifestEntry(
                name=name,
                codec=codecs[codec_index],
                codec_index=codec_index,
                offset=offset,
                record_bytes=record_bytes,
                n_bits=n_bits,
                crc=crc,
            )
        )
    _check_trailing_crc(reader)
    return tuple(entries)


def _parse_footer(footer: bytes) -> int:
    """Validate the fixed 16-byte footer and return the manifest offset."""
    if len(footer) != _FOOTER_BYTES or footer[-4:] != _CONTAINER_END:
        raise WireFormatError("bad container footer: not a v3 container")
    (manifest_offset,) = struct.unpack(">Q", footer[:8])
    (crc,) = struct.unpack(">I", footer[8:12])
    if zlib.crc32(footer[:8]) & 0xFFFFFFFF != crc:
        raise WireFormatError("container footer checksum mismatch")
    return manifest_offset


class ContainerWriter:
    """Streaming one-pass v3 container encoder.

    The header (meta fields + codec table) goes out at construction,
    each :meth:`add` appends one frame record immediately, and
    :meth:`close` writes the trailing manifest + footer -- nothing is
    buffered beyond the entry list, so a fleet of shards streams through
    a file object in one pass.  ``codecs`` fixes the container's codec
    dictionary up front (default: every registered codec, so arbitrary
    mixes can be added incrementally).

    ``compress``/``delta`` choose the stored-payload transforms of every
    record.  Either way the *charged* ``n_bits`` written per record is
    exactly the codec's payload bit count -- transforms are transport
    thrift, never accounting thrift.
    """

    def __init__(
        self,
        stream: IO[bytes],
        *,
        meta: Mapping[str, Any] | None = None,
        codecs: tuple[str, ...] | None = None,
        compress: bool = False,
        delta: bool = True,
    ) -> None:
        table = tuple(codecs) if codecs is not None else codec_names()
        if not table:
            raise WireFormatError("container codec table cannot be empty")
        if len(table) > _MAX_CONTAINER_CODECS:
            raise WireFormatError(f"container codec table of {len(table)} entries")
        if len(set(table)) != len(table):
            raise WireFormatError("duplicate codec name in container table")
        self._codecs = table
        self._index = {name: i for i, name in enumerate(table)}
        self._compress = compress
        self._delta = delta
        self._meta = Header(fields=dict(meta) if meta else {}).fields
        self._stream = stream
        self._entries: list[ManifestEntry] = []
        self._names: set[str] = set()
        self._closed = False
        writer = _CrcWriter(stream)
        writer.write(MAGIC)
        writer.write(bytes([WIRE_V3]))
        _write_fields(writer, self._meta)
        writer.write(encode_uvarint(len(table)))
        for name in table:
            raw = _validate_codec_name(name)
            writer.write(bytes([len(raw)]))
            writer.write(raw)
        writer.write_raw(struct.pack(">I", writer.crc))
        self._count = writer.count

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closed:
            self.close()

    @property
    def entries(self) -> tuple[ManifestEntry, ...]:
        return tuple(self._entries)

    def _require_open(self) -> None:
        if self._closed:
            raise WireFormatError("container already closed")

    def _claim_name(self, name: str) -> None:
        if name:
            if name in self._names:
                raise WireFormatError(f"duplicate shard name {name!r} in container")
            self._names.add(name)

    def add(self, name: str, obj: Any) -> ManifestEntry:
        """Encode one summary as the next frame record."""
        self._require_open()
        _validate_shard_name(name)
        if len(self._entries) >= _MAX_CONTAINER_ENTRIES:
            raise WireFormatError(f"container exceeds {_MAX_CONTAINER_ENTRIES} frames")
        codec = codec_for(obj)
        index = self._index.get(codec.name)
        if index is None:
            raise WireFormatError(
                f"codec {codec.name!r} is not in this container's codec table"
            )
        header = Header()
        payload, n_bits = _encoded_payload(codec.encode(obj, header))
        if len(payload) != (n_bits + 7) // 8:
            raise WireFormatError(
                f"payload of {len(payload)} bytes disagrees with {n_bits} bits"
            )
        self._claim_name(name)
        record, crc = _encode_record_v3(
            index, header.params, header.fields, payload, n_bits,
            compress=self._compress, delta=self._delta,
        )
        return self._append_record(name, codec.name, index, record, n_bits, crc)

    def add_record(
        self, name: str, codec_name: str, record: bytes, n_bits: int, crc: int
    ) -> ManifestEntry:
        """Splice a verbatim frame record from another same-table container.

        No payload decode happens: the record bytes (including their CRC
        trailer) are validated and copied as-is, which is what lets
        lazy re-sharding -- :meth:`ContainerReader.extract`, the client's
        ``LOAD``-many chunking -- move shards without paying a codec
        round-trip.  The record's codec index must resolve to
        ``codec_name`` under *this* writer's table.
        """
        self._require_open()
        _validate_shard_name(name)
        if len(self._entries) >= _MAX_CONTAINER_ENTRIES:
            raise WireFormatError(f"container exceeds {_MAX_CONTAINER_ENTRIES} frames")
        if len(record) < 7:
            raise WireFormatError(f"record of {len(record)} bytes is too short")
        (trailer,) = struct.unpack(">I", record[-4:])
        if trailer != crc or zlib.crc32(record[:-4]) & 0xFFFFFFFF != crc:
            raise WireFormatError("record checksum mismatch: refusing to splice")
        try:
            index = read_uvarint(io.BytesIO(record))
        except SketchSizeError as exc:
            raise WireFormatError(f"invalid record codec index: {exc}") from exc
        if self._index.get(codec_name) != index:
            raise WireFormatError(
                f"record codec index {index} does not resolve to {codec_name!r} "
                "under this container's codec table"
            )
        self._claim_name(name)
        return self._append_record(name, codec_name, index, record, n_bits, crc)

    def _append_record(
        self, name: str, codec_name: str, index: int, record: bytes, n_bits: int, crc: int
    ) -> ManifestEntry:
        self._stream.write(bytes([_RECORD_SENTINEL]))
        self._stream.write(record)
        entry = ManifestEntry(
            name=name,
            codec=codec_name,
            codec_index=index,
            offset=self._count + 1,
            record_bytes=len(record),
            n_bits=n_bits,
            crc=crc,
        )
        self._count += 1 + len(record)
        self._entries.append(entry)
        return entry

    def close(self) -> tuple[ManifestEntry, ...]:
        """Write the manifest trailer + footer; returns the manifest."""
        self._require_open()
        self._closed = True
        self._stream.write(bytes([_MANIFEST_SENTINEL]))
        manifest_offset = self._count + 1
        writer = _CrcWriter(self._stream)
        writer.write(encode_uvarint(len(self._entries)))
        for entry in self._entries:
            raw = entry.name.encode("ascii")
            writer.write(bytes([len(raw)]))
            writer.write(raw)
            writer.write(encode_uvarint(entry.codec_index))
            writer.write(encode_uvarint(entry.offset))
            writer.write(encode_uvarint(entry.record_bytes))
            writer.write(encode_uvarint(entry.n_bits))
            writer.write(struct.pack(">I", entry.crc))
        writer.write_raw(struct.pack(">I", writer.crc))
        offset_bytes = struct.pack(">Q", manifest_offset)
        self._stream.write(offset_bytes)
        self._stream.write(struct.pack(">I", zlib.crc32(offset_bytes) & 0xFFFFFFFF))
        self._stream.write(_CONTAINER_END)
        return tuple(self._entries)


def write_container(
    stream: IO[bytes],
    items: Iterable[tuple[str, Any]],
    *,
    meta: Mapping[str, Any] | None = None,
    codecs: tuple[str, ...] | None = None,
    compress: bool = False,
    delta: bool = True,
) -> tuple[ManifestEntry, ...]:
    """Encode ``(name, summary)`` pairs as one v3 container; one pass."""
    writer = ContainerWriter(
        stream, meta=meta, codecs=codecs, compress=compress, delta=delta
    )
    for name, obj in items:
        writer.add(name, obj)
    return writer.close()


class ContainerReader:
    """Manifest-driven random access over a *seekable* v3 container.

    :meth:`open` reads the fixed footer, the trailing manifest, and the
    header (meta + codec table) -- O(header + manifest) bytes, no frame
    record touched.  Every per-shard accessor then seeks straight to the
    one record the manifest names: :meth:`frame` / :meth:`load` decode
    exactly that record, :meth:`record` fetches its verbatim bytes, and
    :meth:`extract` re-wraps it as a standalone single-frame container
    (same codec table, so the record bytes -- and their CRC -- are
    spliced untouched).  ``max_bytes`` bounds each section read (header,
    manifest, every record) separately: it is the same per-chunk budget
    the sketch server applies to socket frames.
    """

    def __init__(
        self,
        stream: IO[bytes],
        *,
        meta: dict[str, Any],
        codecs: tuple[str, ...],
        entries: tuple[ManifestEntry, ...],
        header_bytes: int,
        manifest_offset: int,
        container_bytes: int,
        max_bytes: int | None,
    ) -> None:
        self._stream = stream
        self._meta = meta
        self._codecs = codecs
        self._entries = entries
        self._by_name = {e.name: e for e in entries if e.name}
        self._header_bytes = header_bytes
        self._manifest_offset = manifest_offset
        self._container_bytes = container_bytes
        self._max_bytes = max_bytes

    @classmethod
    def open(cls, stream: IO[bytes], *, max_bytes: int | None = None) -> "ContainerReader":
        """Open a seekable stream positioned anywhere; raises on non-v3."""
        stream.seek(0, io.SEEK_END)
        size = stream.tell()
        if size < _FOOTER_BYTES + 15:
            raise WireFormatError(f"container of {size} bytes is truncated")
        stream.seek(size - _FOOTER_BYTES)
        footer = stream.read(_FOOTER_BYTES)
        manifest_offset = _parse_footer(footer)
        if not 10 <= manifest_offset <= size - _FOOTER_BYTES - 5:
            raise WireFormatError(
                f"container manifest offset {manifest_offset} out of range"
            )
        stream.seek(0)
        reader = _CrcReader(stream, max_bytes)
        magic = reader.read(len(MAGIC))
        if magic != MAGIC:
            raise WireFormatError(f"bad magic {magic!r}: not a sketch frame")
        version = reader.read(1)[0]
        if version != WIRE_V3:
            raise WireFormatError(
                f"wire version {version} is not a multi-frame container"
            )
        meta, codecs = _read_container_head(reader)
        header_bytes = reader.count
        stream.seek(manifest_offset - 1)
        sentinel = stream.read(1)
        if sentinel != bytes([_MANIFEST_SENTINEL]):
            raise WireFormatError("container manifest is not where the footer points")
        mreader = _CrcReader(stream, max_bytes)
        entries = _read_manifest(mreader, codecs)
        manifest_end = manifest_offset + mreader.count + 4
        if manifest_end != size - _FOOTER_BYTES + 4:
            raise WireFormatError("trailing garbage between manifest and footer")
        for entry in entries:
            if entry.offset <= header_bytes or entry.offset + entry.record_bytes > manifest_offset - 1:
                raise WireFormatError(
                    f"manifest entry {entry.name!r} points outside the frame region"
                )
        return cls(
            stream,
            meta=meta,
            codecs=codecs,
            entries=entries,
            header_bytes=header_bytes,
            manifest_offset=manifest_offset,
            container_bytes=size,
            max_bytes=max_bytes,
        )

    @property
    def meta(self) -> dict[str, Any]:
        return dict(self._meta)

    @property
    def codecs(self) -> tuple[str, ...]:
        return self._codecs

    @property
    def entries(self) -> tuple[ManifestEntry, ...]:
        return self._entries

    @property
    def header_bytes(self) -> int:
        return self._header_bytes

    @property
    def manifest_offset(self) -> int:
        return self._manifest_offset

    @property
    def container_bytes(self) -> int:
        return self._container_bytes

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def entry(self, name: str | ManifestEntry) -> ManifestEntry:
        if isinstance(name, ManifestEntry):
            return name
        entry = self._by_name.get(name)
        if entry is None:
            raise WireFormatError(f"container has no shard named {name!r}")
        return entry

    def _seek_record(self, entry: ManifestEntry) -> None:
        """Position the stream on the record, checking its sentinel byte."""
        self._stream.seek(entry.offset - 1)
        sentinel = self._stream.read(1)
        if sentinel != bytes([_RECORD_SENTINEL]):
            raise WireFormatError(
                f"manifest entry {entry.name!r} does not point at a record"
            )

    def record(self, name: str | ManifestEntry) -> bytes:
        """The shard's verbatim record bytes (CRC verified, not decoded)."""
        entry = self.entry(name)
        if self._max_bytes is not None and entry.record_bytes > self._max_bytes:
            raise WireFormatError(
                f"record of {entry.record_bytes} bytes exceeds the "
                f"{self._max_bytes}-byte limit"
            )
        self._seek_record(entry)
        data = self._stream.read(entry.record_bytes)
        if len(data) != entry.record_bytes:
            raise WireFormatError(
                f"truncated record: wanted {entry.record_bytes} bytes, got {len(data)}"
            )
        (trailer,) = struct.unpack(">I", data[-4:])
        if trailer != entry.crc or zlib.crc32(data[:-4]) & 0xFFFFFFFF != entry.crc:
            raise WireFormatError(
                f"checksum mismatch on shard {entry.name!r}: container corrupted"
            )
        return data

    def frame(self, name: str | ManifestEntry) -> Frame:
        """Seek to one record and decode it; O(that frame) bytes read."""
        entry = self.entry(name)
        self._seek_record(entry)
        budget = entry.record_bytes
        if self._max_bytes is not None:
            budget = min(budget, self._max_bytes)
        reader = _CrcReader(self._stream, budget)
        frame = _read_record_v3(reader, self._codecs)
        frame.payload  # noqa: B018 -- materialize: runs byte-total and CRC checks
        if (
            reader.count != entry.record_bytes
            or frame.n_bits != entry.n_bits
            or frame.codec != entry.codec
            or reader.crc != entry.crc
        ):
            raise WireFormatError(
                f"record for shard {entry.name!r} disagrees with its manifest entry"
            )
        return frame

    def load(self, name: str | ManifestEntry) -> Any:
        """Decode one shard to its summary object (manifest-driven seek)."""
        return _decode_frame_obj(self.frame(name))

    def extract(self, name: str | ManifestEntry) -> bytes:
        """A standalone single-frame container carrying this shard.

        The record bytes are spliced verbatim under the same codec table
        (indices -- and therefore the record CRC -- stay valid), so the
        result is ``repro push``-able without ever decoding the payload.
        """
        entry = self.entry(name)
        out = io.BytesIO()
        writer = ContainerWriter(out, codecs=self._codecs)
        writer.add_record(
            entry.name, entry.codec, self.record(entry), entry.n_bits, entry.crc
        )
        writer.close()
        return out.getvalue()

    def iter_frames(self) -> Iterator[tuple[str, Frame]]:
        """Decode records in manifest order, one materialized at a time."""
        for entry in self._entries:
            yield entry.name, self.frame(entry)

    def iter_objects(self) -> Iterator[tuple[str, Any]]:
        """Decode summaries in manifest order, one at a time."""
        for entry in self._entries:
            yield entry.name, self.load(entry)


def iter_container_frames(
    stream: IO[bytes], *, max_bytes: int | None = None
) -> Iterator[Frame]:
    """Sequential one-pass decode of a v3 container (sockets, pipes).

    Yields each frame in container order holding at most one undecoded
    frame: raw/zlib payloads are lazy chunk generators that pull from the
    stream as the consumer reads bits.  A frame the consumer skipped (or
    only partially materialized through :attr:`Frame.payload`) is drained
    before the next one is parsed; a frame whose chunk iterator was
    claimed but abandoned mid-payload raises, because the stream position
    is no longer recoverable.  After the last frame the trailing manifest
    and footer are read and verified against what was actually seen --
    per-record offsets, lengths, bit counts, and CRCs -- so a sequential
    consumer gets the same integrity guarantees as a seeking one.
    ``max_bytes`` bounds the *total* bytes consumed (the whole-container
    budget of an untrusted stream).
    """
    reader = _CrcReader(stream, max_bytes)
    magic = reader.read(len(MAGIC))
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}: not a sketch frame")
    version = reader.read(1)[0]
    if version != WIRE_V3:
        raise WireFormatError(f"wire version {version} is not a multi-frame container")
    _, codecs = _read_container_head(reader)
    observed: list[tuple[int, int, int, int, str]] = []
    while True:
        sentinel = reader.read_raw(1)[0]
        if sentinel == _MANIFEST_SENTINEL:
            break
        if sentinel != _RECORD_SENTINEL:
            raise WireFormatError(f"bad container sentinel 0x{sentinel:02x}")
        if len(observed) >= _MAX_CONTAINER_ENTRIES:
            raise WireFormatError(f"container exceeds {_MAX_CONTAINER_ENTRIES} frames")
        reader.crc = 0
        start = reader.count
        frame = _read_record_v3(reader, codecs)
        yield frame
        if frame._chunks is not None:
            for _ in frame._claim_chunks():
                pass
        record_bytes = reader.count - start
        if frame._payload is None and frame._chunks is None and record_bytes == 0:
            raise WireFormatError("container frame abandoned mid-payload")
        observed.append((start, record_bytes, frame.n_bits, reader.crc, frame.codec))
    manifest_offset = reader.count
    reader.crc = 0
    entries = _read_manifest(reader, codecs)
    if len(entries) != len(observed):
        raise WireFormatError(
            f"manifest lists {len(entries)} frames, stream held {len(observed)}"
        )
    for entry, (start, record_bytes, n_bits, crc, codec) in zip(entries, observed):
        if (
            entry.offset != start
            or entry.record_bytes != record_bytes
            or entry.n_bits != n_bits
            or entry.crc != crc
            or entry.codec != codec
        ):
            raise WireFormatError(
                f"manifest entry {entry.name!r} disagrees with the stream's frames"
            )
    footer = reader.read_raw(_FOOTER_BYTES)
    if _parse_footer(footer) != manifest_offset:
        raise WireFormatError("container footer does not point at its manifest")


def iter_container_objects(
    stream: IO[bytes], *, max_bytes: int | None = None
) -> Iterator[Any]:
    """Sequential decode of a v3 container into live summary objects.

    :func:`iter_container_frames` composed with each codec's decoder:
    yields one reconstructed sketch/summary per contained frame, in
    container order, holding at most one undecoded frame at a time.
    This is the bounded-memory fan-in path ``merge_payloads`` uses when
    a shard turns out to be a whole fleet container.
    """
    for frame in iter_container_frames(stream, max_bytes=max_bytes):
        # Decode before advancing: the codec pulls the frame's lazy
        # chunks off the stream, keeping one undecoded frame resident.
        yield _decode_frame_obj(frame)


def inspect_container(
    stream: IO[bytes], *, max_bytes: int | None = None
) -> ContainerInfo:
    """Skim a v3 container without decoding any payload.

    One sequential pass (works on unseekable streams): parses the header
    and every record's header, skims stored payload bytes, and checks
    every CRC -- per-record, manifest, and footer.  Checksum mismatches
    are *reported* via ``crc_ok=False`` (mirroring :func:`inspect_frame`)
    while structural disagreement between manifest and stream raises.
    """
    reader = _CrcReader(stream, max_bytes)
    magic = reader.read(len(MAGIC))
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}: not a sketch frame")
    version = reader.read(1)[0]
    if version != WIRE_V3:
        raise WireFormatError(f"wire version {version} is not a multi-frame container")
    meta, codecs = _read_container_head(reader)
    header_bytes = reader.count
    crc_ok = True
    observed: list[tuple[int, int, int, int]] = []
    while True:
        sentinel = reader.read_raw(1)[0]
        if sentinel == _MANIFEST_SENTINEL:
            break
        if sentinel != _RECORD_SENTINEL:
            raise WireFormatError(f"bad container sentinel 0x{sentinel:02x}")
        if len(observed) >= _MAX_CONTAINER_ENTRIES:
            raise WireFormatError(f"container exceeds {_MAX_CONTAINER_ENTRIES} frames")
        reader.crc = 0
        start = reader.count
        _read_record_header_v3(reader, codecs)
        n_bits_pos = reader.count
        del n_bits_pos
        stored_len = _read_uvarint(reader)
        for _ in _iter_stored(reader, stored_len):
            pass
        (expected,) = struct.unpack(">I", reader.read_raw(4))
        crc_ok &= reader.crc == expected
        observed.append((start, reader.count - start, expected, 0))
    manifest_offset = reader.count
    reader.crc = 0
    count = _read_uvarint(reader)
    if count > _MAX_CONTAINER_ENTRIES:
        raise WireFormatError(f"container manifest declares {count} entries")
    entries: list[ManifestEntry] = []
    for _ in range(count):
        name_len = reader.read(1)[0]
        try:
            name = reader.read(name_len).decode("ascii") if name_len else ""
        except UnicodeDecodeError as exc:
            raise WireFormatError("shard name is not ASCII") from exc
        codec_index = _read_uvarint(reader)
        if codec_index >= len(codecs):
            raise WireFormatError(
                f"manifest codec index {codec_index} outside the container's "
                f"{len(codecs)}-entry codec table"
            )
        offset = _read_uvarint(reader)
        record_bytes = _read_uvarint(reader)
        n_bits = _read_uvarint(reader)
        (crc,) = struct.unpack(">I", reader.read(4))
        entries.append(
            ManifestEntry(
                name=name,
                codec=codecs[codec_index],
                codec_index=codec_index,
                offset=offset,
                record_bytes=record_bytes,
                n_bits=n_bits,
                crc=crc,
            )
        )
    (expected,) = struct.unpack(">I", reader.read_raw(4))
    crc_ok &= reader.crc == expected
    if len(entries) != len(observed):
        raise WireFormatError(
            f"manifest lists {len(entries)} frames, stream held {len(observed)}"
        )
    for entry, (start, record_bytes, record_crc, _) in zip(entries, observed):
        if entry.offset != start or entry.record_bytes != record_bytes:
            raise WireFormatError(
                f"manifest entry {entry.name!r} disagrees with the stream's frames"
            )
        crc_ok &= entry.crc == record_crc
    footer = reader.read_raw(_FOOTER_BYTES)
    if _parse_footer(footer) != manifest_offset:
        raise WireFormatError("container footer does not point at its manifest")
    return ContainerInfo(
        version=WIRE_V3,
        meta=meta,
        codecs=codecs,
        entries=tuple(entries),
        header_bytes=header_bytes,
        manifest_offset=manifest_offset,
        container_bytes=reader.count,
        crc_ok=crc_ok,
    )


def peek_wire_version(data: bytes) -> int | None:
    """The wire version of a byte prefix, or ``None`` if not IFSK-framed."""
    if len(data) < 5 or data[: len(MAGIC)] != MAGIC:
        return None
    return data[len(MAGIC)]


def _read_frame_v3_single(reader: _CrcReader) -> Frame:
    """A v3 container holding exactly one frame, through ``read_frame``.

    Single-frame containers (:meth:`ContainerReader.extract` output) flow
    through every frame-shaped channel unchanged: a sketch file, a socket
    ``LOAD`` body, a WAL record.  Zero frames or more than one raise --
    multi-frame containers go through :class:`ContainerReader` or
    :func:`iter_container_frames`.
    """
    _, codecs = _read_container_head(reader)
    sentinel = reader.read_raw(1)[0]
    if sentinel == _MANIFEST_SENTINEL:
        raise WireFormatError("container holds no frames")
    if sentinel != _RECORD_SENTINEL:
        raise WireFormatError(f"bad container sentinel 0x{sentinel:02x}")
    reader.crc = 0
    start = reader.count
    frame = _read_record_v3(reader, codecs)
    frame.payload  # noqa: B018 -- materialize: runs byte-total and CRC checks
    record_bytes = reader.count - start
    record_crc = reader.crc
    sentinel = reader.read_raw(1)[0]
    if sentinel == _RECORD_SENTINEL:
        raise WireFormatError(
            "multi-frame container: use ContainerReader or iter_container_frames"
        )
    if sentinel != _MANIFEST_SENTINEL:
        raise WireFormatError(f"bad container sentinel 0x{sentinel:02x}")
    manifest_offset = reader.count
    reader.crc = 0
    entries = _read_manifest(reader, codecs)
    if len(entries) != 1:
        raise WireFormatError(
            f"manifest lists {len(entries)} frames, stream held 1"
        )
    entry = entries[0]
    if (
        entry.offset != start
        or entry.record_bytes != record_bytes
        or entry.n_bits != frame.n_bits
        or entry.crc != record_crc
    ):
        raise WireFormatError(
            f"manifest entry {entry.name!r} disagrees with the stream's frames"
        )
    footer = reader.read_raw(_FOOTER_BYTES)
    if _parse_footer(footer) != manifest_offset:
        raise WireFormatError("container footer does not point at its manifest")
    return frame


def _inspect_frame_v3_single(reader: _CrcReader) -> FrameInfo:
    """:func:`inspect_frame` for a single-frame v3 container.

    Mirrors the v1/v2 contract: the record's payload bytes are skimmed
    (never decoded) and its checksum is *reported* via ``crc_ok``, while
    structural breakage -- including a manifest that disagrees with the
    record actually present -- raises.
    """
    _, codecs = _read_container_head(reader)
    sentinel = reader.read_raw(1)[0]
    if sentinel == _MANIFEST_SENTINEL:
        raise WireFormatError("container holds no frames")
    if sentinel != _RECORD_SENTINEL:
        raise WireFormatError(f"bad container sentinel 0x{sentinel:02x}")
    reader.crc = 0
    start = reader.count
    _, codec, header, n_bits, flags = _read_record_header_v3(reader, codecs)
    header_bytes = reader.count
    stored = _read_uvarint(reader)
    for _ in _iter_stored(reader, stored):
        pass
    (expected,) = struct.unpack(">I", reader.read_raw(4))
    crc_ok = reader.crc == expected
    record_bytes = reader.count - start
    sentinel = reader.read_raw(1)[0]
    if sentinel == _RECORD_SENTINEL:
        raise WireFormatError(
            "multi-frame container: use inspect_container"
        )
    if sentinel != _MANIFEST_SENTINEL:
        raise WireFormatError(f"bad container sentinel 0x{sentinel:02x}")
    manifest_offset = reader.count
    reader.crc = 0
    entries = _read_manifest(reader, codecs)
    if len(entries) != 1:
        raise WireFormatError(f"manifest lists {len(entries)} frames, stream held 1")
    entry = entries[0]
    if (
        entry.offset != start
        or entry.record_bytes != record_bytes
        or entry.n_bits != n_bits
    ):
        raise WireFormatError(
            f"manifest entry {entry.name!r} disagrees with the stream's frames"
        )
    crc_ok = crc_ok and entry.crc == expected
    footer = reader.read_raw(_FOOTER_BYTES)
    if _parse_footer(footer) != manifest_offset:
        raise WireFormatError("container footer does not point at its manifest")
    return FrameInfo(
        codec=codec,
        version=WIRE_V3,
        params=header.params,
        extras=header.fields,
        n_bits=n_bits,
        compressed=bool(flags & _FLAG_ZLIB),
        chunked=False,
        header_bytes=header_bytes,
        stored_payload_bytes=stored,
        frame_bytes=reader.count,
        crc_ok=crc_ok,
        delta=bool(flags & _FLAG_DELTA),
    )


# ----------------------------------------------------------------------
# Frame encoding / decoding entry points (version dispatch).
# ----------------------------------------------------------------------
def encode_frame(
    codec: str,
    params: SketchParams | None,
    extras: Mapping[str, Any],
    payload: bytes,
    n_bits: int,
    *,
    compress: bool = False,
) -> bytes:
    """Assemble the v2 frame for one serialized summary.

    This is the only single-frame writer.  ``compress`` stores the
    payload as a zlib stream; the declared ``n_bits`` -- the charged
    size -- is unchanged.
    """
    name = _validate_codec_name(codec)
    if len(payload) != (n_bits + 7) // 8:
        raise WireFormatError(
            f"payload of {len(payload)} bytes disagrees with {n_bits} bits"
        )
    flags = (_FLAG_PARAMS if params is not None else 0) | (
        _FLAG_ZLIB if compress else 0
    )
    stored = zlib.compress(payload, 6) if compress else payload
    out = io.BytesIO()
    writer = _CrcWriter(out)
    writer.write(MAGIC)
    writer.write(bytes([WIRE_V2, len(name)]))
    writer.write(name)
    writer.write(bytes([flags]))
    if params is not None:
        _write_params_block(writer, params)
    _write_fields(writer, extras)
    writer.write(encode_uvarint(n_bits))
    writer.write(encode_uvarint(len(stored)))
    writer.write(stored)
    writer.write_raw(struct.pack(">I", writer.crc))
    return out.getvalue()


def read_frame(stream: IO[bytes], *, max_bytes: int | None = None) -> Frame:
    """Read exactly one frame from a binary stream, dispatching by version.

    v2 payloads stay lazy: the returned frame pulls chunks from the
    stream as its :meth:`Frame.reader` is consumed (or when
    :attr:`Frame.payload` is touched) and verifies the running CRC at the
    final chunk, so giant frames decode without materializing.  Exactly
    the frame's bytes are consumed from the stream on success.

    ``max_bytes`` caps the total bytes read for this frame (header,
    payload, and trailer together).  On an untrusted transport -- the
    sketch server's socket peers -- the cap turns a hostile frame that
    declares an enormous section into an immediate
    :class:`WireFormatError` *before* any oversized read or allocation
    is attempted; the budget also applies to the lazy chunk pulls.

    Raises
    ------
    WireFormatError
        On any malformed, truncated, corrupted, or unknown-format input,
        or when the frame would exceed ``max_bytes``.
    """
    reader = _CrcReader(stream, max_bytes)
    magic = reader.read(len(MAGIC))
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}: not a sketch frame")
    version = reader.read(1)[0]
    if version == WIRE_V1:
        return _read_frame_v1(reader)
    if version == WIRE_V2:
        return _read_frame_v2(reader)
    if version == WIRE_V3:
        return _read_frame_v3_single(reader)
    raise WireFormatError(
        f"unsupported wire version {version} (this build reads {SUPPORTED_WIRE_VERSIONS})"
    )


def decode_frame(buf: bytes) -> Frame:
    """Parse and validate an in-memory frame produced by :func:`encode_frame`.

    The returned frame is fully materialized and CRC-verified.

    Raises
    ------
    WireFormatError
        On any malformed, truncated, corrupted, or unknown-format input,
        including trailing bytes after the frame.
    """
    stream = io.BytesIO(buf)
    frame = read_frame(stream)
    frame.payload  # noqa: B018 -- materialize: runs the byte-total and CRC checks
    if stream.read(1):
        raise WireFormatError("trailing garbage after frame")
    return frame


def inspect_frame(stream: IO[bytes], *, max_bytes: int | None = None) -> FrameInfo:
    """Read a frame's header -- and skim its checksum -- without decoding.

    Parses codec, version, params, extras, flags, and ``n_bits`` from the
    header alone, then skims the stored payload bytes (no decompression,
    no codec dispatch) to verify the trailing CRC.  A structurally
    unparseable or truncated frame raises :class:`WireFormatError`; a
    parseable frame with a wrong checksum is *reported* via
    ``crc_ok=False`` so tooling can describe the corruption.
    ``max_bytes`` bounds total byte consumption as in :func:`read_frame`.
    """
    reader = _CrcReader(stream, max_bytes)
    magic = reader.read(len(MAGIC))
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}: not a sketch frame")
    version = reader.read(1)[0]
    compressed = chunked = False
    if version == WIRE_V1:
        codec, header, n_bits = _read_header_v1(reader)
        header_bytes = reader.count
        stored = (n_bits + 7) // 8
        for _ in _iter_stored(reader, stored):
            pass
    elif version == WIRE_V2:
        codec, header, n_bits, compressed, chunked = _read_header_v2(reader)
        header_bytes = reader.count
        if chunked:
            stored = 0
            for chunk in _iter_chunked(reader):
                stored += len(chunk)
        else:
            stored = _read_uvarint(reader)
            for _ in _iter_stored(reader, stored):
                pass
    elif version == WIRE_V3:
        return _inspect_frame_v3_single(reader)
    else:
        raise WireFormatError(
            f"unsupported wire version {version} "
            f"(this build reads {SUPPORTED_WIRE_VERSIONS})"
        )
    (expected,) = struct.unpack(">I", reader.read_raw(4))
    return FrameInfo(
        codec=codec,
        version=version,
        params=header.params,
        extras=header.fields,
        n_bits=n_bits,
        compressed=compressed,
        chunked=chunked,
        header_bytes=header_bytes,
        stored_payload_bytes=stored,
        frame_bytes=reader.count,
        crc_ok=reader.crc == expected,
    )


# ----------------------------------------------------------------------
# Codec registry.
# ----------------------------------------------------------------------
class SketchCodec(ABC):
    """One serializer: a sketcher name plus encode/decode for its summaries.

    Codecs never hand-roll extras dicts: :meth:`encode` fills the shared
    :class:`Header` builder with the summary's public metadata and
    returns only the payload, and :meth:`decode` reads the same fields
    back through the header's typed getters.  One header implementation
    therefore serves every frame generation (written as binary varint
    fields, read from those or from v1's JSON block) for all registered
    codecs.
    """

    #: Registry key; matches the producing sketcher's ``name`` where one exists.
    name: str = "abstract"
    #: Concrete summary class this codec round-trips.
    handles: type = object

    @abstractmethod
    def encode(self, obj: Any, header: Header) -> BitWriter | tuple[bytes, int]:
        """Fill ``header`` and serialize ``obj``'s payload.

        The payload is either a :class:`BitWriter` to be packed, or --
        for summaries that already hold their canonical packed payload --
        a ``(payload_bytes, n_bits)`` pair passed through verbatim.
        """

    @abstractmethod
    def decode(self, frame: Frame) -> Any:
        """Reconstruct a summary from a validated frame."""


_CODECS: dict[str, SketchCodec] = {}
_BY_TYPE: dict[type, SketchCodec] = {}


def register_codec(codec: SketchCodec) -> SketchCodec:
    """Add a codec to the registry (keyed by sketcher name and by type)."""
    if codec.name in _CODECS:
        raise WireFormatError(f"codec {codec.name!r} already registered")
    if codec.handles in _BY_TYPE:
        raise WireFormatError(f"type {codec.handles.__name__} already has a codec")
    _CODECS[codec.name] = codec
    _BY_TYPE[codec.handles] = codec
    return codec


def codec_names() -> tuple[str, ...]:
    """All registered codec names, sorted."""
    return tuple(sorted(_CODECS))


def codec_for(obj: Any) -> SketchCodec:
    """The codec handling ``obj``'s concrete type.

    Raises
    ------
    WireFormatError
        If no registered codec handles the type.
    """
    codec = _BY_TYPE.get(type(obj))
    if codec is None:
        raise WireFormatError(f"no codec registered for {type(obj).__name__}")
    return codec


def _encoded_payload(payload: BitWriter | tuple[bytes, int]) -> tuple[bytes, int]:
    if isinstance(payload, BitWriter):
        return payload.getvalue(), payload.n_bits
    return payload


def dump(obj: Any, *, compress: bool = False) -> bytes:
    """Serialize a sketch or streaming summary to its framed bit string.

    The frame is plain v2; ``compress`` stores a zlib payload while the
    charged ``n_bits`` stays the uncompressed count.
    """
    codec = codec_for(obj)
    header = Header()
    buf, n_bits = _encoded_payload(codec.encode(obj, header))
    return encode_frame(
        codec.name, header.params, header.fields, buf, n_bits, compress=compress
    )


def dump_to(obj: Any, stream: IO[bytes], *, compress: bool = False) -> int:
    """:func:`dump` into a binary stream; returns bytes written."""
    data = dump(obj, compress=compress)
    stream.write(data)
    return len(data)


def _decode_frame_obj(frame: Frame) -> Any:
    codec = _CODECS.get(frame.codec)
    if codec is None:
        raise WireFormatError(f"unknown codec {frame.codec!r}")
    try:
        return codec.decode(frame)
    except WireFormatError:
        raise
    except ReproError as exc:
        raise WireFormatError(
            f"codec {frame.codec!r} rejected the frame: {exc}"
        ) from exc


def load(buf: bytes) -> Any:
    """Reconstruct a sketch or streaming summary from :func:`dump` output.

    Dispatches by the frame's version byte, so v1, v2, and single-frame
    v3 input decode through the same entry point.  Every decode failure
    surfaces as :class:`WireFormatError`: codec decoders hand untrusted
    header fields to summary constructors, whose own validation errors
    (``StreamError``, ``ParameterError``, ...) are re-raised here as
    malformed-frame errors so callers can rely on one exception type for
    untrusted input.
    """
    return _decode_frame_obj(decode_frame(buf))


def load_from(stream: IO[bytes], *, max_bytes: int | None = None) -> Any:
    """:func:`load` from a binary stream (one frame consumed exactly).

    The stream is read in bounded windows; the payload is assembled
    once and its byte total and trailing CRC are verified before the
    codec decodes it.
    ``max_bytes`` bounds the frame's total byte consumption, as in
    :func:`read_frame` -- the knob untrusted-transport callers (the
    sketch server) use to reject oversized frames up front.
    """
    return _decode_frame_obj(read_frame(stream, max_bytes=max_bytes))


def load_as(expected: type, buf: bytes) -> Any:
    """:func:`load` plus a type check: the shared ``from_bytes`` body.

    Raises
    ------
    WireFormatError
        If the frame is malformed, corrupted, or decodes to something
        that is not an ``expected`` instance.
    """
    obj = load(buf)
    if not isinstance(obj, expected):
        raise WireFormatError(
            f"frame decodes to {type(obj).__name__}, not a {expected.__name__}"
        )
    return obj


def payload_size_bits(obj: Any) -> int:
    """Exact bit length of ``obj``'s serialized payload (the measured size).

    By the registry contract this equals ``obj.size_in_bits()``; the test
    suite asserts the identity for every codec, in frames and containers
    and with compression on and off (the stored byte count may shrink,
    the charged bit count never does).
    """
    codec = codec_for(obj)
    payload = codec.encode(obj, Header())
    return _encoded_payload(payload)[1]


# ----------------------------------------------------------------------
# Core sketch codecs (Definitions 6-8 and the Conclusion's extension).
# ----------------------------------------------------------------------
class _ReleaseDbCodec(SketchCodec):
    """RELEASE-DB: the payload is the packed database, ``n * d`` bits."""

    name = "release-db"
    handles = ReleaseDbSketch

    def encode(self, obj: ReleaseDbSketch, header: Header):
        db = obj.database
        header.set_params(obj.params).set("n", db.n).set("d", db.d)
        writer = BitWriter()
        writer.write_bits(db.rows.reshape(-1))
        return writer

    def decode(self, frame: Frame) -> ReleaseDbSketch:
        _require(frame.params is not None, "release-db frame needs params")
        n, d = frame.header.get_int("n"), frame.header.get_int("d")
        _require(n >= 1 and d >= 1, "release-db shape must be positive")
        _require(frame.n_bits == n * d, "release-db payload must be n*d bits")
        rows = frame.reader().read_bits(n * d).reshape(n, d)
        return ReleaseDbSketch(frame.params, BinaryDatabase(rows))


class _ReleaseAnswersCodec(SketchCodec):
    """RELEASE-ANSWERS: the payload is the stored answer table itself."""

    name = "release-answers"
    handles = ReleaseAnswersSketch

    def encode(self, obj: ReleaseAnswersSketch, header: Header):
        # The sketch already holds its canonical packed payload; pass it
        # through verbatim instead of an unpack/repack round trip.
        header.set_params(obj.params).set("indicator", obj.stores_indicator_bits)
        return (obj.payload, obj.size_in_bits())

    def decode(self, frame: Frame) -> ReleaseAnswersSketch:
        from .db.serialize import frequency_bits

        _require(frame.params is not None, "release-answers frame needs params")
        indicator = frame.header.get_bool("indicator")
        per_answer = 1 if indicator else frequency_bits(frame.params.epsilon)
        _require(
            frame.n_bits == frame.params.num_itemsets * per_answer,
            "release-answers payload must hold exactly C(d,k) answers",
        )
        # The sketch's own _decode builds the strict BitReader, which
        # enforces the length/padding invariants.
        return ReleaseAnswersSketch(frame.params, frame.payload, frame.n_bits, indicator)


class _SubsampleCodec(SketchCodec):
    """SUBSAMPLE: the payload is the packed sample, ``s * d`` bits."""

    name = "subsample"
    handles = SubsampleSketch

    def encode(self, obj: SubsampleSketch, header: Header):
        sample = obj.sample
        header.set_params(obj.params).set("s", sample.n).set("d", sample.d)
        writer = BitWriter()
        writer.write_bits(sample.rows.reshape(-1))
        return writer

    def decode(self, frame: Frame) -> SubsampleSketch:
        _require(frame.params is not None, "subsample frame needs params")
        s, d = frame.header.get_int("s"), frame.header.get_int("d")
        _require(s >= 1 and d >= 1, "subsample shape must be positive")
        _require(frame.n_bits == s * d, "subsample payload must be s*d bits")
        rows = frame.reader().read_bits(s * d).reshape(s, d)
        return SubsampleSketch(frame.params, BinaryDatabase(rows))


class _ImportanceCodec(SketchCodec):
    """Importance sampling: rows plus 32-bit sampling probabilities.

    The sketch itself quantizes probabilities to IEEE float32 at
    construction (that is what the 32-bit charge buys), so storing the raw
    bit patterns reproduces the Horvitz-Thompson answers exactly.
    """

    name = "importance-sample"
    handles = ImportanceSampleSketch

    def encode(self, obj: ImportanceSampleSketch, header: Header):
        rows, probs = obj.rows, obj.probabilities
        header.set_params(obj.params)
        header.set("s", int(rows.shape[0])).set("d", int(rows.shape[1]))
        header.set("n_source", obj.n_source_rows)
        writer = BitWriter()
        writer.write_bits(rows.reshape(-1))
        writer.write_uints(probs.view(np.uint32).astype(np.uint64), PROBABILITY_BITS)
        return writer

    def decode(self, frame: Frame) -> ImportanceSampleSketch:
        _require(frame.params is not None, "importance-sample frame needs params")
        s, d = frame.header.get_int("s"), frame.header.get_int("d")
        n_source = frame.header.get_int("n_source")
        _require(s >= 1 and d >= 1, "importance-sample shape must be positive")
        _require(
            frame.n_bits == s * (d + PROBABILITY_BITS),
            "importance-sample payload must be s*(d+32) bits",
        )
        reader = frame.reader()
        rows = reader.read_bits(s * d).reshape(s, d)
        codes = reader.read_uints(s, PROBABILITY_BITS)
        probs = codes.astype(np.uint32).view(np.float32)
        return ImportanceSampleSketch(frame.params, rows, probs, n_source)


# ----------------------------------------------------------------------
# Streaming summary codecs (the distributed-ingest shards).
# ----------------------------------------------------------------------
class _CountMinCodec(SketchCodec):
    """Count-Min: hash coefficients then the counter table, 64 bits each."""

    name = "count-min"
    handles = CountMinSketch

    def encode(self, obj: CountMinSketch, header: Header):
        header.set("universe", obj.universe).set("width", obj.width)
        header.set("depth", obj.depth).set("conservative", obj.conservative)
        header.set("stream_length", obj.stream_length)
        writer = BitWriter()
        writer.write_uints(obj._a.astype(np.uint64), COUNT_BITS)
        writer.write_uints(obj._b.astype(np.uint64), COUNT_BITS)
        writer.write_uints(obj._table.reshape(-1).astype(np.uint64), COUNT_BITS)
        return writer

    def decode(self, frame: Frame) -> CountMinSketch:
        universe = frame.header.get_int("universe")
        width, depth = frame.header.get_int("width"), frame.header.get_int("depth")
        conservative = frame.header.get_bool("conservative")
        _require(
            frame.n_bits == (depth * width + 2 * depth) * COUNT_BITS,
            "count-min payload length disagrees with width/depth",
        )
        reader = frame.reader()
        out = CountMinSketch(universe, width, depth, conservative=conservative, rng=0)
        out._a = reader.read_uints(depth, COUNT_BITS).astype(np.int64)
        out._b = reader.read_uints(depth, COUNT_BITS).astype(np.int64)
        out._table = (
            reader.read_uints(depth * width, COUNT_BITS).astype(np.int64).reshape(depth, width)
        )
        out.stream_length = frame.header.get_int("stream_length")
        return out


def _encode_slots(
    writer: BitWriter, slots: list[tuple[int, ...]], n_slots: int, widths: tuple[int, ...]
) -> None:
    """Write ``n_slots`` fixed-width records, padding with all-zero records.

    Tracked records are sorted by their first field (the item id) so the
    payload is canonical; zero padding keeps the serialized size equal to
    the summary's slot-capacity accounting.  Records are striped
    field-major (all first fields, then all second fields, ...) so each
    field is one vectorized ``write_uints`` call.
    """
    ordered = sorted(slots)
    for field_idx, width in enumerate(widths):
        column = [record[field_idx] for record in ordered]
        column += [0] * (n_slots - len(ordered))
        writer.write_uints(np.asarray(column, dtype=np.uint64), width)


def _decode_slots(
    reader: BitReader, n_slots: int, widths: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Inverse of :func:`_encode_slots`; drops all-zero padding records."""
    columns = [reader.read_uints(n_slots, width).astype(np.int64) for width in widths]
    records = list(zip(*(col.tolist() for col in columns)))
    return [record for record in records if any(record)]


class _MisraGriesCodec(SketchCodec):
    """Misra-Gries: ``k`` slots of (id, count); free slots zeroed."""

    name = "misra-gries"
    handles = MisraGries

    def encode(self, obj: MisraGries, header: Header):
        header.set("universe", obj.universe).set("k", obj.k)
        header.set("stream_length", obj.stream_length)
        writer = BitWriter()
        id_bits = item_id_bits(obj.universe)
        _encode_slots(
            writer, list(obj._counters.items()), obj.k, (id_bits, COUNT_BITS)
        )
        return writer

    def decode(self, frame: Frame) -> MisraGries:
        universe = frame.header.get_int("universe")
        k = frame.header.get_int("k")
        out = MisraGries(universe, k)
        id_bits = item_id_bits(universe)
        _require(
            frame.n_bits == k * (id_bits + COUNT_BITS),
            "misra-gries payload length disagrees with k",
        )
        records = _decode_slots(frame.reader(), k, (id_bits, COUNT_BITS))
        out._counters = {item: count for item, count in records if count > 0}
        out.stream_length = frame.header.get_int("stream_length")
        return out


class _SpaceSavingCodec(SketchCodec):
    """SpaceSaving: ``k`` slots of (id, count, error); free slots zeroed."""

    name = "space-saving"
    handles = SpaceSaving

    def encode(self, obj: SpaceSaving, header: Header):
        header.set("universe", obj.universe).set("k", obj.k)
        header.set("stream_length", obj.stream_length)
        writer = BitWriter()
        id_bits = item_id_bits(obj.universe)
        slots = [
            (item, count, obj._errors.get(item, 0))
            for item, count in obj._counts.items()
        ]
        _encode_slots(writer, slots, obj.k, (id_bits, COUNT_BITS, COUNT_BITS))
        return writer

    def decode(self, frame: Frame) -> SpaceSaving:
        universe = frame.header.get_int("universe")
        k = frame.header.get_int("k")
        out = SpaceSaving(universe, k)
        id_bits = item_id_bits(universe)
        _require(
            frame.n_bits == k * (id_bits + 2 * COUNT_BITS),
            "space-saving payload length disagrees with k",
        )
        records = _decode_slots(frame.reader(), k, (id_bits, COUNT_BITS, COUNT_BITS))
        out._counts = {item: count for item, count, _ in records if count > 0}
        out._errors = {item: err for item, count, err in records if count > 0}
        out.stream_length = frame.header.get_int("stream_length")
        return out


class _LossyCountingCodec(SketchCodec):
    """Lossy counting: one (id, count, delta) record per held entry."""

    name = "lossy-counting"
    handles = LossyCounting

    def encode(self, obj: LossyCounting, header: Header):
        header.set("universe", obj.universe).set("epsilon", obj.epsilon)
        header.set("stream_length", obj.stream_length)
        writer = BitWriter()
        id_bits = item_id_bits(obj.universe)
        slots = [(item, c, d) for item, (c, d) in obj._entries.items()]
        # The accounting charges at least one entry even when empty.
        _encode_slots(
            writer, slots, max(1, len(slots)), (id_bits, COUNT_BITS, COUNT_BITS)
        )
        return writer

    def decode(self, frame: Frame) -> LossyCounting:
        universe = frame.header.get_int("universe")
        epsilon = frame.header.get_float("epsilon")
        out = LossyCounting(universe, epsilon)
        id_bits = item_id_bits(universe)
        entry_bits = id_bits + 2 * COUNT_BITS
        _require(
            frame.n_bits >= entry_bits and frame.n_bits % entry_bits == 0,
            "lossy-counting payload must hold whole entries",
        )
        n_slots = frame.n_bits // entry_bits
        records = _decode_slots(frame.reader(), n_slots, (id_bits, COUNT_BITS, COUNT_BITS))
        out._entries = {item: (c, d) for item, c, d in records if c > 0}
        out.stream_length = frame.header.get_int("stream_length")
        return out


class _StickySamplingCodec(SketchCodec):
    """Sticky sampling: one (id, count) record per tracked entry.

    The sampling RNG state is not part of the summary's accounting; a
    deserialized summary answers queries bit-identically and can continue
    streaming, but its future sampling coin flips are fresh randomness.
    """

    name = "sticky-sampling"
    handles = StickySampling

    def encode(self, obj: StickySampling, header: Header):
        header.set("universe", obj.universe).set("epsilon", obj.epsilon)
        header.set("threshold", obj.threshold).set("delta", obj.delta)
        header.set("rate", obj.sampling_rate).set("stream_length", obj.stream_length)
        writer = BitWriter()
        id_bits = item_id_bits(obj.universe)
        slots = list(obj._counts.items())
        _encode_slots(writer, slots, max(1, len(slots)), (id_bits, COUNT_BITS))
        return writer

    def decode(self, frame: Frame) -> StickySampling:
        universe = frame.header.get_int("universe")
        out = StickySampling(
            universe,
            frame.header.get_float("epsilon"),
            frame.header.get_float("threshold"),
            frame.header.get_float("delta"),
        )
        id_bits = item_id_bits(universe)
        entry_bits = id_bits + COUNT_BITS
        _require(
            frame.n_bits >= entry_bits and frame.n_bits % entry_bits == 0,
            "sticky-sampling payload must hold whole entries",
        )
        n_slots = frame.n_bits // entry_bits
        records = _decode_slots(frame.reader(), n_slots, (id_bits, COUNT_BITS))
        out._counts = {item: count for item, count in records if count > 0}
        out._rate = frame.header.get_int("rate")
        out.stream_length = frame.header.get_int("stream_length")
        return out


class _ReservoirCodec(SketchCodec):
    """Item reservoir: ``size`` id slots plus the stream-length counter."""

    name = "reservoir"
    handles = ReservoirSample

    def encode(self, obj: ReservoirSample, header: Header):
        sample = obj.sample
        header.set("universe", obj.universe).set("size", obj.size)
        header.set("filled", len(sample))
        writer = BitWriter()
        id_bits = item_id_bits(obj.universe)
        ids = sample + [0] * (obj.size - len(sample))
        writer.write_uints(np.asarray(ids, dtype=np.uint64), id_bits)
        writer.write_uint(obj.stream_length, COUNT_BITS)
        return writer

    def decode(self, frame: Frame) -> ReservoirSample:
        universe = frame.header.get_int("universe")
        size = frame.header.get_int("size")
        filled = frame.header.get_int("filled")
        out = ReservoirSample(universe, size, rng=0)
        id_bits = item_id_bits(universe)
        _require(
            frame.n_bits == size * id_bits + COUNT_BITS,
            "reservoir payload length disagrees with size",
        )
        _require(0 <= filled <= size, "reservoir fill count out of range")
        reader = frame.reader()
        ids = reader.read_uints(size, id_bits).astype(int).tolist()
        out._reservoir = ids[:filled]
        out.stream_length = reader.read_uint(COUNT_BITS)
        return out


class _RowReservoirCodec(SketchCodec):
    """Row reservoir: ``size`` row slots of ``d`` bits each (the shard form).

    This is the distributed-SUBSAMPLE transport: sketch rows where the data
    lives, :func:`dump` the reservoir, ship it, :func:`load` and merge with
    :func:`repro.streaming.merge.merge_row_reservoirs`.
    """

    name = "row-reservoir"
    handles = RowReservoir

    def encode(self, obj: RowReservoir, header: Header):
        filled = len(obj._words)
        header.set("d", obj.d).set("size", obj.size).set("filled", filled)
        writer = BitWriter()
        if filled:
            words = np.array(obj._words, dtype=np.uint64)
            rows = PackedRows.from_words(words, obj.d).to_matrix()
            writer.write_bits(rows.reshape(-1))
        if obj.size > filled:
            writer.write_bits(np.zeros((obj.size - filled) * obj.d, dtype=bool))
        # rows_seen is summary state (the merge rule weights by it), so it
        # rides in the charged payload, not the header.
        writer.write_uint(obj.rows_seen, COUNT_BITS)
        return writer

    def decode(self, frame: Frame) -> RowReservoir:
        d, size = frame.header.get_int("d"), frame.header.get_int("size")
        filled = frame.header.get_int("filled")
        out = RowReservoir(d, size, rng=0)
        _require(
            frame.n_bits == size * d + COUNT_BITS,
            "row-reservoir payload must be size*d + 64 bits",
        )
        _require(0 <= filled <= size, "row-reservoir fill count out of range")
        reader = frame.reader()
        rows = reader.read_bits(size * d).reshape(size, d)
        if filled:
            out._words = list(pack_rows(rows[:filled]))
        out.rows_seen = reader.read_uint(COUNT_BITS)
        return out


class _ItemsetMinerCodec(SketchCodec):
    """Streaming itemset miner: (itemset, count, delta) per tracked entry.

    Each itemset is written as exactly ``max_size`` item fields of
    ``ceil(log2 d)`` bits (the accounting's id charge); shorter itemsets
    pad by repeating their last item, which is unambiguous because real
    itemsets are strictly increasing.
    """

    name = "itemset-miner"
    handles = StreamingItemsetMiner

    def encode(self, obj: StreamingItemsetMiner, header: Header):
        import math

        header.set("d", obj.d).set("epsilon", obj.epsilon)
        header.set("max_size", obj.max_size).set("max_row_items", obj.max_row_items)
        header.set("rows_seen", obj.rows_seen)
        writer = BitWriter()
        item_bits = max(1, math.ceil(math.log2(max(obj.d, 2))))
        entries = sorted(
            (itemset.items, count, delta)
            for itemset, (count, delta) in obj._entries.items()
        )
        slots = []
        for items, count, delta in entries:
            padded = list(items) + [items[-1]] * (obj.max_size - len(items))
            slots.append((*padded, count, delta))
        n_slots = max(1, len(slots))
        widths = (item_bits,) * obj.max_size + (COUNT_BITS, COUNT_BITS)
        _encode_slots(writer, slots, n_slots, widths)
        return writer

    def decode(self, frame: Frame) -> StreamingItemsetMiner:
        import math

        from .db.itemset import Itemset

        d = frame.header.get_int("d")
        max_size = frame.header.get_int("max_size")
        out = StreamingItemsetMiner(
            d,
            frame.header.get_float("epsilon"),
            max_size,
            max_row_items=frame.header.get_int("max_row_items"),
        )
        item_bits = max(1, math.ceil(math.log2(max(d, 2))))
        entry_bits = max_size * item_bits + 2 * COUNT_BITS
        _require(
            frame.n_bits >= entry_bits and frame.n_bits % entry_bits == 0,
            "itemset-miner payload must hold whole entries",
        )
        n_slots = frame.n_bits // entry_bits
        widths = (item_bits,) * max_size + (COUNT_BITS, COUNT_BITS)
        entries: dict[Any, tuple[int, int]] = {}
        for record in _decode_slots(frame.reader(), n_slots, widths):
            items, count, delta = record[:max_size], record[-2], record[-1]
            if count <= 0:
                continue
            kept = [items[0]]
            for item in items[1:]:
                if item <= kept[-1]:
                    break  # padding: repeats of the last real item
                kept.append(item)
            _require(kept[-1] < d, "itemset-miner entry has out-of-range item")
            entries[Itemset(kept)] = (count, delta)
        out._entries = entries
        out.rows_seen = frame.header.get_int("rows_seen")
        return out


for _codec in (
    _ReleaseDbCodec(),
    _ReleaseAnswersCodec(),
    _SubsampleCodec(),
    _ImportanceCodec(),
    _CountMinCodec(),
    _MisraGriesCodec(),
    _SpaceSavingCodec(),
    _LossyCountingCodec(),
    _StickySamplingCodec(),
    _ReservoirCodec(),
    _RowReservoirCodec(),
    _ItemsetMinerCodec(),
):
    register_codec(_codec)
