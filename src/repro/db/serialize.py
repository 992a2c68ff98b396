"""Bit-exact serialization for sketch payloads.

Lower bounds are statements about *bits*, so every sketch in this library
reports its size from a canonical serialized payload rather than from Python
object sizes.  :class:`BitWriter` / :class:`BitReader` provide a tiny,
dependency-free bit stream with the primitives the sketches need:

* raw bit arrays (database rows),
* fixed-width unsigned integers (row counts, indices), single or batched,
* quantized frequencies to precision ``epsilon`` -- the paper charges
  ``log(1/epsilon)`` bits per stored frequency (Definition 7's accounting),
  which is exactly what :meth:`BitWriter.write_quantized` uses.

Both ends are vectorized: the writer accumulates whole boolean chunks and
packs them with one :func:`numpy.packbits` pass at :meth:`BitWriter.getvalue`
time (no per-bit Python list), and batched integer fields go through a
single shift-and-mask broadcast per call (:meth:`BitWriter.write_uints` /
:meth:`BitReader.read_uints`).  The reader is *strict*: the payload's byte
length must match the declared bit count exactly and the zero padding in the
final byte must actually be zero, so a frame whose accounting lies about its
payload is rejected instead of silently accepted.

Decoding is also *stream-first* (the wire-format transport):
:meth:`BitReader.windowed` reads sequentially from an iterator of byte
chunks holding only one window of unpacked bits at a time, so a giant
payload read from a file is never materialized as one byte string.  The
writer packs once, in :meth:`BitWriter.getvalue`.

The module additionally provides the byte-level varint primitives the v2
frame header is built from: unsigned LEB128 (:func:`encode_uvarint` /
:func:`read_uvarint`) and zigzag-mapped signed LEB128
(:func:`encode_svarint` / :func:`read_svarint`).  Encodings are canonical
(no padded continuation groups) and decoding rejects non-canonical or
oversized inputs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from ..errors import SketchSizeError
from .bitmatrix import bits_to_int, int_to_bits

__all__ = [
    "BitWriter",
    "BitReader",
    "quantize_frequency",
    "dequantize_frequency",
    "frequency_bits",
    "encode_uvarint",
    "encode_uvarints",
    "encode_svarint",
    "read_uvarint",
    "read_svarint",
    "decode_uvarints",
    "zigzag_encode",
    "zigzag_decode",
]

#: Default window size (bytes) for streaming payload reads.
DEFAULT_CHUNK_BYTES = 1 << 16

#: LEB128 decode cap: 10 groups cover every 64-bit value with headroom.
_MAX_VARINT_BYTES = 10


# ----------------------------------------------------------------------
# Varint primitives (LEB128 + zigzag): the v2 frame header's integers.
# ----------------------------------------------------------------------
def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as canonical unsigned LEB128."""
    if value < 0:
        raise SketchSizeError(f"uvarint requires a non-negative value, got {value}")
    out = bytearray()
    while True:
        group = value & 0x7F
        value >>= 7
        out.append(group | (0x80 if value else 0))
        if not value:
            return bytes(out)


def zigzag_encode(value: int) -> int:
    """Map a signed integer to the unsigned zigzag code (0, -1, 1, -2, ...)."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(code: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    if code < 0:
        raise SketchSizeError(f"zigzag code must be non-negative, got {code}")
    return (code >> 1) ^ -(code & 1)


def encode_svarint(value: int) -> bytes:
    """Encode a signed integer as zigzag LEB128."""
    return encode_uvarint(zigzag_encode(value))


def read_uvarint(stream: IO[bytes]) -> int:
    """Read one canonical unsigned LEB128 value from a binary stream.

    Raises
    ------
    SketchSizeError
        On truncation, a value wider than :data:`_MAX_VARINT_BYTES`
        groups, or a non-canonical encoding (padded zero group).
    """
    value = 0
    for index in range(_MAX_VARINT_BYTES):
        data = stream.read(1)
        if len(data) != 1:
            raise SketchSizeError("truncated varint")
        group = data[0]
        value |= (group & 0x7F) << (7 * index)
        if not group & 0x80:
            if group == 0 and index > 0:
                raise SketchSizeError("non-canonical varint (padded zero group)")
            return value
    raise SketchSizeError(f"varint exceeds {_MAX_VARINT_BYTES} bytes")


def read_svarint(stream: IO[bytes]) -> int:
    """Read one zigzag LEB128 value from a binary stream."""
    return zigzag_decode(read_uvarint(stream))


def uvarint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value under canonical unsigned LEB128.

    Vectorized: lets callers price a varint run (the wire v3 delta
    payload) before paying for the encode.
    """
    vals = np.asarray(values, dtype=np.uint64).reshape(-1)
    lengths = np.ones(vals.size, dtype=np.int64)
    rest = vals >> np.uint64(7)
    while rest.any():
        lengths += rest != 0
        rest >>= np.uint64(7)
    return lengths


def encode_uvarints(values: np.ndarray) -> bytes:
    """Encode a batch of non-negative integers as back-to-back LEB128.

    Byte-identical to ``b"".join(encode_uvarint(v) for v in values)`` but
    vectorized: one pass per varint *byte position* (at most ten for
    64-bit values) instead of one per value.
    """
    vals = np.asarray(values, dtype=np.uint64).reshape(-1)
    if not vals.size:
        return b""
    lengths = uvarint_lengths(vals)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for group in range(int(lengths.max())):
        mask = lengths > group
        groups = (vals[mask] >> np.uint64(7 * group)) & np.uint64(0x7F)
        cont = ((lengths[mask] > group + 1).astype(np.uint8)) << 7
        out[starts[mask] + group] = groups.astype(np.uint8) | cont
    return out.tobytes()


def decode_uvarints(buf: bytes, count: int) -> np.ndarray:
    """Decode exactly ``count`` back-to-back canonical LEB128 values.

    The whole buffer must be consumed: trailing bytes, truncated values,
    oversized values, and non-canonical encodings (padded zero groups)
    all raise :class:`~repro.errors.SketchSizeError`.  Vectorized like
    :func:`encode_uvarints`.
    """
    if count < 0:
        raise SketchSizeError(f"cannot decode {count} varints")
    data = np.frombuffer(buf, dtype=np.uint8)
    terminals = np.flatnonzero((data & 0x80) == 0)
    if terminals.size != count:
        raise SketchSizeError(
            f"varint run holds {terminals.size} values, expected {count}"
        )
    if count == 0:
        if data.size:
            raise SketchSizeError("trailing bytes after varint run")
        return np.zeros(0, dtype=np.uint64)
    if int(terminals[-1]) != data.size - 1:
        raise SketchSizeError("trailing bytes after varint run")
    starts = np.concatenate(([0], terminals[:-1] + 1))
    lengths = terminals - starts + 1
    max_len = int(lengths.max())
    if max_len > _MAX_VARINT_BYTES:
        raise SketchSizeError(f"varint exceeds {_MAX_VARINT_BYTES} bytes")
    padded = (lengths > 1) & (data[terminals] == 0)
    if padded.any():
        raise SketchSizeError("non-canonical varint (padded zero group)")
    # A 10-group varint's final group may only carry bit 63 (value <= 1).
    if max_len == _MAX_VARINT_BYTES:
        overflow = (lengths == _MAX_VARINT_BYTES) & (data[terminals] > 1)
        if overflow.any():
            raise SketchSizeError("varint value exceeds 64 bits")
    values = np.zeros(count, dtype=np.uint64)
    for group in range(max_len):
        mask = lengths > group
        values[mask] |= (
            (data[starts[mask] + group] & 0x7F).astype(np.uint64)
            << np.uint64(7 * group)
        )
    return values


def frequency_bits(epsilon: float) -> int:
    """Bits needed to store a frequency in ``[0, 1]`` to precision ``epsilon``.

    The paper's RELEASE-ANSWERS accounting charges ``log(1/epsilon)`` bits
    per answer; we use ``ceil(log2(1/epsilon)) + 1`` so that the quantizer's
    grid ``{0, eps, 2 eps, ...}`` (at most ``1/eps + 1`` points) always fits.
    """
    if not 0.0 < epsilon < 1.0:
        raise SketchSizeError(f"epsilon must lie in (0, 1), got {epsilon}")
    return max(1, math.ceil(math.log2(1.0 / epsilon)) + 1)


def quantize_frequency(value: float, epsilon: float) -> int:
    """Quantize ``value`` in ``[0, 1]`` to the nearest multiple of ``epsilon``."""
    if not 0.0 <= value <= 1.0 + 1e-12:
        raise SketchSizeError(f"frequency must lie in [0, 1], got {value}")
    return int(round(min(value, 1.0) / epsilon))


def dequantize_frequency(code: int, epsilon: float) -> float:
    """Inverse of :func:`quantize_frequency` (clamped to ``[0, 1]``)."""
    return min(1.0, code * epsilon)


def _uints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """``(len(values) * width,)`` boolean array, MSB first per value.

    One broadcasted shift-and-mask for the whole batch; values must fit in
    ``width`` bits and ``width`` must be 1..64 (wider single values go
    through :func:`int_to_bits`, which is arbitrary precision).
    """
    if not 1 <= width <= 64:
        raise SketchSizeError(f"batched uints need 1 <= width <= 64, got {width}")
    vals = np.asarray(values, dtype=np.uint64)
    if vals.ndim != 1:
        raise SketchSizeError(f"expected a 1-D value array, got shape {vals.shape}")
    if width < 64 and vals.size and int(vals.max()) >> width:
        bad = int(vals.max())
        raise SketchSizeError(f"value {bad} does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((vals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool).reshape(-1)


def _bits_to_uints(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_uints_to_bits`: decode consecutive ``width``-bit fields."""
    if not 1 <= width <= 64:
        raise SketchSizeError(f"batched uints need 1 <= width <= 64, got {width}")
    arr = np.asarray(bits, dtype=bool)
    if arr.size % width:
        raise SketchSizeError(
            f"bit run of {arr.size} does not divide into {width}-bit fields"
        )
    fields = arr.reshape(-1, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (fields << shifts[None, :]).sum(axis=1, dtype=np.uint64)


class BitWriter:
    """Append-only bit stream backed by whole numpy chunks.

    Writes append boolean chunks to an internal list; nothing is visited
    per-bit in Python.  :meth:`getvalue` concatenates the chunks once and
    packs them with a single vectorized :func:`numpy.packbits` call
    (big-endian within each byte, zero padded to a byte boundary).
    """

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._n_bits = 0

    def write_bit(self, bit: bool | int) -> None:
        """Append a single bit."""
        self._chunks.append(np.array([bool(bit)]))
        self._n_bits += 1

    def write_bits(self, bits: np.ndarray) -> None:
        """Append a 1-D boolean array as one chunk.

        The chunk is copied, so callers may reuse or mutate scratch
        buffers after writing without corrupting the payload.
        """
        arr = np.array(bits, dtype=bool, copy=True).reshape(-1)
        self._chunks.append(arr)
        self._n_bits += arr.size

    def write_uint(self, value: int, width: int) -> None:
        """Append a ``width``-bit unsigned integer, MSB first."""
        self.write_bits(int_to_bits(value, width))

    def write_uints(self, values: Sequence[int] | np.ndarray, width: int) -> None:
        """Append many ``width``-bit unsigned integers in one vectorized pass."""
        self.write_bits(_uints_to_bits(np.asarray(values), width))

    def write_quantized(self, value: float, epsilon: float) -> None:
        """Append a frequency quantized to precision ``epsilon``."""
        self.write_uint(quantize_frequency(value, epsilon), frequency_bits(epsilon))

    def write_quantized_batch(
        self, values: Sequence[float] | np.ndarray, epsilon: float
    ) -> None:
        """Append many quantized frequencies in one vectorized pass.

        Codes match :func:`quantize_frequency` exactly (round-half-to-even,
        numpy's and Python's shared convention), so batch and per-value
        writes produce identical payloads.
        """
        vals = np.asarray(values, dtype=float)
        if vals.size and (vals.min() < 0.0 or vals.max() > 1.0 + 1e-12):
            bad = vals.min() if vals.min() < 0.0 else vals.max()
            raise SketchSizeError(f"frequency must lie in [0, 1], got {bad}")
        codes = np.rint(np.minimum(vals, 1.0) / epsilon).astype(np.uint64)
        self.write_uints(codes, frequency_bits(epsilon))

    def __len__(self) -> int:
        return self._n_bits

    @property
    def n_bits(self) -> int:
        """Number of bits written so far: the sketch's exact size."""
        return self._n_bits

    def getvalue(self) -> bytes:
        """Packed payload (zero padded to a byte boundary)."""
        if not self._n_bits:
            return b""
        if len(self._chunks) > 1:
            # Coalesce so repeated getvalue calls stay cheap.
            self._chunks = [np.concatenate(self._chunks)]
        return np.packbits(self._chunks[0].astype(np.uint8)).tobytes()


class BitReader:
    """Strict sequential reader over a payload produced by :class:`BitWriter`.

    The constructor validates the frame-level invariants the accounting
    rests on:

    * ``len(buf)`` must be exactly ``ceil(n_bits / 8)`` -- a payload that is
      too short cannot hold the declared bits, and one that is too long is
      smuggling uncounted bits past :meth:`size_in_bits` accounting;
    * the zero padding after bit ``n_bits`` in the final byte must actually
      be zero -- nonzero trailing bits mean the payload was corrupted or
      written by a different convention.
    """

    def __init__(self, buf: bytes, n_bits: int) -> None:
        if n_bits < 0:
            raise SketchSizeError(f"n_bits must be non-negative, got {n_bits}")
        need = (n_bits + 7) // 8
        if len(buf) != need:
            raise SketchSizeError(
                f"payload of {len(buf)} bytes disagrees with declared "
                f"{n_bits} bits ({need} bytes expected)"
            )
        raw = np.frombuffer(buf, dtype=np.uint8)
        bits = np.unpackbits(raw) if raw.size else np.zeros(0, dtype=np.uint8)
        if bits[n_bits:].any():
            raise SketchSizeError(
                f"nonzero padding bits after declared bit {n_bits}: "
                "payload corrupt or misdeclared"
            )
        self._bits = bits[:n_bits].astype(bool)
        self._pos = 0

    @classmethod
    def windowed(cls, chunks: Iterable[bytes], n_bits: int) -> "BitReader":
        """A reader over an *iterator of byte chunks* with bounded memory.

        The wire-format v2 decode path: payload windows arrive from a file
        (or a decompressor) one at a time, and only the bits of the
        currently buffered windows are held unpacked.  The same frame
        invariants as the eager constructor are enforced, just lazily:
        the chunks must together hold exactly ``ceil(n_bits / 8)`` bytes
        (a short source raises on read, an oversized one as soon as the
        excess chunk arrives), and the zero padding in the final byte must
        be zero.  Pulling the final window also exhausts the source, so a
        producer that frames its end (checksum trailers, chunk sentinels)
        gets its finalization code run before the last read returns.
        """
        return _WindowedBitReader(chunks, n_bits)

    def _take(self, count: int) -> np.ndarray:
        if count < 0:
            raise SketchSizeError(f"cannot read {count} bits")
        if self._pos + count > len(self._bits):
            raise SketchSizeError(
                f"bit stream exhausted: wanted {count} bits at offset {self._pos} "
                f"of {len(self._bits)}"
            )
        out = self._bits[self._pos : self._pos + count]
        self._pos += count
        return out

    def read_bit(self) -> bool:
        """Read a single bit."""
        return bool(self._take(1)[0])

    def read_bits(self, count: int) -> np.ndarray:
        """Read ``count`` bits as a boolean array."""
        return self._take(count)

    def read_uint(self, width: int) -> int:
        """Read a ``width``-bit unsigned integer, MSB first."""
        return bits_to_int(self._take(width))

    def read_uints(self, count: int, width: int) -> np.ndarray:
        """Read ``count`` consecutive ``width``-bit integers in one pass."""
        return _bits_to_uints(self._take(count * width), width)

    def read_quantized(self, epsilon: float) -> float:
        """Read a frequency quantized to precision ``epsilon``."""
        return dequantize_frequency(self.read_uint(frequency_bits(epsilon)), epsilon)

    def read_quantized_batch(self, count: int, epsilon: float) -> np.ndarray:
        """Read ``count`` quantized frequencies as one float vector."""
        codes = self.read_uints(count, frequency_bits(epsilon))
        return np.minimum(1.0, codes.astype(float) * epsilon)

    @property
    def remaining(self) -> int:
        """Bits left unread."""
        return len(self._bits) - self._pos


class _WindowedBitReader(BitReader):
    """Sequential reads over a chunk iterator, one window buffered at a time.

    Constructed via :meth:`BitReader.windowed`.  Shares every ``read_*``
    method with the eager reader through the single :meth:`_take`
    primitive; only buffering differs.
    """

    _SENTINEL = object()

    def __init__(self, chunks: Iterable[bytes], n_bits: int) -> None:
        if n_bits < 0:
            raise SketchSizeError(f"n_bits must be non-negative, got {n_bits}")
        self._total = n_bits
        self._need_bytes = (n_bits + 7) // 8
        self._source: Iterator[bytes] | None = iter(chunks)
        self._pending: deque[np.ndarray] = deque()
        self._buffered = 0
        self._consumed = 0
        self._bytes_seen = 0
        if self._need_bytes == 0:
            self._exhaust_source()

    def _exhaust_source(self) -> None:
        """The declared bytes are all in: the source must end here too."""
        extra = next(self._source, self._SENTINEL)  # type: ignore[arg-type]
        if extra is not self._SENTINEL:
            raise SketchSizeError(
                f"payload continues past the declared {self._total} bits"
            )
        self._source = None

    def _pull(self) -> None:
        if self._source is None:
            raise SketchSizeError(
                f"bit stream exhausted: wanted more bits at offset "
                f"{self._consumed} of {self._total}"
            )
        chunk = next(self._source, self._SENTINEL)
        if chunk is self._SENTINEL:
            raise SketchSizeError(
                f"payload of {self._bytes_seen} bytes disagrees with declared "
                f"{self._total} bits ({self._need_bytes} bytes expected)"
            )
        if not chunk:
            return
        self._bytes_seen += len(chunk)
        if self._bytes_seen > self._need_bytes:
            raise SketchSizeError(
                f"payload of >= {self._bytes_seen} bytes disagrees with "
                f"declared {self._total} bits ({self._need_bytes} bytes expected)"
            )
        bits = np.unpackbits(np.frombuffer(chunk, dtype=np.uint8))
        if self._bytes_seen == self._need_bytes:
            keep = self._total - (self._bytes_seen - len(chunk)) * 8
            if bits[keep:].any():
                raise SketchSizeError(
                    f"nonzero padding bits after declared bit {self._total}: "
                    "payload corrupt or misdeclared"
                )
            bits = bits[:keep]
            self._exhaust_source()
        self._pending.append(bits.astype(bool))
        self._buffered += bits.size

    def _take(self, count: int) -> np.ndarray:
        if count < 0:
            raise SketchSizeError(f"cannot read {count} bits")
        if self._consumed + count > self._total:
            raise SketchSizeError(
                f"bit stream exhausted: wanted {count} bits at offset "
                f"{self._consumed} of {self._total}"
            )
        while self._buffered < count:
            self._pull()
        parts: list[np.ndarray] = []
        need = count
        while need:
            head = self._pending[0]
            if head.size <= need:
                parts.append(self._pending.popleft())
                need -= head.size
            else:
                parts.append(head[:need])
                self._pending[0] = head[need:]
                need = 0
        self._consumed += count
        self._buffered -= count
        if not parts:
            return np.zeros(0, dtype=bool)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @property
    def buffered_bits(self) -> int:
        """Bits currently held unpacked (the window-memory bound under test)."""
        return self._buffered

    @property
    def remaining(self) -> int:
        """Bits left unread."""
        return self._total - self._consumed
