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

Both ends keep the payload *packed*: the writer appends to a
``bytearray`` and the reader walks the payload bytes with a bit position,
so no field is ever held as one bool per bit.  A field that starts on a
byte boundary and whose width is a multiple of 8 (Count-Min's table and
hash coefficients, counter columns, 64-bit stream lengths) moves in one
step -- ``astype(">u8")`` plus ``tobytes`` on write, one
:func:`numpy.frombuffer` view on read.  Any other field (item ids of
``item_id_bits(universe)`` bits, quantized answers, database rows,
single bits) packs or unpacks only the bytes it spans, merging into the
partial last byte; batched ones go through a single shift-and-mask
broadcast per call (:meth:`BitWriter.write_uints` /
:meth:`BitReader.read_uints`).  The reader is *strict*: the payload's
byte length must match the declared bit count exactly and the zero
padding in the final byte must actually be zero, so a frame whose
accounting lies about its payload is rejected instead of silently
accepted.

The module additionally provides the byte-level varint primitives the v2
frame header is built from: unsigned LEB128 (:func:`encode_uvarint` /
:func:`read_uvarint`) and zigzag-mapped signed LEB128
(:func:`encode_svarint` / :func:`read_svarint`).  Encodings are canonical
(no padded continuation groups) and decoding rejects non-canonical or
oversized inputs.
"""

from __future__ import annotations

import math
import operator
from typing import IO, Sequence

import numpy as np

from ..errors import SketchSizeError
from .bitmatrix import check_uint

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


def _check_width(width: int) -> None:
    if not 1 <= width <= 64:
        raise SketchSizeError(f"batched uints need 1 <= width <= 64, got {width}")


def _check_uints(values: Sequence[int] | np.ndarray, width: int) -> np.ndarray:
    """``values`` as a 1-D uint64 array whose entries fit in ``width`` bits."""
    _check_width(width)
    vals = np.asarray(values, dtype=np.uint64)
    if vals.ndim != 1:
        raise SketchSizeError(f"expected a 1-D value array, got shape {vals.shape}")
    if width < 64 and vals.size and int(vals.max()) >> width:
        bad = int(vals.max())
        raise SketchSizeError(f"value {bad} does not fit in {width} bits")
    return vals


def _uints_to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """``(len(values) * width,)`` boolean array, MSB first per value.

    One broadcasted shift-and-mask for the whole batch; values must fit in
    ``width`` bits and ``width`` must be 1..64 (wider single values go
    through :meth:`BitWriter.write_uint`, which is arbitrary precision).
    """
    vals = _check_uints(values, width)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return ((vals[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool).reshape(-1)


def _bits_to_uints(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_uints_to_bits`: decode consecutive ``width``-bit fields."""
    _check_width(width)
    arr = np.asarray(bits, dtype=bool)
    if arr.size % width:
        raise SketchSizeError(
            f"bit run of {arr.size} does not divide into {width}-bit fields"
        )
    fields = arr.reshape(-1, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (fields << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def _uints_to_bytes(vals: np.ndarray, width: int) -> bytes:
    """Big-endian ``width // 8``-byte fields; ``width`` is a multiple of 8."""
    words = vals.astype(">u8")
    if width == 64:
        return words.tobytes()
    return words.view(np.uint8).reshape(-1, 8)[:, 8 - width // 8 :].tobytes()


def _bytes_to_uints(buf: bytes, offset: int, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_uints_to_bytes`, read in place from ``buf[offset:]``."""
    if width == 64:
        return np.frombuffer(buf, dtype=">u8", count=count, offset=offset).astype(
            np.uint64
        )
    nbytes = width // 8
    words = np.zeros((count, 8), dtype=np.uint8)
    words[:, 8 - nbytes :] = np.frombuffer(
        buf, dtype=np.uint8, count=count * nbytes, offset=offset
    ).reshape(count, nbytes)
    return words.view(">u8").reshape(count).astype(np.uint64)


class BitWriter:
    """Append-only bit stream kept packed: a ``bytearray`` plus a bit count.

    Byte-aligned fields whose width is a multiple of 8 are appended as
    bytes in one step; any other field packs only the bytes it spans and
    merges into the partial last byte.  The bytes past :attr:`n_bits` in
    that last byte are always zero, so :meth:`getvalue` is a copy of the
    buffer (big-endian within each byte, zero padded to a byte boundary).
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._n_bits = 0

    def _append_bits(self, bits: np.ndarray) -> None:
        """Pack a 1-D boolean array onto the stream at the current offset."""
        if not bits.size:
            return
        offset = self._n_bits & 7
        if offset:
            packed = np.packbits(np.concatenate((np.zeros(offset, dtype=bool), bits)))
            packed[0] |= self._buf.pop()
        else:
            packed = np.packbits(bits)
        self._buf += packed.tobytes()
        self._n_bits += bits.size

    def write_bit(self, bit: bool | int) -> None:
        """Append a single bit."""
        self.write_uint(1 if bit else 0, 1)

    def write_bits(self, bits: np.ndarray) -> None:
        """Append a 1-D boolean array.

        The bits are packed on the spot, so callers may reuse or mutate
        scratch buffers after writing without corrupting the payload.
        """
        self._append_bits(np.asarray(bits, dtype=bool).reshape(-1))

    def write_uint(self, value: int, width: int) -> None:
        """Append a ``width``-bit unsigned integer, MSB first (any width)."""
        value = operator.index(value)
        check_uint(value, width)
        offset = self._n_bits & 7
        if offset:
            value |= (self._buf.pop() >> (8 - offset)) << width
        total = offset + width
        pad = -total & 7
        self._buf += (value << pad).to_bytes((total + pad) >> 3, "big")
        self._n_bits += width

    def write_uints(self, values: Sequence[int] | np.ndarray, width: int) -> None:
        """Append many ``width``-bit unsigned integers in one vectorized pass."""
        if width & 7 or self._n_bits & 7:
            self._append_bits(_uints_to_bits(values, width))
        else:
            vals = _check_uints(values, width)
            self._buf += _uints_to_bytes(vals, width)
            self._n_bits += vals.size * width

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
        return bytes(self._buf)


class BitReader:
    """Strict sequential reader over a payload produced by :class:`BitWriter`.

    The payload stays packed: the reader holds its bytes and a bit
    position.  Byte-aligned fields whose width is a multiple of 8 are
    read with one :func:`numpy.frombuffer` view; any other field unpacks
    only the bytes it spans.  The constructor validates the frame-level
    invariants the accounting rests on:

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
        data = bytes(buf)
        need = (n_bits + 7) // 8
        if len(data) != need:
            raise SketchSizeError(
                f"payload of {len(data)} bytes disagrees with declared "
                f"{n_bits} bits ({need} bytes expected)"
            )
        if n_bits & 7 and data[-1] & (0xFF >> (n_bits & 7)):
            raise SketchSizeError(
                f"nonzero padding bits after declared bit {n_bits}: "
                "payload corrupt or misdeclared"
            )
        self._buf = data
        self._n_bits = n_bits
        self._pos = 0

    def _advance(self, count: int) -> int:
        """Claim the next ``count`` bits; returns their starting offset."""
        if count < 0:
            raise SketchSizeError(f"cannot read {count} bits")
        start = self._pos
        if start + count > self._n_bits:
            raise SketchSizeError(
                f"bit stream exhausted: wanted {count} bits at offset {start} "
                f"of {self._n_bits}"
            )
        self._pos = start + count
        return start

    def _unpack(self, start: int, count: int) -> np.ndarray:
        """Bits ``start .. start + count`` as booleans, unpacking only their bytes."""
        if not count:
            return np.zeros(0, dtype=bool)
        skip = start & 7
        span = np.frombuffer(
            self._buf, dtype=np.uint8, count=(skip + count + 7) >> 3, offset=start >> 3
        )
        return np.unpackbits(span, count=skip + count)[skip:].view(bool)

    def read_bit(self) -> bool:
        """Read a single bit."""
        start = self._advance(1)
        return bool(self._buf[start >> 3] >> (7 - (start & 7)) & 1)

    def read_bits(self, count: int) -> np.ndarray:
        """Read ``count`` bits as a boolean array."""
        return self._unpack(self._advance(count), count)

    def read_uint(self, width: int) -> int:
        """Read a ``width``-bit unsigned integer, MSB first (any width)."""
        start = self._advance(width)
        end = start + width
        value = int.from_bytes(self._buf[start >> 3 : (end + 7) >> 3], "big")
        return (value >> (-end & 7)) & ((1 << width) - 1)

    def read_uints(self, count: int, width: int) -> np.ndarray:
        """Read ``count`` consecutive ``width``-bit integers in one pass."""
        _check_width(width)
        start = self._advance(count * width)
        if not count:
            return np.zeros(0, dtype=np.uint64)
        if width & 7 or start & 7:
            return _bits_to_uints(self._unpack(start, count * width), width)
        return _bytes_to_uints(self._buf, start >> 3, count, width)

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
        return self._n_bits - self._pos
