"""Low-level packed bit-matrix helpers.

The paper's space bounds are stated in *bits*, so the library needs an exact,
canonical bit-level representation for boolean matrices.  This module
provides pack/unpack primitives built on :func:`numpy.packbits` plus small
utilities (bit I/O against ``bytes``, popcounts, row containment tests) that
the database and sketch layers share.

All functions operate on ``numpy.ndarray`` with ``dtype=bool`` in row-major
order and treat the matrix shape as external metadata: a packed buffer never
stores its own shape, which keeps sketch size accounting honest (shape is
part of the public parameters ``(n, d)``, not of the payload).
"""

from __future__ import annotations

import numpy as np

from ..errors import SketchSizeError

__all__ = [
    "pack_bits",
    "unpack_bits",
    "pack_matrix",
    "unpack_matrix",
    "bits_to_bytes",
    "bytes_to_bits",
    "check_uint",
    "int_to_bits",
    "bits_to_int",
    "popcount_rows",
    "rows_containing",
]


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 1-D boolean array into bytes (big-endian within each byte).

    The final partial byte, if any, is zero padded.  Inverse of
    :func:`unpack_bits` given the original length.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise SketchSizeError(f"pack_bits expects a 1-D array, got shape {arr.shape}")
    return np.packbits(arr.astype(np.uint8)).tobytes()


def unpack_bits(buf: bytes, length: int) -> np.ndarray:
    """Unpack ``length`` bits from ``buf`` into a boolean array.

    Raises
    ------
    SketchSizeError
        If ``buf`` is too short to contain ``length`` bits.
    """
    if length < 0:
        raise SketchSizeError(f"length must be non-negative, got {length}")
    need = (length + 7) // 8
    if len(buf) < need:
        raise SketchSizeError(
            f"buffer of {len(buf)} bytes cannot hold {length} bits ({need} needed)"
        )
    raw = np.frombuffer(buf, dtype=np.uint8, count=need)
    return np.unpackbits(raw)[:length].astype(bool)


def pack_matrix(matrix: np.ndarray) -> bytes:
    """Pack a 2-D boolean matrix row-major into bytes."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise SketchSizeError(f"pack_matrix expects a 2-D array, got shape {arr.shape}")
    return pack_bits(arr.astype(bool).reshape(-1))


def unpack_matrix(buf: bytes, n_rows: int, n_cols: int) -> np.ndarray:
    """Unpack an ``(n_rows, n_cols)`` boolean matrix packed by :func:`pack_matrix`."""
    flat = unpack_bits(buf, n_rows * n_cols)
    return flat.reshape(n_rows, n_cols)


def bits_to_bytes(n_bits: int) -> int:
    """Number of bytes needed to store ``n_bits`` bits."""
    return (n_bits + 7) // 8


def bytes_to_bits(n_bytes: int) -> int:
    """Number of bits held by ``n_bytes`` bytes."""
    return 8 * n_bytes


def check_uint(value: int, width: int) -> None:
    """Raise :class:`SketchSizeError` unless ``0 <= value < 2**width``."""
    if value < 0:
        raise SketchSizeError(f"int_to_bits requires value >= 0, got {value}")
    if width < 0 or value >> width:
        raise SketchSizeError(f"value {value} does not fit in {width} bits")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Encode a non-negative integer as ``width`` bits, most significant first.

    Vectorized for any width: the value is serialized big-endian via
    ``int.to_bytes`` and expanded with one :func:`numpy.unpackbits` call
    (no per-bit Python loop); widths above 64 work because the arithmetic
    stays in Python integers.

    Raises
    ------
    SketchSizeError
        If ``value`` does not fit in ``width`` bits or is negative.
    """
    check_uint(value, width)
    if width == 0:
        return np.zeros(0, dtype=bool)
    pad = -width % 8
    buf = (value << pad).to_bytes((width + pad) // 8, "big")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[:width].astype(bool)


def bits_to_int(bits: np.ndarray) -> int:
    """Decode a most-significant-bit-first boolean array into an integer.

    Vectorized for any width via one :func:`numpy.packbits` call plus an
    exact big-endian ``int.from_bytes`` (arbitrary-precision, so widths
    above 64 are exact).
    """
    arr = np.asarray(bits, dtype=bool)
    if arr.size == 0:
        return 0
    pad = -arr.size % 8
    return int.from_bytes(np.packbits(arr).tobytes(), "big") >> pad


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Per-row number of ones of a boolean matrix."""
    return np.asarray(matrix, dtype=bool).sum(axis=1)


def rows_containing(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Boolean mask of rows that have a 1 in *every* listed column.

    ``columns`` is an integer index array; an empty selection means every row
    qualifies (the empty itemset is contained in every row, so its frequency
    is 1 -- matching the convention of Section 1.3).
    """
    mat = np.asarray(matrix, dtype=bool)
    cols = np.asarray(columns, dtype=np.intp)
    if cols.size == 0:
        return np.ones(mat.shape[0], dtype=bool)
    return mat[:, cols].all(axis=1)
