"""The binary database ``D ∈ ({0,1}^d)^n`` of Section 1.3.

:class:`BinaryDatabase` is the substrate every other subsystem builds on: it
owns the boolean matrix, answers itemset frequency queries, and knows its own
exact bit size (``n * d``) for the RELEASE-DB accounting of Definition 6.

Databases are immutable: constructors copy their input and mark the array
read-only.  Derived databases (row samples, column slices, concatenations)
return new instances.  This mirrors the paper's model where the sketching
algorithm reads ``D`` once and the recovery algorithm never sees it again.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ParameterError
from .bitmatrix import pack_matrix, unpack_matrix
from .itemset import Itemset
from .packed import PackedColumns, PackedRows

__all__ = ["BinaryDatabase"]


class BinaryDatabase:
    """An immutable ``n x d`` binary database.

    Parameters
    ----------
    rows:
        Anything convertible to a 2-D boolean numpy array of shape
        ``(n, d)``; the data is copied.

    Examples
    --------
    >>> db = BinaryDatabase([[1, 0, 1], [1, 1, 1]])
    >>> db.frequency(Itemset([0, 2]))
    1.0
    >>> db.frequency(Itemset([1]))
    0.5
    """

    __slots__ = ("_rows", "_packed", "_packed_rows")

    def __init__(self, rows: np.ndarray | Sequence[Sequence[int]]) -> None:
        arr = np.array(rows, dtype=bool, copy=True)
        if arr.ndim != 2:
            raise ParameterError(
                f"database must be a 2-D matrix, got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ParameterError(f"database must be non-empty, got shape {arr.shape}")
        arr.setflags(write=False)
        self._rows = arr
        self._packed: PackedColumns | None = None
        self._packed_rows: PackedRows | None = None

    # ------------------------------------------------------------------
    # Shape and equality.
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of rows."""
        return self._rows.shape[0]

    @property
    def d(self) -> int:
        """Number of attributes (columns)."""
        return self._rows.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, d)``."""
        return self._rows.shape  # type: ignore[return-value]

    @property
    def rows(self) -> np.ndarray:
        """The underlying read-only boolean matrix."""
        return self._rows

    @property
    def packed(self) -> PackedColumns:
        """The shared packed-bitset query kernel for this database.

        Built lazily on first use and cached for the database's lifetime
        (rows are immutable), so every consumer -- the oracle, the miners,
        the sketchers' precomputations -- shares one packing instead of
        re-packing per evaluator.
        """
        if self._packed is None:
            self._packed = PackedColumns(self._rows)
        return self._packed

    @property
    def packed_rows(self) -> PackedRows:
        """The shared row-major packed kernel for this database.

        The membership-side twin of :attr:`packed`: answers *which rows*
        contain an itemset (boolean containment masks, mask matrices) and
        feeds streaming row ingestion.  Built lazily and cached, like
        :attr:`packed`.
        """
        if self._packed_rows is None:
            self._packed_rows = PackedRows(self._rows)
        return self._packed_rows

    def row(self, i: int) -> np.ndarray:
        """The i-th row ``D(i)`` as a boolean vector."""
        return self._rows[i]

    def column(self, j: int) -> np.ndarray:
        """The j-th column as a boolean vector."""
        return self._rows[:, j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinaryDatabase):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._rows, other._rows))

    def __hash__(self) -> int:
        return hash((self.shape, pack_matrix(self._rows)))

    def __repr__(self) -> str:
        return f"BinaryDatabase(n={self.n}, d={self.d})"

    # ------------------------------------------------------------------
    # Frequency queries (Section 1.3).
    # ------------------------------------------------------------------
    def support_mask(self, itemset: Itemset) -> np.ndarray:
        """Boolean mask of rows containing ``itemset``.

        Evaluated on the row-major kernel (:attr:`packed_rows`): one packed
        AND + popcount-equality pass.  Repeated items, should a caller
        bypass :class:`Itemset` normalisation, count once; out-of-range
        items raise :class:`~repro.errors.ParameterError` from the kernel.
        """
        return self.packed_rows.contains(itemset.items)

    def contains_matrix(self, itemsets: Iterable[Itemset]) -> np.ndarray:
        """``(m, n)`` boolean containment matrix for several itemsets.

        Row ``i`` is :meth:`support_mask` of the i-th itemset, evaluated as
        one batched row-major kernel sweep.
        """
        return self.packed_rows.contains_batch([t.items for t in itemsets])

    def support(self, itemset: Itemset) -> int:
        """Number of rows containing ``itemset``.

        Counts go through the column-major kernel (:attr:`packed`): a
        k-itemset touches ``k`` packed columns instead of every row.
        Out-of-range items raise :class:`~repro.errors.ParameterError`
        from the kernel.
        """
        return self.packed.support(itemset.items)

    def frequency(self, itemset: Itemset) -> float:
        """``f_T(D)``: the fraction of rows containing ``itemset``."""
        return self.support(itemset) / self.n

    def frequencies(
        self, itemsets: Iterable[Itemset], workers: int | None = None
    ) -> np.ndarray:
        """Vector of frequencies for several itemsets (one batched kernel call).

        ``workers`` shards the sweep (``None`` = auto heuristic; results
        are bit-identical for every worker count).
        """
        return (
            self.packed.supports_batch([t.items for t in itemsets], workers=workers)
            / self.n
        )

    # ------------------------------------------------------------------
    # Derived databases.
    # ------------------------------------------------------------------
    def sample_rows(self, indices: Sequence[int] | np.ndarray) -> "BinaryDatabase":
        """Database consisting of the selected rows (with multiplicity).

        SUBSAMPLE draws indices with replacement; duplicated indices produce
        duplicated rows, exactly as in Definition 8.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise ParameterError("cannot build a database from zero rows")
        sampled = BinaryDatabase(self._rows[idx])
        if self._packed_rows is not None:
            # Share the row-major kernel in the packed domain: gathering
            # uint64 words avoids re-packing the sampled rows.
            sampled._packed_rows = self._packed_rows.take(idx)
        return sampled

    def select_columns(self, columns: Sequence[int] | np.ndarray) -> "BinaryDatabase":
        """Database restricted to the given columns (order preserved)."""
        cols = np.asarray(columns, dtype=np.intp)
        if cols.size == 0:
            raise ParameterError("cannot build a database with zero columns")
        return BinaryDatabase(self._rows[:, cols])

    def hstack(self, other: "BinaryDatabase") -> "BinaryDatabase":
        """Column-wise concatenation (append attributes).

        Requires equal row counts.  Used by the amplification constructions,
        which append indicator-tag columns to each sub-database.
        """
        if self.n != other.n:
            raise ParameterError(
                f"hstack requires equal n, got {self.n} and {other.n}"
            )
        return BinaryDatabase(np.hstack([self._rows, other._rows]))

    def vstack(self, other: "BinaryDatabase") -> "BinaryDatabase":
        """Row-wise concatenation (append rows).

        Requires equal column counts.  Used to concatenate the ``D'_i``
        blocks into the "larger" database of Theorems 15 and 16.
        """
        if self.d != other.d:
            raise ParameterError(
                f"vstack requires equal d, got {self.d} and {other.d}"
            )
        return BinaryDatabase(np.vstack([self._rows, other._rows]))

    def repeat_rows(self, times: int) -> "BinaryDatabase":
        """Duplicate every row ``times`` times (Theorem 13's row duplication)."""
        if times < 1:
            raise ParameterError(f"times must be >= 1, got {times}")
        return BinaryDatabase(np.repeat(self._rows, times, axis=0))

    @staticmethod
    def concat_rows(databases: Sequence["BinaryDatabase"]) -> "BinaryDatabase":
        """Row-wise concatenation of several databases with equal ``d``."""
        if not databases:
            raise ParameterError("concat_rows requires at least one database")
        d = databases[0].d
        for db in databases:
            if db.d != d:
                raise ParameterError("concat_rows requires equal column counts")
        return BinaryDatabase(np.vstack([db.rows for db in databases]))

    # ------------------------------------------------------------------
    # Bit-exact serialization (RELEASE-DB's payload).
    # ------------------------------------------------------------------
    def size_in_bits(self) -> int:
        """Exact size ``n * d`` in bits (Definition 6's accounting)."""
        return self.n * self.d

    def to_bytes(self) -> bytes:
        """Canonical packed representation (row-major, zero padded)."""
        return pack_matrix(self._rows)

    @staticmethod
    def from_bytes(buf: bytes, n: int, d: int) -> "BinaryDatabase":
        """Inverse of :meth:`to_bytes` given the public shape ``(n, d)``."""
        return BinaryDatabase(unpack_matrix(buf, n, d))

    @staticmethod
    def from_packed_rows(packed: PackedRows) -> "BinaryDatabase":
        """Database adopting an existing row-major kernel (no re-pack).

        The boolean matrix is unpacked from the kernel's words, and the
        kernel itself is installed as the database's cached
        :attr:`packed_rows` -- the streaming ingestion path, which
        accumulates rows in packed form, lands here.
        """
        db = BinaryDatabase(packed.to_matrix())
        db._packed_rows = packed
        return db
