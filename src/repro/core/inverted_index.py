"""Inverted index from grid leaf cells to lake rows (paper §III-C).

A leaf cell's postings are the columns with a vector in it, in column-ID
order (the DaaT order of Algorithm 2), each with its rows in the cell.
Columns occupy contiguous row ranges in ID order (``fit`` lays them out
so, :meth:`add_column` appends past the last one, compaction keeps the
order), so a cell's rows in ascending order *are* its postings in
(column, row) order, and the index is one leaf → row CSR:

* ``leaves`` / ``leaf_starts`` — ``HG_RV``'s sorted leaf codes (the
  grid's own array, shared) and the row offsets aligned with them; a
  leaf whose columns were all deleted keeps an empty range;
* ``rows`` — every indexed row, grouped by leaf, ascending within one;
* ``column_ids`` / ``column_firsts`` / ``column_sizes`` — the column
  directory, in first-row (= ID) order: one ``searchsorted`` resolves
  rows to columns.

Every array counting or naming rows is int32 (at most :data:`MAX_ROWS`
rows). Postings are derived on lookup: the cells' row slices, sorted,
are grouped by column. :meth:`add_column` is one ``np.insert`` at the
ends of the leaf ranges, :meth:`delete_column` one mask over the rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence

import numpy as np

CellCode = int

#: rows one index can hold: row ids are int32. Larger lakes are split
#: into shards by :class:`~repro.core.out_of_core.PartitionedPexeso`
MAX_ROWS = int(np.iinfo(np.int32).max)

#: dtype of every array counting or naming rows
ROW = np.int32

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_ROWS = np.empty(0, dtype=ROW)


def check_row_count(n_rows: int) -> None:
    """Refuse an index of more than :data:`MAX_ROWS` rows."""
    if n_rows > MAX_ROWS:
        raise ValueError(
            f"{n_rows} rows exceed one index's int32 row ids ({MAX_ROWS}); "
            "shard the lake with repro.core.out_of_core.PartitionedPexeso"
        )


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Positions where a run of equal (non-negative) values starts."""
    return np.flatnonzero(np.diff(values, prepend=-1))


class Posting:
    """One (column, rows-in-cell) entry of a postings list (lookup view)."""

    __slots__ = ("column_id", "rows")

    def __init__(self, column_id: int, rows: list[int]):
        self.column_id = column_id
        self.rows = rows

    def __lt__(self, other: "Posting") -> bool:
        return self.column_id < other.column_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Posting(column={self.column_id}, rows={self.rows})"


class InvertedIndex:
    """Leaf cell code -> rows, stored as one leaf → row CSR."""

    def __init__(self) -> None:
        #: sorted leaf codes the offsets are aligned with
        self.leaves = _EMPTY_I64
        #: CSR offsets of each leaf's rows inside ``rows``
        self.leaf_starts = np.zeros(1, dtype=ROW)
        #: global row indices, grouped by leaf, ascending within one
        self.rows = _EMPTY_ROWS
        #: the column directory, ordered by first row
        self.column_ids = _EMPTY_I64
        self.column_firsts = _EMPTY_ROWS
        self.column_sizes = _EMPTY_ROWS

    def build_bulk(
        self,
        cell_of_row: np.ndarray,
        column_of_row: np.ndarray,
        order: np.ndarray,
        leaves: np.ndarray,
    ) -> None:
        """Build the whole index from per-row arrays and their code order.

        Args:
            cell_of_row: leaf cell code of every repository vector.
            column_of_row: column ID of every vector; columns hold
                consecutive rows in ID order, the layout
                :meth:`~repro.core.index.PexesoIndex.fit` produces.
            order: ``np.argsort(cell_of_row, kind="stable")``. With the
                layout above it is also the (leaf, row) order of ``rows``.
            leaves: the grid's leaf level (sorted, a superset of
                ``cell_of_row``), which the index then shares.
        """
        codes = np.asarray(cell_of_row, dtype=np.int64)
        cols = np.asarray(column_of_row, dtype=np.int64)
        order = np.asarray(order, dtype=np.intp)
        if not (codes.size == cols.size == order.size):
            raise ValueError("cell, column and order arrays must align")
        if codes.size == 0:
            self.__init__()
            return
        if (cols[1:] < cols[:-1]).any():
            raise ValueError("columns must hold consecutive rows in ID order")
        self.leaves = leaves
        self.leaf_starts = np.append(
            np.searchsorted(codes[order], leaves), codes.size
        ).astype(ROW)
        self.rows = order.astype(ROW)
        firsts = _run_starts(cols)
        self.column_ids = cols[firsts]
        self.column_firsts = firsts.astype(ROW)
        self.column_sizes = np.diff(np.append(firsts, cols.size)).astype(ROW)

    def add_column(
        self,
        column_id: int,
        cells: Sequence[CellCode] | np.ndarray,
        first_row: int,
        leaves: np.ndarray,
    ) -> int:
        """Register a whole column whose vectors occupy ``cells`` in order;
        returns how many postings (leaves it occupies) it adds.

        ``cells[i]`` is the leaf cell code of the column's i-th vector;
        global row indices are ``first_row + i``. The column must come
        after every indexed one, in ID and in rows, so its rows go at the
        end of each leaf's range: one ``np.insert`` (§III-E append).
        ``leaves`` is the grid's leaf level after the column's cells were
        inserted: a sorted superset of the current leaves and of ``cells``.
        """
        codes = np.asarray(cells, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError("cells must be a flat sequence of cell codes")
        n = codes.size
        if n == 0:
            return 0
        if self.column_ids.size and (
            column_id <= self.column_ids[-1]
            or first_row < self.column_firsts[-1] + self.column_sizes[-1]
        ):
            raise ValueError("columns must be added in ID order, after the indexed rows")
        order = np.argsort(codes, kind="stable")
        # realign the offsets with `leaves`: a new leaf starts out empty
        starts = np.append(
            self.leaf_starts[np.searchsorted(self.leaves, leaves)], self.rows.size
        )
        leaf_of = np.searchsorted(leaves, codes[order])
        self.rows = np.insert(self.rows, starts[leaf_of + 1], (first_row + order).astype(ROW))
        added = np.bincount(leaf_of, minlength=leaves.size)
        starts[1:] += np.cumsum(added)
        self.leaves, self.leaf_starts = leaves, starts.astype(ROW)
        self.column_ids = np.append(self.column_ids, np.int64(column_id))
        self.column_firsts = np.append(self.column_firsts, ROW(first_row))
        self.column_sizes = np.append(self.column_sizes, ROW(n))
        return int(np.count_nonzero(added))

    def delete_column(self, column_id: int) -> int:
        """Remove every posting of ``column_id``; returns how many were removed.

        One mask over the rows; the leaves the column occupied keep
        their (possibly now empty) ranges, and an empty one produces no
        candidates.
        """
        try:
            at = self._position(column_id)
        except KeyError:
            return 0
        first = self.column_firsts[at]
        kill = (self.rows >= first) & (self.rows < first + self.column_sizes[at])
        dead = np.flatnonzero(kill)
        self.rows = self.rows[~kill]
        leaf_of = np.searchsorted(self.leaf_starts, dead, side="right") - 1
        self.leaf_starts = (
            self.leaf_starts - np.searchsorted(dead, self.leaf_starts)
        ).astype(ROW)
        self.column_ids = np.delete(self.column_ids, at)
        self.column_firsts = np.delete(self.column_firsts, at)
        self.column_sizes = np.delete(self.column_sizes, at)
        return int(_run_starts(leaf_of).size)

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, column_firsts)`` with every column slid down to the end
        of the one before it, the renumbering a compaction applies; the
        index's own arrays when no column moves."""
        firsts = (np.cumsum(self.column_sizes) - self.column_sizes).astype(ROW)
        shift = self.column_firsts - firsts
        if not shift.any():
            return self.rows, self.column_firsts
        return self.rows - shift[self._columns_of(self.rows)], firsts

    def _position(self, column_id: int) -> int:
        """Directory position of ``column_id`` (KeyError when absent)."""
        at = int(np.searchsorted(self.column_ids, column_id))
        if at == self.column_ids.size or self.column_ids[at] != column_id:
            raise KeyError(column_id)
        return at

    def _columns_of(self, rows: np.ndarray) -> np.ndarray:
        """Directory position of each (live) row's column."""
        return np.searchsorted(self.column_firsts, rows, side="right") - 1

    def _gather(self, cells: Iterable[CellCode] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell row counts, and the positions in ``rows`` of every
        cell's slice, concatenated in input order (unknown cells: none)."""
        codes = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells), np.int64)
        if self.leaves.size == 0:
            return np.zeros(codes.size, dtype=np.intp), np.empty(0, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.leaves, codes), self.leaves.size - 1)
        lo = self.leaf_starts[at]
        counts = np.where(self.leaves[at] == codes, self.leaf_starts[at + 1] - lo, 0)
        offsets = np.cumsum(counts) - counts
        positions = np.arange(int(counts.sum()), dtype=np.intp)
        positions -= np.repeat(offsets - lo, counts)
        return counts, positions

    @property
    def n_postings(self) -> int:
        """Number of (leaf cell, column) postings: one vectorised pass."""
        # each row's column by a prefix sum over the rows (not a search per row)
        span = np.zeros(int(self.rows.max(initial=-1)) + 1, dtype=ROW)
        span[self.column_firsts] = 1
        cols = np.cumsum(span, dtype=ROW)[self.rows]
        leaf = np.repeat(np.arange(self.leaves.size), np.diff(self.leaf_starts))
        return int(np.count_nonzero(np.diff(leaf, prepend=-1) | np.diff(cols, prepend=-1)))

    def postings(self, cell: CellCode) -> list[Posting]:
        """Postings list of a cell (empty list when the cell is unknown)."""
        return [Posting(c, rows) for c, rows in self.columns_in_cells([cell]).items()]

    def __contains__(self, cell: CellCode) -> bool:
        return bool(self._gather([cell])[0][0])

    def cells(self) -> Iterator[CellCode]:
        """Iterate all indexed leaf cell codes (ascending)."""
        return iter(self.leaves[np.diff(self.leaf_starts) > 0].tolist())

    @property
    def n_cells(self) -> int:
        return int(np.count_nonzero(np.diff(self.leaf_starts)))

    def columns_in_cells_arrays(
        self, cells: Iterable[CellCode] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised postings merge over several cells.

        Returns ``(columns, rows, lens)``: ascending column IDs, their
        member row indices concatenated (ascending), and the per-column
        row counts. This is the DaaT merge of Algorithm 2: a gather of
        the cells' row slices, one sort, one search of the column starts.
        """
        rows = np.sort(self.rows[self._gather(cells)[1]])
        # column c's rows are those in [first(c), first(c + 1)): live rows
        # lie in their column's range, deleted ones are gone
        lens = np.diff(np.append(np.searchsorted(rows, self.column_firsts), rows.size))
        present = np.flatnonzero(lens)
        return self.column_ids[present], rows, lens[present]

    def cell_postings(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(position, column)`` of every posting of every cell in ``cells``.

        ``position`` indexes ``cells``; unknown cells contribute nothing.
        """
        counts, positions = self._gather(cells)
        which = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
        cols = self._columns_of(self.rows[positions])
        new = np.flatnonzero(np.diff(which, prepend=-1) | np.diff(cols, prepend=-1))
        return which[new], self.column_ids[cols[new]]

    def columns_in_cells(
        self, cells: Iterable[CellCode] | np.ndarray
    ) -> dict[int, list[int]]:
        """Merge postings of several cells into ``{column_id: [rows...]}``.

        The result's keys iterate in increasing column order, which is the
        document-at-a-time order of Algorithm 2 (each column plays the role
        of a document; merging the per-cell pointers up front is equivalent
        to the paper's priority queue over postings cursors).
        """
        cols, rows, lens = self.columns_in_cells_arrays(cells)
        split = np.split(rows, np.cumsum(lens)[:-1])
        return {col: part.tolist() for col, part in zip(cols.tolist(), split)}

    def memory_bytes(self) -> int:
        """Memory footprint for Fig. 6b: every array but ``leaves``, which
        is the grid's leaf level and counted with the grid."""
        held = (self.leaf_starts, self.rows, self.column_ids, self.column_firsts, self.column_sizes)
        return sum(array.nbytes for array in held)


class ColumnRows(Mapping):
    """Read-only ``{column_id: global row indices}`` view of an inverted
    index's column directory; the row ``arange`` is built on access."""

    def __init__(self, inverted: InvertedIndex):
        self._inverted = inverted

    def __getitem__(self, column_id: int) -> np.ndarray:
        inverted = self._inverted
        at = inverted._position(column_id)
        first = int(inverted.column_firsts[at])
        return np.arange(first, first + int(inverted.column_sizes[at]), dtype=np.intp)

    def __iter__(self) -> Iterator[int]:
        return iter(self._inverted.column_ids.tolist())

    def __len__(self) -> int:
        return int(self._inverted.column_ids.size)
