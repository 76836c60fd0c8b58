"""Inverted index from grid leaf cells to column postings (paper §III-C).

Keys are the linearized leaf cell codes of ``HG_RV``
(:mod:`repro.core.cellcodes`); each key maps to a postings list of
columns having at least one vector in that cell, in increasing column-ID
order (the DaaT order of the paper's Algorithm 2). Each
posting also carries the global row indices of that column's vectors
inside the cell, so verification can fetch exactly the vectors it needs.

The layout is CSR over flat arrays instead of dict-of-lists:

* ``_codes`` / ``_cols`` — one entry per (cell, column) posting, lexsorted
  by ``(cell code, column id)``; a cell's postings are a contiguous range
  found by ``np.searchsorted``, already in DaaT order;
* ``_rows`` / ``_starts`` — the global row indices of every posting,
  concatenated, with CSR offsets per entry.

``build_bulk`` constructs the whole index from the per-row (code, column)
pairs of a lake and the stable code order its caller sorted once;
:meth:`add_column` is a sorted-merge append and :meth:`delete_column` a
boolean-mask compaction, preserving the §III-E maintenance semantics. Lookups
(:meth:`columns_in_cells` and the array-returning
:meth:`columns_in_cells_arrays`) are vectorised range gathers.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

CellCode = int

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_IP = np.empty(0, dtype=np.intp)


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
    """Leaf cell code -> postings, stored as lexsorted CSR arrays."""

    def __init__(self) -> None:
        #: per posting entry: cell code, lexsorted by (code, column)
        self._codes = _EMPTY_I64
        #: per posting entry: column id
        self._cols = _EMPTY_I64
        #: CSR offsets of each entry's rows inside ``_rows``
        self._starts = np.zeros(1, dtype=np.intp)
        #: global row indices, concatenated per entry
        self._rows = _EMPTY_IP

    # -- construction ------------------------------------------------------------

    def build_bulk(
        self, cell_of_row: np.ndarray, column_of_row: np.ndarray, order: np.ndarray
    ) -> None:
        """Build the whole index from per-row arrays and their code order.

        Args:
            cell_of_row: leaf cell code of every repository vector.
            column_of_row: column ID of every vector; columns hold
                consecutive rows in ID order, the layout
                :meth:`~repro.core.index.PexesoIndex.fit` produces.
            order: ``np.argsort(cell_of_row, kind="stable")``. With the
                layout above it is also the (code, column, row) order of
                the postings, so no further sort is needed.
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
        sorted_codes = codes[order]
        sorted_cols = cols[order]
        boundary = np.empty(sorted_codes.size, dtype=bool)
        boundary[0] = True
        np.logical_or(
            sorted_codes[1:] != sorted_codes[:-1],
            sorted_cols[1:] != sorted_cols[:-1],
            out=boundary[1:],
        )
        firsts = np.nonzero(boundary)[0]
        self._codes = sorted_codes[firsts]
        self._cols = sorted_cols[firsts]
        self._starts = np.concatenate([firsts, [sorted_codes.size]]).astype(np.intp)
        self._rows = order

    def add_vector(self, cell: CellCode, column_id: int, row: int) -> None:
        """Register a single vector (global row index) of ``column_id``."""
        pos = self._entry_position(int(cell), int(column_id))
        if (
            pos < self._codes.size
            and self._codes[pos] == cell
            and self._cols[pos] == column_id
        ):
            self._rows = np.insert(self._rows, self._starts[pos + 1], row)
            self._starts[pos + 1 :] += 1
        else:
            self._insert_entries(
                np.asarray([cell], dtype=np.int64),
                np.asarray([column_id], dtype=np.int64),
                np.asarray([row], dtype=np.intp),
                np.asarray([1], dtype=np.intp),
            )

    def add_column(
        self, column_id: int, cells: Sequence[CellCode] | np.ndarray, first_row: int
    ) -> None:
        """Register a whole column whose vectors occupy ``cells`` in order.

        ``cells[i]`` is the leaf cell code of the column's i-th vector;
        global row indices are ``first_row + i``. This is the sorted-merge
        append path of §III-E: the column's new entries are grouped with
        one stable argsort and spliced into the CSR arrays at their
        ``searchsorted`` positions.
        """
        codes = np.asarray(cells, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError("cells must be a flat sequence of cell codes")
        n = codes.size
        if n == 0:
            return
        rows = np.arange(first_row, first_row + n, dtype=np.intp)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        sorted_rows = rows[order]
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
        firsts = np.nonzero(boundary)[0]
        lens = np.diff(np.concatenate([firsts, [n]])).astype(np.intp)
        new_codes = sorted_codes[firsts]
        new_cols = np.full(new_codes.size, column_id, dtype=np.int64)
        self._insert_entries(new_codes, new_cols, sorted_rows, lens)

    def _entry_position(self, code: int, column_id: int) -> int:
        """Lexicographic (code, column) insertion position into the entries."""
        lo = int(np.searchsorted(self._codes, code, side="left"))
        hi = int(np.searchsorted(self._codes, code, side="right"))
        return lo + int(np.searchsorted(self._cols[lo:hi], column_id, side="left"))

    def _insert_entries(
        self,
        new_codes: np.ndarray,
        new_cols: np.ndarray,
        new_rows: np.ndarray,
        new_lens: np.ndarray,
    ) -> None:
        """Splice (code, column)-sorted new entries into the CSR arrays."""
        if self._codes.size == 0:
            self._codes = new_codes.copy()
            self._cols = new_cols.copy()
            self._rows = new_rows.astype(np.intp, copy=True)
            self._starts = np.concatenate(
                [[0], np.cumsum(new_lens)]
            ).astype(np.intp)
            return
        positions = np.fromiter(
            (
                self._entry_position(int(code), int(col))
                for code, col in zip(new_codes.tolist(), new_cols.tolist())
            ),
            dtype=np.intp,
            count=new_codes.size,
        )
        old_lens = np.diff(self._starts)
        self._codes = np.insert(self._codes, positions, new_codes)
        self._cols = np.insert(self._cols, positions, new_cols)
        self._rows = np.insert(
            self._rows, np.repeat(self._starts[positions], new_lens), new_rows
        )
        lens = np.insert(old_lens, positions, new_lens)
        self._starts = np.concatenate([[0], np.cumsum(lens)]).astype(np.intp)

    def delete_column(self, column_id: int) -> int:
        """Remove every posting of ``column_id``; returns how many were removed.

        One boolean mask over the entry arrays; cells left empty vanish
        with their entries, so blocking stops producing candidates for
        them.
        """
        kill = self._cols == column_id
        removed = int(np.count_nonzero(kill))
        if not removed:
            return 0
        keep = ~kill
        lens = np.diff(self._starts)
        self._rows = self._rows[np.repeat(keep, lens)]
        self._codes = self._codes[keep]
        self._cols = self._cols[keep]
        self._starts = np.concatenate([[0], np.cumsum(lens[keep])]).astype(np.intp)
        return removed

    # -- lookup ------------------------------------------------------------------

    @property
    def n_postings(self) -> int:
        """Total number of (cell, column) posting entries."""
        return int(self._codes.size)

    def _cell_range(self, cell: CellCode) -> tuple[int, int]:
        lo = int(np.searchsorted(self._codes, int(cell), side="left"))
        hi = int(np.searchsorted(self._codes, int(cell), side="right"))
        return lo, hi

    def postings(self, cell: CellCode) -> list[Posting]:
        """Postings list of a cell (empty list when the cell is unknown)."""
        lo, hi = self._cell_range(cell)
        return [
            Posting(int(self._cols[e]), self._rows[self._starts[e] : self._starts[e + 1]].tolist())
            for e in range(lo, hi)
        ]

    def __contains__(self, cell: CellCode) -> bool:
        lo, hi = self._cell_range(cell)
        return lo < hi

    def cells(self) -> Iterator[CellCode]:
        """Iterate all indexed leaf cell codes (ascending)."""
        return iter(np.unique(self._codes).tolist())

    @property
    def n_cells(self) -> int:
        if self._codes.size == 0:
            return 0
        return int(np.count_nonzero(np.diff(self._codes)) + 1)

    def columns_in_cells_arrays(
        self, cells: Iterable[CellCode] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised postings merge over several cells.

        Returns ``(columns, rows, lens)``: ascending column IDs, their
        member row indices concatenated (per column, cells contribute in
        input order), and the per-column row counts. This is the DaaT
        merge of Algorithm 2 as three ``searchsorted`` range gathers.
        """
        codes = np.asarray(
            cells if isinstance(cells, np.ndarray) else list(cells), dtype=np.int64
        )
        _, occ = self._entries_of(codes)
        if occ.size == 0:
            return _EMPTY_I64, _EMPTY_IP, _EMPTY_IP
        order = np.argsort(self._cols[occ], kind="stable")
        occ = occ[order]
        # ragged gather of each occurrence's rows, in (column, cell) order
        entry_lens = (self._starts[occ + 1] - self._starts[occ]).astype(np.intp)
        n_rows = int(entry_lens.sum())
        out_offsets = np.cumsum(entry_lens) - entry_lens
        idx = np.arange(n_rows, dtype=np.intp) - np.repeat(out_offsets, entry_lens)
        idx += np.repeat(self._starts[occ], entry_lens)
        rows = self._rows[idx]
        cols_sorted = self._cols[occ]
        uniq_cols, first = np.unique(cols_sorted, return_index=True)
        col_lens = np.add.reduceat(entry_lens, first).astype(np.intp)
        return uniq_cols, rows, col_lens

    def _entries_of(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posting-entry count of every code, and the entries themselves
        (one ``searchsorted`` range per code, concatenated in input order)."""
        lo = np.searchsorted(self._codes, codes, side="left")
        counts = np.searchsorted(self._codes, codes, side="right") - lo
        offsets = np.cumsum(counts) - counts
        occ = np.arange(int(counts.sum()), dtype=np.intp) - np.repeat(offsets, counts)
        occ += np.repeat(lo, counts)
        return counts, occ

    def cell_postings(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(position, column)`` of every posting of every cell in ``cells``.

        ``position`` indexes ``cells``; unknown cells contribute nothing.
        """
        codes = np.asarray(cells, dtype=np.int64)
        counts, occ = self._entries_of(codes)
        return np.repeat(np.arange(codes.size, dtype=np.intp), counts), self._cols[occ]

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
        merged: dict[int, list[int]] = {}
        offset = 0
        rows_list = rows.tolist()
        for col, length in zip(cols.tolist(), lens.tolist()):
            merged[col] = rows_list[offset : offset + length]
            offset += length
        return merged

    def memory_bytes(self) -> int:
        """Memory footprint of the CSR arrays (for Fig. 6b)."""
        return (
            self._codes.nbytes
            + self._cols.nbytes
            + self._starts.nbytes
            + self._rows.nbytes
        )
