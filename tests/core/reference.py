"""Preserved seed implementation of the grid / inverted-index build path.

The array-native index core (:mod:`repro.core.grid`,
:mod:`repro.core.inverted_index`) replaced the original row-by-row Python
build. This module keeps that original implementation — tuple-coordinate
grid cells inserted one row at a time, per-cell ``Posting`` lists
maintained with ``bisect``/``insort`` — verbatim, as the test oracle:
``tests/core/test_reference_equivalence.py`` checks that the CSR inverted
index holds exactly the postings the reference build produces, cell for
cell and row for row, and ``tests/core/test_grid.py`` /
``test_structure_properties.py`` check the code-array grid against the
object tree (children, members and per-level cell sets).

It also keeps the seed's bit-by-bit cell encoder (checked against the
spread-table :func:`repro.core.cellcodes.encode_cells`), the seed's
one-column-at-a-time JSD histogram (checked against the batched
:meth:`repro.core.partition.HistogramSpace.histograms`) and the range
lookups over an array grid that only tests read: children, subtree
leaves, and leaf or subtree members.

It also keeps ``build_bulk``, ``fit``'s bulk build of the inverted
index from input rows rather than a store, which the equivalence tests
compare with incremental appends.

It is **not** wired into any search path.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Sequence

import numpy as np

from repro.core.inverted_index import ROW, InvertedIndex

Coords = tuple[int, ...]


class ReferencePosting:
    """One (column, rows-in-cell) entry of a reference postings list."""

    __slots__ = ("column_id", "rows")

    def __init__(self, column_id: int, rows: list[int]):
        self.column_id = column_id
        self.rows = rows

    def __lt__(self, other: "ReferencePosting") -> bool:
        return self.column_id < other.column_id


class ReferenceGridCell:
    """One populated cell of the reference hierarchical grid."""

    __slots__ = ("level", "coords", "children", "members")

    def __init__(self, level: int, coords: Coords):
        self.level = level
        self.coords = coords
        self.children: list["ReferenceGridCell"] = []
        self.members: list[int] = []


class ReferenceGrid:
    """The seed's sparse hierarchical grid: per-level coordinate dicts."""

    def __init__(self, n_dims: int, levels: int, extent: float, store_members: bool = True):
        self.n_dims = n_dims
        self.levels = levels
        self.extent = float(extent)
        self.store_members = store_members
        self.root = ReferenceGridCell(0, ())
        self.cells: list[dict[Coords, ReferenceGridCell]] = [
            dict() for _ in range(levels + 1)
        ]
        self.cells[0][()] = self.root
        self.n_vectors = 0

    def leaf_coords_for(self, mapped: np.ndarray) -> np.ndarray:
        mapped = np.atleast_2d(np.asarray(mapped, dtype=np.float64))
        n_cells = 1 << self.levels
        cell_size = self.extent / n_cells
        coords = np.floor(mapped / cell_size).astype(np.int64)
        np.clip(coords, 0, n_cells - 1, out=coords)
        return coords

    def insert(self, mapped: np.ndarray) -> list[Coords]:
        """Row-by-row insertion: one dict walk per vector (the seed path)."""
        mapped = np.atleast_2d(np.asarray(mapped, dtype=np.float64))
        leaf = self.leaf_coords_for(mapped)
        start = self.n_vectors
        out: list[Coords] = []
        for offset, row in enumerate(leaf.tolist()):
            coords = tuple(row)
            out.append(coords)
            cell = self._ensure_leaf(coords)
            if self.store_members:
                cell.members.append(start + offset)
        self.n_vectors += mapped.shape[0]
        return out

    def _ensure_leaf(self, coords: Coords) -> ReferenceGridCell:
        leaf_map = self.cells[self.levels]
        cell = leaf_map.get(coords)
        if cell is not None:
            return cell
        cell = ReferenceGridCell(self.levels, coords)
        leaf_map[coords] = cell
        child = cell
        for level in range(self.levels - 1, 0, -1):
            parent_coords = tuple(c >> 1 for c in child.coords)
            parent_map = self.cells[level]
            parent = parent_map.get(parent_coords)
            if parent is not None:
                parent.children.append(child)
                return cell
            parent = ReferenceGridCell(level, parent_coords)
            parent_map[parent_coords] = parent
            parent.children.append(child)
            child = parent
        self.root.children.append(child)
        return cell

    @property
    def leaf_cells(self) -> dict[Coords, ReferenceGridCell]:
        return self.cells[self.levels]


class ReferenceInvertedIndex:
    """The seed's inverted index: dict of per-cell ``insort``-ed postings."""

    def __init__(self) -> None:
        self._lists: dict[Coords, list[ReferencePosting]] = {}
        self.n_postings = 0

    def add_column(self, column_id: int, cells: Sequence[Coords], first_row: int) -> None:
        grouped: dict[Coords, list[int]] = {}
        for offset, cell in enumerate(cells):
            grouped.setdefault(cell, []).append(first_row + offset)
        for cell, rows in grouped.items():
            postings = self._lists.setdefault(cell, [])
            insort(postings, ReferencePosting(column_id, rows))
            self.n_postings += 1

    def delete_column(self, column_id: int) -> int:
        removed = 0
        empty: list[Coords] = []
        for cell, postings in self._lists.items():
            pos = bisect_left(postings, ReferencePosting(column_id, []))
            if pos < len(postings) and postings[pos].column_id == column_id:
                postings.pop(pos)
                removed += 1
                if not postings:
                    empty.append(cell)
        for cell in empty:
            del self._lists[cell]
        self.n_postings -= removed
        return removed

    def postings_by_cell(self) -> dict[Coords, list[tuple[int, list[int]]]]:
        """Full contents as plain data, for equivalence checks."""
        return {
            cell: [(p.column_id, list(p.rows)) for p in postings]
            for cell, postings in self._lists.items()
        }

    @property
    def n_cells(self) -> int:
        return len(self._lists)


def build_reference_structures(
    mapped_columns: Sequence[np.ndarray],
    levels: int,
    extent: float,
) -> tuple[ReferenceGrid, ReferenceInvertedIndex]:
    """The seed ``fit`` loop: per-column grid insert + postings append.

    Args:
        mapped_columns: pivot-mapped vectors of each column, in column-ID
            order (pivot selection and mapping are shared with the
            array-native path and therefore excluded from the comparison).
        levels: grid depth ``m``.
        extent: pivot-space extent.
    """
    if not mapped_columns:
        raise ValueError("cannot build over zero columns")
    n_dims = np.atleast_2d(mapped_columns[0]).shape[1]
    grid = ReferenceGrid(n_dims, levels, extent, store_members=False)
    inverted = ReferenceInvertedIndex()
    first_row = 0
    for column_id, mapped in enumerate(mapped_columns):
        cells = grid.insert(mapped)
        inverted.add_column(column_id, cells, first_row)
        first_row += np.atleast_2d(mapped).shape[0]
    return grid, inverted


def build_bulk(
    index: InvertedIndex,
    cell_of_row: np.ndarray,
    column_of_row: np.ndarray,
    order: np.ndarray,
    leaves: np.ndarray,
) -> None:
    """Build a fresh ``index``'s sorted part as ``PexesoIndex.fit`` does,
    from input rows instead of a store.

    Args:
        cell_of_row: leaf cell code of every input row.
        column_of_row: column ID of every input row; columns hold
            consecutive rows in ID order, the layout ``fit`` is given.
        order: ``np.argsort(cell_of_row, kind="stable")``: store row
            ``i`` holds input row ``order[i]``, so with the layout above
            every leaf's rows are grouped by column in ID order.
        leaves: the grid's leaf level (sorted, a superset of
            ``cell_of_row``).
    """
    codes = np.asarray(cell_of_row, dtype=np.int64)
    cols = np.asarray(column_of_row, dtype=np.int64)
    order = np.asarray(order, dtype=np.intp)
    if not (codes.size == cols.size == order.size):
        raise ValueError("cell, column and order arrays must align")
    if codes.size == 0:
        return
    if (cols[1:] < cols[:-1]).any():
        raise ValueError("columns must hold consecutive rows in ID order")
    firsts = np.flatnonzero(np.diff(cols, prepend=-1))
    index.column_ids = cols[firsts]
    index.column_sizes = np.diff(np.append(firsts, cols.size)).astype(ROW)
    positions = np.repeat(np.arange(firsts.size, dtype=ROW), index.column_sizes)
    index.build_sorted(codes[order], positions[order], leaves)


def reference_encode_cells(coords: np.ndarray, n_dims: int, bits_per_axis: int) -> np.ndarray:
    """The seed encoder: one shift/or pass per (bit, axis)."""
    coords = np.asarray(coords, dtype=np.int64)
    codes = np.zeros(coords.shape[0], dtype=np.int64)
    for bit in range(bits_per_axis):
        for axis in range(n_dims):
            codes |= ((coords[:, axis] >> bit) & 1) << (bit * n_dims + axis)
    return codes


def reference_histogram(space, projected: np.ndarray) -> np.ndarray:
    """The seed's histogram of one column's projected rows (``np.add.at``)."""
    span = space.hi - space.lo
    coords = np.floor((projected - space.lo) / span * space.bins_per_dim).astype(np.int64)
    np.clip(coords, 0, space.bins_per_dim - 1, out=coords)
    flat = np.zeros(space.n_bins)
    multipliers = space.bins_per_dim ** np.arange(space.projection.shape[1])
    np.add.at(flat, coords @ multipliers, 1.0)
    return flat / flat.sum()


def children_codes(grid, level: int, code: int) -> np.ndarray:
    """Sorted child codes (level+1) of the level-``level`` cell ``code``.

    Children of a cell are a contiguous range of the next level's sorted
    array because the parent code is a bit-prefix.
    """
    nxt = grid.level_codes(level + 1)
    lo = int(np.searchsorted(nxt, int(code) << grid.n_dims, side="left"))
    hi = int(np.searchsorted(nxt, (int(code) + 1) << grid.n_dims, side="left"))
    return nxt[lo:hi]


def _subtree_leaf_span(grid, level: int, code: int) -> tuple[int, int]:
    """``[lo, hi)`` positions in ``grid.leaf_codes`` of the leaves below a cell."""
    shift = grid.n_dims * (grid.levels - level)
    leaves = grid.leaf_codes
    lo = int(np.searchsorted(leaves, int(code) << shift, side="left"))
    hi = int(np.searchsorted(leaves, (int(code) + 1) << shift, side="left"))
    return lo, hi


def subtree_leaf_codes(grid, level: int, code: int) -> np.ndarray:
    """Sorted leaf codes below the level-``level`` cell ``code``."""
    lo, hi = _subtree_leaf_span(grid, level, code)
    return grid.leaf_codes[lo:hi]


def leaf_members(grid, code: int) -> np.ndarray:
    """Member row indices (ascending) of one leaf cell code."""
    starts, order = grid.members_csr()
    leaves = grid.leaf_codes
    i = int(np.searchsorted(leaves, int(code), side="left"))
    if i >= leaves.size or leaves[i] != code:
        return np.empty(0, dtype=np.intp)
    return order[starts[i] : starts[i + 1]]


def subtree_member_rows(grid, level: int, code: int) -> np.ndarray:
    """Member rows of every leaf below a cell: one slice of the members CSR."""
    starts, order = grid.members_csr()
    lo, hi = _subtree_leaf_span(grid, level, code)
    return order[starts[lo] : starts[hi]]
