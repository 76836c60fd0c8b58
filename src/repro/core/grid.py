"""Sparse hierarchical grids over the pivot space (paper §III-B).

A grid of ``m`` levels divides the pivot space ``[0, extent]^|P|`` into
``2^(|P| * i)`` hyper-cells at level ``i`` (each dimension is split into
``2^i`` equal intervals). Only populated cells are materialised — the
paper notes this explicitly to save memory.

The grid is **array-native**: a cell is a bit-interleaved *cell code*
(:mod:`repro.core.cellcodes`) and the grid holds one sorted array of its
occupied leaf codes, in the narrowest signed type its geometry's codes
need (:func:`~repro.core.cellcodes.code_dtype`: int32 at |P| = 5, m = 4).
Every code the grid hands out has that type, so the inverted index,
which shares the leaf array, never compares codes of two types. A parent
code is a bit-prefix of its children's codes, so any upper level is the
leaf codes shifted right and deduplicated;
:meth:`HierarchicalGrid.level_codes` derives it on demand and nothing
above the leaves is stored (the blocker decides (query row, leaf) pairs
directly, :mod:`repro.core.blocker`). Inserting ``n`` rows is one
``floor``/``clip``/encode pass, one sort and one merge, with no per-row
Python.

Member rows (kept for ``HG_Q`` only, mirroring §III-B's structural
difference between the query and repository grids) live in a CSR layout:
one row-index array grouped by sorted leaf code plus an offsets array.
The search path builds no ``HG_Q``; the blocking oracle and the perf
ledger's layer ladder do.

There is no per-cell object: the tuple-coordinate object tree of the
original design lives on only as the test oracle ``ReferenceGrid`` in
``tests/core/reference.py``, which the array structure is checked
against cell for cell.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.cellcodes import check_code_width, code_dtype, decode_cells, encode_cells

#: alias: cells are integer codes everywhere downstream of the grid
CellCode = int


def _merge_sorted_unique(current: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Merge a sorted-unique array into another without re-sorting.

    ``np.union1d`` sorts the whole concatenation on every call; an
    append-heavy workload (§III-E) would pay an O(n log n) re-sort per
    column. Both inputs are already sorted and unique, so a
    ``searchsorted`` splice of the genuinely-new values is enough.
    """
    if current.size == 0:
        return new
    positions = np.searchsorted(current, new)
    fresh = np.ones(new.size, dtype=bool)
    inside = positions < current.size
    fresh[inside] = current[positions[inside]] != new[inside]
    if not fresh.any():
        return current
    return np.insert(current, positions[fresh], new[fresh])


def _distinct(sorted_codes: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (one neighbour comparison)."""
    fresh = np.empty(sorted_codes.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=fresh[1:])
    return sorted_codes[fresh]


class HierarchicalGrid:
    """Sparse m-level grid over pivot-space coordinates in ``[0, extent]``.

    Args:
        n_dims: dimensionality of the pivot space, |P|.
        levels: number of levels ``m`` (excluding the root).
        extent: upper bound of every coordinate.
        store_members: keep member row indices per leaf cell (HG_Q does,
            HG_RV does not).
    """

    def __init__(self, n_dims: int, levels: int, extent: float, store_members: bool = True):
        if levels < 1:
            raise ValueError("a hierarchical grid needs at least one level")
        if n_dims < 1:
            raise ValueError("pivot space must have at least one dimension")
        if extent <= 0:
            raise ValueError("extent must be positive")
        check_code_width(n_dims, levels)
        self.n_dims = n_dims
        self.levels = levels
        self.extent = float(extent)
        self.store_members = store_members
        #: the type of every code of this geometry
        self.code_dtype = code_dtype(n_dims, levels)
        #: sorted occupied leaf codes
        self._leaf_codes = np.empty(0, dtype=self.code_dtype)
        #: leaf code of every inserted row, in insertion (= row) order
        self._row_codes = np.empty(0, dtype=self.code_dtype)
        #: cached members CSR: (starts over sorted leaves, row order)
        self._members_cache: Optional[tuple[np.ndarray, np.ndarray]] = None
        self.n_vectors = 0

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        mapped: np.ndarray,
        levels: int,
        extent: float,
        store_members: bool = True,
    ) -> "HierarchicalGrid":
        """Build a grid from mapped vectors (rows are pivot-space points)."""
        mapped = np.atleast_2d(np.asarray(mapped, dtype=np.float64))
        grid = cls(mapped.shape[1], levels, extent, store_members=store_members)
        grid.insert(mapped)
        return grid

    @classmethod
    def from_leaf_codes(
        cls,
        leaf_codes: np.ndarray,
        n_dims: int,
        levels: int,
        extent: float,
        n_vectors: int = 0,
    ) -> "HierarchicalGrid":
        """Reconstruct an occupancy-only grid (HG_RV) from its leaf codes,
        which are the whole grid; they are cast to the geometry's type."""
        grid = cls(n_dims, levels, extent, store_members=False)
        grid.add_leaves(np.sort(np.asarray(leaf_codes, dtype=grid.code_dtype)), n_vectors)
        return grid

    def leaf_coords_for(self, mapped: np.ndarray) -> np.ndarray:
        """Integer leaf-cell coordinates for each mapped row."""
        mapped = np.atleast_2d(np.asarray(mapped, dtype=np.float64))
        n_cells = 1 << self.levels
        cell_size = self.extent / n_cells
        coords = np.floor(mapped / cell_size).astype(np.int64)
        np.clip(coords, 0, n_cells - 1, out=coords)
        return coords

    def leaf_codes_for(self, mapped: np.ndarray) -> np.ndarray:
        """Linearized leaf cell codes for each mapped row (one pass)."""
        return encode_cells(self.leaf_coords_for(mapped), self.n_dims, self.levels)

    def insert(self, mapped: np.ndarray) -> np.ndarray:
        """Insert mapped rows; returns the leaf cell code of each row.

        Row indices assigned to members continue from the current
        ``n_vectors`` counter, so repeated inserts (column appends) index a
        growing external vector store consistently.
        """
        mapped = np.atleast_2d(np.asarray(mapped, dtype=np.float64))
        if mapped.shape[1] != self.n_dims:
            raise ValueError(
                f"mapped dim {mapped.shape[1]} != grid dim {self.n_dims}"
            )
        codes = self.leaf_codes_for(mapped)
        if self.store_members:
            self._row_codes = np.concatenate([self._row_codes, codes])
            self._members_cache = None
        self.add_leaves(np.sort(codes), mapped.shape[0])
        return codes

    def add_leaves(self, sorted_codes: np.ndarray, n_rows: int) -> None:
        """Add the cells of ``n_rows`` rows, given their sorted leaf codes
        (``sorted_codes`` may repeat a code), held in the geometry's type."""
        sorted_codes = sorted_codes.astype(self.code_dtype, copy=False)
        self._leaf_codes = _merge_sorted_unique(self._leaf_codes, _distinct(sorted_codes))
        self.n_vectors += int(n_rows)

    # -- array-side structure ----------------------------------------------------

    def level_codes(self, level: int) -> np.ndarray:
        """Sorted cell codes of one level (level 0 is the root's [0]),
        derived from the leaf codes on each call."""
        if level == 0:
            return np.zeros(1, dtype=self.code_dtype)
        return _distinct(self._leaf_codes >> (self.n_dims * (self.levels - level)))

    @property
    def leaf_codes(self) -> np.ndarray:
        """Sorted populated leaf cell codes."""
        return self._leaf_codes

    def members_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Members CSR: offsets aligned with ``leaf_codes``, grouped rows."""
        if not self.store_members:
            raise RuntimeError("this grid does not store member indices")
        if self._members_cache is None:
            order = np.argsort(self._row_codes, kind="stable").astype(np.intp)
            leaves = self._leaf_codes
            starts = np.empty(leaves.size + 1, dtype=np.intp)
            starts[:-1] = np.searchsorted(self._row_codes[order], leaves, side="left")
            starts[-1] = order.size
            self._members_cache = (starts, order)
        return self._members_cache

    # -- geometry ----------------------------------------------------------------

    def cell_size(self, level: int) -> float:
        """Edge length of a level-``level`` cell."""
        return self.extent / (1 << level)

    def level_coords(self, level: int) -> np.ndarray:
        """Decoded ``(n_cells, n_dims)`` integer coordinates of one level."""
        return decode_cells(self.level_codes(level), self.n_dims, level)

    # -- reporting ---------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Total number of populated cells over all levels (excluding root)."""
        return sum(self.level_codes(level).size for level in range(1, self.levels + 1))

    def memory_bytes(self) -> int:
        """Memory footprint of the grid arrays (for Fig. 6b)."""
        total = self._leaf_codes.nbytes + self._row_codes.nbytes
        if self._members_cache is not None:
            starts, order = self._members_cache
            total += starts.nbytes + order.nbytes
        return total
