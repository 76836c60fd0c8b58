"""Sparse hierarchical grids over the pivot space (paper §III-B).

A grid of ``m`` levels divides the pivot space ``[0, extent]^|P|`` into
``2^(|P| * i)`` hyper-cells at level ``i`` (each dimension is split into
``2^i`` equal intervals). Only populated cells are materialised — the
paper notes this explicitly to save memory.

The grid is **array-native**: a cell is a bit-interleaved int64 *cell
code* (:mod:`repro.core.cellcodes`) and each level is one sorted code
array. Because a parent code is a bit-prefix of its children's codes,

* every level is derived from the leaf codes with vectorised shifts —
  inserting ``n`` rows is one ``floor``/``clip``/encode pass plus one
  ``np.unique`` per level, with no per-row Python;
* the children of a cell, the leaves of a subtree, and the member rows
  of a subtree are all *contiguous ranges* of the sorted arrays, found
  with ``np.searchsorted`` — the blocker descends the grid without ever
  touching a dict or a tuple.

Member rows (kept for ``HG_Q`` only, mirroring §III-B's structural
difference between the query and repository grids) live in a CSR layout:
one row-index array grouped by sorted leaf code plus an offsets array.

There is no per-cell object: the tuple-coordinate object tree of the
original design lives on only as the test oracle
:class:`repro.core.reference.ReferenceGrid`, which the array structure
is checked against cell for cell.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.cellcodes import check_code_width, decode_cells, encode_cells

#: alias: cells are int64 codes everywhere downstream of the grid
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
        #: sorted cell codes per level; index 0 is the root level
        self._level_codes: list[np.ndarray] = [
            np.zeros(1, dtype=np.int64) if level == 0 else np.empty(0, dtype=np.int64)
            for level in range(levels + 1)
        ]
        #: leaf code of every inserted row, in insertion (= row) order
        self._row_codes = np.empty(0, dtype=np.int64)
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
        """Reconstruct an occupancy-only grid (HG_RV) from its leaf codes.

        Every ancestor level is derived by shifting, so persisting the
        leaf codes persists the whole grid.
        """
        grid = cls(n_dims, levels, extent, store_members=False)
        leaf_codes = np.unique(np.asarray(leaf_codes, dtype=np.int64))
        for level in range(1, levels + 1):
            shift = n_dims * (levels - level)
            codes = leaf_codes >> shift if shift else leaf_codes
            grid._level_codes[level] = np.unique(codes) if shift else codes
        grid.n_vectors = int(n_vectors)
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
        """Insert mapped rows; returns the int64 leaf cell code of each row.

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
        new_leaves = np.unique(codes)
        for level in range(self.levels, 0, -1):
            self._level_codes[level] = _merge_sorted_unique(
                self._level_codes[level], new_leaves
            )
            new_leaves = np.unique(new_leaves >> self.n_dims)
        if self.store_members:
            self._row_codes = np.concatenate([self._row_codes, codes])
            self._members_cache = None
        self.n_vectors += mapped.shape[0]
        return codes

    # -- array-side structure ----------------------------------------------------

    def level_codes(self, level: int) -> np.ndarray:
        """Sorted cell codes of one level (level 0 is the root's [0])."""
        return self._level_codes[level]

    @property
    def leaf_codes(self) -> np.ndarray:
        """Sorted populated leaf cell codes."""
        return self._level_codes[self.levels]

    def children_codes(self, level: int, code: int) -> np.ndarray:
        """Sorted child codes (level+1) of the level-``level`` cell ``code``.

        Children of a cell are a contiguous range of the next level's
        sorted array because the parent code is a bit-prefix.
        """
        nxt = self._level_codes[level + 1]
        lo = int(np.searchsorted(nxt, int(code) << self.n_dims, side="left"))
        hi = int(np.searchsorted(nxt, (int(code) + 1) << self.n_dims, side="left"))
        return nxt[lo:hi]

    def subtree_leaf_codes(self, level: int, code: int) -> np.ndarray:
        """Sorted leaf codes below the level-``level`` cell ``code``."""
        shift = self.n_dims * (self.levels - level)
        leaves = self._level_codes[self.levels]
        lo = int(np.searchsorted(leaves, int(code) << shift, side="left"))
        hi = int(np.searchsorted(leaves, (int(code) + 1) << shift, side="left"))
        return leaves[lo:hi]

    def members_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Members CSR: offsets aligned with ``leaf_codes``, grouped rows."""
        if not self.store_members:
            raise RuntimeError("this grid does not store member indices")
        if self._members_cache is None:
            order = np.argsort(self._row_codes, kind="stable").astype(np.intp)
            leaves = self._level_codes[self.levels]
            starts = np.empty(leaves.size + 1, dtype=np.intp)
            starts[:-1] = np.searchsorted(self._row_codes[order], leaves, side="left")
            starts[-1] = order.size
            self._members_cache = (starts, order)
        return self._members_cache

    def leaf_members(self, code: int) -> np.ndarray:
        """Member row indices (ascending) of one leaf cell code."""
        starts, order = self.members_csr()
        leaves = self._level_codes[self.levels]
        i = int(np.searchsorted(leaves, int(code), side="left"))
        if i >= leaves.size or leaves[i] != code:
            return np.empty(0, dtype=np.intp)
        return order[starts[i] : starts[i + 1]]

    def subtree_member_rows(self, level: int, code: int) -> np.ndarray:
        """Member rows of every leaf below a cell — one CSR slice.

        Rows grouped by sorted leaf code are contiguous across a subtree's
        leaf range, so no per-leaf gathering is needed.
        """
        starts, order = self.members_csr()
        shift = self.n_dims * (self.levels - level)
        leaves = self._level_codes[self.levels]
        lo = int(np.searchsorted(leaves, int(code) << shift, side="left"))
        hi = int(np.searchsorted(leaves, (int(code) + 1) << shift, side="left"))
        return order[starts[lo] : starts[hi]]

    # -- geometry ----------------------------------------------------------------

    def cell_size(self, level: int) -> float:
        """Edge length of a level-``level`` cell."""
        return self.extent / (1 << level)

    def level_coords(self, level: int) -> np.ndarray:
        """Decoded ``(n_cells, n_dims)`` integer coordinates of one level."""
        return decode_cells(self._level_codes[level], self.n_dims, level)

    # -- reporting ---------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Total number of populated cells over all levels (excluding root)."""
        return sum(arr.size for arr in self._level_codes[1:])

    def memory_bytes(self) -> int:
        """Memory footprint of the grid arrays (for Fig. 6b)."""
        total = sum(arr.nbytes for arr in self._level_codes)
        total += self._row_codes.nbytes
        if self._members_cache is not None:
            starts, order = self._members_cache
            total += starts.nbytes + order.nbytes
        return total
