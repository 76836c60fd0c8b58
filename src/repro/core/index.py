"""The PEXESO index: pivots + hierarchical grid + inverted index (§III).

:class:`PexesoIndex` owns the repository side of the framework: the pivot
space, the vector store, ``HG_RV`` and the inverted index. The store is
kept in leaf order (the sorted part) plus a tail of columns added since
the last fit or compaction, so a leaf's rows are one slice of it and
the inverted index only run-length encodes which column each row
belongs to; its column directory is the index's only record of which
rows hold which column (:attr:`PexesoIndex.column_rows` is a view of
it). Every integer array is held at the narrowest type its values
need (see :mod:`~repro.core.inverted_index`); the tail's row ids are
int32, so one index holds at most
:data:`~repro.core.inverted_index.MAX_ROWS` rows; larger lakes are
sharded by :class:`~repro.core.out_of_core.PartitionedPexeso`. It
supports the incremental maintenance of §III-E (column append and
delete); out-of-core partitions spill it to disk through the
array-native :mod:`~repro.core.persistence` format.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.cellcodes import stable_code_order
from repro.core.grid import HierarchicalGrid
from repro.core.inverted_index import (
    ColumnRows,
    InvertedIndex,
    check_row_count,
    posting_dtype,
)
from repro.core.metric import EuclideanMetric, Metric
from repro.core.pivot import PivotSpace, build_pivot_space
from repro.core.stats import IndexStats

#: dead rows a delete may leave behind, as a share of the live rows; past
#: it the vector store is compacted in place, so it never holds more than
#: 9/8 of the live rows after a delete. It is also the store's headroom:
#: ``fit`` and every growth allocate room for 9/8 of the rows they hold
COMPACT_DEAD_SHARE = 1 / 8

#: rows ``fit`` maps and encodes at a time: no temporary spans the lake
FIT_BLOCK_ROWS = 4096

#: rows ``fit`` scatters into leaf order at a time (see :func:`_scatter`)
SCATTER_BLOCK_ROWS = 512


def _capacity(n_rows: int) -> int:
    """Rows allocated for a store holding ``n_rows``: 9/8 of them."""
    return n_rows + int(n_rows * COMPACT_DEAD_SHARE)


def _scatter(
    arrays: Sequence[np.ndarray], sizes: np.ndarray, order: np.ndarray, store: np.ndarray
) -> None:
    """Write the stacked ``arrays`` into ``store`` so that store row ``j``
    holds stacked row ``order[j]``, reading the columns themselves: a
    column of at least :data:`SCATTER_BLOCK_ROWS` rows is scattered
    straight from its array, runs of shorter ones are stacked into
    blocks of at most that many rows first, so no lake-sized copy is
    made."""
    n_rows = order.size
    dest = np.empty(n_rows, dtype=np.intp)
    dest[order] = np.arange(n_rows)
    buffer = np.empty((min(SCATTER_BLOCK_ROWS, n_rows), store.shape[1]))
    stacked: list[np.ndarray] = []  # short columns not yet written
    lo = hi = 0  # rows [lo, hi) are the stacked columns'
    for arr, size in zip(arrays, sizes.tolist()):
        if stacked and hi + size - lo > SCATTER_BLOCK_ROWS:
            store[dest[lo:hi]] = np.concatenate(stacked, out=buffer[: hi - lo])
            stacked, lo = [], hi
        if size >= SCATTER_BLOCK_ROWS:
            store[dest[lo : lo + size]] = arr
            lo = hi = lo + size
        else:
            stacked.append(arr)
            hi += size
    if stacked:
        store[dest[lo:hi]] = np.concatenate(stacked, out=buffer[: hi - lo])


def _move_rows(
    source: np.ndarray,
    target: np.ndarray,
    blocks: np.ndarray,
    tail_from: np.ndarray,
    tail_to: np.ndarray,
) -> None:
    """Apply a compaction's moves from ``source`` to ``target``, which
    may be the same array: the tail rows are copied out first, and row
    blocks moving down go in ascending order, blocks moving up in
    descending order, each in steps of at most ``FIT_BLOCK_ROWS`` rows,
    so no row is overwritten before it has moved and no temporary spans
    the store."""
    tail = source[tail_from]
    moves = blocks.tolist()
    down = [move for move in moves if move[1] <= move[0]]
    up = [move for move in reversed(moves) if move[1] > move[0]]
    for src, dst, n in down + up:
        if src == dst and source is target:
            continue
        steps = range(0, n, FIT_BLOCK_ROWS)
        for k in steps if dst <= src else reversed(steps):
            m = min(FIT_BLOCK_ROWS, n - k)
            target[dst + k : dst + k + m] = source[src + k : src + k + m]
    target[tail_to] = tail


class PexesoIndex:
    """Index over a repository of vector columns.

    Args:
        metric: original-space metric (must satisfy the triangle
            inequality; defaults to Euclidean on unit vectors).
        n_pivots: |P|, the pivot-space dimensionality (paper default 5 on
            OPEN, 3 on SWDC).
        levels: m, the hierarchical-grid depth (paper default 6 / 4). Use
            :func:`repro.core.cost.choose_optimal_m` to pick it from data.
            ``n_pivots * levels`` must stay within the 62 bits of a
            linearized cell code (every paper configuration does, by a
            wide margin).
        pivot_method: ``pca`` (paper §III-D), ``random`` or ``fft``.
        seed: randomness for pivot selection.
    """

    def __init__(
        self,
        metric: Optional[Metric] = None,
        n_pivots: int = 5,
        levels: int = 4,
        pivot_method: str = "pca",
        seed: int = 0,
    ):
        if n_pivots < 1:
            raise ValueError("need at least one pivot")
        if levels < 1:
            raise ValueError("need at least one grid level")
        self.metric = metric if metric is not None else EuclideanMetric()
        if not getattr(self.metric, "is_metric", True):
            raise ValueError(
                f"{type(self.metric).__name__} violates the triangle "
                "inequality; pivot filtering would be unsound. For cosine "
                "similarity, unit-normalise the vectors and use "
                "EuclideanMetric (d_e^2 = 2 * d_cos)."
            )
        self.n_pivots = n_pivots
        self.levels = levels
        self.pivot_method = pivot_method
        self.seed = seed
        self.stats = IndexStats()

        self.pivot_space: Optional[PivotSpace] = None
        self.grid: Optional[HierarchicalGrid] = None
        self.inverted: InvertedIndex = InvertedIndex()
        # rows [0, _n_rows) of `_store` are the vector store; the rest is
        # headroom that adds write into. A read-only store (a mmapped
        # epoch) is copied on its first write, never written through.
        self._store: Optional[np.ndarray] = None
        self._next_column_id = 0
        self._n_rows = 0
        # Opt-in ANN candidate tier (repro.core.ann): a column graph, or
        # None. `_ann_invalidated` separates "never built" (a lazy build
        # is allowed) from "dropped by a mutation" (fall back to exact
        # until build_ann_graph() is called again).
        self.ann_graph = None
        self._ann_invalidated = False

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        columns: Sequence[np.ndarray],
        metric: Optional[Metric] = None,
        n_pivots: int = 5,
        levels: int = 4,
        pivot_method: str = "pca",
        seed: int = 0,
    ) -> "PexesoIndex":
        """Build an index from a sequence of ``(n_i, dim)`` vector columns."""
        index = cls(
            metric=metric,
            n_pivots=n_pivots,
            levels=levels,
            pivot_method=pivot_method,
            seed=seed,
        )
        index.fit(columns)
        return index

    def fit(self, columns: Sequence[np.ndarray]) -> "PexesoIndex":
        """Select pivots from the full repository and index every column.

        The index core is built in bulk. The lake is concatenated into
        the store's allocation, pivots are selected from it, and one
        blocked pass maps each block to the pivot space (checking it is
        finite on the way) and encodes its leaf cells. One stable sort of the codes
        then gives the grid (shift-derived ancestor levels of the sorted
        leaves) and the store's leaf order, which a scatter writes
        straight from the input columns over the concatenation. The
        result is identical to appending the columns one at a time with
        :meth:`add_column` and compacting.

        Raises:
            ValueError: on empty, ragged or non-finite columns, or a lake
                past :data:`~repro.core.inverted_index.MAX_ROWS` rows.
        """
        if not columns:
            raise ValueError("cannot build an index over zero columns")
        arrays = [np.asarray(c, dtype=np.float64) for c in columns]
        arrays = [arr if arr.ndim == 2 else np.atleast_2d(arr) for arr in arrays]
        shapes = np.asarray([arr.shape for arr in arrays], dtype=np.intp)
        dim = int(shapes[0, 1])
        if (shapes[:, 1] != dim).any():
            raise ValueError("all columns must share one dimensionality")
        sizes = shapes[:, 0]
        if not sizes.all():
            raise ValueError("cannot index an empty column")
        n_rows = int(sizes.sum())
        check_row_count(n_rows)
        store = np.empty((_capacity(n_rows), dim), dtype=np.float64)
        lake = np.concatenate(arrays, axis=0, out=store[:n_rows])

        t0 = time.perf_counter()
        pivot_space = build_pivot_space(
            lake,
            self.n_pivots,
            self.metric,
            method=self.pivot_method,
            rng=np.random.default_rng(self.seed),
        )
        self.stats.pivot_selection_seconds += time.perf_counter() - t0

        grid = HierarchicalGrid(
            pivot_space.n_pivots, self.levels, pivot_space.extent, store_members=False
        )
        # one pass over the lake in blocks: map a block to the pivot space
        # (which checks it is finite), encode its leaf cells, keep the codes
        codes = np.empty(n_rows, dtype=grid.code_dtype)
        for lo in range(0, n_rows, FIT_BLOCK_ROWS):
            t0 = time.perf_counter()
            mapped = pivot_space.map_vectors(lake[lo : lo + FIT_BLOCK_ROWS])
            t1 = time.perf_counter()
            codes[lo : lo + mapped.shape[0]] = grid.leaf_codes_for(mapped)
            self.stats.pivot_mapping_seconds += t1 - t0
            self.stats.grid_build_seconds += time.perf_counter() - t1

        # one stable sort of the codes serves the grid and the store order
        t0 = time.perf_counter()
        order = stable_code_order(codes, grid.n_dims * self.levels)
        sorted_codes = codes[order]
        del codes
        grid.add_leaves(sorted_codes, n_rows)
        self.stats.grid_build_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        inverted = InvertedIndex()
        inverted.column_ids = np.arange(len(arrays))
        inverted.column_sizes = sizes
        width = posting_dtype(len(arrays))
        positions = np.repeat(np.arange(len(arrays), dtype=width), sizes)[order]
        inverted.build_sorted(sorted_codes, positions, grid.leaf_codes)
        del sorted_codes, positions
        _scatter(arrays, sizes, order, store)
        self.stats.inverted_index_seconds += time.perf_counter() - t0

        self.pivot_space, self.grid, self.inverted = pivot_space, grid, inverted
        self._store = store
        self._next_column_id = len(arrays)
        self._n_rows = n_rows
        self.ann_graph = None
        self._ann_invalidated = False
        self.stats.n_vectors = self._n_rows
        self.stats.n_columns = len(arrays)
        self.stats.n_leaf_cells = grid.leaf_codes.size  # every leaf holds a row
        self.stats.n_postings = inverted.post_cols.size
        return self

    def add_column(self, vectors: np.ndarray) -> int:
        """Append a column (§III-E) and return its assigned column ID.

        Raises:
            ValueError: on an empty or non-finite column, or when the
                store would pass :data:`~repro.core.inverted_index.MAX_ROWS`
                rows (dead rows included).
        """
        if self.pivot_space is None or self.grid is None:
            raise RuntimeError("index is empty: call fit() before add_column()")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[0] == 0:
            raise ValueError("cannot index an empty column")
        check_row_count(self._n_rows + vectors.shape[0])
        t0 = time.perf_counter()
        mapped = self.pivot_space.map_vectors(vectors)
        self.stats.pivot_mapping_seconds += time.perf_counter() - t0
        if np.may_share_memory(vectors, self._store):
            vectors = vectors.copy()  # a compaction may move the rows it views
        self._reserve(vectors.shape[0])

        t0 = time.perf_counter()
        cells = self.grid.insert(mapped)
        self.stats.grid_build_seconds += time.perf_counter() - t0

        column_id = self._next_column_id
        self._next_column_id += 1
        first_row = self._n_rows
        t0 = time.perf_counter()
        added = self.inverted.add_column(column_id, cells, first_row, self.grid.leaf_codes)
        self.stats.inverted_index_seconds += time.perf_counter() - t0

        self._store[first_row : first_row + vectors.shape[0]] = vectors
        self._drop_ann_graph()
        self._n_rows += vectors.shape[0]
        self.stats.n_vectors = self._n_rows
        self.stats.n_columns = len(self.column_rows)
        self.stats.n_leaf_cells = self.inverted.n_cells
        self.stats.n_postings += added
        return column_id

    def delete_column(self, column_id: int) -> None:
        """Remove a column from the inverted index (§III-E lazy deletion).

        The inverted index's postings are the only path from a search to
        a column, so marking them dead removes the column from every
        future result. Its vector rows stay behind as dead rows until they
        exceed :data:`COMPACT_DEAD_SHARE` of the live rows; then the store
        is compacted in place (:meth:`_compact`).
        """
        if column_id not in self.column_rows:
            raise KeyError(f"unknown column id {column_id}")
        self.stats.n_postings -= self.inverted.delete_column(column_id)
        n_live = self._n_live()
        if self._n_rows - n_live > COMPACT_DEAD_SHARE * n_live:
            self._compact()
        self._drop_ann_graph()
        self.stats.n_columns = len(self.column_rows)
        self.stats.n_leaf_cells = self.inverted.n_cells

    # -- approximate candidate tier ----------------------------------------------

    def _drop_ann_graph(self) -> None:
        """Mutations drop the column graph so stale nominations never surface.

        ANN-knobbed requests then run the exact pipeline (recall 1.0)
        until :meth:`build_ann_graph` is called again.
        """
        self.ann_graph = None
        self._ann_invalidated = True

    def build_ann_graph(self, m: Optional[int] = None):
        """(Re)build the opt-in ANN column graph (see :mod:`repro.core.ann`)."""
        from repro.core.ann import DEFAULT_GRAPH_DEGREE, ColumnGraph

        self.ann_graph = ColumnGraph.build(
            self, m=m if m is not None else DEFAULT_GRAPH_DEGREE
        )
        self._ann_invalidated = False
        return self.ann_graph

    def ensure_ann_graph(self):
        """The column graph, building it lazily on first ANN use.

        Returns ``None`` when the index was mutated since the last build
        — the documented exact fallback — or holds no columns.
        """
        if self.ann_graph is None and not self._ann_invalidated and self.column_rows:
            self.build_ann_graph()
        return self.ann_graph

    # -- vector stores -----------------------------------------------------------

    @property
    def vectors(self) -> np.ndarray:
        """Global ``(N, dim)`` vector store, dead rows included.

        A view of the store, not a copy: it is valid until the next
        :meth:`add_column` or :meth:`delete_column`, which may write rows
        in place (an add fills headroom, a compaction moves live rows
        down) or move the store to a bigger allocation.
        """
        if self._store is None:
            raise RuntimeError("index holds no vectors")
        return self._store[: self._n_rows]

    @property
    def column_rows(self) -> ColumnRows:
        """Read-only ``{column_id: store rows}`` view of the inverted
        index's column directory. A column's rows come back ascending,
        which is leaf order, so ``vectors[column_rows[c]]`` holds column
        ``c``'s vectors grouped by leaf (in input order within a leaf)."""
        return ColumnRows(self.inverted)

    def _n_live(self) -> int:
        return int(self.inverted.column_sizes.sum())

    def _reserve(self, n_new: int) -> None:
        """Make the store writable with room for ``n_new`` more rows.

        An add that does not fit compacts the store (:meth:`_compact`):
        in place when dropping the dead rows makes room, else into a
        9/8-sized allocation, as on the first write to a read-only store.
        """
        store = self._store
        if store.flags.writeable and self._n_rows + n_new <= store.shape[0]:
            return
        n_live = self._n_live()
        if store.flags.writeable and n_live + n_new <= store.shape[0]:
            self._compact()
        else:
            grown = np.empty((_capacity(n_live + n_new), self.dim), dtype=np.float64)
            self._compact(grown)

    def _compact(self, target: Optional[np.ndarray] = None) -> None:
        """Drop dead rows and merge the tail into the sorted part.

        Each leaf's live rows close up and its tail rows are appended to
        its range (:meth:`~repro.core.inverted_index.InvertedIndex.compaction`),
        in place unless ``target`` is given; a read-only store is
        compacted into a fresh 9/8-sized allocation instead.
        """
        n_live = self._n_live()
        if target is None:
            target = self._store
            if not target.flags.writeable:
                target = np.empty((_capacity(n_live), self.dim), dtype=np.float64)
        packed, blocks, tail_from, tail_to = self.inverted.compaction()
        _move_rows(self._store, target, blocks, tail_from, tail_to)
        self.inverted, self._store = packed, target
        self._n_rows = self.grid.n_vectors = n_live
        self.stats.n_vectors = n_live

    @property
    def mapped(self) -> np.ndarray:
        """The ``(N, |P|)`` pivot-space image of the vector store.

        Computed on every access and never stored: no search or write
        reads it, so the index does not pay 8·|P| bytes per vector for
        it. Callers needing it more than once keep their own copy.
        """
        vectors = self.vectors  # raises on an empty index
        return self.pivot_space.map_vectors(vectors)

    def packed(self) -> tuple[np.ndarray, InvertedIndex]:
        """The store and inverted index without dead rows or a tail, for
        a save: the index's own (``vectors`` a view) when it holds
        neither, else compacted copies; the index is not changed."""
        if self._n_live() == self._n_rows and not self.inverted.tail_firsts.size:
            return self.vectors, self.inverted
        packed, blocks, tail_from, tail_to = self.inverted.compaction()
        vectors = np.empty((self._n_live(), self.dim), dtype=np.float64)
        _move_rows(self._store, vectors, blocks, tail_from, tail_to)
        return vectors, packed

    @property
    def n_columns(self) -> int:
        return int(self.inverted.column_ids.size)

    @property
    def n_vectors(self) -> int:
        return self._n_rows

    @property
    def dim(self) -> int:
        if self.pivot_space is None:
            raise RuntimeError("index is empty")
        return self.pivot_space.dim

    def column_size(self, column_id: int) -> int:
        """Number of vectors in a column."""
        inverted = self.inverted
        return int(inverted.column_sizes[inverted._position(column_id)])

    # -- reporting ---------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Index memory footprint (pivots + grid + inverted index): the
        ``.nbytes`` of every array they hold, the leaf array the grid and
        the inverted index share counted once.

        Excludes the raw vector store, matching the paper's remark that
        "most memory consumption is the table repository storage". No
        pivot-mapped table is stored (see :attr:`mapped`).
        """
        total = self.pivot_space.pivots.nbytes if self.pivot_space is not None else 0
        if self.grid is not None:
            total += self.grid.memory_bytes()
        total += self.inverted.memory_bytes()
        return total

    def search(self, query_vectors: np.ndarray, tau: float, joinability: float | int, **kwargs):
        """Convenience wrapper around :func:`repro.core.search.pexeso_search`."""
        from repro.core.search import pexeso_search

        return pexeso_search(self, query_vectors, tau, joinability, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PexesoIndex(columns={self.n_columns}, vectors={self.n_vectors}, "
            f"pivots={self.n_pivots}, levels={self.levels})"
        )
