"""The array-native index core must equal the preserved seed builder.

``tests/core/reference.py`` keeps the original row-by-row grid insert and
``insort``-based postings build. These tests check, on randomised lakes,
that the CSR inverted index and code-array grid hold exactly the same
structure: same populated cells, same postings per cell (column order and
row contents), same per-level cell sets.
"""

import numpy as np
import pytest

from repro.core.cellcodes import encode_cells
from repro.core.grid import HierarchicalGrid
from repro.core.inverted_index import InvertedIndex
from reference import build_bulk, build_reference_structures


def random_mapped_columns(seed, n_columns=25, n_dims=3, extent=2.0):
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(0.0, extent, size=(int(rng.integers(1, 18)), n_dims))
        for _ in range(n_columns)
    ], n_dims, extent


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("levels", [1, 3, 4])
def test_csr_postings_equal_reference(seed, levels):
    mapped_columns, n_dims, extent = random_mapped_columns(seed)
    ref_grid, ref_inverted = build_reference_structures(mapped_columns, levels, extent)

    grid = HierarchicalGrid(n_dims, levels, extent, store_members=False)
    inverted = InvertedIndex()
    first_row = 0
    codes_all = []
    cols_all = []
    for column_id, mapped in enumerate(mapped_columns):
        codes = grid.insert(mapped)
        codes_all.append(codes)
        cols_all.append(np.full(codes.size, column_id, dtype=np.int64))
        first_row += mapped.shape[0]
    codes_all = np.concatenate(codes_all)
    order = np.argsort(codes_all, kind="stable")
    build_bulk(inverted, codes_all, np.concatenate(cols_all), order, grid.leaf_codes)

    assert inverted.n_postings == ref_inverted.n_postings
    assert inverted.n_cells == ref_inverted.n_cells

    reference = ref_inverted.postings_by_cell()
    for coords, postings in reference.items():
        code = int(
            encode_cells(np.asarray([coords], dtype=np.int64), n_dims, levels)[0]
        )
        # store row i of the leaf-ordered build holds input row order[i]
        got = [(p.column_id, order[p.rows].tolist()) for p in inverted.postings(code)]
        assert got == postings

    # per-level cell sets agree (codes decode to the reference coordinates)
    for level in range(1, levels + 1):
        got_coords = {tuple(c) for c in grid.level_coords(level).tolist()}
        assert got_coords == set(ref_grid.cells[level])


@pytest.mark.parametrize("seed", [3, 4])
def test_bulk_build_equals_incremental_appends(seed, levels=3):
    mapped_columns, n_dims, extent = random_mapped_columns(seed, n_columns=12)

    bulk_grid = HierarchicalGrid(n_dims, levels, extent, store_members=False)
    stacked = np.concatenate([np.atleast_2d(c) for c in mapped_columns])
    sizes = [np.atleast_2d(c).shape[0] for c in mapped_columns]
    codes = bulk_grid.insert(stacked)
    bulk = InvertedIndex()
    build_bulk(
        bulk,
        codes,
        np.repeat(np.arange(len(sizes), dtype=np.int64), sizes),
        np.argsort(codes, kind="stable"),
        bulk_grid.leaf_codes,
    )

    inc_grid = HierarchicalGrid(n_dims, levels, extent, store_members=False)
    inc = InvertedIndex()
    first_row = 0
    for column_id, mapped in enumerate(mapped_columns):
        cells = inc_grid.insert(mapped)
        inc.add_column(column_id, cells, first_row, inc_grid.leaf_codes)
        first_row += np.atleast_2d(mapped).shape[0]

    for level in range(1, levels + 1):
        np.testing.assert_array_equal(
            bulk_grid.level_codes(level), inc_grid.level_codes(level)
        )
    # the appends sit in the tail; compacted into their leaves they are
    # the bulk build's leaf-ordered layout
    packed = inc.compaction()[0]
    for name in (
        "leaves", "leaf_starts", "leaf_posts", "post_bits", "post_cols",
        "column_ids", "column_sizes",
    ):
        np.testing.assert_array_equal(getattr(bulk, name), getattr(packed, name))


def test_delete_column_equals_reference_delete():
    mapped_columns, n_dims, extent = random_mapped_columns(9, n_columns=10)
    levels = 3
    ref_grid, ref_inverted = build_reference_structures(mapped_columns, levels, extent)

    grid = HierarchicalGrid(n_dims, levels, extent, store_members=False)
    inverted = InvertedIndex()
    first_row = 0
    for column_id, mapped in enumerate(mapped_columns):
        cells = grid.insert(mapped)
        inverted.add_column(column_id, cells, first_row, grid.leaf_codes)
        first_row += mapped.shape[0]

    for victim in (3, 7):
        assert inverted.delete_column(victim) == ref_inverted.delete_column(victim)
    assert inverted.n_postings == ref_inverted.n_postings
    assert inverted.n_cells == ref_inverted.n_cells
    for coords, postings in ref_inverted.postings_by_cell().items():
        code = int(
            encode_cells(np.asarray([coords], dtype=np.int64), n_dims, levels)[0]
        )
        assert [(p.column_id, p.rows) for p in inverted.postings(code)] == postings
