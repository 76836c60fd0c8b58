"""Tests for the sparse hierarchical grid.

The grid has no per-cell objects; structure is asserted through the
array API (``level_codes`` / ``level_coords``, ``members_csr``), the
range lookups over it in ``reference`` (``children_codes``,
``leaf_members``, ``subtree_leaf_codes``, ``subtree_member_rows``) and
checked cell for cell against the object-tree oracle
``reference.ReferenceGrid``.
"""

import numpy as np
import pytest

from repro.core.cellcodes import decode_cells, encode_cells
from repro.core.grid import HierarchicalGrid
from reference import (
    ReferenceGrid,
    children_codes,
    leaf_members,
    subtree_leaf_codes,
    subtree_member_rows,
)


@pytest.fixture()
def mapped():
    rng = np.random.default_rng(0)
    return rng.uniform(0.0, 2.0, size=(100, 3))


def reference_grid(mapped, levels, extent=2.0):
    ref = ReferenceGrid(mapped.shape[1], levels, extent)
    ref.insert(mapped)
    return ref


def level_cells(grid, level):
    """``(code, coords tuple)`` of every populated cell of one level."""
    codes = grid.level_codes(level)
    return list(zip(codes.tolist(), map(tuple, grid.level_coords(level).tolist())))


def cell_box(grid, level, coords):
    size = grid.cell_size(level)
    lo = np.asarray(coords, dtype=np.float64) * size
    return lo, lo + size


class TestConstruction:
    def test_every_vector_lands_in_one_leaf(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        ref = reference_grid(mapped, levels=3)
        members = []
        for code, coords in level_cells(grid, 3):
            rows = leaf_members(grid, code).tolist()
            assert rows == ref.leaf_cells[coords].members
            members.extend(rows)
        assert sorted(members) == list(range(100))

    def test_leaf_count_bounded_by_vectors(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=4, extent=2.0)
        assert grid.leaf_codes.size <= 100

    def test_level_cell_counts_are_monotone(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=4, extent=2.0)
        sizes = [grid.level_codes(level).size for level in range(1, 5)]
        assert sizes == sorted(sizes)

    def test_root_children_cover_level1(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        np.testing.assert_array_equal(children_codes(grid, 0, 0), grid.level_codes(1))

    def test_parent_child_nesting(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        ref = reference_grid(mapped, levels=3)
        for level in range(1, 3):
            seen = []
            for code, coords in level_cells(grid, level):
                children = children_codes(grid, level, code)
                child_coords = {
                    tuple(c) for c in decode_cells(children, 3, level + 1).tolist()
                }
                assert all(
                    tuple(c >> 1 for c in child) == coords for child in child_coords
                )
                assert child_coords == {
                    child.coords for child in ref.cells[level][coords].children
                }
                seen.extend(children.tolist())
            # every cell of the next level hangs under exactly one parent
            assert sorted(seen) == grid.level_codes(level + 1).tolist()

    def test_vectors_inside_their_leaf_box(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        for code, coords in level_cells(grid, 3):
            lo, hi = cell_box(grid, 3, coords)
            for m in leaf_members(grid, code):
                # boundary values may be clipped into the last cell
                assert (mapped[m] >= lo - 1e-9).all()
                assert (mapped[m] <= hi + 1e-9).all() or np.isclose(
                    mapped[m], 2.0
                ).any()

    def test_boundary_value_clipped_to_last_cell(self):
        grid = HierarchicalGrid.build(np.array([[2.0, 2.0]]), levels=2, extent=2.0)
        assert grid.level_coords(2).tolist() == [[3, 3]]

    def test_store_members_false(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=2, extent=2.0, store_members=False)
        with pytest.raises(RuntimeError):
            leaf_members(grid, int(grid.leaf_codes[0]))
        with pytest.raises(RuntimeError):
            subtree_member_rows(grid, 0, 0)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_levels(self, bad):
        with pytest.raises(ValueError):
            HierarchicalGrid(2, bad, 2.0)

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            HierarchicalGrid(2, 2, 0.0)

    def test_dim_mismatch_on_insert(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=2, extent=2.0)
        with pytest.raises(ValueError):
            grid.insert(np.zeros((2, 5)))


class TestGeometry:
    def test_cell_size_halves_per_level(self):
        grid = HierarchicalGrid(2, 3, extent=2.0)
        assert grid.cell_size(1) == 1.0
        assert grid.cell_size(2) == 0.5
        assert grid.cell_size(3) == 0.25

    def test_cell_box(self):
        grid = HierarchicalGrid.build(np.array([[0.6, 1.4]]), levels=2, extent=2.0)
        ((_, coords),) = level_cells(grid, 2)
        lo, hi = cell_box(grid, 2, coords)
        np.testing.assert_allclose(hi - lo, 0.5)
        assert (np.array([0.6, 1.4]) >= lo).all()
        assert (np.array([0.6, 1.4]) <= hi).all()

    def test_root_box_is_whole_space(self):
        grid = HierarchicalGrid(3, 2, extent=2.0)
        assert grid.level_codes(0).tolist() == [0]
        lo, hi = cell_box(grid, 0, (0, 0, 0))
        np.testing.assert_allclose(lo, 0.0)
        np.testing.assert_allclose(hi, 2.0)

    def test_leaf_coords_match_manual_formula(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        coords = grid.leaf_coords_for(mapped)
        manual = np.clip((mapped / (2.0 / 8)).astype(int), 0, 7)
        np.testing.assert_array_equal(coords, manual)


class TestTraversal:
    def test_subtree_leaves_of_root_is_all(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        np.testing.assert_array_equal(subtree_leaf_codes(grid, 0, 0), grid.leaf_codes)
        assert {coords for _, coords in level_cells(grid, 3)} == set(
            reference_grid(mapped, levels=3).leaf_cells
        )

    def test_subtree_members_of_root_is_all(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        assert sorted(subtree_member_rows(grid, 0, 0).tolist()) == list(range(100))

    def test_subtree_of_leaf_is_itself(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        leaf = int(grid.leaf_codes[0])
        assert subtree_leaf_codes(grid, 3, leaf).tolist() == [leaf]
        np.testing.assert_array_equal(
            subtree_member_rows(grid, 3, leaf), leaf_members(grid, leaf)
        )

    def test_n_cells(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=3, extent=2.0)
        assert grid.n_cells == sum(grid.level_codes(level).size for level in (1, 2, 3))
        ref = reference_grid(mapped, levels=3)
        assert grid.n_cells == sum(len(ref.cells[level]) for level in (1, 2, 3))


class TestIncrementalInsert:
    def test_insert_returns_leaf_codes(self):
        grid = HierarchicalGrid(2, 2, extent=2.0)
        codes = grid.insert(np.array([[0.1, 0.1], [1.9, 1.9]]))
        expected = encode_cells(np.array([[0, 0], [3, 3]]), n_dims=2, bits_per_axis=2)
        np.testing.assert_array_equal(codes, expected)

    def test_row_indices_continue_across_inserts(self):
        grid = HierarchicalGrid(2, 2, extent=2.0)
        grid.insert(np.array([[0.1, 0.1]]))
        grid.insert(np.array([[0.1, 0.1]]))
        origin = int(encode_cells(np.array([[0, 0]]), n_dims=2, bits_per_axis=2)[0])
        assert leaf_members(grid, origin).tolist() == [0, 1]

    def test_insert_creates_ancestors_once(self):
        grid = HierarchicalGrid(2, 3, extent=2.0)
        grid.insert(np.array([[0.1, 0.1], [0.11, 0.11]]))
        assert grid.level_codes(1).size == 1
        assert children_codes(grid, 0, 0).size == 1

    def test_memory_bytes_positive(self, mapped):
        grid = HierarchicalGrid.build(mapped, levels=2, extent=2.0)
        assert grid.memory_bytes() > 0
