"""Property-based tests on the core data structures (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cellcodes import decode_cells
from repro.core.grid import HierarchicalGrid
from repro.core.inverted_index import InvertedIndex
from repro.core.partition import HistogramSpace, jensen_shannon_divergence
from reference import ReferenceGrid, children_codes, leaf_members, subtree_leaf_codes


@st.composite
def mapped_points(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(1, 80))
    dims = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0, size=(n, dims))


def _box(grid, level, coords):
    size = grid.cell_size(level)
    lo = np.asarray(coords, dtype=np.float64) * size
    return lo, lo + size


class TestGridProperties:
    @settings(max_examples=40, deadline=None)
    @given(points=mapped_points(), levels=st.integers(1, 6))
    def test_members_partition_rows(self, points, levels):
        grid = HierarchicalGrid.build(points, levels=levels, extent=2.0)
        ref = ReferenceGrid(points.shape[1], levels, 2.0)
        ref.insert(points)
        members = []
        for code, coords in zip(
            grid.leaf_codes.tolist(), grid.level_coords(levels).tolist()
        ):
            rows = leaf_members(grid, code).tolist()
            assert rows == ref.leaf_cells[tuple(coords)].members
            members.extend(rows)
        assert sorted(members) == list(range(points.shape[0]))

    @settings(max_examples=40, deadline=None)
    @given(points=mapped_points(), levels=st.integers(1, 6))
    def test_every_leaf_reachable_from_root(self, points, levels):
        grid = HierarchicalGrid.build(points, levels=levels, extent=2.0)
        frontier = [0]
        for level in range(levels):
            frontier = [
                child
                for code in frontier
                for child in children_codes(grid, level, code).tolist()
            ]
        assert frontier == grid.leaf_codes.tolist()
        np.testing.assert_array_equal(subtree_leaf_codes(grid, 0, 0), grid.leaf_codes)

    @settings(max_examples=40, deadline=None)
    @given(points=mapped_points(), levels=st.integers(1, 5))
    def test_child_boxes_nest_inside_parents(self, points, levels):
        grid = HierarchicalGrid.build(points, levels=levels, extent=2.0)
        for level in range(1, levels):
            for code, coords in zip(
                grid.level_codes(level).tolist(), grid.level_coords(level).tolist()
            ):
                lo, hi = _box(grid, level, coords)
                children = children_codes(grid, level, code)
                assert children.size >= 1
                for child in decode_cells(children, grid.n_dims, level + 1).tolist():
                    c_lo, c_hi = _box(grid, level + 1, child)
                    assert (c_lo >= lo - 1e-12).all()
                    assert (c_hi <= hi + 1e-12).all()

    @settings(max_examples=30, deadline=None)
    @given(points=mapped_points(), levels=st.integers(1, 5),
           split=st.integers(1, 79))
    def test_incremental_equals_batch(self, points, levels, split):
        split = min(split, points.shape[0])
        batch = HierarchicalGrid.build(points, levels=levels, extent=2.0)
        incremental = HierarchicalGrid(points.shape[1], levels, 2.0)
        incremental.insert(points[:split])
        if split < points.shape[0]:
            incremental.insert(points[split:])
        for level in range(1, levels + 1):
            np.testing.assert_array_equal(
                batch.level_codes(level), incremental.level_codes(level)
            )
        for code in batch.leaf_codes.tolist():
            np.testing.assert_array_equal(
                leaf_members(batch, code), leaf_members(incremental, code)
            )


def add(index, column_id, cells, first_row):
    """``add_column`` with the leaf level a grid would hold after it."""
    index.add_column(column_id, cells, first_row, np.union1d(index.leaves, cells))


class TestInvertedIndexProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n_columns=st.integers(1, 15))
    def test_postings_track_insertions(self, seed, n_columns):
        rng = np.random.default_rng(seed)
        index = InvertedIndex()
        truth: dict[int, dict[int, list[int]]] = {}
        row = 0
        for col in range(n_columns):
            n_vec = int(rng.integers(1, 10))
            cells = [int(rng.integers(0, 16)) for _ in range(n_vec)]
            add(index, col, cells, first_row=row)
            for offset, cell in enumerate(cells):
                truth.setdefault(cell, {}).setdefault(col, []).append(row + offset)
            row += n_vec
        for cell, expected in truth.items():
            got = {p.column_id: p.rows for p in index.postings(cell)}
            assert got == expected
            assert list(got) == sorted(got)  # DaaT order

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_delete_inverse_of_add(self, seed):
        rng = np.random.default_rng(seed)
        index = InvertedIndex()
        add(index, 0, [0, 5], first_row=0)
        snapshot = {
            cell: [(p.column_id, list(p.rows)) for p in index.postings(cell)]
            for cell in list(index.cells())
        }
        cells = [int(rng.integers(0, 9)) for _ in range(int(rng.integers(1, 8)))]
        add(index, 1, cells, first_row=100)
        index.delete_column(1)
        restored = {
            cell: [(p.column_id, list(p.rows)) for p in index.postings(cell)]
            for cell in list(index.cells())
        }
        assert restored == snapshot


class TestHistogramProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 60))
    def test_histograms_are_distributions(self, seed, n):
        rng = np.random.default_rng(seed)
        sample = rng.normal(size=(max(n, 4), 6))
        space = HistogramSpace(sample)
        hist = space.histogram(sample[:n])
        assert hist.min() >= 0.0
        assert hist.sum() == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_jsd_axioms(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(12))
        q = rng.dirichlet(np.ones(12))
        assert jensen_shannon_divergence(p, q) >= -1e-12
        assert jensen_shannon_divergence(p, q) == pytest.approx(
            jensen_shannon_divergence(q, p)
        )
        assert jensen_shannon_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
