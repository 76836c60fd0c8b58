"""Tests for the leaf cell -> row CSR inverted index."""

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.inverted_index import MAX_ROWS, InvertedIndex, Posting, check_row_count
from reference import build_bulk


def add(index, column_id, cells, first_row):
    """``add_column`` with the leaf level a grid would hold after it."""
    index.add_column(column_id, cells, first_row, np.union1d(index.leaves, cells))


class TestAddColumn:
    def test_basic_postings(self):
        index = InvertedIndex()
        add(index, 0, [5, 5, 9], first_row=0)
        postings = index.postings(5)
        assert len(postings) == 1
        assert postings[0].column_id == 0
        assert postings[0].rows == [0, 1]
        assert index.postings(9)[0].rows == [2]

    def test_postings_sorted_by_column(self):
        index = InvertedIndex()
        add(index, 0, [5, 9], first_row=0)
        add(index, 1, [9, 5], first_row=2)
        add(index, 2, [5], first_row=10)
        assert [p.column_id for p in index.postings(5)] == [0, 1, 2]
        assert [p.rows for p in index.postings(5)] == [[0], [3], [10]]

    @pytest.mark.parametrize("column_id, first_row", [(0, 20), (2, 20), (3, 9)])
    def test_columns_must_come_after_the_indexed_ones(self, column_id, first_row):
        index = InvertedIndex()
        add(index, 0, [5], first_row=0)
        add(index, 2, [5, 7], first_row=8)
        with pytest.raises(ValueError):
            add(index, column_id, [5], first_row=first_row)
        assert index.n_postings == 3

    def test_shares_the_leaf_array_it_is_given(self):
        index = InvertedIndex()
        add(index, 0, [5, 9], first_row=0)
        leaves = np.array([1, 5, 7, 9, 12], dtype=np.int64)
        index.add_column(1, [7, 5], 2, leaves)
        assert index.leaves is leaves
        # appended columns live in the tail: the sorted part stays empty
        assert index.leaf_starts.tolist() == [0, 0, 0, 0, 0, 0]
        assert index.tail_codes.tolist() == [5, 7, 9]
        assert index.tail_starts.tolist() == [0, 2, 3, 4]
        assert index.tail_rows.tolist() == [0, 3, 2, 1]
        assert 1 not in index and 12 not in index

    def test_unknown_cell_empty(self):
        assert InvertedIndex().postings(99) == []

    def test_contains(self):
        index = InvertedIndex()
        add(index, 0, [12], first_row=0)
        assert 12 in index
        assert 0 not in index

    def test_n_cells_and_postings(self):
        index = InvertedIndex()
        add(index, 0, [5, 9], first_row=0)
        add(index, 1, [5], first_row=2)
        assert index.n_cells == 2
        assert index.n_postings == 3

    def test_numpy_cells_accepted(self):
        index = InvertedIndex()
        add(index, 0, np.array([5, 5, 9], dtype=np.int64), first_row=0)
        assert index.postings(5)[0].rows == [0, 1]


class TestBuildBulk:
    def test_equals_incremental_appends(self):
        rng = np.random.default_rng(7)
        cells = rng.integers(0, 30, size=60)
        cols = np.sort(rng.integers(0, 6, size=60))
        bulk = InvertedIndex()
        order = np.argsort(cells, kind="stable")
        build_bulk(bulk, cells, cols, order, np.unique(cells))
        incremental = InvertedIndex()
        for col in np.unique(cols):
            mask = cols == col
            first = int(np.nonzero(mask)[0][0])
            add(incremental, int(col), cells[mask], first_row=first)
        assert bulk.n_postings == incremental.n_postings
        for cell in bulk.cells():
            # a bulk build's rows are store rows in leaf order: store row
            # i holds input row order[i]
            got = [(p.column_id, order[p.rows].tolist()) for p in bulk.postings(cell)]
            want = [(p.column_id, p.rows) for p in incremental.postings(cell)]
            assert got == want

    def test_empty_build(self):
        index = InvertedIndex()
        build_bulk(index, np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
        assert index.n_postings == 0
        assert index.n_cells == 0

    def test_columns_out_of_row_order_are_refused(self):
        cells = np.array([3, 1, 2])
        with pytest.raises(ValueError):
            build_bulk(
                InvertedIndex(),
                cells,
                np.array([0, 2, 1]),
                np.argsort(cells, kind="stable"),
                np.unique(cells),
            )


class TestDeleteColumn:
    def test_delete_removes_postings(self):
        index = InvertedIndex()
        add(index, 0, [5, 9], first_row=0)
        add(index, 1, [5], first_row=2)
        removed = index.delete_column(0)
        assert removed == 2
        assert [p.column_id for p in index.postings(5)] == [1]

    def test_delete_drops_empty_cells(self):
        index = InvertedIndex()
        add(index, 0, [55], first_row=0)
        index.delete_column(0)
        assert 55 not in index
        assert index.n_cells == 0

    def test_delete_unknown_column_is_noop(self):
        index = InvertedIndex()
        add(index, 0, [5], first_row=0)
        assert index.delete_column(42) == 0
        assert index.n_postings == 1


class TestColumnsInCells:
    def test_merge_multiple_cells(self):
        index = InvertedIndex()
        add(index, 0, [9], first_row=0)
        add(index, 1, [9, 5], first_row=1)
        merged = index.columns_in_cells([5, 9])
        assert list(merged) == [0, 1]  # DaaT order
        assert merged[1] == [1, 2]
        assert merged[0] == [0]

    def test_daat_order_increasing(self):
        index = InvertedIndex()
        for col in (1, 3, 5, 9):
            add(index, col, [7, 2, 7], first_row=col * 10)
        merged = index.columns_in_cells([7, 2])
        assert list(merged) == [1, 3, 5, 9]
        assert merged[5] == [50, 51, 52]

    def test_empty_cells_ignored(self):
        index = InvertedIndex()
        add(index, 0, [5], first_row=0)
        assert index.columns_in_cells([77]) == {}

    def test_arrays_form_matches_dict_form(self):
        rng = np.random.default_rng(3)
        index = InvertedIndex()
        row = 0
        for col in range(8):
            n = int(rng.integers(1, 12))
            add(index, col, rng.integers(0, 10, size=n), first_row=row)
            row += n
        probe = [0, 3, 7, 9, 42]
        cols, rows, lens = index.columns_in_cells_arrays(probe)
        merged = index.columns_in_cells(probe)
        assert cols.tolist() == list(merged)
        offset = 0
        for col, length in zip(cols.tolist(), lens.tolist()):
            assert rows[offset : offset + length].tolist() == merged[col]
            offset += length

    def test_memory_bytes_positive(self):
        index = InvertedIndex()
        add(index, 0, [5], first_row=0)
        assert index.memory_bytes() > 0


class TestPostingOrdering:
    def test_lt_by_column(self):
        assert Posting(1, []) < Posting(2, [])
        assert not Posting(2, []) < Posting(1, [])


class TestRowBound:
    """Rows are int32: an index past 2**31 - 1 rows is refused, before
    anything is allocated (the columns below are zero-stride views)."""

    @staticmethod
    def rows(n: int, dim: int = 4) -> np.ndarray:
        return np.broadcast_to(np.full((1, dim), 0.5), (n, dim))

    def test_the_bound_is_int32(self):
        assert MAX_ROWS == 2**31 - 1
        check_row_count(MAX_ROWS)
        with pytest.raises(ValueError, match="PartitionedPexeso"):
            check_row_count(MAX_ROWS + 1)

    def test_fit_refuses_a_lake_past_the_bound(self):
        columns = [self.rows(2**30), self.rows(2**30)]
        with pytest.raises(ValueError, match="PartitionedPexeso"):
            PexesoIndex().fit(columns)

    def test_add_column_refuses_a_store_past_the_bound(self, small_columns):
        index = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        before = index.n_vectors, index.n_columns, [a.copy() for a in index.inverted.arrays()]
        with pytest.raises(ValueError, match="PartitionedPexeso"):
            index.add_column(self.rows(MAX_ROWS - index.n_vectors + 1, dim=8))
        assert (index.n_vectors, index.n_columns) == before[:2]
        for got, want in zip(index.inverted.arrays(), before[2]):
            np.testing.assert_array_equal(got, want)
        index.add_column(small_columns[0])  # still writable
