"""Tests for the cell-code -> column CSR inverted index."""

import numpy as np
import pytest

from repro.core.inverted_index import InvertedIndex, Posting


class TestAddColumn:
    def test_basic_postings(self):
        index = InvertedIndex()
        index.add_column(0, [5, 5, 9], first_row=0)
        postings = index.postings(5)
        assert len(postings) == 1
        assert postings[0].column_id == 0
        assert postings[0].rows == [0, 1]
        assert index.postings(9)[0].rows == [2]

    def test_postings_sorted_by_column(self):
        index = InvertedIndex()
        index.add_column(2, [5], first_row=10)
        index.add_column(0, [5], first_row=0)
        index.add_column(1, [5], first_row=5)
        assert [p.column_id for p in index.postings(5)] == [0, 1, 2]

    def test_unknown_cell_empty(self):
        assert InvertedIndex().postings(99) == []

    def test_contains(self):
        index = InvertedIndex()
        index.add_column(0, [12], first_row=0)
        assert 12 in index
        assert 0 not in index

    def test_n_cells_and_postings(self):
        index = InvertedIndex()
        index.add_column(0, [5, 9], first_row=0)
        index.add_column(1, [5], first_row=2)
        assert index.n_cells == 2
        assert index.n_postings == 3

    def test_add_vector_merges_into_existing_posting(self):
        index = InvertedIndex()
        index.add_vector(5, 3, 7)
        index.add_vector(5, 3, 8)
        assert index.postings(5)[0].rows == [7, 8]
        assert index.n_postings == 1

    def test_numpy_cells_accepted(self):
        index = InvertedIndex()
        index.add_column(0, np.array([5, 5, 9], dtype=np.int64), first_row=0)
        assert index.postings(5)[0].rows == [0, 1]


class TestBuildBulk:
    def test_equals_incremental_appends(self):
        rng = np.random.default_rng(7)
        cells = rng.integers(0, 30, size=60)
        cols = np.sort(rng.integers(0, 6, size=60))
        bulk = InvertedIndex()
        bulk.build_bulk(cells, cols, np.argsort(cells, kind="stable"))
        incremental = InvertedIndex()
        for col in np.unique(cols):
            mask = cols == col
            first = int(np.nonzero(mask)[0][0])
            incremental.add_column(int(col), cells[mask], first_row=first)
        assert bulk.n_postings == incremental.n_postings
        for cell in bulk.cells():
            got = [(p.column_id, p.rows) for p in bulk.postings(cell)]
            want = [(p.column_id, p.rows) for p in incremental.postings(cell)]
            assert got == want

    def test_empty_build(self):
        index = InvertedIndex()
        index.build_bulk(np.empty(0), np.empty(0), np.empty(0))
        assert index.n_postings == 0
        assert index.n_cells == 0

    def test_columns_out_of_row_order_are_refused(self):
        cells = np.array([3, 1, 2])
        with pytest.raises(ValueError):
            InvertedIndex().build_bulk(
                cells, np.array([0, 2, 1]), np.argsort(cells, kind="stable")
            )


class TestDeleteColumn:
    def test_delete_removes_postings(self):
        index = InvertedIndex()
        index.add_column(0, [5, 9], first_row=0)
        index.add_column(1, [5], first_row=2)
        removed = index.delete_column(0)
        assert removed == 2
        assert [p.column_id for p in index.postings(5)] == [1]

    def test_delete_drops_empty_cells(self):
        index = InvertedIndex()
        index.add_column(0, [55], first_row=0)
        index.delete_column(0)
        assert 55 not in index
        assert index.n_cells == 0

    def test_delete_unknown_column_is_noop(self):
        index = InvertedIndex()
        index.add_column(0, [5], first_row=0)
        assert index.delete_column(42) == 0
        assert index.n_postings == 1


class TestColumnsInCells:
    def test_merge_multiple_cells(self):
        index = InvertedIndex()
        index.add_column(1, [5, 9], first_row=0)
        index.add_column(0, [9], first_row=2)
        merged = index.columns_in_cells([5, 9])
        assert list(merged) == [0, 1]  # DaaT order
        assert merged[1] == [0, 1]
        assert merged[0] == [2]

    def test_daat_order_increasing(self):
        index = InvertedIndex()
        for col in (5, 3, 9, 1):
            index.add_column(col, [7], first_row=col * 10)
        merged = index.columns_in_cells([7])
        assert list(merged) == sorted(merged)

    def test_empty_cells_ignored(self):
        index = InvertedIndex()
        index.add_column(0, [5], first_row=0)
        assert index.columns_in_cells([77]) == {}

    def test_arrays_form_matches_dict_form(self):
        rng = np.random.default_rng(3)
        index = InvertedIndex()
        row = 0
        for col in range(8):
            n = int(rng.integers(1, 12))
            index.add_column(col, rng.integers(0, 10, size=n), first_row=row)
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
        index.add_column(0, [5], first_row=0)
        assert index.memory_bytes() > 0


class TestPostingOrdering:
    def test_lt_by_column(self):
        assert Posting(1, []) < Posting(2, [])
        assert not Posting(2, []) < Posting(1, [])
