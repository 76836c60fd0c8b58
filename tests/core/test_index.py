"""Tests for PexesoIndex construction and maintenance (§III-E)."""

import pickle
import time

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.allpairs import discover_joinable_pairs
from repro.core.index import PexesoIndex
from repro.core.inverted_index import ColumnRows
from repro.core.metric import ManhattanMetric, normalize_rows
from repro.core.search import pexeso_search


def by_value(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])]


@pytest.fixture()
def columns():
    rng = np.random.default_rng(0)
    return [normalize_rows(rng.normal(size=(rng.integers(3, 15), 6))) for _ in range(20)]


class TestBuild:
    def test_column_ids_sequential(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=2)
        assert sorted(index.column_rows) == list(range(20))

    def test_column_rows_partition_vector_store(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=2)
        all_rows = np.concatenate([index.column_rows[c] for c in sorted(index.column_rows)])
        # every store row belongs to exactly one column
        np.testing.assert_array_equal(np.sort(all_rows), np.arange(index.n_vectors))

    def test_vectors_roundtrip(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=2)
        for cid, column in enumerate(columns):
            # the store is in leaf order: a column's rows come back grouped
            # by leaf, so compare them as a set of rows
            np.testing.assert_array_equal(
                by_value(index.vectors[index.column_rows[cid]]), by_value(column)
            )

    def test_mapped_consistent_with_pivot_space(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=2)
        recomputed = index.pivot_space.map_vectors(index.vectors)
        np.testing.assert_allclose(index.mapped, recomputed, atol=1e-12)

    def test_empty_repository_raises(self):
        with pytest.raises(ValueError):
            PexesoIndex.build([])

    def test_mixed_dims_raise(self, columns):
        bad = columns + [np.zeros((3, 9))]
        with pytest.raises(ValueError, match="dimensionality"):
            PexesoIndex.build(bad)

    def test_empty_column_raises(self, columns):
        index = PexesoIndex.build(columns)
        with pytest.raises(ValueError):
            index.add_column(np.zeros((0, 6)))

    def test_add_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PexesoIndex().add_column(np.zeros((2, 4)))

    @pytest.mark.parametrize("bad_kwargs", [dict(n_pivots=0), dict(levels=0)])
    def test_invalid_params(self, bad_kwargs):
        with pytest.raises(ValueError):
            PexesoIndex(**bad_kwargs)

    def test_alternative_metric(self, columns):
        index = PexesoIndex.build(columns, metric=ManhattanMetric(), n_pivots=2, levels=2)
        assert index.pivot_space.extent == ManhattanMetric().max_distance(6)

    def test_stats_populated(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=2)
        assert index.stats.n_vectors == index.n_vectors
        assert index.stats.n_columns == 20
        assert index.stats.n_leaf_cells == index.inverted.n_cells
        assert index.stats.total_seconds >= 0.0

    def test_stage_timers_fit_inside_fit(self, columns):
        index = PexesoIndex(n_pivots=3, levels=2)
        started = time.perf_counter()
        index.fit(columns)
        wall = time.perf_counter() - started
        stats = index.stats
        stages = [
            stats.pivot_selection_seconds,
            stats.pivot_mapping_seconds,
            stats.grid_build_seconds,
            stats.inverted_index_seconds,
        ]
        assert all(seconds > 0.0 for seconds in stages)
        assert sum(stages) <= wall

    def test_memory_bytes_positive(self, columns):
        assert PexesoIndex.build(columns).memory_bytes() > 0


class TestAppend:
    def test_append_then_search_finds_new_column(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        query = columns[0][:5]
        new_id = index.add_column(query.copy())
        result = pexeso_search(index, query, tau=1e-4, joinability=1.0)
        assert new_id in result.column_ids

    def test_append_preserves_exactness(self, columns):
        index = PexesoIndex.build(columns[:15], n_pivots=3, levels=3)
        for column in columns[15:]:
            index.add_column(column)
        rng = np.random.default_rng(5)
        query = normalize_rows(rng.normal(size=(8, 6)))
        got = pexeso_search(index, query, 0.8, 0.25).column_ids
        want = naive_search(columns, query, 0.8, 0.25).column_ids
        assert got == want


class TestDelete:
    def test_deleted_column_never_returned(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        query = columns[3][:6]
        before = pexeso_search(index, query, tau=1e-4, joinability=1.0)
        assert 3 in before.column_ids
        index.delete_column(3)
        after = pexeso_search(index, query, tau=1e-4, joinability=1.0)
        assert 3 not in after.column_ids

    def test_delete_preserves_other_results(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        index.delete_column(7)
        rng = np.random.default_rng(6)
        query = normalize_rows(rng.normal(size=(8, 6)))
        got = pexeso_search(index, query, 0.8, 0.25).column_ids
        remaining = {cid: col for cid, col in enumerate(columns) if cid != 7}
        want = [
            cid for cid in sorted(remaining)
            if cid in set(
                naive_search(columns, query, 0.8, 0.25).column_ids
            )
        ]
        assert got == want

    def test_delete_unknown_raises(self, columns):
        index = PexesoIndex.build(columns)
        with pytest.raises(KeyError):
            index.delete_column(999)

    def test_column_size(self, columns):
        index = PexesoIndex.build(columns)
        assert index.column_size(0) == columns[0].shape[0]


class TestColumnMembership:
    def test_membership_never_builds_rows(self, columns, monkeypatch):
        """``column_id in index.column_rows`` reads the column directory:
        the delete path, the engine's per-hit filter and ``allpairs``
        build a column's rows only where they read its vectors."""
        index = PexesoIndex.build(columns, n_pivots=3, levels=2)
        calls = []
        real = ColumnRows.__getitem__

        def counted(self, column_id):
            calls.append(column_id)
            return real(self, column_id)

        monkeypatch.setattr(ColumnRows, "__getitem__", counted)
        assert 3 in index.column_rows
        assert 99 not in index.column_rows and "3" not in index.column_rows
        index.delete_column(5)
        assert 5 not in index.column_rows
        assert index.search(columns[3], 0.5, 0.3).joinable
        assert calls == []
        graph = discover_joinable_pairs(index, 0.5, 0.3, include_self=True, column_ids=[1, 2])
        assert graph.edges
        assert sorted(calls) == [1, 2]  # one row read per query column


class TestPickle:
    def test_roundtrip_search_identical(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        clone = pickle.loads(pickle.dumps(index))
        rng = np.random.default_rng(7)
        query = normalize_rows(rng.normal(size=(6, 6)))
        assert (
            pexeso_search(index, query, 0.7, 0.3).column_ids
            == pexeso_search(clone, query, 0.7, 0.3).column_ids
        )
