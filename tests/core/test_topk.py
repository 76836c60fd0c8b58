"""Tests for top-k joinable column search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.topk import naive_topk, pexeso_topk


@pytest.fixture(scope="module")
def index(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=3)


class TestTopK:
    @pytest.mark.parametrize("k", [1, 3, 10, 40])
    @pytest.mark.parametrize("tau", [0.3, 0.8, 1.3])
    def test_matches_oracle(self, index, small_columns, small_query, k, tau):
        got = pexeso_topk(index, small_query, tau, k)
        want = naive_topk(small_columns, small_query, tau, k)
        assert [(c, n) for c, n, _ in got.hits] == [(c, n) for c, n, _ in want]

    def test_sorted_by_joinability_then_id(self, index, small_query):
        result = pexeso_topk(index, small_query, 0.9, 10)
        keys = [(-count, cid) for cid, count, _ in result.hits]
        assert keys == sorted(keys)

    def test_k_larger_than_repository(self, index, small_columns, small_query):
        result = pexeso_topk(index, small_query, 0.8, 1000)
        want = naive_topk(small_columns, small_query, 0.8, 1000)
        assert len(result.hits) == len(want)
        assert len(result.hits) <= len(small_columns)

    def test_zero_match_columns_excluded(self, index, small_query):
        result = pexeso_topk(index, small_query, 1e-9, 10)
        assert result.hits == []

    def test_k_one_is_best_column(self, index, small_columns, small_query):
        got = pexeso_topk(index, small_query, 0.9, 1)
        want = naive_topk(small_columns, small_query, 0.9, 1)
        assert got.hits[0][:2] == want[0][:2]

    def test_self_query_ranks_self_first(self, index, small_columns):
        query = small_columns[7]
        result = pexeso_topk(index, query, 1e-6, 1)
        assert result.hits[0][0] == 7
        assert result.hits[0][2] == pytest.approx(1.0)

    def test_invalid_k(self, index, small_query):
        with pytest.raises(ValueError):
            pexeso_topk(index, small_query, 0.5, 0)

    def test_empty_query(self, index):
        with pytest.raises(ValueError):
            pexeso_topk(index, np.zeros((0, 8)), 0.5, 3)

    def test_unbuilt_index(self, small_query):
        with pytest.raises(RuntimeError):
            pexeso_topk(PexesoIndex(), small_query, 0.5, 3)

    def test_deleted_column_excluded(self, small_columns, small_query):
        index = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        full = pexeso_topk(index, small_query, 0.9, 5)
        victim = full.hits[0][0]
        index.delete_column(victim)
        pruned = pexeso_topk(index, small_query, 0.9, 5)
        assert victim not in pruned.column_ids

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12),
           tau=st.floats(0.05, 1.8))
    def test_property_matches_oracle(self, seed, k, tau):
        rng = np.random.default_rng(seed)
        columns = [
            normalize_rows(rng.normal(size=(int(rng.integers(2, 12)), 6)))
            for _ in range(10)
        ]
        query = normalize_rows(rng.normal(size=(6, 6)))
        index = PexesoIndex.build(columns, n_pivots=2, levels=3)
        got = pexeso_topk(index, query, tau, k)
        want = naive_topk(columns, query, tau, k)
        assert [(c, n) for c, n, _ in got.hits] == [(c, n) for c, n, _ in want]


class TestTopKEdgeCases:
    """Property tests for the corners the ranking logic must not bend."""

    def test_k_zero_rejected(self, index, small_query):
        with pytest.raises(ValueError):
            pexeso_topk(index, small_query, 0.5, 0)
        with pytest.raises(ValueError):
            pexeso_topk(index, small_query, 0.5, -3)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), extra=st.integers(0, 30))
    def test_k_at_least_repository_size_returns_all_matching(self, seed, extra):
        rng = np.random.default_rng(seed)
        columns = [
            normalize_rows(rng.normal(size=(int(rng.integers(2, 10)), 5)))
            for _ in range(8)
        ]
        query = normalize_rows(rng.normal(size=(5, 5)))
        index = PexesoIndex.build(columns, n_pivots=2, levels=3)
        got = pexeso_topk(index, query, 0.9, len(columns) + extra)
        want = naive_topk(columns, query, 0.9, len(columns))
        assert [(c, n) for c, n, _ in got.hits] == [(c, n) for c, n, _ in want]
        assert len(got.hits) <= len(columns)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    def test_all_tied_joinabilities_break_by_column_id(self, seed, k):
        # Every column is the same set of vectors, so every joinability
        # ties; the ranking must then be ascending column ID, cut at k.
        rng = np.random.default_rng(seed)
        base = normalize_rows(rng.normal(size=(6, 5)))
        columns = [base.copy() for _ in range(7)]
        query = base[:4]
        index = PexesoIndex.build(columns, n_pivots=2, levels=3)
        got = pexeso_topk(index, query, 1e-6, k)
        assert [c for c, _, _ in got.hits] == list(range(min(k, 7)))
        assert all(n == 4 for _, n, _ in got.hits)

    def test_empty_query_rejected(self, index):
        with pytest.raises(ValueError):
            pexeso_topk(index, np.zeros((0, 8)), 0.5, 3)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
    def test_tau_matching_nothing_yields_empty(self, seed, k):
        rng = np.random.default_rng(seed)
        columns = [
            normalize_rows(rng.normal(size=(int(rng.integers(2, 8)), 5)))
            for _ in range(6)
        ]
        # A query orthogonal-ish and a τ far below any realistic distance.
        query = normalize_rows(rng.normal(size=(4, 5))) * -1.0
        index = PexesoIndex.build(columns, n_pivots=2, levels=3)
        got = pexeso_topk(index, query, 1e-12, k)
        assert got.hits == naive_topk(columns, query, 1e-12, k)
