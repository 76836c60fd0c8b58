"""Tests for Algorithm 3 — the assembled search — including the central
exactness property against the naive oracle and all ablations."""

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.search import ABLATIONS, AblationFlags, pexeso_search


@pytest.fixture(scope="module")
def index(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=3)


class TestExactness:
    @pytest.mark.parametrize("tau", [0.1, 0.4, 0.9, 1.5])
    @pytest.mark.parametrize("joinability", [0.1, 0.4, 0.8])
    def test_matches_naive(self, index, small_columns, small_query, tau, joinability):
        got = pexeso_search(index, small_query, tau, joinability).column_ids
        want = naive_search(small_columns, small_query, tau, joinability).column_ids
        assert got == want

    @pytest.mark.parametrize("name", list(ABLATIONS))
    def test_ablations_preserve_exactness(self, index, small_columns, small_query, name):
        tau, joinability = 0.8, 0.3
        got = pexeso_search(index, small_query, tau, joinability, flags=ABLATIONS[name])
        want = naive_search(small_columns, small_query, tau, joinability)
        assert got.column_ids == want.column_ids

    def test_all_flags_off_still_exact(self, index, small_columns, small_query):
        got = pexeso_search(
            index, small_query, 0.7, 0.3, flags=AblationFlags.none()
        ).column_ids
        want = naive_search(small_columns, small_query, 0.7, 0.3).column_ids
        assert got == want

    def test_exact_counts_match_naive(self, index, small_columns, small_query):
        res = pexeso_search(index, small_query, 0.9, 0.2)
        ref = naive_search(small_columns, small_query, 0.9, 0.2)
        assert {h.column_id: h.match_count for h in res.joinable} == {
            h.column_id: h.match_count for h in ref.joinable
        }

    def test_clustered_data_exact(self, clustered_columns):
        index = PexesoIndex.build(clustered_columns, n_pivots=4, levels=4)
        query = clustered_columns[0]
        for tau in (0.05, 0.2, 0.5):
            got = pexeso_search(index, query, tau, 0.5).column_ids
            want = naive_search(clustered_columns, query, tau, 0.5).column_ids
            assert got == want

    @pytest.mark.parametrize("n_pivots", [1, 2, 5, 7])
    @pytest.mark.parametrize("levels", [1, 2, 4, 6])
    def test_exact_for_all_grid_shapes(self, small_columns, small_query, n_pivots, levels):
        index = PexesoIndex.build(small_columns, n_pivots=n_pivots, levels=levels)
        got = pexeso_search(index, small_query, 0.6, 0.3).column_ids
        want = naive_search(small_columns, small_query, 0.6, 0.3).column_ids
        assert got == want


class TestResultShape:
    def test_sorted_by_column_id(self, index, small_query):
        result = pexeso_search(index, small_query, 1.2, 0.2)
        ids = result.column_ids
        assert ids == sorted(ids)

    def test_joinability_at_least_threshold(self, index, small_query):
        result = pexeso_search(index, small_query, 1.0, 0.4)
        for hit in result.joinable:
            assert hit.match_count >= result.t_count

    def test_len_and_query_size(self, index, small_query):
        result = pexeso_search(index, small_query, 0.8, 0.3)
        assert len(result) == len(result.joinable)
        assert result.query_size == small_query.shape[0]

    def test_self_query_is_fully_joinable(self, small_columns, index):
        query = small_columns[5]
        result = pexeso_search(index, query, tau=1e-6, joinability=1.0)
        assert 5 in result.column_ids
        hit = next(h for h in result.joinable if h.column_id == 5)
        assert hit.joinability == pytest.approx(1.0)

    def test_stats_attached(self, index, small_query):
        result = pexeso_search(index, small_query, 0.5, 0.3)
        assert result.stats.pivot_mapping_distances == small_query.shape[0] * 3


class TestValidation:
    def test_empty_query_raises(self, index):
        with pytest.raises(ValueError, match="empty"):
            pexeso_search(index, np.zeros((0, 8)), 0.5, 0.5)

    def test_dim_mismatch_raises(self, index):
        with pytest.raises(ValueError, match="dim"):
            pexeso_search(index, np.zeros((3, 5)), 0.5, 0.5)

    def test_negative_tau_raises(self, index, small_query):
        with pytest.raises(ValueError, match="tau"):
            pexeso_search(index, small_query, -0.1, 0.5)

    def test_unbuilt_index_raises(self, small_query):
        with pytest.raises(RuntimeError):
            pexeso_search(PexesoIndex(), small_query, 0.5, 0.5)

    def test_search_method_on_index(self, index, small_query):
        direct = index.search(small_query, tau=0.6, joinability=0.3)
        assert direct.column_ids == pexeso_search(index, small_query, 0.6, 0.3).column_ids


class TestFilteringEffectiveness:
    """The lemmas should reduce work on clustered (realistic) data."""

    def test_pexeso_beats_naive_distance_count(self, clustered_columns):
        index = PexesoIndex.build(clustered_columns, n_pivots=4, levels=4)
        query = clustered_columns[1]
        res = pexeso_search(index, query, 0.12, 0.5)
        ref = naive_search(clustered_columns, query, 0.12, 0.5)
        assert res.stats.distance_computations < ref.stats.distance_computations

    def test_ablations_only_increase_work(self, clustered_columns):
        index = PexesoIndex.build(clustered_columns, n_pivots=4, levels=4)
        query = clustered_columns[2]
        full = pexeso_search(index, query, 0.12, 0.5).stats.distance_computations
        no_l34 = pexeso_search(
            index, query, 0.12, 0.5, flags=AblationFlags(lemma34=False)
        ).stats.distance_computations
        assert no_l34 >= full
