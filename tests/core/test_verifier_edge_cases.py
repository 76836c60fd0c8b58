"""Edge-case tests for the batched verifier."""

import numpy as np
import pytest

from repro.core.blocker import BlockResult
from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.stats import SearchStats


@pytest.fixture()
def tight_cluster_index():
    """Columns so tight that Lemma 5/6 produce pure matching pairs."""
    rng = np.random.default_rng(0)
    center = normalize_rows(rng.normal(size=(1, 6)))[0]
    columns = [
        normalize_rows(center + rng.normal(scale=1e-4, size=(5, 6)))
        for _ in range(4)
    ]
    return columns, PexesoIndex.build(columns, n_pivots=2, levels=2)


class TestMatchPairsOnly:
    def test_columns_credited_without_distances(self, verify_one, tight_cluster_index):
        columns, index = tight_cluster_index
        queries = columns[0][:3]
        q_mapped = index.pivot_space.map_vectors(queries)
        # hand-build pure matching pairs covering every occupied cell
        pairs = BlockResult.from_pairs(
            match=[(q, cell) for q in range(3) for cell in index.inverted.cells()]
        )
        stats = SearchStats()
        verdict = verify_one(
            pairs, index, queries, q_mapped,
            tau=2.0, t_count=3, stats=stats,
        )
        assert verdict.joinable == {0, 1, 2, 3}
        assert stats.distance_computations == 0  # match pairs need no work

    def test_duplicate_match_cells_count_once(self, verify_one, tight_cluster_index):
        columns, index = tight_cluster_index
        queries = columns[0][:2]
        q_mapped = index.pivot_space.map_vectors(queries)
        cell = next(iter(index.inverted.cells()))
        pairs = BlockResult.from_pairs(match=[(0, cell), (0, cell)])  # duplicate
        assert pairs.cells_of(0, match=True).tolist() == [cell, cell]
        verdict = verify_one(
            pairs, index, queries, q_mapped,
            tau=2.0, t_count=1, exact_counts=True, stats=SearchStats(),
        )
        for col, count in verdict.match_counts.items():
            assert count <= 1


class TestEmptyInputs:
    def test_empty_block_result(self, verify_one, tight_cluster_index):
        columns, index = tight_cluster_index
        queries = columns[0][:2]
        q_mapped = index.pivot_space.map_vectors(queries)
        verdict = verify_one(
            BlockResult.from_pairs(), index, queries, q_mapped,
            tau=0.5, t_count=1, stats=SearchStats(),
        )
        assert verdict.joinable == set()
        assert verdict.match_counts == {}

    def test_candidate_cells_with_no_postings(self, verify_one, tight_cluster_index):
        columns, index = tight_cluster_index
        queries = columns[0][:1]
        q_mapped = index.pivot_space.map_vectors(queries)
        pairs = BlockResult.from_pairs(candidate=[(0, 10**9)])  # unoccupied cell code
        verdict = verify_one(
            pairs, index, queries, q_mapped,
            tau=0.5, t_count=1, stats=SearchStats(),
        )
        assert verdict.joinable == set()


class TestExactCountsForcesFullWork:
    def test_exact_counts_disables_lemma7_and_early_accept(
        self, verify_one, tight_cluster_index
    ):
        columns, index = tight_cluster_index
        queries = np.vstack([columns[0][:2], columns[1][:2]])
        q_mapped = index.pivot_space.map_vectors(queries)
        pairs = BlockResult.from_pairs(
            candidate=[
                (q, cell)
                for q in range(queries.shape[0])
                for cell in index.inverted.cells()
            ]
        )
        verdict = verify_one(
            pairs, index, queries, q_mapped,
            tau=2.0, t_count=1,
            exact_counts=True, early_accept=True, use_lemma7=True,
            stats=SearchStats(),
        )
        assert verdict.exact
        # with tau=2 everything matches: counts must be the full |Q|
        for col in range(4):
            assert verdict.match_counts[col] == queries.shape[0]
