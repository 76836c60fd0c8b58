"""Edge-case tests for the batched verifier."""

import numpy as np
import pytest

from repro.core import verifier
from repro.core.blocker import BlockResult
from repro.core.index import PexesoIndex
from repro.core.metric import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    normalize_rows,
)
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
            tau=2.0, t_count=1, stats=SearchStats(),
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
        """Counts are always exact: a column that reaches T at its first
        query row still counts every later one (no early accept), and
        nothing is abandoned (no Lemma 7)."""
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
            tau=2.0, t_count=1, stats=SearchStats(),
        )
        # with tau=2 everything matches: counts must be the full |Q|
        for col in range(4):
            assert verdict.match_counts[col] == queries.shape[0]


class TestChunkBounds:
    @pytest.mark.parametrize("euclidean", [True, False])
    @pytest.mark.parametrize(
        "n_q,dim",
        [(1, 1), (12, 64), (1, verifier.CHUNK_ELEMENTS),
         (verifier.CHUNK_ELEMENTS, 1), (3, 2 * verifier.CHUNK_ELEMENTS)],
    )
    def test_chunk_never_empty_and_bounded(self, n_q, dim, euclidean):
        """A chunk's gathered rows plus its temporaries stay within
        ``CHUNK_ELEMENTS`` whenever one row fits; otherwise it is one row."""
        rows = verifier.chunk_rows(n_q, dim, euclidean)
        per_row = n_q * (1 if euclidean else dim) + dim
        assert rows >= 1
        if per_row <= verifier.CHUNK_ELEMENTS:
            assert rows * per_row <= verifier.CHUNK_ELEMENTS
        else:
            assert rows == 1

    @pytest.mark.parametrize("metric", [EuclideanMetric(), ManhattanMetric(), ChebyshevMetric()])
    @pytest.mark.parametrize("chunk_elements", [1, 9, 60])
    def test_hits_match_scan_when_dim_exceeds_chunk(
        self, verify_one, metric, chunk_elements, monkeypatch
    ):
        """With ``dim > CHUNK_ELEMENTS // n_q`` every metric still decides
        each union row in non-empty chunks, and the counts equal a scan."""
        dim, n_q = 24, 4
        assert dim > chunk_elements // n_q
        rng = np.random.default_rng(3)
        columns = [
            normalize_rows(rng.normal(size=(int(rng.integers(3, 9)), dim)))
            for _ in range(6)
        ]
        queries = np.vstack([columns[0][:2], normalize_rows(rng.normal(size=(2, dim)))])
        index = PexesoIndex.build(columns, metric=metric, n_pivots=2, levels=2)
        tau = 0.6 * metric.max_distance(dim)
        seen = []
        chunk_hits = verifier._chunk_hits

        def recording(queries, x, metric, tau):
            seen.append(x.shape[0])
            return chunk_hits(queries, x, metric, tau)

        monkeypatch.setattr(verifier, "CHUNK_ELEMENTS", chunk_elements)
        monkeypatch.setattr(verifier, "_chunk_hits", recording)
        pairs = BlockResult.from_pairs(
            candidate=[(q, cell) for q in range(n_q) for cell in index.inverted.cells()]
        )
        verdict = verify_one(
            pairs, index, queries, index.pivot_space.map_vectors(queries),
            tau=tau, t_count=1, stats=SearchStats(),
        )
        limit = verifier.chunk_rows(n_q, dim, isinstance(metric, EuclideanMetric))
        assert seen and all(1 <= rows <= limit for rows in seen)
        assert sum(seen) == index.n_vectors
        truth = {
            cid: int((metric.pairwise(queries, column) <= tau).any(axis=1).sum())
            for cid, column in enumerate(columns)
        }
        assert truth[0] >= 2  # the first two query rows are column 0's
        assert verdict.match_counts == {c: n for c, n in truth.items() if n}
        assert verdict.joinable == set(verdict.match_counts)

    @pytest.mark.parametrize("metric", [EuclideanMetric(), ManhattanMetric(), ChebyshevMetric()])
    @pytest.mark.parametrize("chunk_elements", [1, 9, 100])
    def test_queries_without_sorted_candidates_under_tiny_chunks(
        self, verify_one, metric, chunk_elements, monkeypatch
    ):
        """Chunks of one to three rows give a zero quarter-chunk view
        threshold; a query with no candidate cell in the sorted part (none
        at all, match cells only, or tail cells only) still gets exact
        counts."""
        dim, n_q = 24, 4
        rng = np.random.default_rng(5)
        columns = [normalize_rows(rng.normal(size=(6, dim))) for _ in range(5)]
        index = PexesoIndex.build(columns, metric=metric, n_pivots=2, levels=3)
        # next to a pivot: leaves no fitted row shares
        pivot = index.pivot_space.pivots[0]
        tail = normalize_rows(pivot + rng.normal(scale=0.05, size=(8, dim)))
        tail_id = index.add_column(tail)
        monkeypatch.setattr(verifier, "CHUNK_ELEMENTS", chunk_elements)
        assert verifier.chunk_rows(n_q, dim, isinstance(metric, EuclideanMetric)) < 4
        queries = np.vstack([tail[:2], normalize_rows(rng.normal(size=(2, dim)))])
        tau = 0.3 * metric.max_distance(dim)

        def verify(pairs):
            return verify_one(pairs, index, queries, None, tau=tau, t_count=1, stats=SearchStats())

        assert verify(BlockResult.from_pairs()).match_counts == {}

        leaf = int(index.inverted.leaves[0])
        owners = set(index.inverted.columns_in_cells([leaf]))
        matched = verify(BlockResult.from_pairs(match=[(1, leaf)]))
        assert matched.match_counts == {c: 1 for c in owners}

        sorted_leaves = index.inverted.leaves[np.diff(index.inverted.leaf_starts) > 0]
        tail_only = np.setdiff1d(index.inverted.tail_codes, sorted_leaves)
        assert tail_only.size
        verdict = verify(
            BlockResult.from_pairs(candidate=[(q, int(c)) for q in range(n_q) for c in tail_only])
        )
        rows = np.isin(index.grid.leaf_codes_for(index.pivot_space.map_vectors(tail)), tail_only)
        want = int((metric.pairwise(queries, tail[rows]) <= tau).any(axis=1).sum())
        assert verdict.match_counts == ({tail_id: want} if want else {})
