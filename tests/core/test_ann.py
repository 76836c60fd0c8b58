"""Unit tests for the ANN candidate graph (:mod:`repro.core.ann`).

The tier's contract has three legs, each pinned here:

* **zero false positives** — every hit of an ANN-restricted search is a
  hit of the exact search with a bit-identical match count/joinability
  (candidates still pass the unchanged exact verifier);
* **knob -> max degenerates to exact** — ``ef_search`` at or above the
  column count returns the exact engine's answer bit for bit;
* **mutations fall back to exact** — add/delete drops the graph, ANN
  requests run exact until an explicit rebuild.

Plus persistence (the graph is never saved; a loaded index rebuilds the
identical graph lazily) and determinism of graph construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ann import (
    DEFAULT_EF_SEARCH,
    ColumnGraph,
    candidate_lists,
    measure_recall,
)
from repro.core.engine import BatchSearch
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_index, save_index


def clustered_columns(seed: int = 0, n_columns: int = 40, dim: int = 6):
    """Unit-normalized columns with separated centers.

    The pivot space clips mapped coordinates to the metric's extent for
    unit vectors, so un-normalized data would saturate and collapse the
    graph geometry — the same reason the lake embedders normalize.
    """
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(n_columns, dim)))
    return [
        normalize_rows(
            centers[i]
            + rng.normal(scale=0.05, size=(int(rng.integers(6, 16)), dim))
        )
        for i in range(n_columns)
    ]


@pytest.fixture(scope="module")
def lake():
    columns = clustered_columns()
    index = PexesoIndex.build(columns, n_pivots=2, levels=3)
    return columns, index


def make_query(columns, target: int, seed: int = 99):
    rng = np.random.default_rng(seed)
    rows = columns[target]
    return rows + rng.normal(scale=0.01, size=rows.shape)


def hit_rows(result):
    return [(h.column_id, h.match_count, h.joinability) for h in result.joinable]


class TestGraphConstruction:
    def test_build_is_deterministic(self, lake):
        _, index = lake
        a = ColumnGraph.build(index)
        b = ColumnGraph.build(index)
        np.testing.assert_array_equal(a.node_columns, b.node_columns)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.box_min, b.box_min)
        np.testing.assert_array_equal(a.box_max, b.box_max)
        assert a.entry == b.entry

    def test_geometry_shapes(self, lake):
        _, index = lake
        graph = ColumnGraph.build(index)
        n = index.n_columns
        # boxes live in pivot space, centroids in the original space
        assert graph.box_min.shape == graph.box_max.shape == (n, 2)
        assert graph.centroids.shape == (n, index.vectors.shape[1])
        assert (graph.box_min <= graph.box_max).all()

    def test_unbuilt_index_rejected(self):
        with pytest.raises(RuntimeError):
            ColumnGraph.build(PexesoIndex())

    def test_degree_validated(self, lake):
        _, index = lake
        with pytest.raises(ValueError):
            ColumnGraph.build(index, m=0)

    def test_graph_is_connected(self, lake):
        """Bidirectional links to predecessors keep node 0 reachable."""
        _, index = lake
        graph = ColumnGraph.build(index)
        n = graph.n_nodes
        seen = {graph.entry}
        frontier = [graph.entry]
        while frontier:
            node = frontier.pop()
            for nb in graph.neighbors[node]:
                if nb >= 0 and int(nb) not in seen:
                    seen.add(int(nb))
                    frontier.append(int(nb))
        assert len(seen) == n


class TestCandidates:
    def test_candidates_are_a_sorted_subset(self, lake):
        columns, index = lake
        graph = ColumnGraph.build(index)
        query = make_query(columns, 7)
        mapped = index.pivot_space.map_vectors(query)
        all_ids = set(graph.node_columns.tolist())
        for ef in (1, 2, 5, 16):
            got = graph.candidates(query, mapped, ef)
            assert len(got) == min(ef, graph.n_nodes)
            assert sorted(got.tolist()) == got.tolist()
            assert set(got.tolist()) <= all_ids

    def test_beam_finds_the_target_column(self, lake):
        columns, index = lake
        graph = ColumnGraph.build(index)
        for target in (0, 7, 23, 39):
            query = make_query(columns, target)
            mapped = index.pivot_space.map_vectors(query)
            got = graph.candidates(query, mapped, 4)
            assert target in got.tolist(), f"missed column {target}"

    def test_ef_at_or_above_n_returns_every_column(self, lake):
        columns, index = lake
        graph = ColumnGraph.build(index)
        query = make_query(columns, 3)
        mapped = index.pivot_space.map_vectors(query)
        for ef in (graph.n_nodes, graph.n_nodes + 5, 10**6):
            np.testing.assert_array_equal(
                graph.candidates(query, mapped, ef), graph.node_columns
            )

    def test_ef_validated(self, lake):
        _, index = lake
        graph = ColumnGraph.build(index)
        query = np.zeros((1, graph.centroids.shape[1]))
        mapped = np.zeros((1, graph.box_min.shape[1]))
        with pytest.raises(ValueError):
            graph.candidates(query, mapped, 0)

    def test_candidate_lists_exact_passthrough(self, lake):
        columns, index = lake
        queries = [make_query(columns, 5)]
        # knob off -> None
        assert candidate_lists(index, queries, None) is None
        # beam covers the lake -> None (exact, bit for bit)
        assert candidate_lists(index, queries, len(columns)) is None
        assert candidate_lists(index, queries, 10**6) is None
        # a real beam -> one array per query
        lists = candidate_lists(index, queries, 4)
        assert len(lists) == 1
        assert lists[0].size == 4


class TestSearchIntegration:
    def test_zero_false_positives_any_ef(self, lake):
        columns, index = lake
        searcher = LakeSearcher(index)
        query = make_query(columns, 11)
        tau, joinability = 0.3, 0.5
        exact = {
            (h.column_id, h.match_count, h.joinability)
            for h in searcher.search(query, tau, joinability).joinable
        }
        for ef in (1, 2, 4, 8, 16):
            got = searcher.search(query, tau, joinability, ef_search=ef)
            assert set(hit_rows(got)) <= exact, f"false positive at ef={ef}"

    def test_knob_max_is_bit_identical_to_exact(self, lake):
        columns, index = lake
        searcher = LakeSearcher(index)
        query = make_query(columns, 11)
        exact = searcher.search(query, 0.3, 0.5)
        for ef in (len(columns), 10**6):
            got = searcher.search(query, 0.3, 0.5, ef_search=ef)
            assert hit_rows(got) == hit_rows(exact)

    def test_recall_one_on_clustered_lake_at_small_ef(self, lake):
        columns, index = lake
        searcher = LakeSearcher(index)
        for target in (2, 11, 31):
            query = make_query(columns, target)
            exact_ids = [h.column_id for h in searcher.search(query, 0.3, 0.5).joinable]
            approx_ids = [
                h.column_id
                for h in searcher.search(query, 0.3, 0.5, ef_search=8).joinable
            ]
            assert measure_recall(exact_ids, approx_ids) == 1.0

    def test_batch_matches_sequential_restricted(self, lake):
        columns, index = lake
        searcher = LakeSearcher(index)
        queries = [make_query(columns, t, seed=t) for t in (3, 14, 25)]
        batch = BatchSearch(index).search_many(
            queries, 0.3, 0.5, allowed_columns=candidate_lists(index, queries, 6)
        )
        for query, got in zip(queries, batch.results):
            single = searcher.search(query, 0.3, 0.5, ef_search=6)
            assert hit_rows(got) == hit_rows(single)

    def test_partitioned_backend_rejects_the_knob(self, lake):
        columns, _ = lake
        part = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=3).fit(columns)
        searcher = LakeSearcher(part)
        query = make_query(columns, 19)
        with pytest.raises(ValueError, match="single-index"):
            searcher.search(query, 0.3, 0.5, ef_search=6)

    def test_ann_restriction_shrinks_verification(self, lake):
        columns, index = lake
        searcher = LakeSearcher(index)
        query = make_query(columns, 11)
        exact = searcher.search(query, 0.3, 0.5)
        got = searcher.search(query, 0.3, 0.5, ef_search=4)
        assert got.stats.columns_verified <= exact.stats.columns_verified


class TestMutationInvalidation:
    def make_index(self):
        return PexesoIndex.build(clustered_columns(seed=5), n_pivots=2, levels=2)

    def test_add_drops_graph_and_falls_back_to_exact(self):
        index = self.make_index()
        assert index.ensure_ann_graph() is not None
        rng = np.random.default_rng(1)
        index.add_column(rng.normal(size=(5, 6)))
        assert index.ann_graph is None
        # invalidated: no silent lazy rebuild — exact fallback instead
        assert index.ensure_ann_graph() is None
        assert candidate_lists(index, [rng.normal(size=(3, 6))], 4) is None
        searcher = LakeSearcher(index)
        query = clustered_columns(seed=5)[3]
        exact = searcher.search(query, 0.3, 0.5)
        got = searcher.search(query, 0.3, 0.5, ef_search=2)
        assert hit_rows(got) == hit_rows(exact)

    def test_delete_drops_graph(self):
        index = self.make_index()
        index.ensure_ann_graph()
        index.delete_column(0)
        assert index.ann_graph is None
        assert index.ensure_ann_graph() is None

    def test_explicit_rebuild_restores_the_tier(self):
        index = self.make_index()
        rng = np.random.default_rng(2)
        index.add_column(rng.normal(size=(5, 6)))
        graph = index.build_ann_graph()
        assert graph is index.ann_graph is index.ensure_ann_graph()
        # the rebuilt graph covers the added column
        assert graph.n_nodes == index.n_columns

    def test_fit_resets_to_lazily_buildable(self):
        index = self.make_index()
        rng = np.random.default_rng(3)
        index.add_column(rng.normal(size=(5, 6)))
        assert index.ensure_ann_graph() is None
        index.fit(clustered_columns(seed=6))
        assert index.ensure_ann_graph() is not None


class TestPersistence:
    def test_v3_roundtrip_under_mmap(self, lake, tmp_path):
        """The graph is not saved; the mmap-loaded index rebuilds the
        identical one on first use."""
        columns, _ = lake
        index = PexesoIndex.build(columns, n_pivots=2, levels=3)
        graph = index.build_ann_graph()
        save_index(index, tmp_path / "idx")
        assert not list((tmp_path / "idx").rglob("ann_*"))
        loaded = load_index(tmp_path / "idx", mmap=True)
        assert loaded.ann_graph is None
        rebuilt = loaded.ensure_ann_graph()
        np.testing.assert_array_equal(rebuilt.node_columns, graph.node_columns)
        np.testing.assert_array_equal(rebuilt.neighbors, graph.neighbors)
        np.testing.assert_array_equal(rebuilt.centroids, graph.centroids)
        np.testing.assert_array_equal(rebuilt.box_min, graph.box_min)
        np.testing.assert_array_equal(rebuilt.box_max, graph.box_max)
        assert rebuilt.entry == graph.entry

        query = make_query(columns, 7)
        want = LakeSearcher(index).search(query, 0.3, 0.5, ef_search=6)
        got = LakeSearcher(loaded).search(query, 0.3, 0.5, ef_search=6)
        assert hit_rows(got) == hit_rows(want)

    def test_v3_without_graph_stays_loadable(self, lake, tmp_path):
        columns, _ = lake
        index = PexesoIndex.build(columns, n_pivots=2, levels=3)
        assert index.ann_graph is None
        save_index(index, tmp_path / "plain")
        loaded = load_index(tmp_path / "plain", mmap=True)
        assert loaded.ann_graph is None
        # and the tier still works through a lazy build
        assert loaded.ensure_ann_graph() is not None


class TestKnobHelpers:
    def test_measure_recall(self):
        assert measure_recall([], []) == 1.0
        assert measure_recall([1, 2], [1, 2, 3]) == 1.0
        assert measure_recall([1, 2, 3, 4], [1, 2]) == 0.5
        assert measure_recall([1], [2]) == 0.0

    def test_default_ef_is_sane(self):
        assert DEFAULT_EF_SEARCH >= 1
