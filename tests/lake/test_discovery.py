"""Tests for the end-to-end discovery facade."""

import numpy as np
import pytest

from repro.core.thresholds import distance_threshold
from repro.lake import discovery
from repro.lake.datagen import DataLakeGenerator
from repro.lake.discovery import JoinableTableSearch
from repro.lake.table import Column, Table


@pytest.fixture(scope="module")
def gen():
    return DataLakeGenerator(seed=1, n_entities=80, dim=24)


@pytest.fixture(scope="module")
def lake(gen):
    return gen.generate_lake(n_tables=30, rows_range=(10, 22))


@pytest.fixture(scope="module")
def search(gen, lake):
    s = JoinableTableSearch(gen.embedder, n_pivots=3, levels=3, preprocess=False)
    return s.index_tables(lake.tables)


class TestIndexing:
    def test_refs_cover_lake(self, search, lake):
        assert len(search.refs) == lake.n_tables
        assert search.index.n_columns == lake.n_tables

    def test_index_before_search_required(self, gen):
        s = JoinableTableSearch(gen.embedder)
        table = Table("q", [Column("key", ["a"] * 5)], key_column="key")
        with pytest.raises(RuntimeError):
            s.search(table)

    def test_no_usable_tables_raises(self, gen):
        s = JoinableTableSearch(gen.embedder)
        tiny = Table("tiny", [Column("a", ["x"])])
        with pytest.raises(ValueError):
            s.index_tables([tiny])


class TestSearch:
    def test_finds_ground_truth_tables(self, gen, lake, search):
        query, q_entities = gen.generate_query_table(n_rows=15, domain=0)
        hits = search.search(query, tau_fraction=0.06, joinability=0.4)
        got = {h.ref.table_name for h in hits}
        truth = {f"table_{i}" for i in lake.true_joinable_tables(q_entities, 0.4)}
        assert got == truth

    def test_hits_sorted_by_joinability(self, gen, search):
        query, _ = gen.generate_query_table(n_rows=15, domain=2)
        hits = search.search(query, tau_fraction=0.06, joinability=0.2)
        scores = [h.joinability for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_record_mapping_points_to_matching_rows(self, gen, lake, search):
        query, _ = gen.generate_query_table(n_rows=15, domain=0)
        hits = search.search(query, tau_fraction=0.06, joinability=0.3)
        if not hits:
            pytest.skip("no hits at this threshold")
        hit = hits[0]
        table_index = int(hit.ref.table_name.split("_")[1])
        q_values = query.column("key").values
        t_entities = lake.entity_columns[table_index]
        embedder = lake.embedder
        for qi, ti in hit.record_mapping:
            q_entity = embedder.entity_of(q_values[qi])
            assert q_entity is not None
            assert t_entities[ti] == q_entity

    def test_mappings_can_be_skipped(self, gen, search):
        query, _ = gen.generate_query_table(n_rows=15, domain=1)
        hits = search.search(query, joinability=0.3, with_mappings=False)
        assert all(h.record_mapping == [] for h in hits)

    def test_explicit_query_column(self, gen, search):
        query, _ = gen.generate_query_table(n_rows=15, domain=0)
        hits_auto = search.search(query, joinability=0.3, with_mappings=False)
        hits_explicit = search.search(
            query, query_column="key", joinability=0.3, with_mappings=False
        )
        assert {h.ref for h in hits_auto} == {h.ref for h in hits_explicit}

    def test_query_without_key_raises(self, search):
        bad = Table("q", [Column("n", ["1", "2", "3", "4", "5"])])
        with pytest.raises(ValueError, match="query column"):
            search.search(bad)


def brute_force_mappings(search, query, tau_fraction):
    """Every hit's (query row, table row) pairs within τ, from the
    table's key column embedded afresh."""
    _, query_vectors = search.prepare_query(query)
    tau = distance_threshold(tau_fraction, search.metric, search.embedder.dim)
    out = {}
    for hit in search.search(query, tau_fraction=tau_fraction, joinability=0.2,
                             with_mappings=False):
        column_id = search.refs.index(hit.ref)
        target = search.embedder.embed_column(search.string_columns[column_id])
        pairs = np.argwhere(search.metric.pairwise(query_vectors, target) <= tau)
        out[hit.ref] = [(int(q), int(t)) for q, t in pairs]
    return out


class TestRecordMappingOrder:
    """The index keeps a column's vectors in leaf order; record mappings
    still name table rows, without re-embedding the hit columns."""

    @pytest.mark.parametrize("n_partitions", [1, 3])
    def test_mappings_name_table_rows_after_adds_and_deletes(
        self, gen, lake, n_partitions, monkeypatch
    ):
        search = JoinableTableSearch(
            gen.embedder, n_pivots=3, levels=3, preprocess=False, n_partitions=n_partitions
        )
        search.index_tables(lake.tables[:24])
        for table in lake.tables[24:]:
            search.add_table(table)
        for table in lake.tables[:6]:
            search.remove_table(table.name)
        query, _ = gen.generate_query_table(n_rows=15, domain=0)
        want = brute_force_mappings(search, query, 0.06)
        assert any(want.values())

        embedded = []
        real = type(gen.embedder).embed_column
        monkeypatch.setattr(
            type(gen.embedder), "embed_column",
            lambda self, values: embedded.append(len(values)) or real(self, values),
        )
        hits = search.search(query, tau_fraction=0.06, joinability=0.2)
        assert embedded == [15]  # the query alone
        assert {h.ref: h.record_mapping for h in hits} == want

    def test_a_key_collision_falls_back_to_embedding(self, gen, lake, monkeypatch):
        monkeypatch.setattr(discovery, "_row_keys", lambda v: np.zeros(len(v), np.uint64))
        search = JoinableTableSearch(gen.embedder, n_pivots=3, levels=3, preprocess=False)
        search.index_tables(lake.tables)
        assert all(keys is None for keys in search.row_keys)
        query, _ = gen.generate_query_table(n_rows=15, domain=0)
        hits = search.search(query, tau_fraction=0.06, joinability=0.2)
        assert {h.ref: h.record_mapping for h in hits} == brute_force_mappings(
            search, query, 0.06
        )


class TestShardedFacade:
    """The facade over a partitioned backend: same hits, plus top-k."""

    @pytest.fixture(scope="class")
    def sharded(self, gen, lake):
        s = JoinableTableSearch(
            gen.embedder, n_pivots=3, levels=3, preprocess=False,
            n_partitions=4, max_workers=2,
        )
        return s.index_tables(lake.tables)

    def test_partitioned_backend_selected(self, sharded):
        assert sharded.searcher.is_partitioned
        assert sharded.index is None

    def test_hits_match_single_index(self, gen, search, sharded):
        query, _ = gen.generate_query_table(n_rows=14, domain=0)
        want = search.search(query, with_mappings=False)
        got = sharded.search(query, with_mappings=False)
        assert [(h.ref, h.match_count) for h in got] == [
            (h.ref, h.match_count) for h in want
        ]

    def test_record_mappings_still_work(self, gen, sharded):
        query, _ = gen.generate_query_table(n_rows=10, domain=1)
        hits = sharded.search(query, with_mappings=True)
        assert any(h.record_mapping for h in hits)

    def test_topk_matches_across_backends(self, gen, search, sharded):
        query, _ = gen.generate_query_table(n_rows=12, domain=2)
        want = search.topk(query, k=5)
        got = sharded.topk(query, k=5)
        assert [(h.ref, h.match_count) for h in got] == [
            (h.ref, h.match_count) for h in want
        ]
        assert len(got) <= 5

    def test_topk_rank_order(self, gen, search):
        query, _ = gen.generate_query_table(n_rows=12, domain=0)
        hits = search.topk(query, k=8)
        joins = [h.joinability for h in hits]
        assert joins == sorted(joins, reverse=True)

    def test_topk_before_indexing_raises(self, gen):
        s = JoinableTableSearch(gen.embedder)
        table = Table("q", [Column("key", ["a"] * 5)], key_column="key")
        with pytest.raises(RuntimeError):
            s.topk(table)

    def test_all_columns_on_sharded_backend(self, gen, search, sharded):
        query, _ = gen.generate_query_table(n_rows=12, domain=3)
        want = search.search_all_columns(query)
        got = sharded.search_all_columns(query)
        assert {
            name: [(h.ref, h.match_count) for h in hits]
            for name, hits in got.items()
        } == {
            name: [(h.ref, h.match_count) for h in hits]
            for name, hits in want.items()
        }

    def test_spilled_facade(self, gen, lake, search, tmp_path_factory):
        spill = tmp_path_factory.mktemp("facade_spill")
        s = JoinableTableSearch(
            gen.embedder, n_pivots=3, levels=3, preprocess=False,
            n_partitions=3, spill_dir=spill, max_workers=2,
        ).index_tables(lake.tables)
        query, _ = gen.generate_query_table(n_rows=10, domain=4)
        want = search.search(query, with_mappings=False)
        got = s.search(query, with_mappings=False)
        assert [h.ref for h in got] == [h.ref for h in want]
