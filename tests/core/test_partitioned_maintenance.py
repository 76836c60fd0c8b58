"""Live add/delete on the partitioned lake (§III-E across shards)."""

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_partitioned, save_partitioned


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(33)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(4, 14)), 6)))
        for _ in range(20)
    ]


@pytest.fixture(scope="module")
def extra():
    rng = np.random.default_rng(34)
    return [normalize_rows(rng.normal(size=(8, 6))) for _ in range(4)]


def expected_ids(columns_by_id, query, tau, joinability):
    ordered = sorted(columns_by_id)
    result = naive_search([columns_by_id[c] for c in ordered], query, tau,
                          joinability)
    return [ordered[c] for c in result.column_ids]


class TestInMemoryMaintenance:
    def test_add_column_returns_fresh_global_id(self, columns, extra):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4).fit(columns)
        gid = lake.add_column(extra[0])
        assert gid == len(columns)
        assert lake.n_columns == len(columns) + 1
        assert lake.has_column(gid)
        # the new column is searchable with exact global-ID results
        hits = lake.search(extra[0][:5], 1e-6, 1.0).column_ids
        assert gid in hits

    def test_search_after_add_matches_oracle(self, columns, extra):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4).fit(columns)
        lake.add_column(extra[0])
        lake.add_column(extra[1])
        live = {cid: col for cid, col in enumerate(columns)}
        live[len(columns)] = extra[0]
        live[len(columns) + 1] = extra[1]
        query = columns[7][:6]
        got = lake.search(query, 0.7, 0.3).column_ids
        assert got == expected_ids(live, query, 0.7, 0.3)

    def test_delete_column_tombstones_but_keeps_mapping(self, columns):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4).fit(columns)
        lake.delete_column(11)
        assert not lake.has_column(11)
        assert lake.n_columns == len(columns) - 1
        with pytest.raises(KeyError):
            lake.delete_column(11)
        with pytest.raises(KeyError):
            lake.column_vectors(11)
        live = {cid: col for cid, col in enumerate(columns) if cid != 11}
        query = columns[11][:5]
        got = lake.search(query, 0.7, 0.2).column_ids
        assert got == expected_ids(live, query, 0.7, 0.2)
        # ids above the tombstone still resolve to the right columns
        got, want = lake.column_vectors(12), columns[12]  # got in leaf order
        assert np.array_equal(got[np.lexsort(got.T[::-1])], want[np.lexsort(want.T[::-1])])

    def test_ids_never_reused_after_delete(self, columns, extra):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3).fit(columns)
        lake.delete_column(3)
        gid = lake.add_column(extra[0])
        assert gid == len(columns)  # not 3
        assert not lake.has_column(3)

    def test_adds_balance_across_partitions(self, columns, extra):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4).fit(columns)
        before = [len(g) for g in lake.partition_columns]
        for column in extra:
            lake.add_column(column)
        after = [len(g) for g in lake.partition_columns]
        assert sum(after) - sum(before) == len(extra)


class TestSpilledMaintenance:
    def test_add_and_delete_on_spilled_lake(self, columns, extra, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, spill_dir=tmp_path
        ).fit(columns)
        gid = lake.add_column(extra[0])
        hits = lake.search(extra[0][:5], 1e-6, 1.0).column_ids
        assert gid in hits
        lake.delete_column(gid)
        hits = lake.search(extra[0][:5], 1e-6, 1.0).column_ids
        assert gid not in hits

    def test_mutations_survive_reload(self, columns, extra, tmp_path):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3).fit(columns)
        out = save_partitioned(lake, tmp_path / "lake")
        served = load_partitioned(out)
        gid = served.add_column(extra[0])
        served.delete_column(5)

        reloaded = load_partitioned(out)
        assert reloaded.n_columns == served.n_columns
        assert reloaded.has_column(gid)
        assert not reloaded.has_column(5)
        query = extra[0][:5]
        assert reloaded.search(query, 1e-6, 1.0).column_ids == \
            served.search(query, 1e-6, 1.0).column_ids
        live = {cid: col for cid, col in enumerate(columns) if cid != 5}
        live[gid] = extra[0]
        query = columns[2][:5]
        assert reloaded.search(query, 0.7, 0.3).column_ids == \
            expected_ids(live, query, 0.7, 0.3)


class TestLakeSearcherDispatch:
    def test_single_index_backend(self, columns, extra):
        searcher = LakeSearcher.build(columns, n_pivots=3, levels=3)
        gid = searcher.add_column(extra[0])
        assert searcher.has_column(gid)
        assert gid in searcher.search(extra[0][:5], 1e-6, 1.0).column_ids
        searcher.delete_column(gid)
        assert not searcher.has_column(gid)

    def test_partitioned_backend(self, columns, extra):
        searcher = LakeSearcher.build(columns, n_pivots=3, levels=3,
                                      n_partitions=3)
        gid = searcher.add_column(extra[1])
        assert searcher.has_column(gid)
        searcher.delete_column(gid)
        assert not searcher.has_column(gid)
        assert not searcher.has_column(10**6)
