"""Shard-subset loading and parts-restricted search (the worker's substrate)."""

import json

import numpy as np
import pytest

from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.persistence import load_any, load_partitioned, save_partitioned


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(7)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(4, 12)), 6)))
        for _ in range(20)
    ]


@pytest.fixture(scope="module")
def saved_lake(columns, tmp_path_factory):
    directory = tmp_path_factory.mktemp("lake") / "saved"
    lake = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=4).fit(columns)
    save_partitioned(lake, directory)
    return directory


class TestSubsetLoading:
    def test_hosts_only_requested_parts(self, saved_lake):
        lake = load_partitioned(saved_lake, parts=[0, 2])
        assert lake.hosted_parts == {0, 2}
        assert sorted(lake._shards()) == [0, 2]
        # hosted shards are eagerly resident; nothing stays spilled
        assert sorted(lake._resident) == [0, 2]
        assert lake._spilled == {}

    def test_n_columns_counts_hosted_only(self, saved_lake, columns):
        full = load_partitioned(saved_lake)
        subset = load_partitioned(saved_lake, parts=[1])
        assert full.n_columns == len(columns)
        assert subset.n_columns == len(full.partition_columns[1])
        assert 0 < subset.n_columns < len(columns)

    def test_unknown_part_rejected(self, saved_lake):
        with pytest.raises(KeyError, match="not in the saved lake"):
            load_partitioned(saved_lake, parts=[0, 9])

    def test_load_any_dispatch(self, saved_lake):
        lake = load_any(saved_lake, parts=[0])
        assert lake.hosted_parts == {0}

    def test_load_any_single_index_rejects_parts(self, columns, tmp_path):
        from repro.core.index import PexesoIndex
        from repro.core.persistence import save_index

        save_index(PexesoIndex.build(columns[:4], n_pivots=2, levels=3),
                   tmp_path / "single")
        with pytest.raises(ValueError, match="partitioned layout"):
            load_any(tmp_path / "single", parts=[0])


class TestRestrictedSearch:
    def test_union_of_subsets_equals_full_search(self, saved_lake, columns):
        """Two disjoint workers' results merge to the full lake's result."""
        full = load_partitioned(saved_lake)
        w0 = load_partitioned(saved_lake, parts=[0, 1])
        w1 = load_partitioned(saved_lake, parts=[2, 3])
        query = columns[3][:5]
        want = full.search(query, 0.6, 0.3)
        got = sorted(
            [
                (h.column_id, h.match_count, h.joinability)
                for lake in (w0, w1)
                for h in lake.search(query, 0.6, 0.3).joinable
            ]
        )
        assert got == [
            (h.column_id, h.match_count, h.joinability) for h in want.joinable
        ]

    def test_parts_argument_filters_within_host(self, saved_lake, columns):
        full = load_partitioned(saved_lake)
        query = columns[5][:5]
        only2 = full.search(query, 0.6, 0.3, parts=[2])
        part2_ids = {c for c in full.partition_columns[2] if c >= 0}
        assert all(h.column_id in part2_ids for h in only2.joinable)

    def test_parts_outside_host_rejected(self, saved_lake, columns):
        w0 = load_partitioned(saved_lake, parts=[0, 1])
        with pytest.raises(KeyError, match="not hosted here"):
            w0.search(columns[0][:4], 0.6, 0.3, parts=[2])

    def test_single_index_rejects_parts(self, columns):
        from repro.core.index import PexesoIndex

        searcher = LakeSearcher(PexesoIndex.build(columns[:5], n_pivots=2, levels=3))
        with pytest.raises(ValueError, match="partitioned backend"):
            searcher.search(columns[0][:4], 0.5, 0.3, parts=[0])


class TestRestrictedMaintenance:
    def test_explicit_placement_and_id(self, saved_lake):
        lake = load_partitioned(saved_lake, parts=[1, 3])
        rng = np.random.default_rng(0)
        newcol = normalize_rows(rng.normal(size=(6, 6)))
        gid = lake.add_column(newcol, part=3, column_id=50)
        assert gid == 50
        assert lake.partition_columns[3][-1] == 50
        found = lake.search(newcol[:3], 1e-6, 1.0, parts=[3])
        assert 50 in [h.column_id for h in found.joinable]
        # auto-allocation continues past the explicit id
        assert lake.add_column(newcol) == 51

    def test_replicated_write_is_idempotent(self, saved_lake):
        """Redelivering the same (partition, id, vectors) — a transport
        retry after a lost reply — must be a no-op, not an error."""
        lake = load_partitioned(saved_lake, parts=[0, 1])
        rng = np.random.default_rng(8)
        vec = normalize_rows(rng.normal(size=(5, 6)))
        gid = lake.add_column(vec, part=1, column_id=60)
        before = lake.n_columns
        assert lake.add_column(vec, part=1, column_id=60) == gid
        assert lake.n_columns == before  # no duplicate column
        # same id with *different* content or partition is still an error
        other = normalize_rows(rng.normal(size=(5, 6)))
        with pytest.raises(ValueError, match="already in use"):
            lake.add_column(other, part=1, column_id=60)
        with pytest.raises(ValueError, match="already in use"):
            lake.add_column(vec, part=0, column_id=60)

    def test_explicit_id_collision_rejected(self, saved_lake):
        lake = load_partitioned(saved_lake, parts=[0])
        existing = next(c for c in lake.partition_columns[0] if c >= 0)
        rng = np.random.default_rng(1)
        vec = normalize_rows(rng.normal(size=(4, 6)))
        before = list(lake.partition_columns[0])
        with pytest.raises(ValueError, match="already in use"):
            lake.add_column(vec, part=0, column_id=existing)
        # a rejected explicit id must leave the shard untouched
        assert lake.partition_columns[0] == before

    def test_unhosted_partition_rejected(self, saved_lake):
        lake = load_partitioned(saved_lake, parts=[0])
        rng = np.random.default_rng(2)
        vec = normalize_rows(rng.normal(size=(4, 6)))
        with pytest.raises(KeyError, match="not hosted"):
            lake.add_column(vec, part=2)

    def test_delete_restricted_to_hosted(self, saved_lake):
        lake = load_partitioned(saved_lake, parts=[0])
        foreign = next(
            c for c in lake.partition_columns[1] if c >= 0
        )
        with pytest.raises(KeyError):
            lake.delete_column(foreign)
        own = next(c for c in lake.partition_columns[0] if c >= 0)
        lake.delete_column(own)
        assert not lake.has_column(own)

    def test_mutations_never_touch_shared_manifest(self, saved_lake):
        """A worker's adds/deletes must not rewrite partitioned.json."""
        manifest_path = saved_lake / "partitioned.json"
        before = manifest_path.read_text()
        lake = load_partitioned(saved_lake, parts=[0, 1])
        rng = np.random.default_rng(3)
        gid = lake.add_column(normalize_rows(rng.normal(size=(5, 6))), part=0,
                              column_id=70)
        lake.delete_column(gid)
        assert manifest_path.read_text() == before
        # and the partition archives are untouched too (workers mutate
        # their resident copy only; durability is the coordinator's job)
        assert json.loads(before) == json.loads(manifest_path.read_text())
