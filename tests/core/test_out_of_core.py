"""Tests for the partitioned / out-of-core search (§IV)."""

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.metric import (
    METRIC_REGISTRY,
    EuclideanMetric,
    normalize_rows,
    register_metric,
)
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso, ShardLRU
from repro.core.search import pexeso_search
from repro.core.topk import naive_topk, pexeso_topk


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(0)
    return [normalize_rows(rng.normal(size=(rng.integers(4, 16), 6))) for _ in range(30)]


@pytest.fixture(scope="module")
def query():
    return normalize_rows(np.random.default_rng(1).normal(size=(10, 6)))


class TestInMemoryPartitions:
    @pytest.mark.parametrize("partitioner", ["jsd", "average-kmeans", "random"])
    def test_partitioned_search_is_exact(self, columns, query, partitioner):
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=4, partitioner=partitioner
        ).fit(columns)
        got = lake.search(query, 0.8, 0.3).column_ids
        want = naive_search(columns, query, 0.8, 0.3).column_ids
        assert got == want

    @pytest.mark.parametrize("n_partitions", [1, 2, 5, 30])
    def test_any_partition_count_is_exact(self, columns, query, n_partitions):
        lake = PartitionedPexeso(n_pivots=2, levels=2, n_partitions=n_partitions).fit(columns)
        got = lake.search(query, 0.7, 0.2).column_ids
        want = naive_search(columns, query, 0.7, 0.2).column_ids
        assert got == want

    def test_global_column_ids_preserved(self, columns, query):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3).fit(columns)
        result = lake.search(columns[17][:4], tau=1e-6, joinability=1.0)
        assert 17 in result.column_ids

    def test_results_sorted(self, columns, query):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3).fit(columns)
        ids = lake.search(query, 1.2, 0.2).column_ids
        assert ids == sorted(ids)

    def test_stats_merged(self, columns, query):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3).fit(columns)
        result = lake.search(query, 0.8, 0.3)
        assert result.stats.pivot_mapping_distances > 0

    def test_labels_cover_all_columns(self, columns):
        lake = PartitionedPexeso(n_partitions=4).fit(columns)
        assert lake.labels.shape == (30,)
        assert lake.n_columns == 30
        assigned = [cid for part in lake.partition_columns for cid in part]
        assert sorted(assigned) == list(range(30))


class TestSpilledPartitions:
    def test_spill_and_search(self, columns, query, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, spill_dir=tmp_path
        ).fit(columns)
        # every partition should be on disk, none resident
        assert len(list(tmp_path.glob("partition_*/arrays_v3_*/vectors.npy"))) >= 1
        assert lake.memory_bytes() == 0
        got = lake.search(query, 0.8, 0.3).column_ids
        want = naive_search(columns, query, 0.8, 0.3).column_ids
        assert got == want

    def test_spilled_matches_resident(self, columns, query, tmp_path):
        resident = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3, seed=5).fit(columns)
        spilled = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=tmp_path
        ).fit(columns)
        assert (
            resident.search(query, 0.6, 0.3).column_ids
            == spilled.search(query, 0.6, 0.3).column_ids
        )


class TestValidation:
    def test_unknown_partitioner(self):
        with pytest.raises(KeyError):
            PartitionedPexeso(partitioner="magic")

    def test_zero_partitions(self):
        with pytest.raises(ValueError):
            PartitionedPexeso(n_partitions=0)

    def test_search_before_fit(self, query):
        with pytest.raises(RuntimeError):
            PartitionedPexeso().search(query, 0.5, 0.5)

    def test_fit_empty(self):
        with pytest.raises(ValueError):
            PartitionedPexeso().fit([])

    def test_bad_workers(self):
        with pytest.raises(ValueError):
            PartitionedPexeso(max_workers=0)
        with pytest.raises(ValueError):
            PartitionedPexeso(lru_shards=0)

    def test_topk_before_fit(self, query):
        with pytest.raises(RuntimeError):
            PartitionedPexeso().topk(query, 0.5, 3)


def _int_stats(stats) -> dict:
    """The deterministic (integer) counters of a SearchStats."""
    return {
        name: getattr(stats, name)
        for name in stats.__dataclass_fields__
        if isinstance(getattr(stats, name), int)
    }


class TestParallelShardSearch:
    def test_batch_over_shards_is_exact(self, columns, query):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4).fit(columns)
        queries = [query, columns[3], columns[17][:5]]
        batch = lake.search_many(queries, 0.8, 0.3)
        for q, result in zip(queries, batch.results):
            want = naive_search(columns, q, 0.8, 0.3)
            assert result.column_ids == want.column_ids

    def test_empty_query_list(self, columns):
        lake = PartitionedPexeso(n_pivots=2, levels=2, n_partitions=3).fit(columns)
        batch = lake.search_many([], 0.8, 0.3)
        assert len(batch) == 0

    @pytest.mark.parametrize("spill", [False, True])
    def test_worker_count_determinism(self, columns, query, tmp_path, spill):
        """Satellite contract: same results AND identical SearchStats
        totals for max_workers in {1, 2, 4}."""
        queries = [query, columns[8], columns[21][:6]]
        outputs = []
        for workers in (1, 2, 4):
            lake = PartitionedPexeso(
                n_pivots=3,
                levels=3,
                n_partitions=4,
                seed=5,
                spill_dir=(tmp_path / f"w{workers}") if spill else None,
                max_workers=workers,
            ).fit(columns)
            batch = lake.search_many(queries, 0.8, 0.3)
            outputs.append(batch)
        rows = [
            [
                [(h.column_id, h.match_count, h.joinability) for h in r.joinable]
                for r in batch.results
            ]
            for batch in outputs
        ]
        assert rows[0] == rows[1] == rows[2]
        totals = [_int_stats(batch.stats) for batch in outputs]
        assert totals[0] == totals[1] == totals[2]

    def test_shard_load_seconds_recorded(self, columns, query, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, spill_dir=tmp_path
        ).fit(columns)
        result = lake.search(query, 0.8, 0.3)
        assert result.stats.shard_load_seconds > 0

    def test_from_index_preserves_global_ids(self, columns, query):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        index.delete_column(4)
        lake = PartitionedPexeso.from_index(index, n_partitions=4)
        got = lake.search(query, 0.9, 0.2)
        want = pexeso_search(index, query, 0.9, 0.2)
        assert got.column_ids == want.column_ids
        assert 4 not in got.column_ids


class TestPartitionedTopK:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    @pytest.mark.parametrize("spill", [False, True])
    def test_matches_single_index(self, columns, query, tmp_path, k, spill):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        lake = PartitionedPexeso(
            n_pivots=3,
            levels=3,
            n_partitions=4,
            spill_dir=(tmp_path / f"k{k}") if spill else None,
        ).fit(columns)
        got = lake.topk(query, 0.8, k)
        want = pexeso_topk(index, query, 0.8, k)
        assert got.hits == want.hits
        assert got.k == want.k

    def test_matches_oracle_across_worker_counts(self, columns, query):
        want = naive_topk(columns, query, 0.9, 7)
        for workers in (1, 2, 4):
            lake = PartitionedPexeso(
                n_pivots=3, levels=3, n_partitions=5, max_workers=workers
            ).fit(columns)
            got = lake.topk(query, 0.9, 7)
            assert [(c, n) for c, n, _ in got.hits] == [(c, n) for c, n, _ in want]

    @pytest.mark.parametrize("spill", [False, True])
    def test_ties_across_shards_break_by_global_id(self, tmp_path, spill):
        # Every column holds copies of exactly 0-4 of the query's rows,
        # so match counts tie in classes that the random partitioner
        # spreads over the shards: for most k the k-th place is a tie
        # that only the global column ID breaks.
        rng = np.random.default_rng(9)
        query = normalize_rows(rng.normal(size=(6, 6)))

        def column(count):
            far = normalize_rows(rng.normal(size=(3, 6)))
            rows = rng.choice(6, size=count, replace=False)
            return np.vstack([query[rows] + 1e-4 * rng.normal(size=(count, 6)), far])

        cols = [column(int(c)) for c in rng.choice([0, 1, 2, 2, 3, 3, 4], size=24)]
        lake = PartitionedPexeso(
            n_pivots=2, levels=3, n_partitions=4, partitioner="random", seed=2,
            spill_dir=(tmp_path / "lake") if spill else None,
        ).fit(cols)
        full = naive_topk(cols, query, 0.05, len(cols))
        part_of = {
            cid: part
            for part, members in enumerate(lake.partition_columns)
            for cid in members
        }
        assert any(
            len({part_of[c] for c, n, _ in full if n == count}) > 1
            for count in (1, 2, 3, 4)
        )
        # one shard owns the whole global top-3, so a shard that answered
        # fewer than k columns would lose a member
        assert len({part_of[c] for c, _, _ in full[:3]}) == 1

        def check():
            for k in range(1, len(cols) + 1):
                got = lake.topk(query, 0.05, k)
                want = naive_topk(cols, query, 0.05, k)
                assert [(c, n) for c, n, _ in got.hits] == [
                    (c, n) for c, n, _ in want
                ], k

        check()
        cols.append(column(2))  # ties with the count-2 class, last by ID
        assert lake.add_column(cols[-1]) == len(cols) - 1
        check()
        victim = next(c for c, n, _ in full if n == 2)
        lake.delete_column(victim)
        cols[victim] = normalize_rows(rng.normal(size=(3, 6)))
        check()

    def test_invalid_k(self, columns, query):
        lake = PartitionedPexeso(n_pivots=2, levels=2, n_partitions=2).fit(columns)
        with pytest.raises(ValueError):
            lake.topk(query, 0.5, 0)

    def test_empty_query(self, columns):
        lake = PartitionedPexeso(n_pivots=2, levels=2, n_partitions=2).fit(columns)
        with pytest.raises(ValueError):
            lake.topk(np.zeros((0, 6)), 0.5, 3)


class TestShardLRU:
    def test_capacity_bounded(self):
        loads = []

        def loader(part):
            loads.append(part)
            return part * 10

        lru = ShardLRU(loader, capacity=2)
        assert lru.get(0) == 0 and lru.get(1) == 10 and lru.get(2) == 20
        assert len(lru) == 2  # 0 evicted
        assert lru.get(0) == 0  # reloaded
        assert loads == [0, 1, 2, 0]
        assert lru.misses == 4

    def test_hits_skip_loader(self):
        loads = []
        lru = ShardLRU(lambda p: loads.append(p) or p, capacity=4)
        lru.get(1), lru.get(1), lru.get(1)
        assert loads == [1]
        assert lru.hits == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ShardLRU(lambda p: p, capacity=0)

    def test_spilled_search_bounds_residency(self, columns, query, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=2,
            levels=2,
            n_partitions=5,
            spill_dir=tmp_path,
            max_workers=1,
            lru_shards=2,
        ).fit(columns)
        lake.search(query, 0.8, 0.3)
        assert lake._lru is not None
        assert len(lake._lru) <= 2
        # Memory accounting includes LRU-resident shards.
        assert lake.memory_bytes() > 0


class TestShardLRUStaleLoadRace:
    """A disk load that straddles a put() must never clobber the fresher
    index put() installed (the stale-shard race)."""

    def test_slow_load_does_not_overwrite_put(self):
        import threading

        load_started = threading.Event()
        release_load = threading.Event()

        def loader(part):
            load_started.set()
            release_load.wait(5.0)
            return "stale-from-disk"

        lru = ShardLRU(loader, capacity=4)
        got = []
        t = threading.Thread(target=lambda: got.append(lru.get(7)))
        t.start()
        assert load_started.wait(5.0)
        # Mutation path installs a fresher index while the load sleeps.
        lru.put(7, "fresh-mutated")
        release_load.set()
        t.join(5.0)
        assert got == ["fresh-mutated"]
        assert lru.get(7) == "fresh-mutated"

    def test_invalidate_mid_load_forces_reload(self):
        import threading

        versions = [0]
        load_started = threading.Event()
        release_load = threading.Event()
        first_load = [True]

        def loader(part):
            if first_load[0]:
                first_load[0] = False
                load_started.set()
                release_load.wait(5.0)
            return f"disk-v{versions[0]}"

        lru = ShardLRU(loader, capacity=4)
        got = []
        t = threading.Thread(target=lambda: got.append(lru.get(3)))
        t.start()
        assert load_started.wait(5.0)
        versions[0] = 1  # the on-disk copy moves on ...
        lru.invalidate(3)  # ... and the cache is told so
        release_load.set()
        t.join(5.0)
        # The straddling get() must retry and see the new disk state, not
        # install its pre-invalidate snapshot.
        assert got == ["disk-v1"]

    def test_stress_get_vs_mutation_put(self, columns, tmp_path):
        """Hammer get() against concurrent add_column mutations; every
        search fetched after a mutation completes must see it."""
        import threading

        lake = PartitionedPexeso(
            n_pivots=2,
            levels=2,
            n_partitions=2,
            spill_dir=tmp_path,
            max_workers=4,
            lru_shards=1,  # tiny LRU maximises reload traffic
        ).fit(columns)
        parts = [p for p, g in enumerate(lake.partition_columns) if g]
        lake._ensure_lru(4)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                for part in parts:
                    try:
                        lake._lru.get(part)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        added = []
        try:
            for i in range(12):
                added.append(lake.add_column(columns[0][:3].copy()))
        finally:
            stop.set()
            for t in threads:
                t.join(10.0)
        assert errors == []
        # Post-race ground truth: every added column is present in the
        # shard the LRU now serves.
        for gid in added:
            assert lake.has_column(gid)
            assert lake.column_vectors(gid).shape[0] == 3


class _UnregisteredMetric(EuclideanMetric):
    name = "unregistered-test-metric"


class TestCustomMetricSpill:
    def test_registered_custom_metric_never_pickles(self, columns, query, tmp_path):
        class RegisteredMetric(EuclideanMetric):
            name = "registered-test-metric"

        register_metric(RegisteredMetric)
        try:
            lake = PartitionedPexeso(
                metric=RegisteredMetric(),
                n_pivots=2,
                levels=2,
                n_partitions=3,
                spill_dir=tmp_path,
            ).fit(columns)
            assert list(tmp_path.glob("*.pkl")) == []
            assert len(list(tmp_path.glob("partition_*/arrays_v3_*/vectors.npy"))) >= 1
            want = naive_search(columns, query, 0.8, 0.3, metric=RegisteredMetric())
            assert lake.search(query, 0.8, 0.3).column_ids == want.column_ids
        finally:
            del METRIC_REGISTRY["registered-test-metric"]

    def test_unregistered_metric_refuses_to_spill(self, columns, tmp_path):
        """No pickle fallback: an unregistered metric fails at spill time
        with the register-it error, and nothing is written."""
        lake = PartitionedPexeso(
            metric=_UnregisteredMetric(),
            n_pivots=2,
            levels=2,
            n_partitions=3,
            spill_dir=tmp_path,
        )
        with pytest.raises(ValueError, match="register_metric"):
            lake.fit(columns)
        assert list(tmp_path.iterdir()) == []


class TestLakeSearcher:
    def test_dispatch_parity(self, columns, query):
        single = LakeSearcher.build(columns, n_pivots=3, levels=3)
        sharded = LakeSearcher.build(
            columns, n_pivots=3, levels=3, n_partitions=4, max_workers=2
        )
        assert not single.is_partitioned and sharded.is_partitioned
        assert single.index is not None and sharded.index is None
        assert single.n_columns == sharded.n_columns == len(columns)
        assert (
            single.search(query, 0.8, 0.3).column_ids
            == sharded.search(query, 0.8, 0.3).column_ids
        )
        batch_a = single.search_many([query, columns[2]], 0.8, 0.3)
        batch_b = sharded.search_many([query, columns[2]], 0.8, 0.3)
        assert batch_a.column_ids == batch_b.column_ids
        assert single.topk(query, 0.8, 5).hits == sharded.topk(query, 0.8, 5).hits

    def test_spill_dir_forces_partitioned_backend(self, columns, tmp_path):
        searcher = LakeSearcher.build(
            columns, n_pivots=2, levels=2, spill_dir=tmp_path
        )
        assert searcher.is_partitioned

    def test_rejects_unbuilt_backend(self):
        with pytest.raises(RuntimeError):
            LakeSearcher(PexesoIndex())
        with pytest.raises(RuntimeError):
            LakeSearcher(PartitionedPexeso())
        with pytest.raises(TypeError):
            LakeSearcher(object())


class TestLruCapacityTracksFanOut:
    def test_wider_call_grows_default_capacity(self, columns, query, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=2, levels=2, n_partitions=5, spill_dir=tmp_path,
            max_workers=1,
        ).fit(columns)
        lake.search(query, 0.8, 0.3)  # 1-wide fan-out -> capacity 1
        assert lake._lru is not None and lake._lru.capacity == 1
        lake.search(query, 0.8, 0.3, max_workers=4)
        assert lake._lru.capacity == 4  # follows the widest fan-out seen

    def test_default_width_keeps_the_former_residency(self, columns, query, tmp_path):
        """DEFAULT_SHARD_WORKERS dropped to 1; a lake that chose no width
        must not start re-opening every shard on every query."""
        from repro.core.out_of_core import DEFAULT_LRU_SHARDS

        lake = PartitionedPexeso(
            n_pivots=2, levels=2, n_partitions=4, spill_dir=tmp_path
        ).fit(columns)
        lake.search(query, 0.8, 0.3)
        assert lake._lru.capacity == DEFAULT_LRU_SHARDS
        lake.search(query, 0.8, 0.3)
        assert lake.lru_info()["lru_hits"] >= len(lake._spilled)

    def test_explicit_bound_never_grows(self, columns, query, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=2, levels=2, n_partitions=5, spill_dir=tmp_path,
            max_workers=1, lru_shards=2,
        ).fit(columns)
        lake.search(query, 0.8, 0.3, max_workers=4)
        assert lake._lru.capacity == 2


def by_value(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])]


class TestColumnVectors:
    def test_matches_source_columns(self, columns, tmp_path):
        for spill in (None, tmp_path):
            lake = PartitionedPexeso(
                n_pivots=2, levels=2, n_partitions=4, spill_dir=spill
            ).fit(columns)
            for cid in (0, 13, 29):
                # a shard's store is in leaf order: compare as row sets
                np.testing.assert_array_equal(
                    by_value(lake.column_vectors(cid)), by_value(columns[cid])
                )
        with pytest.raises(KeyError):
            lake.column_vectors(999)

    def test_lake_searcher_dispatch(self, columns):
        single = LakeSearcher.build(columns, n_pivots=2, levels=2)
        sharded = LakeSearcher.build(columns, n_pivots=2, levels=2, n_partitions=3)
        np.testing.assert_array_equal(
            by_value(single.column_vectors(7)), by_value(sharded.column_vectors(7))
        )
