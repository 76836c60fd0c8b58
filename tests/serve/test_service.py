"""Tests for the resident QueryService (locking, caching, generations)."""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.search import pexeso_search
from repro.core.topk import pexeso_topk
from repro.serve.service import QueryService, RWLock


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(7)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(5, 15)), 6)))
        for _ in range(24)
    ]


@pytest.fixture(scope="module")
def query(columns):
    return columns[5][:8]


@pytest.fixture
def index(columns):
    return PexesoIndex.build(columns, n_pivots=3, levels=3)


@pytest.fixture
def service(index):
    return QueryService(index, window_ms=0, cache_size=32, exact_counts=True)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_reader(self):
        lock = RWLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=0.05)
        assert order == []  # reader blocked behind the writer
        order.append("write-done")
        lock.release_write()
        t.join(timeout=2)
        assert order == ["write-done", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        states = []

        def writer():
            with lock.write():
                states.append("wrote")

        def late_reader():
            with lock.read():
                states.append("late-read")

        wt = threading.Thread(target=writer)
        wt.start()
        import time

        time.sleep(0.02)  # let the writer start waiting
        rt = threading.Thread(target=late_reader)
        rt.start()
        rt.join(timeout=0.05)
        assert states == []  # late reader queued behind the waiting writer
        lock.release_read()
        wt.join(timeout=2)
        rt.join(timeout=2)
        assert states == ["wrote", "late-read"]


class TestServing:
    def test_search_matches_sequential_oracle(self, service, index, columns, query):
        response = service.search(query, 0.6, 0.3)
        want = pexeso_search(index, query, 0.6, 0.3, exact_counts=True)
        got = [(h.column_id, h.match_count) for h in response.result.joinable]
        expect = [(h.column_id, h.match_count) for h in want.joinable]
        assert got == expect
        assert response.generation == 0
        assert response.cached is False

    def test_cache_hit_and_counters_are_exact_ints(self, service, query):
        first = service.search(query, 0.6, 0.3)
        second = service.search(query, 0.6, 0.3)
        assert second.cached is True
        assert second.result is first.result  # replayed object
        stats = service.snapshot_stats()
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1
        assert isinstance(stats.cache_hits, int)
        assert isinstance(stats.cache_misses, int)
        assert all(isinstance(n, int) for n in stats.coalesced_batch_sizes)
        assert list(stats.coalesced_batch_sizes).count(1) == 1  # one real dispatch

    def test_cache_distinguishes_joinability_int_vs_float(self, service, query):
        """joinability=1 (absolute count) and 1.0 (100% fraction) hash the
        same in Python but mean different searches — the cache key must
        keep them apart."""
        strict = service.search(query, 0.6, 1.0)  # all |Q| rows must match
        loose = service.search(query, 0.6, 1)  # any one row suffices
        assert loose.cached is False  # no key collision with the strict entry
        assert loose.result.t_count == 1
        assert strict.result.t_count == query.shape[0]
        assert set(strict.result.column_ids) <= set(loose.result.column_ids)

    def test_mutation_bumps_generation_and_invalidates_cache(
        self, service, columns, query
    ):
        service.search(query, 0.6, 0.3)
        column_id, generation = service.add_column(query)
        assert generation == 1
        response = service.search(query, 0.6, 0.3)
        assert response.cached is False  # generation bump invalidated the entry
        assert response.generation == 1
        assert column_id in response.result.column_ids

        assert service.delete_column(column_id) == 2
        after = service.search(query, 0.6, 0.3)
        assert after.generation == 2
        assert column_id not in after.result.column_ids
        with pytest.raises(KeyError):
            service.delete_column(column_id)

    def test_topk_served_and_cached(self, service, index, query):
        response = service.topk(query, 0.6, 5)
        want = pexeso_topk(index, query, 0.6, 5)
        assert response.result.hits == want.hits
        again = service.topk(query, 0.6, 5)
        assert again.cached is True

    def test_coalesced_concurrent_requests_share_one_dispatch(self, index, columns):
        service = QueryService(index, window_ms=20.0, cache_size=0,
                               exact_counts=True)
        gate = threading.Barrier(10)
        responses = [None] * 10

        def client(i):
            gate.wait()
            responses[i] = service.search(columns[i][:6], 0.6, 0.3)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = service.snapshot_stats()
        assert sum(stats.coalesced_batch_sizes) == 10
        assert max(stats.coalesced_batch_sizes) > 1
        for i, response in enumerate(responses):
            want = pexeso_search(index, columns[i][:6], 0.6, 0.3,
                                 exact_counts=True)
            got = [(h.column_id, h.match_count) for h in response.result.joinable]
            assert got == [(h.column_id, h.match_count) for h in want.joinable]

    def test_no_coalescing_mode(self, index, query):
        service = QueryService(index, window_ms=None, cache_size=0)
        assert service.coalescing_enabled is False
        response = service.search(query, 0.6, 0.3)
        assert response.generation == 0
        stats = service.snapshot_stats()
        # serial dispatch must not report "coalesced" work
        assert stats.coalesced_batch_sizes == []

    def test_invalid_query_rejected_before_dispatch(self, service):
        with pytest.raises(ValueError):
            service.search(np.empty((0, 6)), 0.6, 0.3)
        with pytest.raises(ValueError):
            service.search(np.full((3, 6), np.nan), 0.6, 0.3)
        with pytest.raises(ValueError):
            service.search(np.zeros((3, 9)), 0.6, 0.3)

    def test_resolve_tau(self, service):
        assert service.resolve_tau(0.5, None, 6) == 0.5
        fraction = service.resolve_tau(None, 0.06, 6)
        assert fraction > 0
        with pytest.raises(ValueError):
            service.resolve_tau(None, None, 6)
        with pytest.raises(ValueError):
            service.resolve_tau(0.5, 0.06, 6)

    def test_describe_is_json_safe(self, service, query):
        import json

        service.search(query, 0.6, 0.3)
        payload = service.describe()
        json.dumps(payload)
        assert payload["n_columns"] == 24
        assert payload["cache"]["misses"] == 1

    def test_dropped_service_is_freed_without_cycle_collection(self, index, query):
        """The batcher must not keep its service (and index) alive in a
        reference cycle: a closed server's memory returns at once."""
        service = QueryService(index, window_ms=0)
        service.search(query, 0.6, 0.3)
        alive = weakref.ref(service)
        gc.disable()
        try:
            del service
            assert alive() is None
        finally:
            gc.enable()


class TestPartitionedBackend:
    def test_partitioned_service_matches_single(self, columns, query, tmp_path):
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, spill_dir=tmp_path
        ).fit(columns)
        service = QueryService(lake, window_ms=0, exact_counts=True)
        single = PexesoIndex.build(columns, n_pivots=3, levels=3)
        response = service.search(query, 0.6, 0.3)
        want = pexeso_search(single, query, 0.6, 0.3, exact_counts=True)
        assert response.result.column_ids == want.column_ids
        assert service.searcher.is_partitioned

    def test_partitioned_live_maintenance(self, columns, query):
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3).fit(columns)
        service = QueryService(lake, window_ms=0, exact_counts=True)
        before = service.n_columns
        column_id, generation = service.add_column(query)
        assert generation == 1
        assert service.n_columns == before + 1
        hits = service.search(query, 1e-6, 1.0).result.column_ids
        assert column_id in hits
        service.delete_column(column_id)
        assert service.n_columns == before
        hits = service.search(query, 1e-6, 1.0).result.column_ids
        assert column_id not in hits

    def test_wrapped_lake_searcher_accepted_and_not_mutated(self, columns, query):
        searcher = LakeSearcher(PexesoIndex.build(columns, n_pivots=3, levels=3))
        service = QueryService(searcher, window_ms=0, cache_size=0)
        assert service.search(query, 0.6, 0.3).result is not None
        # the caller's searcher keeps its own configuration; fan-in
        # telemetry is recorded by the service itself
        assert searcher.record_batch_sizes is False
        assert service.snapshot_stats().coalesced_batch_sizes == [1]

    def test_recording_searcher_not_double_counted(self, columns, query):
        searcher = LakeSearcher(
            PexesoIndex.build(columns, n_pivots=3, levels=3),
            record_batch_sizes=True,
        )
        service = QueryService(searcher, window_ms=0, cache_size=0)
        service.search(query, 0.6, 0.3)
        assert service.snapshot_stats().coalesced_batch_sizes == [1]

    def test_batch_size_samples_are_bounded_with_exact_totals(self, index, query):
        service = QueryService(index, window_ms=0, cache_size=0)
        service.MAX_COALESCED_SAMPLES = 5
        for _ in range(12):
            service.search(query, 0.6, 0.3)
        stats = service.snapshot_stats()
        assert len(stats.coalesced_batch_sizes) == 5  # window held
        assert service.coalescing_totals() == (12, 12)  # totals exact
        assert service.describe()["coalescing"] == {
            "enabled": True, "window_ms": 0.0, "max_batch": 64,
            "batches": 12, "requests": 12,
        }
