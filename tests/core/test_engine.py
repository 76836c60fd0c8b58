"""Batch query engine: a batch of N equals N batches of one, and both
equal the exhaustive scan.

The contract under test (see :mod:`repro.core.engine`): for every query
in a batch, ``BatchSearch`` returns exactly what N independent
``pexeso_search`` calls (batches of one) would — same joinable column
IDs, same (exact) match counts, same joinability values — across
metrics, thresholds, ablation configurations, verifier chunk sizes and
thread-pool widths; and every result obeys the oracle rule against
``naive_search``.
"""

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core import verifier
from repro.core.engine import BatchResult, BatchSearch, batch_search
from repro.core.index import PexesoIndex
from repro.core.metric import ChebyshevMetric, EuclideanMetric, ManhattanMetric, normalize_rows
from repro.core.search import ABLATIONS, AblationFlags, pexeso_search


def make_queries(seed: int, n_queries: int, dim: int, rows=(1, 14)) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(*rows)), dim)))
        for _ in range(n_queries)
    ]


def assert_oracle_rule(index, query, tau, joinability, got):
    """The perf ledger's ``wrong_hits`` rule: column IDs equal the
    exhaustive scan's; a match count equals the scan's when marked exact
    and otherwise lies between T and the scan's count (early termination
    reports a lower bound)."""
    live = sorted(index.column_rows)
    truth = naive_search(
        [index.vectors[index.column_rows[c]] for c in live],
        query, tau, joinability, metric=index.metric,
    )
    expected = {live[h.column_id]: h.match_count for h in truth.joinable}
    assert got.column_ids == sorted(expected)
    for hit in got.joinable:
        if hit.exact_count:
            assert hit.match_count == expected[hit.column_id]
        else:
            assert truth.t_count <= hit.match_count <= expected[hit.column_id]


def assert_batch_equals_singles(index, queries, tau, joinability, **engine_kwargs):
    """Per-query equality of hits, counts and thresholds between one batch
    and batches of one, plus the oracle rule on every batch result."""
    flags = engine_kwargs.pop("flags", None)
    batch = BatchSearch(index, flags=flags, **engine_kwargs).search_many(
        queries, tau, joinability
    )
    assert len(batch) == len(queries)
    taus = tau if not np.isscalar(tau) else [tau] * len(queries)
    joins = joinability if not np.isscalar(joinability) else [joinability] * len(queries)
    for query, t, j, got in zip(queries, taus, joins, batch.results):
        want = pexeso_search(index, query, t, j, flags=flags)
        assert got.column_ids == want.column_ids
        assert {h.column_id: h.match_count for h in got.joinable} == {
            h.column_id: h.match_count for h in want.joinable
        }
        assert {h.column_id: h.joinability for h in got.joinable} == {
            h.column_id: h.joinability for h in want.joinable
        }
        assert [h.exact_count for h in got.joinable] == [
            h.exact_count for h in want.joinable
        ]
        assert got.t_count == want.t_count
        assert got.query_size == want.query_size
        assert got.tau == want.tau
        assert_oracle_rule(index, query, t, j, got)
    return batch


@pytest.fixture(scope="module")
def index(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=3)


@pytest.fixture(scope="module")
def queries():
    return make_queries(seed=77, n_queries=8, dim=8)


class TestBatchEqualsSingles:
    def test_default_flags(self, index, queries):
        assert_batch_equals_singles(index, queries, 0.6, 0.3)

    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_all_ablation_configs(self, index, queries, name):
        assert_batch_equals_singles(
            index, queries, 0.5, 0.4, flags=ABLATIONS[name]
        )

    def test_everything_disabled(self, index, queries):
        assert_batch_equals_singles(
            index, queries, 0.7, 0.3, flags=AblationFlags.none()
        )

    @pytest.mark.parametrize("tau", [0.05, 0.3, 0.8, 1.4])
    @pytest.mark.parametrize("joinability", [0.1, 0.6, 1.0])
    def test_threshold_grid(self, index, queries, tau, joinability):
        assert_batch_equals_singles(index, queries, tau, joinability)

    @pytest.mark.parametrize(
        "metric_cls", [EuclideanMetric, ManhattanMetric, ChebyshevMetric]
    )
    def test_metrics(self, small_columns, queries, metric_cls):
        metric_index = PexesoIndex.build(
            small_columns, metric=metric_cls(), n_pivots=3, levels=3
        )
        assert_batch_equals_singles(metric_index, queries, 0.6, 0.4)

    def test_exact_counts_mode(self, index, queries):
        # exact counts are the only mode: every hit says so
        batch = assert_batch_equals_singles(index, queries, 0.8, 0.2)
        for result in batch.results:
            assert all(h.exact_count for h in result.joinable)

    def test_absolute_joinability_counts(self, index, queries):
        assert_batch_equals_singles(index, queries, 0.6, 1)

    @pytest.mark.parametrize("row_block_size", [1, 3, 8, 64, 1000])
    def test_row_block_sizes(self, index, queries, row_block_size, monkeypatch):
        """The verifier decides the candidate rows in chunks of about
        ``CHUNK_ELEMENTS / |Q|`` rows (a chunk may split a column's rows);
        results must not depend on the chunk size."""
        monkeypatch.setattr(verifier, "CHUNK_ELEMENTS", row_block_size)
        assert_batch_equals_singles(index, queries, 0.55, 0.35)

    def test_per_query_taus_and_joinabilities(self, index, queries):
        rng = np.random.default_rng(5)
        taus = [float(rng.uniform(0.1, 1.0)) for _ in queries]
        joins = [float(rng.uniform(0.1, 1.0)) for _ in queries]
        assert_batch_equals_singles(index, queries, taus, joins)

    def test_thread_pool_with_mixed_taus(self, index, queries):
        taus = [0.3, 0.6] * (len(queries) // 2)
        assert_batch_equals_singles(index, queries, taus, 0.4, max_workers=4)

    def test_thread_pool_splits_single_tau_batch(self, index, queries):
        # max_workers > 1 splits one tau group into parallel subgroups;
        # results must stay identical to the batches of one.
        assert_batch_equals_singles(index, queries, 0.6, 0.3, max_workers=3)

    def test_serial_mode(self, index, queries):
        assert_batch_equals_singles(index, queries, 0.6, 0.3, max_workers=1)

    def test_single_query_batch(self, index, small_query):
        assert_batch_equals_singles(index, [small_query], 0.6, 0.3)

    def test_deleted_columns_never_surface(self, small_columns, queries):
        mutable = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        mutable.delete_column(0)
        mutable.delete_column(7)
        batch = assert_batch_equals_singles(mutable, queries, 0.9, 0.2)
        for ids in batch.column_ids:
            assert 0 not in ids and 7 not in ids


class TestBatchApi:
    def test_empty_batch(self, index):
        batch = BatchSearch(index).search_many([], 0.5, 0.5)
        assert len(batch) == 0
        assert batch.results == []
        assert batch.n_joinable == 0

    def test_convenience_function(self, index, queries):
        got = batch_search(index, queries, 0.6, 0.3)
        assert isinstance(got, BatchResult)
        assert got.column_ids == BatchSearch(index).search_many(queries, 0.6, 0.3).column_ids

    def test_result_container(self, index, queries):
        batch = BatchSearch(index).search_many(queries, 0.6, 0.3)
        assert batch[0].column_ids == batch.results[0].column_ids
        assert [r.query_size for r in batch] == [q.shape[0] for q in queries]
        assert batch.wall_seconds > 0
        assert batch.n_joinable == sum(len(ids) for ids in batch.column_ids)

    def test_unbuilt_index_rejected(self):
        with pytest.raises(RuntimeError, match="not built"):
            BatchSearch(PexesoIndex())

    def test_empty_query_rejected(self, index, queries):
        with pytest.raises(ValueError, match="empty"):
            BatchSearch(index).search_many([np.zeros((0, 8))], 0.5, 0.5)

    def test_dim_mismatch_rejected(self, index):
        with pytest.raises(ValueError, match="dim"):
            BatchSearch(index).search_many([np.zeros((3, 5))], 0.5, 0.5)

    def test_negative_tau_rejected(self, index, small_query):
        with pytest.raises(ValueError, match="non-negative"):
            BatchSearch(index).search_many([small_query], -0.1, 0.5)

    def test_nan_query_rejected(self, index):
        bad = np.full((3, 8), np.nan)
        with pytest.raises(ValueError, match="NaN"):
            BatchSearch(index).search_many([bad], 0.5, 0.5)

    def test_mismatched_tau_list_rejected(self, index, queries):
        with pytest.raises(ValueError, match="one entry per query"):
            BatchSearch(index).search_many(queries, [0.5, 0.6], 0.5)

    def test_bad_row_block_size_rejected(self, index):
        # the option went with Algorithm 2's row blocks
        with pytest.raises(TypeError, match="row_block_size"):
            BatchSearch(index, row_block_size=8)


class TestBatchStats:
    def test_per_query_stats_are_threaded_through(self, index, queries):
        batch = BatchSearch(index).search_many(queries, 0.8, 0.2)
        # every query carries its own verification counters
        assert all(r.stats is not None for r in batch.results)
        per_query_distances = [r.stats.distance_computations for r in batch.results]
        assert sum(per_query_distances) == batch.stats.distance_computations
        # blocking output is attributed per query and sums to the batch total
        assert (
            sum(r.stats.candidate_pairs for r in batch.results)
            == batch.stats.candidate_pairs
        )
        assert (
            sum(r.stats.matching_pairs for r in batch.results)
            == batch.stats.matching_pairs
        )

    def test_shared_blocking_counted_once(self, index, queries):
        batch = BatchSearch(index).search_many(queries, 0.8, 0.2)
        # the shared descent runs once per tau group, so per-query stats
        # carry no cells_visited of their own
        assert batch.stats.cells_visited > 0
        assert all(r.stats.cells_visited == 0 for r in batch.results)
        assert batch.stats.blocking_seconds >= 0.0
        assert batch.stats.verification_seconds >= 0.0

    def test_pivot_mapping_attribution(self, index, queries):
        batch = BatchSearch(index).search_many(queries, 0.6, 0.3)
        for query, result in zip(queries, batch.results):
            assert (
                result.stats.pivot_mapping_distances
                == query.shape[0] * index.n_pivots
            )


class TestMergeShardBatches:
    """The global-ID merge the partitioned search is built on."""

    def test_merges_and_remaps(self, small_columns, small_query):
        from repro.core.engine import merge_shard_batches

        # Split the repository into two halves and merge the per-half
        # batches: must equal one batch over the full index.
        half = len(small_columns) // 2
        left = PexesoIndex.build(small_columns[:half], n_pivots=3, levels=3)
        right = PexesoIndex.build(small_columns[half:], n_pivots=3, levels=3)
        full = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        queries = [small_query, small_columns[3]]
        batches = [
            BatchSearch(left).search_many(queries, 0.8, 0.3),
            BatchSearch(right).search_many(queries, 0.8, 0.3),
        ]
        maps = [list(range(half)), list(range(half, len(small_columns)))]
        merged = merge_shard_batches(batches, maps)
        want = BatchSearch(full).search_many(queries, 0.8, 0.3)
        for got_r, want_r in zip(merged.results, want.results):
            assert [(h.column_id, h.match_count) for h in got_r.joinable] == [
                (h.column_id, h.match_count) for h in want_r.joinable
            ]

    def test_rejects_empty_and_mismatched(self, small_columns, small_query):
        from repro.core.engine import merge_shard_batches

        index = PexesoIndex.build(small_columns[:5], n_pivots=2, levels=2)
        engine = BatchSearch(index)
        one = engine.search_many([small_query], 0.8, 0.3)
        two = engine.search_many([small_query, small_query], 0.8, 0.3)
        with pytest.raises(ValueError):
            merge_shard_batches([], [])
        with pytest.raises(ValueError):
            merge_shard_batches([one], [list(range(5)), list(range(5))])
        with pytest.raises(ValueError):
            merge_shard_batches([one, two], [list(range(5)), list(range(5))])
