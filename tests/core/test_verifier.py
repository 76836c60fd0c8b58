"""Tests for Algorithm 2 (verification)."""

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.blocker import block
from repro.core.grid import HierarchicalGrid
from repro.core.stats import SearchStats


@pytest.fixture(scope="module")
def pipeline(verify_one):
    """Run blocking + verification manually, returning the verdict."""

    def run(columns, queries, tau, t_count, **verify_kwargs):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        q_mapped = index.pivot_space.map_vectors(queries)
        hg_q = HierarchicalGrid.build(q_mapped, index.levels, index.pivot_space.extent)
        pairs = block(hg_q, index.grid, q_mapped, tau)
        stats = SearchStats()
        verdict = verify_one(
            pairs, index, queries, q_mapped, tau, t_count,
            stats=stats, **verify_kwargs,
        )
        return index, verdict, stats

    return run


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    columns = [normalize_rows(rng.normal(size=(rng.integers(4, 20), 6))) for _ in range(25)]
    queries = normalize_rows(rng.normal(size=(10, 6)))
    return columns, queries


def _truth_counts(columns, queries, tau):
    metric = EuclideanMetric()
    counts = {}
    for cid, column in enumerate(columns):
        counts[cid] = int((metric.pairwise(queries, column) <= tau).any(axis=1).sum())
    return counts


class TestExactCounts:
    @pytest.mark.parametrize("tau", [0.3, 0.7, 1.1])
    def test_match_counts_equal_truth(self, pipeline, data, tau):
        columns, queries = data
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(columns, queries, tau, t_count=1, exact_counts=True)
        for cid, expected in truth.items():
            assert verdict.match_counts.get(cid, 0) == expected

    def test_exact_flag_recorded(self, pipeline, data):
        columns, queries = data
        _, verdict, _ = pipeline(columns, queries, 0.5, 2, exact_counts=True)
        assert verdict.exact

    @pytest.mark.parametrize("t_count", [1, 3, 7])
    def test_joinable_set_matches_truth(self, pipeline, data, t_count):
        columns, queries = data
        tau = 0.8
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(columns, queries, tau, t_count)
        expected = {cid for cid, c in truth.items() if c >= t_count}
        assert verdict.joinable == expected


class TestEarlyTermination:
    def test_early_accept_gives_lower_bound_counts(self, pipeline, data):
        columns, queries = data
        tau, t_count = 0.9, 2
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(columns, queries, tau, t_count, early_accept=True)
        for cid in verdict.joinable:
            assert t_count <= truth[cid]
            assert verdict.match_counts[cid] <= truth[cid]

    def test_lemma7_never_kills_joinable_columns(self, pipeline, data):
        columns, queries = data
        for tau in (0.4, 0.8):
            for t_count in (2, 5):
                truth = _truth_counts(columns, queries, tau)
                _, verdict, _ = pipeline(columns, queries, tau, t_count, use_lemma7=True)
                expected = {cid for cid, c in truth.items() if c >= t_count}
                assert verdict.joinable == expected

    def test_lemma7_skips_counted(self, pipeline, data):
        columns, queries = data
        # impossible threshold: every column dies quickly
        _, _, stats = pipeline(columns, queries, 0.05, t_count=10)
        assert stats.lemma7_skips >= 0  # counter exists and is non-negative

    def test_disable_everything_still_exact(self, pipeline, data):
        columns, queries = data
        tau, t_count = 0.7, 3
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(
            columns, queries, tau, t_count,
            use_lemma1=False, use_lemma2=False, use_lemma7=False, early_accept=False,
        )
        expected = {cid for cid, c in truth.items() if c >= t_count}
        assert verdict.joinable == expected


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("exact_counts", [False, True])
    @pytest.mark.parametrize("tau,t_count", [(0.4, 2), (0.8, 3), (0.9, 7)])
    def test_results_do_not_depend_on_row_block_size(
        self, pipeline, data, tau, t_count, exact_counts
    ):
        """``row_block_size=1`` is Algorithm 2 row at a time; larger blocks
        return the same joinable sets, match and mismatch counts."""
        columns, queries = data
        verdicts = [
            pipeline(
                columns, queries, tau, t_count,
                exact_counts=exact_counts, row_block_size=size,
            )[1]
            for size in (1, 8, 64)
        ]
        for verdict in verdicts[1:]:
            assert verdict.joinable == verdicts[0].joinable
            assert verdict.match_counts == verdicts[0].match_counts
            assert verdict.mismatch_counts == verdicts[0].mismatch_counts


class TestInstrumentation:
    def test_lemma1_reduces_distance_computations(self, pipeline, data):
        columns, queries = data
        _, _, with_l1 = pipeline(columns, queries, 0.5, 1, use_lemma1=True)
        _, _, without = pipeline(columns, queries, 0.5, 1, use_lemma1=False)
        assert with_l1.distance_computations <= without.distance_computations

    def test_lemma2_short_circuits(self, pipeline, data):
        columns, queries = data
        _, _, stats = pipeline(columns, queries, 1.6, 1, use_lemma2=True)
        assert stats.lemma2_matched >= 0

    def test_verification_time_recorded(self, pipeline, data):
        columns, queries = data
        _, _, stats = pipeline(columns, queries, 0.6, 2)
        assert stats.verification_seconds >= 0.0
