"""Tests for verification (the GEMM over the blocker's candidate rows)."""

import numpy as np
import pytest

from repro.core import verifier
from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.blocker import block
from repro.core.grid import HierarchicalGrid
from repro.core.search import pexeso_search
from repro.core.stats import SearchStats


@pytest.fixture(scope="module")
def pipeline(verify_one):
    """Run blocking + verification manually, returning the verdict."""

    def run(columns, queries, tau, t_count, block_kwargs=None, **verify_kwargs):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        q_mapped = index.pivot_space.map_vectors(queries)
        hg_q = HierarchicalGrid.build(q_mapped, index.levels, index.pivot_space.extent)
        stats = SearchStats()
        pairs = block(
            hg_q, index.grid, q_mapped, tau, stats=stats, **(block_kwargs or {})
        )
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
        _, verdict, _ = pipeline(columns, queries, tau, t_count=1)
        for cid, expected in truth.items():
            assert verdict.match_counts.get(cid, 0) == expected

    def test_exact_flag_recorded(self, data):
        columns, queries = data
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        result = pexeso_search(index, queries, 0.5, 2)
        assert result.joinable
        assert all(hit.exact_count for hit in result.joinable)

    @pytest.mark.parametrize("t_count", [1, 3, 7])
    def test_joinable_set_matches_truth(self, pipeline, data, t_count):
        columns, queries = data
        tau = 0.8
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(columns, queries, tau, t_count)
        expected = {cid for cid, c in truth.items() if c >= t_count}
        assert verdict.joinable == expected


class TestEarlyTermination:
    """Early accept and Lemma 7 are gone: no column stops early, so the
    count a joinable column reports is its exact count."""

    def test_early_accept_gives_lower_bound_counts(self, pipeline, data):
        columns, queries = data
        tau, t_count = 0.9, 2
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(columns, queries, tau, t_count)
        assert verdict.joinable
        for cid in verdict.joinable:
            assert t_count <= verdict.match_counts[cid] == truth[cid]

    def test_lemma7_never_kills_joinable_columns(self, pipeline, data):
        columns, queries = data
        for tau in (0.4, 0.8):
            for t_count in (2, 5):
                truth = _truth_counts(columns, queries, tau)
                _, verdict, _ = pipeline(columns, queries, tau, t_count)
                expected = {cid for cid, c in truth.items() if c >= t_count}
                assert verdict.joinable == expected

    def test_lemma7_skips_counted(self, pipeline, data):
        columns, queries = data
        # the perf ledger still reads the retired counters: present, zero
        _, _, stats = pipeline(columns, queries, 0.05, t_count=10)
        assert stats.lemma7_skips == stats.early_accepts == 0

    def test_disable_everything_still_exact(self, pipeline, data):
        columns, queries = data
        tau, t_count = 0.7, 3
        truth = _truth_counts(columns, queries, tau)
        _, verdict, _ = pipeline(
            columns, queries, tau, t_count,
            block_kwargs=dict(
                use_lemma34=False, use_lemma56=False, use_quick_browsing=False
            ),
        )
        expected = {cid for cid, c in truth.items() if c >= t_count}
        assert verdict.joinable == expected


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("use_lemma56", [False, True])
    @pytest.mark.parametrize("tau,t_count", [(0.4, 2), (0.8, 3), (0.9, 7)])
    def test_results_do_not_depend_on_row_block_size(
        self, pipeline, data, tau, t_count, use_lemma56, monkeypatch
    ):
        """Chunks of one union row and larger ones return the same joinable
        sets and counts, whether blocking proves pairs (Lemma 5/6, credited
        without a distance) or leaves every pair to the GEMM. The ledger's
        ``row_block_size`` keyword is accepted and ignored."""
        columns, queries = data
        verdicts = []
        for size in (1, 8, 64):
            monkeypatch.setattr(verifier, "CHUNK_ELEMENTS", size * queries.shape[0])
            verdicts.append(pipeline(
                columns, queries, tau, t_count, row_block_size=8,
                block_kwargs=dict(use_lemma56=use_lemma56),
            )[1])
        truth = _truth_counts(columns, queries, tau)
        assert verdicts[0].match_counts == {c: n for c, n in truth.items() if n}
        for verdict in verdicts[1:]:
            assert verdict.joinable == verdicts[0].joinable
            assert verdict.match_counts == verdicts[0].match_counts


class TestInstrumentation:
    def test_lemma1_reduces_distance_computations(self, pipeline, data):
        """Lemma 1 is Lemma 3 on a zero-width cell: blocking's Lemma 3/4
        pruning is what keeps the GEMM below the exhaustive pair count."""
        columns, queries = data
        _, _, stats = pipeline(columns, queries, 0.5, 1)
        n_lake = sum(column.shape[0] for column in columns)
        assert 0 < stats.distance_computations < queries.shape[0] * n_lake

    def test_lemma2_short_circuits(self, pipeline, data):
        """Lemma 2 is Lemma 5 on a zero-width cell: pairs blocking proves
        are credited without a distance."""
        columns, queries = data
        _, with_56, stats = pipeline(columns, queries, 1.6, 1)
        _, without, plain = pipeline(
            columns, queries, 1.6, 1, block_kwargs=dict(use_lemma56=False)
        )
        # proven pairs leave the candidate lists and cost no extra distances
        assert stats.matching_pairs > 0
        assert stats.candidate_pairs < plain.candidate_pairs
        assert stats.distance_computations <= plain.distance_computations
        assert with_56.match_counts == without.match_counts
        assert stats.lemma2_matched == 0  # retired counter, still read by the ledger

    def test_verification_time_recorded(self, pipeline, data):
        columns, queries = data
        _, _, stats = pipeline(columns, queries, 0.6, 2)
        assert stats.verification_seconds >= 0.0
