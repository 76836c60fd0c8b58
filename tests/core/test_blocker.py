"""Tests for Algorithm 1 (blocking) and quick browsing.

The completeness invariant: every true (query vector, target vector) match
must be reachable through either a matching pair or a candidate pair —
blocking may only discard provably-nonmatching combinations.
"""

import numpy as np
import pytest

from repro.core.blocker import block
from repro.core.grid import HierarchicalGrid
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.pivot import PivotSpace
from repro.core.stats import SearchStats
from reference import leaf_members


def _setup(seed=0, n_data=80, n_query=12, dim=6, n_pivots=3, levels=3):
    rng = np.random.default_rng(seed)
    data = normalize_rows(rng.normal(size=(n_data, dim)))
    queries = normalize_rows(rng.normal(size=(n_query, dim)))
    metric = EuclideanMetric()
    space = PivotSpace(data[:n_pivots], metric)
    data_mapped = space.map_vectors(data)
    query_mapped = space.map_vectors(queries)
    hg_rv = HierarchicalGrid.build(data_mapped, levels, space.extent, store_members=False)
    hg_q = HierarchicalGrid.build(query_mapped, levels, space.extent)
    leaf_of_row = dict(enumerate(hg_rv.leaf_codes_for(data_mapped).tolist()))
    return data, queries, metric, query_mapped, hg_q, hg_rv, leaf_of_row


@pytest.mark.parametrize("tau", [0.2, 0.6, 1.0, 1.5])
@pytest.mark.parametrize("quick", [True, False])
def test_blocking_is_complete(tau, quick):
    data, queries, metric, q_mapped, hg_q, hg_rv, leaf_of_row = _setup()
    result = block(hg_q, hg_rv, q_mapped, tau, use_quick_browsing=quick)
    pairwise = metric.pairwise(queries, data)
    for qi, row in zip(*np.nonzero(pairwise <= tau)):
        cell = leaf_of_row[int(row)]
        reachable = cell in result.cells_of(int(qi), match=True) or cell in result.cells_of(int(qi), match=False)
        assert reachable, f"true match (q={qi}, row={row}) unreachable"


@pytest.mark.parametrize("tau", [0.3, 0.8, 1.4])
def test_match_pairs_are_sound(tau):
    """Every vector in a matched cell must really match the query vector."""
    data, queries, metric, q_mapped, hg_q, hg_rv, leaf_of_row = _setup(seed=1)
    result = block(hg_q, hg_rv, q_mapped, tau)
    rows_in_cell = {}
    for row, cell in leaf_of_row.items():
        rows_in_cell.setdefault(cell, []).append(row)
    for qi in result.match.rows.tolist():
        for cell in result.cells_of(qi, match=True).tolist():
            for row in rows_in_cell.get(cell, []):
                assert metric.distance(queries[qi], data[row]) <= tau + 1e-9


def test_no_duplicate_pairs():
    data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=2)
    result = block(hg_q, hg_rv, q_mapped, 0.8)
    for csr in (result.match, result.candidate):
        for lo, hi in zip(csr.starts[:-1], csr.starts[1:]):
            cells = csr.cells[lo:hi].tolist()
            assert len(cells) == len(set(cells))


def test_match_and_candidate_disjoint_per_query():
    data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=3)
    result = block(hg_q, hg_rv, q_mapped, 1.0)
    for qi in result.match.rows.tolist():
        overlap = set(result.cells_of(qi, match=True).tolist()) & set(
            result.cells_of(qi, match=False).tolist()
        )
        assert not overlap


def test_ablation_no_lemma34_yields_superset_of_candidates():
    data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=4)
    full = block(hg_q, hg_rv, q_mapped, 0.5)
    unfiltered = block(hg_q, hg_rv, q_mapped, 0.5, use_lemma34=False)
    assert unfiltered.n_candidate_pairs >= full.n_candidate_pairs


def test_ablation_no_lemma56_produces_no_match_pairs():
    data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=5)
    result = block(hg_q, hg_rv, q_mapped, 1.2, use_lemma56=False)
    assert result.n_match_pairs == 0


def test_stats_populated():
    data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=6)
    stats = SearchStats()
    result = block(hg_q, hg_rv, q_mapped, 0.6, stats=stats)
    assert stats.cells_visited > 0
    assert stats.blocking_seconds >= 0.0
    assert stats.candidate_pairs == result.n_candidate_pairs
    assert stats.matching_pairs == result.n_match_pairs


def test_mismatched_levels_raise():
    data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup()
    wrong = HierarchicalGrid.build(q_mapped, hg_rv.levels + 1, hg_rv.extent)
    with pytest.raises(ValueError, match="same number of levels"):
        block(wrong, hg_rv, q_mapped, 0.5)


class TestQuickBrowsing:
    def test_aligned_cells_become_candidates(self):
        data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=7)
        stats = SearchStats()
        result = block(hg_q, hg_rv, q_mapped, 0.7, stats=stats)
        aligned = set(hg_q.leaf_codes.tolist()) & set(hg_rv.leaf_codes.tolist())
        assert aligned
        assert stats.quick_browse_cells == len(aligned)
        for code in aligned:
            for q in leaf_members(hg_q, code).tolist():
                assert code in result.cells_of(q, match=False)

    def test_quick_browsing_does_not_change_reachable_set(self):
        data, queries, metric, q_mapped, hg_q, hg_rv, _ = _setup(seed=8)
        with_qb = block(hg_q, hg_rv, q_mapped, 0.7, use_quick_browsing=True)
        without = block(hg_q, hg_rv, q_mapped, 0.7, use_quick_browsing=False)

        def reachable(result):
            out = set()
            for csr in (result.match, result.candidate):
                rows = np.repeat(csr.rows, csr.lengths).tolist()
                out.update(zip(rows, csr.cells.tolist()))
            return out

        # quick browsing may convert would-be match pairs into candidates,
        # but the union of reachable (q, cell) pairs must be identical
        assert reachable(with_qb) == reachable(without)
