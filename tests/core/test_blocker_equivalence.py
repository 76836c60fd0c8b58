"""The level-synchronous blocker against the depth-first oracle.

Sweeps seeds x |P| 1–5 x m 1–5 x a τ grid reaching past the pivot-space
extent (so Lemmas 5 and 6 fire) x the four Lemma 3/4 and 5/6 ablation
combinations x one- and three-column query grids, with and without quick
browsing, plus a many-leaf lake (uniform vectors, about one per leaf).
Every case must produce the same (row, cell) multiset of each pair kind
as ``reference_blocker`` and the same quick-browsing count. The other
blocking counters count the flat pass's (row, leaf) tests, which the
descent does not make, so they are checked against the pass's own
identities instead.
"""

from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from reference_blocker import reference_block
from repro.core.blocker import BlockResult, block
from repro.core.grid import HierarchicalGrid
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.pivot import PivotSpace
from repro.core.stats import SearchStats

SEEDS = (0, 1)
TAUS = (0.0, 0.15, 0.5, 1.2, 2.5)
FLAGS = list(product((True, False), repeat=2))  # (use_lemma34, use_lemma56)


def _check_counters(got, want, n_rows: int, n_leaves: int, case) -> None:
    """Counters equal where both formulations count the same thing, and
    the flat pass's own counters add up: every (row, leaf) pair is looked
    at once and lands in exactly one bucket."""
    assert got.quick_browse_cells == want.quick_browse_cells, case
    assert got.cells_visited == n_rows * n_leaves, case
    assert got.cells_visited == (
        got.lemma3_filtered + got.lemma5_matched + got.candidate_pairs
    ), case
    assert got.matching_pairs == got.lemma5_matched + got.lemma6_matched, case


def _lake(seed: int, n_pivots: int, n_query_columns: int):
    """Clustered unit vectors; queries are near-copies of repository rows
    so aligned leaves (quick browsing) and tight matches both occur."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(4, 6)))
    data = normalize_rows(
        centers[rng.integers(0, 4, size=40)] + rng.normal(scale=0.1, size=(40, 6))
    )
    picks = rng.integers(0, 40, size=6 * n_query_columns)
    queries = normalize_rows(data[picks] + rng.normal(scale=0.02, size=(picks.size, 6)))
    space = PivotSpace(data[:n_pivots], EuclideanMetric())
    return space.map_vectors(data), space.map_vectors(queries), space.extent


def _pairs(mapping: dict) -> list[tuple[int, int]]:
    return sorted((q, c) for q, cells in mapping.items() for c in cells)


def _csr_pairs(csr) -> list[tuple[int, int]]:
    rows = np.repeat(csr.rows, csr.lengths)
    return sorted(zip(rows.tolist(), csr.cells.tolist()))


@lru_cache(maxsize=None)
def _sweep(n_pivots: int, levels: int) -> tuple[int, int]:
    """Check every case of one (|P|, m); returns (Lemma 5, Lemma 6) firings."""
    fired5 = fired6 = 0
    for seed, n_cols in product(SEEDS, (1, 3)):
        data_mapped, q_mapped, extent = _lake(seed, n_pivots, n_cols)
        hg_rv = HierarchicalGrid.build(data_mapped, levels, extent, store_members=False)
        hg_q = HierarchicalGrid.build(q_mapped, levels, extent)
        for tau, (use34, use56), quick in product(TAUS, FLAGS, (True, False)):
            kwargs = dict(use_lemma34=use34, use_lemma56=use56, use_quick_browsing=quick)
            want_stats, got_stats = SearchStats(), SearchStats()
            want = reference_block(hg_q, hg_rv, q_mapped, tau, want_stats, **kwargs)
            got = block(hg_q, hg_rv, q_mapped, tau, got_stats, **kwargs)
            case = (seed, n_cols, tau, use34, use56, quick)
            assert _csr_pairs(got.match) == _pairs(want.match_pairs), case
            assert _csr_pairs(got.candidate) == _pairs(want.candidate_pairs), case
            _check_counters(got_stats, want_stats, len(q_mapped), hg_rv.leaf_codes.size, case)
            fired5 += want_stats.lemma5_matched
            fired6 += want_stats.lemma6_matched
    return fired5, fired6


@pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_pivots", [1, 2, 3, 4, 5])
def test_matches_reference_blocker(n_pivots, levels):
    _sweep(n_pivots, levels)


@pytest.mark.parametrize("tau", [0.1, 1.3])
def test_many_leaves_match_reference_blocker(tau):
    """Uniform dim-16 vectors on a 5-level grid: about one vector per
    occupied leaf, the shape where the descent prunes most."""
    rng = np.random.default_rng(11)
    data = normalize_rows(rng.normal(size=(1500, 16)))
    queries = normalize_rows(data[:6] + rng.normal(scale=0.05, size=(6, 16)))
    space = PivotSpace(data[:5], EuclideanMetric())
    data_mapped, q_mapped = space.map_vectors(data), space.map_vectors(queries)
    hg_rv = HierarchicalGrid.build(data_mapped, 5, space.extent, store_members=False)
    hg_q = HierarchicalGrid.build(q_mapped, 5, space.extent)
    assert hg_rv.leaf_codes.size > 1000
    for (use34, use56), quick in product(FLAGS, (True, False)):
        kwargs = dict(use_lemma34=use34, use_lemma56=use56, use_quick_browsing=quick)
        want_stats, got_stats = SearchStats(), SearchStats()
        want = reference_block(hg_q, hg_rv, q_mapped, tau, want_stats, **kwargs)
        got = block(hg_q, hg_rv, q_mapped, tau, got_stats, **kwargs)
        case = (tau, use34, use56, quick)
        assert _csr_pairs(got.match) == _pairs(want.match_pairs), case
        assert _csr_pairs(got.candidate) == _pairs(want.candidate_pairs), case
        _check_counters(got_stats, want_stats, len(q_mapped), hg_rv.leaf_codes.size, case)


def test_sweep_fires_lemmas_5_and_6():
    """The sweep would pass vacuously if no case reached Lemma 5 or 6."""
    totals = [_sweep(p, m) for p, m in product(range(1, 6), range(1, 6))]
    assert sum(t[0] for t in totals) > 0
    assert sum(t[1] for t in totals) > 0


def test_csr_layout():
    """Rows ascending and unique, each row's cells ascending."""
    data_mapped, q_mapped, extent = _lake(2, 3, 3)
    hg_rv = HierarchicalGrid.build(data_mapped, 3, extent, store_members=False)
    hg_q = HierarchicalGrid.build(q_mapped, 3, extent)
    result = block(hg_q, hg_rv, q_mapped, 0.5)
    for csr in (result.match, result.candidate):
        assert (np.diff(csr.rows) > 0).all()
        for row in csr.rows.tolist():
            cells = result.cells_of(row, match=csr is result.match)
            assert (np.diff(cells) > 0).all()
    assert result.cells_of(10**6, match=False).size == 0


def test_from_pairs_keeps_duplicates():
    result = BlockResult.from_pairs(match=[(3, 7), (1, 9), (3, 7), (3, 2)])
    assert result.n_match_pairs == 4 and result.n_candidate_pairs == 0
    assert result.match.rows.tolist() == [1, 3]
    assert result.cells_of(3, match=True).tolist() == [2, 7, 7]
    assert result.cells_of(1, match=False).size == 0
