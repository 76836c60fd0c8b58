"""Tests for the Lemma 1-6 predicates.

The soundness properties are the heart of PEXESO's exactness:
* filters (Lemmas 1, 3, 4) must never prune a true match;
* matchers (Lemmas 2, 5, 6) must never accept a false match.
Both are checked against brute-force distances on random data. Lemmas 1
and 2 are Lemmas 3 and 5 on a zero-width cell (``lo = hi = q'``, the
mapped vectors playing the query rows), which is how they are evaluated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import (
    lemma3_filter_vectors_vs_cell,
    lemma4_filter_cell_vs_cell,
    lemma5_match_vectors_vs_cell,
    lemma6_match_cell_vs_cell,
    rectangle_query_regions,
    square_query_region,
)
from repro.core.metric import EuclideanMetric, normalize_rows
from repro.core.pivot import PivotSpace


def lemma1_filter_mask(x_mapped, q_mapped, tau):
    """Lemma 1 as Lemma 3 against the zero-width cell ``[q', q']``."""
    return lemma3_filter_vectors_vs_cell(x_mapped, q_mapped, q_mapped, tau)


def lemma2_match_mask(x_mapped, q_mapped, tau):
    """Lemma 2 as Lemma 5 against the zero-width cell ``[q', q']``."""
    return lemma5_match_vectors_vs_cell(x_mapped, q_mapped, tau)


def _setup(seed: int, n: int = 60, dim: int = 6, n_pivots: int = 3):
    rng = np.random.default_rng(seed)
    data = normalize_rows(rng.normal(size=(n, dim)))
    queries = normalize_rows(rng.normal(size=(10, dim)))
    metric = EuclideanMetric()
    space = PivotSpace(data[:n_pivots], metric)
    return data, queries, metric, space


class TestLemma1And2Soundness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tau", [0.3, 0.8, 1.3])
    def test_lemma1_never_prunes_matches(self, seed, tau):
        data, queries, metric, space = _setup(seed)
        x_mapped = space.map_vectors(data)
        q_mapped = space.map_vectors(queries)
        for qi, q in enumerate(queries):
            true_match = metric.distances_to(q, data) <= tau
            pruned = lemma1_filter_mask(x_mapped, q_mapped[qi], tau)
            assert not (true_match & pruned).any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tau", [0.3, 0.8, 1.3])
    def test_lemma2_never_accepts_non_matches(self, seed, tau):
        data, queries, metric, space = _setup(seed)
        x_mapped = space.map_vectors(data)
        q_mapped = space.map_vectors(queries)
        for qi, q in enumerate(queries):
            true_match = metric.distances_to(q, data) <= tau
            accepted = lemma2_match_mask(x_mapped, q_mapped[qi], tau)
            assert not (accepted & ~true_match).any()

    def test_lemma2_fires_near_pivot(self):
        """Vectors near a pivot are accepted when the query is also near it."""
        data, _, metric, space = _setup(3)
        pivot = space.pivots[0]
        q = pivot  # query equals the pivot
        q_mapped = space.map_vectors(q[None, :])[0]
        x_mapped = space.map_vectors(data)
        accepted = lemma2_match_mask(x_mapped, q_mapped, tau=0.5)
        near = metric.distances_to(pivot, data) <= 0.5
        # everything lemma 2 accepts via pivot 0 must be within tau of q
        assert (accepted <= near).all()
        assert accepted.any()  # at least the pivot itself (distance 0)


class TestCellPredicates:
    def _cell(self, lo, hi):
        return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)

    def test_lemma3_prunes_disjoint_cell(self):
        lo, hi = self._cell([10.0, 10.0], [11.0, 11.0])
        q = np.array([[0.0, 0.0]])
        assert lemma3_filter_vectors_vs_cell(q, lo, hi, tau=1.0)[0]

    def test_lemma3_keeps_overlapping_cell(self):
        lo, hi = self._cell([0.5, 0.5], [1.5, 1.5])
        q = np.array([[0.0, 0.0]])
        assert not lemma3_filter_vectors_vs_cell(q, lo, hi, tau=1.0)[0]

    def test_lemma3_boundary_touch_is_kept(self):
        lo, hi = self._cell([1.0, 0.0], [2.0, 1.0])
        q = np.array([[0.0, 0.0]])
        # SQR reaches exactly the cell's lo in dim 0
        assert not lemma3_filter_vectors_vs_cell(q, lo, hi, tau=1.0)[0]

    def test_lemma5_whole_cell_inside_rqr(self):
        lo, hi = self._cell([0.0, 0.0], [0.2, 5.0])
        q = np.array([[0.1, 3.0]])
        # pivot 0: cell_hi + q' = 0.3 <= tau
        assert lemma5_match_vectors_vs_cell(q, hi, tau=0.4)[0]

    def test_lemma5_rejects_when_no_pivot_covers(self):
        lo, hi = self._cell([0.3, 0.3], [0.5, 0.5])
        q = np.array([[0.3, 0.3]])
        assert not lemma5_match_vectors_vs_cell(q, hi, tau=0.4)[0]

    def test_lemma4_prunes_far_cells(self):
        q_lo, q_hi = self._cell([0.0, 0.0], [1.0, 1.0])
        t_lo, t_hi = self._cell([3.0, 0.0], [4.0, 1.0])
        assert lemma4_filter_cell_vs_cell(q_lo, q_hi, t_lo, t_hi, tau=1.0)

    def test_lemma4_keeps_near_cells(self):
        q_lo, q_hi = self._cell([0.0, 0.0], [1.0, 1.0])
        t_lo, t_hi = self._cell([1.5, 0.0], [2.5, 1.0])
        assert not lemma4_filter_cell_vs_cell(q_lo, q_hi, t_lo, t_hi, tau=1.0)

    def test_lemma6_matches_origin_cells(self):
        q_hi = np.array([0.1, 4.0])
        t_hi = np.array([0.2, 4.0])
        # pivot 0: 0.1 + 0.2 <= 0.4
        assert lemma6_match_cell_vs_cell(q_hi, t_hi, tau=0.4)

    def test_lemma6_rejects(self):
        q_hi = np.array([0.3, 4.0])
        t_hi = np.array([0.3, 4.0])
        assert not lemma6_match_cell_vs_cell(q_hi, t_hi, tau=0.4)


class TestCellSoundnessAgainstBruteForce:
    """Cell-level lemmas must be sound for every vector inside the cells."""

    @pytest.mark.parametrize("tau", [0.2, 0.5, 1.0])
    def test_lemma3_soundness(self, tau):
        data, queries, metric, space = _setup(5)
        x_mapped = space.map_vectors(data)
        q_mapped = space.map_vectors(queries)
        # carve an arbitrary cell around a batch of mapped vectors
        lo = x_mapped[:20].min(axis=0)
        hi = x_mapped[:20].max(axis=0)
        pruned = lemma3_filter_vectors_vs_cell(q_mapped, lo, hi, tau)
        for qi in np.nonzero(pruned)[0]:
            distances = metric.distances_to(queries[qi], data[:20])
            assert (distances > tau).all()

    @pytest.mark.parametrize("tau", [0.6, 1.0, 1.5])
    def test_lemma5_soundness(self, tau):
        data, queries, metric, space = _setup(6)
        x_mapped = space.map_vectors(data)
        q_mapped = space.map_vectors(queries)
        lo = x_mapped[:20].min(axis=0)
        hi = x_mapped[:20].max(axis=0)
        matched = lemma5_match_vectors_vs_cell(q_mapped, hi, tau)
        for qi in np.nonzero(matched)[0]:
            distances = metric.distances_to(queries[qi], data[:20])
            assert (distances <= tau).all()

    @pytest.mark.parametrize("tau", [0.3, 0.8])
    def test_lemma4_soundness(self, tau):
        data, queries, metric, space = _setup(7)
        x_mapped = space.map_vectors(data)
        q_mapped = space.map_vectors(queries)
        t_lo, t_hi = x_mapped[:15].min(axis=0), x_mapped[:15].max(axis=0)
        q_lo, q_hi = q_mapped.min(axis=0), q_mapped.max(axis=0)
        if lemma4_filter_cell_vs_cell(q_lo, q_hi, t_lo, t_hi, tau):
            pairwise = metric.pairwise(queries, data[:15])
            assert (pairwise > tau).all()

    @pytest.mark.parametrize("tau", [0.8, 1.2, 1.8])
    def test_lemma6_soundness(self, tau):
        data, queries, metric, space = _setup(8)
        x_mapped = space.map_vectors(data)
        q_mapped = space.map_vectors(queries)
        t_hi = x_mapped[:15].max(axis=0)
        q_hi = q_mapped.max(axis=0)
        if lemma6_match_cell_vs_cell(q_hi, t_hi, tau):
            pairwise = metric.pairwise(queries, data[:15])
            assert (pairwise <= tau).all()


class TestQueryRegions:
    def test_sqr_bounds(self):
        lo, hi = square_query_region(np.array([1.0, 2.0]), 0.5)
        np.testing.assert_allclose(lo, [0.5, 1.5])
        np.testing.assert_allclose(hi, [1.5, 2.5])

    def test_rqr_existence(self):
        regions = rectangle_query_regions(np.array([0.2, 0.9]), tau=0.5)
        assert [idx for idx, _ in regions] == [0]
        assert regions[0][1] == pytest.approx(0.3)

    def test_rqr_none_when_tau_small(self):
        assert rectangle_query_regions(np.array([0.6, 0.9]), tau=0.5) == []

    @settings(max_examples=30, deadline=None)
    @given(tau=st.floats(0.01, 2.0), coord=st.floats(0.0, 2.0))
    def test_rqr_extent_never_negative(self, tau, coord):
        for _, extent in rectangle_query_regions(np.array([coord]), tau):
            assert extent >= 0.0
