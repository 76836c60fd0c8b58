"""Tests for the NumPy hot-path predicates: the row-aligned Lemma 1/2
masks (:mod:`repro.core.filtering`) and the verifier's per-column
replay (:func:`repro.core.verifier.replay_column`)."""

import numpy as np
import pytest

from repro.core.filtering import lemma1_filter_mask, lemma2_match_mask
from repro.core.verifier import replay_column


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestNumpyKernels:
    """The masks and the replay must implement the lemmas exactly."""

    def test_lemma1_matches_definition(self, rng):
        x = rng.uniform(0, 2, size=(40, 5))
        q = rng.uniform(0, 2, size=(1, 5))
        tau = 0.7
        got = lemma1_filter_mask(x, q[0], tau)
        want = (np.abs(x - q) > tau).any(axis=1)
        np.testing.assert_array_equal(got, want)

    def test_lemma2_matches_definition_rowwise(self, rng):
        x = rng.uniform(0, 2, size=(40, 5))
        q = rng.uniform(0, 2, size=(40, 5))
        tau = 1.1
        got = lemma2_match_mask(x, q, tau)
        want = ((x + q) <= tau).any(axis=1)
        np.testing.assert_array_equal(got, want)

    def test_replay_column_counts_and_lemma7(self):
        cand = np.array([True, False, True, True, True])
        match = np.array([False, True, False, False, True])
        cnt, mis, joi, dead, l7, ea, cv = replay_column(
            cand, match, 0, 0, False, t_need=2, miss_bound=1,
            use_lemma7=True, early_accept=False,
        )
        # episodes: miss, match, miss -> 2 misses > bound -> dead;
        # the remaining candidates are Lemma-7 skips.
        assert dead and l7 == 2
        assert mis == 2 and cnt == 1 and not joi

    def test_replay_column_early_accept(self):
        cand = np.ones(4, dtype=bool)
        match = np.ones(4, dtype=bool)
        cnt, mis, joi, dead, l7, ea, cv = replay_column(
            cand, match, 0, 0, False, t_need=1, miss_bound=99,
            use_lemma7=True, early_accept=True,
        )
        assert joi and not dead
        # first episode confirms joinability; the rest are early accepts
        assert cv == 1 and ea == 3 and cnt == 1
