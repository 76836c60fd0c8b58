"""Tests for the optional compiled kernel backends.

The numpy backend is always exercised; the numba backend's tests run
only when numba is installed (it is an optional dependency that must
never be required). Cross-backend parity tests assert *bit-identical*
outputs — the kernels are elementwise comparisons and integer
bookkeeping, so there is no tolerance to hide behind.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.filtering import lemma1_filter_mask, lemma2_match_mask

needs_numba = pytest.mark.skipif(
    not kernels.HAVE_NUMBA, reason="numba is not installed"
)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestBackendSelection:
    def test_active_backend_is_known(self):
        assert kernels.get_backend() in kernels.BACKENDS

    def test_numpy_backend_always_selectable(self):
        with kernels.use_backend("numpy"):
            assert kernels.get_backend() == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.set_backend("cuda")

    def test_numba_without_numba_raises(self):
        if kernels.HAVE_NUMBA:
            pytest.skip("numba is installed here")
        with pytest.raises(RuntimeError, match="not installed"):
            kernels.set_backend("numba")

    def test_use_backend_restores_previous(self):
        before = kernels.get_backend()
        with kernels.use_backend("numpy"):
            pass
        assert kernels.get_backend() == before

    @needs_numba
    def test_numba_selectable_when_installed(self):
        with kernels.use_backend("numba"):
            assert kernels.get_backend() == "numba"


class TestNumpyKernels:
    """The fallback path must implement the lemmas exactly."""

    def test_lemma1_matches_definition(self, rng):
        x = rng.uniform(0, 2, size=(40, 5))
        q = rng.uniform(0, 2, size=(1, 5))
        tau = 0.7
        with kernels.use_backend("numpy"):
            got = lemma1_filter_mask(x, q[0], tau)
        want = (np.abs(x - q) > tau).any(axis=1)
        np.testing.assert_array_equal(got, want)

    def test_lemma2_matches_definition_rowwise(self, rng):
        x = rng.uniform(0, 2, size=(40, 5))
        q = rng.uniform(0, 2, size=(40, 5))
        tau = 1.1
        with kernels.use_backend("numpy"):
            got = lemma2_match_mask(x, q, tau)
        want = ((x + q) <= tau).any(axis=1)
        np.testing.assert_array_equal(got, want)

    def test_replay_column_counts_and_lemma7(self):
        cand = np.array([True, False, True, True, True])
        match = np.array([False, True, False, False, True])
        cnt, mis, joi, dead, l7, ea, cv = kernels.replay_column(
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
        cnt, mis, joi, dead, l7, ea, cv = kernels.replay_column(
            cand, match, 0, 0, False, t_need=1, miss_bound=99,
            use_lemma7=True, early_accept=True,
        )
        assert joi and not dead
        # first episode confirms joinability; the rest are early accepts
        assert cv == 1 and ea == 3 and cnt == 1


@needs_numba
class TestCrossBackendParity:
    """numba and numpy kernels must agree bit for bit."""

    def _both(self, fn, *args):
        with kernels.use_backend("numpy"):
            a = fn(*args)
        with kernels.use_backend("numba"):
            b = fn(*args)
        return a, b

    def test_lemma_masks_identical(self, rng):
        x = rng.uniform(0, 2, size=(200, 6))
        q_row = rng.uniform(0, 2, size=(200, 6))
        q_one = rng.uniform(0, 2, size=(1, 6))
        for tau in (0.0, 0.4, 1.3):
            for q in (q_row, q_one):
                a, b = self._both(kernels.lemma1_pair_mask, x, q, tau)
                np.testing.assert_array_equal(a, b)
                a, b = self._both(kernels.lemma2_pair_mask, x, q, tau)
                np.testing.assert_array_equal(a, b)

    def test_replay_identical(self, rng):
        for trial in range(20):
            n = int(rng.integers(1, 30))
            cand = rng.random(n) < 0.6
            match = rng.random(n) < 0.5
            args = (
                cand, match, int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                bool(rng.integers(0, 2)), int(rng.integers(1, 6)),
                int(rng.integers(0, 4)), bool(rng.integers(0, 2)),
                bool(rng.integers(0, 2)),
            )
            a, b = self._both(kernels.replay_column, *args)
            assert a == b

    def test_search_results_identical_across_backends(self, rng):
        from repro.core.index import PexesoIndex
        from repro.core.search import pexeso_search

        columns = [rng.normal(size=(rng.integers(4, 9), 6)) for _ in range(8)]
        query = rng.normal(size=(6, 6))
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        for tau in (0.3, 0.8, 1.5):
            with kernels.use_backend("numpy"):
                a = pexeso_search(index, query, tau, 0.3, exact_counts=True)
            with kernels.use_backend("numba"):
                b = pexeso_search(index, query, tau, 0.3, exact_counts=True)
            assert a.column_ids == b.column_ids
            assert [h.match_count for h in a.joinable] == [
                h.match_count for h in b.joinable
            ]
