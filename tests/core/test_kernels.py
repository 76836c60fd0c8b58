"""The point-level Lemmas 1/2 evaluated through the blocker's cell
predicates on a zero-width cell (:mod:`repro.core.filtering`): the same
definitions, one mapped query vector against many mapped vectors."""

import numpy as np
import pytest

from repro.core.filtering import (
    lemma3_filter_vectors_vs_cell,
    lemma5_match_vectors_vs_cell,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestNumpyKernels:
    """The cell predicates on a point must implement Lemmas 1/2 exactly."""

    def test_lemma1_matches_definition(self, rng):
        x = rng.uniform(0, 2, size=(40, 5))
        q = rng.uniform(0, 2, size=(1, 5))
        tau = 0.7
        got = lemma3_filter_vectors_vs_cell(x, q[0], q[0], tau)
        want = (np.abs(x - q) > tau).any(axis=1)
        np.testing.assert_array_equal(got, want)

    def test_lemma2_matches_definition_rowwise(self, rng):
        x = rng.uniform(0, 2, size=(40, 5))
        q = rng.uniform(0, 2, size=(40, 5))
        tau = 1.1
        got = np.array(
            [lemma5_match_vectors_vs_cell(x[i], q[i], tau)[0] for i in range(40)]
        )
        want = ((x + q) <= tau).any(axis=1)
        np.testing.assert_array_equal(got, want)
