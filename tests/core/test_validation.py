"""Failure-injection tests: malformed inputs must fail loudly, not corrupt
results."""

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.metric import ManhattanMetric
from repro.core.search import pexeso_search


@pytest.fixture()
def index(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=2)


class TestNanRejection:
    def test_nan_column_rejected(self, index):
        bad = np.full((3, 8), np.nan)
        with pytest.raises(ValueError, match="NaN"):
            index.add_column(bad)

    def test_inf_column_rejected(self, index):
        bad = np.ones((3, 8))
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="infinite"):
            index.add_column(bad)

    def test_nan_query_rejected(self, index):
        bad = np.ones((3, 8))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            pexeso_search(index, bad, 0.5, 0.5)

    def test_build_rejects_nan(self):
        with pytest.raises(ValueError):
            PexesoIndex.build([np.full((4, 4), np.nan)])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [None, ManhattanMetric()])
    def test_build_rejects_one_bad_value_anywhere(self, value, metric):
        """``fit`` checks finiteness inside its blocked mapping pass: one
        bad value in a late block, outside the pivot sample, is found."""
        columns = [np.full((100, 4), 0.5) + 0.001 * i for i in range(60)]
        columns[57][3, 1] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            PexesoIndex.build(columns, metric=metric)

    def test_index_unchanged_after_rejected_append(self, index, small_columns, small_query):
        before = pexeso_search(index, small_query, 0.8, 0.3).column_ids
        with pytest.raises(ValueError):
            index.add_column(np.full((3, 8), np.nan))
        after = pexeso_search(index, small_query, 0.8, 0.3).column_ids
        assert before == after


class TestShapeValidation:
    def test_1d_column_promoted(self, index):
        # a single vector as 1-d input is a 1-row column
        new_id = index.add_column(np.ones(8) / np.sqrt(8))
        assert index.column_size(new_id) == 1

    def test_wrong_width_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_column(np.ones((3, 5)))


class TestMetricSoundnessGuard:
    def test_cosine_distance_rejected(self):
        from repro.core.metric import CosineDistance

        with pytest.raises(ValueError, match="triangle"):
            PexesoIndex(metric=CosineDistance())

    def test_true_metrics_accepted(self):
        from repro.core.metric import ChebyshevMetric, ManhattanMetric

        for metric in (ManhattanMetric(), ChebyshevMetric()):
            PexesoIndex(metric=metric)  # must not raise
