"""Tests for repro.core.metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.metric import (
    ChebyshevMetric,
    CosineDistance,
    EuclideanMetric,
    ManhattanMetric,
    get_metric,
    normalize_rows,
)
from repro.core.stats import CounterBox

METRICS = [EuclideanMetric(), ManhattanMetric(), ChebyshevMetric()]

finite_vec = arrays(
    np.float64,
    6,
    elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)


class TestEuclidean:
    def test_known_distance(self):
        a = np.array([0.0, 0.0])
        b = np.array([3.0, 4.0])
        assert EuclideanMetric().distance(a, b) == pytest.approx(5.0)

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(7, 4))
        metric = EuclideanMetric()
        matrix = metric.pairwise(a, b)
        for i in range(5):
            for j in range(7):
                assert matrix[i, j] == pytest.approx(
                    np.linalg.norm(a[i] - b[j]), abs=1e-9
                )

    def test_distances_to_matches_pairwise(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=4)
        batch = rng.normal(size=(9, 4))
        metric = EuclideanMetric()
        np.testing.assert_allclose(
            metric.distances_to(q, batch), metric.pairwise(q, batch)[0]
        )

    def test_max_distance_unit_vectors(self):
        assert EuclideanMetric().max_distance(300) == 2.0

    def test_no_negative_sqrt(self):
        # identical points must give exactly 0 despite float error
        a = np.full((1, 8), 0.1234567)
        assert EuclideanMetric().pairwise(a, a)[0, 0] == 0.0


class TestManhattanChebyshev:
    def test_manhattan_known(self):
        a = np.array([1.0, 2.0])
        b = np.array([4.0, -2.0])
        assert ManhattanMetric().distance(a, b) == pytest.approx(7.0)

    def test_chebyshev_known(self):
        a = np.array([1.0, 2.0])
        b = np.array([4.0, -2.0])
        assert ChebyshevMetric().distance(a, b) == pytest.approx(4.0)

    def test_ordering_l1_l2_linf(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=4), rng.normal(size=4)
        l1 = ManhattanMetric().distance(a, b)
        l2 = EuclideanMetric().distance(a, b)
        linf = ChebyshevMetric().distance(a, b)
        assert l1 >= l2 >= linf

    def test_manhattan_unit_bound(self):
        rng = np.random.default_rng(3)
        vectors = normalize_rows(rng.normal(size=(50, 16)))
        metric = ManhattanMetric()
        assert metric.pairwise(vectors, vectors).max() <= metric.max_distance(16)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
class TestMetricAxioms:
    @settings(max_examples=25, deadline=None)
    @given(a=finite_vec, b=finite_vec)
    def test_symmetry(self, metric, a, b):
        assert metric.distance(a, b) == pytest.approx(metric.distance(b, a), abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(a=finite_vec, b=finite_vec, c=finite_vec)
    def test_triangle_inequality(self, metric, a, b, c):
        ab = metric.distance(a, b)
        bc = metric.distance(b, c)
        ac = metric.distance(a, c)
        assert ac <= ab + bc + 1e-6

    @settings(max_examples=25, deadline=None)
    @given(a=finite_vec)
    def test_identity(self, metric, a):
        assert metric.distance(a, a) == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(a=finite_vec, b=finite_vec)
    def test_non_negativity(self, metric, a, b):
        assert metric.distance(a, b) >= 0.0


class TestCosine:
    def test_orthogonal(self):
        assert CosineDistance().distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_parallel(self):
        assert CosineDistance().distance(
            np.array([2.0, 0.0]), np.array([5.0, 0.0])
        ) == pytest.approx(0.0)

    def test_opposite(self):
        assert CosineDistance().distance(
            np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        ) == pytest.approx(2.0)

    def test_relates_to_euclidean_on_unit_vectors(self):
        rng = np.random.default_rng(4)
        a, b = normalize_rows(rng.normal(size=(2, 8)))
        d_cos = CosineDistance().distance(a, b)
        d_euc = EuclideanMetric().distance(a, b)
        assert d_euc ** 2 == pytest.approx(2 * d_cos, abs=1e-9)

    def test_flagged_as_non_metric(self):
        assert CosineDistance.is_metric is False

    def test_zero_vector_safe(self):
        z = np.zeros(4)
        assert np.isfinite(CosineDistance().distance(z, np.ones(4)))


class TestRegistry:
    @pytest.mark.parametrize("name", ["euclidean", "manhattan", "chebyshev", "cosine"])
    def test_get_metric(self, name):
        assert get_metric(name).name == name

    def test_get_metric_case_insensitive(self):
        assert get_metric("Euclidean").name == "euclidean"

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError, match="unknown metric"):
            get_metric("hamming")


class TestCounter:
    def test_pairwise_counts(self):
        counter = CounterBox()
        metric = EuclideanMetric(counter=counter)
        metric.pairwise(np.zeros((3, 2)), np.zeros((5, 2)))
        assert counter.count == 15

    def test_distance_counts_one(self):
        counter = CounterBox()
        EuclideanMetric(counter=counter).distance(np.zeros(2), np.ones(2))
        assert counter.count == 1

    def test_distances_to_counts_batch(self):
        counter = CounterBox()
        EuclideanMetric(counter=counter).distances_to(np.zeros(2), np.ones((7, 2)))
        assert counter.count == 7

    def test_reset(self):
        counter = CounterBox()
        counter.add(5)
        counter.reset()
        assert counter.count == 0


class TestNormalizeRows:
    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        out = normalize_rows(rng.normal(size=(10, 6)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_row_untouched(self):
        out = normalize_rows(np.zeros((2, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_does_not_mutate_input(self):
        original = np.ones((2, 2))
        normalize_rows(original)
        np.testing.assert_array_equal(original, np.ones((2, 2)))


def _assert_spill_refused(metric, directory):
    """Spilling a lake built on ``metric`` raises and leaves no files."""
    from repro.core.out_of_core import PartitionedPexeso

    rng = np.random.default_rng(3)
    columns = [normalize_rows(rng.normal(size=(6, 4))) for _ in range(4)]
    lake = PartitionedPexeso(
        metric=metric, n_pivots=2, levels=2, n_partitions=2, spill_dir=directory
    )
    with pytest.raises(ValueError, match="register_metric"):
        lake.fit(columns)
    assert list(directory.iterdir()) == []


class TestRegisterMetric:
    def test_register_round_trips(self):
        from repro.core.metric import (
            METRIC_REGISTRY,
            get_metric,
            metric_round_trips,
            register_metric,
        )

        class WeightedEuclidean(EuclideanMetric):
            name = "weighted-euclidean-test"

        assert not metric_round_trips(WeightedEuclidean())
        register_metric(WeightedEuclidean)
        try:
            assert metric_round_trips(WeightedEuclidean())
            assert isinstance(
                get_metric("weighted-euclidean-test"), WeightedEuclidean
            )
        finally:
            del METRIC_REGISTRY["weighted-euclidean-test"]

    def test_register_as_decorator(self):
        from repro.core.metric import METRIC_REGISTRY, register_metric

        @register_metric
        class DecoratedMetric(EuclideanMetric):
            name = "decorated-test"

        try:
            assert METRIC_REGISTRY["decorated-test"] is DecoratedMetric
        finally:
            del METRIC_REGISTRY["decorated-test"]

    def test_register_rejects_nameless(self):
        from repro.core.metric import Metric, register_metric

        class Nameless(Metric):
            pass

        with pytest.raises(ValueError):
            register_metric(Nameless)

    def test_register_rejects_name_collision(self):
        from repro.core.metric import register_metric

        class FakeEuclidean(EuclideanMetric):
            name = "euclidean"

        with pytest.raises(ValueError):
            register_metric(FakeEuclidean)

    def test_builtins_round_trip(self):
        from repro.core.metric import metric_round_trips

        assert metric_round_trips(EuclideanMetric())
        assert metric_round_trips(ManhattanMetric())

    def test_mixed_case_registered_name_round_trips(self):
        from repro.core.metric import (
            METRIC_REGISTRY,
            get_metric,
            metric_round_trips,
            register_metric,
        )

        @register_metric
        class CamelCaseMetric(EuclideanMetric):
            name = "CamelCase-Test"

        try:
            assert metric_round_trips(CamelCaseMetric())
            # get_metric must find the verbatim name (it lowercases only
            # as a fallback for the built-ins).
            assert isinstance(get_metric("CamelCase-Test"), CamelCaseMetric)
        finally:
            del METRIC_REGISTRY["CamelCase-Test"]

    def test_non_default_constructible_metric_does_not_round_trip(self, tmp_path):
        from repro.core.metric import (
            METRIC_REGISTRY,
            metric_round_trips,
            register_metric,
        )

        @register_metric
        class ScaledMetric(EuclideanMetric):
            name = "scaled-test"

            def __init__(self, scale):  # no default: name alone can't rebuild it
                super().__init__()
                self.scale = scale

        try:
            # Registered, but get_metric could not reconstruct it — the
            # persistence gate must refuse to write it.
            assert not metric_round_trips(ScaledMetric(2.0))
            _assert_spill_refused(ScaledMetric(2.0), tmp_path)
        finally:
            del METRIC_REGISTRY["scaled-test"]

    def test_metric_without_counter_kwarg_does_not_round_trip(self, tmp_path):
        from repro.core.metric import (
            METRIC_REGISTRY,
            metric_round_trips,
            register_metric,
        )

        @register_metric
        class NoCounterMetric(EuclideanMetric):
            name = "no-counter-test"

            def __init__(self):  # drops the counter kwarg get_metric passes
                super().__init__()

        try:
            # cls() works, but get_metric's cls(counter=None) would not —
            # the gate must reject it instead of saving an unloadable lake.
            assert not metric_round_trips(NoCounterMetric())
            _assert_spill_refused(NoCounterMetric(), tmp_path)
        finally:
            del METRIC_REGISTRY["no-counter-test"]
