"""Metric-space distance functions.

PEXESO supports "any similarity function in a metric space" (paper §I).
The experiments use Euclidean distance over unit-normalised embeddings, for
which the maximum possible distance is 2 (paper §V); the ratio-based
threshold specification relies on that bound.

Every metric exposes three entry points:

* :meth:`Metric.distance` — one pair,
* :meth:`Metric.distances_to` — one query against a batch (vectorised),
* :meth:`Metric.pairwise` — full batch-against-batch matrix.

All three optionally count evaluations into a :class:`~repro.core.stats.CounterBox`
so that experiments can report exact distance-computation counts (Fig. 6a).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.stats import CounterBox


class Metric:
    """Base class for metric distances on real vectors.

    Subclasses implement :meth:`_pairwise` and :meth:`max_distance`. The
    base class handles instrumentation and input validation.
    """

    #: short name used by :func:`get_metric`
    name: str = "abstract"
    #: whether the triangle inequality holds (pivot filtering requires it)
    is_metric: bool = True

    def __init__(self, counter: Optional[CounterBox] = None):
        self.counter = counter

    # -- instrumented public API -------------------------------------------------

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two vectors."""
        if self.counter is not None:
            self.counter.add(1)
        return float(self._pairwise(np.atleast_2d(a), np.atleast_2d(b))[0, 0])

    def distances_to(self, q: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Distances from vector ``q`` to every row of ``batch``."""
        if batch.size == 0:
            return np.zeros(0)
        if self.counter is not None:
            self.counter.add(batch.shape[0])
        return self._pairwise(np.atleast_2d(q), batch)[0]

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix of distances between the rows of ``a`` and the rows of ``b``."""
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        if self.counter is not None:
            self.counter.add(a.shape[0] * b.shape[0])
        return self._pairwise(a, b)

    # -- to be provided by subclasses ---------------------------------------------

    def _pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def max_distance(self, dim: int) -> float:
        """Upper bound on the distance between two *unit-normalised* vectors.

        Used to express the distance threshold τ as a percentage (paper §V).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class EuclideanMetric(Metric):
    """L2 distance. Maximum distance between unit vectors is 2."""

    name = "euclidean"

    def _pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b  (clamped for float error)
        aa = np.einsum("ij,ij->i", a, a)[:, None]
        bb = np.einsum("ij,ij->i", b, b)[None, :]
        sq = aa + bb - 2.0 * (a @ b.T)
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq)

    def max_distance(self, dim: int) -> float:
        return 2.0


class ManhattanMetric(Metric):
    """L1 distance. For unit vectors the bound ``2 * sqrt(dim)`` holds."""

    name = "manhattan"

    def _pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)

    def max_distance(self, dim: int) -> float:
        # |x - y|_1 <= sqrt(dim) * |x - y|_2 <= 2 sqrt(dim) for unit vectors.
        return 2.0 * math.sqrt(dim)


class ChebyshevMetric(Metric):
    """L-infinity distance. For unit vectors the bound 2 holds."""

    name = "chebyshev"

    def _pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)

    def max_distance(self, dim: int) -> float:
        return 2.0


class CosineDistance(Metric):
    """Cosine *distance* ``1 - cos(a, b)``.

    Note: cosine distance violates the triangle inequality, so it must not
    be used with pivot filtering. It is provided for the string-similarity
    baselines (TF-IDF join) and for analysis. On unit vectors it relates to
    Euclidean distance by ``d_e^2 = 2 * d_cos``, which is how the paper's
    framework covers "cosine similarity" use cases: normalise and use
    :class:`EuclideanMetric`.
    """

    name = "cosine"
    is_metric = False

    def _pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        na = np.where(na == 0.0, 1.0, na)
        nb = np.where(nb == 0.0, 1.0, nb)
        cos = (a @ b.T) / na[:, None] / nb[None, :]
        np.clip(cos, -1.0, 1.0, out=cos)
        return 1.0 - cos

    def max_distance(self, dim: int) -> float:
        return 2.0


#: metrics that satisfy the triangle inequality and may drive pivot filtering
METRIC_REGISTRY = {
    "euclidean": EuclideanMetric,
    "manhattan": ManhattanMetric,
    "chebyshev": ChebyshevMetric,
    "cosine": CosineDistance,
}


def register_metric(cls: type) -> type:
    """Register a custom :class:`Metric` subclass under its ``name``.

    Only registered metrics can be saved or spilled: the array-native
    persistence format stores the metric's name and nothing else. The
    class must therefore be reconstructible from its name alone:
    ``cls(counter=None)`` — the call :func:`get_metric` makes on load —
    has to produce an equivalent metric. A class whose instances carry
    extra constructor state would reload with the defaults, so
    :func:`metric_round_trips` refuses it and such an index stays in
    memory. Usable as a class decorator::

        @register_metric
        class HammingMetric(Metric):
            name = "hamming"
            ...

    Raises:
        ValueError: when ``cls`` lacks a usable ``name`` or the name is
            already bound to a *different* class.
    """
    name = getattr(cls, "name", None)
    if not name or name == Metric.name:
        raise ValueError("metric class needs a distinctive `name` attribute")
    bound = METRIC_REGISTRY.get(name)
    if bound is not None and bound is not cls:
        raise ValueError(f"metric name {name!r} already registered to {bound.__name__}")
    METRIC_REGISTRY[name] = cls
    return cls


def metric_round_trips(metric: Metric) -> bool:
    """True when ``metric`` can be reconstructed from its registry name.

    This is the persistence-format gate: ``save_index`` stores
    ``metric.name`` and ``load_index`` resolves it via :func:`get_metric`,
    so the name must map back to exactly the instance's class *and* the
    class must be default-constructible (that is how :func:`get_metric`
    rebuilds it). ``save_index`` raises ``ValueError`` for anything else.
    """
    if METRIC_REGISTRY.get(getattr(metric, "name", "")) is not type(metric):
        return False
    try:
        # Probe the exact constructor call get_metric will make on load.
        type(metric)(counter=None)
    except Exception:
        return False
    return True


def get_metric(name: str, counter: Optional[CounterBox] = None) -> Metric:
    """Instantiate a metric by name.

    Args:
        name: one of ``euclidean``, ``manhattan``, ``chebyshev``, ``cosine``.
        counter: optional distance-computation counter.

    Raises:
        KeyError: for unknown names.
    """
    # Exact match first so registered custom names round-trip verbatim;
    # the built-in names stay reachable case-insensitively.
    cls = METRIC_REGISTRY.get(name) or METRIC_REGISTRY.get(name.lower())
    if cls is None:
        known = ", ".join(sorted(METRIC_REGISTRY))
        raise KeyError(f"unknown metric {name!r}; known metrics: {known}")
    return cls(counter=counter)


def normalize_rows(vectors: np.ndarray) -> np.ndarray:
    """L2-normalise each row; zero rows are left untouched.

    The paper normalises all embeddings to unit length so τ can be given as
    a fraction of the maximum distance (§V).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return vectors / safe
