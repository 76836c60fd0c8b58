"""Pivot selection and pivot-space mapping (paper §III-A, §III-D).

A vector ``x`` is mapped to the pivot space of ``P = {p1..pk}`` as
``x' = [d(p1, x), ..., d(pk, x)]``. Matching vectors are then confined to
a square query region around ``q'`` (Lemma 1) and per-pivot rectangle
query regions (Lemma 2); see :mod:`repro.core.filtering`.

The paper adopts the PCA-based selection of Mao et al. [22]: good pivots
are outliers, but not all outliers are good pivots, so candidates are drawn
from the extremes of the principal components and the most scattering
subset is kept. A random selector and a farthest-first traversal selector
are included as baselines (Fig. 7a compares PCA against random).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.metric import Metric


def _unique_rows(candidates: np.ndarray) -> np.ndarray:
    """Deduplicate candidate pivot rows, preserving first-occurrence order.

    Rows are compared bytewise (a void view over each row), so the
    semantics match hashing ``row.tobytes()``, but the dedup is one
    ``np.unique`` instead of an O(n^2)-ish Python loop: ``return_index``
    yields each distinct row's first occurrence, and sorting those
    indices restores input order.
    """
    candidates = np.ascontiguousarray(candidates)
    if candidates.shape[0] == 0:
        return candidates
    rowbytes = candidates.view(
        np.dtype((np.void, candidates.dtype.itemsize * candidates.shape[1]))
    ).ravel()
    _, first = np.unique(rowbytes, return_index=True)
    return candidates[np.sort(first)]


def select_pivots_random(
    vectors: np.ndarray, n_pivots: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Pick ``n_pivots`` distinct rows uniformly at random (Fig. 7a baseline)."""
    rng = rng or np.random.default_rng(0)
    n = vectors.shape[0]
    if n_pivots >= n:
        return _unique_rows(np.asarray(vectors, dtype=np.float64))[:n_pivots].copy()
    idx = rng.choice(n, size=n_pivots, replace=False)
    return np.asarray(vectors[idx], dtype=np.float64).copy()


def select_pivots_pca(
    vectors: np.ndarray,
    n_pivots: int,
    rng: Optional[np.random.Generator] = None,
    sample_size: int = 4096,
) -> np.ndarray:
    """PCA-based pivot selection in O(|RV|) time (paper §III-D, [22]).

    The data (or a sample of it, to honour the linear-time bound) is
    centred; for each leading principal component the points with the
    maximal and minimal projections are taken as pivot candidates. These
    are outliers along the directions of greatest variance, which is
    exactly the "outliers make good pivots, picked judiciously" recipe of
    Mao et al. Duplicates are dropped and the first ``n_pivots`` survivors
    returned; if components run out, farthest-first traversal fills the rest.
    """
    rng = rng or np.random.default_rng(0)
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot select pivots from an empty vector set")
    if n <= n_pivots:
        pivots = _unique_rows(vectors)
        return pivots[:n_pivots].copy()

    sample = vectors
    if n > sample_size:
        sample = vectors[rng.choice(n, size=sample_size, replace=False)]
    centred = sample - sample.mean(axis=0, keepdims=True)
    # SVD of the (sampled) data gives principal directions without forming
    # the covariance matrix. A tall sample is first reduced to its R
    # factor, the QR-first path LAPACK's gesdd takes inside, without the
    # (rows, dim) U factor nobody reads; the directions are the same.
    if centred.shape[0] >= 2 * centred.shape[1]:
        vt = np.linalg.svd(np.linalg.qr(centred, mode="r"))[2]
    else:
        _, _, vt = np.linalg.svd(centred, full_matrices=False)

    candidates: list[np.ndarray] = []
    for component in vt:
        proj = centred @ component
        candidates.append(sample[int(np.argmax(proj))])
        candidates.append(sample[int(np.argmin(proj))])
        if len(candidates) >= 4 * n_pivots:
            break
    pool = _unique_rows(np.asarray(candidates))

    if pool.shape[0] >= n_pivots:
        return pool[:n_pivots].copy()

    # Not enough distinct extremes (e.g. tiny or degenerate data): top up by
    # farthest-first traversal from the current pool.
    extra = select_pivots_fft(sample, n_pivots, seeds=pool)
    return extra[:n_pivots].copy()


def select_pivots_fft(
    vectors: np.ndarray,
    n_pivots: int,
    seeds: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Farthest-first traversal: greedily pick points far from chosen pivots."""
    rng = rng or np.random.default_rng(0)
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n == 0:
        raise ValueError("cannot select pivots from an empty vector set")
    chosen: list[np.ndarray] = [] if seeds is None else [row for row in seeds]
    if not chosen:
        chosen.append(vectors[int(rng.integers(n))])
    # Maintain the distance from every point to the nearest chosen pivot.
    diff = vectors - chosen[0]
    min_dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    for pivot in chosen[1:]:
        diff = vectors - pivot
        np.minimum(min_dist, np.sqrt(np.einsum("ij,ij->i", diff, diff)), out=min_dist)
    while len(chosen) < n_pivots:
        far = int(np.argmax(min_dist))
        if min_dist[far] == 0.0:
            # All remaining points coincide with chosen pivots; pad randomly.
            chosen.append(vectors[int(rng.integers(n))])
        else:
            chosen.append(vectors[far])
        diff = vectors - chosen[-1]
        np.minimum(min_dist, np.sqrt(np.einsum("ij,ij->i", diff, diff)), out=min_dist)
    return _unique_pad(np.asarray(chosen[:n_pivots]))


def _unique_pad(pivots: np.ndarray) -> np.ndarray:
    """Ensure no two pivots are identical by nudging duplicates slightly."""
    uniq = _unique_rows(pivots)
    if uniq.shape[0] == pivots.shape[0]:
        return pivots
    rng = np.random.default_rng(12345)
    out = [row for row in uniq]
    while len(out) < pivots.shape[0]:
        out.append(uniq[0] + rng.normal(scale=1e-9, size=uniq.shape[1]))
    return np.asarray(out)


PIVOT_SELECTORS = {
    "pca": select_pivots_pca,
    "random": select_pivots_random,
    "fft": select_pivots_fft,
}


class PivotSpace:
    """Holds a pivot set and maps vectors into the pivot space.

    Args:
        pivots: ``(k, dim)`` array of pivot vectors.
        metric: the metric of the *original* space. Must satisfy the
            triangle inequality for the filtering lemmata to be sound.
        extent: upper bound of every pivot-space coordinate — i.e. the
            maximum distance between any vector and any pivot. For
            unit-normalised embeddings this is ``metric.max_distance(dim)``.
    """

    def __init__(self, pivots: np.ndarray, metric: Metric, extent: Optional[float] = None):
        self.pivots = np.asarray(pivots, dtype=np.float64)
        if self.pivots.ndim != 2 or self.pivots.shape[0] == 0:
            raise ValueError("pivots must be a non-empty (k, dim) array")
        self.metric = metric
        self.extent = float(
            extent if extent is not None else metric.max_distance(self.pivots.shape[1])
        )
        if self.extent <= 0:
            raise ValueError("pivot-space extent must be positive")

    @property
    def n_pivots(self) -> int:
        """Dimensionality of the pivot space, |P|."""
        return self.pivots.shape[0]

    @property
    def dim(self) -> int:
        """Dimensionality of the original metric space."""
        return self.pivots.shape[1]

    def map_vectors(self, vectors: np.ndarray) -> np.ndarray:
        """Pivot-map ``vectors``: row i becomes ``[d(v_i, p_1) .. d(v_i, p_k)]``.

        Coordinates are clipped to ``[0, extent]`` to guard against float
        drift past the theoretical bound (which would otherwise place a
        vector outside the grid).

        Raises:
            ValueError: when a vector holds a NaN or an infinity. Such a
                vector's distances are not finite under every metric
                here, so the vectors themselves are only checked when a
                distance is not (or overflowed).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vector dim {vectors.shape[1]} != pivot dim {self.dim}"
            )
        with np.errstate(invalid="ignore"):
            mapped = self.metric.pairwise(vectors, self.pivots)
        if not np.isfinite(mapped).all() and not np.isfinite(vectors).all():
            raise ValueError("column contains NaN or infinite values")
        return np.clip(mapped, 0.0, self.extent)


def build_pivot_space(
    vectors: np.ndarray,
    n_pivots: int,
    metric: Metric,
    method: str = "pca",
    rng: Optional[np.random.Generator] = None,
) -> PivotSpace:
    """Select pivots from ``vectors`` with ``method`` and wrap in a PivotSpace."""
    try:
        selector = PIVOT_SELECTORS[method]
    except KeyError:
        known = ", ".join(sorted(PIVOT_SELECTORS))
        raise KeyError(f"unknown pivot selector {method!r}; known: {known}") from None
    pivots = selector(vectors, n_pivots, rng=rng)
    return PivotSpace(pivots, metric)
