"""Data partitioning for large-scale data lakes (paper §IV).

Columns with similar vector distributions should share a partition — the
pivots selected within a partition then filter well for *all* its columns
(Fig. 5's observation). Each column is summarised as a probability
histogram over a fixed low-dimensional projection of the embedding space,
and the histograms are clustered by k-means under the (symmetrised)
Jensen–Shannon divergence.

Two baselines from Fig. 7b are included: random partitioning and "average
k-means" (each column reduced to its mean vector, Euclidean k-means).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.clustering import lloyd_kmeans

#: additive smoothing so KL terms never divide by zero
_SMOOTH = 1e-9


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Kullback–Leibler divergence KL(p || q) of two histograms (nats)."""
    p = np.asarray(p, dtype=np.float64) + _SMOOTH
    q = np.asarray(q, dtype=np.float64) + _SMOOTH
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def jensen_shannon_divergence(a: np.ndarray, b: np.ndarray) -> float:
    """The paper's symmetric divergence ``(KL(a||b) + KL(b||a)) / 2``.

    Note: §IV defines "JSD" as the symmetrised KL (Jeffreys) divergence
    rather than the mixture-based Jensen–Shannon formula; we implement the
    paper's definition. With smoothed histograms it is finite, symmetric
    and zero iff the histograms coincide — all the clustering needs.
    """
    return 0.5 * (kl_divergence(a, b) + kl_divergence(b, a))


class HistogramSpace:
    """Fixed projection + binning shared by all column histograms (§IV step 1).

    Vectors are projected onto ``n_dims`` fixed random orthonormal
    directions (seeded, so histograms are comparable across partitions and
    processes) and binned over the global projection range.
    """

    def __init__(
        self,
        sample_vectors: np.ndarray,
        n_dims: int = 2,
        bins_per_dim: int = 8,
        seed: int = 0,
    ):
        sample_vectors = np.atleast_2d(np.asarray(sample_vectors, dtype=np.float64))
        dim = sample_vectors.shape[1]
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((dim, max(n_dims, 1)))
        q, _ = np.linalg.qr(raw)
        self.projection = q[:, :n_dims]
        self.bins_per_dim = int(bins_per_dim)
        #: the sample's projection, from which its range is taken
        self.sample_projected = sample_vectors @ self.projection
        lo = self.sample_projected.min(axis=0)
        hi = self.sample_projected.max(axis=0)
        pad = np.maximum(1e-6, 0.01 * (hi - lo))
        self.lo = lo - pad
        self.hi = hi + pad

    @property
    def n_bins(self) -> int:
        return self.bins_per_dim ** self.projection.shape[1]

    def histograms(self, projected: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        """Normalised histograms of consecutive columns of ``sizes`` rows.

        ``projected`` holds the columns' projected rows back to back; one
        ``np.bincount`` keyed by (column, bin) counts them all.
        """
        span = self.hi - self.lo
        coords = np.floor(
            (projected - self.lo) / span * self.bins_per_dim
        ).astype(np.int64)
        np.clip(coords, 0, self.bins_per_dim - 1, out=coords)
        keys = coords @ (self.bins_per_dim ** np.arange(self.projection.shape[1]))
        keys += np.repeat(np.arange(len(sizes), dtype=np.int64) * self.n_bins, sizes)
        counts = np.bincount(keys, minlength=len(sizes) * self.n_bins)
        counts = counts.reshape(len(sizes), self.n_bins)
        return counts / counts.sum(axis=1, keepdims=True)

    def histogram(self, vectors: np.ndarray) -> np.ndarray:
        """Normalised occupancy histogram of a column's vectors."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        return self.histograms(vectors @ self.projection, [vectors.shape[0]])[0]


def column_histogram(
    vectors: np.ndarray, space: HistogramSpace
) -> np.ndarray:
    """Summarise one column as a probability histogram (§IV step 1)."""
    return space.histogram(vectors)


def jsd_kmeans_partition(
    columns: Sequence[np.ndarray],
    k: int,
    n_iter: int = 10,
    rng: Optional[np.random.Generator] = None,
    space: Optional[HistogramSpace] = None,
) -> np.ndarray:
    """Cluster columns by JSD over their histograms (§IV steps 2–5).

    Args:
        columns: the repository's vector columns.
        k: number of partitions.
        n_iter: the user-defined iteration bound ``t``.
        rng: randomness for seeding centers.
        space: shared histogram space (built from all vectors when omitted).

    Returns:
        Partition label per column, shape ``(len(columns),)``.
    """
    rng = rng or np.random.default_rng(0)
    if not columns:
        raise ValueError("cannot partition zero columns")
    columns = [np.atleast_2d(np.asarray(c, dtype=np.float64)) for c in columns]
    if space is None:
        space = HistogramSpace(np.concatenate(columns, axis=0))
        projected = space.sample_projected
    else:
        projected = np.concatenate(columns, axis=0) @ space.projection
    histograms = space.histograms(projected, [c.shape[0] for c in columns])

    def jsd_matrix(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        p = points + _SMOOTH
        p = p / p.sum(axis=1, keepdims=True)
        c = centers + _SMOOTH
        c = c / c.sum(axis=1, keepdims=True)
        logp = np.log(p)
        logc = np.log(c)
        # KL(p||c)[i,j] = sum_b p[i,b] (logp[i,b] - logc[j,b])
        kl_pc = (p * logp).sum(axis=1)[:, None] - p @ logc.T
        kl_cp = (c * logc).sum(axis=1)[None, :] - logp @ c.T
        return 0.5 * (kl_pc + kl_cp)

    labels, _ = lloyd_kmeans(
        histograms, k, n_iter=n_iter, rng=rng, distance=jsd_matrix
    )
    return labels


#: partitioning strategies selectable by name (paper §IV + Fig. 7b baselines)
PARTITIONERS = {
    "jsd": "JSD histogram k-means (paper §IV)",
    "average-kmeans": "k-means over column mean vectors (Fig. 7b baseline)",
    "random": "uniform random assignment (Fig. 7b baseline)",
}


def partition_labels(
    columns: Sequence[np.ndarray],
    k: int,
    partitioner: str = "jsd",
    n_iter: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Assign every column to one of ``k`` partitions by strategy name.

    Args:
        columns: the repository's vector columns.
        k: number of partitions.
        partitioner: one of :data:`PARTITIONERS`.
        n_iter: k-means iteration bound ``t`` (ignored by ``random``).
        rng: randomness source.

    Returns:
        Partition label per column, shape ``(len(columns),)``.

    Raises:
        KeyError: for unknown partitioner names.
    """
    if partitioner not in PARTITIONERS:
        known = ", ".join(sorted(PARTITIONERS))
        raise KeyError(f"unknown partitioner {partitioner!r}; known: {known}")
    rng = rng or np.random.default_rng(0)
    if partitioner == "jsd":
        labels = jsd_kmeans_partition(columns, k, n_iter=n_iter, rng=rng)
    elif partitioner == "average-kmeans":
        labels = average_kmeans_partition(columns, k, n_iter=n_iter, rng=rng)
    else:
        labels = random_partition(len(columns), k, rng=rng)
    return np.asarray(labels, dtype=np.intp)


def random_partition(
    n_columns: int, k: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Uniform random partition assignment (Fig. 7b baseline)."""
    rng = rng or np.random.default_rng(0)
    return rng.integers(0, max(1, k), size=n_columns).astype(np.intp)


def average_kmeans_partition(
    columns: Sequence[np.ndarray],
    k: int,
    n_iter: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Fig. 7b baseline: k-means over per-column mean vectors."""
    rng = rng or np.random.default_rng(0)
    means = np.vstack([np.atleast_2d(c).mean(axis=0) for c in columns])
    labels, _ = lloyd_kmeans(means, k, n_iter=n_iter, rng=rng)
    return labels
