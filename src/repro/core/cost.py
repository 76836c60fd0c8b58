"""Cost model for verification and optimal grid depth (paper §III-E).

The expected number of exact distance computations for one search is

    E = sum over occurrences of q in the candidate-pair multiset C of
        N(SQR(q', τ))                                           (Eq. 1)

and ``N`` is upper-bounded from per-dimension marginal PDFs of the mapped
repository vectors:

    Nmax(SQR(q', τ)) = min_i ∫_{q'_i - τ - h}^{q'_i + τ + h} PDF_i      (Eq. 2)

where ``h`` is the leaf half-cell width of an m-level grid. To pick ``m``
the paper runs *blocking only* for a sampled query workload and minimises
the estimated cost; here that is :func:`repro.core.blocker.block`'s flat
pass of Lemmas 3/5 over every (query row, occupied ``HG_RV`` leaf) pair,
whose candidate pairs equal Algorithm 1's, so no query grid is built.
The optimum the paper's gradient descent finds is fractional and rounded
up; here the same objective is evaluated on the integer candidate range
directly, which is equivalent at these scales.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.blocker import block
from repro.core.grid import HierarchicalGrid


class MappedDensityModel:
    """Per-dimension marginal histograms of the mapped repository (Eq. 2)."""

    def __init__(self, mapped_rv: np.ndarray, extent: float, n_bins: int = 128):
        mapped_rv = np.atleast_2d(np.asarray(mapped_rv, dtype=np.float64))
        if mapped_rv.shape[0] == 0:
            raise ValueError("density model needs at least one mapped vector")
        self.extent = float(extent)
        self.n_bins = int(n_bins)
        self.n_vectors = mapped_rv.shape[0]
        self.n_dims = mapped_rv.shape[1]
        edges = np.linspace(0.0, self.extent, self.n_bins + 1)
        self.bin_edges = edges
        # Cumulative counts per dimension allow O(1) interval integrals.
        self._cum = np.zeros((self.n_dims, self.n_bins + 1))
        for i in range(self.n_dims):
            counts, _ = np.histogram(mapped_rv[:, i], bins=edges)
            self._cum[i, 1:] = np.cumsum(counts)

    def _interval_count(self, dim: int, lo: float, hi: float) -> float:
        """Approximate vector count with coordinate ``dim`` inside [lo, hi]."""
        lo = max(0.0, lo)
        hi = min(self.extent, hi)
        if hi <= lo:
            return 0.0
        scale = self.n_bins / self.extent
        flo = lo * scale
        fhi = hi * scale
        cum = self._cum[dim]

        def interp(x: float) -> float:
            j = int(x)
            if j >= self.n_bins:
                return float(cum[-1])
            frac = x - j
            return float(cum[j] + frac * (cum[j + 1] - cum[j]))

        return max(0.0, interp(fhi) - interp(flo))

    def nmax_sqr(self, q_mapped: np.ndarray, tau: float, levels: int) -> float:
        """Eq. 2: upper bound on vectors in leaf cells covering SQR(q', τ)."""
        half_cell = self.extent / (1 << levels) / 2.0
        radius = tau + half_cell
        return min(
            self._interval_count(i, q_mapped[i] - radius, q_mapped[i] + radius)
            for i in range(self.n_dims)
        )


def estimate_query_cost(
    density: MappedDensityModel,
    hg_rv: HierarchicalGrid,
    query_mapped: np.ndarray,
    tau: float,
) -> float:
    """Eq. 1 for one query column: blocking only, then Eq. 2 per occurrence."""
    candidates = block(None, hg_rv, query_mapped, tau).candidate
    total = 0.0
    for q, n_cells in zip(candidates.rows.tolist(), candidates.lengths.tolist()):
        # The occurrence count of q in the multiset C equals its number of
        # candidate cells, and each occurrence contributes one Nmax term.
        nmax = density.nmax_sqr(query_mapped[q], tau, hg_rv.levels)
        total += n_cells * nmax
    return total


def estimate_workload_cost(
    mapped_rv: np.ndarray,
    extent: float,
    workload: Sequence[tuple[np.ndarray, float]],
    levels: int,
    density: Optional[MappedDensityModel] = None,
) -> float:
    """Total Eq. 1 estimate across a workload for one grid depth ``m``.

    Args:
        mapped_rv: pivot-mapped repository vectors.
        extent: pivot-space extent.
        workload: pairs ``(mapped query column, tau)``.
        levels: candidate grid depth ``m``.
        density: precomputed density model (built when omitted).
    """
    density = density or MappedDensityModel(mapped_rv, extent)
    hg_rv = HierarchicalGrid.build(mapped_rv, levels=levels, extent=extent, store_members=False)
    return sum(
        estimate_query_cost(density, hg_rv, q_mapped, tau) for q_mapped, tau in workload
    )


def sample_workload(
    mapped_columns: Sequence[np.ndarray],
    extent: float,
    n_queries: int = 8,
    tau_fractions: tuple[float, float] = (0.02, 0.10),
    rng: Optional[np.random.Generator] = None,
) -> list[tuple[np.ndarray, float]]:
    """Sample a query workload as the paper suggests (§III-E).

    Columns are drawn from the repository itself and paired with τ values
    uniform in a practical range (0–10% of the maximum distance by
    default; T is irrelevant to Eq. 1 and therefore not sampled).
    """
    rng = rng or np.random.default_rng(0)
    n_queries = min(n_queries, len(mapped_columns))
    picks = rng.choice(len(mapped_columns), size=n_queries, replace=False)
    lo, hi = tau_fractions
    return [
        (np.atleast_2d(mapped_columns[i]), float(rng.uniform(lo, hi)) * extent)
        for i in picks
    ]


def choose_optimal_m(
    mapped_rv: np.ndarray,
    extent: float,
    workload: Sequence[tuple[np.ndarray, float]],
    m_candidates: Sequence[int] = range(1, 9),
    density: Optional[MappedDensityModel] = None,
) -> tuple[int, dict[int, float]]:
    """Pick the grid depth minimising the estimated workload cost.

    Returns the argmin ``m`` and the full cost profile so callers can
    inspect the trade-off curve the paper describes (Table VI).
    """
    density = density or MappedDensityModel(mapped_rv, extent)
    costs = {
        int(m): estimate_workload_cost(mapped_rv, extent, workload, int(m), density)
        for m in m_candidates
    }
    best = min(costs, key=lambda m: (costs[m], m))
    return best, costs
