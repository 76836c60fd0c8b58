"""Geometric predicates of Lemmas 1–6 in the pivot space (paper §III-A/B).

All functions operate on *mapped* coordinates (distances to pivots). Cells
are axis-aligned boxes ``[lo, hi]``. The query regions are:

* ``SQR(q', τ)`` — the square region ``[q' - τ, q' + τ]``; any mapped
  vector outside it cannot match (Lemma 1).
* ``RQR(q', p_i, τ)`` — the per-pivot rectangle ``[0, τ - d(q, p_i)]`` in
  dimension i, unbounded elsewhere; any mapped vector inside it must match
  (Lemma 2). It exists only when ``τ - d(q, p_i) >= 0``.

Cell-level forms (Lemmas 3–6) reduce to interval arithmetic on cell boxes:

* Lemma 3 (vector-cell filter): ``c ∩ SQR(q', τ) = ∅``.
* Lemma 4 (cell-cell filter): ``c ∩ SQR(c_q.center, τ + c_q.len/2) = ∅``,
  equivalent to the boxes being farther than τ apart in some dimension.
* Lemma 5 (vector-cell match): ∃ pivot i with ``c.hi[i] + q'[i] <= τ``.
* Lemma 6 (cell-cell match): ∃ pivot i with ``c.hi[i] + c_q.hi[i] <= τ``,
  because the minimum RQR over the query cell has extent
  ``τ - max_q d(q, p_i) = τ - c_q.hi[i]``.

Lemmas 1 and 2 are Lemmas 3 and 5 on a zero-width cell (``lo = hi = x'``);
verification decides candidates by exact distances instead (measured at
~1x against the point filters), so they have no function of their own.
Functions are vectorised over batches of query vectors where it matters
for performance (the leaf level of Algorithm 1).
"""

from __future__ import annotations

import numpy as np


# --------------------------------------------------------------------------
# Vector-vs-cell predicates (Lemmas 3 and 5)
# --------------------------------------------------------------------------

def lemma3_filter_vectors_vs_cell(
    q_mapped: np.ndarray, cell_lo: np.ndarray, cell_hi: np.ndarray, tau: float
) -> np.ndarray:
    """Mask over rows of ``q_mapped`` whose SQR misses the cell box entirely.

    ``True`` means the (query vector, cell) pair is pruned: no vector in
    the cell can match that query vector.
    """
    q_mapped = np.atleast_2d(q_mapped)
    misses = (cell_lo[None, :] > q_mapped + tau) | (cell_hi[None, :] < q_mapped - tau)
    return misses.any(axis=1)


def lemma5_match_vectors_vs_cell(
    q_mapped: np.ndarray, cell_hi: np.ndarray, tau: float
) -> np.ndarray:
    """Mask over rows of ``q_mapped`` for which the whole cell matches.

    The cell is inside ``RQR(q', p_i, τ)`` iff its upper corner satisfies
    ``cell_hi[i] <= τ - q'[i]`` for some pivot i (RQRs start at the origin,
    so the lower corner is always inside when the upper corner is).
    """
    q_mapped = np.atleast_2d(q_mapped)
    return ((cell_hi[None, :] + q_mapped) <= tau).any(axis=1)


# --------------------------------------------------------------------------
# Cell-vs-cell predicates (Lemmas 4 and 6)
# --------------------------------------------------------------------------

def lemma4_filter_cell_vs_cell(
    qcell_lo: np.ndarray,
    qcell_hi: np.ndarray,
    tcell_lo: np.ndarray,
    tcell_hi: np.ndarray,
    tau: float,
) -> bool:
    """True when the target cell can be pruned against the query cell.

    The dilated query region ``SQR(center, τ + len/2)`` is exactly the
    query cell box expanded by τ on every side, so the test is a box
    separation test with margin τ.
    """
    return bool(
        ((tcell_lo > qcell_hi + tau) | (tcell_hi < qcell_lo - tau)).any()
    )


def lemma6_match_cell_vs_cell(
    qcell_hi: np.ndarray, tcell_hi: np.ndarray, tau: float
) -> bool:
    """True when every vector pair across the two cells surely matches.

    The minimum rectangle query region over the query cell has, for pivot
    i, the extent ``τ - max_{q ∈ c_q} d(q, p_i) >= τ - qcell_hi[i]``; the
    target cell is fully inside it iff ``tcell_hi[i] + qcell_hi[i] <= τ``.
    """
    return bool(((tcell_hi + qcell_hi) <= tau).any())


# --------------------------------------------------------------------------
# Query-region helpers (used by the cost model and tests)
# --------------------------------------------------------------------------

def square_query_region(q_mapped: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounds ``(lo, hi)`` of SQR(q', τ)."""
    q_mapped = np.asarray(q_mapped, dtype=np.float64)
    return q_mapped - tau, q_mapped + tau


def rectangle_query_regions(q_mapped: np.ndarray, tau: float) -> list[tuple[int, float]]:
    """Existing RQRs as ``(pivot index, extent)`` pairs.

    An RQR exists for pivot i only when ``τ - q'[i] >= 0``; its box is
    ``[0, τ - q'[i]]`` in dimension i and ``[0, ∞)`` elsewhere.
    """
    q_mapped = np.asarray(q_mapped, dtype=np.float64)
    extents = tau - q_mapped
    return [(int(i), float(extents[i])) for i in np.nonzero(extents >= 0.0)[0]]
