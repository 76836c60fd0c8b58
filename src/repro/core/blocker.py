"""Blocking with hierarchical grids — Algorithm 1 + quick browsing (§III-B/C).

The two grids (``HG_Q`` over the mapped query vectors, ``HG_RV`` over the
mapped repository vectors) are descended simultaneously in a hierarchical
block-nested-loop join. Cell pairs proven disjoint by Lemma 4 are pruned
with their whole subtrees; cell pairs proven matching by Lemma 6 emit
matching pairs for every (query vector, target leaf) underneath. At the
leaf level Lemmas 3 and 5 decide per query vector.

The descent is breadth-first. Its state is a *frontier* of surviving
``(q_code, r_code)`` cell pairs held as two int64 arrays, and one level
is a fixed number of NumPy calls over the whole frontier:

1. the children of every frontier cell are one ``np.searchsorted`` range
   of the next level's sorted code array (a parent code is a bit-prefix
   of its children's codes, :mod:`repro.core.cellcodes`);
2. the child pairs are the ragged cartesian product of those ranges
   (in slices of about ``_SLICE`` pairs: bounded memory, same result);
3. one ``decode_cells`` per side gives the children's boxes (each
   distinct cell decoded once), and the Lemma 6 / Lemma 4 masks are
   evaluated over all child pairs at once, one pivot axis at a time;
4. Lemma 6 pairs emit their subtrees (member rows x target leaves, both
   contiguous ranges), Lemma 4 pairs are dropped, the rest are the next
   frontier.

At the leaf level every surviving (query leaf, target leaf) pair is
expanded by the query leaf's member rows, and Lemmas 5 and 3 decide all
(query vector, target leaf) pairs as one ragged batch — the cell-level
masks with the query box shrunk to the query point. Every predicate is
the same elementwise float expression as in the depth-first formulation
of Algorithm 1, so the surviving pairs and every counter are identical
to it (``tests/core/reference_blocker.py`` keeps that formulation as the
test oracle).

Quick browsing: a query leaf cell and a target leaf cell with identical
codes can never be separated by Lemma 3/4 (they overlap), so such pairs
are emitted as candidates up front and dropped from the leaf stage.

The output pairs the paper's ``⟨mapped query vector, leaf cells⟩`` form:
:class:`BlockResult` holds one :class:`PairCSR` per kind (matching and
candidate pairs), mapping query rows to ascending ``HG_RV`` leaf codes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.cellcodes import decode_cells
from repro.core.grid import CellCode, HierarchicalGrid
from repro.core.stats import SearchStats

_EMPTY = np.zeros(0, dtype=np.int64)
#: (cell or row) pairs evaluated at once; bounds the descent's working set
_SLICE = 1 << 13


@dataclass(frozen=True)
class PairCSR:
    """(query row, leaf cell) pairs grouped by row.

    ``rows`` is ascending and unique; the cells of ``rows[i]`` are
    ``cells[starts[i]:starts[i + 1]]``, ascending.
    """

    rows: np.ndarray
    starts: np.ndarray
    cells: np.ndarray

    @classmethod
    def build(cls, rows: np.ndarray, cells: np.ndarray) -> "PairCSR":
        """Group parallel ``rows`` / ``cells`` arrays (duplicates kept)."""
        order = np.lexsort((cells, rows))
        rows, cells = rows[order], cells[order]
        uniq, first = np.unique(rows, return_index=True)
        return cls(uniq, np.append(first, rows.size), cells)

    @property
    def lengths(self) -> np.ndarray:
        """Number of cells of each row in ``rows``."""
        return np.diff(self.starts)


@dataclass(frozen=True)
class BlockResult:
    """Blocking output: one CSR per pair kind; cells are ``HG_RV`` leaf codes."""

    match: PairCSR
    candidate: PairCSR

    @classmethod
    def from_pairs(
        cls,
        match: Iterable[tuple[int, CellCode]] = (),
        candidate: Iterable[tuple[int, CellCode]] = (),
    ) -> "BlockResult":
        """Build from ``(row, cell)`` pairs, duplicates kept."""

        def csr(pairs) -> PairCSR:
            arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
            return PairCSR.build(arr[:, 0], arr[:, 1])

        return cls(csr(match), csr(candidate))

    @property
    def n_match_pairs(self) -> int:
        return int(self.match.cells.size)

    @property
    def n_candidate_pairs(self) -> int:
        return int(self.candidate.cells.size)

    def cells_of(self, row: int, match: bool) -> np.ndarray:
        """Ascending leaf codes paired with ``row`` (empty when none)."""
        csr = self.match if match else self.candidate
        i = int(np.searchsorted(csr.rows, row))
        if i == csr.rows.size or csr.rows[i] != row:
            return _EMPTY
        return csr.cells[csr.starts[i] : csr.starts[i + 1]]


def _ragged(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges ``[lo[i], hi[i])``: (owner ``i``, value) each."""
    lens = hi - lo
    owner = np.repeat(np.arange(lens.size), lens)
    offsets = np.arange(owner.size) - np.repeat(np.cumsum(lens) - lens, lens)
    return owner, lo[owner] + offsets


def _product(a_lo, a_hi, b_lo, b_hi) -> tuple[np.ndarray, np.ndarray]:
    """Per ``i``, every ``(a, b)`` of ``[a_lo[i], a_hi[i]) x [b_lo[i], b_hi[i])``."""
    n_b = b_hi - b_lo
    owner, flat = _ragged(np.zeros_like(n_b), (a_hi - a_lo) * n_b)
    return a_lo[owner] + flat // n_b[owner], b_lo[owner] + flat % n_b[owner]


def _slices(q_from, q_to, r_from, r_to, work):
    """``_product`` of the spans in slices of consecutive frontier pairs,
    each carrying about ``_SLICE`` units of ``work``: a wide level is
    evaluated in bounded memory."""
    cuts = (np.flatnonzero(np.diff(np.cumsum(work) // _SLICE)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, work.size]):
        yield _product(q_from[lo:hi], q_to[lo:hi], r_from[lo:hi], r_to[lo:hi])


def _span(sorted_codes: np.ndarray, codes: np.ndarray, shift: int):
    """Index range (from, to) of the descendants ``shift`` bits below each code."""
    return np.searchsorted(sorted_codes, [codes << shift, (codes + 1) << shift])


def _boxes(grid: HierarchicalGrid, level: int, idx: np.ndarray):
    """Boxes of the cells ``grid.level_codes(level)[idx]`` as ``(lo, size,
    at)``: box ``i`` spans ``lo[at[i]]`` to ``lo[at[i]] + size``. Each
    distinct cell is decoded once."""
    cells, at = np.unique(idx, return_inverse=True)
    size = grid.cell_size(level)
    codes = grid.level_codes(level)[cells]
    return decode_cells(codes, grid.n_dims, level).astype(np.float64) * size, size, at


def _lemma_masks(q_boxes, r_boxes, tau, use56, use34):
    """Row-aligned (matched, filtered) masks: Lemma 6 / 4 between cell
    boxes, Lemma 5 / 3 when the query boxes are points (size 0). One pivot
    axis at a time, so every temporary is one value per pair."""
    (q_lo, q_size, qi), (r_lo, r_size, ri) = q_boxes, r_boxes
    matched = np.zeros(ri.size, dtype=bool)
    filtered = np.zeros(ri.size, dtype=bool)
    for axis in range(r_lo.shape[1]):
        ql, rl = q_lo[qi, axis], r_lo[ri, axis]
        qh, rh = ql + q_size, rl + r_size
        if use56:
            matched |= rh + qh <= tau
        if use34:
            filtered |= (rl > qh + tau) | (rh < ql - tau)
    filtered &= ~matched
    return matched, filtered


def block(
    hg_q: HierarchicalGrid,
    hg_rv: HierarchicalGrid,
    q_mapped: np.ndarray,
    tau: float,
    stats: Optional[SearchStats] = None,
    use_lemma34: bool = True,
    use_lemma56: bool = True,
    use_quick_browsing: bool = True,
) -> BlockResult:
    """Run quick browsing + Algorithm 1 and return all pairs.

    Args:
        hg_q: hierarchical grid of the mapped query vectors (with members).
        hg_rv: hierarchical grid of the mapped repository vectors.
        q_mapped: ``(|Q|, |P|)`` mapped query vectors.
        tau: distance threshold in original-space units.
        stats: counters to update (a fresh one is created when omitted).
        use_lemma34 / use_lemma56: ablation switches (Fig. 9).
        use_quick_browsing: process aligned leaf cells up front.
    """
    if hg_q.levels != hg_rv.levels:
        raise ValueError("HG_Q and HG_RV must have the same number of levels")
    if hg_q.n_dims != hg_rv.n_dims:
        raise ValueError("HG_Q and HG_RV must share one pivot space")
    stats = stats if stats is not None else SearchStats()
    started = time.perf_counter()
    q_mapped = np.atleast_2d(q_mapped)
    d, m = hg_q.n_dims, hg_q.levels
    starts, order = hg_q.members_csr()
    q_leaves, r_leaves = hg_q.leaf_codes, hg_rv.leaf_codes
    match_parts: list[tuple[np.ndarray, np.ndarray]] = []
    cand_parts: list[tuple[np.ndarray, np.ndarray]] = []

    if use_quick_browsing:  # §III-C: aligned leaves are candidates outright
        aligned = np.intersect1d(q_leaves, r_leaves)
        stats.quick_browse_cells += int(aligned.size)
        at = np.searchsorted(q_leaves, aligned)
        owner, pos = _ragged(starts[at], starts[at + 1])
        cand_parts.append((order[pos], aligned[owner]))

    # Levels above the leaves: Lemma 6 (match) and Lemma 4 (filter) per
    # child cell pair, all pairs of one level at once (in slices).
    fq = fr = np.zeros(1, dtype=np.int64)  # the root pair
    for level in range(1, m):
        q_lv, r_lv = hg_q.level_codes(level), hg_rv.level_codes(level)
        spans = (*_span(q_lv, fq, d), *_span(r_lv, fr, d))
        survivors = []
        for qi, ri in _slices(*spans, (spans[1] - spans[0]) * (spans[3] - spans[2])):
            stats.cells_visited += int(qi.size)
            matched, filtered = _lemma_masks(
                _boxes(hg_q, level, qi), _boxes(hg_rv, level, ri),
                tau, use_lemma56, use_lemma34,
            )
            qc, rc = q_lv[qi], r_lv[ri]
            stats.lemma6_matched += int(matched.sum())
            stats.lemma4_filtered += int(filtered.sum())
            if matched.any():  # member rows below x target leaves below (l.11-12)
                shift = d * (m - level)
                q_from, q_to = _span(q_leaves, qc[matched], shift)
                r_from, r_to = _span(r_leaves, rc[matched], shift)
                pos, leaf = _product(starts[q_from], starts[q_to], r_from, r_to)
                match_parts.append((order[pos], r_leaves[leaf]))
            survive = ~(matched | filtered)
            survivors.append((qc[survive], rc[survive]))
        fq, fr = (np.concatenate(side) for side in zip(*survivors))

    # Leaf level: Lemma 5 (match) and Lemma 3 (filter) per (query vector,
    # target leaf), a ragged batch over the member rows (Alg. 1 l.3–9).
    spans = (*_span(q_leaves, fq, d), *_span(r_leaves, fr, d))
    rows_below = starts[spans[1]] - starts[spans[0]]
    for qi, ri in _slices(*spans, rows_below * (spans[3] - spans[2])):
        stats.cells_visited += int(qi.size)
        if use_quick_browsing:
            keep = q_leaves[qi] != r_leaves[ri]
            qi, ri = qi[keep], ri[keep]
        owner, pos = _ragged(starts[qi], starts[qi + 1])
        rows, cells = order[pos], r_leaves[ri[owner]]
        r_lo, r_size, r_at = _boxes(hg_rv, m, ri)
        matched, filtered = _lemma_masks(
            (q_mapped, 0.0, rows), (r_lo, r_size, r_at[owner]),
            tau, use_lemma56, use_lemma34,
        )
        stats.lemma5_matched += int(matched.sum())
        stats.lemma3_filtered += int(filtered.sum())
        candidate = ~(matched | filtered)
        match_parts.append((rows[matched], cells[matched]))
        cand_parts.append((rows[candidate], cells[candidate]))

    def csr(parts) -> PairCSR:
        return PairCSR.build(*(np.concatenate(side) for side in zip(*parts)))

    result = BlockResult(csr(match_parts), csr(cand_parts))
    stats.blocking_seconds += time.perf_counter() - started
    stats.matching_pairs += result.n_match_pairs
    stats.candidate_pairs += result.n_candidate_pairs
    return result
