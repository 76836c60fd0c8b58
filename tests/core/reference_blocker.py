"""Depth-first Algorithm 1 — the test oracle for the array blocker.

This is the recursive formulation of the blocking descent: one call per
(query cell, target cell) pair, one Lemma 6 / Lemma 4 evaluation per
(query cell, sibling target group), and output pushed pair by pair into
``{query row: [leaf codes]}`` dicts. :func:`repro.core.blocker.block`
must produce the same (row, cell) pairs of each kind and the same
quick-browsing count; ``test_blocker_equivalence.py`` checks that, the same way
``reference.ReferenceGrid`` (beside this file) pins the array grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.cellcodes import decode_cells
from repro.core.grid import CellCode, HierarchicalGrid
from repro.core.stats import SearchStats
from reference import (
    children_codes,
    leaf_members,
    subtree_leaf_codes,
    subtree_member_rows,
)


@dataclass
class ReferencePairs:
    """Pairs keyed by query row; values are ``HG_RV`` leaf codes."""

    match_pairs: dict[int, list[CellCode]] = field(default_factory=dict)
    candidate_pairs: dict[int, list[CellCode]] = field(default_factory=dict)

    def add_match(self, q: int, cell: CellCode) -> None:
        self.match_pairs.setdefault(q, []).append(cell)

    def add_matches(self, q: int, cells: list[CellCode]) -> None:
        self.match_pairs.setdefault(q, []).extend(cells)

    def add_candidate(self, q: int, cell: CellCode) -> None:
        self.candidate_pairs.setdefault(q, []).append(cell)


def _leaf_masks(batch, t_lo, t_hi, tau, use56, use34):
    if use56:
        matched = ((batch[:, None, :] + t_hi[None, :, :]) <= tau).any(axis=2)
    else:
        matched = np.zeros((batch.shape[0], t_hi.shape[0]), dtype=bool)
    if use34:
        filtered = (
            (t_lo[None, :, :] > batch[:, None, :] + tau)
            | (t_hi[None, :, :] < batch[:, None, :] - tau)
        ).any(axis=2)
        filtered &= ~matched
    else:
        filtered = np.zeros_like(matched)
    return matched, filtered


def _cell_masks(r_lo, r_hi, q_lo, q_hi, tau, use56, use34):
    n_r = r_lo.shape[0]
    if use56:
        matched = ((r_hi + q_hi[None, :]) <= tau).any(axis=1)
    else:
        matched = np.zeros(n_r, dtype=bool)
    if use34:
        filtered = (
            (r_lo > q_hi[None, :] + tau) | (r_hi < q_lo[None, :] - tau)
        ).any(axis=1)
        filtered &= ~matched
    else:
        filtered = np.zeros(n_r, dtype=bool)
    return matched, filtered


class _Blocker:
    """Recursive state for one run of Algorithm 1."""

    def __init__(
        self,
        hg_q: HierarchicalGrid,
        hg_rv: HierarchicalGrid,
        q_mapped: np.ndarray,
        tau: float,
        stats: SearchStats,
        use_lemma34: bool,
        use_lemma56: bool,
        skip_aligned: Optional[set[CellCode]],
    ):
        if hg_q.levels != hg_rv.levels:
            raise ValueError("HG_Q and HG_RV must have the same number of levels")
        if hg_q.n_dims != hg_rv.n_dims:
            raise ValueError("HG_Q and HG_RV must share one pivot space")
        self.hg_q = hg_q
        self.hg_rv = hg_rv
        self.q_mapped = q_mapped
        self.tau = tau
        self.stats = stats
        self.use_lemma34 = use_lemma34
        self.use_lemma56 = use_lemma56
        self.skip_aligned = skip_aligned or set()
        self.result = ReferencePairs()
        #: cached (child codes, lo, hi) per (grid tag, level, parent code)
        self._child_cache: dict[
            tuple[str, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def run(self) -> ReferencePairs:
        self._block(0, 0, 0)
        return self.result

    # -- geometry helpers ----------------------------------------------------------

    def _children(
        self, tag: str, grid: HierarchicalGrid, level: int, code: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Child codes and stacked (lo, hi) boxes of a cell, cached per search."""
        key = (tag, level, code)
        cached = self._child_cache.get(key)
        if cached is not None:
            return cached
        child_level = level + 1
        codes = children_codes(grid, level, code)
        size = grid.cell_size(child_level)
        coords = decode_cells(codes, grid.n_dims, child_level).astype(np.float64)
        lo = coords * size
        entry = (codes, lo, lo + size)
        self._child_cache[key] = entry
        return entry

    # -- descent ---------------------------------------------------------------------

    def _block(self, level: int, code_q: int, code_r: int) -> None:
        q_codes, q_lo_all, q_hi_all = self._children("q", self.hg_q, level, code_q)
        r_codes, r_lo, r_hi = self._children("r", self.hg_rv, level, code_r)
        if q_codes.size == 0 or r_codes.size == 0:
            return
        leaf_level = self.hg_q.levels
        child_level = level + 1
        n_r = int(r_codes.size)

        for qi, q_code in enumerate(q_codes.tolist()):
            self.stats.cells_visited += n_r
            q_lo = q_lo_all[qi]
            q_hi = q_hi_all[qi]
            if child_level == leaf_level:
                self._block_leaves(q_code, r_codes, r_lo, r_hi)
                continue

            # Lemma 6 (cell-cell matching) and Lemma 4 (cell-cell
            # filtering), batched over sibling target cells.
            matched, filtered = _cell_masks(
                r_lo, r_hi, q_lo, q_hi, self.tau,
                self.use_lemma56, self.use_lemma34,
            )

            n_matched = int(matched.sum())
            if n_matched:
                self.stats.lemma6_matched += n_matched
                for ri in np.nonzero(matched)[0]:
                    self._emit_subtree_matches(
                        child_level, q_code, int(r_codes[ri])
                    )
            for ri in np.nonzero(~matched & ~filtered)[0]:
                self._block(child_level, q_code, int(r_codes[ri]))

    def _block_leaves(
        self,
        q_code: int,
        r_codes: np.ndarray,
        r_lo: np.ndarray,
        r_hi: np.ndarray,
    ) -> None:
        """Leaf stage: Lemmas 5 and 3 per (query vector, target leaf)
        (Alg. 1 l.3–9), batched over both axes."""
        members = leaf_members(self.hg_q, q_code)
        batch = self.q_mapped[members]  # (mq, d)
        tau = self.tau

        if self.skip_aligned and q_code in self.skip_aligned:
            keep = r_codes != q_code  # handled by quick browsing
            t_lo = r_lo[keep]
            t_hi = r_hi[keep]
            kept_cells = r_codes[keep].tolist()
        else:
            t_lo = r_lo
            t_hi = r_hi
            kept_cells = r_codes.tolist()
        if not kept_cells:
            return

        # Lemma 5 ((mq, kt) matching) and Lemma 3 (SQR-vs-box filtering),
        # batched over both axes.
        matched, filtered = _leaf_masks(
            batch, t_lo, t_hi, tau, self.use_lemma56, self.use_lemma34
        )

        self.stats.lemma5_matched += int(matched.sum())
        self.stats.lemma3_filtered += int(filtered.sum())
        candidates = ~matched & ~filtered
        for mi, ri in zip(*np.nonzero(matched)):
            self.result.add_match(int(members[mi]), kept_cells[ri])
        for mi, ri in zip(*np.nonzero(candidates)):
            self.result.add_candidate(int(members[mi]), kept_cells[ri])

    def _emit_subtree_matches(self, level: int, q_code: int, r_code: int) -> None:
        """Lemma 6 fired: every query vector under ``q_code`` matches every
        target leaf cell under ``r_code`` (Alg. 1 l.11–12)."""
        members = subtree_member_rows(self.hg_q, level, q_code)
        leaves = subtree_leaf_codes(self.hg_rv, level, r_code).tolist()
        for q in members.tolist():
            self.result.add_matches(q, leaves)


def quick_browse(
    hg_q: HierarchicalGrid,
    hg_rv: HierarchicalGrid,
    result: ReferencePairs,
    stats: SearchStats,
) -> set[CellCode]:
    """Emit candidates for identically-aligned leaf cells (§III-C).

    Returns the set of aligned codes so Algorithm 1 can skip them.
    """
    aligned_codes = np.intersect1d(hg_q.leaf_codes, hg_rv.leaf_codes)
    stats.quick_browse_cells += int(aligned_codes.size)
    for code in aligned_codes.tolist():
        for q in leaf_members(hg_q, code).tolist():
            result.add_candidate(q, code)
    return set(aligned_codes.tolist())


def reference_block(
    hg_q: HierarchicalGrid,
    hg_rv: HierarchicalGrid,
    q_mapped: np.ndarray,
    tau: float,
    stats: Optional[SearchStats] = None,
    use_lemma34: bool = True,
    use_lemma56: bool = True,
    use_quick_browsing: bool = True,
) -> ReferencePairs:
    """Quick browsing + recursive Algorithm 1, with ``block``'s signature."""
    stats = stats if stats is not None else SearchStats()
    blocker = _Blocker(
        hg_q, hg_rv, np.atleast_2d(q_mapped), tau, stats,
        use_lemma34, use_lemma56, skip_aligned=None,
    )
    if use_quick_browsing:
        blocker.skip_aligned = quick_browse(hg_q, hg_rv, blocker.result, stats)
    return blocker.run()
