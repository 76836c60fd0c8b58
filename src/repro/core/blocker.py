"""Blocking — Algorithm 1 + quick browsing (§III-B/C) as one flat pass.

Algorithm 1 descends ``HG_Q`` x ``HG_RV`` from the root so that Lemmas 4
and 6 can prune or match whole cell pairs. What it finally decides is a
set of (query vector, occupied ``HG_RV`` leaf) pairs, and occupied leaves
are few (under a thousand on every benchmarked lake), so this module
decides those pairs directly: every query row is tested against every
occupied leaf of ``HG_RV`` with Lemma 5 (match) and Lemma 3 (filter).

* The leaf cells are decoded once per call into their integer
  coordinates, one pivot axis per row of a ``(|P|, leaves)`` array.
* On one axis a leaf's box is one of ``2^m`` intervals, so a row's Lemma
  5 and Lemma 3 tests on that axis are made once per interval and
  gathered per leaf: the float work is ``rows x 2^m`` per axis, and only
  a one-byte verdict per (row, leaf) is ``rows x leaves``. Every test is
  the same float expression as on the leaf's own box.
* Query rows go in chunks of at most ``_PAIRS`` (row, leaf) pairs, so no
  temporary is larger than a few bytes per pair of one chunk.
* Selecting by a row-major mask lists rows ascending and, per row,
  leaves ascending, so the output CSRs need no sort.

The result equals the descent's. Lemmas 4 and 6 are monotone under box
containment: a pair under a Lemma 4 cell pair fails Lemma 3, and a pair
under a Lemma 6 cell pair passes Lemma 5 (the query box shrinks to the
query point, the target box to its leaf).

Quick browsing: a row whose own leaf cell is occupied in ``HG_RV`` cannot
be separated from it by Lemma 3/4 (the two overlap), so that *aligned*
pair is a candidate outright and skips Lemmas 5/3. The descent reaches the
aligned pair's ancestors paired with themselves, so it also emits the
pair as a match when Lemma 6 holds for the level-(m-1) parent cell paired
with itself (on some axis ``2 * hi <= τ``); the flat pass applies the same
rule, and the duplicate match is harmless to verification.
``tests/core/reference_blocker.py`` keeps the recursive descent as the
test oracle.

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
#: (query row, leaf) pairs decided at once; bounds the pass's working set
_PAIRS = 1 << 16


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


def _intervals(grid: HierarchicalGrid, level: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of the ``2^level`` intervals a level-``level`` cell can
    span on one pivot axis, indexed by the cell's coordinate on it."""
    size = grid.cell_size(level)
    lo = np.arange(1 << level, dtype=np.float64) * size
    return lo, lo + size


class _CSRParts:
    """The (rows, cells) of one pair kind, gathered chunk by chunk."""

    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.lengths: list[np.ndarray] = []
        self.cells: list[np.ndarray] = []

    def add(self, first_row: int, mask: np.ndarray, leaves: np.ndarray) -> None:
        counts = np.count_nonzero(mask, axis=1)
        held = np.flatnonzero(counts)
        self.rows.append(first_row + held)
        self.lengths.append(counts[held])
        self.cells.append(np.broadcast_to(leaves, mask.shape)[mask])

    def csr(self) -> PairCSR:
        lengths = np.concatenate([_EMPTY, *self.lengths])
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        return PairCSR(
            np.concatenate([_EMPTY, *self.rows]), starts,
            np.concatenate([_EMPTY, *self.cells]),
        )


def block(
    hg_q: Optional[HierarchicalGrid],
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
        hg_q: hierarchical grid of the mapped query vectors, only checked
            against ``hg_rv`` (the pass places each row in ``hg_rv``'s
            cells itself); ``None`` skips the check.
        hg_rv: hierarchical grid of the mapped repository vectors.
        q_mapped: ``(|Q|, |P|)`` mapped query vectors.
        tau: distance threshold in original-space units.
        stats: counters to update (a fresh one is created when omitted).
        use_lemma34 / use_lemma56: ablation switches (Fig. 9).
        use_quick_browsing: aligned pairs are candidates outright.
    """
    if hg_q is not None and hg_q.levels != hg_rv.levels:
        raise ValueError("HG_Q and HG_RV must have the same number of levels")
    if hg_q is not None and hg_q.n_dims != hg_rv.n_dims:
        raise ValueError("HG_Q and HG_RV must share one pivot space")
    stats = stats if stats is not None else SearchStats()
    started = time.perf_counter()
    q_mapped = np.atleast_2d(q_mapped)
    n_rows, m = q_mapped.shape[0], hg_rv.levels
    leaves = hg_rv.leaf_codes
    coords = np.ascontiguousarray(decode_cells(leaves, hg_rv.n_dims, m).T)
    lo_v, hi_v = _intervals(hg_rv, m)

    # quick browsing (§III-C): each row's own leaf, where HG_RV occupies it
    aligned = np.zeros(n_rows, dtype=bool)
    own = np.zeros(n_rows, dtype=np.intp)
    parent_match = aligned
    if use_quick_browsing and leaves.size:
        codes = hg_rv.leaf_codes_for(q_mapped)
        own = np.minimum(np.searchsorted(leaves, codes), leaves.size - 1)
        aligned = leaves[own] == codes
        stats.quick_browse_cells += int(np.unique(codes[aligned]).size)
        if use_lemma56 and m > 1:  # the descent's Lemma 6 on (parent, parent)
            parents = decode_cells(codes >> hg_rv.n_dims, hg_rv.n_dims, m - 1)
            hi = _intervals(hg_rv, m - 1)[1][parents]
            parent_match = aligned & ((hi + hi) <= tau).any(axis=1)

    match, candidate = _CSRParts(), _CSRParts()
    step = max(1, _PAIRS // max(1, leaves.size))
    for lo in range(0, n_rows, step):
        q = q_mapped[lo : lo + step]
        stats.cells_visited += q.shape[0] * leaves.size
        # Lemma 5 (bit 0: match) and Lemma 3 (bit 1: filter) per (row, leaf),
        # one pivot axis at a time: decided once per (row, interval) of the
        # axis, then gathered by each leaf's coordinate on it
        verdict = np.zeros((q.shape[0], leaves.size), dtype=np.uint8)
        for axis in range(q.shape[1]):
            qa = q[:, axis, None]
            table = np.zeros((q.shape[0], lo_v.size), dtype=np.uint8)
            if use_lemma56:
                table[qa + hi_v <= tau] = 1
            if use_lemma34:
                table[(lo_v > qa + tau) | (hi_v < qa - tau)] |= 2
            verdict |= table[:, coords[axis]]
        matched = (verdict & 1).view(bool)
        filtered = (verdict >> 1).view(bool) & ~matched
        at = np.flatnonzero(aligned[lo : lo + step])
        matched[at, own[lo + at]] = filtered[at, own[lo + at]] = False
        stats.lemma5_matched += int(np.count_nonzero(matched))
        stats.lemma3_filtered += int(np.count_nonzero(filtered))
        candidate.add(lo, ~(matched | filtered), leaves)
        matched[at, own[lo + at]] = parent_match[lo + at]
        stats.lemma6_matched += int(np.count_nonzero(parent_match[lo + at]))
        match.add(lo, matched, leaves)

    result = BlockResult(match.csr(), candidate.csr())
    stats.blocking_seconds += time.perf_counter() - started
    stats.matching_pairs += result.n_match_pairs
    stats.candidate_pairs += result.n_candidate_pairs
    return result
