"""Inverted index from grid leaf cells to lake rows (paper §III-C).

A leaf cell's postings are the columns with a vector in it, in column-ID
order (the DaaT order of Algorithm 2), each with its rows in the cell.
The vector store is kept in *leaf order*, so a posting is a run of
store rows and the index only records where runs start and whose they
are. The store has two parts:

* the **sorted part**, rows ``[0, leaf_starts[-1])``: every leaf's rows
  are the slice ``leaf_starts[l]:leaf_starts[l + 1]`` (``leaves`` is
  ``HG_RV``'s sorted leaf level, the grid's own array), grouped by
  column in ID order within it. The row → column map is run-length
  encoded in three arrays:

  - ``post_bits`` — one bit per row (``np.packbits`` order), set where
    a (leaf, column) posting starts;
  - ``post_cols`` — one directory position per posting, ``-1`` once
    its column is deleted (the rows stay, dead, until compaction);
  - ``leaf_posts`` — the first posting of each leaf, aligned with
    ``leaf_starts``;

* the **tail**, rows added after the sorted part in arrival order, one
  contiguous range per column (``tail_firsts``). It has its own leaf →
  row CSR (``tail_codes`` / ``tail_starts`` / ``tail_rows``), sized by
  the tail: an empty tail holds no array. Compaction
  (:meth:`compaction`) appends each leaf's tail rows to the end of that
  leaf's range; tail columns have the highest IDs, so column order
  within a leaf holds.

``column_ids`` / ``column_sizes`` are the column directory, in ID order;
tail columns are its last ``tail_firsts.size`` entries.

One width rule covers every integer array the index holds: it is
stored in :func:`narrowest` of the largest value it must hold. Leaf
codes (``leaves``, ``tail_codes``) take the grid geometry's type
(:func:`~repro.core.cellcodes.code_dtype`), so a lookup never mixes
code types. ``leaf_starts`` / ``leaf_posts`` take theirs from the
sorted part's row and posting counts and ``post_cols`` from the
directory size (:func:`posting_dtype`: int8 up to 128 columns), all
chosen when the sorted part is built (:meth:`~InvertedIndex.build_sorted`,
:meth:`~InvertedIndex.compaction`). ``column_ids`` / ``column_sizes``
take theirs from the largest ID and size: an add widens them only when
its value needs more bits, and compaction narrows them again. A delete
keeps every type. The tail's row arrays are int32 (:data:`ROW`; at most
:data:`MAX_ROWS` rows). Values leave the index as ``intp`` / int64, so
no caller's arithmetic wraps in a narrow type.

Postings are derived on lookup: a leaf's rows are a slice, and where
its postings start is read off ``post_bits``. The verifier reads a
query's candidate leaves through :meth:`InvertedIndex.candidate_rows`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

CellCode = int

#: rows one index can hold: row ids are int32. Larger lakes are split
#: into shards by :class:`~repro.core.out_of_core.PartitionedPexeso`
MAX_ROWS = int(np.iinfo(np.int32).max)

#: dtype of the tail's row arrays, which name store rows
ROW = np.int32

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I8 = np.empty(0, dtype=np.int8)
_EMPTY_ROWS = np.empty(0, dtype=ROW)
_EMPTY_BITS = np.empty(0, dtype=np.uint8)


def check_row_count(n_rows: int) -> None:
    """Refuse an index of more than :data:`MAX_ROWS` rows."""
    if n_rows > MAX_ROWS:
        raise ValueError(
            f"{n_rows} rows exceed one index's int32 row ids ({MAX_ROWS}); "
            "shard the lake with repro.core.out_of_core.PartitionedPexeso"
        )


def narrowest(max_value: int) -> np.dtype:
    """The narrowest signed integer type holding ``-1`` through
    ``max_value``: int8 up to 127, int16 up to 32,767, int32 up to
    2**31 - 1, else int64."""
    return np.min_scalar_type(-(max(int(max_value), 0) + 1))


def posting_dtype(n_columns: int) -> np.dtype:
    """The type of ``post_cols`` for a directory of ``n_columns``
    columns: ``-1`` (a dead posting) through its last position."""
    return narrowest(n_columns - 1)


def _narrowed(values: np.ndarray) -> np.ndarray:
    """``values`` (non-negative) in :func:`narrowest` of their maximum."""
    return values.astype(narrowest(values.max() if values.size else 0), copy=False)


def _appended(values: np.ndarray, value: int) -> np.ndarray:
    """``values`` with ``value`` appended, widened only when ``value``
    needs more bits than their type has."""
    out = np.empty(values.size + 1, dtype=np.promote_types(values.dtype, narrowest(value)))
    out[:-1] = values
    out[-1] = value
    return out


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Positions where a run of equal (non-negative) values starts."""
    return np.flatnonzero(np.diff(values, prepend=-1))


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The concatenated ``arange(lo[i], hi[i])``."""
    counts = np.asarray(hi, dtype=np.intp) - lo
    offsets = np.cumsum(counts) - counts
    out = np.arange(int(counts.sum()), dtype=np.intp)
    out += np.repeat(lo - offsets, counts)
    return out


def _codes(cells) -> np.ndarray:
    """``cells`` as an array of codes: an array as it is (the search path
    passes the leaves' own type, so no lookup casts the leaves), any
    other iterable as int64."""
    return cells if isinstance(cells, np.ndarray) else np.asarray(list(cells), np.int64)


def _bits_at(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ``np.packbits``-ordered bits of ``bits`` at ``rows``, as bools."""
    return (bits[rows >> 3] << (rows & 7).astype(np.uint8)) >= 128


_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
#: set bits of each byte value
_POPCOUNT = _BYTE_BITS.sum(axis=1).astype(np.intp)
#: ``_SELECT[byte, k]``: the ``np.packbits`` position of the byte's k-th set bit
_SELECT = np.argsort(_BYTE_BITS == 0, axis=1, kind="stable")


def _select(bits: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The positions of the ``ranks``-th set bits (0-based) of the
    ``np.packbits``-ordered ``bits``: a popcount pass over the bytes,
    not over the bits."""
    through = np.cumsum(_POPCOUNT[bits])  # set bits up to and including each byte
    byte = np.searchsorted(through, ranks, side="right")
    return byte * 8 + _SELECT[bits[byte], ranks - through[byte] + _POPCOUNT[bits[byte]]]


def _starts_after(csr_starts: np.ndarray, codes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``csr_starts`` realigned with a sorted superset ``codes`` of the
    sorted ``at`` it is aligned with: a code new to it starts out empty.
    The type is kept: no offset changes."""
    return np.append(csr_starts[np.searchsorted(at, codes)], csr_starts[-1])


class Posting:
    """One (column, rows-in-cell) entry of a postings list (lookup view)."""

    __slots__ = ("column_id", "rows")

    def __init__(self, column_id: int, rows: list[int]):
        self.column_id = column_id
        self.rows = rows

    def __lt__(self, other: "Posting") -> bool:
        return self.column_id < other.column_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Posting(column={self.column_id}, rows={self.rows})"


@dataclass
class CandidateRows:
    """The store rows of a set of leaf cells, as the verifier reads them.

    They form one *virtual* row sequence: first the ``views``, ``(start,
    stop)`` ranges of the sorted part read in place; then the
    ``gathered`` rows, the live rows of the sorted part and then of the
    tail, each in store order. The sequence is cut into segments of one
    column each: ``segment_starts`` (ascending, the first one 0) and
    ``segment_columns``, a directory position, or ``-1`` for a deleted
    column's rows inside a view. A column has a segment per run of its
    rows, so usually several.
    """

    views: np.ndarray
    gathered: np.ndarray
    segment_starts: np.ndarray
    segment_columns: np.ndarray

    @property
    def n_rows(self) -> int:
        return int((self.views[:, 1] - self.views[:, 0]).sum()) + self.gathered.size


class InvertedIndex:
    """Leaf cell code -> rows over a leaf-ordered vector store."""

    def __init__(self) -> None:
        #: sorted leaf codes the per-leaf offsets are aligned with
        self.leaves = _EMPTY_I64
        #: offsets of each leaf's rows in the sorted part of the store
        self.leaf_starts = np.zeros(1, dtype=np.int8)
        #: offsets of each leaf's postings in ``post_cols``
        self.leaf_posts = np.zeros(1, dtype=np.int8)
        #: one bit per sorted row: set where a posting starts
        self.post_bits = _EMPTY_BITS
        #: directory position of every posting's column, -1 when deleted
        self.post_cols = _EMPTY_I8
        #: the column directory, in ID order
        self.column_ids = _EMPTY_I8
        self.column_sizes = _EMPTY_I8
        #: first store row of each tail column (the directory's last ones)
        self.tail_firsts = _EMPTY_ROWS
        #: the tail's leaf → row CSR: codes, offsets, store rows
        self.tail_codes = _EMPTY_I64
        self.tail_starts = _EMPTY_ROWS
        self.tail_rows = _EMPTY_ROWS

    # -- building ------------------------------------------------------------------

    def build_sorted(self, codes: np.ndarray, positions: np.ndarray, leaves: np.ndarray) -> None:
        """Build the sorted part from every store row's leaf code and
        directory position, both in store (leaf, then column) order, for
        ``column_ids`` / ``column_sizes`` already set. ``leaves`` is the
        grid's leaf level (sorted, a superset of ``codes``), which the
        index then shares."""
        new = np.empty(codes.size, dtype=bool)
        new[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=new[1:])
        new[1:] |= positions[1:] != positions[:-1]
        starts = np.flatnonzero(new)
        self.leaves, self.tail_codes = leaves, leaves[:0]
        leaf_starts = np.append(np.searchsorted(codes, leaves), codes.size)
        self.leaf_starts = leaf_starts.astype(narrowest(codes.size))
        self.leaf_posts = np.searchsorted(starts, leaf_starts).astype(narrowest(starts.size))
        self.post_bits = np.packbits(new)
        width = posting_dtype(self.column_ids.size)
        self.post_cols = positions[starts].astype(width, copy=False)
        self.column_ids = _narrowed(self.column_ids)
        self.column_sizes = _narrowed(self.column_sizes)

    def _realign(self, leaves: np.ndarray) -> None:
        """Align the per-leaf offsets with ``leaves``, a sorted superset of
        the current leaf level; the leaf array is then shared."""
        if leaves is not self.leaves:
            self.leaf_starts = _starts_after(self.leaf_starts, leaves, self.leaves)
            self.leaf_posts = _starts_after(self.leaf_posts, leaves, self.leaves)
            self.leaves = leaves

    def add_column(
        self,
        column_id: int,
        cells: Sequence[CellCode] | np.ndarray,
        first_row: int,
        leaves: np.ndarray,
    ) -> int:
        """Register a whole column whose vectors occupy ``cells`` in order;
        returns how many postings (leaves it occupies) it adds.

        ``cells[i]`` is the leaf cell code of the column's i-th vector;
        its store row is ``first_row + i``, in the tail. The column must
        come after every indexed one, in ID and in rows, so its rows go at
        the end of each tail leaf's range: one ``np.insert`` (§III-E
        append). ``leaves`` is the grid's leaf level after the column's
        cells were inserted: a sorted superset of the current leaves and
        of ``cells``.
        """
        codes = np.asarray(cells).astype(leaves.dtype, copy=False)
        if codes.ndim != 1:
            raise ValueError("cells must be a flat sequence of cell codes")
        n = codes.size
        if n == 0:
            return 0
        if self.column_ids.size and column_id <= self.column_ids[-1]:
            raise ValueError("columns must be added in ID order")
        if first_row < self._tail_end():
            raise ValueError("a column must be added after the indexed rows")
        self._realign(leaves)
        order = np.argsort(codes, kind="stable")
        if self.tail_codes.size:
            tail_codes = np.union1d(self.tail_codes, codes)
            starts = _starts_after(self.tail_starts, tail_codes, self.tail_codes)
        else:
            tail_codes = np.unique(codes)
            starts = np.zeros(tail_codes.size + 1, dtype=ROW)
        leaf_of = np.searchsorted(tail_codes, codes[order])
        self.tail_rows = np.insert(
            self.tail_rows, starts[leaf_of + 1], (first_row + order).astype(ROW)
        )
        added = np.bincount(leaf_of, minlength=tail_codes.size)
        starts[1:] += np.cumsum(added, dtype=ROW)
        self.tail_codes, self.tail_starts = tail_codes, starts
        self.tail_firsts = np.append(self.tail_firsts, ROW(first_row))
        self.column_ids = _appended(self.column_ids, column_id)
        self.column_sizes = _appended(self.column_sizes, n)
        return int(np.count_nonzero(added))

    def _tail_end(self) -> int:
        """The first store row past every indexed column's range."""
        if self.tail_firsts.size:
            return int(self.tail_firsts[-1]) + int(self.column_sizes[-1])
        return self.n_sorted

    def delete_column(self, column_id: int) -> int:
        """Remove every posting of ``column_id``; returns how many were removed.

        A sorted-part column's postings are marked dead (``post_cols``
        -1) and its rows stay where they are; a tail column's rows leave
        the tail CSR (one mask). Either way the rows are dead until a
        compaction, and a leaf with only dead rows produces no candidate.
        """
        try:
            at = self._position(column_id)
        except KeyError:
            return 0
        base = self.column_ids.size - self.tail_firsts.size
        if at < base:
            cols = self.post_cols
            dead = cols == at
            removed = int(np.count_nonzero(dead))
            # the directory shrinks, so the held type still fits
            self.post_cols = np.where(dead, -1, cols - (cols > at)).astype(cols.dtype, copy=False)
        else:
            first = int(self.tail_firsts[at - base])
            kill = (self.tail_rows >= first) & (self.tail_rows < first + int(self.column_sizes[at]))
            leaf_of = np.searchsorted(self.tail_starts, np.flatnonzero(kill), side="right") - 1
            removed = int(_run_starts(leaf_of).size)
            counts = np.bincount(leaf_of, minlength=self.tail_codes.size)
            counts = np.diff(self.tail_starts) - counts
            keep = counts > 0
            self.tail_rows = self.tail_rows[~kill]
            self.tail_codes = self.tail_codes[keep]
            starts = np.append(0, np.cumsum(counts[keep])).astype(ROW)
            # an emptied tail holds no array, not even one offset
            self.tail_starts = starts if keep.any() else _EMPTY_ROWS
            self.tail_firsts = np.delete(self.tail_firsts, at - base)
        self.column_ids = np.delete(self.column_ids, at)
        self.column_sizes = np.delete(self.column_sizes, at)
        return removed

    # -- compaction -----------------------------------------------------------------

    def compaction(self) -> tuple["InvertedIndex", np.ndarray, np.ndarray, np.ndarray]:
        """The packed layout: no dead rows, no tail, every leaf's tail rows
        appended to its range. Returns ``(packed, blocks, tail_from,
        tail_to)``: the packed index (sharing ``leaves``), the ``(from,
        to, length)`` row blocks the sorted part's live rows move by (in
        store order; they never reorder), and where each tail row goes.
        The moves are applied by the store's owner
        (:meth:`~repro.core.index.PexesoIndex._compact`).
        """
        n_sorted = self.n_sorted
        starts = np.flatnonzero(np.unpackbits(self.post_bits, count=n_sorted))
        lens = np.diff(np.append(starts, n_sorted))
        leaf = np.repeat(np.arange(self.leaves.size), np.diff(self.leaf_posts))
        live = np.flatnonzero(self.post_cols >= 0)
        t_rows, t_leaf, t_cols = self._tail_rows_by_posting()
        t_first = _run_starts(t_leaf * (self.column_ids.size + 1) + t_cols)
        t_lens = np.diff(np.append(t_first, t_rows.size))
        # sorted postings before tail ones: a stable sort by leaf keeps
        # both in column order within a leaf
        all_leaf = np.concatenate([leaf[live], t_leaf[t_first]])
        order = np.argsort(all_leaf, kind="stable")
        all_lens = np.concatenate([lens[live], t_lens])[order]
        new_starts = np.cumsum(all_lens) - all_lens
        n_live = int(all_lens.sum())

        packed = InvertedIndex()
        packed.leaves, packed.tail_codes = self.leaves, self.leaves[:0]
        leaf_posts = np.searchsorted(all_leaf[order], np.arange(self.leaves.size + 1))
        packed.leaf_posts = leaf_posts.astype(narrowest(all_leaf.size))
        packed.leaf_starts = np.append(new_starts, n_live)[leaf_posts].astype(narrowest(n_live))
        cols = np.concatenate([self.post_cols[live], t_cols[t_first]])
        packed.post_cols = cols[order].astype(posting_dtype(self.column_ids.size))
        bits = np.zeros(n_live, dtype=bool)
        bits[new_starts] = True
        packed.post_bits = np.packbits(bits)
        packed.column_ids = _narrowed(self.column_ids)
        packed.column_sizes = _narrowed(self.column_sizes)

        to = np.empty_like(new_starts)
        to[order] = new_starts
        src, dst, n = starts[live], to[: live.size], lens[live]
        # one block while the source stays contiguous and the shift holds
        joined = (src[1:] == src[:-1] + n[:-1]) & (dst[1:] - src[1:] == dst[:-1] - src[:-1])
        brk = np.flatnonzero(np.append(True, ~joined)) if src.size else live
        blocks = np.stack([src[brk], dst[brk], np.add.reduceat(n, brk) if brk.size else n], 1)
        tail_to = np.repeat(to[live.size :] - t_first, t_lens) + np.arange(t_rows.size)
        return packed, blocks, t_rows, tail_to

    def _tail_rows_by_posting(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tail's live rows in (leaf, column, row) order, with each
        row's leaf position and directory position."""
        counts = np.diff(self.tail_starts) if self.tail_codes.size else _EMPTY_ROWS
        leaf = np.repeat(np.searchsorted(self.leaves, self.tail_codes), counts)
        return self.tail_rows, leaf, self._tail_positions(self.tail_rows)

    def _tail_positions(self, rows: np.ndarray) -> np.ndarray:
        """Directory position of each (live) tail row's column."""
        base = self.column_ids.size - self.tail_firsts.size
        return base + np.searchsorted(self.tail_firsts, rows, side="right") - 1

    # -- lookups --------------------------------------------------------------------

    @property
    def n_sorted(self) -> int:
        """Rows in the sorted part of the store (dead ones included)."""
        return int(self.leaf_starts[-1])

    def _position(self, column_id: int) -> int:
        """Directory position of ``column_id`` (KeyError when absent)."""
        at = int(np.searchsorted(self.column_ids, column_id))
        if at == self.column_ids.size or self.column_ids[at] != column_id:
            raise KeyError(column_id)
        return at

    def ids(self, positions: np.ndarray) -> np.ndarray:
        """The column IDs at directory ``positions``, as int64."""
        return self.column_ids[positions].astype(np.int64)

    def column_rows(self, column_id: int) -> np.ndarray:
        """Store rows of ``column_id``, ascending (KeyError when absent):
        for the sorted part, a scan of ``post_cols`` for its postings and
        a select of their start bits in ``post_bits``."""
        at = self._position(column_id)
        base = self.column_ids.size - self.tail_firsts.size
        if at >= base:
            first = int(self.tail_firsts[at - base])
            return np.arange(first, first + int(self.column_sizes[at]), dtype=np.intp)
        posts = np.flatnonzero(self.post_cols == at)
        # a posting runs from its start bit to the next posting's
        last = self.post_cols.size - 1
        bounds = _select(self.post_bits, np.concatenate([posts, np.minimum(posts + 1, last)]))
        ends = np.where(posts == last, self.n_sorted, bounds[posts.size :])
        return _ranges(bounds[: posts.size], ends)

    def rows_by_column(self) -> list[np.ndarray]:
        """Every column's store rows, ascending, in directory order: one
        pass over the run arrays, where :meth:`column_rows` scans
        ``post_cols`` once per column."""
        n_sorted = self.n_sorted
        starts = np.flatnonzero(np.unpackbits(self.post_bits, count=n_sorted))
        ends = np.append(starts[1:], n_sorted)
        live = np.flatnonzero(self.post_cols >= 0)
        posts = live[np.argsort(self.post_cols[live], kind="stable")]
        rows = _ranges(starts[posts], ends[posts])
        n_tail = self.tail_firsts.size
        sizes = self.column_sizes[: self.column_ids.size - n_tail]
        out = np.split(rows, np.cumsum(sizes)[:-1]) if sizes.size else []
        tail = zip(self.tail_firsts.tolist(), self.column_sizes[sizes.size :].tolist())
        return out + [np.arange(first, first + size, dtype=np.intp) for first, size in tail]

    def _leaf_positions(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """``(position in cells, leaf position)`` of every cell of
        ``cells`` the sorted part holds rows of."""
        codes = _codes(cells)
        if self.leaves.size == 0:
            return np.empty(0, np.intp), np.empty(0, np.intp)
        at = np.minimum(np.searchsorted(self.leaves, codes), self.leaves.size - 1)
        held = (self.leaves[at] == codes) & (self.leaf_starts[at + 1] > self.leaf_starts[at])
        which = np.flatnonzero(held)
        return which, at[which]

    def _tail_gather(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell tail row counts, and the positions in ``tail_rows`` of
        every cell's slice, concatenated in input order."""
        codes = _codes(cells)
        if self.tail_codes.size == 0:
            return np.zeros(codes.size, dtype=np.intp), np.empty(0, dtype=np.intp)
        at = np.minimum(np.searchsorted(self.tail_codes, codes), self.tail_codes.size - 1)
        lo = self.tail_starts[at]
        counts = np.where(self.tail_codes[at] == codes, self.tail_starts[at + 1] - lo, 0)
        return counts, _ranges(lo, lo + counts)

    def _leaf_postings(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owner, position)`` of every posting of the sorted part's
        leaves ``at``, dead ones included: ``owner`` indexes ``at``,
        ``position`` is a directory position (-1 when dead)."""
        p0, p1 = self.leaf_posts[at], self.leaf_posts[at + 1]
        cols = self.post_cols[_ranges(p0, p1)].astype(np.intp)
        return np.repeat(np.arange(at.size), p1 - p0), cols

    def candidate_rows(self, cells: np.ndarray, min_view: int) -> CandidateRows:
        """The rows of the distinct, ascending ``cells`` (see
        :class:`CandidateRows`). Touching leaves form runs of store rows;
        when they average at least ``min_view`` rows they are read as
        views, else their live rows are gathered."""
        at = np.searchsorted(self.leaves, cells)
        at = at[at < self.leaves.size]  # a suffix of cells past the last leaf
        at = at[self.leaves[at] == cells[: at.size]]
        lo, hi = self.leaf_starts[at], self.leaf_starts[at + 1]
        rows = _ranges(lo, hi)
        starts = _bits_at(self.post_bits, rows)
        cols = self.post_cols[_ranges(self.leaf_posts[at], self.leaf_posts[at + 1])].astype(np.intp)
        touch = np.append(True, lo[1:] != hi[:-1])
        if at.size and rows.size >= min_view * np.count_nonzero(touch):
            first = np.flatnonzero(touch)
            views = np.stack([lo[first], hi[np.append(first[1:], at.size) - 1]], 1)
            seg_starts, seg_cols = np.flatnonzero(starts), cols
            gathered = _EMPTY_ROWS
        else:
            views = np.empty((0, 2), dtype=ROW)
            cols = cols[np.cumsum(starts) - 1]  # each row's column
            live = cols >= 0
            gathered, cols = rows[live], cols[live]
            seg_starts = _run_starts(cols)
            seg_cols = cols[seg_starts]
        if self.tail_rows.size:
            tail = np.sort(self.tail_rows[self._tail_gather(cells)[1]])
            cols = self._tail_positions(tail)
            new_col = _run_starts(cols)
            base = int((views[:, 1] - views[:, 0]).sum()) + gathered.size
            seg_starts = np.concatenate([seg_starts, base + new_col])
            seg_cols = np.concatenate([seg_cols, cols[new_col]])
            gathered = np.concatenate([gathered, tail])
        return CandidateRows(views.astype(np.intp), gathered, seg_starts, seg_cols)

    def _cell_posts(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(position in cells, directory position)`` of every live
        posting of every cell, ordered by cell then column."""
        which, at = self._leaf_positions(cells)
        owner, cols = self._leaf_postings(at)
        live = cols >= 0
        counts, positions = self._tail_gather(cells)
        t_which = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
        t_cols = self._tail_positions(self.tail_rows[positions])
        new = np.flatnonzero(np.diff(t_which, prepend=-1) | np.diff(t_cols, prepend=-1))
        # a stable sort by cell keeps sorted-part postings (lower IDs) first
        cell = np.concatenate([which[owner[live]], t_which[new]])
        order = np.argsort(cell, kind="stable")
        return cell[order], np.concatenate([cols[live], t_cols[new]])[order]

    def cell_postings(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(position, column)`` of every posting of every cell in ``cells``.

        ``position`` indexes ``cells``; unknown cells contribute nothing.
        """
        which, positions = self._cell_posts(cells)
        return which, self.ids(positions)

    def columns_in_cells_arrays(
        self, cells: Iterable[CellCode] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised postings merge over several cells.

        Returns ``(columns, rows, lens)``: ascending column IDs, their
        store rows concatenated (ascending within a column), and the
        per-column row counts: the DaaT merge of Algorithm 2.
        """
        _, at = self._leaf_positions(cells)
        rows = _ranges(self.leaf_starts[at], self.leaf_starts[at + 1])
        lens = np.diff(np.append(np.flatnonzero(_bits_at(self.post_bits, rows)), rows.size))
        cols = np.repeat(self._leaf_postings(at)[1], lens)
        live = cols >= 0
        tail = self.tail_rows[self._tail_gather(cells)[1]]
        rows = np.concatenate([rows[live], tail])
        positions = np.concatenate([cols[live], self._tail_positions(tail)])
        order = np.lexsort((rows, positions))
        rows, positions = rows[order], positions[order]
        first = _run_starts(positions)
        return self.ids(positions[first]), rows, np.diff(np.append(first, rows.size))

    def columns_in_cells(
        self, cells: Iterable[CellCode] | np.ndarray
    ) -> dict[int, list[int]]:
        """Merge postings of several cells into ``{column_id: [rows...]}``.

        The result's keys iterate in increasing column order, which is the
        document-at-a-time order of Algorithm 2 (each column plays the role
        of a document; merging the per-cell pointers up front is equivalent
        to the paper's priority queue over postings cursors).
        """
        cols, rows, lens = self.columns_in_cells_arrays(cells)
        split = np.split(rows, np.cumsum(lens)[:-1])
        return {col: part.tolist() for col, part in zip(cols.tolist(), split)}

    def postings(self, cell: CellCode) -> list[Posting]:
        """Postings list of a cell (empty list when the cell is unknown)."""
        return [Posting(c, rows) for c, rows in self.columns_in_cells([cell]).items()]

    def _occupied(self) -> np.ndarray:
        """Sorted codes of the leaves holding a live posting."""
        live = np.append(0, np.cumsum(self.post_cols >= 0))[self.leaf_posts]
        held = self.leaves[np.diff(live) > 0]
        if not self.tail_codes.size:
            return held
        return np.union1d(held, self.tail_codes)

    def __contains__(self, cell: CellCode) -> bool:
        return bool(self._cell_posts(np.asarray([cell], np.int64))[0].size)

    def cells(self) -> Iterator[CellCode]:
        """Iterate all indexed leaf cell codes (ascending)."""
        return iter(self._occupied().tolist())

    @property
    def n_cells(self) -> int:
        return int(self._occupied().size)

    @property
    def n_postings(self) -> int:
        """Number of live (leaf cell, column) postings: O(postings + tail)."""
        _, leaf, cols = self._tail_rows_by_posting()
        tail = _run_starts(leaf * (self.column_ids.size + 1) + cols).size
        return int(np.count_nonzero(self.post_cols >= 0)) + tail

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Every array the index holds but ``leaves``, the grid's."""
        return (
            self.leaf_starts, self.leaf_posts, self.post_bits, self.post_cols,
            self.column_ids, self.column_sizes, self.tail_firsts,
            self.tail_codes, self.tail_starts, self.tail_rows,
        )

    def memory_bytes(self) -> int:
        """Memory footprint for Fig. 6b: every array but ``leaves``, which
        is the grid's leaf level and counted with the grid. An empty tail
        counts nothing."""
        return sum(array.nbytes for array in self.arrays())


class ColumnRows(Mapping):
    """Read-only ``{column_id: store rows}`` view of an inverted index's
    column directory. Membership and ``len`` read the directory alone;
    a column's rows are built on access, ascending (leaf order)."""

    def __init__(self, inverted: InvertedIndex):
        self._inverted = inverted

    def __getitem__(self, column_id: int) -> np.ndarray:
        return self._inverted.column_rows(column_id)

    def __contains__(self, column_id: object) -> bool:
        try:
            self._inverted._position(column_id)
        except (KeyError, TypeError):
            return False
        return True

    def __iter__(self) -> Iterator[int]:
        return iter(self._inverted.column_ids.tolist())

    def items(self):
        """``(column_id, rows)`` of every column, built in one pass."""
        inverted = self._inverted
        return zip(inverted.column_ids.tolist(), inverted.rows_by_column())

    def values(self):
        return self._inverted.rows_by_column()

    def __len__(self) -> int:
        return int(self._inverted.column_ids.size)
