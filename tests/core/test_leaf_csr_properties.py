"""The leaf-ordered store and its runs against the seed's posting lists.

Seeded sequences of ``fit``, ``add_column``, ``delete_column`` (whose
dead rows trigger compactions), explicit compactions and save /
mmap-load round trips run on a :class:`PexesoIndex` and, in step, on
``tests/core/reference.py``'s ``insort``-based
:class:`ReferenceInvertedIndex`. Lakes start at 8 columns or, in a lane
of their own, near 128, where ``post_cols`` widens from int8 to int16.
After every step:

* the store's sorted part is in leaf order: every row lies in the leaf
  whose range holds it;
* every (leaf, column) run holds exactly the vectors of the reference's
  posting list, in its order (the reference's rows are the column's
  input rows, so they are compared through the vectors);
* the postings views (``postings``, ``columns_in_cells_arrays``,
  ``cell_postings``, ``n_cells``, ``n_postings``) agree with each other
  and with the reference;
* ``post_cols`` is wide enough for the sorted part's columns, and
  exactly as wide as the directory needs after a compaction;
* ``memory_bytes()`` is the ``.nbytes`` of the arrays it counts;
* hits equal ``naive_search`` over the live columns.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.inverted_index import posting_dtype
from repro.core.metric import normalize_rows
from repro.core.persistence import load_index, save_index
from reference import ReferenceInvertedIndex

DIM = 5
TAU, T = 0.9, 0.3


def by_value(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order."""
    return rows[np.lexsort(rows.T[::-1])]


def _column(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    return normalize_rows(rng.normal(size=(n_rows, DIM)))


class Run:
    """One index and its reference, mutated in step."""

    def __init__(self, seed: int, workdir: Path, n_columns: int = 8):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        # many columns are short, so that the lake stays small
        rows = 10 if n_columns <= 8 else 4
        columns = [_column(self.rng, int(self.rng.integers(1, rows))) for _ in range(n_columns)]
        self.index = PexesoIndex.build(columns, n_pivots=3, levels=3, seed=seed % 97)
        self.reference = ReferenceInvertedIndex()
        #: live columns: id -> (vectors, first reference row)
        self.live: dict[int, tuple[np.ndarray, int]] = {}
        self.next_first = 0
        for cid, column in enumerate(columns):
            self._track(cid, column)
        #: which of the interesting situations this run has met
        self.seen: set[str] = set()
        self.mmapped = False

    def _codes(self, vectors: np.ndarray) -> np.ndarray:
        index = self.index
        return index.grid.leaf_codes_for(index.pivot_space.map_vectors(vectors))

    def _track(self, cid: int, vectors: np.ndarray) -> None:
        self.reference.add_column(cid, self._codes(vectors).tolist(), self.next_first)
        self.live[cid] = (vectors, self.next_first)
        self.next_first += vectors.shape[0]

    def add(self, n_rows: int) -> None:
        vectors = _column(self.rng, n_rows)
        n_leaves = self.index.grid.leaf_codes.size
        cid = self.index.add_column(vectors)
        self._track(cid, vectors)
        if self.index.grid.leaf_codes.size > n_leaves:
            self.seen.add("new leaf")

    def delete(self, selector: int) -> None:
        if len(self.live) <= 1:
            return
        cid = sorted(self.live)[selector % len(self.live)]
        n_rows = self.index.n_vectors
        self.index.delete_column(cid)
        assert self.reference.delete_column(cid) >= 1
        del self.live[cid]
        if self.index.n_vectors < n_rows:
            self.seen.add("compaction")
        if self.index.inverted.n_cells < self.index.grid.leaf_codes.size:
            self.seen.add("emptied leaf")

    def compact(self) -> None:
        if self.index.inverted.tail_firsts.size:
            self.seen.add("tail merged")
        self.index._compact()
        assert self.index.inverted.post_cols.dtype == posting_dtype(self.index.n_columns)

    def roundtrip(self) -> None:
        if self.mmapped:
            self.seen.add("mmapped epoch written")
        directory = self.workdir / "idx"
        save_index(self.index, directory)
        self.index = load_index(directory, mmap=True)
        assert isinstance(self.index.inverted.post_cols, np.memmap)
        self.mmapped = True

    # -- the comparison ----------------------------------------------------------

    def expected_vectors(self) -> dict[int, list[tuple[int, np.ndarray]]]:
        """The reference's lists, each posting's rows as the vectors they
        name (a reference row is ``first + offset`` into its column)."""
        return {
            cell: [
                (cid, self.live[cid][0][np.asarray(rows) - self.live[cid][1]])
                for cid, rows in postings
            ]
            for cell, postings in self.reference.postings_by_cell().items()
        }

    def check(self) -> None:
        index, inverted = self.index, self.index.inverted
        vectors = index.vectors
        assert sorted(index.column_rows) == sorted(self.live)
        for cid, (column, _) in self.live.items():
            got = vectors[index.column_rows[cid]]  # grouped by leaf
            np.testing.assert_array_equal(by_value(got), by_value(column))

        # the sorted part is in leaf order
        n_sorted = inverted.n_sorted
        want_codes = np.repeat(inverted.leaves, np.diff(inverted.leaf_starts))
        np.testing.assert_array_equal(self._codes(vectors[:n_sorted]), want_codes)

        # every (leaf, column) run holds the reference posting's vectors
        expected = self.expected_vectors()
        codes = index.grid.leaf_codes.tolist()
        absent = [code for code in range(-1, 600) if code not in set(codes)][:5]
        probe = self.rng.permutation(codes + absent).tolist()
        for cell in probe:
            got = inverted.postings(cell)
            want = expected.get(cell, [])
            assert [p.column_id for p in got] == [cid for cid, _ in want]
            for posting, (_, rows) in zip(got, want):
                np.testing.assert_array_equal(vectors[posting.rows], rows)

        assert inverted.n_cells == self.reference.n_cells == len(expected)
        assert inverted.n_postings == self.reference.n_postings
        assert index.stats.n_postings == inverted.n_postings
        assert index.stats.n_leaf_cells == inverted.n_cells
        assert inverted.leaves is index.grid.leaf_codes

        # post_cols holds every sorted-part position
        fit = posting_dtype(inverted.column_ids.size - inverted.tail_firsts.size)
        assert np.can_cast(fit, inverted.post_cols.dtype)

        # the merged views agree with the per-cell postings
        for cells in (probe, probe[: len(probe) // 3], []):
            merged: dict[int, list[int]] = {}
            for cell in cells:
                for posting in inverted.postings(cell):
                    merged.setdefault(posting.column_id, []).extend(posting.rows)
            cols, rows, lens = inverted.columns_in_cells_arrays(np.asarray(cells, np.int64))
            assert cols.tolist() == sorted(merged)
            assert lens.tolist() == [len(merged[c]) for c in sorted(merged)]
            assert rows.tolist() == [r for c in sorted(merged) for r in sorted(merged[c])]
        repeated = probe + probe[:4]
        which, cols = inverted.cell_postings(np.asarray(repeated, dtype=np.int64))
        want = [(i, cid) for i, cell in enumerate(repeated) for cid, _ in expected.get(cell, [])]
        assert list(zip(which.tolist(), cols.tolist())) == want

        # memory_bytes() is the arrays it counts (the grid stores its
        # leaf codes alone)
        grid = index.grid
        counted = [index.pivot_space.pivots, grid.leaf_codes, *inverted.arrays()]
        assert index.memory_bytes() == sum(a.nbytes for a in counted)

        # hits equal the exhaustive scan
        ids = sorted(self.live)
        query = self.live[ids[int(self.rng.integers(len(ids)))]][0]
        got = sorted((h.column_id, h.match_count) for h in index.search(query, TAU, T).joinable)
        exact = naive_search([self.live[c][0] for c in ids], query, TAU, T)
        assert got == sorted((ids[h.column_id], h.match_count) for h in exact.joinable)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 12)),
        st.tuples(st.just("delete"), st.integers(0, 1000)),
        st.tuples(st.just("compact"), st.just(0)),
        st.tuples(st.just("roundtrip"), st.just(0)),
    ),
    max_size=14,
)


def run(seed: int, ops, n_columns: int = 8) -> set[str]:
    with tempfile.TemporaryDirectory() as workdir:
        state = Run(seed, Path(workdir), n_columns)
        state.check()
        for op, arg in ops:
            if op == "add":
                state.add(arg)
            elif op == "delete":
                state.delete(arg)
            elif op == "compact":
                state.compact()
            else:
                state.roundtrip()
            state.check()
        return state.seen


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), ops=OPS)
def test_postings_views_equal_the_reference(seed, ops):
    run(seed, ops)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), ops=OPS, n_columns=st.integers(122, 134))
def test_lakes_near_128_columns_equal_the_reference(seed, ops, n_columns):
    """Adds and deletes take these lakes across 128 columns, where a
    compaction widens ``post_cols`` to int16 or narrows it to int8."""
    run(seed, ops, n_columns)


def test_a_fixed_sequence_meets_every_situation():
    """Emptied leaves, new leaves, compactions (by deletes and by hand,
    merging a tail) and a written mmapped epoch all occur (and check
    out) in one pinned sequence."""
    ops = [
        ("roundtrip", 0), ("add", 9), ("delete", 0), ("delete", 3), ("add", 4),
        ("compact", 0), ("delete", 1), ("roundtrip", 0), ("add", 6), ("delete", 2),
        ("roundtrip", 0),
    ]
    assert run(7, ops) == {
        "new leaf", "compaction", "emptied leaf", "mmapped epoch written", "tail merged"
    }
