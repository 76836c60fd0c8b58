"""The leaf -> row CSR against the seed's per-cell posting lists.

Seeded sequences of ``fit``, ``add_column``, ``delete_column`` (whose
dead rows trigger compactions) and save / mmap-load round trips run on
a :class:`PexesoIndex` and, in step, on ``tests/core/reference.py``'s
``insort``-based :class:`ReferenceInvertedIndex`. After every step the
index's postings views (``postings``, ``columns_in_cells_arrays``,
``cell_postings``, ``n_cells``, ``n_postings``) must equal the
reference's lists. The reference never renumbers, so its rows are
translated by each column's move (current first row minus the one it was
added at); the layout those first rows describe is checked on its own
(contiguous columns in ID order holding the column's vectors).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.persistence import load_index, save_index
from reference import ReferenceInvertedIndex

DIM = 5


def _column(rng: np.random.Generator, n_rows: int) -> np.ndarray:
    return normalize_rows(rng.normal(size=(n_rows, DIM)))


class Run:
    """One index and its reference, mutated in step."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        columns = [_column(self.rng, int(self.rng.integers(1, 10))) for _ in range(8)]
        self.index = PexesoIndex.build(columns, n_pivots=3, levels=3, seed=seed % 97)
        self.reference = ReferenceInvertedIndex()
        #: live columns: id -> (vectors, first row when added)
        self.live: dict[int, tuple[np.ndarray, int]] = {}
        first = 0
        for cid, column in enumerate(columns):
            self._track(cid, column, first)
            first += column.shape[0]
        #: which of the interesting situations this run has met
        self.seen: set[str] = set()
        self.mmapped = False

    def _codes(self, vectors: np.ndarray) -> list[int]:
        index = self.index
        return index.grid.leaf_codes_for(index.pivot_space.map_vectors(vectors)).tolist()

    def _track(self, cid: int, vectors: np.ndarray, first: int) -> None:
        self.reference.add_column(cid, self._codes(vectors), first)
        self.live[cid] = (vectors, first)

    def add(self, n_rows: int) -> None:
        vectors = _column(self.rng, n_rows)
        n_leaves = self.index.grid.leaf_codes.size
        cid = self.index.add_column(vectors)
        first = int(self.index.column_rows[cid][0])
        assert first == self.index.n_vectors - n_rows  # appended last
        self._track(cid, vectors, first)
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
        if (np.diff(self.index.inverted.leaf_starts) == 0).any():
            self.seen.add("emptied leaf")

    def roundtrip(self) -> None:
        if self.mmapped:
            self.seen.add("mmapped epoch written")
        directory = self.workdir / "idx"
        save_index(self.index, directory)
        self.index = load_index(directory, mmap=True)
        assert isinstance(self.index.inverted.rows, np.memmap)
        self.mmapped = True

    # -- the comparison ----------------------------------------------------------

    def expected_postings(self) -> dict[int, list[tuple[int, list[int]]]]:
        """The reference's lists, rows translated to the current layout."""
        column_rows = self.index.column_rows
        move = {
            cid: int(column_rows[cid][0]) - first for cid, (_, first) in self.live.items()
        }
        return {
            cell: [(cid, [row + move[cid] for row in rows]) for cid, rows in postings]
            for cell, postings in self.reference.postings_by_cell().items()
        }

    def check(self) -> None:
        index, inverted = self.index, self.index.inverted
        # the layout: contiguous columns in ID order, holding their vectors
        assert sorted(index.column_rows) == sorted(self.live)
        end = 0
        for cid in sorted(self.live):
            rows = index.column_rows[cid]
            assert rows[0] >= end
            end = int(rows[-1]) + 1
            np.testing.assert_array_equal(index.vectors[rows], self.live[cid][0])
        assert end <= index.n_vectors

        expected = self.expected_postings()
        assert inverted.n_cells == self.reference.n_cells == len(expected)
        assert inverted.n_postings == self.reference.n_postings
        assert index.stats.n_postings == inverted.n_postings
        assert index.stats.n_leaf_cells == inverted.n_cells
        assert inverted.leaves is index.grid.leaf_codes

        leaves = index.grid.leaf_codes.tolist()
        absent = [code for code in range(-1, 600) if code not in set(leaves)][:5]
        probe = self.rng.permutation(leaves + absent).tolist()
        for cell in probe:
            got = [(p.column_id, p.rows) for p in inverted.postings(cell)]
            assert got == expected.get(cell, [])

        for cells in (probe, probe[: len(probe) // 3], []):
            merged: dict[int, list[int]] = {}
            for cell in cells:
                for cid, rows in expected.get(cell, []):
                    merged.setdefault(cid, []).extend(rows)
            cols, rows, lens = inverted.columns_in_cells_arrays(
                np.asarray(cells, dtype=np.int64)
            )
            assert cols.tolist() == sorted(merged)
            assert lens.tolist() == [len(merged[c]) for c in sorted(merged)]
            assert rows.tolist() == [r for c in sorted(merged) for r in sorted(merged[c])]

        repeated = probe + probe[:4]
        which, cols = inverted.cell_postings(np.asarray(repeated, dtype=np.int64))
        want = [
            (i, cid) for i, cell in enumerate(repeated) for cid, _ in expected.get(cell, [])
        ]
        assert list(zip(which.tolist(), cols.tolist())) == want


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 12)),
        st.tuples(st.just("delete"), st.integers(0, 1000)),
        st.tuples(st.just("roundtrip"), st.just(0)),
    ),
    max_size=14,
)


def run(seed: int, ops) -> set[str]:
    with tempfile.TemporaryDirectory() as workdir:
        state = Run(seed, Path(workdir))
        state.check()
        for op, arg in ops:
            if op == "add":
                state.add(arg)
            elif op == "delete":
                state.delete(arg)
            else:
                state.roundtrip()
            state.check()
        return state.seen


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), ops=OPS)
def test_postings_views_equal_the_reference(seed, ops):
    run(seed, ops)


def test_a_fixed_sequence_meets_every_situation():
    """Emptied leaves, new leaves, compactions and a written mmapped
    epoch all occur (and check out) in one pinned sequence."""
    ops = [
        ("roundtrip", 0), ("add", 9), ("delete", 0), ("delete", 3), ("add", 4),
        ("delete", 1), ("roundtrip", 0), ("add", 6), ("delete", 2), ("roundtrip", 0),
    ]
    assert run(7, ops) == {"new leaf", "compaction", "emptied leaf", "mmapped epoch written"}
