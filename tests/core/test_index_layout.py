"""The index's in-memory layout: ``memory_bytes()`` is exactly the
``.nbytes`` of the pivots, the grid levels and every ndarray the inverted
index holds (the leaf array it shares with the grid counted once), so no
bytes hide in structures Fig. 6b does not count; the runs cost one bit
per row and an empty tail nothing.
"""

import numpy as np
import pytest

from repro.core.index import PexesoIndex
from repro.core.inverted_index import posting_dtype
from repro.core.metric import normalize_rows
from repro.core.persistence import load_index, save_index


@pytest.fixture()
def built(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=3)


def held_bytes(index: PexesoIndex) -> int:
    """``.nbytes`` of the pivots, the grid levels and every ndarray the
    inverted index holds, each array object counted once."""
    grid = index.grid
    arrays = [index.pivot_space.pivots]
    arrays += [grid.level_codes(level) for level in range(grid.levels + 1)]
    arrays += [v for v in vars(index.inverted).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in {id(a): a for a in arrays}.values())


class TestMemoryBytes:
    def check(self, index: PexesoIndex) -> None:
        assert index.inverted.leaves is index.grid.leaf_codes
        assert index.memory_bytes() == held_bytes(index)

    def test_every_held_array_is_counted_once(self, built, small_columns, tmp_path):
        self.check(built)
        n_leaves = built.grid.leaf_codes.size
        built.add_column(normalize_rows(np.random.default_rng(5).normal(size=(40, 8))))
        assert built.grid.leaf_codes.size > n_leaves  # the add made new leaves
        assert built.inverted.tail_rows.size == 40
        self.check(built)
        n_rows = built.n_vectors
        for cid in (0, 1, 2, 4, 8):
            built.delete_column(cid)
            self.check(built)
        assert built.n_vectors < n_rows  # compacted
        save_index(built, tmp_path / "idx")
        for mmap in (False, True):
            loaded = load_index(tmp_path / "idx", mmap=mmap)
            self.check(loaded)
            loaded.add_column(small_columns[3].copy())
            self.check(loaded)

    def test_runs_cost_a_bit_per_row_and_an_empty_tail_nothing(self, built):
        inverted = built.inverted
        assert inverted.post_bits.nbytes == -(-built.n_vectors // 8)
        assert inverted.post_cols.dtype == posting_dtype(built.n_columns)
        assert inverted.post_cols.size == built.stats.n_postings
        for name in ("tail_firsts", "tail_codes", "tail_starts", "tail_rows"):
            assert getattr(inverted, name).nbytes == 0
        cid = built.add_column(built.vectors[:7].copy())
        assert built.inverted.tail_rows.size == 7
        built.delete_column(cid)  # the tail's only column
        assert all(
            getattr(built.inverted, name).nbytes == 0
            for name in ("tail_firsts", "tail_codes", "tail_starts", "tail_rows")
        )
