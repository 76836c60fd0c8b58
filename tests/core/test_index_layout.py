"""The index's in-memory and on-disk layout: format-3 epochs and bytes.

* A format-3 epoch (int64 ``inv_codes`` / ``inv_cols`` / ``inv_starts``
  / ``inv_rows`` posting entries) loads eagerly and mmapped into the
  same leaf -> row CSR a format-4 epoch holds, answers like a fresh
  build, and the next commit writes only the format-4 layout; in a lake,
  shards of both formats mix.
* ``memory_bytes()`` is exactly the ``.nbytes`` of the pivots, the grid
  levels and every ndarray the inverted index holds (the leaf array it
  shares with the grid counted once), so no bytes hide in structures
  Fig. 6b does not count.
"""

import json

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import (
    FORMAT_VERSION,
    load_index,
    load_partitioned,
    save_index,
)
from repro.core.search import pexeso_search

TAU = 0.8
T = 0.3
LEGACY = ("inv_codes", "inv_cols", "inv_starts")
INVERTED = ("leaf_starts", "rows", "column_ids", "column_firsts", "column_sizes")


def hits(result):
    return sorted((h.column_id, h.match_count) for h in result.joinable)


@pytest.fixture()
def built(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=3)


def assert_same_inverted(got, want):
    np.testing.assert_array_equal(got.leaves, want.leaves)
    for name in INVERTED:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert getattr(got, name).dtype == getattr(want, name).dtype


class TestFormat3Epochs:
    def test_loads_like_a_fresh_build_then_writes_format_4(
        self, built, small_columns, small_query, tmp_path, write_v3
    ):
        target = write_v3(built, tmp_path / "idx")
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        epoch = target / manifest["arrays_dir"]
        assert np.load(epoch / "inv_rows.npy").dtype == np.int64
        assert not (epoch / "inv_leaf_starts.npy").exists()

        want = hits(pexeso_search(built, small_query, TAU, T))
        assert want == hits(naive_search(small_columns, small_query, TAU, T))
        for mmap in (False, True):
            loaded = load_index(target, mmap=mmap)
            assert_same_inverted(loaded.inverted, built.inverted)
            assert loaded.stats.n_postings == built.stats.n_postings
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == want

        save_index(load_index(target), target)
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 4
        epoch = target / manifest["arrays_dir"]
        assert (epoch / "inv_leaf_starts.npy").exists()
        assert np.load(epoch / "inv_rows.npy").dtype == np.int32
        for name in LEGACY:
            assert not list(target.rglob(f"{name}.npy"))
        again = load_index(target, mmap=True)
        assert isinstance(again.inverted.rows, np.memmap)
        assert_same_inverted(again.inverted, built.inverted)

    def test_dead_rows_and_maintenance_after_a_format_3_load(
        self, built, small_columns, small_query, tmp_path, write_v3
    ):
        extra = small_query[:5].copy()
        built.add_column(extra)
        built.delete_column(3)  # dead rows: the save packs them away
        target = write_v3(built, tmp_path / "idx")
        ids = [i for i in range(len(small_columns) + 2) if i not in (3, 5)]
        live = [c for i, c in enumerate(small_columns) if i not in (3, 5)]
        live += [extra, small_columns[0]]
        want = sorted(
            (ids[c], n) for c, n in hits(naive_search(live, small_query, TAU, T))
        )
        assert want
        for mmap in (False, True):
            loaded = load_index(target, mmap=mmap)
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == hits(
                pexeso_search(built, small_query, TAU, T)
            )
            assert loaded.add_column(small_columns[0].copy()) == len(small_columns) + 1
            loaded.delete_column(5)
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == want

    def test_lake_shards_of_both_formats_mix(
        self, small_columns, small_query, tmp_path, epoch_to_v3
    ):
        target = tmp_path / "lake"
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=target
        ).fit(small_columns)
        shards = json.loads((target / "partitioned.json").read_text())["partitions"]
        for entry in shards.values():
            epoch_to_v3(target / entry["dir"] / entry["arrays_dir"])
        want = hits(naive_search(small_columns, small_query, TAU, T))
        for mmap in (True, False):
            assert hits(load_partitioned(target, mmap=mmap).search(small_query, TAU, T)) == want

        # one add rewrites one shard: format-3 and format-4 epochs side by side
        loaded = load_partitioned(target)
        extra = small_query[:6].copy()
        assert loaded.add_column(extra) == len(small_columns)
        assert len(list(target.rglob("inv_leaf_starts.npy"))) == 1
        assert len(list(target.rglob("inv_codes.npy"))) == len(shards) - 1
        want = hits(naive_search(small_columns + [extra], small_query, TAU, T))
        assert hits(loaded.search(small_query, TAU, T)) == want
        assert hits(load_partitioned(target).search(small_query, TAU, T)) == want


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

    def test_format_3_load_is_counted_the_same(self, built, tmp_path, write_v3):
        loaded = load_index(write_v3(built, tmp_path / "idx"))
        self.check(loaded)
        assert loaded.memory_bytes() == built.memory_bytes()

    def test_rows_are_four_bytes(self, built):
        inverted = built.inverted
        assert inverted.rows.dtype == np.int32
        assert inverted.rows.nbytes == 4 * built.n_vectors
