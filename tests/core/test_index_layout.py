"""The index's in-memory and on-disk layout: legacy epochs and bytes.

* A format-3 epoch (int64 ``inv_codes`` / ``inv_cols`` / ``inv_starts``
  / ``inv_rows`` posting entries) and a format-4 one (the store in
  column order, an int32 leaf -> row CSR) load eagerly and mmapped into
  the same leaf-ordered store and runs a format-5 epoch holds, answer
  like a fresh build, count as converted loads, and the next commit
  writes only the format-5 layout; in a lake, shards of every format mix.
* ``memory_bytes()`` is exactly the ``.nbytes`` of the pivots, the grid
  levels and every ndarray the inverted index holds (the leaf array it
  shares with the grid counted once), so no bytes hide in structures
  Fig. 6b does not count; the runs cost one bit per row and an empty
  tail nothing.
"""

import json

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core import persistence
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
from repro.serve.service import QueryService

TAU = 0.8
T = 0.3
LEGACY = ("inv_codes", "inv_cols", "inv_starts", "inv_rows", "column_first_rows")
INVERTED = (
    "leaf_starts", "leaf_posts", "post_bits", "post_cols", "column_ids", "column_sizes",
    "tail_firsts", "tail_codes", "tail_starts", "tail_rows",
)


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
    def test_loads_like_a_fresh_build_then_writes_the_current_format(
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
            np.testing.assert_array_equal(loaded.vectors, built.vectors)
            assert loaded.stats.n_postings == built.stats.n_postings
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == want

        save_index(load_index(target), target)
        assert_current_format(target, built)

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

        # one add rewrites one shard: format-3 and format-5 epochs side by side
        loaded = load_partitioned(target)
        extra = small_query[:6].copy()
        assert loaded.add_column(extra) == len(small_columns)
        assert len(list(target.rglob("inv_post_bits.npy"))) == 1
        assert len(list(target.rglob("inv_codes.npy"))) == len(shards) - 1
        want = hits(naive_search(small_columns + [extra], small_query, TAU, T))
        assert hits(loaded.search(small_query, TAU, T)) == want
        assert hits(load_partitioned(target).search(small_query, TAU, T)) == want


class TestFormat4Epochs:
    def test_loads_like_a_fresh_build_and_counts_the_conversion(
        self, built, small_columns, small_query, tmp_path, write_v4
    ):
        target = write_v4(built, tmp_path / "idx")
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["format_version"] == 4
        epoch = target / manifest["arrays_dir"]
        assert np.load(epoch / "inv_rows.npy").dtype == np.int32
        assert not (epoch / "inv_post_bits.npy").exists()

        want = hits(naive_search(small_columns, small_query, TAU, T))
        for mmap in (False, True):
            before = persistence.CONVERTED_LOADS.count
            loaded = load_index(target, mmap=mmap)
            assert persistence.CONVERTED_LOADS.count == before + 1
            assert loaded.stats.converted_loads == 1
            # /stats reports the process's count
            described = QueryService(loaded, window_ms=None).describe()
            assert described["converted_loads"] == persistence.CONVERTED_LOADS.count
            assert_same_inverted(loaded.inverted, built.inverted)
            np.testing.assert_array_equal(loaded.vectors, built.vectors)
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == want

        save_index(load_index(target), target)
        assert_current_format(target, built)
        before = persistence.CONVERTED_LOADS.count
        assert load_index(target).stats.converted_loads == 0
        assert persistence.CONVERTED_LOADS.count == before

    def test_maintenance_after_a_format_4_load(
        self, built, small_columns, small_query, tmp_path, write_v4
    ):
        extra = small_query[:5].copy()
        built.add_column(extra)  # a tail the save merges
        built.delete_column(3)  # dead rows the save drops
        target = write_v4(built, tmp_path / "idx")
        for mmap in (False, True):
            loaded = load_index(target, mmap=mmap)
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == hits(
                pexeso_search(built, small_query, TAU, T)
            )
            assert loaded.add_column(small_columns[0].copy()) == len(small_columns) + 1
            loaded.delete_column(5)
            ids = [i for i in range(len(small_columns) + 2) if i not in (3, 5)]
            live = [c for i, c in enumerate(small_columns) if i not in (3, 5)]
            live += [extra, small_columns[0]]
            want = sorted(
                (ids[c], n) for c, n in hits(naive_search(live, small_query, TAU, T))
            )
            assert hits(pexeso_search(loaded, small_query, TAU, T)) == want

    def test_lake_shards_of_every_format_mix(
        self, small_columns, small_query, tmp_path, epoch_to_v3, epoch_to_v4
    ):
        target = tmp_path / "lake"
        PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=target
        ).fit(small_columns)
        shards = json.loads((target / "partitioned.json").read_text())["partitions"]
        entries = [shards[p] for p in sorted(shards)]
        epoch_to_v3(target / entries[0]["dir"] / entries[0]["arrays_dir"])
        epoch_to_v4(target / entries[1]["dir"] / entries[1]["arrays_dir"])
        want = hits(naive_search(small_columns, small_query, TAU, T))
        for mmap in (True, False):
            before = persistence.CONVERTED_LOADS.count
            lake = load_partitioned(target, mmap=mmap)
            assert hits(lake.search(small_query, TAU, T)) == want
            assert persistence.CONVERTED_LOADS.count >= before + 2


def assert_current_format(target, built) -> None:
    """``target`` holds one format-5 epoch equal to ``built``, mmapped."""
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["format_version"] == FORMAT_VERSION == 5
    epoch = target / manifest["arrays_dir"]
    assert (epoch / "inv_post_bits.npy").exists()
    for name in LEGACY:
        assert not list(target.rglob(f"{name}.npy"))
    again = load_index(target, mmap=True)
    for array in (again.vectors, again.inverted.post_bits, again.inverted.post_cols):
        assert isinstance(array, np.memmap) and not array.flags.writeable
    assert_same_inverted(again.inverted, built.inverted)
    np.testing.assert_array_equal(again.vectors, built.vectors)


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

    def test_format_3_load_is_counted_the_same(self, built, tmp_path, write_v3):
        loaded = load_index(write_v3(built, tmp_path / "idx"))
        self.check(loaded)
        assert loaded.memory_bytes() == built.memory_bytes()

    def test_runs_cost_a_bit_per_row_and_an_empty_tail_nothing(self, built):
        inverted = built.inverted
        assert inverted.post_bits.nbytes == -(-built.n_vectors // 8)
        assert inverted.post_cols.dtype == np.int32
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
