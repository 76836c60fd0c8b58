"""Tests for index save/load."""

import json

import numpy as np
import pytest

from repro.baselines.exact_naive import naive_search
from repro.core.index import PexesoIndex
from repro.core.inverted_index import posting_dtype
from repro.core.metric import ManhattanMetric, normalize_rows
from repro.core.persistence import FORMAT_VERSION, load_index, save_index
from repro.core.search import pexeso_search


@pytest.fixture()
def built(small_columns):
    return PexesoIndex.build(small_columns, n_pivots=3, levels=3)


class TestRoundtrip:
    def test_identical_search_results(self, built, small_columns, small_query, tmp_path):
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        for tau in (0.3, 0.9):
            assert (
                pexeso_search(loaded, small_query, tau, 0.3).column_ids
                == pexeso_search(built, small_query, tau, 0.3).column_ids
            )

    def test_vectors_preserved(self, built, tmp_path):
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        np.testing.assert_allclose(loaded.vectors, built.vectors)
        np.testing.assert_allclose(loaded.mapped, built.mapped)

    def test_metadata_preserved(self, built, tmp_path):
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.n_pivots == built.n_pivots
        assert loaded.levels == built.levels
        assert loaded.n_columns == built.n_columns
        assert loaded.metric.name == built.metric.name

    def test_loaded_index_supports_append(self, built, small_columns, tmp_path):
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        new_id = loaded.add_column(small_columns[0][:4].copy())
        result = pexeso_search(loaded, small_columns[0][:4], 1e-6, 1.0)
        assert new_id in result.column_ids

    def test_non_default_metric(self, small_columns, small_query, tmp_path):
        index = PexesoIndex.build(
            small_columns, metric=ManhattanMetric(), n_pivots=2, levels=2
        )
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert isinstance(loaded.metric, ManhattanMetric)
        assert (
            pexeso_search(loaded, small_query, 0.5, 0.3).column_ids
            == pexeso_search(index, small_query, 0.5, 0.3).column_ids
        )


class TestMaintenanceAfterReload:
    """Save -> load -> append -> delete -> search must equal a never-persisted index."""

    def test_roundtrip_then_maintenance_matches_in_memory(
        self, small_columns, small_query, tmp_path
    ):
        kept = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        save_index(kept, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")

        extra = small_columns[1][:5].copy()
        kept_id = kept.add_column(extra)
        loaded_id = loaded.add_column(extra)
        assert kept_id == loaded_id
        kept.delete_column(0)
        loaded.delete_column(0)

        for tau in (0.2, 0.6, 1.1):
            kept_result = pexeso_search(kept, small_query, tau, 0.3)
            loaded_result = pexeso_search(loaded, small_query, tau, 0.3)
            assert kept_result.column_ids == loaded_result.column_ids
            assert [h.match_count for h in kept_result.joinable] == [
                h.match_count for h in loaded_result.joinable
            ]
        assert 0 not in pexeso_search(loaded, small_query, 1.5, 0.1).column_ids

    def test_second_roundtrip_after_maintenance(self, small_columns, small_query, tmp_path):
        index = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        save_index(index, tmp_path / "a")
        loaded = load_index(tmp_path / "a")
        loaded.add_column(small_columns[0][:6].copy())
        loaded.delete_column(1)
        save_index(loaded, tmp_path / "b")
        again = load_index(tmp_path / "b")
        for tau in (0.4, 0.9):
            assert (
                pexeso_search(again, small_query, tau, 0.3).column_ids
                == pexeso_search(loaded, small_query, tau, 0.3).column_ids
            )
        assert again.stats.n_leaf_cells == loaded.inverted.n_cells
        assert again.stats.n_postings == loaded.inverted.n_postings

    def test_delete_column_refreshes_stats(self, small_columns):
        index = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        before_cells = index.stats.n_leaf_cells
        before_postings = index.stats.n_postings
        index.delete_column(0)
        assert index.stats.n_leaf_cells == index.inverted.n_cells
        assert index.stats.n_postings == index.inverted.n_postings
        assert index.stats.n_postings < before_postings
        assert index.stats.n_leaf_cells <= before_cells


class TestValidation:
    def test_unbuilt_index_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_index(PexesoIndex(), tmp_path / "idx")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nope")

    def test_version_mismatch(self, built, tmp_path):
        save_index(built, tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (tmp_path / "idx" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_index(tmp_path / "idx")


class TestPartitionedPersistence:
    """Lake-level save/load of the sharded layout."""

    @pytest.fixture()
    def lake(self, small_columns):
        from repro.core.out_of_core import PartitionedPexeso

        return PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3, seed=5).fit(
            small_columns
        )

    def test_roundtrip_identical_results(self, lake, small_query, tmp_path):
        from repro.core.persistence import load_partitioned, save_partitioned

        save_partitioned(lake, tmp_path / "lake")
        loaded = load_partitioned(tmp_path / "lake")
        assert (
            loaded.search(small_query, 0.8, 0.3).column_ids
            == lake.search(small_query, 0.8, 0.3).column_ids
        )
        assert loaded.topk(small_query, 0.8, 5).hits == lake.topk(small_query, 0.8, 5).hits
        assert loaded.n_columns == lake.n_columns
        assert loaded.partition_columns == lake.partition_columns

    def test_spilled_in_place_reuses_partitions(self, small_columns, small_query, tmp_path):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned, save_partitioned

        target = tmp_path / "lake"
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=target
        ).fit(small_columns)
        save_partitioned(lake, target)
        loaded = load_partitioned(target)
        assert (
            loaded.search(small_query, 0.8, 0.3).column_ids
            == lake.search(small_query, 0.8, 0.3).column_ids
        )

    def test_load_any_dispatches(self, built, lake, tmp_path):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_any, save_partitioned

        save_index(built, tmp_path / "single")
        save_partitioned(lake, tmp_path / "sharded")
        assert isinstance(load_any(tmp_path / "single"), PexesoIndex)
        assert isinstance(load_any(tmp_path / "sharded"), PartitionedPexeso)
        with pytest.raises(FileNotFoundError):
            load_any(tmp_path / "nothing")

    def test_unfitted_lake_rejected(self, tmp_path):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import save_partitioned

        with pytest.raises(RuntimeError):
            save_partitioned(PartitionedPexeso(), tmp_path / "lake")

    def test_version_mismatch(self, lake, tmp_path):
        from repro.core.persistence import (
            PARTITIONED_FORMAT_VERSION,
            load_partitioned,
            save_partitioned,
        )

        save_partitioned(lake, tmp_path / "lake")
        manifest_path = tmp_path / "lake" / "partitioned.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = PARTITIONED_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_partitioned(tmp_path / "lake")

    def test_lazy_loading(self, lake, small_query, tmp_path):
        from repro.core.persistence import load_partitioned, save_partitioned

        save_partitioned(lake, tmp_path / "lake")
        loaded = load_partitioned(tmp_path / "lake")
        assert loaded.memory_bytes() == 0  # nothing resident until queried
        loaded.search(small_query, 0.8, 0.3)
        assert loaded.memory_bytes() > 0

    def test_resident_lake_with_unloadable_metric_rejected(
        self, small_columns, tmp_path
    ):
        from repro.core.metric import EuclideanMetric
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import save_partitioned

        class UnregisteredMetric(EuclideanMetric):
            name = "unregistered-save-test"

        lake = PartitionedPexeso(
            metric=UnregisteredMetric(), n_pivots=2, levels=2, n_partitions=2
        ).fit(small_columns)
        # Saving would write a metric name load_partitioned cannot
        # resolve; refuse rather than produce an unloadable lake.
        with pytest.raises(ValueError, match="registry name"):
            save_partitioned(lake, tmp_path / "lake")


class TestV3Format:
    """The mmap-able raw-.npy epoch layout (format 3, and 4 since the
    inverted index became one leaf -> row CSR)."""

    def test_v3_layout_on_disk(self, built, tmp_path):
        save_index(built, tmp_path / "idx")
        manifest = json.loads((tmp_path / "idx" / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 5
        arrays_dir = tmp_path / "idx" / manifest["arrays_dir"]
        assert sorted(path.name for path in arrays_dir.iterdir()) == [
            "columns.npy", "grid_leaf_codes.npy", "inv_leaf_offsets.npy",
            "inv_post_bits.npy", "inv_post_cols.npy", "pivots.npy", "vectors.npy",
        ]
        assert np.load(arrays_dir / "inv_post_bits.npy").dtype == np.uint8
        # the narrowest signed type holding -1 through the last position
        assert np.load(arrays_dir / "inv_post_cols.npy").dtype == posting_dtype(built.n_columns)
        assert not (tmp_path / "idx" / "index.npz").exists()

    def test_mmap_load_is_zero_copy(self, built, tmp_path):
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", mmap=True)
        inverted = loaded.inverted
        # the store and the run arrays are mapped, read-only
        mapped = (
            loaded.vectors, inverted.post_bits, inverted.post_cols,
            inverted.leaf_posts, inverted.leaf_starts,
        )
        for array in mapped:
            assert isinstance(array, np.memmap)
            assert not array.flags.writeable
        # the small ones are read eagerly, as plain writable arrays
        small = [
            loaded.pivot_space.pivots,
            loaded.grid.leaf_codes,
            inverted.column_ids,
            inverted.column_sizes,
        ]
        for array in small:
            assert type(array) is np.ndarray
            assert array.flags.writeable

    def test_eager_load_matches_mmap(self, built, small_query, tmp_path):
        save_index(built, tmp_path / "idx")
        eager = load_index(tmp_path / "idx", mmap=False)
        mapped = load_index(tmp_path / "idx", mmap=True)
        assert not isinstance(eager.vectors, np.memmap)
        for tau in (0.3, 0.9):
            assert (
                pexeso_search(eager, small_query, tau, 0.3).column_ids
                == pexeso_search(mapped, small_query, tau, 0.3).column_ids
            )

    def test_mmap_index_supports_maintenance(self, built, small_columns, small_query, tmp_path):
        save_index(built, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", mmap=True)
        kept = load_index(tmp_path / "idx", mmap=False)
        extra = small_columns[1][:5].copy()
        assert loaded.add_column(extra) == kept.add_column(extra)
        loaded.delete_column(0)
        kept.delete_column(0)
        for tau in (0.2, 0.6):
            a = pexeso_search(loaded, small_query, tau, 0.3)
            b = pexeso_search(kept, small_query, tau, 0.3)
            assert a.column_ids == b.column_ids
            assert [h.match_count for h in a.joinable] == [
                h.match_count for h in b.joinable
            ]

    def test_resave_bumps_epoch_and_sweeps_old(self, built, small_columns, tmp_path):
        target = tmp_path / "idx"
        save_index(built, target)
        first = json.loads((target / "manifest.json").read_text())["arrays_dir"]
        loaded = load_index(target, mmap=True)
        loaded.add_column(small_columns[0][:4].copy())
        save_index(loaded, target)
        second = json.loads((target / "manifest.json").read_text())["arrays_dir"]
        assert second != first
        assert not (target / first).exists()
        again = load_index(target)
        assert again.n_columns == loaded.n_columns


class TestRetiredFormats:
    """Only format 5 (lake format 2) loads. A directory in an older
    layout raises ValueError naming its format on the first read; a
    format-3/4 shard epoch is not mistaken for one a commit swept."""

    @pytest.mark.parametrize(
        "fmt", [2, 3, 4, "lake 1"], ids=["index-2", "index-3", "index-4", "lake-1"]
    )
    def test_rejected_on_the_first_read(
        self, fmt, built, small_columns, tmp_path, monkeypatch
    ):
        from repro.core import persistence
        from repro.core.out_of_core import PartitionedPexeso

        reads = []
        for name in ("_read_index_manifest", "_read_lake"):
            real = getattr(persistence, name)
            monkeypatch.setattr(
                persistence, name, lambda d, real=real: reads.append(d) or real(d)
            )

        def rejected(load, target, match):
            reads.clear()
            with pytest.raises(ValueError, match=match):
                load(target)
            assert len(reads) == 1

        if fmt == 2:  # one compressed archive beside the manifest
            target = tmp_path / "idx"
            target.mkdir()
            np.savez_compressed(target / "index.npz", vectors=built.vectors)
            (target / "manifest.json").write_text(json.dumps({"format_version": 2}))
            rejected(persistence.load_index, target, "index format 2; only index format 5")
        elif fmt == "lake 1":  # partitioned.json names shard directories
            target = tmp_path / "lake"
            target.mkdir()
            manifest = {"format_version": 1, "partitions": {"0": "partition_0"}}
            (target / "partitioned.json").write_text(json.dumps(manifest))
            rejected(persistence.load_partitioned, target, "lake format 1; only lake format 2")
        else:  # an epoch with leaf-ordered row ids in place of the runs
            retired = ("inv_rows", "column_ids", "column_first_rows", "column_counts")
            retired += ("inv_leaf_starts",) if fmt == 4 else ("inv_codes", "inv_cols", "inv_starts")

            def age(epoch):
                for name in ("inv_leaf_offsets", "inv_post_bits", "inv_post_cols", "columns"):
                    (epoch / f"{name}.npy").unlink()
                for name in retired:
                    np.save(epoch / f"{name}.npy", np.zeros(1, dtype=np.int64))

            target = save_index(built, tmp_path / "idx")
            manifest = json.loads((target / "manifest.json").read_text())
            age(target / manifest["arrays_dir"])
            manifest["format_version"] = fmt
            (target / "manifest.json").write_text(json.dumps(manifest))
            rejected(persistence.load_index, target, f"index format {fmt}; only index format 5")

            # a format-5 lake whose shard epoch was never rewritten
            lake = tmp_path / "lake"
            PartitionedPexeso(
                n_pivots=3, levels=3, n_partitions=2, seed=5, spill_dir=lake
            ).fit(small_columns)
            shards = json.loads((lake / "partitioned.json").read_text())["partitions"]
            part, entry = next(iter(shards.items()))
            age(lake / entry["dir"] / entry["arrays_dir"])
            rejected(
                lambda d: persistence.load_partitioned(d, parts=[int(part)]),
                lake, f"epoch .* is in index format {fmt}; only index format 5",
            )


class TestAnnEpochCompat:
    """Epochs saved while the index persisted its ANN column graph (five
    ``ann_*.npy`` arrays plus a manifest ``"ann"`` field) still load; the
    graph arrays are ignored and the next save drops them."""

    @staticmethod
    def write_epoch_with_graph(index, target):
        from repro.core.ann import ColumnGraph

        save_index(index, target)
        manifest_path = target / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        graph = ColumnGraph.build(index)
        epoch = target / manifest["arrays_dir"]
        for name, array, dtype in (
            ("ann_node_columns", graph.node_columns, np.int64),
            ("ann_centroids", graph.centroids, np.float64),
            ("ann_box_min", graph.box_min, np.float64),
            ("ann_box_max", graph.box_max, np.float64),
            ("ann_neighbors", graph.neighbors, np.int64),
        ):
            np.save(epoch / f"{name}.npy", array.astype(dtype))
        manifest["ann"] = {"entry": graph.entry}
        manifest_path.write_text(json.dumps(manifest))
        return target

    @staticmethod
    def hits(index, query):
        return [
            (h.column_id, h.match_count, h.joinability)
            for h in pexeso_search(index, query, 0.6, 0.3).joinable
        ]

    @pytest.mark.parametrize("mmap", [True, False])
    def test_loads_without_the_graph_and_answers_like_a_fresh_build(
        self, built, small_columns, small_query, tmp_path, mmap
    ):
        target = self.write_epoch_with_graph(built, tmp_path / "idx")
        assert len(list(target.rglob("ann_*.npy"))) == 5
        loaded = load_index(target, mmap=mmap)
        assert loaded.ann_graph is None
        fresh = PexesoIndex.build(small_columns, n_pivots=3, levels=3)
        assert self.hits(loaded, small_query) == self.hits(fresh, small_query)

    def test_next_save_writes_no_graph(self, built, small_query, tmp_path):
        target = self.write_epoch_with_graph(built, tmp_path / "idx")
        loaded = load_index(target, mmap=True)
        save_index(loaded, target)
        assert not list(target.rglob("ann_*"))
        assert "ann" not in json.loads((target / "manifest.json").read_text())
        assert self.hits(load_index(target), small_query) == self.hits(
            built, small_query
        )


class TestMappedEpochCompat:
    """Epochs saved while the index stored its pivot-mapped row table
    (``mapped.npy``) still load; the file is ignored, answers stay
    exact, and the next write of that index drops it."""

    TAU = 0.8

    @staticmethod
    def hits(result):
        return sorted((h.column_id, h.match_count) for h in result.joinable)

    def naive_hits(self, columns, query):
        return self.hits(naive_search(columns, query, self.TAU, 0.3))

    def test_single_index_epoch(self, built, small_columns, small_query, tmp_path):
        target = tmp_path / "idx"
        save_index(built, target)
        epoch = target / json.loads((target / "manifest.json").read_text())["arrays_dir"]
        np.save(epoch / "mapped.npy", built.mapped)
        want = self.naive_hits(small_columns, small_query)
        assert want
        for mmap in (True, False):
            loaded = load_index(target, mmap=mmap)
            assert self.hits(pexeso_search(loaded, small_query, self.TAU, 0.3)) == want

        loaded = load_index(target)
        save_index(loaded, target)
        assert not list(target.rglob("mapped.npy"))
        assert self.hits(pexeso_search(load_index(target), small_query, self.TAU, 0.3)) == want

    def test_spilled_lake_epochs_mix_with_new_ones(
        self, small_columns, small_query, tmp_path
    ):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned, save_partitioned

        target = tmp_path / "lake"
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=target
        ).fit(small_columns)
        shards = json.loads((target / "partitioned.json").read_text())["partitions"]
        for part, entry in shards.items():
            epoch = target / entry["dir"] / entry["arrays_dir"]
            np.save(epoch / "mapped.npy", lake._get_index(int(part))[0].mapped)
        want = self.naive_hits(small_columns, small_query)
        for mmap in (True, False):
            loaded = load_partitioned(target, mmap=mmap)
            assert self.hits(loaded.search(small_query, self.TAU, 0.3)) == want

        # one add rewrites one shard: old and new epochs side by side
        loaded = load_partitioned(target)
        extra = small_query[:6].copy()
        assert loaded.add_column(extra) == len(small_columns)
        assert len(list(target.rglob("mapped.npy"))) == len(shards) - 1
        want = self.naive_hits(small_columns + [extra], small_query)
        assert self.hits(loaded.search(small_query, self.TAU, 0.3)) == want
        assert self.hits(load_partitioned(target).search(small_query, self.TAU, 0.3)) == want

        save_partitioned(loaded, tmp_path / "next")
        assert not list((tmp_path / "next").rglob("mapped.npy"))
        resaved = load_partitioned(tmp_path / "next")
        assert self.hits(resaved.search(small_query, self.TAU, 0.3)) == want


class TestAtomicWrites:
    """Crash-safety of manifests and array epochs."""

    def test_leftover_temp_files_ignored_and_swept(self, built, tmp_path):
        target = tmp_path / "idx"
        save_index(built, target)
        junk = target / "manifest.json.tmp-999-deadbeef"
        junk.write_text("{ truncated")
        loaded = load_index(target)  # must not trip over the leftover
        assert loaded.n_columns == built.n_columns
        save_index(loaded, target)  # next save sweeps it
        assert not junk.exists()

    def test_stale_epoch_dir_ignored_and_swept(self, built, tmp_path):
        target = tmp_path / "idx"
        save_index(built, target)
        stale = target / "arrays_v3_99999999"
        stale.mkdir()
        (stale / "vectors.npy").write_bytes(b"garbage")
        loaded = load_index(target)
        assert loaded.n_columns == built.n_columns
        save_index(loaded, target)
        assert not stale.exists()

    def test_manifest_flip_is_all_or_nothing(self, built, small_columns, tmp_path):
        """A save interrupted before the manifest flip leaves the old
        index fully loadable (simulated by writing the new epoch dir
        without touching the manifest)."""
        target = tmp_path / "idx"
        save_index(built, target)
        before = json.loads((target / "manifest.json").read_text())
        # Simulate a crash mid-save: a newer epoch dir exists but the
        # manifest still names the old one.
        orphan = target / "arrays_v3_00000042"
        orphan.mkdir()
        (orphan / "vectors.npy").write_bytes(b"partial write")
        loaded = load_index(target)
        assert loaded.n_columns == built.n_columns
        after = json.loads((target / "manifest.json").read_text())
        assert after == before

    def test_lake_manifest_refresh_is_atomic(self, small_columns, small_query, tmp_path):
        """A mutation's manifest refresh replaces partitioned.json in one
        step and leaves no temp debris behind."""
        from repro.core.atomic import is_temp_artifact
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned, save_partitioned

        target = tmp_path / "lake"
        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=target
        ).fit(small_columns)
        save_partitioned(lake, target)
        lake.add_column(small_columns[0][:4].copy())
        leftovers = [p for p in target.iterdir() if is_temp_artifact(p)]
        assert leftovers == []
        reloaded = load_partitioned(target)
        assert reloaded.n_columns == lake.n_columns


def _hit_rows(result):
    return [(h.column_id, h.match_count, h.joinability) for h in result.joinable]


class TestLakeLayout:
    """``partitioned.json`` is a lake's only manifest and names every epoch."""

    def _assert_one_commit_point(self, directory):
        manifest = json.loads((directory / "partitioned.json").read_text())
        assert manifest["format_version"] == 2
        assert not list(directory.glob("partition_*/manifest.json"))
        for entry in manifest["partitions"].values():
            shard = directory / entry["dir"]
            assert [p.name for p in shard.iterdir()] == [entry["arrays_dir"]]
            assert (shard / entry["arrays_dir"] / "vectors.npy").exists()
        return manifest

    def test_spilled_fit_is_a_loadable_lake(self, small_columns, small_query, tmp_path):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned

        lake = PartitionedPexeso(
            n_pivots=3, levels=3, n_partitions=3, seed=5, spill_dir=tmp_path / "lake"
        ).fit(small_columns)
        manifest = self._assert_one_commit_point(tmp_path / "lake")
        assert manifest["partition_columns"] == lake.partition_columns
        loaded = load_partitioned(tmp_path / "lake")
        assert loaded.dim == lake.dim == small_columns[0].shape[1]
        assert _hit_rows(loaded.search(small_query, 0.8, 0.3)) == _hit_rows(
            lake.search(small_query, 0.8, 0.3)
        )

    def test_saved_and_mutated_lake_keeps_one_commit_point(
        self, small_columns, tmp_path
    ):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned, save_partitioned

        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3, seed=5).fit(
            small_columns
        )
        target = tmp_path / "lake"
        save_partitioned(lake, target)
        self._assert_one_commit_point(target)
        served = load_partitioned(target)
        gid = served.add_column(small_columns[0][:4].copy())
        served.delete_column(3)
        manifest = self._assert_one_commit_point(target)
        assert manifest["deleted_column_ids"] == [3]
        assert load_partitioned(target).has_column(gid)

    def test_shard_load_racing_a_commit_opens_the_live_epoch(
        self, small_columns, tmp_path
    ):
        """A reader whose entry names an epoch a commit has since swept
        re-reads ``partitioned.json`` and opens the live epoch instead."""
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned, save_partitioned

        target = tmp_path / "lake"
        lake = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=3, seed=5)
        save_partitioned(lake.fit(small_columns), target)
        reader = load_partitioned(target)
        writer = load_partitioned(target)
        gid = writer.add_column(small_columns[0][:4].copy())
        part = writer._ensure_column_shard()[gid][0]
        assert reader._spilled[part] != writer._spilled[part]  # swept epoch
        reopened = reader._load(part)
        assert reopened.n_columns == writer._get_index(part)[0].n_columns

    def test_saving_a_smaller_lake_over_a_larger_sweeps_its_partitions(
        self, small_columns, tmp_path
    ):
        from repro.core.out_of_core import PartitionedPexeso
        from repro.core.persistence import load_partitioned, save_partitioned

        target = tmp_path / "lake"
        big = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=4, seed=5)
        save_partitioned(big.fit(small_columns), target)
        small = PartitionedPexeso(n_pivots=3, levels=3, n_partitions=2, seed=5)
        save_partitioned(small.fit(small_columns[:10]), target)
        manifest = self._assert_one_commit_point(target)
        assert sorted(p.name for p in target.glob("partition_*")) == sorted(
            entry["dir"] for entry in manifest["partitions"].values()
        )
        assert load_partitioned(target).n_columns == 10
