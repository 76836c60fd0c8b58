"""Index persistence: save/load a PexesoIndex to a directory.

The offline component of Fig. 1 builds the index once and serves many
online queries, so the index must outlive the process. Because the index
core is array-native — sorted leaf cell codes for the grid, lexsorted
CSR arrays for the inverted index — the whole structure round-trips as
a handful of arrays plus a small ``manifest.json``; nothing is pickled
and no Python object graph is rebuilt on load.

Format **version 3** (the only format written): every array is one raw
aligned ``.npy`` file inside a per-save epoch directory
(``arrays_v3_<epoch>/``), so :func:`load_index` opens them with
``mmap_mode="r"`` — loading a shard is a few ``open``/``mmap`` calls and
costs no copying, no decompression and almost no resident memory until
pages are actually touched. That makes cluster-worker cold start and
failover near-instant and lets the shard LRU hold far more shards than
RAM would allow (capacity is address space, not heap).

Crash safety: array files are written into a *fresh* epoch directory
and the manifest — which names the epoch directory — is swapped in with
an atomic rename (:mod:`repro.core.atomic`). A writer killed at any
instant leaves either the old complete index or the new complete index;
stale epoch directories and ``*.tmp-*`` files are ignored by loaders
and swept by the next successful save.

Format version 2 (one compressed ``index.npz``) is **read-only**: v2
directories still load (eagerly — the archive must be decompressed) and
re-saving one migrates it to v3 in place, but nothing writes v2 any
more. Version-1 directories (the pre-array layout with a
``structure.pkl``) are rejected with a clear error; rebuild the index
to migrate.

Partitioned lakes persist as a lake-level ``partitioned.json`` manifest
(labels, global column IDs per partition, build knobs) plus one
array-native index directory per non-empty partition
(:func:`save_partitioned` / :func:`load_partitioned`). Loading is lazy:
partitions stay on disk until a search pulls them through the shard
LRU. :func:`load_any` dispatches on the directory layout so callers
need not know which flavour was saved.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.atomic import (
    atomic_write_array,
    atomic_write_text,
    clean_temp_artifacts,
)
from repro.core.grid import HierarchicalGrid
from repro.core.index import PexesoIndex
from repro.core.inverted_index import InvertedIndex

#: the format every save writes; bumped when the on-disk layout changes
FORMAT_VERSION = 3

#: the pre-mmap single-archive layout, still loadable (never written)
V2_FORMAT_VERSION = 2

#: formats :func:`load_index` accepts
SUPPORTED_FORMATS = (V2_FORMAT_VERSION, FORMAT_VERSION)

#: bumped when the partitioned-lake layout changes
PARTITIONED_FORMAT_VERSION = 1

_ARCHIVE = "index.npz"

_PARTITIONED_MANIFEST = "partitioned.json"

#: v3 epoch-directory prefix (the manifest names the live one)
_V3_ARRAYS_PREFIX = "arrays_v3_"

#: the arrays a v3 index directory persists, one ``.npy`` each, with the
#: dtype they are saved (and therefore mmapped) as
_V3_ARRAYS = (
    ("vectors", np.float64),
    ("mapped", np.float64),
    ("pivots", np.float64),
    ("grid_leaf_codes", np.int64),
    ("inv_codes", np.int64),
    ("inv_cols", np.int64),
    ("inv_starts", np.int64),
    ("inv_rows", np.int64),
    ("column_ids", np.int64),
    ("column_first_rows", np.int64),
    ("column_counts", np.int64),
)

#: optional v3 arrays persisting the ANN column graph (repro.core.ann).
#: Written only when the index carries a graph and declared by an "ann"
#: manifest field, so pre-ANN v3 directories keep loading unchanged.
_V3_ANN_ARRAYS = (
    ("ann_node_columns", np.int64),
    ("ann_centroids", np.float64),
    ("ann_box_min", np.float64),
    ("ann_box_max", np.float64),
    ("ann_neighbors", np.int64),
)


def _index_payload(index: PexesoIndex) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays + manifest fields of one saved index."""
    inverted = index.inverted
    column_ids = np.fromiter(
        index.column_rows, dtype=np.int64, count=len(index.column_rows)
    )
    column_first_rows = np.asarray(
        [int(index.column_rows[cid][0]) for cid in column_ids.tolist()],
        dtype=np.int64,
    )
    column_counts = np.asarray(
        [int(index.column_rows[cid].size) for cid in column_ids.tolist()],
        dtype=np.int64,
    )
    arrays = {
        "vectors": index.vectors,
        "mapped": index.mapped,
        "pivots": index.pivot_space.pivots,
        "grid_leaf_codes": index.grid.leaf_codes,
        "inv_codes": inverted._codes,
        "inv_cols": inverted._cols,
        "inv_starts": inverted._starts.astype(np.int64),
        "inv_rows": inverted._rows.astype(np.int64),
        "column_ids": column_ids,
        "column_first_rows": column_first_rows,
        "column_counts": column_counts,
    }
    manifest = {
        "metric": index.metric.name,
        "n_pivots": index.n_pivots,
        "levels": index.levels,
        "pivot_method": index.pivot_method,
        "seed": index.seed,
        "next_column_id": index._next_column_id,
        "n_columns": index.n_columns,
        "n_vectors": index.n_vectors,
        "dim": index.dim,
    }
    return arrays, manifest


def _sweep_stale_epochs(directory: Path, keep: str | None) -> None:
    """Drop epoch dirs a crashed (or superseded) save left behind.

    Safe while readers hold mmaps into a removed directory: on POSIX the
    unlinked files' pages stay valid until the last mapping goes away.
    """
    for entry in directory.iterdir():
        if (
            entry.is_dir()
            and entry.name.startswith(_V3_ARRAYS_PREFIX)
            and entry.name != keep
        ):
            shutil.rmtree(entry, ignore_errors=True)


def save_index(index: PexesoIndex, directory: str | Path) -> Path:
    """Persist a built index (format v3); returns the directory written.

    The write is crash-atomic: array data lands under names the current
    manifest does not reference, and the manifest swap is one
    ``os.replace``. A killed writer can never leave a directory that
    loads as a half-written index.

    Raises:
        RuntimeError: when the index has not been built.
        ValueError: when the index's metric cannot round-trip through its
            registry name (unregistered or not default-constructible
            custom metric) — register it with
            :func:`repro.core.metric.register_metric` and rebuild.
            Nothing is written.
    """
    from repro.core.metric import metric_round_trips

    if index.pivot_space is None or index.grid is None:
        raise RuntimeError("cannot save an unbuilt index")
    if not metric_round_trips(index.metric):
        raise ValueError(
            f"metric {type(index.metric).__name__} cannot be "
            "reconstructed from its registry name, so the saved "
            "index would be unloadable; register it with "
            "repro.core.metric.register_metric and rebuild"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays, manifest = _index_payload(index)
    manifest = {"format_version": FORMAT_VERSION, **manifest}
    manifest["extent"] = float(index.pivot_space.extent)

    # arrays into a fresh epoch dir, manifest flip last, then sweep
    epoch = 0
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        try:
            previous = json.loads(manifest_path.read_text())
            prior_dir = str(previous.get("arrays_dir", ""))
            if prior_dir.startswith(_V3_ARRAYS_PREFIX):
                epoch = int(prior_dir[len(_V3_ARRAYS_PREFIX):]) + 1
        except (ValueError, OSError):
            pass  # unreadable prior manifest: start a fresh epoch chain
    arrays_dir = f"{_V3_ARRAYS_PREFIX}{epoch:08d}"
    epoch_path = directory / arrays_dir
    if epoch_path.exists():  # a crashed writer got this far; restart it
        shutil.rmtree(epoch_path)
    epoch_path.mkdir()
    for name, dtype in _V3_ARRAYS:
        atomic_write_array(
            epoch_path / f"{name}.npy", arrays[name].astype(dtype, copy=False)
        )
    graph = getattr(index, "ann_graph", None)
    if graph is not None:
        ann_arrays = {
            "ann_node_columns": graph.node_columns,
            "ann_centroids": graph.centroids,
            "ann_box_min": graph.box_min,
            "ann_box_max": graph.box_max,
            "ann_neighbors": graph.neighbors,
        }
        for name, dtype in _V3_ANN_ARRAYS:
            atomic_write_array(
                epoch_path / f"{name}.npy",
                ann_arrays[name].astype(dtype, copy=False),
            )
        manifest["ann"] = {"entry": int(graph.entry)}
    manifest["arrays_dir"] = arrays_dir
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    _sweep_stale_epochs(directory, keep=arrays_dir)
    clean_temp_artifacts(directory)
    # The npz of an in-place v2 -> v3 re-save is now dead weight.
    (directory / _ARCHIVE).unlink(missing_ok=True)
    return directory


def _np_load(path: Path, mmap_mode: Optional[str]) -> np.ndarray:
    """``np.load`` hardened against a CPython 3.11 threading bug.

    numpy parses ``.npy`` headers with ``ast.literal_eval``, whose
    ``compile()`` call can spuriously raise ``SystemError: AST
    constructor recursion depth mismatch`` when the C recursion
    counter is perturbed by concurrent thread churn (cpython#105540).
    The failure is transient — the same load succeeds immediately on
    retry — and this repo loads shards from worker threads constantly,
    so retry a couple of times before giving up.
    """
    for attempt in range(3):
        try:
            return np.load(path, mmap_mode=mmap_mode)
        except SystemError:
            if attempt == 2:
                raise
    raise AssertionError("unreachable")


def _load_v3_arrays(
    directory: Path, manifest: dict, mmap: bool
) -> dict[str, np.ndarray]:
    arrays_dir = directory / str(manifest.get("arrays_dir", ""))
    if not arrays_dir.is_dir():
        raise FileNotFoundError(
            f"v3 index manifest names missing arrays dir {arrays_dir}"
        )
    mode = "r" if mmap else None
    arrays = {
        name: _np_load(arrays_dir / f"{name}.npy", mode)
        for name, _ in _V3_ARRAYS
    }
    # The ANN column graph rides along only when the manifest declares it
    # (same epoch directory, so the crash-atomicity story is unchanged).
    if manifest.get("ann"):
        for name, _ in _V3_ANN_ARRAYS:
            arrays[name] = _np_load(arrays_dir / f"{name}.npy", mode)
    return arrays


def load_index(directory: str | Path, mmap: bool = True) -> PexesoIndex:
    """Load an index saved by :func:`save_index`.

    Args:
        mmap: open a v3 directory's arrays with ``mmap_mode="r"``
            (zero-copy; pages fault in on first touch). ``False`` reads
            them eagerly into RAM. v2 directories always load eagerly
            (the npz must be decompressed).

    Mutating a mmap-loaded index is safe: every maintenance path
    (§III-E append/delete) builds *new* arrays rather than writing in
    place, and the one in-place structure (the inverted index's CSR
    offsets) is materialised at load time.

    Raises:
        FileNotFoundError: when the directory lacks the expected files.
        ValueError: on a format-version mismatch.
    """
    from repro.core.metric import get_metric
    from repro.core.pivot import PivotSpace

    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no index manifest under {directory}")
    # A concurrent re-save flips the manifest to a new epoch directory
    # and sweeps the old one; a reader that fetched the manifest just
    # before the flip can find its arrays gone mid-open. The manifest it
    # re-reads then names the new complete epoch, so retrying gives a
    # consistent snapshot (arrays are never mixed across epochs — any
    # miss restarts the whole open).
    for attempt in range(10):
        manifest = json.loads(manifest_path.read_text())
        fmt = manifest.get("format_version")
        if fmt not in SUPPORTED_FORMATS:
            raise ValueError(
                f"index format {fmt} not in supported {SUPPORTED_FORMATS}"
            )
        try:
            if fmt == V2_FORMAT_VERSION:
                arrays = dict(np.load(directory / _ARCHIVE))
                extent = float(arrays.pop("extent"))
            else:
                arrays = _load_v3_arrays(directory, manifest, mmap)
                extent = float(manifest["extent"])
            break
        except FileNotFoundError:
            if attempt == 9:
                raise

    index = PexesoIndex(
        metric=get_metric(manifest["metric"]),
        n_pivots=manifest["n_pivots"],
        levels=manifest["levels"],
        pivot_method=manifest["pivot_method"],
        seed=manifest["seed"],
    )
    index.pivot_space = PivotSpace(arrays["pivots"], index.metric, extent=extent)
    n_rows = int(manifest["n_vectors"])
    index.grid = HierarchicalGrid.from_leaf_codes(
        arrays["grid_leaf_codes"],
        n_dims=manifest["n_pivots"],
        levels=manifest["levels"],
        extent=extent,
        n_vectors=n_rows,
    )
    inverted = InvertedIndex()
    inverted._codes = arrays["inv_codes"].astype(np.int64, copy=False)
    inverted._cols = arrays["inv_cols"].astype(np.int64, copy=False)
    # _starts is the one array maintenance mutates in place
    # (InvertedIndex.add_vector); materialise it so a read-only mmap can
    # never be written through. It is O(postings) offsets — tiny next to
    # the vector stores that stay mapped.
    inverted._starts = np.array(arrays["inv_starts"], dtype=np.intp)
    inverted._rows = arrays["inv_rows"].astype(np.intp, copy=False)
    index.inverted = inverted
    index.column_rows = {
        int(cid): np.arange(int(first), int(first) + int(count), dtype=np.intp)
        for cid, first, count in zip(
            arrays["column_ids"].tolist(),
            arrays["column_first_rows"].tolist(),
            arrays["column_counts"].tolist(),
        )
    }
    index._next_column_id = int(manifest["next_column_id"])
    index._n_rows = n_rows
    vectors = arrays["vectors"]
    mapped = arrays["mapped"]
    index._vector_blocks = [vectors]
    index._mapped_blocks = [mapped]
    index._vectors = vectors
    index._mapped = mapped
    index.stats.n_vectors = index._n_rows
    index.stats.n_columns = len(index.column_rows)
    index.stats.n_leaf_cells = inverted.n_cells
    index.stats.n_postings = inverted.n_postings
    ann_meta = manifest.get("ann")
    if ann_meta and "ann_node_columns" in arrays:
        from repro.core.ann import ColumnGraph

        index.ann_graph = ColumnGraph(
            arrays["ann_node_columns"],
            arrays["ann_centroids"],
            arrays["ann_box_min"],
            arrays["ann_box_max"],
            arrays["ann_neighbors"],
            int(ann_meta["entry"]),
        )
    return index


# -- partitioned lakes ------------------------------------------------------------


def mutable_manifest_fields(lake) -> dict:
    """The manifest fields live maintenance can change.

    One serialization shared by :func:`save_partitioned` and the lake's
    in-place manifest refresh after ``add_column`` / ``delete_column``,
    so the two paths can never drift apart.
    """
    return {
        "labels": np.asarray(lake.labels).astype(int).tolist(),
        "partition_columns": [list(map(int, g)) for g in lake.partition_columns],
        "deleted_column_ids": sorted(int(c) for c in lake._deleted_ids),
    }


def save_partitioned(lake, directory: str | Path) -> Path:
    """Persist a fitted :class:`~repro.core.out_of_core.PartitionedPexeso`.

    Writes ``partitioned.json`` (labels, per-partition global column
    IDs, build knobs) plus one array-native index directory per
    non-empty partition (:func:`save_index`). A lake
    already spilled *into* ``directory`` reuses its partition
    directories; resident partitions are saved fresh; partitions
    spilled elsewhere are loaded and re-saved. The lake-level manifest
    is written atomically, last, so a killed saver leaves either the old
    lake or the new one.

    Raises:
        RuntimeError: when the lake has not been fitted.
        ValueError: from :func:`save_index`, when the lake's metric
            cannot round-trip through its registry name.
    """
    if lake.labels is None:
        raise RuntimeError("cannot save an unfitted partitioned lake")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    partitions: dict[str, str] = {}
    metric_name = None
    for part, globals_ in enumerate(lake.partition_columns):
        if not globals_:
            continue
        subdir = f"partition_{part}"
        if part in lake._resident:
            save_index(lake._resident[part], directory / subdir)
        else:
            spilled = lake._spilled.get(part)
            if spilled is None:
                raise RuntimeError(f"partition {part} has no index to save")
            if spilled.resolve() != (directory / subdir).resolve():
                save_index(load_index(spilled), directory / subdir)
        if metric_name is None:
            metric_name = json.loads(
                (directory / subdir / "manifest.json").read_text()
            )["metric"]
        partitions[str(part)] = subdir

    manifest = {
        "format_version": PARTITIONED_FORMAT_VERSION,
        "metric": metric_name,
        "n_pivots": lake.n_pivots,
        "levels": lake.levels,
        "pivot_method": lake.pivot_method,
        "seed": lake.seed,
        "n_partitions": lake.n_partitions,
        "partitioner": lake.partitioner,
        "kmeans_iters": lake.kmeans_iters,
        **mutable_manifest_fields(lake),
        "partitions": partitions,
    }
    atomic_write_text(
        directory / _PARTITIONED_MANIFEST, json.dumps(manifest, indent=2)
    )
    clean_temp_artifacts(directory)
    return directory


def load_partitioned(
    directory: str | Path,
    parts: "Sequence[int] | None" = None,
    mmap: bool = True,
):
    """Load a lake saved by :func:`save_partitioned` (lazy partitions).

    The returned :class:`~repro.core.out_of_core.PartitionedPexeso` is
    in spill mode over ``directory``: partition indexes are loaded on
    demand through the shard LRU, so opening a lake costs one JSON read.

    Args:
        parts: host only this partition subset (a cluster worker's
            assignment). The listed partitions are opened **up front**
            and the lake is restricted to them: searches cover only the
            hosted shards, mutations may only target them, and the
            shared on-disk layout is never written back — the worker
            owns its resident slice, the coordinator owns the metadata.
            Over a v3 lake with ``mmap=True`` the open is zero-copy, so
            worker cold start and failover cost milliseconds, not a
            full-shard read.
        mmap: open v3 partitions memory-mapped (see :func:`load_index`).

    Raises:
        FileNotFoundError: when the directory lacks the manifest.
        ValueError: on a format-version mismatch.
        KeyError: when ``parts`` names a partition the lake does not have.
    """
    from repro.core.metric import get_metric
    from repro.core.out_of_core import PartitionedPexeso

    directory = Path(directory)
    manifest_path = directory / _PARTITIONED_MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"no partitioned manifest under {directory}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format_version") != PARTITIONED_FORMAT_VERSION:
        raise ValueError(
            f"partitioned format {manifest.get('format_version')} != "
            f"{PARTITIONED_FORMAT_VERSION}"
        )

    lake = PartitionedPexeso(
        metric=get_metric(manifest["metric"]),
        n_pivots=manifest["n_pivots"],
        levels=manifest["levels"],
        pivot_method=manifest["pivot_method"],
        seed=manifest["seed"],
        n_partitions=manifest["n_partitions"],
        partitioner=manifest["partitioner"],
        spill_dir=directory,
        kmeans_iters=manifest["kmeans_iters"],
        mmap=mmap,
    )
    lake.labels = np.asarray(manifest["labels"], dtype=np.intp)
    lake.partition_columns = [
        [int(cid) for cid in globals_]
        for globals_ in manifest["partition_columns"]
    ]
    lake._spilled = {
        int(part): directory / subdir
        for part, subdir in manifest["partitions"].items()
    }
    lake._deleted_ids = {
        int(cid) for cid in manifest.get("deleted_column_ids", [])
    }
    if parts is not None:
        wanted = sorted({int(p) for p in parts})
        unknown = [p for p in wanted if str(p) not in manifest["partitions"]]
        if unknown:
            raise KeyError(
                f"partitions {unknown} are not in the saved lake "
                f"(have: {sorted(int(p) for p in manifest['partitions'])})"
            )
        for p in wanted:
            lake._resident[p] = load_index(
                directory / manifest["partitions"][str(p)], mmap=mmap
            )
        # Nothing stays spilled: the hosted shards are resident, the
        # rest are not this lake's to touch (no re-spill, no LRU).
        lake._spilled = {}
        lake.restrict_to_parts(wanted)
    return lake


def load_any(
    directory: str | Path,
    parts: "Sequence[int] | None" = None,
    mmap: bool = True,
) -> Union[PexesoIndex, "object"]:
    """Load whatever index flavour ``directory`` holds.

    Dispatches on the on-disk layout: a ``partitioned.json`` manifest
    loads a :class:`~repro.core.out_of_core.PartitionedPexeso`, a plain
    ``manifest.json`` loads a single :class:`PexesoIndex`. ``parts``
    (a shard-subset restriction) requires the partitioned layout.
    ``mmap`` controls zero-copy opening of v3 layouts.

    Raises:
        FileNotFoundError: when neither manifest is present.
    """
    directory = Path(directory)
    if (directory / _PARTITIONED_MANIFEST).exists():
        return load_partitioned(directory, parts=parts, mmap=mmap)
    if parts is not None:
        raise ValueError(
            f"{directory} holds a single index; a partition subset needs "
            "the partitioned layout"
        )
    return load_index(directory, mmap=mmap)
