"""Index persistence: save/load a PexesoIndex or a partitioned lake.

The offline component of Fig. 1 builds the index once and serves many
online queries, so the index must outlive the process. The index core
is array-native, so it round-trips as a handful of arrays plus a few
manifest fields; nothing is pickled. Every array is one raw aligned
``.npy`` file inside an *epoch* directory (``arrays_v3_<epoch>/``) that
loads open with ``mmap_mode="r"``: no copying, no decompression and
almost no resident memory until pages are touched. Two layouts:

* a **single index** (:func:`save_index` / :func:`load_index`, format
  5): epoch directories plus a ``manifest.json`` naming the live one;
* a **partitioned lake** (:func:`save_partitioned` /
  :func:`load_partitioned`, lake format 2): ``partition_<p>/`` holds
  *only* epoch directories, and one ``partitioned.json`` names every
  shard's live epoch next to its index fields, the labels and the
  global column IDs. Loading is one JSON read; shards stay on disk
  until a search pulls them through the shard LRU.

Crash safety is one rule: arrays land in a *fresh* epoch nothing names
yet, one atomic manifest rename (:mod:`repro.core.atomic`) publishes
them, then what the manifest no longer names is swept. A lake's only
commit point is that flip of ``partitioned.json``, made by
:func:`commit_lake` alone — ``fit(spill_dir=)``, ``add_column``,
``delete_column`` and :func:`save_partitioned` all go through it — so a
writer killed at any instant leaves the old lake or the new one.

An epoch (format 5) holds seven files: the vector store in leaf order,
the pivots, the grid's leaf codes, the inverted index's per-leaf row and
posting offsets (``inv_leaf_offsets``, one (2, leaves + 1) array), its
run-length encoded row → column map (``inv_post_bits``, one bit per row,
and ``inv_post_cols``, one directory position per posting) and its
column directory (``columns``: IDs and sizes). Every integer array is
written in the type the index holds it in, the narrowest signed one its
values need (see :mod:`~repro.core.inverted_index`); a stacked pair is
written in the wider of its two types. A load takes each as it is
stored, once its type is a signed integer type wide enough for the
manifest: ``grid_leaf_codes`` for ``n_pivots * levels`` code bits (the
codes are then cast to the geometry's type), ``inv_leaf_offsets`` for
``n_vectors`` rows and the postings, and ``inv_post_cols`` (at most 4
bytes) and ``columns`` for ``n_columns`` distinct positions and IDs. So
an epoch written with wider types (int64 codes and IDs, int32 offsets
and sizes) loads as it is and narrows at its next compaction. Writing a
file costs about 0.7 ms on a 2-core VM, more than half of a short
lake's whole store, so related small arrays share one. A save writes the packed layout: no dead rows, and
the tail of columns added since the last compaction merged into its
leaves. These two layouts are the only ones that load: a directory in
an older format raises ``ValueError`` and must be rebuilt from its
columns. Epochs that also carry the ANN column graph (five
``ann_*.npy`` files and a manifest ``"ann"`` field) or the pivot-mapped
row table (``mapped.npy``) load with those ignored; the next write of
that epoch's index drops them. Epochs stopped carrying ``mapped.npy``
without a format bump, so a build from before that change cannot read
an epoch written after it.
:func:`load_any` dispatches on the directory layout.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.atomic import (
    atomic_write_array,
    atomic_write_text,
    clean_temp_artifacts,
)
from repro.core.grid import HierarchicalGrid
from repro.core.index import PexesoIndex
from repro.core.inverted_index import InvertedIndex, narrowest

#: the format every save writes and the only one that loads; bumped when
#: the on-disk layout changes
FORMAT_VERSION = 5

#: the lake layout every commit writes: ``partitioned.json`` names every
#: shard's live epoch
PARTITIONED_FORMAT_VERSION = 2

_MANIFEST = "manifest.json"

_PARTITIONED_MANIFEST = "partitioned.json"

#: epoch-directory prefix (a manifest names the live one); the value
#: dates from format 3 and stays so that the epoch numbering and the
#: sweep still find the epochs of directories already saved
_EPOCH_PREFIX = "arrays_v3_"

#: the arrays an epoch directory persists, one ``.npy`` each, saved (and
#: therefore mmapped) in the type the index holds them in
_EPOCH_ARRAYS = (
    "vectors",
    "pivots",
    "grid_leaf_codes",
    # (2, leaves + 1): each leaf's first row, then its first posting
    "inv_leaf_offsets",
    "inv_post_bits",
    "inv_post_cols",
    # (2, columns): the column directory's IDs, then its sizes
    "columns",
)

#: the arrays a mmap load maps: the store and the run arrays
_MAPPED = ("vectors", "inv_leaf_offsets", "inv_post_bits", "inv_post_cols")


def _unsupported(what: str, kind: str, fmt, want: int) -> ValueError:
    """The error for a directory in a format this build does not read."""
    return ValueError(
        f"{what} is in {kind} format {fmt}; only {kind} format {want} loads. "
        "Rebuild the index from its columns and save it again."
    )


def _index_payload(index: PexesoIndex) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays + manifest fields of one saved index (packed: live rows
    only, the tail merged into its leaves)."""
    vectors, inverted = index.packed()
    arrays = {
        "vectors": vectors,
        "pivots": index.pivot_space.pivots,
        "grid_leaf_codes": index.grid.leaf_codes,
        "inv_leaf_offsets": np.stack([inverted.leaf_starts, inverted.leaf_posts]),
        "inv_post_bits": inverted.post_bits,
        "inv_post_cols": inverted.post_cols,
        "columns": np.stack([inverted.column_ids, inverted.column_sizes]),
    }
    manifest = {
        "metric": index.metric.name,
        "n_pivots": index.n_pivots,
        "levels": index.levels,
        "pivot_method": index.pivot_method,
        "seed": index.seed,
        "next_column_id": index._next_column_id,
        "n_columns": index.n_columns,
        "n_vectors": int(vectors.shape[0]),
        "dim": index.dim,
    }
    return arrays, manifest


# -- the epoch writer and the array reader ----------------------------------------


def _write_epoch(index: PexesoIndex, directory: Path) -> dict:
    """Write ``index``'s arrays into a fresh epoch dir under ``directory``
    and return the manifest fields naming it. The epoch is numbered past
    every one already there, so no live epoch or debris is written into.

    Raises (before anything is written):
        RuntimeError: when the index has not been built.
        ValueError: when the metric cannot round-trip through its registry
            name — register it with :func:`~repro.core.metric.register_metric`.
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
    directory.mkdir(parents=True, exist_ok=True)
    arrays, fields = _index_payload(index)
    fields["extent"] = float(index.pivot_space.extent)
    epochs = [
        int(suffix)
        for entry in directory.glob(f"{_EPOCH_PREFIX}*")
        if (suffix := entry.name[len(_EPOCH_PREFIX):]).isdigit()
    ]
    arrays_dir = f"{_EPOCH_PREFIX}{max(epochs, default=-1) + 1:08d}"
    epoch_path = directory / arrays_dir
    epoch_path.mkdir()
    for name in _EPOCH_ARRAYS:
        atomic_write_array(epoch_path / f"{name}.npy", arrays[name])
    fields["arrays_dir"] = arrays_dir
    return fields


def _sweep_stale_epochs(directory: Path, keep: str) -> None:
    """After a flip: drop every epoch dir but ``keep`` and ``*.tmp-*`` debris.

    Safe while readers hold mmaps into a removed directory: on POSIX the
    unlinked files' pages stay valid until the last mapping goes away.
    """
    for entry in directory.glob(f"{_EPOCH_PREFIX}*"):
        if entry.name != keep:
            shutil.rmtree(entry, ignore_errors=True)
    clean_temp_artifacts(directory)


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


def _load_epoch_arrays(
    directory: Path, manifest: dict, mmap: bool
) -> dict[str, np.ndarray]:
    arrays_dir = directory / str(manifest.get("arrays_dir", ""))
    if not arrays_dir.is_dir():
        raise FileNotFoundError(
            f"index manifest names missing arrays dir {arrays_dir}"
        )
    # only the O(N) arrays are worth a mapping; small ones read faster
    big = _MAPPED if mmap else ()
    try:
        return {
            name: _np_load(arrays_dir / f"{name}.npy", "r" if name in big else None)
            for name in _EPOCH_ARRAYS
        }
    except FileNotFoundError:
        # format-3/4 epochs hold ``inv_rows`` (row ids in leaf order) and a
        # format-5 one never does: fail now, not retry as if a commit raced
        if (arrays_dir / "inv_rows.npy").exists():
            fmt = 4 if (arrays_dir / "inv_leaf_starts.npy").exists() else 3
            raise _unsupported(f"epoch {arrays_dir}", "index", fmt, FORMAT_VERSION) from None
        raise


def _checked(arrays: dict[str, np.ndarray], name: str, max_value: int, max_bytes: int = 8):
    """``arrays[name]`` as read, once its type is known to be a signed
    integer type of at most ``max_bytes`` bytes holding ``max_value``
    (ValueError naming the array if not)."""
    dtype = arrays[name].dtype
    if dtype.kind != "i" or dtype.itemsize > max_bytes:
        raise ValueError(
            f"{name} is {dtype}; it must be a signed integer type of at most {max_bytes} bytes"
        )
    if dtype.itemsize < narrowest(max_value).itemsize:
        raise ValueError(f"{name} is {dtype}, too narrow for values up to {max_value}")
    return arrays[name]


def _read_index(directory: Path, manifest: dict, mmap: bool) -> PexesoIndex:
    """Rebuild the index whose arrays ``manifest`` names under ``directory``.

    ``manifest`` is a single-index ``manifest.json`` or one shard entry
    of ``partitioned.json``; both carry the same index fields.
    """
    from repro.core.metric import get_metric
    from repro.core.pivot import PivotSpace

    arrays = _load_epoch_arrays(directory, manifest, mmap)
    extent = float(manifest["extent"])
    index = PexesoIndex(
        metric=get_metric(manifest["metric"]),
        n_pivots=manifest["n_pivots"],
        levels=manifest["levels"],
        pivot_method=manifest["pivot_method"],
        seed=manifest["seed"],
    )
    index.pivot_space = PivotSpace(arrays["pivots"], index.metric, extent=extent)
    n_rows = int(manifest["n_vectors"])
    n_dims, levels = manifest["n_pivots"], manifest["levels"]
    index.grid = HierarchicalGrid.from_leaf_codes(
        _checked(arrays, "grid_leaf_codes", (1 << (n_dims * levels)) - 1),
        n_dims=n_dims,
        levels=levels,
        extent=extent,
        n_vectors=n_rows,
    )
    inverted = index.inverted = InvertedIndex()
    inverted.leaves, inverted.tail_codes = index.grid.leaf_codes, index.grid.leaf_codes[:0]
    post_cols = _checked(arrays, "inv_post_cols", manifest["n_columns"] - 1, max_bytes=4)
    offsets = _checked(arrays, "inv_leaf_offsets", max(n_rows, post_cols.size))
    inverted.leaf_starts, inverted.leaf_posts = offsets
    inverted.post_bits = arrays["inv_post_bits"]
    inverted.post_cols = post_cols
    # distinct IDs: the largest is at least the directory's last position
    columns = _checked(arrays, "columns", manifest["n_columns"] - 1)
    inverted.column_ids, inverted.column_sizes = columns
    index._next_column_id = int(manifest["next_column_id"])
    # a mmapped epoch's store is read-only: the first write copies it
    index._store = arrays["vectors"]
    index._n_rows = index.grid.n_vectors = index._store.shape[0]
    index.stats.n_vectors = index._n_rows
    index.stats.n_columns = index.n_columns
    index.stats.n_leaf_cells = index.inverted.n_cells
    index.stats.n_postings = index.inverted.n_postings
    return index


def _open_consistent(
    directory: Path, reread: Callable[[], dict], mmap: bool, manifest=None
) -> PexesoIndex:
    """:func:`_read_index` of ``manifest`` (default ``reread()``) that
    survives a concurrent commit: one that flipped and swept the epoch
    being opened makes ``reread()`` name the new, complete one, and the
    open restarts (arrays are never mixed across epochs)."""
    for attempt in range(10):
        manifest = manifest or reread()  # a missing manifest raises here
        try:
            return _read_index(directory, manifest, mmap)
        except FileNotFoundError:
            if attempt == 9:
                raise
            manifest = None
    raise AssertionError("unreachable")


# -- single indexes ---------------------------------------------------------------


def save_index(index: PexesoIndex, directory: str | Path) -> Path:
    """Persist a built index (format 5); returns the directory written.

    The write is crash-atomic: array data lands in an epoch the current
    manifest does not name, and the manifest swap is one
    ``os.replace``. A killed writer can never leave a directory that
    loads as a half-written index.

    Raises RuntimeError / ValueError as :func:`_write_epoch` does.
    """
    directory = Path(directory)
    fields = _write_epoch(index, directory)
    manifest = {"format_version": FORMAT_VERSION, **fields}
    atomic_write_text(directory / _MANIFEST, json.dumps(manifest, indent=2))
    _sweep_stale_epochs(directory, keep=fields["arrays_dir"])
    return directory


def _read_index_manifest(directory: Path) -> dict:
    path = directory / _MANIFEST
    if not path.exists():
        raise FileNotFoundError(f"no index manifest under {directory}")
    manifest = json.loads(path.read_text())
    fmt = manifest.get("format_version")
    if fmt != FORMAT_VERSION:
        raise _unsupported(str(directory), "index", fmt, FORMAT_VERSION)
    return manifest


def load_index(directory: str | Path, mmap: bool = True) -> PexesoIndex:
    """Load an index saved by :func:`save_index`.

    Args:
        mmap: open an epoch's store and run arrays (``inv_post_bits``,
            ``inv_post_cols``, ``inv_leaf_offsets``),
            with ``mmap_mode="r"`` (zero-copy; pages fault in on first
            touch). ``False`` reads them eagerly into RAM.

    Mutating a mmap-loaded index is safe: the vector store is written in
    place only once the index owns it — the first append or compaction
    compacts a read-only mmapped store into a fresh allocation — and the
    inverted index's maintenance paths (§III-E append/delete, compaction)
    build *new* arrays. The epoch's files are never written through.

    Raises:
        FileNotFoundError: when the directory lacks the expected files.
        ValueError: when the directory is in another format, including a
            format-3/4 epoch that a format-5 manifest names, or one of its
            integer arrays is not a signed integer type wide enough for
            the manifest (see the module docstring).
    """
    directory = Path(directory)
    return _open_consistent(directory, lambda: _read_index_manifest(directory), mmap)


# -- partitioned lakes ------------------------------------------------------------


def _read_lake(directory: Path) -> tuple[dict, dict[int, dict]]:
    """``partitioned.json`` plus every shard's entry, keyed by partition."""
    path = directory / _PARTITIONED_MANIFEST
    if not path.exists():
        raise FileNotFoundError(f"no partitioned manifest under {directory}")
    manifest = json.loads(path.read_text())
    fmt = manifest.get("format_version")
    if fmt != PARTITIONED_FORMAT_VERSION:
        raise _unsupported(str(directory), "lake", fmt, PARTITIONED_FORMAT_VERSION)
    return manifest, {int(p): entry for p, entry in manifest["partitions"].items()}


def load_shard(directory: Path, part: int, entry: dict, mmap: bool) -> PexesoIndex:
    """Open one partition of the lake in ``directory`` from its entry."""
    return _open_consistent(
        directory / entry["dir"], lambda: _read_lake(directory)[1][part], mmap, entry
    )


def commit_lake(
    lake, directory: str | Path, fresh: Iterable[tuple[int, PexesoIndex]] = ()
) -> None:
    """The one commit point of a partitioned lake.

    Writes a fresh epoch for every ``(partition, index)`` of ``fresh``
    (consumed lazily, so shards can be built one at a time) and for
    every other non-empty partition ``directory`` does not hold yet,
    flips ``partitioned.json`` once — naming every shard's live epoch
    next to the lake's labels and column maps — and then sweeps what the
    flipped manifest no longer names. A crash before the flip leaves
    the previous lake; any crash after it, the new one.

    In the lake's own spill directory the other partitions keep the
    epochs the lake names and the lake is pointed at the new ones.
    """
    directory = Path(directory)
    own = lake.spill_dir is not None and directory.resolve() == lake.spill_dir.resolve()
    shards = dict(lake._spilled) if own else {}

    def write(part: int, index: PexesoIndex) -> None:
        subdir = f"partition_{part}"
        shards[part] = {"dir": subdir, **_write_epoch(index, directory / subdir)}

    for part, index in fresh:
        write(part, index)
    for part, globals_ in enumerate(lake.partition_columns):
        if globals_ and part not in shards:
            write(part, lake._get_index(part)[0])

    manifest = {
        "format_version": PARTITIONED_FORMAT_VERSION,
        "metric": next(iter(shards.values()))["metric"],
        "n_pivots": lake.n_pivots,
        "levels": lake.levels,
        "pivot_method": lake.pivot_method,
        "seed": lake.seed,
        "n_partitions": lake.n_partitions,
        "partitioner": lake.partitioner,
        "kmeans_iters": lake.kmeans_iters,
        "labels": np.asarray(lake.labels).astype(int).tolist(),
        "partition_columns": [list(map(int, g)) for g in lake.partition_columns],
        "deleted_column_ids": sorted(int(c) for c in lake._deleted_ids),
        "partitions": {str(p): shards[p] for p in sorted(shards)},
    }
    atomic_write_text(directory / _PARTITIONED_MANIFEST, json.dumps(manifest, indent=2))
    if own:
        lake._spilled = shards

    live = {entry["dir"]: entry["arrays_dir"] for entry in shards.values()}
    for shard_dir in directory.glob("partition_*"):
        if shard_dir.name not in live:  # a partition of a previous lake
            shutil.rmtree(shard_dir, ignore_errors=True)
        elif shard_dir.is_dir():
            _sweep_stale_epochs(shard_dir, keep=live[shard_dir.name])
    clean_temp_artifacts(directory)


def save_partitioned(lake, directory: str | Path) -> Path:
    """Persist a fitted :class:`~repro.core.out_of_core.PartitionedPexeso`.

    One :func:`commit_lake`: a lake already spilled *into* ``directory``
    keeps its shard epochs and re-commits ``partitioned.json``; anywhere
    else every non-empty partition gets a fresh epoch. A killed saver
    leaves either the old lake or the new one.

    Raises RuntimeError when the lake has not been fitted, and
    ValueError as :func:`_write_epoch` does.
    """
    if lake.labels is None:
        raise RuntimeError("cannot save an unfitted partitioned lake")
    commit_lake(lake, directory)
    return Path(directory)


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
            With ``mmap=True`` the open is zero-copy, so worker cold
            start and failover cost milliseconds, not a full-shard read.
        mmap: open partitions memory-mapped (see :func:`load_index`).

    Raises:
        FileNotFoundError: when the directory lacks the manifest.
        ValueError: when the lake, or a shard epoch it names, is in
            another format (see :func:`load_index`).
        KeyError: when ``parts`` names a partition the lake does not have.
    """
    from repro.core.metric import get_metric
    from repro.core.out_of_core import PartitionedPexeso

    directory = Path(directory)
    manifest, shards = _read_lake(directory)
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
    lake.partition_columns = [list(map(int, g)) for g in manifest["partition_columns"]]
    lake._deleted_ids = set(map(int, manifest.get("deleted_column_ids", [])))
    lake.dim = int(next(iter(shards.values()))["dim"])
    lake._spilled = shards
    if parts is not None:
        wanted = sorted({int(p) for p in parts})
        unknown = [p for p in wanted if p not in shards]
        if unknown:
            raise KeyError(
                f"partitions {unknown} are not in the saved lake "
                f"(have: {sorted(shards)})"
            )
        for p in wanted:
            lake._resident[p] = lake._load(p)
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
    ``mmap`` controls zero-copy opening of epoch layouts.

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
