"""Crash-safe file writes for manifests and array files.

Every manifest is the single source of truth for one on-disk layout
(``manifest.json`` for an index, ``partitioned.json`` for a whole lake —
its shards have none — and ``cluster.json``), and live maintenance
rewrites them while workers may be killed at any moment (the oracle's
failover lane does exactly that). A bare ``Path.write_text`` truncates
the destination first, so a kill mid-write leaves a half-manifest that
makes the whole lake unloadable.

The fix is the classic same-directory temp file + ``os.replace`` dance:
the new content is written under a ``*.tmp-*`` name in the destination
directory (same filesystem, so the rename is atomic) and swapped in with
one ``os.replace``. Readers therefore always see either the old complete
file or the new complete file — never a truncation. Leftover temp files
from a crashed writer are ignored by loaders (their names never match
the manifest names) and swept by :func:`clean_temp_artifacts` on the
next successful save.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path

import numpy as np

#: infix marking an in-flight (not yet published) file; loaders must
#: ignore any directory entry containing it
TMP_INFIX = ".tmp-"


def _temp_sibling(path: Path) -> Path:
    """A unique temp name next to ``path`` (same dir -> atomic rename)."""
    return path.with_name(
        f"{path.name}{TMP_INFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )


def is_temp_artifact(path: str | Path) -> bool:
    """Whether a directory entry is an unpublished temp file to ignore."""
    return TMP_INFIX in Path(path).name


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    path = Path(path)
    tmp = _temp_sibling(path)
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def atomic_write_array(path: str | Path, array: np.ndarray) -> Path:
    """``np.save`` to ``path`` atomically (temp file + ``os.replace``).

    ``path`` must already carry the ``.npy`` suffix — ``np.save`` is
    pointed at an open temp file handle so it cannot append one.
    """
    path = Path(path)
    tmp = _temp_sibling(path)
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.ascontiguousarray(array))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def clean_temp_artifacts(directory: str | Path) -> int:
    """Remove leftover ``*.tmp-*`` files of crashed writers; returns count.

    Best-effort: a concurrently completing writer may have already
    renamed its temp file away, so missing entries are not errors.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for entry in directory.iterdir():
        if entry.is_file() and is_temp_artifact(entry):
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing writer
                pass
    return removed
