"""Linearized grid-cell codes: bit-interleaved (Morton / Z-order) integers.

The hierarchical grid of §III-B addresses a level-``m`` cell by ``|P|``
integer coordinates in ``[0, 2^m)``. Tuple keys make every grid and
inverted-index operation a Python dict lookup; instead each cell is
linearized into one ``int64`` *cell code* by interleaving the coordinate
bits: bit ``b`` of axis ``a`` lands at code bit ``b * n_dims + a``.

Two properties make this the right linearization for PEXESO:

* **ancestors by shifting** — the level-``(l-1)`` parent of a level-``l``
  cell is ``code >> n_dims``, so the whole ancestor chain (and any grid
  level) is derived from the leaf codes with vectorised shifts;
* **subtrees are ranges** — the leaves below a level-``l`` cell are
  exactly the codes in ``[code << s, (code + 1) << s)`` with
  ``s = n_dims * (m - l)``, so subtree traversals over *sorted* code
  arrays become ``np.searchsorted`` range lookups.

Codes use ``n_dims * levels`` bits and must fit a signed int64, which
covers every configuration the paper uses (|P| <= 5, m <= 8) with a wide
margin; :func:`check_code_width` guards the limit explicitly.
"""

from __future__ import annotations

import numpy as np

#: one sign bit and one slack bit below the int64 limit
MAX_CODE_BITS = 62


def check_code_width(n_dims: int, levels: int) -> None:
    """Raise when ``n_dims * levels`` bits do not fit an int64 cell code."""
    bits = n_dims * levels
    if bits > MAX_CODE_BITS:
        raise ValueError(
            f"cell codes need n_dims * levels = {bits} bits, more than the "
            f"{MAX_CODE_BITS} an int64 code can hold; reduce the number of "
            "pivots or grid levels"
        )


def encode_cells(coords: np.ndarray, n_dims: int, bits_per_axis: int) -> np.ndarray:
    """Interleave integer cell coordinates into int64 cell codes.

    Args:
        coords: ``(n, n_dims)`` non-negative integer coordinates, each in
            ``[0, 2^bits_per_axis)``.
        n_dims: number of axes.
        bits_per_axis: grid level of the coordinates (leaf level for leaf
            coordinates).

    Returns:
        ``(n,)`` int64 codes.
    """
    check_code_width(n_dims, bits_per_axis)
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != n_dims:
        raise ValueError(f"coords must be (n, {n_dims}), got {coords.shape}")
    codes = np.zeros(coords.shape[0], dtype=np.int64)
    for bit in range(bits_per_axis):
        for axis in range(n_dims):
            codes |= ((coords[:, axis] >> bit) & 1) << (bit * n_dims + axis)
    return codes


def decode_cells(codes: np.ndarray, n_dims: int, bits_per_axis: int) -> np.ndarray:
    """Inverse of :func:`encode_cells`: codes back to ``(n, n_dims)`` coords."""
    check_code_width(n_dims, bits_per_axis)
    codes = np.asarray(codes, dtype=np.int64)[:, None]
    coords = np.zeros((codes.shape[0], n_dims), dtype=np.int64)
    axes = np.arange(n_dims, dtype=np.int64)
    for bit in range(bits_per_axis):
        coords |= ((codes >> (bit * n_dims + axes)) & 1) << bit
    return coords


def ancestor_codes(codes: np.ndarray, n_dims: int, levels_up: int) -> np.ndarray:
    """Codes of the ancestors ``levels_up`` levels above (vectorised)."""
    if levels_up < 0:
        raise ValueError("levels_up must be non-negative")
    return np.asarray(codes, dtype=np.int64) >> (n_dims * levels_up)


def subtree_bounds(code: int, n_dims: int, levels_down: int) -> tuple[int, int]:
    """Half-open leaf-code range ``[lo, hi)`` of the subtree under ``code``."""
    shift = n_dims * levels_down
    return int(code) << shift, (int(code) + 1) << shift
