"""Optional compiled kernels for the search hot path (Numba-accelerated).

The verifier is NumPy-vectorised but still pays Python orchestration per
row block and allocates boolean intermediates for every predicate. This
module provides drop-in kernels for its inner predicates — the
row-aligned Lemma 1/2 masks and the sequential replay of a "firing"
column — compiled with Numba when it is installed, with pure-NumPy
fallbacks that stay the default otherwise.

**Bit-identity contract.** Every kernel is an elementwise float
comparison (no floating-point reductions, whose summation order could
differ between backends) or pure integer bookkeeping, so the numba and
numpy backends produce *identical* outputs on identical inputs — not
merely close ones. Exact distances are deliberately **not** compiled:
they keep going through :meth:`repro.core.metric.Metric.distances_to`
on both backends, so the arithmetic (including NumPy's pairwise
summation order) is shared and the 24-seed differential oracle can pin
all backends to the same bits.

Backend selection:

* default — ``numba`` when importable, else ``numpy``;
* ``REPRO_KERNELS=numpy`` (or ``numba``) in the environment overrides
  the default at import time;
* :func:`set_backend` / :func:`use_backend` switch at runtime (tests
  cross-check the two backends against each other this way).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

try:  # optional dependency: never required, never auto-installed
    import numba  # type: ignore

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised on numba-less CI
    numba = None
    HAVE_NUMBA = False

BACKENDS = ("numpy", "numba")


def _initial_backend() -> str:
    wanted = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if wanted in BACKENDS:
        if wanted == "numba" and not HAVE_NUMBA:
            return "numpy"
        return wanted
    return "numba" if HAVE_NUMBA else "numpy"


_active_backend = _initial_backend()


def get_backend() -> str:
    """The active kernel backend (``"numpy"`` or ``"numba"``)."""
    return _active_backend


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the previously active one.

    Raises:
        ValueError: for an unknown backend name.
        RuntimeError: when ``"numba"`` is requested but not installed.
    """
    global _active_backend
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; known: {BACKENDS}")
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError(
            "the numba backend was requested but numba is not installed; "
            "pip install numba (optional) or use the numpy backend"
        )
    previous = _active_backend
    _active_backend = name
    return previous


@contextmanager
def use_backend(name: str):
    """Context manager form of :func:`set_backend`."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _use_numba() -> bool:
    return _active_backend == "numba" and HAVE_NUMBA


# --------------------------------------------------------------------------
# NumPy reference implementations (always available, always the fallback)
# --------------------------------------------------------------------------


def _lemma1_pair_np(x_mapped: np.ndarray, q_mapped: np.ndarray, tau: float) -> np.ndarray:
    return (np.abs(x_mapped - q_mapped) > tau).any(axis=1)


def _lemma2_pair_np(x_mapped: np.ndarray, q_mapped: np.ndarray, tau: float) -> np.ndarray:
    return ((x_mapped + q_mapped) <= tau).any(axis=1)


def _replay_column_py(
    ep_cand,
    ep_match,
    cnt,
    mis,
    joi,
    t_need,
    miss_bound,
    use_lemma7,
    early_accept,
):
    dead = False
    lemma7_skips = 0
    early_accepts = 0
    columns_verified = 0
    for i in range(ep_cand.shape[0]):
        is_cand = bool(ep_cand[i])
        if use_lemma7 and dead:
            if is_cand:
                lemma7_skips += 1
            continue
        if early_accept and joi:
            if is_cand:
                early_accepts += 1
            continue
        if is_cand:
            columns_verified += 1
        if ep_match[i]:
            cnt += 1
            if cnt >= t_need:
                joi = True
        else:
            mis += 1
            if use_lemma7 and mis > miss_bound:
                dead = True
    return cnt, mis, joi, dead, lemma7_skips, early_accepts, columns_verified


# --------------------------------------------------------------------------
# Numba-compiled implementations (defined only when numba is importable)
# --------------------------------------------------------------------------

if HAVE_NUMBA:  # pragma: no cover - requires the optional dependency

    @numba.njit(cache=True)
    def _lemma1_pair_nb(x_mapped, q_mapped, tau):
        n, d = x_mapped.shape
        broadcast_q = q_mapped.shape[0] == 1
        out = np.zeros(n, dtype=np.bool_)
        for i in range(n):
            qi = 0 if broadcast_q else i
            for j in range(d):
                delta = x_mapped[i, j] - q_mapped[qi, j]
                if delta > tau or -delta > tau:
                    out[i] = True
                    break
        return out

    @numba.njit(cache=True)
    def _lemma2_pair_nb(x_mapped, q_mapped, tau):
        n, d = x_mapped.shape
        broadcast_q = q_mapped.shape[0] == 1
        out = np.zeros(n, dtype=np.bool_)
        for i in range(n):
            qi = 0 if broadcast_q else i
            for j in range(d):
                if x_mapped[i, j] + q_mapped[qi, j] <= tau:
                    out[i] = True
                    break
        return out

    _replay_column_nb = numba.njit(cache=True)(_replay_column_py)


# --------------------------------------------------------------------------
# Dispatching entry points (what the verifier calls)
# --------------------------------------------------------------------------


def lemma1_pair_mask(
    x_mapped: np.ndarray, q_mapped: np.ndarray, tau: float
) -> np.ndarray:
    """Row-aligned Lemma 1 pruning mask (see ``filtering.lemma1_filter_mask``).

    ``x_mapped`` is ``(n, d)``; ``q_mapped`` is ``(n, d)`` or ``(1, d)``
    (broadcast). Returns a boolean ``(n,)`` mask of pruned rows.
    """
    if _use_numba() and x_mapped.size:
        return _lemma1_pair_nb(
            np.ascontiguousarray(x_mapped, dtype=np.float64),
            np.ascontiguousarray(q_mapped, dtype=np.float64),
            float(tau),
        )
    return _lemma1_pair_np(x_mapped, q_mapped, tau)


def lemma2_pair_mask(
    x_mapped: np.ndarray, q_mapped: np.ndarray, tau: float
) -> np.ndarray:
    """Row-aligned Lemma 2 acceptance mask (same shapes as Lemma 1)."""
    if _use_numba() and x_mapped.size:
        return _lemma2_pair_nb(
            np.ascontiguousarray(x_mapped, dtype=np.float64),
            np.ascontiguousarray(q_mapped, dtype=np.float64),
            float(tau),
        )
    return _lemma2_pair_np(x_mapped, q_mapped, tau)


def replay_column(
    ep_cand: np.ndarray,
    ep_match: np.ndarray,
    cnt: int,
    mis: int,
    joi: bool,
    t_need: int,
    miss_bound: int,
    use_lemma7: bool,
    early_accept: bool,
) -> tuple[int, int, bool, bool, int, int, int]:
    """Sequential replay of one firing column's episodes (verifier).

    Pure integer bookkeeping mirroring Algorithm 2's per-episode gating;
    returns ``(count, misses, joinable, dead, lemma7_skips,
    early_accepts, columns_verified)``.
    """
    if _use_numba() and ep_cand.size:
        return _replay_column_nb(
            np.ascontiguousarray(ep_cand, dtype=np.bool_),
            np.ascontiguousarray(ep_match, dtype=np.bool_),
            int(cnt),
            int(mis),
            bool(joi),
            int(t_need),
            int(miss_bound),
            bool(use_lemma7),
            bool(early_accept),
        )
    return _replay_column_py(
        ep_cand, ep_match, cnt, mis, joi, t_need, miss_bound,
        use_lemma7, early_accept,
    )
