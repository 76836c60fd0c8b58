"""Verification with the inverted index — Algorithm 2 (paper §III-C).

For every query vector the candidate leaf cells are resolved to columns
through the inverted index and traversed document-at-a-time (columns in
increasing ID order). Within a column the surviving vectors are checked
with point-level pivot filtering (Lemma 1), pivot matching (Lemma 2) and,
only when both are inconclusive, an exact distance computation.

:func:`verify_row_blocks` is the only implementation: the rows of one or
many query columns are processed in NumPy row-blocks with per-(query,
column) state arrays. Every search path (``pexeso_search``, ``BatchSearch``,
the partitioned shards, top-k) runs it; ``row_block_size=1`` is the paper's
Algorithm 2 verbatim, because a one-row block cannot fire mid-block.

Two early-termination rules from the paper:

* **early accept** — once a column's match count reaches the joinability
  count ``T`` it is marked joinable and skipped from then on;
* **Lemma 7** — once a column has accumulated more than ``|Q| - T``
  provably non-matching query vectors it can never become joinable and is
  skipped from then on.

Mismatch accounting: a query vector ``q`` is counted as a mismatch for
column ``S`` only after *every* candidate vector of ``S`` for ``q`` has
been refuted — blocking guarantees the vectors of ``S`` outside ``q``'s
candidate cells cannot match, so this matches Lemma 7's set ``U`` exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.blocker import BlockResult
from repro.core.filtering import lemma1_filter_mask, lemma2_match_mask
from repro.core.inverted_index import InvertedIndex
from repro.core.metric import Metric
from repro.core.stats import SearchStats

#: query rows per vectorised verification block, for every caller
DEFAULT_ROW_BLOCK_SIZE = 8


@dataclass
class VerifyResult:
    """Per-column tallies produced by Algorithm 2.

    ``match_counts[c]`` is the number of query vectors with at least one
    matching vector in column ``c``. Under early termination the count of
    a joinable column is a lower bound (it stopped at ``t_count``); with
    ``exact_counts=True`` all counts are exact.
    """

    match_counts: dict[int, int] = field(default_factory=dict)
    mismatch_counts: dict[int, int] = field(default_factory=dict)
    joinable: set[int] = field(default_factory=set)
    exact: bool = False


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
    """Sequential replay of one firing column's episodes.

    Pure integer bookkeeping mirroring Algorithm 2's per-episode gating;
    returns ``(count, misses, joinable, dead, lemma7_skips,
    early_accepts, columns_verified)``.
    """
    dead = False
    lemma7_skips = 0
    early_accepts = 0
    columns_verified = 0
    for is_cand, is_match in zip(ep_cand.tolist(), ep_match.tolist()):
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
        if is_match:
            cnt += 1
            if cnt >= t_need:
                joi = True
        else:
            mis += 1
            if use_lemma7 and mis > miss_bound:
                dead = True
    return cnt, mis, joi, dead, lemma7_skips, early_accepts, columns_verified


def verify_row_blocks(
    block_result: BlockResult,
    inverted_index: InvertedIndex,
    query_vectors: np.ndarray,
    query_mapped: np.ndarray,
    target_vectors: np.ndarray,
    target_mapped: np.ndarray,
    metric: Metric,
    tau: float,
    t_counts: Sequence[int],
    query_sizes: Sequence[int],
    query_of_row: np.ndarray,
    stats: Optional[SearchStats] = None,
    per_query_stats: Optional[list[SearchStats]] = None,
    use_lemma1: bool = True,
    use_lemma2: bool = True,
    use_lemma7: bool = True,
    early_accept: bool = True,
    exact_counts: bool = False,
    row_block_size: int = DEFAULT_ROW_BLOCK_SIZE,
    allowed_columns: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> list[VerifyResult]:
    """Vectorised Algorithm 2 over the stacked rows of a *batch* of queries.

    Three layers of NumPy batching:

    * rows are consumed ``row_block_size`` at a time, turning one
      Lemma 1/2 + distance evaluation per (row, column) episode into one
      evaluation per block over *all* episodes of all queries in it;
    * per-(query, column) verification state (match count, mismatch count,
      joinable, dead) lives in flat arrays over the *touched* columns —
      the column IDs reachable from this batch's blocking output are
      compacted to a dense range first, so memory scales with what the
      batch can actually see, not with every column ID ever assigned;
    * early termination is decided per block: columns that cannot cross
      the joinability threshold T or the Lemma 7 mismatch bound inside the
      block take a pure array update, and only the rare "firing" columns
      are replayed episode-by-episode with the sequential rules.

    Exactness: the returned joinable sets, match counts (including the
    clamping under early termination) and mismatch counts do not depend
    on ``row_block_size`` or on which other queries share the batch:
    gating follows the row-at-a-time order of Algorithm 2, and exact
    distances go through one
    :meth:`~repro.core.metric.Metric.distances_to` call per query row.
    Only the work counters depend on the block size: episodes of a
    column that fires *mid-block* were already pushed through the
    batched Lemma 2 / Lemma 1 / distance evaluation before the replay
    discovers that Algorithm 2 would have skipped them, so
    ``distance_computations``, ``lemma1_filtered`` and ``lemma2_matched``
    can exceed the ``row_block_size=1`` counts by at most one block's
    worth per firing column (the skip counters ``lemma7_skips`` /
    ``early_accepts`` still mirror the row-at-a-time decisions).

    Args:
        block_result: blocking output over *global* (stacked) rows.
        query_vectors / query_mapped: all queries' rows stacked
            ``(R, dim)`` / ``(R, |P|)``.
        t_counts: per-query joinability threshold as absolute counts.
        query_sizes: per-query |Q| (rows per query column).
        query_of_row: ``(R,)`` map from global row to query index;
            rows of one query must be contiguous and ascending.
        stats: aggregate counters for the whole batch.
        per_query_stats: optional per-query counter objects (parallel to
            ``query_sizes``); each receives only its query's share.
        row_block_size: rows per processing block.
        allowed_columns: optional per-query ANN candidate restriction —
            one array of allowed column IDs per query (or ``None`` for
            "all columns" on that query). A query's episodes touching a
            column outside its set are dropped before skip accounting,
            evaluation and state updates, exactly as if blocking had
            never surfaced them; allowed columns verify bit-identically
            to the unrestricted run.

    Returns:
        One :class:`VerifyResult` per query, in query order.
    """
    stats = stats if stats is not None else SearchStats()
    started = time.perf_counter()
    lemma_seconds = 0.0  # time inside the Lemma 1/2 masks
    if row_block_size < 1:
        raise ValueError("row_block_size must be >= 1")
    n_queries = len(query_sizes)
    if per_query_stats is not None and len(per_query_stats) != n_queries:
        raise ValueError("per_query_stats must have one entry per query")
    if exact_counts:
        early_accept = False
        use_lemma7 = False

    t_arr = np.asarray(t_counts, dtype=np.int64)
    sizes_arr = np.asarray(query_sizes, dtype=np.int64)
    max_miss = sizes_arr - t_arr  # mismatches beyond this kill the column
    query_of_row = np.asarray(query_of_row, dtype=np.intp)

    # per-query counter accumulators, flushed into the stats objects once
    acc = {
        name: np.zeros(n_queries, dtype=np.int64)
        for name in (
            "distance_computations",
            "lemma1_filtered",
            "lemma2_matched",
            "lemma7_skips",
            "early_accepts",
            "columns_verified",
        )
    }

    rows = np.union1d(block_result.match.rows, block_result.candidate.rows)
    n_rows_total = int(query_of_row.size)

    # Rows sharing a grid cell resolve identical cell lists; resolve each
    # distinct list once into flat arrays (column IDs, their target rows
    # concatenated, and per-column segment lengths) — one searchsorted
    # range gather each over the CSR inverted index. ``row_keys[kind][i]``
    # is the cache key of ``rows[i]``'s cells of that kind (None: none).
    resolve_cache: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    col_arrays: list[np.ndarray] = []
    row_keys: list[list[Optional[bytes]]] = []
    for csr in (block_result.match, block_result.candidate):
        keys: list[Optional[bytes]] = [None] * rows.size
        bounds = zip(csr.starts[:-1].tolist(), csr.starts[1:].tolist())
        for at, (lo, hi) in zip(np.searchsorted(rows, csr.rows).tolist(), bounds):
            cells = csr.cells[lo:hi]
            keys[at] = key = cells.tobytes()
            if key in resolve_cache:
                continue
            cols, flat, lens = inverted_index.columns_in_cells_arrays(cells)
            resolve_cache[key] = (cols, flat, lens)
            col_arrays.append(cols)
        row_keys.append(keys)
    match_keys, candidate_keys = row_keys
    rows = rows.tolist()

    # Compact the touched column IDs to a dense range so the state arrays
    # are O(batch x touched columns), not O(batch x all columns ever).
    touched = (
        np.unique(np.concatenate(col_arrays))
        if col_arrays
        else np.zeros(0, dtype=np.int64)
    )
    for key, (cols, flat, lens) in resolve_cache.items():
        resolve_cache[key] = (np.searchsorted(touched, cols), flat, lens)
    resolve = resolve_cache.__getitem__

    # Per-(query, touched column) admission mask for the ANN candidate
    # restriction; None means every episode is admitted.
    allowed_flat: Optional[np.ndarray] = None
    if allowed_columns is not None:
        if len(allowed_columns) != n_queries:
            raise ValueError("allowed_columns must have one entry per query")
        allowed_flat = np.ones(n_queries * max(1, int(touched.size)), dtype=bool)
        for q_idx, allowed in enumerate(allowed_columns):
            if allowed is None:
                continue
            mask = np.isin(touched, np.asarray(allowed, dtype=np.int64))
            allowed_flat[q_idx * touched.size : (q_idx + 1) * touched.size] = mask

    C = max(1, int(touched.size))
    counts = np.zeros(n_queries * C, dtype=np.int64)
    misses = np.zeros(n_queries * C, dtype=np.int64)
    joinable = np.zeros(n_queries * C, dtype=bool)
    dead = np.zeros(n_queries * C, dtype=bool)

    for start in range(0, len(rows), row_block_size):
        block_rows = rows[start : start + row_block_size]

        # -- episode assembly: one episode per (row, column) pair, in the
        # sequential processing order (rows ascending; within a row the
        # blocking-proven matches come first, as in Alg. 2 l.1–3). All
        # per-episode structures are cached arrays, no per-episode Python.
        seg_cols: list[np.ndarray] = []  # column IDs of one (row, kind) segment
        seg_row: list[int] = []
        seg_size: list[int] = []
        seg_kind: list[bool] = []
        pair_rows_parts: list[np.ndarray] = []
        cand_lens_parts: list[np.ndarray] = []
        for at, r in enumerate(block_rows, start):
            mkey = match_keys[at]
            if mkey is not None:
                mcols, _, _ = resolve(mkey)
                if mcols.size:
                    seg_cols.append(mcols)
                    seg_row.append(r)
                    seg_size.append(mcols.size)
                    seg_kind.append(True)
            ckey = candidate_keys[at]
            if ckey is not None:
                ccols, flat, lens = resolve(ckey)
                if ccols.size:
                    seg_cols.append(ccols)
                    seg_row.append(r)
                    seg_size.append(ccols.size)
                    seg_kind.append(False)
                    pair_rows_parts.append(flat)
                    cand_lens_parts.append(lens)
        if not seg_cols:
            continue
        sizes_seg = np.asarray(seg_size, dtype=np.intp)
        qrow_a = np.repeat(np.asarray(seg_row, dtype=np.intp), sizes_seg)
        kind_a = np.repeat(np.asarray(seg_kind, dtype=bool), sizes_seg)
        q_of_ep = query_of_row[qrow_a]
        key_a = np.concatenate(seg_cols) + q_of_ep.astype(np.int64) * C
        cand_mask = ~kind_a
        cand_idx = np.nonzero(cand_mask)[0]
        cand_lens = (
            np.concatenate(cand_lens_parts)
            if cand_lens_parts
            else np.zeros(0, dtype=np.intp)
        )
        pair_rows_all = (
            np.concatenate(pair_rows_parts)
            if pair_rows_parts
            else np.zeros(0, dtype=np.intp)
        )

        # A column appearing in both lists of one row is counted once, via
        # the match path.
        removed = np.zeros(key_a.size, dtype=bool)
        if cand_idx.size and kind_a.any():
            combo = key_a * n_rows_total + qrow_a
            dup = np.isin(combo[cand_idx], combo[kind_a])
            removed[cand_idx[dup]] = True
        # Episodes outside a query's ANN candidate set are dropped before
        # skip accounting and evaluation, so no counter or state may move.
        if allowed_flat is not None:
            removed |= ~allowed_flat[key_a]

        # -- block-start skips: columns already dead (Lemma 7) or already
        # accepted are exactly what Algorithm 2 skips.
        dead_skip = dead[key_a] & ~removed
        acc_skip = (
            joinable[key_a] & ~dead_skip & ~removed
            if early_accept
            else np.zeros_like(dead_skip)
        )
        skip = dead_skip | acc_skip
        if dead_skip.any():
            np.add.at(acc["lemma7_skips"], q_of_ep[dead_skip & cand_mask], 1)
        if acc_skip.any():
            np.add.at(acc["early_accepts"], q_of_ep[acc_skip & cand_mask], 1)
        active = ~removed & ~skip

        # -- one batched Lemma 2 / Lemma 1 / distance evaluation for every
        # candidate episode of the block (Alg. 2 l.4–20, all rows at once).
        ep_done = np.zeros(key_a.size, dtype=bool)
        eval_ep = active & cand_mask
        pair_ep_all = np.repeat(cand_idx, cand_lens)
        pair_keep = eval_ep[pair_ep_all]
        if pair_keep.any():
            pair_ep = pair_ep_all[pair_keep]
            pair_t = pair_rows_all[pair_keep]
            pair_qrow = qrow_a[pair_ep]
            q_of_pair = q_of_ep[pair_ep]
            t_map = target_mapped[pair_t]
            q_map = query_mapped[pair_qrow]
            pair_hit = np.zeros(pair_t.size, dtype=bool)
            if use_lemma2:
                lemma_started = time.perf_counter()
                pair_hit = lemma2_match_mask(t_map, q_map, tau)
                lemma_seconds += time.perf_counter() - lemma_started
                np.add.at(acc["lemma2_matched"], q_of_pair[pair_hit], 1)
                np.logical_or.at(ep_done, pair_ep[pair_hit], True)
            undecided = ~pair_hit & ~ep_done[pair_ep]
            if use_lemma1 and undecided.any():
                u = np.nonzero(undecided)[0]
                lemma_started = time.perf_counter()
                pruned = lemma1_filter_mask(t_map[u], q_map[u], tau)
                lemma_seconds += time.perf_counter() - lemma_started
                np.add.at(acc["lemma1_filtered"], q_of_pair[u[pruned]], 1)
                undecided[u[pruned]] = False
            if undecided.any():
                sv = np.nonzero(undecided)[0]
                # One distances_to call per query row, so the arithmetic
                # does not depend on the block size or the batch.
                # pair_qrow is non-decreasing, so rows form contiguous runs.
                sv_qrow = pair_qrow[sv]
                distances = np.empty(sv.size)
                starts = np.nonzero(np.diff(sv_qrow) != 0)[0] + 1
                bounds = np.concatenate(([0], starts, [sv.size]))
                for lo_b, hi_b in zip(bounds[:-1], bounds[1:]):
                    distances[lo_b:hi_b] = metric.distances_to(
                        query_vectors[sv_qrow[lo_b]],
                        target_vectors[pair_t[sv[lo_b:hi_b]]],
                    )
                np.add.at(acc["distance_computations"], q_of_pair[sv], 1)
                ok = sv[distances <= tau]
                np.logical_or.at(ep_done, pair_ep[ok], True)
        ep_matched = kind_a | ep_done

        # -- state update. Columns that cannot fire (cross T or the
        # Lemma 7 bound) inside this block take the pure array path;
        # firing columns are replayed with the exact sequential gating.
        sim_idx = np.nonzero(active)[0]
        if sim_idx.size == 0:
            continue
        keys = key_a[sim_idx]
        matched = ep_matched[sim_idx]
        kinds = kind_a[sim_idx]
        q_sim = q_of_ep[sim_idx]
        uniq, inv = np.unique(keys, return_inverse=True)
        tot = np.bincount(inv)
        tot_m = np.bincount(inv, weights=matched).astype(np.int64)
        tot_x = tot - tot_m
        qk = (uniq // C).astype(np.intp)
        fire = np.zeros(uniq.size, dtype=bool)
        if early_accept:
            fire |= (counts[uniq] + tot_m) >= t_arr[qk]
        if use_lemma7:
            fire |= (misses[uniq] + tot_x) > max_miss[qk]
        safe = ~fire
        safe_keys = uniq[safe]
        counts[safe_keys] += tot_m[safe]
        misses[safe_keys] += tot_x[safe]
        joinable[safe_keys] |= counts[safe_keys] >= t_arr[qk[safe]]
        fired_ep = fire[inv]
        np.add.at(acc["columns_verified"], q_sim[~kinds & ~fired_ep], 1)

        if fire.any():
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            fired_keys = uniq[fire]
            lows = np.searchsorted(sorted_keys, fired_keys, side="left")
            highs = np.searchsorted(sorted_keys, fired_keys, side="right")
            for k, lo, hi in zip(fired_keys.tolist(), lows.tolist(), highs.tolist()):
                eps = order[lo:hi]  # episode positions, original order
                q_idx = k // C
                # dead keys were skipped at block start, so the replay
                # starts live
                cnt, mis, joi, dd, l7, ea, cv = replay_column(
                    ~kinds[eps],
                    matched[eps],
                    int(counts[k]),
                    int(misses[k]),
                    bool(joinable[k]),
                    int(t_arr[q_idx]),
                    int(max_miss[q_idx]),
                    use_lemma7,
                    early_accept,
                )
                acc["lemma7_skips"][q_idx] += l7
                acc["early_accepts"][q_idx] += ea
                acc["columns_verified"][q_idx] += cv
                counts[k] = cnt
                misses[k] = mis
                joinable[k] = joi
                if dd:
                    dead[k] = True

    results: list[VerifyResult] = []
    for q_idx in range(n_queries):
        seg = slice(q_idx * C, (q_idx + 1) * C)
        seg_counts = counts[seg]
        seg_miss = misses[seg]
        verdict = VerifyResult(exact=exact_counts)
        verdict.match_counts = {
            int(touched[c]): int(seg_counts[c]) for c in np.nonzero(seg_counts)[0]
        }
        verdict.mismatch_counts = {
            int(touched[c]): int(seg_miss[c]) for c in np.nonzero(seg_miss)[0]
        }
        verdict.joinable = {int(touched[c]) for c in np.nonzero(joinable[seg])[0]}
        results.append(verdict)

    elapsed = time.perf_counter() - started
    stats.verification_seconds += elapsed
    # disjoint stage split: lemma masks vs. the rest of verify,
    # so per-stage timings sum to (at most) the wall clock
    stats.stage_seconds.add("lemma_filter", lemma_seconds)
    stats.stage_seconds.add("verify", max(0.0, elapsed - lemma_seconds))
    for name, arr in acc.items():
        setattr(stats, name, getattr(stats, name) + int(arr.sum()))
    if per_query_stats is not None:
        for q_idx, query_stats in enumerate(per_query_stats):
            for name, arr in acc.items():
                setattr(query_stats, name, getattr(query_stats, name) + int(arr[q_idx]))
    return results
