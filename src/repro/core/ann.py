"""An NSW graph over pivot-mapped columns that nominates candidate columns.

Only a single index's :meth:`~repro.core.out_of_core.LakeSearcher.search`
accepts ``ef_search``; serving, the cluster, the CLI and persistence are
exact-only. At ``ef_search=64`` the graph measured no faster than the
exact path on either ledger lake (README, "Measured and removed"); the
perf ledger's ``core.ann.*`` probe keeps measuring it.
The guarantee it keeps:

**Exact given recalled candidates.** The graph only *nominates* column
IDs; every nominated column still flows through the unchanged exact
verifier (one GEMM over the candidate rows, exact counts). A returned hit
is therefore always a true hit with its exact match count — the only
approximation is *recall*: a joinable column the graph failed to
nominate is missing from the result. Recall is measured, not assumed:
the differential oracle's ANN lane asserts zero false positives on every
seed.

Geometry
--------
One graph node per repository column, scored lexicographically::

    score(S) = ( min over query rows q of cheb(q, box(S)),
                 mean over query rows q of ||q - centroid(S)|| )

The primary score is the Chebyshev point-to-box distance in *pivot
space* (``box_min`` / ``box_max`` over the column's pivot-mapped rows).
Every row of the column lies inside the box and pivot mapping is
1-Lipschitz per coordinate (Lemma 1), so this lower-bounds the
pivot-space distance from the query to the column's *nearest* row — a
sound "can this column possibly match" filter. Pivot space is only
|P|-dimensional though, so on realistic lakes whole neighbourhoods tie
at box distance 0. The secondary score breaks those ties in the
information-rich *original embedding space*: the mean distance from the
query rows to the column centroid, a direct proxy for "does the
column's mass sit on the query's domain" (joinability needs *many*
query rows matched, hence mean over the query rather than min). Beam
search with width ``ef_search`` over the small-world graph returns the
best-scoring columns visited.

Knob semantics
--------------
``ef_search`` is the classic HNSW dial: the beam width and the number of
candidate columns nominated. ``ef_search >= n_columns`` degenerates to
nominating every column, which callers treat as "no restriction" —
results are then bit-for-bit the exact engine's. ``ef_search=None`` (the
default) means the graph is not consulted.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

import numpy as np

#: Reference beam width: small lakes (fewer columns than the beam)
#: degenerate to exact search while benchmark-size lakes see a real
#: candidate cut.
DEFAULT_EF_SEARCH = 64

#: Out-neighbours linked per node at insertion time.
DEFAULT_GRAPH_DEGREE = 8


class ColumnGraph:
    """A navigable-small-world graph over one index's columns.

    Immutable once built; index mutations (``add_column`` /
    ``delete_column``) drop the index's graph reference so stale
    nominations can never surface — ANN requests fall back to exact
    until :meth:`PexesoIndex.build_ann_graph` is called again.

    Args:
        node_columns: ``(n,)`` int64 — column ID of each node, ascending.
        centroids: ``(n, dim)`` — original-space centroid per column.
        box_min / box_max: ``(n, |P|)`` — pivot-space bounding box.
        neighbors: ``(n, max_degree)`` int64 adjacency, padded with -1.
        entry: index of the entry node (the centroid medoid).
    """

    def __init__(
        self,
        node_columns: np.ndarray,
        centroids: np.ndarray,
        box_min: np.ndarray,
        box_max: np.ndarray,
        neighbors: np.ndarray,
        entry: int,
    ):
        self.node_columns = np.asarray(node_columns, dtype=np.int64)
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.box_min = np.asarray(box_min, dtype=np.float64)
        self.box_max = np.asarray(box_max, dtype=np.float64)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.entry = int(entry)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def build(cls, index, m: int = DEFAULT_GRAPH_DEGREE) -> "ColumnGraph":
        """Build the graph from a fitted :class:`~repro.core.index.PexesoIndex`.

        Deterministic: nodes are inserted in ascending column-ID order,
        each linking to its ``m`` nearest predecessors by centroid
        distance (ties broken by insertion order) with reverse links
        added, so the graph is connected (every node reaches node 0) and
        identical across processes — which is why it need not be saved:
        a loaded index rebuilds the same graph on first use.
        """
        if index.pivot_space is None:
            raise RuntimeError("index is not built; call fit() first")
        if m < 1:
            raise ValueError("graph degree m must be >= 1")
        column_ids = np.asarray(sorted(index.column_rows), dtype=np.int64)
        n = int(column_ids.size)
        if n == 0:
            raise ValueError("cannot build an ANN graph over an empty index")
        mapped = index.mapped
        vectors = index.vectors
        n_pivots = mapped.shape[1]
        centroids = np.empty((n, vectors.shape[1]), dtype=np.float64)
        box_min = np.empty((n, n_pivots), dtype=np.float64)
        box_max = np.empty((n, n_pivots), dtype=np.float64)
        for i, rows in enumerate(index.column_rows.values()):  # in ID order
            centroids[i] = np.asarray(vectors[rows], dtype=np.float64).mean(axis=0)
            box_min[i] = mapped[rows].min(axis=0)
            box_max[i] = mapped[rows].max(axis=0)

        adjacency: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            d = np.linalg.norm(centroids[:i] - centroids[i], axis=1)
            order = np.argsort(d, kind="stable")[: min(m, i)]
            for j in order.tolist():
                adjacency[i].append(j)
                adjacency[j].append(i)
        max_degree = max(1, max(len(a) for a in adjacency) if n > 1 else 1)
        neighbors = np.full((n, max_degree), -1, dtype=np.int64)
        for i, adj in enumerate(adjacency):
            if adj:
                neighbors[i, : len(adj)] = adj

        mean = centroids.mean(axis=0)
        entry = int(np.argmin(np.linalg.norm(centroids - mean, axis=1)))
        return cls(column_ids, centroids, box_min, box_max, neighbors, entry)

    # -- queries --------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.node_columns.size)

    def covers_all(self, ef_search: int) -> bool:
        """True when the beam is at least the whole lake — exact territory."""
        return int(ef_search) >= self.n_nodes

    def _scores(
        self,
        nodes: np.ndarray,
        query_vectors: np.ndarray,
        query_mapped: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (box score, centroid score) for one query.

        The primary score is the min-over-query-rows Chebyshev
        point-to-box distance in pivot space — 0 when any query row
        falls inside the column's box, so on realistic lakes whole
        neighbourhoods tie at 0. The secondary score breaks those ties
        by the mean Euclidean distance from the query rows to the
        column centroid in the original embedding space, preferring the
        column whose mass actually sits on the query's domain.
        """
        lo = self.box_min[nodes][:, None, :]
        hi = self.box_max[nodes][:, None, :]
        q = query_mapped[None, :, :]
        outside = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        box = outside.max(axis=2).min(axis=1)
        diff = self.centroids[nodes][:, None, :] - query_vectors[None, :, :]
        cent = np.sqrt((diff * diff).sum(axis=2)).mean(axis=1)
        return box, cent

    def candidates(
        self,
        query_vectors: np.ndarray,
        query_mapped: np.ndarray,
        ef_search: int,
    ) -> np.ndarray:
        """Column IDs nominated for one query, ascending.

        Standard HNSW-style best-first beam search: expand the closest
        unexpanded node, stop once the closest frontier node is worse
        than the worst of the ``ef_search`` best seen. With
        ``ef_search >= n_nodes`` every column is returned (the graph is
        connected by construction), which downstream code treats as "no
        restriction" so the exact pipeline runs untouched.
        """
        ef = int(ef_search)
        if ef < 1:
            raise ValueError("ef_search must be >= 1")
        n = self.n_nodes
        if ef >= n:
            return self.node_columns.copy()
        query_vectors = np.atleast_2d(np.asarray(query_vectors, dtype=np.float64))
        query_mapped = np.atleast_2d(np.asarray(query_mapped, dtype=np.float64))

        entry = self.entry
        e_box, e_cent = self._scores(
            np.asarray([entry]), query_vectors, query_mapped
        )
        entry_score = (float(e_box[0]), float(e_cent[0]))
        visited = np.zeros(n, dtype=bool)
        visited[entry] = True
        # frontier: min-heap of (box, cent, node); best: max-heap of the
        # ef best via negated scores. Lexicographic (box, cent) ordering
        # with the node id as the final deterministic tie-break.
        frontier = [(entry_score[0], entry_score[1], entry)]
        best = [(-entry_score[0], -entry_score[1], entry)]
        while frontier:
            box, cent, node = heapq.heappop(frontier)
            if len(best) >= ef and (box, cent) > (-best[0][0], -best[0][1]):
                break
            around = self.neighbors[node]
            around = around[(around >= 0) & ~visited[np.maximum(around, 0)]]
            if around.size == 0:
                continue
            visited[around] = True
            n_box, n_cent = self._scores(around, query_vectors, query_mapped)
            for b, c, v in zip(n_box.tolist(), n_cent.tolist(), around.tolist()):
                if len(best) < ef or (b, c) < (-best[0][0], -best[0][1]):
                    heapq.heappush(frontier, (b, c, v))
                    heapq.heappush(best, (-b, -c, v))
                    if len(best) > ef:
                        heapq.heappop(best)
        picked = np.asarray(sorted(v for _, _, v in best), dtype=np.intp)
        return self.node_columns[picked]


def candidate_lists(
    index, queries: Sequence[np.ndarray], ef_search: Optional[int]
) -> Optional[list[np.ndarray]]:
    """Per-query candidate column IDs for one index, or ``None`` for exact.

    ``None`` comes back in every situation where the exact pipeline must
    run untouched: the knob is off, the index has no usable graph (never
    built, or dropped by a mutation — the documented fall-back-to-exact
    until rebuilt), or the beam covers the whole lake (``ef_search`` →
    max must be bit-for-bit the exact engine).
    """
    if ef_search is None:
        return None
    graph = index.ensure_ann_graph()
    if graph is None or graph.covers_all(ef_search):
        return None
    out = []
    for q in queries:
        vectors = np.atleast_2d(np.asarray(q, dtype=np.float64))
        out.append(
            graph.candidates(
                vectors, index.pivot_space.map_vectors(vectors), ef_search
            )
        )
    return out


def measure_recall(exact_ids, approx_ids) -> float:
    """|approx ∩ exact| / |exact|; 1.0 when the exact answer is empty."""
    exact = set(exact_ids)
    if not exact:
        return 1.0
    return len(exact & set(approx_ids)) / len(exact)
