"""All-pairs joinable-column discovery within one repository.

Data-lake curation needs the full joinability graph, not one query's
neighbourhood: for *every* indexed column, which other columns is it
joinable to? This runs Algorithm 3 with each column as the query
(§II-A's option 3 taken to the repository level) and assembles a
directed joinability graph — directed because ``jn`` is asymmetric
(§II-B).

The repository index is built once and the |R| searches run as
fixed-size :class:`~repro.core.engine.BatchSearch` batches, which is
exactly the "index once, search many times" regime PEXESO's related-work
section argues indexing methods should support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.index import PexesoIndex
from repro.core.engine import BatchSearch
from repro.core.search import AblationFlags
from repro.core.stats import SearchStats

#: query columns per engine batch in :func:`discover_joinable_pairs`
_BATCH_QUERIES = 32


@dataclass(frozen=True)
class JoinableEdge:
    """One directed edge of the joinability graph."""

    query_column: int
    target_column: int
    match_count: int
    joinability: float


@dataclass
class JoinabilityGraph:
    """All joinable (query, target) pairs at fixed thresholds."""

    edges: list[JoinableEdge]
    tau: float
    joinability: float
    stats: SearchStats

    def neighbours(self, column_id: int) -> list[JoinableEdge]:
        """Outgoing edges of one column."""
        return [e for e in self.edges if e.query_column == column_id]

    def undirected_pairs(self) -> set[tuple[int, int]]:
        """Unordered pairs joinable in at least one direction."""
        return {
            (min(e.query_column, e.target_column), max(e.query_column, e.target_column))
            for e in self.edges
        }

    def mutual_pairs(self) -> set[tuple[int, int]]:
        """Unordered pairs joinable in *both* directions."""
        directed = {(e.query_column, e.target_column) for e in self.edges}
        return {
            (a, b)
            for a, b in directed
            if a < b and (b, a) in directed
        }

    def __len__(self) -> int:
        return len(self.edges)

    def to_networkx(self, directed: bool = True):
        """Export as a networkx graph for curation analytics.

        Edges carry ``joinability`` and ``match_count`` attributes, so
        standard tooling applies directly: connected components group
        tables about the same entities, in-degree finds hub tables, etc.
        """
        import networkx as nx

        graph = nx.DiGraph() if directed else nx.Graph()
        for edge in self.edges:
            graph.add_edge(
                edge.query_column,
                edge.target_column,
                joinability=edge.joinability,
                match_count=edge.match_count,
            )
        return graph

    def table_clusters(self) -> list[set[int]]:
        """Groups of transitively joinable columns (weakly connected
        components), largest first — the 'datasets about the same thing'
        view a lake curator wants."""
        import networkx as nx

        graph = self.to_networkx(directed=True)
        components = nx.weakly_connected_components(graph)
        return sorted((set(c) for c in components), key=len, reverse=True)


def discover_joinable_pairs(
    index: PexesoIndex,
    tau: float,
    joinability: float | int,
    include_self: bool = False,
    flags: Optional[AblationFlags] = None,
    column_ids: Optional[list[int]] = None,
) -> JoinabilityGraph:
    """Compute the joinability graph of an indexed repository.

    Args:
        index: a built :class:`~repro.core.index.PexesoIndex`.
        tau: distance threshold.
        joinability: T as a fraction of each query column's size or an
            absolute count.
        include_self: keep the trivial self-edges (every column is fully
            joinable to itself at any τ >= 0).
        flags: ablation switches forwarded to each search.
        column_ids: restrict the *query* side to these columns (targets
            are always the whole repository).

    Returns:
        A :class:`JoinabilityGraph` with one edge per joinable pair and
        merged search statistics.
    """
    if index.pivot_space is None:
        raise RuntimeError("index is not built; call fit() first")
    if column_ids is None:
        # every column's store rows in one pass over the postings, where a
        # lookup per column walks them once per column
        rows_of = dict(index.column_rows.items())
        queries = sorted(rows_of)
    else:  # a chosen few: one lookup each
        rows_of, queries = index.column_rows, column_ids
    for query_column in queries:
        if query_column not in rows_of:
            raise KeyError(f"unknown column id {query_column}")
    # Batches of query columns share tau, hence one pivot mapping and one
    # blocking pass each; T resolves per query size. Slicing bounds the
    # verifier state, which is O(batch x touched columns).
    engine = BatchSearch(index, flags=flags)
    stats = SearchStats()
    edges: list[JoinableEdge] = []
    for start in range(0, len(queries), _BATCH_QUERIES):
        chunk = queries[start : start + _BATCH_QUERIES]
        batch = engine.search_many(
            [index.vectors[rows_of[c]] for c in chunk], tau, joinability
        )
        stats.merge(batch.stats)
        edges.extend(
            JoinableEdge(
                query_column=query_column,
                target_column=hit.column_id,
                match_count=hit.match_count,
                joinability=hit.joinability,
            )
            for query_column, result in zip(chunk, batch.results)
            for hit in result.joinable
            if include_self or hit.column_id != query_column
        )
    return JoinabilityGraph(
        edges=edges, tau=float(tau), joinability=float(joinability), stats=stats
    )
