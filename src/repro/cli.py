"""Command-line interface for the PEXESO framework.

The subcommands mirror the offline/online split of Fig. 1 (installed as
the ``repro`` binary via the ``console_scripts`` entry point, or run as
``python -m repro.cli``)::

    repro index  LAKE_DIR INDEX_DIR [--dim 64] [--pivots 5] [--levels 4]
                 [--partitions N] [--partitioner jsd]
    repro search INDEX_DIR QUERY_CSV [--column NAME]
                 [--tau 0.06] [--joinability 0.6] [--top-k K]
                 [--all-columns] [--workers W] [--partitions N]
                 [--json] [--cluster URL]
    repro serve  INDEX_DIR [--host H] [--port P] [--window-ms W]
                 [--cache-size C] [--workers W]
    repro cluster-coordinator INDEX_DIR --workers N [--replication R]
                 [--host H] [--port P]
    repro cluster-worker INDEX_DIR --coordinator URL [--host H] [--port P]
    repro stats  LAKE_DIR

``index`` loads every CSV under LAKE_DIR, detects join-key columns,
normalises and embeds them (hashing n-gram embedder — deterministic given
``--seed``), builds a PexesoIndex and saves it with its column catalog;
with ``--partitions N`` the lake is sharded into N per-partition indexes
spilled under INDEX_DIR (paper §IV out-of-core layout). ``search`` embeds
the query CSV's column with the same embedder settings and prints
joinable tables — single-index and partitioned layouts are detected
automatically and answered identically; ``--workers W`` widens the shard
fan-out, ``--top-k K`` serves ranked discovery (each shard's k best,
merged once), ``--partitions N`` repartitions a single-index directory into N
in-memory shards for this run, and ``--all-columns`` answers every
candidate join column of the query table in one batch pass (results per
column are identical to running each search on its own), and ``--json``
emits machine-readable results in the same schema the serving API's
``/search`` endpoint returns. ``serve`` boots the resident HTTP query
service (:mod:`repro.serve`) over a saved index — micro-batched
concurrent search, generation-stamped result cache, live column
add/delete. ``cluster-coordinator`` / ``cluster-worker`` run the
distributed tier (:mod:`repro.cluster`): the coordinator owns the
shard map and scatter-gathers searches across worker processes that
each host a shard subset, with replication and failover; ``search
--cluster URL`` answers through a running coordinator. ``stats``
prints the Table III-style profile.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.core.index import PexesoIndex
from repro.core.metric import EuclideanMetric
from repro.core.out_of_core import LakeSearcher, PartitionedPexeso
from repro.core.partition import PARTITIONERS
from repro.core.atomic import atomic_write_text
from repro.core.persistence import load_any, save_index
from repro.core.thresholds import distance_threshold
from repro.embedding.hashing import HashingNGramEmbedder
from repro.lake.csv_loader import load_csv
from repro.lake.key_detection import detect_key_column
from repro.lake.repository import TableRepository
from repro.lake.statistics import DatasetStatistics, dataset_statistics
from repro.serve.client import ServeError
from repro.serve.schema import search_payload, topk_payload


def _build_embedder(args: argparse.Namespace) -> HashingNGramEmbedder:
    return HashingNGramEmbedder(dim=args.dim, seed=args.seed)


def cmd_index(args: argparse.Namespace) -> int:
    repo = TableRepository(preprocess=not args.no_preprocess)
    n_loaded = repo.load_directory(args.lake_dir)
    if n_loaded == 0:
        print(f"no CSV files under {args.lake_dir}", file=sys.stderr)
        return 1
    if args.partitions < 1:
        print("--partitions must be at least 1", file=sys.stderr)
        return 1
    embedder = _build_embedder(args)
    refs, vector_columns = repo.vectorize(embedder)
    if not refs:
        print("no indexable key columns found", file=sys.stderr)
        return 1
    n_vectors = sum(c.shape[0] for c in vector_columns)
    if args.partitions > 1:
        lake = PartitionedPexeso(
            n_pivots=args.pivots,
            levels=args.levels,
            seed=args.seed,
            n_partitions=args.partitions,
            partitioner=args.partitioner,
            spill_dir=args.index_dir,
        ).fit(vector_columns)  # a spilled fit commits the lake
        out = lake.spill_dir
        layout = f"{len([g for g in lake.partition_columns if g])} partitions"
    else:
        index = PexesoIndex.build(
            vector_columns, n_pivots=args.pivots, levels=args.levels, seed=args.seed
        )
        out = save_index(index, args.index_dir)
        layout = "single index"
    catalog = {
        "columns": [
            {"table": ref.table_name, "column": ref.column_name} for ref in refs
        ],
        "embedder": {"dim": args.dim, "seed": args.seed},
        "preprocess": not args.no_preprocess,
    }
    atomic_write_text(out / "catalog.json", json.dumps(catalog, indent=2))
    print(
        f"indexed {len(refs)} columns / {n_vectors} vectors "
        f"from {n_loaded} tables into {out} ({layout})"
    )
    return 0


def _print_payload_hits(hits, columns) -> None:
    """Print a search or top-k payload's hits, one per line.

    A hit is labelled by the payload when it carries a label — a
    coordinator's catalog tracks live adds, while the local catalog.json
    is frozen at index time — else by ``columns``, else by its ID.
    """
    if not hits:
        print("no joinable tables found")
    for h in hits:
        table, column = h.get("table"), h.get("column")
        if table is None:
            cid = h["column_id"]
            if 0 <= cid < len(columns):
                table, column = columns[cid]["table"], columns[cid]["column"]
            else:
                table, column = f"column_{cid}", "?"
        print(
            f"{table}.{column}\tmatches={h['match_count']}\t"
            f"joinability={h['joinability']:.3f}"
        )


def _embed_query_values(values, catalog, embedder):
    if catalog.get("preprocess", True):
        from repro.lake.preprocessing import to_full_form

        values = [to_full_form(v) for v in values]
    return embedder.embed_column(values)


def _cluster_search(args: argparse.Namespace, catalog: dict, embedder) -> int:
    """``search --cluster URL``: answer through a running coordinator.

    The query is embedded locally (same catalog settings as indexing)
    and shipped as vectors; results print exactly like a local search —
    or as the shared JSON schema with ``--json`` (``generation`` is the
    cluster's per-worker vector).
    """
    from repro.cluster.client import ClusterClient

    query_table = load_csv(args.query_csv)
    column = args.column or detect_key_column(query_table)
    if column is None:
        print("query table has no usable key column", file=sys.stderr)
        return 1
    query_vectors = _embed_query_values(
        query_table.column(column).values, catalog, embedder
    )
    client = ClusterClient(args.cluster, retries=2)
    try:
        if args.topk:
            payload = client.topk(
                vectors=query_vectors, tau_fraction=args.tau, k=args.topk
            )
        else:
            payload = client.search(
                vectors=query_vectors, tau_fraction=args.tau,
                joinability=args.joinability,
            )
    except (ServeError, OSError) as exc:
        print(f"cluster request failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_payload_hits(payload["hits"], catalog["columns"])
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    index_dir = Path(args.index_dir)
    catalog = json.loads((index_dir / "catalog.json").read_text())
    embedder = HashingNGramEmbedder.from_catalog(catalog)
    if args.cluster:
        if args.all_columns:
            print("--all-columns is not supported with --cluster",
                  file=sys.stderr)
            return 1
        return _cluster_search(args, catalog, embedder)
    backend = load_any(index_dir)

    if args.partitions < 0:
        print("--partitions must be non-negative", file=sys.stderr)
        return 1
    if args.partitions:
        if isinstance(backend, PexesoIndex):
            # Repartition the saved single index into in-memory shards for
            # this run (the persisted layout is untouched).
            backend = PartitionedPexeso.from_index(
                backend,
                n_partitions=args.partitions,
                partitioner=args.partitioner,
            )
        else:
            print(
                "--partitions ignored: the index directory is already "
                "partitioned",
                file=sys.stderr,
            )
    searcher = LakeSearcher(backend, max_workers=args.workers)
    metric = backend.metric if backend.metric is not None else EuclideanMetric()

    query_table = load_csv(args.query_csv)
    tau = distance_threshold(args.tau, metric, catalog["embedder"]["dim"])

    if args.all_columns:
        from repro.lake.key_detection import candidate_join_columns

        if args.topk:
            print("--top-k is ignored in --all-columns mode", file=sys.stderr)
        candidates = candidate_join_columns(query_table)
        if args.column and args.column not in candidates:
            candidates.insert(0, args.column)
        if not candidates:
            print("query table has no candidate join columns", file=sys.stderr)
            return 1
        vectors = [
            _embed_query_values(query_table.column(name).values, catalog, embedder)
            for name in candidates
        ]
        batch = searcher.search_many(vectors, tau, args.joinability)
        columns = catalog["columns"]
        payloads = {
            name: search_payload(result, columns=columns)
            for name, result in zip(candidates, batch.results)
        }
        if args.json:
            print(json.dumps({
                "columns": payloads,
                "wall_seconds": batch.wall_seconds,
                "distance_computations": batch.stats.distance_computations,
            }, indent=2))
            return 0
        for name, payload in payloads.items():
            print(f"[{name}]")
            _print_payload_hits(payload["hits"], columns)
        total = sum(len(payload["hits"]) for payload in payloads.values())
        print(
            f"# {total} hits over {len(candidates)} query columns "
            f"in {batch.wall_seconds:.3f}s "
            f"({batch.stats.distance_computations} distance computations)"
        )
        return 0

    column = args.column or detect_key_column(query_table)
    if column is None:
        print("query table has no usable key column", file=sys.stderr)
        return 1
    query_vectors = _embed_query_values(
        query_table.column(column).values, catalog, embedder
    )

    columns = catalog["columns"]
    if args.topk:
        payload = topk_payload(
            searcher.topk(query_vectors, tau, args.topk), columns=columns
        )
    else:
        payload = search_payload(
            searcher.search(query_vectors, tau, args.joinability), columns=columns
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_payload_hits(payload["hits"], columns)
    return 0


def _configure_tracing(args: argparse.Namespace) -> None:
    """Apply the shared --trace-sample / --slow-query-ms knobs to the
    process-wide tracer every server created below records into."""
    from repro.obs.trace import default_tracer

    default_tracer().configure(
        sample_rate=args.trace_sample,
        slow_query_seconds=(
            args.slow_query_ms / 1000.0
            if args.slow_query_ms is not None else None
        ),
        # a per-process ID prefix keeps span IDs from independently
        # numbered tracers (client vs server, worker vs worker) from
        # colliding when they meet in one trace tree
        prefix=f"{os.getpid():x}-",
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import install_signal_handlers, make_server

    _configure_tracing(args)
    window_ms = None if args.window_ms < 0 else args.window_ms
    try:
        server = make_server(
            args.index_dir,
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
            window_ms=window_ms,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            max_workers=args.workers,
            max_concurrent=args.max_concurrent,
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    service = server.service
    layout = "partitioned" if service.searcher.is_partitioned else "single index"
    print(
        f"serving {service.n_columns} columns ({layout}) on {server.url} "
        f"(window={window_ms}ms, cache={args.cache_size}) — Ctrl-C to stop",
        flush=True,
    )
    # SIGTERM/SIGINT drain in-flight requests before the socket closes,
    # so a supervisor restart (or Ctrl-C) never drops accepted work.
    install_signal_handlers(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - direct interrupt
        pass
    # Drain on the *main* thread: the signal handler's helper thread
    # unblocks serve_forever() first, and if main exited right away the
    # interpreter would kill the daemon handler threads mid-request.
    server.close()
    print("shut down cleanly", flush=True)
    return 0


def cmd_cluster_coordinator(args: argparse.Namespace) -> int:
    from repro.cluster.server import make_cluster_server
    from repro.serve.server import install_signal_handlers

    _configure_tracing(args)
    try:
        server = make_cluster_server(
            args.index_dir,
            host=args.host,
            port=args.port,
            quiet=not args.verbose,
            n_workers=args.workers,
            replication=args.replication,
            max_concurrent=args.max_concurrent,
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    coordinator = server.coordinator
    print(
        f"cluster coordinator on {server.url}: "
        f"{len(coordinator.shard_map.parts)} partitions over "
        f"{args.workers} worker slots (replication {coordinator.shard_map.replication}) "
        f"— point `repro cluster-worker {args.index_dir} --coordinator "
        f"{server.url}` at it",
        flush=True,
    )
    install_signal_handlers(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - direct interrupt
        pass
    server.close()  # drain on the main thread (see cmd_serve)
    print("shut down cleanly", flush=True)
    return 0


def cmd_cluster_worker(args: argparse.Namespace) -> int:
    from repro.cluster.worker import start_worker
    from repro.serve.server import install_signal_handlers

    _configure_tracing(args)
    window_ms = None if args.window_ms < 0 else args.window_ms
    try:
        server, slot, thread = start_worker(
            args.index_dir,
            args.coordinator,
            host=args.host,
            port=args.port,
            advertise_host=args.advertise_host,
            window_ms=window_ms,
            max_batch=args.max_batch,
            cache_size=args.cache_size,
            max_workers=args.workers,
        )
    except (FileNotFoundError, OSError, ServeError, KeyError, ValueError) as exc:
        print(f"failed to join cluster: {exc}", file=sys.stderr)
        return 1
    backend = server.service.searcher.backend
    print(
        f"worker slot {slot} on {server.url}: hosting partitions "
        f"{sorted(backend.hosted_parts)} ({server.service.n_columns} columns)",
        flush=True,
    )
    install_signal_handlers(server)
    try:
        thread.join()
    except KeyboardInterrupt:  # pragma: no cover - direct interrupt
        pass
    server.close()  # drain on the main thread (see cmd_serve)
    print("shut down cleanly", flush=True)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    repo = TableRepository(preprocess=False)
    if repo.load_directory(args.lake_dir) == 0:
        print(f"no CSV files under {args.lake_dir}", file=sys.stderr)
        return 1
    refs, string_columns = repo.extract_key_columns()
    if not refs:
        print("no key columns detected", file=sys.stderr)
        return 1
    sizes = [len(v) for v in string_columns]
    stats = DatasetStatistics(
        name=Path(args.lake_dir).name,
        n_tables=len(repo),
        n_vectors=sum(sizes),
        n_columns=len(refs),
        avg_vectors_per_column=sum(sizes) / len(sizes),
        model="(not embedded)",
        dim=0,
    )
    for header, value in zip(DatasetStatistics.HEADERS, stats.as_row()):
        print(f"{header}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index from a CSV directory")
    p_index.add_argument("lake_dir")
    p_index.add_argument("index_dir")
    p_index.add_argument("--dim", type=int, default=64)
    p_index.add_argument("--pivots", type=int, default=5)
    p_index.add_argument("--levels", type=int, default=4)
    p_index.add_argument("--seed", type=int, default=0)
    p_index.add_argument("--no-preprocess", action="store_true")
    p_index.add_argument("--partitions", type=int, default=1,
                         help="shard the lake into N spilled partitions "
                              "(paper §IV out-of-core layout)")
    p_index.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                         default="jsd", help="column-to-partition strategy")
    p_index.set_defaults(func=cmd_index)

    p_search = sub.add_parser("search", help="search a saved index")
    p_search.add_argument("index_dir")
    p_search.add_argument("query_csv")
    p_search.add_argument("--column")
    p_search.add_argument("--tau", type=float, default=0.06,
                          help="fraction of the max distance (paper §V)")
    p_search.add_argument("--joinability", type=float, default=0.6,
                          help="fraction of the query column size")
    p_search.add_argument("--topk", "--top-k", type=int, default=0,
                          help="return the k best columns instead (exact "
                               "top-k; each shard's k best, merged once)")
    p_search.add_argument("--all-columns", action="store_true",
                          help="batch-search every candidate join column "
                               "of the query table via the batch engine")
    p_search.add_argument("--workers", type=int, default=None,
                          help="worker-pool width (shard fan-out on a "
                               "partitioned index, per-τ batch groups "
                               "otherwise)")
    p_search.add_argument("--partitions", type=int, default=0,
                          help="repartition a single-index directory into "
                               "N in-memory shards for this run")
    p_search.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                          default="jsd",
                          help="strategy for --partitions repartitioning")
    p_search.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON in the serving "
                               "API's /search (or /topk) response schema")
    p_search.add_argument("--cluster", metavar="URL", default=None,
                          help="answer through a running cluster "
                               "coordinator instead of loading the index "
                               "locally (INDEX_DIR still supplies the "
                               "embedding catalog)")
    p_search.set_defaults(func=cmd_search)

    def add_tracing_flags(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--trace-sample", type=float, default=1.0, metavar="RATE",
            help="fraction of root traces recorded at /debug/traces "
                 "(0 disables tracing, 1 records every request)")
        parser.add_argument(
            "--slow-query-ms", type=float, default=None, metavar="MS",
            help="log a structured slow-query JSON line for requests "
                 "at/above this duration (default: off)")

    p_serve = sub.add_parser(
        "serve", help="serve a saved index over HTTP (resident query service)"
    )
    p_serve.add_argument("index_dir")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="0 binds an ephemeral port")
    p_serve.add_argument("--window-ms", type=float, default=2.0,
                         help="micro-batching window; 0 coalesces without "
                              "sleeping, negative disables coalescing")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="cap on requests per fused dispatch")
    p_serve.add_argument("--cache-size", type=int, default=256,
                         help="generation-stamped result-cache capacity "
                              "(0 disables)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="worker-pool width for the underlying searcher")
    p_serve.add_argument("--max-concurrent", type=int, default=None,
                         help="admission-control capacity: concurrent "
                              "requests beyond this are shed with 429 + "
                              "Retry-After (default: unlimited)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every request")
    add_tracing_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_coord = sub.add_parser(
        "cluster-coordinator",
        help="run the cluster coordinator over a saved partitioned index",
    )
    p_coord.add_argument("index_dir")
    p_coord.add_argument("--host", default="127.0.0.1")
    p_coord.add_argument("--port", type=int, default=8766,
                         help="0 binds an ephemeral port")
    p_coord.add_argument("--workers", type=int, required=True,
                         help="number of worker slots in the shard map")
    p_coord.add_argument("--replication", type=int, default=1,
                         help="replicas per partition (clamped to --workers)")
    p_coord.add_argument("--max-concurrent", type=int, default=None,
                         help="admission-control capacity for search/top-k "
                              "(shed with 429 beyond it; default unlimited)")
    p_coord.add_argument("--verbose", action="store_true",
                         help="log every request")
    add_tracing_flags(p_coord)
    p_coord.set_defaults(func=cmd_cluster_coordinator)

    p_worker = sub.add_parser(
        "cluster-worker",
        help="join a cluster: host a shard subset of a saved partitioned index",
    )
    p_worker.add_argument("index_dir",
                          help="the same saved lake the coordinator reads")
    p_worker.add_argument("--coordinator", required=True, metavar="URL",
                          help="coordinator base URL to register with")
    p_worker.add_argument("--host", default="127.0.0.1")
    p_worker.add_argument("--port", type=int, default=0,
                          help="0 binds an ephemeral port (the bound URL is "
                               "reported to the coordinator)")
    p_worker.add_argument("--advertise-host", default=None,
                          help="hostname the coordinator should dial, when "
                               "it differs from --host")
    p_worker.add_argument("--window-ms", type=float, default=2.0,
                          help="micro-batching window; negative disables "
                               "coalescing")
    p_worker.add_argument("--max-batch", type=int, default=64)
    p_worker.add_argument("--cache-size", type=int, default=256)
    p_worker.add_argument("--workers", type=int, default=None,
                          help="shard fan-out width inside this worker")
    add_tracing_flags(p_worker)
    p_worker.set_defaults(func=cmd_cluster_worker)

    p_stats = sub.add_parser("stats", help="profile a CSV data lake")
    p_stats.add_argument("lake_dir")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
