"""Tests for the command-line interface (index / search / serve / stats)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.lake.csv_loader import dump_csv
from repro.lake.datagen import DataLakeGenerator
from repro.lake.table import Column, Table


@pytest.fixture(scope="module")
def lake_dir(tmp_path_factory):
    """A small CSV lake on disk built from the generator (misspellings etc.)."""
    directory = tmp_path_factory.mktemp("lake")
    gen = DataLakeGenerator(seed=4, n_entities=40, dim=16)
    lake = gen.generate_lake(n_tables=12, rows_range=(8, 14),
                             distractor_fraction=0.0, noise_row_fraction=0.0)
    for table in lake.tables:
        dump_csv(table, directory / f"{table.name}.csv")
    query_table, _ = gen.generate_query_table(
        n_rows=10, domain=0, kind_weights={"exact": 1.0}
    )
    dump_csv(query_table, directory / "_query.csv")
    (directory / "_query.csv").rename(directory.parent / "query.csv")
    return directory


class TestIndexCommand:
    def test_index_builds_artifacts(self, lake_dir, tmp_path):
        index_dir = tmp_path / "idx"
        code = main(["index", str(lake_dir), str(index_dir), "--dim", "32"])
        assert code == 0
        assert (index_dir / "manifest.json").exists()
        assert (index_dir / "catalog.json").exists()
        assert list(index_dir.glob("arrays_v3_*/vectors.npy"))

    def test_missing_lake_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["index", str(empty), str(tmp_path / "idx")]) == 1


class TestSearchCommand:
    @pytest.fixture()
    def index_dir(self, lake_dir, tmp_path):
        out = tmp_path / "idx"
        assert main(["index", str(lake_dir), str(out), "--dim", "32"]) == 0
        return out

    def test_search_runs(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        code = main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "joinability=" in out or "no joinable tables" in out

    def test_topk_mode(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        code = main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--topk", "3",
        ])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert 0 < len(lines) <= 3

    def test_explicit_column(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        code = main([
            "search", str(index_dir), str(query_csv),
            "--column", "key", "--tau", "0.2", "--joinability", "0.2",
        ])
        assert code == 0

    def test_all_columns_batch_mode(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        code = main([
            "search", str(index_dir), str(query_csv),
            "--all-columns", "--tau", "0.2", "--joinability", "0.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[key]" in out  # per-column section header
        assert "query columns" in out  # batch summary line

    def test_all_columns_matches_single_column(self, index_dir, lake_dir, capsys):
        """Batch mode's key-column section equals the single search output."""
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(index_dir), str(query_csv),
            "--column", "key", "--tau", "0.2", "--joinability", "0.2",
        ]) == 0
        single = capsys.readouterr().out.strip().splitlines()
        assert main([
            "search", str(index_dir), str(query_csv),
            "--all-columns", "--workers", "2",
            "--tau", "0.2", "--joinability", "0.2",
        ]) == 0
        batch_out = capsys.readouterr().out.splitlines()
        key_section = batch_out[batch_out.index("[key]") + 1:]
        # the full section up to the next column header / summary line —
        # a superset of the single-search hits must fail, not pass
        end = next(
            i for i, line in enumerate(key_section)
            if line.startswith("[") or line.startswith("# ")
        )
        assert key_section[:end] == single


class TestJsonOutput:
    """--json emits the serving API's /search response schema."""

    @pytest.fixture()
    def index_dir(self, lake_dir, tmp_path):
        out = tmp_path / "idx"
        assert main(["index", str(lake_dir), str(out), "--dim", "32"]) == 0
        return out

    def test_search_json_schema(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        # timings: the one-query search now carries the engine's stage
        # breakdown, as the partitioned layout and /search always did
        assert set(payload) == {"tau", "t_count", "query_size", "hits", "timings"}
        assert payload["hits"], "workload is built to produce hits"
        for hit in payload["hits"]:
            assert {"column_id", "table", "column", "match_count",
                    "joinability", "exact_count"} <= set(hit)
            assert isinstance(hit["column_id"], int)
            assert isinstance(hit["match_count"], int)

    def test_json_matches_plain_output(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2",
        ]) == 0
        plain = capsys.readouterr().out.strip().splitlines()
        assert main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rebuilt = [
            f"{h['table']}.{h['column']}\tmatches={h['match_count']}\t"
            f"joinability={h['joinability']:.3f}"
            for h in payload["hits"]
        ]
        assert rebuilt == plain

    def test_topk_json_schema(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--topk", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        scores = [h["joinability"] for h in payload["hits"]]
        assert scores == sorted(scores, reverse=True)

    def test_all_columns_json(self, index_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(index_dir), str(query_csv),
            "--all-columns", "--tau", "0.2", "--joinability", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "key" in payload["columns"]
        assert "hits" in payload["columns"]["key"]
        assert "distance_computations" in payload

    def test_json_schema_matches_server_response(self, index_dir, lake_dir):
        """The CLI payload and the HTTP /search payload share one shape."""
        import threading

        from repro.lake.csv_loader import load_csv
        from repro.serve.client import ServeClient
        from repro.serve.server import make_server

        query_csv = lake_dir.parent / "query.csv"
        server = make_server(index_dir, port=0, window_ms=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(server.url)
            values = load_csv(query_csv).column("key").values
            reply = client.search(values=values, tau=0.2, joinability=0.2)
        finally:
            server.shutdown()
            server.server_close()
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main([
                "search", str(index_dir), str(query_csv),
                "--tau", "0.2", "--joinability", "0.2", "--json",
            ]) == 0
        cli_payload = json.loads(buffer.getvalue())
        # server adds serving provenance on top of the shared schema
        # (timings always appear there — queue_wait at minimum)
        assert set(reply) == set(cli_payload) | {
            "generation", "cached", "timings"
        }
        assert reply["hits"] == cli_payload["hits"]


class TestServeCommand:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "some_dir", "--port", "0", "--window-ms", "1.5",
            "--cache-size", "64",
        ])
        assert args.command == "serve"
        assert args.port == 0
        assert args.window_ms == 1.5

    def test_serve_missing_dir_fails(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        assert main(["serve", str(missing), "--port", "0"]) == 1
        assert capsys.readouterr().err.strip()


class TestPartitionedCli:
    """The sharded layout through the CLI: index --partitions, search
    --workers/--top-k/--partitions."""

    @pytest.fixture()
    def single_dir(self, lake_dir, tmp_path):
        out = tmp_path / "single"
        assert main(["index", str(lake_dir), str(out), "--dim", "32"]) == 0
        return out

    @pytest.fixture()
    def sharded_dir(self, lake_dir, tmp_path):
        out = tmp_path / "sharded"
        assert main([
            "index", str(lake_dir), str(out), "--dim", "32",
            "--partitions", "3",
        ]) == 0
        return out

    def test_partitioned_index_layout(self, sharded_dir):
        assert (sharded_dir / "partitioned.json").exists()
        assert (sharded_dir / "catalog.json").exists()
        assert len(list(sharded_dir.glob("partition_*/arrays_v3_*/vectors.npy"))) >= 1

    def _search_lines(self, capsys, index_dir, query_csv, *extra):
        assert main([
            "search", str(index_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2", *extra,
        ]) == 0
        return capsys.readouterr().out.strip().splitlines()

    def test_sharded_search_matches_single(self, single_dir, sharded_dir,
                                           lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        single = self._search_lines(capsys, single_dir, query_csv)
        sharded = self._search_lines(capsys, sharded_dir, query_csv,
                                     "--workers", "2")
        assert sharded == single

    def test_repartitioned_search_matches_single(self, single_dir, lake_dir,
                                                 capsys):
        query_csv = lake_dir.parent / "query.csv"
        single = self._search_lines(capsys, single_dir, query_csv)
        repartitioned = self._search_lines(
            capsys, single_dir, query_csv,
            "--partitions", "3", "--workers", "2",
        )
        assert repartitioned == single

    def test_sharded_topk_matches_single(self, single_dir, sharded_dir,
                                         lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(single_dir), str(query_csv),
            "--tau", "0.2", "--top-k", "3",
        ]) == 0
        single = capsys.readouterr().out
        assert main([
            "search", str(sharded_dir), str(query_csv),
            "--tau", "0.2", "--top-k", "3", "--workers", "2",
        ]) == 0
        assert capsys.readouterr().out == single

    def test_all_columns_on_sharded_index(self, sharded_dir, lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(sharded_dir), str(query_csv),
            "--all-columns", "--workers", "2",
            "--tau", "0.2", "--joinability", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "[key]" in out and "query columns" in out

    def test_negative_partitions_rejected(self, single_dir, lake_dir, capsys,
                                          tmp_path):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(single_dir), str(query_csv),
            "--tau", "0.2", "--partitions", "-3",
        ]) == 1
        assert "--partitions" in capsys.readouterr().err
        assert main([
            "index", str(lake_dir), str(tmp_path / "bad"),
            "--partitions", "0",
        ]) == 1
        assert "--partitions" in capsys.readouterr().err

    def test_partitions_ignored_on_sharded_dir(self, sharded_dir, lake_dir,
                                               capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(sharded_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2", "--partitions", "5",
        ]) == 0
        assert "--partitions ignored" in capsys.readouterr().err


class TestStatsCommand:
    def test_stats_output(self, lake_dir, capsys):
        assert main(["stats", str(lake_dir)]) == 0
        out = capsys.readouterr().out
        assert "# Tab.:" in out
        assert "# Vec.:" in out

    def test_stats_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["stats", str(empty)]) == 1


class TestClusterCli:
    """The distributed tier through the CLI: cluster-coordinator /
    cluster-worker subcommands and `search --cluster URL`."""

    @pytest.fixture()
    def sharded_dir(self, lake_dir, tmp_path):
        out = tmp_path / "sharded"
        assert main([
            "index", str(lake_dir), str(out), "--dim", "32", "--partitions", "3",
        ]) == 0
        return out

    def test_parser_accepts_cluster_commands(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "cluster-coordinator", "some_dir", "--workers", "2",
            "--replication", "2", "--port", "0",
        ])
        assert args.command == "cluster-coordinator"
        assert args.workers == 2
        args = build_parser().parse_args([
            "cluster-worker", "some_dir", "--coordinator",
            "http://127.0.0.1:1",
        ])
        assert args.command == "cluster-worker"
        # counts are always exact: the retired flag is gone
        assert "exact_counts" not in vars(args)

    def test_coordinator_requires_partitioned_dir(self, lake_dir, tmp_path,
                                                  capsys):
        single = tmp_path / "single"
        assert main(["index", str(lake_dir), str(single), "--dim", "32"]) == 0
        assert main([
            "cluster-coordinator", str(single), "--workers", "2", "--port", "0",
        ]) == 1
        assert "partitioned" in capsys.readouterr().err

    def test_worker_without_coordinator_fails(self, sharded_dir, capsys):
        # nothing listens on this port: joining must fail cleanly
        assert main([
            "cluster-worker", str(sharded_dir),
            "--coordinator", "http://127.0.0.1:9",
        ]) == 1
        assert "failed to join" in capsys.readouterr().err

    def test_search_cluster_matches_local(self, sharded_dir, lake_dir, capsys):
        """`search --cluster URL` == plain local `search`, via a real
        coordinator + worker pair on ephemeral ports."""
        from repro.cluster import LocalCluster

        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(sharded_dir), str(query_csv),
            "--tau", "0.2", "--joinability", "0.2", "--json",
        ]) == 0
        local = json.loads(capsys.readouterr().out)

        with LocalCluster(sharded_dir, n_workers=2, replication=1) as cluster:
            assert main([
                "search", str(sharded_dir), str(query_csv),
                "--tau", "0.2", "--joinability", "0.2", "--json",
                "--cluster", cluster.url,
            ]) == 0
            remote = json.loads(capsys.readouterr().out)
            # human-readable mode prints the same hits with labels
            assert main([
                "search", str(sharded_dir), str(query_csv),
                "--tau", "0.2", "--joinability", "0.2",
                "--cluster", cluster.url,
            ]) == 0
            human = capsys.readouterr().out
        assert remote["hits"] == local["hits"]
        assert isinstance(remote["generation"], list)
        for hit in remote["hits"]:
            assert f"{hit['table']}.{hit['column']}" in human

    def test_search_cluster_topk(self, sharded_dir, lake_dir, capsys):
        from repro.cluster import LocalCluster

        query_csv = lake_dir.parent / "query.csv"
        with LocalCluster(sharded_dir, n_workers=2, replication=1) as cluster:
            assert main([
                "search", str(sharded_dir), str(query_csv),
                "--tau", "0.2", "--topk", "3", "--json",
                "--cluster", cluster.url,
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
        scores = [h["joinability"] for h in payload["hits"]]
        assert scores == sorted(scores, reverse=True)
        assert len(payload["hits"]) <= 3

    def test_search_cluster_rejects_all_columns(self, sharded_dir, lake_dir,
                                                capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(sharded_dir), str(query_csv),
            "--all-columns", "--cluster", "http://127.0.0.1:9",
        ]) == 1
        assert "--all-columns" in capsys.readouterr().err

    def test_search_cluster_unreachable_fails_cleanly(self, sharded_dir,
                                                      lake_dir, capsys):
        query_csv = lake_dir.parent / "query.csv"
        assert main([
            "search", str(sharded_dir), str(query_csv),
            "--tau", "0.2", "--cluster", "http://127.0.0.1:9",
        ]) == 1
        assert "cluster request failed" in capsys.readouterr().err
