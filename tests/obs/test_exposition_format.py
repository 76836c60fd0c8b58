"""Strict Prometheus text-format conformance for every /metrics surface.

A small line-format parser (no third-party deps) checks the exposition
grammar — ``# HELP`` / ``# TYPE`` headers, sample lines, label escaping,
summary ``quantile``/``_sum``/``_count`` structure — and is then applied
to the three real endpoints: the single-node serve server, the cluster
coordinator's ``metrics_text`` and the cluster HTTP server.
"""

import re
import threading

import numpy as np
import pytest

from repro.cluster.local import LocalCluster
from repro.core.index import PexesoIndex
from repro.core.metric import normalize_rows
from repro.core.out_of_core import PartitionedPexeso
from repro.core.persistence import save_partitioned
from repro.serve.client import ServeClient
from repro.serve.server import make_server
from repro.serve.service import QueryService

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_VALUE = r"[-+]?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|Inf|NaN)"
_SAMPLE_RE = re.compile(rf"^({_NAME})(?:\{{(.*)\}})? ({_VALUE})$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"')


def parse_exposition(text):
    """Parse Prometheus text exposition, failing on any grammar violation.

    Returns ``{family_name: {"kind", "help", "samples": [(name, labels,
    value), ...]}}``.  Enforces: HELP immediately followed by TYPE, every
    sample belongs to a declared family (allowing ``_sum``/``_count``
    suffixes on summaries), labels are well-formed and fully escaped, and
    no (name, labels) pair repeats.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    pending_help = None
    seen_series = set()
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert re.fullmatch(_NAME, name), f"bad family name: {name!r}"
            assert name not in families, f"duplicate HELP for {name}"
            assert "\n" not in help_text
            pending_help = (name, help_text)
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "summary"), kind
            assert pending_help is not None and pending_help[0] == name, \
                f"TYPE for {name} not preceded by its HELP"
            families[name] = {
                "kind": kind, "help": pending_help[1], "samples": [],
            }
            pending_help = None
        elif line.startswith("#"):
            raise AssertionError(f"unknown comment line: {line!r}")
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            name, label_blob, raw_value = match.groups()
            family = _owning_family(families, name)
            labels = _parse_labels(label_blob)
            series = (name, tuple(sorted(labels.items())))
            assert series not in seen_series, f"duplicate series: {line!r}"
            seen_series.add(series)
            family["samples"].append((name, labels, float(raw_value)))
    assert pending_help is None, f"dangling HELP for {pending_help}"
    return families


def _owning_family(families, sample_name):
    if sample_name in families:
        return families[sample_name]
    for suffix in ("_sum", "_count"):
        base = sample_name.removesuffix(suffix)
        if base != sample_name and families.get(base, {}).get("kind") == \
                "summary":
            return families[base]
    raise AssertionError(f"sample {sample_name!r} has no declared family")


def _parse_labels(label_blob):
    if label_blob is None:
        return {}
    assert label_blob, "empty label braces"
    labels = {}
    rebuilt = []
    for match in _LABEL_RE.finditer(label_blob):
        key, value = match.groups()
        assert key not in labels, f"duplicate label {key!r}"
        labels[key] = value
        rebuilt.append(match.group(0))
    assert ",".join(rebuilt) == label_blob, \
        f"labels not fully parseable: {label_blob!r}"
    return labels


def assert_summary_shape(families, name, label_subset=None):
    """A summary family must expose quantile series plus _sum/_count."""
    family = families[name]
    assert family["kind"] == "summary"

    def matches(labels):
        return label_subset is None or all(
            labels.get(k) == v for k, v in label_subset.items()
        )

    quantiles = [
        labels["quantile"] for sample_name, labels, _ in family["samples"]
        if sample_name == name and matches(labels)
    ]
    assert quantiles == ["0.5", "0.95", "0.99"]
    sums = [v for n, labels, v in family["samples"]
            if n == f"{name}_sum" and matches(labels)]
    counts = [v for n, labels, v in family["samples"]
              if n == f"{name}_count" and matches(labels)]
    assert len(sums) == 1 and len(counts) == 1
    assert counts[0] == int(counts[0]) and counts[0] >= 1


class TestParserRejectsBadInput:
    def test_sample_without_family_fails(self):
        with pytest.raises(AssertionError):
            parse_exposition("orphan 1\n")

    def test_type_without_help_fails(self):
        with pytest.raises(AssertionError):
            parse_exposition("# TYPE x counter\nx 1\n")

    def test_unescaped_quote_in_label_fails(self):
        text = '# HELP x X.\n# TYPE x gauge\nx{a="b"c"} 1\n'
        with pytest.raises(AssertionError):
            parse_exposition(text)


@pytest.fixture(scope="module")
def columns():
    rng = np.random.default_rng(13)
    return [
        normalize_rows(rng.normal(size=(int(rng.integers(5, 12)), 6)))
        for _ in range(18)
    ]


@pytest.fixture(scope="module")
def lake_dir(columns, tmp_path_factory):
    lake = tmp_path_factory.mktemp("obs-lake")
    part = PartitionedPexeso(n_pivots=2, levels=3, n_partitions=4)
    part.fit(columns)
    save_partitioned(part, lake)
    return lake


class TestServeEndpoint:
    @pytest.fixture()
    def served(self, columns):
        index = PexesoIndex.build(columns, n_pivots=3, levels=3)
        service = QueryService(
            index, window_ms=0, cache_size=8
        )
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield ServeClient(server.url)
        finally:
            server.shutdown()
            server.server_close()

    def test_serve_metrics_conform(self, served, columns):
        served.search(vectors=columns[2][:6], tau=0.6, joinability=0.3)
        families = parse_exposition(served.metrics())
        for legacy in (
            "pexeso_serve_cache_misses",
            "pexeso_serve_coalesced_batches",
            "pexeso_serve_generation",
            "pexeso_serve_coalesced_requests",
        ):
            assert legacy in families, f"missing legacy family {legacy}"
        assert families["pexeso_serve_cache_misses"]["kind"] == "counter"
        assert families["pexeso_serve_generation"]["kind"] == "gauge"
        assert_summary_shape(families, "pexeso_serve_batch_size")
        stage_family = families["pexeso_serve_stage_seconds"]
        stages = {
            labels["stage"] for _, labels, _ in stage_family["samples"]
        }
        assert "verify" in stages
        assert_summary_shape(
            families, "pexeso_serve_stage_seconds", {"stage": "verify"}
        )


class TestClusterEndpoints:
    @pytest.fixture(scope="class")
    def cluster(self, lake_dir):
        with LocalCluster(
            lake_dir,
            n_workers=2,
            replication=2,
            mode="thread",
            worker_kwargs=dict(
                window_ms=None, cache_size=0
            ),
        ) as running:
            yield running

    def test_cluster_http_metrics_conform(self, cluster, columns):
        cluster.client.search(vectors=columns[4][:6], tau=0.5,
                              joinability=0.3)
        families = parse_exposition(cluster.client.metrics())
        for legacy in (
            "pexeso_serve_cluster_requests",
            "pexeso_serve_cluster_workers_up",
            "pexeso_serve_cluster_worker_up",
            "pexeso_serve_cluster_breaker_open",
        ):
            assert legacy in families
        assert families["pexeso_serve_cluster_requests"]["kind"] == "counter"
        up_slots = {
            labels["slot"]
            for _, labels, _ in
            families["pexeso_serve_cluster_worker_up"]["samples"]
        }
        assert up_slots == {"0", "1"}
        # the HTTP layer merges in resilience gauges
        assert "pexeso_serve_admission_capacity" in families

    def test_coordinator_metrics_text_conforms(self, cluster, columns):
        cluster.client.search(vectors=columns[5][:5], tau=0.5,
                              joinability=0.3)
        text = cluster.coordinator.metrics_text()
        families = parse_exposition(text)
        latency = "pexeso_serve_cluster_slot_latency_seconds"
        assert latency in families
        served_slots = {
            labels["slot"] for name, labels, _ in
            families[latency]["samples"] if name == latency
        }
        assert served_slots  # at least one slot answered a scatter
        slot = sorted(served_slots)[0]
        assert_summary_shape(families, latency, {"slot": slot})
