"""Closed-loop client drivers, the measuring window and the oracle check."""

from __future__ import annotations

import itertools
import statistics
import sys
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from lakes import LakeGenerator
from repro.baselines.exact_naive import naive_search
from spans import SpanRecorder
from workloads import Hit, Workload

#: stream ids of the seeded generator (see LakeGenerator.queries)
ORACLE_STREAM = 1
EXTRA_STREAM = 2
HOT_STREAM = 3
LADDER_STREAM = 4
PROBE_STREAM = 5
CLIENT_STREAM = 100  #: + 10 * client number (+ 1 for its batches)


def wrong_hits(hits: list[Hit], query: np.ndarray, columns, spec) -> bool:
    """Whether an answer differs from the exhaustive scan of ``columns``.

    Column ids must be equal; a match count must equal the oracle's when
    the reply marks it exact and otherwise lie between the joinability
    threshold and the oracle's count (early termination reports a lower
    bound). Hits on columns outside ``columns`` (live write-schedule
    columns) are ignored.
    """
    truth = naive_search(columns, query, spec.tau, spec.joinability)
    expected = {h.column_id: h.match_count for h in truth.joinable}
    got = {cid: (count, exact) for cid, count, exact in hits if cid < len(columns)}
    if set(got) != set(expected):
        return True
    for cid, (count, exact) in got.items():
        if exact and count != expected[cid]:
            return True
        if not truth.t_count <= count <= expected[cid]:
            return True
    return False


class Verdict:
    """Ops attempted and failed (errors, timeouts, wrong answers)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, hits, query, columns, spec) -> None:
        self.attempted += 1
        if hits is None or wrong_hits(hits, query, columns, spec):
            self.failed += 1


def oracle_check(client, queries, columns, spec, verdict: Verdict) -> None:
    """The queries through the workload's full path against the exhaustive scan."""
    for query in queries:
        try:
            hits = client.search(query)
        except Exception as exc:  # counted as a failed op, reported below
            print(f"oracle query failed: {exc!r}", file=sys.stderr)
            hits = None
        verdict.check(hits, query, columns, spec)


class ClientDriver:
    """One closed-loop client: cycles the workload's pattern, logs every op."""

    N_HOT = 8

    def __init__(self, client, workload: Workload, gen: LakeGenerator,
                 number: int, recorder: SpanRecorder):
        self.client = client
        self.workload = workload
        self.recorder = recorder
        # one query stream per kind of op, so each walks the domains evenly
        self._singles = gen.query_stream(CLIENT_STREAM + 10 * number)
        self._batched = gen.query_stream(CLIENT_STREAM + 10 * number + 1)
        self.hot = gen.queries(self.N_HOT, stream=HOT_STREAM)
        self.extra = gen.extra_columns(4, stream=EXTRA_STREAM)
        self._outstanding: deque[int] = deque()
        self._writes = 0
        self._cycles = 0
        self.reset()

    def reset(self) -> None:
        """Forget what was logged (the warm-up's samples are not reported)."""
        #: seconds of every completed op, by kind
        self.ops: dict[str, list[float]] = {
            kind: [] for kind in ("search", "hot", "batch", "add", "delete")
        }
        self.batch_columns = 0
        self.replies: list[tuple[np.ndarray, list[Hit]]] = []
        self.attempted = 0
        self.errors = 0

    def _timed(self, kind: str, call, *args):
        """Run one op under an op span; log its latency or its failure."""
        self.attempted += 1
        with self.recorder.root("op." + kind) as op:
            started = time.perf_counter()
            try:
                with op.child("client." + kind):
                    out = call(*args)
            except Exception:  # a failed op is a counted outcome, not a crash
                self.errors += 1
                if self.errors == 1:
                    traceback.print_exc(file=sys.stderr)
                return None
            self.ops[kind].append(time.perf_counter() - started)
        return out

    def _add(self) -> None:
        column = self.extra[self._writes % len(self.extra)]
        self._writes += 1
        column_id = self._timed("add", self.client.add, column)
        if column_id is not None:
            self._outstanding.append(column_id)

    def _delete(self) -> None:
        if self._outstanding:
            self._timed("delete", self.client.delete, self._outstanding.popleft())

    def _op(self, op: str) -> None:
        if op == "search":
            query = next(self._singles)
            hits = self._timed("search", self.client.search, query)
            if hits is not None:
                self.replies.append((query, hits))
        elif op == "hot":
            self._timed("hot", self.client.search, self.hot[self._cycles % self.N_HOT])
        elif op.startswith("batch:"):
            queries = list(itertools.islice(self._batched, int(op[6:])))
            answers = self._timed("batch", self.client.search_many, queries)
            if answers is not None:
                self.batch_columns += len(queries)
                self.replies.append((queries[0], answers[0]))
        elif op == "add":
            self._add()
        elif op == "delete":
            self._delete()
        elif op == "write":
            self._delete() if self._outstanding else self._add()
        else:
            raise ValueError(f"unknown op {op!r}")

    def run(self, seconds: float) -> None:
        """Whole cycles of the workload's pattern until ``seconds`` have passed.

        The cycle in flight at the deadline is completed (and a window
        shorter than one cycle still runs one), so every kind of op the
        pattern holds is sampled in the same proportion.
        """
        deadline = time.perf_counter() + seconds
        cycled = False
        while not cycled or time.perf_counter() < deadline:
            for op in self.workload.pattern:
                self._op(op)
            self._cycles += 1
            cycled = True

    def drain(self) -> None:
        """Delete what the write schedule still has live (untimed)."""
        while self._outstanding:
            self.client.delete(self._outstanding.popleft())


def run_window(drivers: Sequence[ClientDriver], seconds: float) -> float:
    """All clients cycle their pattern concurrently for ``seconds``; the seconds it took."""
    started = time.perf_counter()
    if len(drivers) == 1:
        drivers[0].run(seconds)
    else:
        with ThreadPoolExecutor(max_workers=len(drivers)) as pool:
            for future in [pool.submit(d.run, seconds) for d in drivers]:
                future.result()
    return time.perf_counter() - started


def pooled(drivers: Sequence[ClientDriver], *kinds: str) -> list[float]:
    """The logged seconds of these kinds of op, over all clients."""
    return [seconds for d in drivers for kind in kinds for seconds in d.ops[kind]]


def median_ms(samples: Sequence[float]) -> float:
    return statistics.median(samples) * 1000.0
