"""Spin up a whole cluster on one machine (tests, examples, benchmarks).

:class:`LocalCluster` boots a coordinator server in-process plus N
workers in either of two modes:

* ``mode="thread"`` — workers run inside this process. Fast to start
  and deterministic; what the differential-oracle cluster lane and the
  quickstart use.
* ``mode="process"`` — each worker is a real OS process running
  ``python -m repro.cli cluster-worker``. This is the configuration the
  cluster exists for: every worker owns a core and a GIL, so
  verification-heavy traffic scales with worker count
  (``benchmarks/bench_cluster.py`` measures exactly that).

Everything binds ephemeral ports; :meth:`kill_worker` simulates a crash
(sockets refuse, nothing is told to the coordinator — discovery happens
through failed scatters or health checks, like a real outage).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Optional

import repro
from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.server import ClusterHTTPServer, make_cluster_server
from repro.cluster.worker import start_worker


def worker_env(base: Optional[Mapping[str, str]] = None) -> dict[str, str]:
    """The environment of a process-mode worker: ``base`` (default
    ``os.environ``) with this package's source directory first on
    ``PYTHONPATH``, and BLAS pinned to one thread unless ``base`` already
    sets ``OPENBLAS_NUM_THREADS``. Workers parallelise across requests
    and shards; on a 2-core VM, OpenBLAS's default of one thread per
    core made small fits and scans 8-11x slower."""
    env = dict(os.environ if base is None else base)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


class LocalCluster:
    """A coordinator plus N workers over one saved lake directory.

    Use as a context manager::

        with LocalCluster(lake_dir, n_workers=2, replication=2) as cluster:
            reply = cluster.client.search(vectors=q, tau=0.3, joinability=0.5)

    Args:
        lake_dir: a saved partitioned lake
            (:func:`~repro.core.persistence.save_partitioned`).
        n_workers: worker count (= slots in the shard map).
        replication: replicas per partition.
        mode: ``"thread"`` (in-process workers) or ``"process"``
            (one subprocess per worker via the CLI).
        worker_kwargs: per-worker :class:`~repro.serve.service.QueryService`
            configuration — thread mode passes it through directly;
            process mode maps the supported keys (``window_ms``,
            ``max_batch``, ``cache_size``, ``max_workers``) onto
            ``cluster-worker`` CLI flags.
        coordinator_kwargs: extra :class:`ClusterCoordinator` arguments
            (``retries``, ``timeout``, ``resilience``, ``fault_injector``).
        worker_fault_injectors: per-worker
            :class:`~repro.serve.faults.FaultInjector` s, indexed by
            spawn order (``None`` entries skip a worker). Thread mode
            only — chaos tests script one worker slow or flaky while
            its replica stays healthy.
        server_kwargs: extra :func:`make_cluster_server` arguments for
            the coordinator's front door (``max_concurrent``,
            ``fault_injector``).
    """

    def __init__(
        self,
        lake_dir: str | Path,
        n_workers: int,
        replication: int = 1,
        mode: str = "thread",
        worker_kwargs: Optional[dict[str, Any]] = None,
        coordinator_kwargs: Optional[dict[str, Any]] = None,
        startup_timeout: float = 60.0,
        worker_fault_injectors: Optional[list[Any]] = None,
        server_kwargs: Optional[dict[str, Any]] = None,
    ):
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown mode {mode!r} (thread | process)")
        if worker_fault_injectors and mode != "thread":
            raise ValueError("worker_fault_injectors requires thread mode")
        self.lake_dir = Path(lake_dir)
        self.n_workers = int(n_workers)
        self.replication = int(replication)
        self.mode = mode
        self.worker_kwargs = dict(worker_kwargs or {})
        self.coordinator_kwargs = dict(coordinator_kwargs or {})
        self.worker_fault_injectors = list(worker_fault_injectors or [])
        self.server_kwargs = dict(server_kwargs or {})
        self.startup_timeout = float(startup_timeout)

        self.coordinator: Optional[ClusterCoordinator] = None
        self.coordinator_server: Optional[ClusterHTTPServer] = None
        self._coordinator_thread: Optional[threading.Thread] = None
        #: thread mode: (server, slot, thread); process mode: Popen
        self._workers: list[Any] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------------

    @property
    def url(self) -> str:
        if self.coordinator_server is None:
            raise RuntimeError("cluster is not started")
        return self.coordinator_server.url

    @property
    def client(self) -> ClusterClient:
        return ClusterClient(self.url, retries=2)

    def start(self) -> "LocalCluster":
        if self._started:
            return self
        stale = self.lake_dir / "cluster.json"
        if stale.exists():
            # each LocalCluster run is a fresh deployment of the saved
            # lake; a previous run's worker URLs would poison slot reuse
            stale.unlink()
        self.coordinator = ClusterCoordinator(
            self.lake_dir,
            n_workers=self.n_workers,
            replication=self.replication,
            **self.coordinator_kwargs,
        )
        self.coordinator_server = make_cluster_server(
            self.coordinator, port=0, **self.server_kwargs
        )
        self._coordinator_thread = threading.Thread(
            target=self.coordinator_server.serve_forever,
            name="cluster-coordinator",
            daemon=True,
        )
        self._coordinator_thread.start()
        self._started = True
        for _ in range(self.n_workers):
            self._spawn_worker()
        self.wait_until_serviceable(self.startup_timeout)
        return self

    def _spawn_worker(self) -> None:
        if self.mode == "thread":
            index = len(self._workers)
            injector = (
                self.worker_fault_injectors[index]
                if index < len(self.worker_fault_injectors)
                else None
            )
            self._workers.append(
                start_worker(
                    self.lake_dir, self.url,
                    fault_injector=injector, **self.worker_kwargs,
                )
            )
            return
        env = worker_env()
        cmd = [
            sys.executable, "-m", "repro.cli", "cluster-worker",
            str(self.lake_dir), "--coordinator", self.url, "--port", "0",
        ]
        flag_names = {
            "window_ms": "--window-ms",
            "max_batch": "--max-batch",
            "cache_size": "--cache-size",
            "max_workers": "--workers",
        }
        for key, value in self.worker_kwargs.items():
            if key in flag_names:
                if value is not None:
                    cmd.extend([flag_names[key], str(value)])
            else:
                raise ValueError(
                    f"worker option {key!r} has no cluster-worker CLI flag"
                )
        self._workers.append(
            subprocess.Popen(
                cmd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        )

    def wait_until_serviceable(self, timeout: float = 60.0) -> None:
        """Block until every partition has a live worker.

        Raises:
            TimeoutError: when the cluster does not come up in time
                (process mode: includes worker exit codes to debug).
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.coordinator.shard_map.is_serviceable():
                return
            if self.mode == "process":
                for proc in self._workers:
                    code = proc.poll()
                    if code not in (None, 0):
                        raise RuntimeError(
                            f"cluster worker exited with code {code} during "
                            "startup (is the lake directory valid?)"
                        )
            time.sleep(0.02)
        raise TimeoutError(
            f"cluster not serviceable after {timeout}s "
            f"(workers: {self.coordinator.shard_map.statuses()})"
        )

    def kill_worker(self, index: int) -> None:
        """Crash one worker without telling the coordinator.

        Thread mode closes the worker's listening socket outright (no
        drain); process mode SIGKILLs the subprocess. Either way, the
        next scatter that routes to it fails at the transport level and
        fails over to a replica.
        """
        worker = self._workers[index]
        if self.mode == "thread":
            server, _slot, thread = worker
            server.close(drain_seconds=0.0)
            thread.join(timeout=5.0)
        else:
            worker.kill()
            worker.wait(timeout=10.0)

    def stop(self) -> None:
        for index in range(len(self._workers)):
            try:
                self.kill_worker(index)
            except Exception:
                pass
        self._workers.clear()
        if self.coordinator_server is not None:
            self.coordinator_server.close()
            self.coordinator_server = None
        if self._coordinator_thread is not None:
            self._coordinator_thread.join(timeout=5.0)
            self._coordinator_thread = None
        self._started = False

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
