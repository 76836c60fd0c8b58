"""Worker bootstrap: claim a slot, load the shard subset, start serving.

A cluster worker is an ordinary serving node
(:class:`~repro.serve.server.ServeHTTPServer` over a
:class:`~repro.serve.service.QueryService`) whose backend is a
*parts-restricted* :class:`~repro.core.out_of_core.PartitionedPexeso`:
it loads only the partitions the coordinator assigned to its slot
(:func:`~repro.core.persistence.load_partitioned` with ``parts=``), so
N workers hold the lake once per replica — not N times.

The join protocol is two-phase because ephemeral ports are only known
after binding:

1. ``POST /workers`` — claim a slot, learn the assigned partitions;
2. load the subset, build the service, bind the HTTP server and start
   answering on a daemon thread;
3. ``POST /workers/<slot>/ready`` with the bound URL — the coordinator
   replays any mutations logged since the lake was saved, verifies
   ``/healthz`` and promotes the worker to ``up``. (The worker must
   already be answering here, which is why serving starts in step 2.)
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Optional

from repro.cluster.client import ClusterClient
from repro.core.persistence import load_partitioned
from repro.serve.server import ServeHTTPServer, make_server
from repro.serve.service import QueryService


def start_worker(
    lake_dir: str | Path,
    coordinator_url: str,
    host: str = "127.0.0.1",
    port: int = 0,
    advertise_host: Optional[str] = None,
    retries: int = 2,
    timeout: float = 60.0,
    fault_injector=None,
    max_concurrent: Optional[int] = None,
    **service_kwargs: Any,
) -> tuple[ServeHTTPServer, int, threading.Thread]:
    """Join a cluster; returns ``(running server, slot, serving thread)``.

    The server is already answering when this returns (the ``ready``
    handshake requires it — the coordinator health-checks and replays
    missed mutations synchronously). Stop it with ``server.close()``
    (drains in-flight requests) and join the returned thread; or wire
    :func:`~repro.serve.server.install_signal_handlers` and block on
    ``thread.join()``, as the CLI's ``cluster-worker`` does.

    Args:
        lake_dir: the shared saved-lake directory (same one the
            coordinator reads).
        coordinator_url: the coordinator's base URL.
        advertise_host: hostname workers are reachable at from the
            coordinator, when it differs from the bind ``host``.
        fault_injector: optional
            :class:`~repro.serve.faults.FaultInjector` scripting faults
            on this worker's request handling (scripted slow-worker and
            chaos profiles).
        max_concurrent: admission capacity for this worker's server.
        service_kwargs: :class:`~repro.serve.service.QueryService`
            configuration (``window_ms``, ``cache_size``,
            ``max_workers`` ...).
    """
    client = ClusterClient(coordinator_url, timeout=timeout, retries=retries)
    assignment = client.register_worker()
    slot = int(assignment["slot"])
    # mmap=True: over a saved lake the hosted shards open zero-copy, so a
    # cold start (or a failover replacement spinning up) is a few mmap
    # calls instead of reading every shard's arrays into the heap.
    backend = load_partitioned(Path(lake_dir), parts=assignment["parts"], mmap=True)
    service = QueryService(backend, **service_kwargs)
    server = make_server(
        service, host=host, port=port,
        fault_injector=fault_injector, max_concurrent=max_concurrent,
    )
    thread = threading.Thread(
        target=server.serve_forever, name=f"cluster-worker-{slot}", daemon=True
    )
    thread.start()
    bound_port = server.server_address[1]
    url = f"http://{advertise_host or host}:{bound_port}"
    try:
        client.worker_ready(slot, url)
    except BaseException:
        server.close(drain_seconds=0.0)
        raise
    return server, slot, thread
