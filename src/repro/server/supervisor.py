"""Multi-worker serving: one port, N worker processes, one fleet view.

:class:`FleetSupervisor` turns the single-process :class:`~repro.server.
AuditServer` into a multi-core fleet:

* **One listening port.**  Where the platform supports it, the parent
  binds a placeholder socket with ``SO_REUSEPORT`` only to resolve the
  port, and every worker then binds its *own* ``SO_REUSEPORT`` sibling —
  per-worker kernel accept queues, no shared-socket thundering herd.
  Where ``SO_REUSEPORT`` is unavailable the parent binds one listening
  socket and the workers inherit its fd across ``fork`` (a shared accept
  queue; spawn-only platforms without ``SO_REUSEPORT`` are rejected with
  a typed error, because spawned children cannot inherit the fd).
* **One service replica per worker.**  Each worker process calls the
  supplied zero-argument ``service_factory`` *after* the fork, so every
  worker owns its service outright — including an
  :class:`~repro.api.AuditService` on process shards, whose shard
  subprocesses then belong to that worker.  Because replicas are
  independent, fleet workers serve **read-only**: mutating endpoints
  answer a typed 501 instead of silently diverging one replica.
* **One fleet metrics view.**  Every worker runs a loopback control
  listener next to its main one (same :class:`~repro.server.app.AuditAPI`,
  same counters).  The supervisor collects the control ports at startup
  and broadcasts the list to every worker, so ``GET /v1/metrics`` on any
  worker fans out over loopback and merges the per-worker snapshots
  (counters sum, latency reservoirs merge — see
  :func:`repro.server.metrics.merge_snapshots`).
* **Graceful drain.**  SIGTERM reaches each worker, which closes its
  listener (new dials are refused), lets in-flight requests — streaming
  NDJSON responses included — run to completion, closes idle keep-alive
  connections, and exits 0.

``repro-audit serve --workers N`` routes here via :func:`run_fleet`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections.abc import Callable
from typing import Any

from ..api.errors import InvalidRequestError

#: Seconds the parent waits for every worker to bind and report ready.
STARTUP_TIMEOUT = 60.0


def reuseport_available() -> bool:
    """Whether this platform exposes ``SO_REUSEPORT``."""
    return hasattr(socket, "SO_REUSEPORT")


def _fork_context() -> multiprocessing.context.BaseContext | None:
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _bind_socket(host: str, port: int, *, reuseport: bool, listen: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(
    index: int,
    service_factory: Callable[[], Any],
    host: str,
    port: int,
    inherited_sock: socket.socket | None,
    conn: Any,
    grace_seconds: float,
    read_only: bool,
) -> None:
    """One fleet worker: open a private service replica, serve the shared
    port plus a loopback control listener, drain on SIGTERM."""
    import asyncio

    from .app import AuditAPI, AuditServer

    # The parent coordinates shutdown: a terminal Ctrl-C lands on the
    # whole process group, and the parent follows with per-worker
    # SIGTERM — ignore the direct SIGINT to avoid a KeyboardInterrupt
    # racing the drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    service = service_factory()

    async def run() -> None:
        if inherited_sock is not None:
            sock = inherited_sock
        else:
            sock = _bind_socket(host, port, reuseport=True, listen=True)
        api = AuditAPI(service, read_only=read_only)
        main = AuditServer(service, sock=sock, api=api)
        control = AuditServer(service, "127.0.0.1", 0, api=api)
        await main.start_async()
        await control.start_async()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await loop.run_in_executor(None, conn.send, (main.port, control.port))
        peer_ports = await loop.run_in_executor(None, conn.recv)
        api.configure_fleet(peer_ports, control.port)
        await stop.wait()
        await main.stop_async(
            drain=True, grace_seconds=grace_seconds, close_api=False
        )
        await control.stop_async(
            drain=True, grace_seconds=grace_seconds, close_api=False
        )
        api.close()

    asyncio.run(run())


class FleetSupervisor:
    """Binds the port, forks the workers, runs the rendezvous, reaps.

    ``service_factory`` must be a zero-argument callable invoked *inside*
    each worker process (picklable on spawn-only platforms; any callable
    under ``fork``).  Passing an already-open service object is rejected:
    a live service carries locks, and possibly per-shard subprocesses,
    that cannot be shared across worker processes.
    """

    def __init__(
        self,
        service_factory: Callable[[], Any],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        *,
        grace_seconds: float = 10.0,
    ) -> None:
        if not callable(service_factory) or hasattr(service_factory, "explain"):
            raise InvalidRequestError(
                "multi-worker serving needs a zero-argument service "
                "*factory*, not an open service instance: a live "
                "in-process service (RW locks, per-shard "
                "worker processes) cannot be shared across server "
                "processes. Pass e.g. `lambda: open_service(db, "
                "templates, config=config)` so each worker opens its own "
                "replica."
            )
        if workers < 1:
            raise InvalidRequestError("workers must be >= 1")
        self._context = _fork_context()
        self._reuseport = reuseport_available()
        if not self._reuseport and self._context is None:
            raise InvalidRequestError(
                "multi-worker serving needs SO_REUSEPORT or a fork start "
                "method: this platform offers neither (spawned workers "
                "cannot inherit the parent-bound listening socket), so "
                "run a single server instead (--workers 1)"
            )
        if self._context is None:
            self._context = multiprocessing.get_context()
        self.service_factory = service_factory
        self.host = host
        self.port = port
        self.workers = workers
        self.grace_seconds = grace_seconds
        self.processes: list[Any] = []
        self.control_ports: list[int] = []
        self._pipes: list[Any] = []
        self._parent_sock: socket.socket | None = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        """Bind, fork every worker, run the rendezvous; returns once all
        workers are accepting (raises after cleanup if any fails)."""
        if self.processes:
            raise RuntimeError("fleet already started")
        if self._reuseport:
            # Placeholder bind resolves an ephemeral port without ever
            # listening (a bound-but-not-listening SO_REUSEPORT socket
            # receives no connections); workers bind their own siblings.
            self._parent_sock = _bind_socket(
                self.host, self.port, reuseport=True, listen=False
            )
            inherited: socket.socket | None = None
        else:
            # Fallback: one parent-bound listening socket whose fd every
            # forked worker inherits (shared accept queue).
            self._parent_sock = _bind_socket(
                self.host, self.port, reuseport=False, listen=True
            )
            inherited = self._parent_sock
        self.port = self._parent_sock.getsockname()[1]
        # Workers >1 over one replica each is read-only (see module doc).
        read_only = self.workers > 1
        try:
            for index in range(self.workers):
                parent_conn, child_conn = self._context.Pipe()
                process = self._context.Process(
                    target=_worker_main,
                    args=(
                        index,
                        self.service_factory,
                        self.host,
                        self.port,
                        inherited,
                        child_conn,
                        self.grace_seconds,
                        read_only,
                    ),
                    name=f"repro-serve-worker-{index}",
                )
                process.start()
                child_conn.close()
                self.processes.append(process)
                self._pipes.append(parent_conn)
            self.control_ports = self._rendezvous()
        except BaseException:
            self.stop(force=True)
            raise
        if self._reuseport:
            # Workers hold the port via their own sockets now.
            self._parent_sock.close()
            self._parent_sock = None
        return self

    def _rendezvous(self) -> list[int]:
        """Collect every worker's (main, control) ports, then broadcast
        the full control-port list so workers can aggregate metrics."""
        deadline = time.monotonic() + STARTUP_TIMEOUT
        ports: list[tuple[int, int]] = []
        for process, pipe in zip(self.processes, self._pipes):
            while not pipe.poll(0.05):
                if not process.is_alive():
                    raise RuntimeError(
                        f"fleet worker {process.name} exited with code "
                        f"{process.exitcode} before binding"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"fleet worker {process.name} did not report "
                        f"ready within {STARTUP_TIMEOUT:.0f}s"
                    )
            ports.append(pipe.recv())
        control_ports = [control for _main, control in ports]
        for pipe in self._pipes:
            pipe.send(control_ports)
        return control_ports

    # ------------------------------------------------------------------
    def stop(self, force: bool = False) -> None:
        """SIGTERM every worker (graceful drain) and reap; ``force``
        escalates to ``terminate()`` without waiting for the drain."""
        for process in self.processes:
            if process.is_alive():
                with contextlib.suppress(ProcessLookupError, OSError):
                    if force:
                        process.terminate()
                    else:
                        os.kill(process.pid, signal.SIGTERM)
        join_timeout = 5.0 if force else self.grace_seconds + 10.0
        for process in self.processes:
            process.join(timeout=join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for pipe in self._pipes:
            pipe.close()
        if self._parent_sock is not None:
            self._parent_sock.close()
            self._parent_sock = None
        self.processes = []
        self._pipes = []
        self.control_ports = []

    def any_worker_dead(self) -> bool:
        return any(not p.is_alive() for p in self.processes)

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def run_fleet(
    service_factory: Callable[[], Any],
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    *,
    grace_seconds: float = 10.0,
    print_fn: Callable[[str], None] = print,
) -> int:
    """Serve a worker fleet, blocking until SIGINT/SIGTERM — the
    ``repro-audit serve --workers N`` engine.  Prints the same
    ``listening on http://host:port`` line as single-worker ``serve()``
    (scripts parse it for ephemeral ports), plus the fleet shape.
    Returns 0 on a signal-driven drain, 1 if a worker died unexpectedly.
    """
    supervisor = FleetSupervisor(
        service_factory, host, port, workers, grace_seconds=grace_seconds
    )
    supervisor.start()
    mode = "SO_REUSEPORT" if supervisor._reuseport else "inherited fd"
    print_fn(f"listening on {supervisor.base_url}")
    print_fn(f"fleet: {workers} worker(s) sharing the port via {mode}")
    stop = threading.Event()

    def on_signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    failed = False
    try:
        while not stop.is_set():
            if supervisor.any_worker_dead():
                failed = True
                print_fn("a fleet worker exited unexpectedly; shutting down")
                break
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        supervisor.stop(force=failed)
    print_fn("shutdown complete")
    return 1 if failed else 0


__all__ = [
    "STARTUP_TIMEOUT",
    "FleetSupervisor",
    "reuseport_available",
    "run_fleet",
]
