"""The serving daemon: one warm store, many clients.

An asyncio TCP server speaking newline-delimited JSON: each request is
one JSON object on one line, each response one JSON object on one line.
Verbs:

=========  ==========================================================
``ping``   liveness + identity (pid, version, store directory)
``evaluate``  one scenario (``{"scenario": {...}}``) -> tidy records
``sweep``  a whole grid (``{"sweep": {...}}``) -> tidy records
``stats``  request counters, scheduler stats, per-tier cache stats
``shutdown``  stop serving after acknowledging
=========  ==========================================================

Responses are ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": "..."}``; a malformed line gets an error response instead of a
dropped connection, and one client's failure never takes the server
down.

Evaluations run in a worker thread (the event loop stays responsive to
``ping``/``stats`` while a batch simulates) but are serialized through
one :class:`~repro.service.scheduler.BatchScheduler`, which runs store
misses in-process or on its supervised worker fleet.  All clients
therefore share a single warm store and in-memory cache: the second
client to ask for a sweep gets it back without a single simulation.

The line server here is the only one in the service: the fleet router
(:mod:`repro.service.fleet.router`) serves through the same loop,
launcher and :class:`ServerHandle`.  Anything served provides a
``stopping`` flag and a ``serving()`` async context manager that yields
its ``answer(request, received)`` coroutine function for the lifetime
of the loop.

:func:`serve` blocks (the ``python -m repro.service serve`` entry
point); :func:`serve_background` runs the same server on a daemon
thread and returns a handle -- the form tests and doctests use.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import queue
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.experiments import common
from repro.service.scheduler import BatchScheduler
from repro.version import __version__

#: Default TCP port (overridden by ``--port``; 0 picks an ephemeral one).
DEFAULT_PORT = 7917

_MAX_LINE = 16 * 1024 * 1024  # one request line; sweep grids are small

#: Verbs answered inline on the event loop, outside the batch lock --
#: strictly O(1), so a health check succeeds mid-simulation.
_INLINE_VERBS = frozenset({"ping", "shutdown"})

#: Read-only verbs that may do bounded I/O (``stats`` reconciles the
#: store's objects tree): off the event loop, but not behind the batch
#: lock either, so they answer while a sweep simulates.
_UNLOCKED_VERBS = frozenset({"stats"})


def _verb_of(request: Any) -> Any:
    return request.get("verb") if isinstance(request, dict) else None


class ServiceProtocolError(ValueError):
    """A request the daemon understood enough to reject."""


class DeadlineExceeded(ServiceProtocolError):
    """A request whose client-supplied deadline lapsed before execution."""


class ServiceError(RuntimeError):
    """A server processed the request and reported a failure.

    Clients raise it with the server's message.  The line server answers
    it with that message verbatim, which is how the fleet router passes
    a member daemon's error through to its own client unchanged.
    """


class EvaluationDaemon:
    """Request dispatch around one scheduler (transport-independent)."""

    def __init__(self, scheduler: Optional[BatchScheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else BatchScheduler()
        self.requests: Dict[str, int] = {}
        self.stopping = False

    def dispatch(self, request: Any, received: Optional[float] = None) -> Any:
        """One decoded request object -> the response's ``result``.

        ``received`` is the monotonic receipt time; a request carrying
        ``deadline_s`` (the client's remaining per-request budget) is
        rejected here -- possibly after waiting out the batch lock --
        rather than evaluated for a caller that stopped listening.  The
        client never retries a :class:`DeadlineExceeded` answer: the
        budget is gone either way.
        """
        if not isinstance(request, dict) or "verb" not in request:
            raise ServiceProtocolError(
                'requests are JSON objects with a "verb" key'
            )
        verb = request["verb"]
        handler = (
            getattr(self, f"_verb_{verb.replace('-', '_')}", None)
            if isinstance(verb, str)
            else None
        )
        if handler is None:
            raise ServiceProtocolError(f"unknown verb {verb!r}")
        deadline = request.get("deadline_s")
        if deadline is not None:
            try:
                deadline = float(deadline)
            except (TypeError, ValueError):
                raise ServiceProtocolError(
                    f"deadline_s must be a number, got {deadline!r}"
                ) from None
            waited = time.monotonic() - received if received is not None else 0.0
            if waited >= deadline:
                raise DeadlineExceeded(
                    f"request deadline of {deadline:g}s lapsed before "
                    f"execution ({waited:.3f}s queued)"
                )
        self.requests[verb] = self.requests.get(verb, 0) + 1
        return handler(request)

    # -- verbs ---------------------------------------------------------------

    def _verb_ping(self, request: Any) -> Dict[str, Any]:
        return {
            "service": "repro.service",
            "version": __version__,
            "pid": os.getpid(),
            "store": self.scheduler.store_path(),
        }

    def _verb_evaluate(self, request: Any) -> Dict[str, Any]:
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise ServiceProtocolError('evaluate needs a "scenario" object')
        return {"records": self.scheduler.submit([scenario]).to_records()}

    def _verb_sweep(self, request: Any) -> Dict[str, Any]:
        grid = request.get("sweep")
        if not isinstance(grid, dict):
            raise ServiceProtocolError('sweep needs a "sweep" grid object')
        return {"records": self.scheduler.submit_sweep(grid).to_records()}

    def _verb_stats(self, request: Any) -> Dict[str, Any]:
        from repro.telemetry import registry

        return {
            "requests": dict(self.requests),
            "scheduler": self.scheduler.stats(),
            "cache": common.cache_stats(),
            "store": self.scheduler.store_stats(),
            "metrics": registry().snapshot(),
        }

    def _verb_shutdown(self, request: Any) -> Dict[str, Any]:
        self.stopping = True
        return {"stopping": True}

    @contextlib.asynccontextmanager
    async def serving(self):
        """The line server's view of the daemon, for one serve loop.

        Yields the answer policy: ``ping``/``shutdown`` inline on the
        event loop, ``stats`` on the executor, and everything else on
        the executor behind one batch lock.  Closes the scheduler (stops
        the worker fleet, flushes the store) when serving ends.
        """
        loop = asyncio.get_running_loop()
        lock = asyncio.Lock()

        async def answer(request: Any, received: float) -> Any:
            verb = _verb_of(request)
            if verb in _INLINE_VERBS:
                # Answer immediately, even while a batch is simulating
                # on the executor.
                return self.dispatch(request, received)
            if verb in _UNLOCKED_VERBS:
                return await loop.run_in_executor(
                    None, self.dispatch, request, received
                )
            # One batch at a time: the scheduler owns the evaluation
            # runtime, and interleaved submits would interleave its
            # stats and store scoping.  (Deadlines are re-checked inside
            # dispatch, so time queued on this lock counts against them.)
            async with lock:
                return await loop.run_in_executor(
                    None, self.dispatch, request, received
                )

        try:
            yield answer
        finally:
            self.scheduler.close()


def _encode(response: Dict[str, Any]) -> bytes:
    return (json.dumps(response) + "\n").encode("utf-8")


async def _answer_connection(server, answer, stopped, reader, writer) -> None:
    """Answer one client's request lines until it hangs up."""
    try:
        while True:
            try:
                line = await reader.readline()
            except ConnectionError:
                break
            except ValueError:
                # readline() surfaces a line beyond the stream limit as
                # ValueError (LimitOverrunError included); the buffer is
                # unrecoverable mid-line, so answer once and drop only
                # this connection.
                writer.write(_encode({
                    "ok": False,
                    "error": f"request line exceeds {_MAX_LINE} bytes",
                }))
                await writer.drain()
                break
            if not line:
                break
            if not line.strip():
                continue
            try:
                received = time.monotonic()
                result = await answer(json.loads(line), received)
                response = {"ok": True, "result": result}
            except ServiceError as exc:
                response = {"ok": False, "error": str(exc)}
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            writer.write(_encode(response))
            await writer.drain()
            if server.stopping:
                stopped.set()
                break
    finally:
        writer.close()


async def _serve_lines(
    server: Any,
    host: str,
    port: int,
    ready: Optional["queue.Queue"] = None,
    announce=None,
) -> None:
    """The JSON-lines server around one served object, until it stops."""
    stopped = asyncio.Event()
    async with server.serving() as answer:
        listener = await asyncio.start_server(
            functools.partial(_answer_connection, server, answer, stopped),
            host, port, limit=_MAX_LINE,
        )
        actual_port = listener.sockets[0].getsockname()[1]
        if announce is not None:
            announce(host, actual_port)
        if ready is not None:
            # The loop + stop event ride along so ServerHandle.stop can
            # escalate past an unresponsive wire protocol (see stop()).
            ready.put((host, actual_port, asyncio.get_running_loop(), stopped))
        async with listener:
            await stopped.wait()


def _run_foreground(server: Any, host: str, port: int, announce, detail: str) -> None:
    """Serve in the calling thread until a ``shutdown`` request.

    ``announce(host, port)`` fires once the socket is bound; the default
    ``print`` writes the ``serving on host:port (detail)`` banner that
    scripts parse to find an ephemeral port.
    """
    if announce is print:
        def announce(h, p):
            print(f"repro.service: serving on {h}:{p} ({detail})", flush=True)
    asyncio.run(_serve_lines(server, host, port, announce=announce))


def _start_background(
    server: Any, host: str, port: int, name: str
) -> Tuple[str, int, threading.Thread, Callable[[], None]]:
    """Serve on a daemon thread; returns once the socket accepts.

    The result is the bound address, the thread, and a switch that sets
    the serve loop's stop event directly on its own event loop.
    """
    ready: "queue.Queue" = queue.Queue()
    thread = threading.Thread(
        target=lambda: asyncio.run(_serve_lines(server, host, port, ready=ready)),
        name=name,
        daemon=True,
    )
    thread.start()
    bound_host, bound_port, loop, stopped = ready.get(timeout=60)

    def force_stop():
        with contextlib.suppress(RuntimeError):  # loop already closed
            loop.call_soon_threadsafe(stopped.set)

    return bound_host, bound_port, thread, force_stop


def serve(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    store: Optional[str] = None,
    max_bytes: Optional[int] = None,
    workers: int = 0,
    announce=print,
) -> None:
    """Run the daemon in the foreground until a ``shutdown`` request.

    Store misses run in-process, or with ``workers=N`` through a
    supervised fleet of N persistent worker subprocesses (heartbeats,
    backoff restarts, crash requeue).

    ``announce(host, port)`` fires once the socket is bound -- the CLI
    prints the ``serving on host:port`` line scripts parse to find an
    ephemeral port.
    """
    daemon = EvaluationDaemon(
        BatchScheduler(store=store, max_bytes=max_bytes, workers=workers)
    )
    _run_foreground(
        daemon, host, port, announce,
        f"store={daemon.scheduler.store_path() or 'none'}",
    )


class ServerHandle:
    """A background server: its bound address plus a ``stop()`` switch."""

    def __init__(
        self,
        host: str,
        port: int,
        thread: threading.Thread,
        force_stop=None,
    ) -> None:
        self.host = host
        self.port = port
        self._thread = thread
        self._force_stop = force_stop

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def stop(self, timeout: float = 10.0) -> bool:
        """Shut the server down; returns whether its thread terminated.

        Escalation ladder: (1) a polite ``shutdown`` over the wire --
        the normal path; (2) if the wire is unreachable or the thread
        outlives ``timeout``, force the serve loop's stop event directly
        on its own event loop, then join again.  Calling ``stop`` on an
        already-stopped server is a no-op that returns ``True``.
        """
        from repro.service.client import ServiceClient

        if self._thread.is_alive():
            try:
                with ServiceClient(self.host, self.port) as client:
                    client.shutdown()
            except (OSError, ServiceError):
                pass  # already stopping (or gone): escalate below
        self._thread.join(timeout)
        if self._thread.is_alive() and self._force_stop is not None:
            self._force_stop()
            self._thread.join(timeout)
        return not self._thread.is_alive()


def serve_background(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[str] = None,
    max_bytes: Optional[int] = None,
    workers: int = 0,
    scheduler: Optional[BatchScheduler] = None,
) -> ServerHandle:
    """Start the daemon on a daemon thread; returns once it accepts.

    ``port=0`` binds an ephemeral port; the handle carries the actual
    address.  Used by tests, doctests and embedders that want a warm
    shared cache without a separate process.  ``scheduler`` injects a
    pre-built scheduler (tests hand in fleets with tight timeouts).
    """
    if scheduler is None:
        scheduler = BatchScheduler(store=store, max_bytes=max_bytes, workers=workers)
    return ServerHandle(
        *_start_background(EvaluationDaemon(scheduler), host, port, "repro-service")
    )
