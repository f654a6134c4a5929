"""Resilient blocking client for the evaluation daemon.

Speaks the daemon's newline-delimited JSON protocol over one persistent
TCP connection.  Results come back as the same tidy records
``Sweep.run`` produces, re-wrapped in a
:class:`~repro.api.results.ResultSet` -- so a remote sweep and an
in-process sweep are drop-in interchangeable:

    with ServiceClient(host, port) as client:
        rs = client.sweep({"systems": ["cpu"], "workloads": ["scan"],
                           "scales": [50.0], "num_partitions": [8]})
        rs.to_json("out.json")

Failure semantics (see docs/ARCHITECTURE.md, "Resilience & failure
semantics"):

- **Idempotent verbs** (``ping``/``stats``/``evaluate``/``sweep``) get
  a bounded retry loop with exponential backoff and jitter on transport
  failure.  A *reused* connection that turns out to be stale earns one
  free reconnect-and-resend before the retry budget is touched --
  restarting the daemon between calls is invisible.  ``shutdown`` is
  never retried or resent: delivered-but-unacknowledged would stop a
  server twice.
- A ``deadline`` (seconds per request) bounds every connect, send and
  receive of the call, retries included, and rides along on the wire as
  ``deadline_s`` (the remaining budget on each resend); the daemon
  refuses to start work for a caller whose budget lapsed while the
  request sat behind the batch lock.  Running out of budget, locally or
  at the daemon, is terminal -- the budget is gone either way.
- ``degrade="local"`` turns an exhausted retry budget on
  ``evaluate``/``sweep`` into an in-process evaluation (with a
  :class:`ServiceDegradedWarning` and a ``degraded`` counter) instead
  of an exception -- results are identical, only the shared warm cache
  is lost.  The default ``degrade="fail"`` raises.

Errors the daemon reports (unknown verbs, invalid scenarios) raise
:class:`ServiceError` with the server's message; transport failures
that outlive the retry budget raise the underlying ``OSError``.
"""

from __future__ import annotations

import json
import socket
import time
import warnings
from typing import Any, Dict, Mapping, Optional, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.sweep import Sweep

from repro.service.daemon import DEFAULT_PORT, ServiceError
from repro.service.resilience.retry import RetryPolicy

#: Verbs that are safe to resend: either read-only or content-addressed
#: (a duplicate ``evaluate``/``sweep`` dedups against the store).
IDEMPOTENT_VERBS = frozenset({"ping", "stats", "evaluate", "sweep"})


class _RetryMatrix:
    """The idempotent-verb retry rules for one call, shared by both clients.

    I/O-free: a client bounds each connect/send/receive by
    :meth:`timeout`, and after a transport failure resends
    :attr:`request` once :meth:`backoff` seconds pass -- or re-raises
    when it returns ``None``.  Daemon-reported errors never get here.
    """

    def __init__(self, client: Any, verb: str, payload: Dict[str, Any],
                 deadline: Optional[float]) -> None:
        self.request = {"verb": verb, **payload}
        self._client = client
        self._idempotent = verb in IDEMPOTENT_VERBS
        self._deadline = deadline
        self._started = time.monotonic()
        if deadline is not None and self._idempotent:
            self.request.setdefault("deadline_s", deadline)
        self._retried = 0
        self._resend_spent = False

    def _remaining(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return self._deadline - (time.monotonic() - self._started)

    def timeout(self, limit: Optional[float]) -> Optional[float]:
        """``limit`` or the remaining deadline, whichever is shorter;
        raises ``TimeoutError`` once the deadline is spent."""
        remaining = self._remaining()
        if remaining is None:
            return limit
        if remaining <= 0:
            raise TimeoutError(f"deadline of {self._deadline}s exhausted before send")
        return remaining if limit is None else min(limit, remaining)

    def backoff(self, reused: bool) -> Optional[float]:
        """Seconds to wait before resending (0.0 for the free resend on
        a reused connection), or ``None`` when the failure is terminal."""
        if not self._idempotent:
            return None
        remaining = self._remaining()
        if remaining is not None:
            if remaining <= 0:
                return None
            self.request["deadline_s"] = remaining
        counters = self._client.resilience
        if reused and not self._resend_spent:
            # The daemon may simply have restarted since the last call
            # on this connection; resending on a fresh socket is free
            # and does not touch the retry budget.
            self._resend_spent = True
            counters["reconnects"] += 1
            return 0.0
        if self._retried >= self._client.retries:
            return None
        counters["retries"] += 1
        self._retried += 1
        return self._client.retry_policy.delay(self._retried - 1, rng=self._client._rng)


class ServiceDegradedWarning(UserWarning):
    """The daemon was unreachable; the client evaluated locally."""


class ServiceClient:
    """One connection to a running evaluation daemon.

    ``retries`` bounds resends of idempotent verbs after transport
    failure (0 disables); ``retry_policy`` shapes the backoff between
    attempts.  ``timeout`` bounds each socket operation; ``deadline`` is
    a per-request budget in seconds, both enforced locally (no socket
    operation outlives it) and propagated to the daemon as
    ``deadline_s``.
    ``degrade`` picks the behaviour when every attempt at an
    ``evaluate``/``sweep`` fails in transport: ``"fail"`` re-raises,
    ``"local"`` falls back to in-process evaluation.  ``rng`` and
    ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
        retries: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        deadline: Optional[float] = None,
        degrade: str = "fail",
        rng=None,
        sleep=time.sleep,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if degrade not in ("fail", "local"):
            raise ValueError('degrade must be "fail" or "local"')
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy(retries=retries)
        )
        self.deadline = deadline
        self.degrade = degrade
        self._rng = rng
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self.resilience: Dict[str, int] = {
            "retries": 0,
            "reconnects": 0,
            "degraded": 0,
        }

    # -- connection management ----------------------------------------------

    def connect(self) -> "ServiceClient":
        return self._open(self.timeout)

    def _open(self, timeout: Optional[float]) -> "ServiceClient":
        """Connect if closed; bound the socket's operations by ``timeout``."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
            self._reader = self._sock.makefile("rb")
        else:
            self._sock.settimeout(timeout)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._reader.close()
                self._sock.close()
            finally:
                self._sock, self._reader = None, None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the wire ------------------------------------------------------------

    def _exchange(self, request: Dict[str, Any]) -> Any:
        """One raw request/response round trip on the live connection.

        Any transport failure (timeout included) closes the connection:
        a response that arrives after a timeout would otherwise sit in
        the buffer and be read as the answer to the *next* request.
        """
        try:
            self._sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            line = self._reader.readline()
            response = json.loads(line) if line else None
        except (OSError, ValueError):
            self.close()
            raise
        if response is None:
            self.close()
            raise ConnectionResetError(
                f"daemon at {self.host}:{self.port} closed the connection"
            )
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown daemon error"))
        return response["result"]

    def call(self, verb: str, **payload: Any) -> Any:
        """One request/response round trip; returns the ``result``.

        Idempotent verbs survive transport failure: a stale reused
        connection gets one free reconnect-and-resend, and fresh
        failures are retried up to ``retries`` times with backoff.
        Non-idempotent verbs (``shutdown``) fail on the first transport
        error.  Daemon-reported errors (:class:`ServiceError`) are
        never retried -- the daemon already answered.  With a
        ``deadline``, no connect, send or receive outlives the budget.
        """
        matrix = _RetryMatrix(self, verb, payload, self.deadline)
        while True:
            reused = self._sock is not None
            try:
                self._open(matrix.timeout(self.timeout))
                return self._exchange(matrix.request)
            except (OSError, ValueError):
                delay = matrix.backoff(reused)
                if delay is None:
                    raise
            if delay:
                self._sleep(delay)

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        """Daemon identity: service name, version, pid, store directory."""
        return self.call("ping")

    def stats(self) -> Dict[str, Any]:
        """Request counters plus scheduler/cache/store statistics."""
        return self.call("stats")

    def _degrade_local(self, what: str, runner, exc: Exception) -> ResultSet:
        """Fall back to in-process evaluation after transport exhaustion."""
        from repro.experiments import common

        warnings.warn(
            f"evaluation daemon at {self.host}:{self.port} unreachable "
            f"({type(exc).__name__}: {exc}); degrading {what} to local "
            f"in-process evaluation",
            ServiceDegradedWarning,
            stacklevel=3,
        )
        self.resilience["degraded"] += 1
        common.note_degraded()
        return runner()

    def evaluate(self, scenario: Union[Scenario, Mapping[str, Any]]) -> ResultSet:
        """Evaluate one scenario remotely (or locally, when degrading)."""
        if isinstance(scenario, Scenario):
            scenario = scenario.to_dict()
        scenario = dict(scenario)
        try:
            result = self.call("evaluate", scenario=scenario)
        except (OSError, ValueError) as exc:
            if self.degrade != "local":
                raise
            return self._degrade_local(
                "evaluate",
                lambda: ResultSet(Scenario.from_dict(scenario).records()),
                exc,
            )
        return ResultSet(result["records"])

    def sweep(self, sweep: Union[Sweep, Mapping[str, Any]]) -> ResultSet:
        """Evaluate a whole sweep grid remotely (or locally, degrading)."""
        if isinstance(sweep, Sweep):
            sweep = sweep.to_dict()
        sweep = dict(sweep)
        try:
            result = self.call("sweep", sweep=sweep)
        except (OSError, ValueError) as exc:
            if self.degrade != "local":
                raise
            return self._degrade_local(
                "sweep", lambda: Sweep.from_dict(sweep).run(), exc
            )
        return ResultSet(result["records"])

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to stop serving (acknowledged before exit).

        Never retried or resent: a shutdown that was delivered but not
        acknowledged must not be fired twice at whatever starts
        listening on the port next.
        """
        return self.call("shutdown")
