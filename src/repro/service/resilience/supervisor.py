"""The supervised worker fleet: N evaluation subprocesses, one front door.

A :class:`WorkerFleet` owns ``size`` worker subprocesses (see
:mod:`repro.service.resilience.worker`) and drives batches of scenario
evaluations through them with production-grade supervision:

- **Dispatch.**  One slot thread per worker pulls tasks off a shared
  queue -- a crashed or slow worker never blocks the others.
- **Heartbeat.**  Idle slots ping their worker every
  ``heartbeat_interval`` seconds; a worker that stays silent past the
  ping timeout is declared wedged, killed and replaced.
- **Restart with backoff.**  A dead worker is respawned lazily, paced
  by exponential backoff on the slot's consecutive-crash count, so a
  worker that dies on arrival cannot hot-loop the supervisor.
- **Circuit breaker.**  Consecutive fleet-wide failures trip a
  :class:`~repro.service.resilience.retry.CircuitBreaker`; while open,
  tasks are not fed to workers at all but **degrade to in-process
  evaluation** in the caller -- results keep flowing (byte-identical:
  it is the same simulation either way), only the isolation is lost.
- **Requeue on crash.**  A task in flight on a dying worker is
  requeued (bounded by ``max_task_attempts``, then degraded).  Task ids
  are the point's **content digest** (operator and query points alike),
  the same address the evaluation path consults: if the first attempt
  died *after* writing the store but before replying, the replay is a
  store hit, not a recompute -- replays dedup against the store by
  construction.

``evaluate`` returns records in submission order regardless of which
worker finished what when, so a fleet-run batch exports byte-identically
to a sequential one.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import queue as queue_mod
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.resilience.retry import CircuitBreaker, RetryPolicy
from repro.telemetry import span as _span
from repro.telemetry import trace as _trace


class WorkerTaskError(RuntimeError):
    """A healthy worker reported a task-level failure (bad scenario)."""


class _WorkerDied(Exception):
    """Transport-level loss of a worker: EOF, timeout, garbage, exit."""


class _Worker:
    """One subprocess plus its line-oriented request/response channel."""

    def __init__(self, command: List[str], env: Dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            bufsize=1,
        )

    @property
    def pid(self) -> int:
        return self._proc.pid

    @property
    def alive(self) -> bool:
        return self._proc.poll() is None

    def request(self, payload: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        """One task round trip; raises :class:`_WorkerDied` on any loss.

        The protocol is strictly one-line-in / one-line-out per worker,
        so selecting on the raw pipe before the buffered readline is
        race-free: nothing can sit in the Python-level buffer between
        round trips.
        """
        try:
            self._proc.stdin.write(json.dumps(payload) + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise _WorkerDied(f"worker {self.pid} pipe closed: {exc}") from exc
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        if not ready:
            raise _WorkerDied(f"worker {self.pid} silent for {timeout}s")
        line = self._proc.stdout.readline()
        if not line:
            raise _WorkerDied(f"worker {self.pid} died (exit {self._proc.poll()})")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise _WorkerDied(f"worker {self.pid} spoke garbage: {line!r}") from exc
        if not isinstance(response, dict):
            raise _WorkerDied(f"worker {self.pid} spoke garbage: {line!r}")
        return response

    def stop(self, grace: float = 2.0) -> None:
        """Polite ``exit`` verb, then SIGKILL whatever is left."""
        if self.alive:
            try:
                self.request({"verb": "exit"}, timeout=grace)
            except _WorkerDied:
                pass
        self.kill()

    def kill(self) -> None:
        if self.alive:
            self._proc.kill()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass
        for stream in (self._proc.stdin, self._proc.stdout):
            try:
                stream.close()
            except OSError:  # pragma: no cover - already torn down
                pass


class _Task:
    """One scenario on its way through the fleet."""

    def __init__(self, index: int, task_id: str, scenario: Dict[str, Any],
                 store: Optional[str], cache: bool, batch: "_Batch",
                 trace: bool = False) -> None:
        self.index = index
        self.id = task_id
        self.scenario = scenario
        self.store = store
        self.cache = cache
        self.batch = batch
        self.trace = trace
        self.attempts = 0

    def request(self) -> Dict[str, Any]:
        payload = {
            "verb": "evaluate",
            "id": self.id,
            "scenario": self.scenario,
            "store": self.store,
            "cache": self.cache,
        }
        if self.trace:
            payload["trace"] = True
        return payload


class _Batch:
    """Completion bookkeeping for one ``evaluate`` call."""

    def __init__(self, size: int) -> None:
        self._cond = threading.Condition()
        self._remaining = size
        self.records: Dict[int, List[Dict[str, Any]]] = {}
        self.deltas: List[Dict[str, int]] = []
        self.errors: List[str] = []
        self.local: List[int] = []  # indices degraded to in-process runs
        self.spans: Dict[int, List[Dict[str, Any]]] = {}  # worker trace spans

    def _done_one(self) -> None:
        with self._cond:
            self._remaining -= 1
            if self._remaining <= 0:
                self._cond.notify_all()

    def complete(self, index: int, records, delta, spans=None) -> None:
        self.records[index] = records
        if delta:
            self.deltas.append(delta)
        if spans:
            self.spans[index] = spans
        self._done_one()

    def error(self, index: int, message: str) -> None:
        self.errors.append(message)
        self._done_one()

    def degrade(self, index: int) -> None:
        self.local.append(index)
        self._done_one()

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._remaining <= 0, timeout)


_STOP = object()


class WorkerFleet:
    """``size`` supervised evaluation workers behind one dispatch queue."""

    def __init__(
        self,
        size: int,
        task_timeout: float = 300.0,
        heartbeat_interval: float = 5.0,
        heartbeat_timeout: float = 10.0,
        max_task_attempts: int = 3,
        restart_backoff: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        if size < 1:
            raise ValueError("fleet size must be >= 1")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        self.size = size
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_task_attempts = max_task_attempts
        self.backoff = restart_backoff if restart_backoff is not None else RetryPolicy(
            base_delay=0.05, max_delay=2.0, jitter=0.0
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._env = env
        self._queue: "queue_mod.Queue" = queue_mod.Queue()
        self._workers: List[Optional[_Worker]] = [None] * size
        self._crashes = [0] * size  # consecutive, per slot; reset on success
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._stats = {
            "spawned": 0,
            "restarts": 0,
            "requeues": 0,
            "completed": 0,
            "degraded_tasks": 0,
            "heartbeats": 0,
            "heartbeat_failures": 0,
        }
        self._threads = [
            threading.Thread(
                target=self._slot_loop, args=(i,), name=f"fleet-slot-{i}", daemon=True
            )
            for i in range(size)
        ]
        for i in range(size):  # eager spawn: warm workers, pids known up front
            self._spawn(i)
        for thread in self._threads:
            thread.start()

    # -- worker lifecycle ----------------------------------------------------

    def _command(self) -> List[str]:
        return [sys.executable, "-m", "repro.service.resilience.worker"]

    def _environment(self) -> Dict[str, str]:
        if self._env is not None:
            return dict(self._env)
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        current = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not current else src + os.pathsep + current
        return env

    def _spawn(self, slot: int) -> Optional[_Worker]:
        try:
            worker = _Worker(self._command(), self._environment())
        except OSError:
            self.breaker.record_failure()
            return None
        with self._lock:
            self._workers[slot] = worker
            self._stats["spawned"] += 1
            if self._stats["spawned"] > self.size:
                self._stats["restarts"] += 1
        return worker

    def _discard(self, slot: int) -> None:
        worker, self._workers[slot] = self._workers[slot], None
        if worker is not None:
            worker.kill()

    def _ensure_worker(self, slot: int) -> Optional[_Worker]:
        worker = self._workers[slot]
        if worker is not None and worker.alive:
            return worker
        if worker is not None:
            self._discard(slot)
        return self._spawn(slot)

    # -- the slot loop -------------------------------------------------------

    def _slot_loop(self, slot: int) -> None:
        while not self._closed.is_set():
            try:
                task = self._queue.get(timeout=self.heartbeat_interval)
            except queue_mod.Empty:
                self._heartbeat(slot)
                continue
            if task is _STOP:
                break
            if not self.breaker.allow():
                # Open circuit: the fleet has been failing consistently;
                # stop feeding it and let the caller evaluate locally.
                with self._lock:
                    self._stats["degraded_tasks"] += 1
                task.batch.degrade(task.index)
                continue
            worker = self._ensure_worker(slot)
            if worker is None:
                self._on_failure(slot, task)
                continue
            try:
                response = worker.request(task.request(), timeout=self.task_timeout)
            except _WorkerDied:
                self._discard(slot)
                self._on_failure(slot, task)
                continue
            self.breaker.record_success()
            self._crashes[slot] = 0
            if response.get("ok"):
                with self._lock:
                    self._stats["completed"] += 1
                task.batch.complete(
                    task.index,
                    response.get("records"),
                    response.get("store_delta"),
                    response.get("spans"),
                )
            else:
                # The worker is healthy; the *task* is bad.  Replaying a
                # deterministic failure elsewhere cannot help: surface it.
                task.batch.error(
                    task.index, response.get("error", "unknown worker error")
                )

    def _on_failure(self, slot: int, task: _Task) -> None:
        self.breaker.record_failure()
        task.attempts += 1
        if task.attempts >= self.max_task_attempts:
            with self._lock:
                self._stats["degraded_tasks"] += 1
            task.batch.degrade(task.index)
        else:
            with self._lock:
                self._stats["requeues"] += 1
            self._queue.put(task)
        # Pace the respawn: a crash-on-arrival worker must not hot-loop.
        self._closed.wait(self.backoff.delay(self._crashes[slot]))
        self._crashes[slot] += 1

    def _heartbeat(self, slot: int) -> None:
        worker = self._workers[slot]
        if worker is None:
            if self.breaker.allow():
                self._spawn(slot)
            return
        with self._lock:
            self._stats["heartbeats"] += 1
        try:
            response = worker.request(
                {"verb": "ping", "id": "heartbeat"}, timeout=self.heartbeat_timeout
            )
            if not response.get("pong"):
                raise _WorkerDied(f"worker {worker.pid} mis-answered the heartbeat")
        except _WorkerDied:
            with self._lock:
                self._stats["heartbeat_failures"] += 1
            self.breaker.record_failure()
            self._discard(slot)

    # -- the batch API -------------------------------------------------------

    def evaluate(
        self,
        scenarios,
        store: Optional[str] = None,
        cache: bool = True,
        timeout: Optional[float] = None,
    ) -> Tuple[List[List[Dict[str, Any]]], Dict[str, int], int]:
        """Run one batch; returns (records per scenario, store-counter
        delta summed over workers, number of tasks degraded in-process).

        ``scenarios`` are :class:`~repro.api.scenario.Scenario` objects;
        degraded tasks (circuit open, attempts exhausted, no spawnable
        worker) are evaluated in the *caller's* process at the end, so
        the batch always completes and always against the caller's
        active store selection.
        """
        if self._closed.is_set():
            raise RuntimeError("fleet is closed")
        scenarios = list(scenarios)
        tracer = _trace.active_tracer()
        batch = _Batch(len(scenarios))
        with _span(
            "fleet_batch", category="service", tasks=len(scenarios)
        ) as batch_sp:
            for index, scenario in enumerate(scenarios):
                # Idempotent task id: the point's store address, so a
                # replay of a crashed-after-put attempt is a store hit.
                batch_task = _Task(
                    index,
                    scenario.digest,
                    scenario.to_dict(),
                    store,
                    cache,
                    batch,
                    trace=tracer is not None,
                )
                self._queue.put(batch_task)
            if not batch.wait(timeout):
                raise TimeoutError(
                    f"fleet batch did not complete within {timeout}s"
                )
            if batch.errors:
                raise WorkerTaskError(batch.errors[0])
            for index in sorted(batch.local):
                batch.records[index] = scenarios[index].records()
            batch_sp.set(degraded=len(batch.local))
            if tracer is not None:
                # Re-parent the worker-subprocess spans (shipped back on
                # the JSON-lines side channel) under this batch span, in
                # task order so ids stay deterministic.
                parent = tracer.current_span_id()
                for index in sorted(batch.spans):
                    tracer.adopt(batch.spans[index], parent_id=parent)
        delta: Dict[str, int] = {}
        for partial in batch.deltas:
            for key, value in partial.items():
                delta[key] = delta.get(key, 0) + value
        return (
            [batch.records[i] for i in range(len(scenarios))],
            delta,
            len(batch.local),
        )

    # -- introspection / shutdown --------------------------------------------

    def pids(self) -> List[int]:
        """Live worker pids (the chaos harness's kill list)."""
        with self._lock:
            return [w.pid for w in self._workers if w is not None and w.alive]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            alive = sum(1 for w in self._workers if w is not None and w.alive)
            return dict(
                self._stats,
                size=self.size,
                alive=alive,
                circuit=self.breaker.state,
                pids=[w.pid for w in self._workers if w is not None and w.alive],
            )

    def close(self) -> None:
        """Drain the slot threads and stop every worker."""
        if self._closed.is_set():
            return
        self._closed.set()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=30)
        for slot in range(self.size):
            worker, self._workers[slot] = self._workers[slot], None
            if worker is not None:
                worker.stop()

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
