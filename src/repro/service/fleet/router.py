"""The fleet front door: one router, many member daemons.

A :class:`FleetRouter` is a lightweight asyncio daemon speaking the
exact newline-delimited JSON protocol of a single evaluation daemon --
existing clients (``ServiceClient``, ``python -m repro.service
submit``, the async client) point at the router and cannot tell the
difference -- while behind it, ``N`` ordinary member daemons (one per
store shard, all sharing the sharded store) do the evaluating:

- **Routing by shard ownership.**  An ``evaluate`` request's scenario
  digests to the same content address the store uses; the member
  co-located with the digest's primary owner shard gets the request,
  so the store probe is a local read on the data's home shard.
- **Hedging.**  If the routed member has not answered within
  ``hedge_after`` seconds, the request is *also* sent to the replica
  owner and the first success wins (safe: ``evaluate``/``sweep`` are
  idempotent by content address).  Tail latency becomes the minimum of
  two samples instead of a lost cause.
- **Failover & health.**  Member failures trip a per-member
  :class:`~repro.service.resilience.retry.CircuitBreaker`; a health
  loop pings members, notices dead processes, and **respawns** members
  the router spawned (backoff-paced by the shared
  :class:`~repro.service.resilience.retry.RetryPolicy`).  Requests
  simply fail over along the owner list and then to any live member.
- **Graceful degradation.**  With every member gone, the router
  evaluates in-process against the sharded store itself.  A request is
  never failed for lack of a healthy member.
- **Sweep fan-out.**  A ``sweep`` is expanded into per-scenario
  requests, routed concurrently (bounded in-flight), and reassembled
  in grid order -- so a fleet-served sweep exports byte-identically to
  a single-daemon or in-process run.

``serve_fleet`` is the ``python -m repro.service serve --fleet`` entry
point; ``start_fleet_background`` is the test/doctest form.  Both serve
the router through the daemon's own line server, launcher and
:class:`~repro.service.daemon.ServerHandle`.  Hedge,
failover, respawn and degrade events are counted in the telemetry
registry (``service.fleet.*``) and surface through ``stats`` /
``runtime_snapshot()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.daemon import (
    _MAX_LINE,
    ServerHandle,
    ServiceError,
    _run_foreground,
    _start_background,
)
from repro.service.fleet.ring import HashRing, shard_name
from repro.service.fleet.sharded import ShardedResultStore
from repro.service.resilience.retry import CircuitBreaker, RetryPolicy
from repro.version import __version__


def _count(name: str, amount: int = 1) -> None:
    from repro.telemetry import registry

    registry().counter(f"service.fleet.{name}").inc(amount)


class MemberError(RuntimeError):
    """Transport-level loss of a member (connect/read/decode failure)."""


class Member:
    """One member daemon: address, optional owned process, health state."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        proc: Optional[subprocess.Popen] = None,
    ) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.proc = proc
        self.breaker = CircuitBreaker(failure_threshold=3, reset_after=1.0)
        self.crashes = 0  # consecutive; paces respawn backoff

    @property
    def shard(self) -> str:
        return shard_name(self.index)

    @property
    def alive(self) -> bool:
        return self.proc is None or self.proc.poll() is None

    def describe(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "shard": self.shard,
            "host": self.host,
            "port": self.port,
            "pid": self.proc.pid if self.proc is not None else None,
            "alive": self.alive,
            "circuit": self.breaker.state,
        }


def spawn_member(store_root: str, host: str = "127.0.0.1") -> Tuple[str, int, subprocess.Popen]:
    """Start one member daemon on an ephemeral port; returns its address.

    Members are plain ``python -m repro.service serve`` processes: the
    fleet manifest in ``store_root`` is what makes their scheduler open
    the sharded store -- no member-specific flags exist to get wrong.
    """
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not current else src + os.pathsep + current
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "serve",
            "--host", host, "--port", "0", "--store", str(store_root),
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"serving on ([\w.]+):(\d+)", banner or "")
    if not match:
        proc.kill()
        raise RuntimeError(f"member daemon failed to announce: {banner!r}")
    return match.group(1), int(match.group(2)), proc


class FleetRouter:
    """Routes evaluation requests across member daemons (asyncio)."""

    def __init__(
        self,
        members: Sequence[Member],
        ring: Optional[HashRing] = None,
        store: Optional[ShardedResultStore] = None,
        hedge_after: Optional[float] = 0.25,
        member_timeout: float = 300.0,
        health_interval: float = 1.0,
        health_timeout: float = 5.0,
        max_inflight: int = 32,
        respawn: bool = True,
        respawn_backoff: Optional[RetryPolicy] = None,
    ) -> None:
        if not members:
            raise ValueError("a fleet needs at least one member")
        self.members = list(members)
        self.store = store
        self.ring = ring if ring is not None else HashRing(
            [m.shard for m in self.members],
            replicas=store.replicas if store is not None else 2,
        )
        self._by_shard = {m.shard: m for m in self.members}
        self.hedge_after = hedge_after
        self.member_timeout = member_timeout
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.max_inflight = max_inflight
        self.respawn = respawn
        self.backoff = respawn_backoff if respawn_backoff is not None else RetryPolicy(
            base_delay=0.05, max_delay=2.0, jitter=0.0
        )
        self.stopping = False
        self.requests: Dict[str, int] = {}
        self.counters = {
            "routed": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "failovers": 0,
            "degraded": 0,
            "respawns": 0,
            "member_failures": 0,
        }
        self._rr = 0  # round-robin cursor for digestless requests
        self._local_lock: Optional[asyncio.Lock] = None  # built on the loop
        self._inflight: Optional[asyncio.Semaphore] = None

    # -- the member wire -----------------------------------------------------

    async def _member_call(
        self, member: Member, request: Dict[str, Any], timeout: float
    ) -> Any:
        """One request/response round trip to one member.

        A fresh connection per call: hedges and failovers must never
        share transport state with the attempt they are racing, and a
        SIGKILLed member then fails fast with a refused connect instead
        of a wedged reused socket.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(member.host, member.port, limit=_MAX_LINE),
                timeout=min(timeout, 10.0),
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise MemberError(f"member {member.index} unreachable: {exc}") from exc
        try:
            writer.write((json.dumps(request) + "\n").encode("utf-8"))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            raise MemberError(f"member {member.index} lost mid-call: {exc}") from exc
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
        if not line:
            raise MemberError(f"member {member.index} closed the connection")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise MemberError(f"member {member.index} spoke garbage") from exc
        if not response.get("ok"):
            # The member *answered*: a deterministic request error that
            # must surface to the client verbatim, not fail over.
            raise ServiceError(response.get("error", "unknown error"))
        return response["result"]

    # -- placement -----------------------------------------------------------

    def _scenario_digest(self, scenario: Dict[str, Any]) -> Optional[str]:
        """The scenario's store content address (None for query plans)."""
        from repro.api.scenario import Scenario
        from repro.experiments import common
        from repro.service.store import digest_payload

        try:
            point = Scenario.from_dict(scenario)
        except (KeyError, TypeError, ValueError):
            return None  # the member daemon will report the real error
        if point.is_query:
            return None
        return digest_payload(
            common.result_store_payload(
                point.system,
                point.operator,
                point.model_scale,
                point.seed,
                point.num_partitions,
            )
        )

    def _candidates(self, digest: Optional[str]) -> List[Member]:
        """Members in routing preference order for one digest.

        Owner members first (primary, then replicas -- the hedge
        target), then every other member; within each class, members
        whose circuit allows traffic come first.  The list always
        contains every member: a fully tripped fleet is still *tried*
        before the router degrades to local evaluation.
        """
        if digest is not None:
            owner_shards = self.ring.owners(digest)
            owners = [self._by_shard[s] for s in owner_shards if s in self._by_shard]
        else:
            owners = []
            if self.members:
                self._rr += 1
                owners = [self.members[self._rr % len(self.members)]]
        rest = [m for m in self.members if m not in owners]
        ordered = owners + rest
        return (
            [m for m in ordered if m.alive and m.breaker.allow()]
            + [m for m in ordered if not (m.alive and m.breaker.allow())]
        )

    # -- hedged, failing-over dispatch ---------------------------------------

    async def _route(
        self, request: Dict[str, Any], digest: Optional[str]
    ) -> Any:
        """Send one idempotent request along the candidate list.

        The current candidate races a hedge to the next one after
        ``hedge_after`` seconds of silence; transport failures fail
        over down the list; daemon-reported errors surface immediately.
        Exhausting every member degrades to local evaluation.
        """
        candidates = self._candidates(digest)
        self.counters["routed"] += 1
        errors: List[BaseException] = []
        idx = 0
        while idx < len(candidates):
            primary = candidates[idx]
            tasks: Dict[asyncio.Task, Member] = {
                asyncio.ensure_future(
                    self._member_call(primary, request, self.member_timeout)
                ): primary
            }
            if self.hedge_after is not None and idx + 1 < len(candidates):
                done, _ = await asyncio.wait(
                    set(tasks), timeout=self.hedge_after
                )
                if not done:
                    hedge = candidates[idx + 1]
                    self.counters["hedges"] += 1
                    _count("hedges")
                    tasks[
                        asyncio.ensure_future(
                            self._member_call(hedge, request, self.member_timeout)
                        )
                    ] = hedge
            racing = set(tasks)
            first = next(iter(tasks.values()))
            while racing:
                done, racing = await asyncio.wait(
                    racing, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    member = tasks[task]
                    if exc is None:
                        member.breaker.record_success()
                        member.crashes = 0
                        if member is not first:
                            self.counters["hedge_wins"] += 1
                            _count("hedge_wins")
                        for loser in racing:
                            loser.cancel()
                        return task.result()
                    if isinstance(exc, MemberError):
                        member.breaker.record_failure()
                        self.counters["member_failures"] += 1
                        _count("member_failures")
                        errors.append(exc)
                    else:
                        # Daemon-reported: deterministic, do not retry.
                        for loser in racing:
                            loser.cancel()
                        raise exc
            idx += len(tasks)
            if idx < len(candidates):
                self.counters["failovers"] += 1
                _count("failovers")
        return await self._degrade(request, errors)

    async def _degrade(
        self, request: Dict[str, Any], errors: List[BaseException]
    ) -> Any:
        """Every member is gone: evaluate in-process, against the store."""
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise errors[-1] if errors else MemberError("no members available")
        self.counters["degraded"] += 1
        _count("degraded")
        loop = asyncio.get_running_loop()
        async with self._local_lock:
            return await loop.run_in_executor(None, self._evaluate_local, scenario)

    def _evaluate_local(self, scenario: Dict[str, Any]) -> Dict[str, Any]:
        from repro.api.scenario import Scenario
        from repro.experiments import common

        if self.store is None:
            return {"records": Scenario.from_dict(scenario).records()}
        previous = common.store_selection()
        common.configure_store(self.store)
        try:
            return {"records": Scenario.from_dict(scenario).records()}
        finally:
            common.restore_store_selection(previous)

    # -- verbs ---------------------------------------------------------------

    async def dispatch(self, request: Any) -> Any:
        if not isinstance(request, dict) or "verb" not in request:
            raise ValueError('requests are JSON objects with a "verb" key')
        verb = request["verb"]
        handler = (
            getattr(self, f"_verb_{verb.replace('-', '_')}", None)
            if isinstance(verb, str)
            else None
        )
        if handler is None:
            raise ValueError(f"unknown verb {verb!r}")
        self.requests[verb] = self.requests.get(verb, 0) + 1
        return await handler(request)

    async def _verb_ping(self, request: Any) -> Dict[str, Any]:
        return {
            "service": "repro.service.fleet",
            "version": __version__,
            "pid": os.getpid(),
            "store": str(self.store.root) if self.store is not None else None,
            "shards": len(self.members),
            "replicas": self.ring.replicas,
            "members": [m.describe() for m in self.members],
        }

    async def _verb_evaluate(self, request: Any) -> Any:
        scenario = request.get("scenario")
        if not isinstance(scenario, dict):
            raise ValueError('evaluate needs a "scenario" object')
        digest = self._scenario_digest(scenario)
        async with self._inflight:
            return await self._route(request, digest)

    async def _verb_sweep(self, request: Any) -> Dict[str, Any]:
        from repro.api.sweep import Sweep
        from repro.telemetry import span as _span

        grid = request.get("sweep")
        if not isinstance(grid, dict):
            raise ValueError('sweep needs a "sweep" grid object')
        with _span("fleet_sweep", category="service"):
            scenarios = [s.to_dict() for s in Sweep.from_dict(grid).scenarios()]

        async def one(scenario: Dict[str, Any]) -> List[Dict[str, Any]]:
            sub = {"verb": "evaluate", "scenario": scenario}
            if "deadline_s" in request:
                sub["deadline_s"] = request["deadline_s"]
            digest = self._scenario_digest(scenario)
            async with self._inflight:
                result = await self._route(sub, digest)
            return result["records"]

        chunks = await asyncio.gather(*(one(s) for s in scenarios))
        return {"records": [r for chunk in chunks for r in chunk]}

    async def _verb_stats(self, request: Any) -> Dict[str, Any]:
        from repro.telemetry import registry

        members: Dict[str, Any] = {}
        for member in self.members:
            try:
                members[member.shard] = await self._member_call(
                    member, {"verb": "stats"}, timeout=self.health_timeout
                )
            except (MemberError, ServiceError) as exc:
                members[member.shard] = {"error": str(exc)}
        return {
            "requests": dict(self.requests),
            "router": dict(
                self.counters, members=[m.describe() for m in self.members]
            ),
            "store": self.store.stats() if self.store is not None else None,
            "members": members,
            "metrics": registry().snapshot(),
        }

    async def _verb_shutdown(self, request: Any) -> Dict[str, Any]:
        self.stopping = True
        return {"stopping": True}

    # -- health & self-healing -----------------------------------------------

    async def _health_check(self) -> None:
        """One pass: ping every member, respawn owned dead processes."""
        for member in self.members:
            if member.proc is not None and member.proc.poll() is not None:
                await self._respawn(member)
                continue
            try:
                await self._member_call(
                    member, {"verb": "ping"}, timeout=self.health_timeout
                )
                member.breaker.record_success()
                member.crashes = 0
            except (MemberError, ServiceError):
                member.breaker.record_failure()
                self.counters["member_failures"] += 1
                _count("member_failures")

    async def _respawn(self, member: Member) -> None:
        """Replace a dead owned member, paced by per-member backoff."""
        if not self.respawn or self.store is None:
            return
        await asyncio.sleep(self.backoff.delay(member.crashes))
        member.crashes += 1
        loop = asyncio.get_running_loop()
        try:
            host, port, proc = await loop.run_in_executor(
                None, spawn_member, str(self.store.root), member.host
            )
        except RuntimeError:
            member.breaker.record_failure()
            return
        member.host, member.port, member.proc = host, port, proc
        member.breaker.record_success()
        self.counters["respawns"] += 1
        _count("respawns")

    async def _health_loop(self) -> None:
        while not self.stopping:
            await asyncio.sleep(self.health_interval)
            with contextlib.suppress(Exception):
                await self._health_check()

    @contextlib.asynccontextmanager
    async def serving(self):
        """The line server's view of the router, for one serve loop.

        Yields :meth:`dispatch` as the answer (members check deadlines
        against their own receipt time) and runs the health loop
        alongside; when serving ends, stops the owned members and
        flushes the sharded store.
        """
        loop = asyncio.get_running_loop()
        self._local_lock = asyncio.Lock()
        self._inflight = asyncio.Semaphore(self.max_inflight)
        health = asyncio.ensure_future(self._health_loop())
        try:
            yield lambda request, received: self.dispatch(request)
        finally:
            health.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await health
            await loop.run_in_executor(None, self.stop_members)
            if self.store is not None:
                self.store.flush()

    def stop_members(self) -> None:
        """Shut down every member the router owns (spawned itself)."""
        for member in self.members:
            if member.proc is None:
                continue
            if member.proc.poll() is None:
                try:
                    from repro.service.client import ServiceClient

                    with ServiceClient(member.host, member.port, timeout=5.0,
                                       retries=0) as client:
                        client.shutdown()
                except (OSError, ServiceError, ValueError):
                    pass
            try:
                member.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                member.proc.kill()
                with contextlib.suppress(subprocess.TimeoutExpired):
                    member.proc.wait(timeout=10)
            if member.proc.stdout is not None:
                with contextlib.suppress(OSError):
                    member.proc.stdout.close()


def build_fleet(
    store: str,
    shards: int = 3,
    replicas: int = 2,
    host: str = "127.0.0.1",
    hedge_after: Optional[float] = 0.25,
    respawn: bool = True,
) -> FleetRouter:
    """Create the sharded store, spawn the members, wire the router."""
    sharded = ShardedResultStore(store, shards=shards, replicas=replicas)
    members = []
    for index in range(shards):
        member_host, member_port, proc = spawn_member(str(sharded.root), host)
        members.append(Member(index, member_host, member_port, proc))
    return FleetRouter(
        members,
        ring=sharded.ring,
        store=sharded,
        hedge_after=hedge_after,
        respawn=respawn,
    )


def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[str] = None,
    shards: int = 3,
    replicas: int = 2,
    hedge_after: Optional[float] = 0.25,
    announce=print,
) -> None:
    """Run a whole fleet in the foreground until a ``shutdown`` request.

    Spawns ``shards`` member daemons over a (created if absent) sharded
    store at ``store``, then serves the router on ``host:port`` --
    ``--port 0`` picks an ephemeral port, announced exactly like the
    single daemon so scripts parse one banner format for both.
    """
    if store is None:
        raise ValueError("serve --fleet requires --store DIR (the fleet root)")
    router = build_fleet(
        store, shards=shards, replicas=replicas, host=host,
        hedge_after=hedge_after,
    )
    try:
        _run_foreground(
            router, host, port, announce,
            f"fleet store={router.store.root}, shards={shards}, "
            f"replicas={router.ring.replicas}",
        )
    finally:
        router.stop_members()


class FleetHandle(ServerHandle):
    """A background fleet: a :class:`ServerHandle` on the router, plus
    its members (listed, SIGKILLable, and stopped with the router)."""

    def __init__(self, host: str, port: int, router: FleetRouter,
                 thread, force_stop=None) -> None:
        super().__init__(host, port, thread, force_stop)
        self.router = router

    def member_pids(self) -> List[int]:
        return [
            m.proc.pid
            for m in self.router.members
            if m.proc is not None and m.proc.poll() is None
        ]

    def kill_member(self, index: int) -> Optional[int]:
        """SIGKILL one member daemon (chaos / load-test harness hook)."""
        member = self.router.members[index]
        if member.proc is None or member.proc.poll() is not None:
            return None
        pid = member.proc.pid
        member.proc.kill()
        return pid

    def stop(self, timeout: float = 30.0) -> bool:
        stopped = super().stop(timeout)
        self.router.stop_members()
        return stopped


def start_fleet_background(
    store: str,
    shards: int = 3,
    replicas: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    hedge_after: Optional[float] = 0.25,
    router: Optional[FleetRouter] = None,
) -> FleetHandle:
    """Start a fleet on a daemon thread; returns once the router accepts.

    ``router`` injects a pre-built router (tests wire members by hand:
    tarpits, dead ports, tight hedge deadlines); otherwise the fleet is
    built over ``store`` exactly like :func:`serve_fleet`.
    """
    if router is None:
        router = build_fleet(
            store, shards=shards, replicas=replicas, host=host,
            hedge_after=hedge_after,
        )
    bound_host, bound_port, thread, force_stop = _start_background(
        router, host, port, "repro-fleet-router"
    )
    return FleetHandle(bound_host, bound_port, router, thread, force_stop)
