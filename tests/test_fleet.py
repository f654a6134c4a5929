"""Tests for the evaluation fleet: ring, sharded store, router, client.

Property tests (satellite of the fleet PR):

- adding/removing a shard moves only ~1/N of the keys;
- replica sets never collapse to one shard while the fleet has >= 2;
- read-repair converges divergent/missing replicas back to R copies.

Plus live-fleet integration: member SIGKILL failover + respawn, request
hedging past a tarpit member, degradation to in-process evaluation with
every member dead, and the async pipelined client's retry matrix.
"""

import asyncio
import hashlib
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.service.fleet import (
    AsyncServiceClient,
    FLEET_MANIFEST,
    HashRing,
    ShardedResultStore,
    rebalance,
    start_fleet_background,
)
from repro.service.fleet.ring import shard_name
from repro.service.fleet.router import FleetRouter, Member, serve_fleet, spawn_member
from repro.service.fleet.sharded import read_manifest
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ResultStore, open_store

ROOT = Path(__file__).resolve().parents[1]
GRID = json.loads((ROOT / "tests" / "data" / "sweep_smoke.json").read_text())
GOLDEN = (ROOT / "tests" / "data" / "sweep_smoke_golden.json").read_text()

SCENARIO = {"system": "cpu", "operator": "scan", "model_scale": 50.0,
            "seed": 17, "num_partitions": 8}


def digests(count, salt=""):
    return [hashlib.sha256(f"{salt}{i}".encode()).hexdigest()
            for i in range(count)]


# ---------------------------------------------------------------------------
# HashRing properties
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing([shard_name(i) for i in range(5)], replicas=3)
        b = HashRing([shard_name(i) for i in range(5)], replicas=3)
        for d in digests(200):
            assert a.owners(d) == b.owners(d)

    @pytest.mark.parametrize("shards", [2, 3, 5, 8])
    def test_replica_sets_never_collapse(self, shards):
        """With N >= 2 shards, every digest gets >= 2 distinct owners."""
        ring = HashRing([shard_name(i) for i in range(shards)], replicas=2)
        for d in digests(500, salt=f"n{shards}"):
            owners = ring.owners(d)
            assert len(owners) == 2
            assert len(set(owners)) == 2

    def test_replicas_clamped_to_shard_count(self):
        ring = HashRing(["only"], replicas=2)
        assert ring.replicas == 1
        assert ring.owners(digests(1)[0]) == ["only"]

    @pytest.mark.parametrize("grow", [True, False])
    def test_membership_change_moves_about_one_nth(self, grow):
        """Adding/removing one shard relocates ~1/N of the primaries."""
        n = 8
        small = HashRing([shard_name(i) for i in range(n)], replicas=2)
        large = HashRing([shard_name(i) for i in range(n + 1)], replicas=2)
        before, after = (small, large) if grow else (large, small)
        keys = digests(3000, salt="move")
        moved = sum(
            1 for d in keys if before.primary(d) != after.primary(d)
        )
        fraction = moved / len(keys)
        expected = 1.0 / (n + 1)
        # Well under 2x the ideal share -- a naive mod-N placement
        # would move ~(n/(n+1)) of the keys, an order of magnitude more.
        assert fraction < 2.0 * expected, (fraction, expected)
        assert fraction > 0.0

    def test_primary_is_first_owner(self):
        ring = HashRing([shard_name(i) for i in range(4)], replicas=3)
        for d in digests(50):
            assert ring.primary(d) == ring.owners(d)[0]

    def test_key_point_uses_digest_prefix(self):
        d = "f" * 64
        assert HashRing.key_point(d) == int("f" * 16, 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], replicas=0)
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_repr(self):
        assert "2 shards" in repr(HashRing(["a", "b"]))


# ---------------------------------------------------------------------------
# ShardedResultStore
# ---------------------------------------------------------------------------


class TestShardedStore:
    def test_create_writes_manifest_and_reopens(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=3, replicas=2)
        manifest = read_manifest(tmp_path)
        assert manifest == {"shards": 3, "replicas": 2, "vnodes": 64}
        again = ShardedResultStore(tmp_path)
        assert again.num_shards == 3 and again.replicas == 2
        assert "shards=3" in repr(store)

    def test_open_store_autodetects_fleet_roots(self, tmp_path):
        ShardedResultStore(tmp_path / "fleet", shards=2)
        assert isinstance(open_store(tmp_path / "fleet"), ShardedResultStore)
        (tmp_path / "plain").mkdir()
        assert isinstance(open_store(tmp_path / "plain"), ResultStore)

    def test_topology_disagreement_rejected(self, tmp_path):
        ShardedResultStore(tmp_path, shards=3, replicas=2)
        with pytest.raises(ValueError, match="disagrees"):
            ShardedResultStore(tmp_path, shards=4)
        with pytest.raises(ValueError, match="disagrees"):
            ShardedResultStore(tmp_path, replicas=3)

    def test_missing_manifest_needs_topology(self, tmp_path):
        with pytest.raises(ValueError, match="fleet.json"):
            ShardedResultStore(tmp_path / "nothing")
        with pytest.raises(ValueError):
            ShardedResultStore(tmp_path / "bad", shards=0)
        with pytest.raises(ValueError):
            ShardedResultStore(tmp_path / "bad", shards=1, replicas=0)

    def test_put_replicates_to_r_owner_shards(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=4, replicas=2)
        for d in digests(30, salt="rep"):
            store.put(d, {"d": d})
            holders = [
                name for name in store.ring.shards
                if store.shard(name).contains(d)
            ]
            assert sorted(holders) == sorted(store.owners(d))
            assert len(holders) == 2
        assert len(store) == 30
        assert list(store.digests()) == sorted(digests(30, salt="rep"))

    def test_get_contains_and_counters(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=2, replicas=2)
        d = digests(1)[0]
        assert store.get(d) is None
        store.put(d, {"x": 1})
        assert store.contains(d)
        assert store.get(d) == {"x": 1}
        counters = store.counters()
        assert counters["puts"] == 1
        assert counters["hits"] == 1 and counters["misses"] == 1
        other = ShardedResultStore(tmp_path)
        other.merge_stats(counters)
        assert other.counters()["puts"] == 1
        stats = store.stats()
        assert stats["entries"] == 1
        assert set(stats["shards"]) == set(store.ring.shards)

    def test_read_repair_restores_missing_replica(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=3, replicas=2)
        d = digests(1, salt="heal")[0]
        store.put(d, {"v": 7})
        primary = store.owners(d)[0]
        store.shard(primary).discard(d)
        assert not store.shard(primary).contains(d)
        assert store.get(d) == {"v": 7}          # served by the replica
        assert store.shard(primary).contains(d)  # ... and healed
        assert store.counters()["read_repairs"] == 1

    def test_read_repair_converges_divergent_replicas(self, tmp_path):
        """Divergent replicas settle to the highest-ranked owner's copy."""
        store = ShardedResultStore(tmp_path, shards=3, replicas=2)
        d = digests(1, salt="diverge")[0]
        store.put(d, {"v": "original"})
        first, second = store.owners(d)
        store.shard(second).put(d, {"v": "stale-divergent"})
        report = rebalance(tmp_path, store=store)
        assert report["divergent_healed"] == 1
        assert store.shard(first).get(d) == {"v": "original"}
        assert store.shard(second).get(d) == {"v": "original"}
        assert store.get(d) == {"v": "original"}

    def test_replica_write_failure_tolerated_and_healed(self, tmp_path, monkeypatch):
        store = ShardedResultStore(tmp_path, shards=2, replicas=2)
        d = digests(1, salt="tolerate")[0]
        victim = store.owners(d)[1]
        broken = store.shard(victim)
        original_put = broken.put
        monkeypatch.setattr(
            broken, "put",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk gone")),
        )
        store.put(d, {"ok": True})  # must not raise: one replica committed
        counters = store.counters()
        assert counters["replica_write_failures"] == 1
        assert counters["pending_repairs"] == 1
        monkeypatch.setattr(broken, "put", original_put)
        assert store.heal() == 1
        assert store.shard(victim).contains(d)
        assert store.counters()["pending_repairs"] == 0
        store.flush()

    def test_put_raises_when_no_replica_commits(self, tmp_path, monkeypatch):
        store = ShardedResultStore(tmp_path, shards=2, replicas=2)
        d = digests(1, salt="allfail")[0]
        for name in store.owners(d):
            monkeypatch.setattr(
                store.shard(name), "put",
                lambda *a, **k: (_ for _ in ()).throw(OSError("gone")),
            )
        with pytest.raises(OSError):
            store.put(d, {"never": "lands"})

    def test_verify_scrubs_and_reports_per_shard(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=2, replicas=2)
        for d in digests(5, salt="verify"):
            store.put(d, {"d": d})
        report = store.verify()
        assert report["entries"] == 5
        assert set(report["shards"]) == set(store.ring.shards)
        assert report["scrub"]["objects"] == 5
        assert report["scrub"]["unreadable"] == 0


# ---------------------------------------------------------------------------
# rebalance
# ---------------------------------------------------------------------------


class TestRebalance:
    def put_fleet(self, root, shards=2, replicas=2, count=40):
        store = ShardedResultStore(root, shards=shards, replicas=replicas)
        keys = digests(count, salt="bal")
        for d in keys:
            store.put(d, {"d": d})
        store.flush()
        return keys

    def test_requires_a_fleet_root(self, tmp_path):
        with pytest.raises(ValueError, match="not a fleet store"):
            rebalance(tmp_path)

    def test_topology_change_excludes_open_handle(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=2)
        with pytest.raises(ValueError, match="not both"):
            rebalance(tmp_path, shards=3, store=store)
        with pytest.raises(ValueError):
            rebalance(tmp_path, shards=0)

    def test_grow_keeps_every_object_readable(self, tmp_path):
        keys = self.put_fleet(tmp_path, shards=2)
        report = rebalance(tmp_path, shards=5)
        assert report["objects"] == len(keys)
        grown = ShardedResultStore(tmp_path)
        assert grown.num_shards == 5
        assert all(grown.get(d) is not None for d in keys)
        # Fully replicated under the new ring: every owner holds a copy.
        for d in keys:
            assert all(grown.shard(o).contains(d) for o in grown.owners(d))

    def test_shrink_drains_orphan_shards(self, tmp_path):
        keys = self.put_fleet(tmp_path, shards=4)
        rebalance(tmp_path, shards=2)
        shrunk = ShardedResultStore(tmp_path)
        assert shrunk.num_shards == 2
        assert all(shrunk.get(d) is not None for d in keys)
        # The orphan shard directories were pruned empty.
        for orphan in (shard_name(2), shard_name(3)):
            assert list(ResultStore(tmp_path / orphan).digests()) == []

    def test_lost_shard_directory_is_reheated(self, tmp_path):
        import shutil

        keys = self.put_fleet(tmp_path, shards=3)
        shutil.rmtree(tmp_path / shard_name(1))
        report = rebalance(tmp_path)
        assert report["replicated"] > 0
        healed = ShardedResultStore(tmp_path)
        assert all(healed.get(d) is not None for d in keys)
        for d in keys:
            assert all(healed.shard(o).contains(d) for o in healed.owners(d))

    def test_unreadable_objects_are_counted_not_fatal(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=2, replicas=2)
        d = digests(1, salt="torn")[0]
        store.put(d, {"will": "tear"})
        store.flush()
        for name in store.owners(d):
            for path in (tmp_path / name / "objects").rglob(f"{d}.json"):
                path.write_bytes(b"\x00 not json \x00")
        report = rebalance(tmp_path)
        assert report["unreadable"] == 1


# ---------------------------------------------------------------------------
# open_store plumbing: scheduler + process-wide selection
# ---------------------------------------------------------------------------


class TestStorePlumbing:
    def test_scheduler_writes_through_a_fleet_store(self, tmp_path):
        from repro.service.scheduler import BatchScheduler

        ShardedResultStore(tmp_path, shards=2, replicas=2)
        scheduler = BatchScheduler(store=str(tmp_path))
        try:
            first = scheduler.submit([SCENARIO]).to_records()
            again = scheduler.submit([SCENARIO]).to_records()
        finally:
            scheduler.close()
        assert first == again
        assert scheduler.stats()["store_hits"] == 1
        assert isinstance(scheduler._store, ShardedResultStore)
        assert len(scheduler._store) == 1

    def test_configure_store_accepts_fleet_roots_and_handles(self, tmp_path):
        from repro.experiments import common

        ShardedResultStore(tmp_path, shards=2)
        previous = common.store_selection()
        try:
            common.configure_store(str(tmp_path))
            assert isinstance(common.active_store(), ShardedResultStore)
            handle = ShardedResultStore(tmp_path)
            common.configure_store(handle)
            assert common.active_store() is handle
        finally:
            common.restore_store_selection(previous)


# ---------------------------------------------------------------------------
# Router units (no subprocesses)
# ---------------------------------------------------------------------------


class TestRouterUnits:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            FleetRouter([])

    def make_router(self, count=3):
        members = [Member(i, "127.0.0.1", 1 + i) for i in range(count)]
        return FleetRouter(members, hedge_after=None)

    def test_scenario_digest_is_the_store_address(self):
        router = self.make_router()
        digest = router._scenario_digest(SCENARIO)
        assert isinstance(digest, str) and len(digest) == 64
        assert router._scenario_digest({"nonsense": True}) is None

    def test_query_scenarios_route_round_robin(self):
        router = self.make_router()
        assert router._scenario_digest({
            "system": "cpu", "operator": "scan", "model_scale": 50.0,
            "seed": 17, "num_partitions": 8, "query": "q1",
        }) is None
        first = router._candidates(None)[0]
        second = router._candidates(None)[0]
        assert first is not second  # the cursor advanced

    def test_candidates_lead_with_owners_and_include_everyone(self):
        router = self.make_router(3)
        digest = router._scenario_digest(SCENARIO)
        candidates = router._candidates(digest)
        assert len(candidates) == 3
        owner_shards = router.ring.owners(digest)
        assert [m.shard for m in candidates[:2]] == owner_shards

    def test_member_describe(self):
        member = Member(1, "127.0.0.1", 2)
        assert member.alive  # no process to have died
        described = member.describe()
        assert described["shard"] == shard_name(1)
        assert described["pid"] is None
        assert described["circuit"] == "closed"


# ---------------------------------------------------------------------------
# Live fleet (subprocess members)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def live_fleet(tmp_path_factory):
    store = tmp_path_factory.mktemp("fleet-store")
    fleet = start_fleet_background(str(store), shards=3, replicas=2)
    yield fleet
    fleet.stop()


class TestLiveFleet:
    def test_ping_reports_fleet_topology(self, live_fleet):
        with ServiceClient(*live_fleet.address) as client:
            pong = client.ping()
        assert pong["service"] == "repro.service.fleet"
        assert pong["shards"] == 3 and pong["replicas"] == 2
        assert len(pong["members"]) == 3

    def test_sweep_matches_the_golden_bytes(self, live_fleet):
        with ServiceClient(*live_fleet.address, retries=3) as client:
            results = client.sweep(GRID)
        assert results.to_json() + "\n" == GOLDEN

    def test_member_sigkill_fails_over_and_respawns(self, live_fleet):
        pid = live_fleet.kill_member(1)
        assert pid is not None
        with ServiceClient(*live_fleet.address, retries=3) as client:
            results = client.sweep(GRID)
            assert results.to_json() + "\n" == GOLDEN
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if live_fleet.router.counters["respawns"] >= 1:
                    break
                time.sleep(0.2)
            stats = client.stats()
        assert stats["router"]["respawns"] >= 1
        assert live_fleet.router.members[1].alive
        assert stats["router"]["degraded"] == 0
        assert stats["store"]["entries"] == 4
        assert "metrics" in stats

    def test_member_pids_lists_live_processes(self, live_fleet):
        pids = live_fleet.member_pids()
        assert len(pids) == 3
        assert all(isinstance(pid, int) for pid in pids)

    def test_daemon_reported_errors_surface_without_failover(self, live_fleet):
        before = live_fleet.router.counters["failovers"]
        with ServiceClient(*live_fleet.address) as client:
            with pytest.raises(ServiceError):
                client.evaluate({"system": "no-such-system",
                                 "operator": "scan", "model_scale": 50.0,
                                 "seed": 17, "num_partitions": 8})
        assert live_fleet.router.counters["failovers"] == before

    def test_unknown_verbs_and_garbage_are_reported(self, live_fleet):
        with ServiceClient(*live_fleet.address) as client:
            with pytest.raises(ServiceError, match="unknown verb"):
                client.call("frobnicate")
            with pytest.raises(ServiceError):
                client.call("sweep")  # missing the grid

    def test_async_client_pipelines_against_the_fleet(self, live_fleet):
        async def drive():
            async with AsyncServiceClient(*live_fleet.address, retries=3,
                                          max_connections=4) as client:
                results = await asyncio.gather(
                    *(client.evaluate(SCENARIO) for _ in range(24))
                )
                pong = await client.ping()
                return results, pong

        results, pong = asyncio.run(drive())
        assert len(results) == 24
        first = results[0].to_records()
        assert all(r.to_records() == first for r in results)
        assert pong["service"] == "repro.service.fleet"


# ---------------------------------------------------------------------------
# Hedging and degradation (hand-built routers)
# ---------------------------------------------------------------------------


class Tarpit(threading.Thread):
    """Accepts connections, reads forever, never answers."""

    def __init__(self):
        super().__init__(daemon=True)
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]

    def run(self):
        conns = []
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                for c in conns:
                    c.close()
                return
            conns.append(conn)

    def stop(self):
        self._listener.close()


class Misbehaver(threading.Thread):
    """Accepts, reads the request, then replies with garbage or EOF."""

    def __init__(self, reply):
        super().__init__(daemon=True)
        self.reply = reply
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]

    def run(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                conn.recv(65536)
                if self.reply:
                    conn.sendall(self.reply)
            except OSError:
                pass
            finally:
                conn.close()

    def stop(self):
        self._listener.close()


class TestFailover:
    @pytest.mark.parametrize("reply", [b"this is not json\n", b""],
                             ids=["garbage", "eof"])
    def test_misbehaving_primary_fails_over(self, tmp_path, reply):
        ShardedResultStore(tmp_path, shards=2, replicas=2)
        scratch = FleetRouter([Member(0, "127.0.0.1", 1),
                               Member(1, "127.0.0.1", 2)], hedge_after=None)
        digest = scratch._scenario_digest(SCENARIO)
        primary_index = int(scratch.ring.primary(digest)[-2:])
        replica_index = 1 - primary_index

        bad = Misbehaver(reply)
        bad.start()
        host, port, proc = spawn_member(str(tmp_path))
        members = [None, None]
        members[primary_index] = Member(primary_index, "127.0.0.1", bad.port)
        members[replica_index] = Member(replica_index, host, port, proc=proc)
        router = FleetRouter(members, hedge_after=None, respawn=False)
        fleet = start_fleet_background(str(tmp_path), router=router)
        try:
            with ServiceClient(*fleet.address, retries=0) as client:
                results = client.evaluate(SCENARIO)
            assert len(results.to_records()) == 1
            assert router.counters["failovers"] >= 1
            # A member without a process cannot be SIGKILLed.
            assert fleet.kill_member(primary_index) is None
        finally:
            fleet.stop()
            bad.stop()


class TestHedging:
    def test_slow_primary_is_hedged_to_the_replica(self, tmp_path):
        ShardedResultStore(tmp_path, shards=2, replicas=2)
        scratch = FleetRouter([Member(0, "127.0.0.1", 1),
                               Member(1, "127.0.0.1", 2)], hedge_after=None)
        digest = scratch._scenario_digest(SCENARIO)
        primary_index = int(scratch.ring.primary(digest)[-2:])
        replica_index = 1 - primary_index

        tarpit = Tarpit()
        tarpit.start()
        host, port, proc = spawn_member(str(tmp_path))
        members = [None, None]
        members[primary_index] = Member(primary_index, "127.0.0.1", tarpit.port)
        members[replica_index] = Member(replica_index, host, port, proc=proc)
        router = FleetRouter(members, hedge_after=0.1, respawn=False)
        fleet = start_fleet_background(str(tmp_path), router=router)
        try:
            with ServiceClient(*fleet.address, retries=0) as client:
                results = client.evaluate(SCENARIO)
            assert len(results.to_records()) == 1
            assert router.counters["hedges"] >= 1
            assert router.counters["hedge_wins"] >= 1
        finally:
            fleet.stop()
            tarpit.stop()


class TestDegradation:
    def test_every_member_dead_degrades_to_local(self, tmp_path):
        store = ShardedResultStore(tmp_path, shards=2, replicas=2)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()[1]
        members = [Member(0, "127.0.0.1", dead), Member(1, "127.0.0.1", dead)]
        router = FleetRouter(members, store=store, hedge_after=0.05,
                             respawn=False)
        fleet = start_fleet_background(str(tmp_path), router=router)
        try:
            with ServiceClient(*fleet.address, retries=0) as client:
                results = client.evaluate(SCENARIO)
            assert len(results.to_records()) == 1
            assert router.counters["degraded"] == 1
            assert router.counters["member_failures"] >= 2
            assert len(store) == 1  # the degraded evaluation still stored
        finally:
            fleet.stop()


# ---------------------------------------------------------------------------
# serve_fleet foreground entry point
# ---------------------------------------------------------------------------


class TestServeFleet:
    def test_requires_a_store(self):
        with pytest.raises(ValueError, match="--store"):
            serve_fleet(store=None)

    def test_foreground_serves_until_shutdown(self, tmp_path):
        announced = {}

        def announce(host, port):
            announced["address"] = (host, port)

        thread = threading.Thread(
            target=serve_fleet,
            kwargs=dict(store=str(tmp_path), shards=2, replicas=2,
                        port=0, announce=announce),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 60
        while "address" not in announced and time.monotonic() < deadline:
            time.sleep(0.05)
        assert "address" in announced, "serve_fleet never announced"
        host, port = announced["address"]
        with ServiceClient(host, port) as client:
            assert client.ping()["shards"] == 2
            client.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert read_manifest(tmp_path)[
            "shards"] == 2  # the fleet created its store


# ---------------------------------------------------------------------------
# AsyncServiceClient retry matrix
# ---------------------------------------------------------------------------


class TestAsyncClient:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncServiceClient(retries=-1)
        with pytest.raises(ValueError):
            AsyncServiceClient(max_connections=0)

    def test_retries_exhaust_on_a_dead_port(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()[1]

        async def drive():
            async with AsyncServiceClient("127.0.0.1", dead, retries=1,
                                          timeout=2.0) as client:
                await client.ping()

        with pytest.raises((OSError, ConnectionError)):
            asyncio.run(drive())

    def test_shutdown_is_never_retried(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()[1]

        async def drive():
            client = AsyncServiceClient("127.0.0.1", dead, retries=5,
                                        timeout=2.0)
            try:
                await client.shutdown()
            finally:
                await client.close()

        with pytest.raises((OSError, ConnectionError)):
            asyncio.run(drive())

    def test_deadline_expires_against_a_tarpit(self):
        tarpit = Tarpit()
        tarpit.start()
        try:
            async def drive():
                async with AsyncServiceClient("127.0.0.1", tarpit.port,
                                              retries=0) as client:
                    await client.ping(
                    ) if False else await client.call("ping", deadline=0.3)

            with pytest.raises(asyncio.TimeoutError):
                asyncio.run(drive())
        finally:
            tarpit.stop()

    def test_daemon_restart_between_calls_is_invisible(self, tmp_path):
        from repro.service.daemon import serve_background

        first = serve_background(store=str(tmp_path / "store"))
        port = first.port

        async def before(client):
            assert (await client.ping())["service"] == "repro.service"

        async def after(client):
            assert (await client.ping())["pid"] is not None
            return client.resilience["reconnects"]

        async def drive():
            # One pooled connection, so the second ping must reuse the
            # now-stale transport rather than opening a fresh slot.
            async with AsyncServiceClient("127.0.0.1", port, retries=2,
                                          max_connections=1) as client:
                await before(client)
                # Restart the daemon on the same port: the pooled
                # connection is now stale; the resend must be free.
                first.stop()
                second = serve_background(port=port,
                                          store=str(tmp_path / "store"))
                try:
                    return await after(client)
                finally:
                    second.stop()

        reconnects = asyncio.run(drive())
        assert reconnects == 1

    def test_service_errors_are_terminal(self, tmp_path):
        from repro.service.daemon import serve_background

        handle = serve_background(store=str(tmp_path / "store"))
        try:
            async def drive():
                async with AsyncServiceClient("127.0.0.1", handle.port,
                                              retries=3) as client:
                    with pytest.raises(ServiceError, match="unknown verb"):
                        await client.call("frobnicate")
                    assert client.resilience["retries"] == 0
                    stats = await client.stats()
                    assert "requests" in stats
                    results = await client.sweep(GRID)
                    assert results.to_json() + "\n" == GOLDEN

            asyncio.run(drive())
        finally:
            handle.stop()


class TestSyncClientDeadline:
    @pytest.mark.parametrize("retries", [0, 2])
    def test_deadline_expires_against_a_tarpit(self, retries):
        """The blocking twin of the async tarpit test: the deadline, not
        the ten-times-longer socket timeout, bounds the call -- retries
        included."""
        tarpit = Tarpit()
        tarpit.start()
        client = ServiceClient("127.0.0.1", tarpit.port, retries=retries,
                               deadline=0.3, timeout=3.0)
        try:
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                client.call("ping")
            assert time.monotonic() - started < 1.5
        finally:
            client.close()
            tarpit.stop()
