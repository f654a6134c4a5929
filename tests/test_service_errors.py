"""Tests for the service's failure-path surfaces: ``ServerHandle.stop``
timeout/escalation, the protocol-edge responses of both front doors
(the daemon and the fleet router share one line server) to oversized /
blank / malformed requests, and the ``python -m repro.service`` CLI
driven in-process (serve wiring, submit degradation, offline recover)."""

import json
import socket
from pathlib import Path

import pytest

from repro.api import Scenario
from repro.experiments import common
from repro.service import ResultStore, ServiceClient, serve_background
from repro.service.daemon import _MAX_LINE, ServerHandle
from repro.service import __main__ as service_cli

ROOT = Path(__file__).resolve().parents[1]
SMOKE_SPEC = ROOT / "tests" / "data" / "sweep_smoke.json"

FAST = dict(model_scale=50.0, num_partitions=8)


@pytest.fixture(autouse=True)
def isolated_store_state(monkeypatch):
    monkeypatch.delenv(common.STORE_ENV, raising=False)
    monkeypatch.delenv(common.STORE_MAX_BYTES_ENV, raising=False)
    common.configure_store(None)
    common.clear_caches()
    yield
    common.configure_store(None)
    common.clear_caches()
    common.set_cache_enabled(True)


def dead_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ---------------------------------------------------------------------------
# ServerHandle.stop: polite, timed out, escalated
# ---------------------------------------------------------------------------


class TestServerHandleStop:
    def test_polite_stop_returns_true(self):
        handle = serve_background()
        assert handle.stop() is True
        assert handle.stop() is True  # no-op on an already-stopped server

    def test_unreachable_wire_escalates_to_the_loop(self):
        handle = serve_background()
        # Same thread and same force-stop switch, but a dead port: the
        # polite shutdown can't be delivered, so stop() must fall back
        # to forcing the serve loop's stop event -- and still succeed.
        broken = ServerHandle(
            handle.host, dead_port(), handle._thread,
            force_stop=handle._force_stop,
        )
        assert broken.stop(timeout=5.0) is True
        assert not handle._thread.is_alive()

    def test_stop_without_escalation_reports_failure(self):
        handle = serve_background()
        try:
            broken = ServerHandle(
                handle.host, dead_port(), handle._thread, force_stop=None
            )
            # No wire, no force-stop switch: the thread survives and
            # stop() must say so instead of pretending.
            assert broken.stop(timeout=0.2) is False
            assert handle._thread.is_alive()
        finally:
            assert handle.stop() is True


# ---------------------------------------------------------------------------
# Protocol edge cases, for both front doors
# ---------------------------------------------------------------------------


@pytest.fixture(params=["daemon", "fleet router"])
def door(request, tmp_path):
    """``(address, service name)`` of one front door.

    The router fronts one in-thread member daemon, wired by hand, so the
    fleet case costs no subprocess.
    """
    member = serve_background()
    if request.param == "daemon":
        yield member.address, "repro.service"
        member.stop()
        return
    from repro.service.fleet import FleetRouter, start_fleet_background
    from repro.service.fleet.router import Member

    router = FleetRouter([Member(0, *member.address)], hedge_after=None,
                         respawn=False)
    fleet = start_fleet_background(str(tmp_path), router=router)
    yield fleet.address, "repro.service.fleet"
    fleet.stop()
    member.stop()


class TestProtocolErrors:
    def _raw_exchange(self, address, payload: bytes, count: int = 1):
        with socket.create_connection(address, timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(payload)
            return [json.loads(reader.readline()) for _ in range(count)]

    def _error_then_ping(self, door, bad_line: bytes):
        # The same connection stays usable after the bad line.
        address, service = door
        error, pong = self._raw_exchange(
            address, bad_line + b'{"verb": "ping"}\n', count=2
        )
        assert error["ok"] is False
        assert pong["ok"] is True
        assert pong["result"]["service"] == service
        return error["error"]

    def test_malformed_json_gets_an_error_response(self, door):
        assert "JSONDecodeError" in self._error_then_ping(
            door, b'{"verb": not json}\n'
        )

    @pytest.mark.parametrize("payload", [b"[1, 2, 3]\n", b'"ping"\n', b"{}\n"],
                             ids=["array", "string", "verbless"])
    def test_non_object_requests_are_rejected(self, door, payload):
        assert "JSON objects" in self._error_then_ping(door, payload)

    @pytest.mark.parametrize("payload", [b'{"verb": 5}\n',
                                         b'{"verb": "frobnicate"}\n'],
                             ids=["non-string", "unknown"])
    def test_unknown_verbs_are_rejected(self, door, payload):
        assert "unknown verb" in self._error_then_ping(door, payload)

    def test_blank_lines_are_skipped(self, door):
        address, service = door
        responses = self._raw_exchange(address, b'\n  \n{"verb": "ping"}\n')
        assert responses[0]["result"]["service"] == service

    def test_oversized_line_answered_then_connection_dropped(self, door):
        address, service = door
        with socket.create_connection(address, timeout=30) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b'{"pad": "' + b"x" * (_MAX_LINE + 1024) + b'"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert "exceeds" in response["error"]
            assert reader.readline() == b""  # that connection is done
        # ... but the server is not.
        with ServiceClient(*address) as client:
            assert client.ping()["service"] == service


# ---------------------------------------------------------------------------
# The CLI, in-process
# ---------------------------------------------------------------------------


class TestServiceCli:
    def test_serve_flag_validation(self):
        with pytest.raises(SystemExit, match="--workers"):
            service_cli.main(["serve", "--workers", "-1"])

    def test_serve_fleet_flag_validation(self):
        with pytest.raises(SystemExit, match="--store"):
            service_cli.main(["serve", "--fleet"])
        with pytest.raises(SystemExit, match="--shards"):
            service_cli.main(["serve", "--fleet", "--store", "x",
                              "--shards", "0"])

    def test_serve_fleet_forwards_its_flags(self, monkeypatch, tmp_path):
        from repro.service import fleet as fleet_mod

        seen = {}
        monkeypatch.setattr(fleet_mod, "serve_fleet",
                            lambda **kw: seen.update(kw))
        service_cli.main([
            "serve", "--fleet", "--port", "0", "--store", str(tmp_path),
            "--shards", "4", "--replicas", "2", "--hedge-after", "0",
        ])
        assert seen["shards"] == 4 and seen["replicas"] == 2
        assert seen["hedge_after"] is None  # 0 disables hedging

    def test_rebalance_cli_reports(self, tmp_path, capsys):
        from repro.service.fleet import ShardedResultStore

        ShardedResultStore(tmp_path, shards=2, replicas=2)
        service_cli.main(["rebalance", "--store", str(tmp_path),
                          "--shards", "3"])
        report = json.loads(capsys.readouterr().out)
        assert report["objects"] == 0
        assert ShardedResultStore(tmp_path).num_shards == 3

    def test_serve_forwards_its_flags(self, monkeypatch, tmp_path):
        seen = {}
        monkeypatch.setattr(service_cli, "serve",
                            lambda **kw: seen.update(kw))
        service_cli.main([
            "serve", "--port", "0", "--store", str(tmp_path),
            "--workers", "3", "--max-bytes", "1000",
        ])
        assert seen["workers"] == 3 and seen["max_bytes"] == 1000
        assert seen["store"] == str(tmp_path)

    def test_ping_stats_submit_round_trip(self, tmp_path, capsys):
        handle = serve_background(store=tmp_path / "store")
        try:
            port = str(handle.port)
            service_cli.main(["ping", "--port", port])
            assert json.loads(capsys.readouterr().out)["service"] == (
                "repro.service"
            )
            out = tmp_path / "out.json"
            service_cli.main([
                "submit", "--port", port, "--sweep", str(SMOKE_SPEC),
                "--json", str(out), "--retries", "1", "--deadline", "60",
            ])
            golden = (ROOT / "tests" / "data" / "sweep_smoke_golden.json")
            assert out.read_bytes() == golden.read_bytes()
            capsys.readouterr()
            service_cli.main(["stats", "--port", port])
            stats = json.loads(capsys.readouterr().out)
            assert stats["scheduler"]["executed"] == 4
        finally:
            handle.stop()

    def test_submit_degrade_local_survives_a_dead_daemon(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out.json"
        with pytest.warns(UserWarning, match="degrading sweep"):
            service_cli.main([
                "submit", "--port", str(dead_port()), "--retries", "0",
                "--degrade", "local",
                "--sweep", str(SMOKE_SPEC), "--json", str(out),
            ])
        golden = ROOT / "tests" / "data" / "sweep_smoke_golden.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_submit_degrade_fail_raises(self, tmp_path):
        with pytest.raises(OSError):
            service_cli.main([
                "submit", "--port", str(dead_port()), "--retries", "0",
                "--sweep", str(SMOKE_SPEC), "--json", str(tmp_path / "o"),
            ])

    def test_recover_reports_store_accounting(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        common.configure_store(store)
        Scenario("cpu", "scan", **FAST).records()
        common.configure_store(None)
        store.flush()
        # Corrupt the single committed object, then recover offline.
        target = next(iter((tmp_path / "objects").glob("*/*.json")))
        target.write_text("{torn")
        service_cli.main(["recover", "--store", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert report["quarantined_now"] == 1
        assert report["entries"] == 0
