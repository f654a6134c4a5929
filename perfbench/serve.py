"""The ``serve-dispatch`` workload: the evaluation daemon's request path.

A fresh :class:`repro.service.EvaluationDaemon` over a durable store
(the ``serve`` defaults: ``--jobs 1``) answers a seeded list of request
lines in-process, doing per request what the daemon does between its
socket reads and writes: decode the line, ``dispatch``, encode the
response line.  The mix, drawn from the benchmark seed (every block of
100 requests holds exactly these counts):

- 88 %  repeats of a Zipf-popular hot set of operator points, served
  from the daemon's store and memory tiers;
- 2 %   repeats of ``fk-join-aggregate`` query points, which the daemon
  re-executes every time (query results are not cached);
- 5 %   never-seen operator points, which simulate and write the store;
- 5 %   ``ping`` health checks.

Set-up pre-warms a store with the hot set and the query points.  Every
pass copies that store, starts a daemon over the copy and pre-warms its
memory tiers (untimed), then times each request; so every pass answers
the same requests the same way, and a request's samples can be compared
across passes like a bulk-scale point's.  The host-speed probe, read
after every :data:`PROBE_EVERY` requests, turns each of their samples
into one at the reference speed.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from measure import OUT, host_probe, median
from workloads import Workload, traced

PRESETS = ("cpu", "nmp-rand", "nmp-seq", "nmp-perm", "mondrian-noperm", "mondrian")
OPERATORS = ("scan", "sort", "groupby", "join")
#: The repeated query: the headline canonical pipeline on three systems.
QUERY = "fk-join-aggregate"
QUERY_SYSTEMS = ("cpu", "nmp-seq", "mondrian")
#: Requests of each kind in every block of 100.
MIX = (("hot", 88), ("query", 2), ("new", 5), ("ping", 5))
ZIPF_S = 1.0
#: Requests one pass answers, and how many between probe readings.
REQUESTS = 200
PROBE_EVERY = 50


class RequestStream:
    """Seeded request generator: the same seed gives the same requests.

    Requests are stratified: every block of 100 holds exactly the
    :data:`MIX` counts, and its hot repeats hold each hot point as often
    as its Zipf weight says (largest remainder), in a seeded order; new
    points cycle through the operators, then the presets, and query
    points through the three systems, each from the same start.  So every
    seed offers the same cost mix; it draws the relations' seeds and the
    request order.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        hot_seed = rng.randrange(1, 1 << 30)
        # Popularity ranks cycle through the operators, then the presets,
        # in a fixed order (response sizes differ by operator and preset).
        self.hot = [{"system": p, "operator": op, "seed": s}
                    for s in (hot_seed, 17) for p in PRESETS for op in OPERATORS]
        self.hot_block = zipf_quota(self.hot, dict(MIX)["hot"])
        self.queries = [{"system": p, "operator": QUERY, "seed": hot_seed}
                        for p in QUERY_SYSTEMS]
        self.seen_seeds = {17, hot_seed}
        self.mix_rng = random.Random(rng.randrange(1 << 62))
        self.new_rng = random.Random(rng.randrange(1 << 62))
        self._kinds: List[str] = []
        self._hot: List[Dict[str, Any]] = []
        self._pairs = itertools.cycle([(p, op) for p in PRESETS for op in OPERATORS])
        self._queries = itertools.cycle(self.queries)

    def new_point(self) -> Dict[str, Any]:
        rng = self.new_rng
        system, operator = next(self._pairs)
        while True:
            seed = rng.randrange(1, 1 << 30)
            if seed not in self.seen_seeds:
                self.seen_seeds.add(seed)
                break
        return {"system": system, "operator": operator, "seed": seed}

    def next(self) -> Tuple[str, Optional[Dict[str, Any]]]:
        rng = self.mix_rng
        if not self._kinds:
            self._kinds = [kind for kind, count in MIX for _ in range(count)]
            rng.shuffle(self._kinds)
            self._hot = list(self.hot_block)
            rng.shuffle(self._hot)
        kind = self._kinds.pop()
        if kind == "hot":
            return kind, self._hot.pop()
        if kind == "query":
            return kind, next(self._queries)
        if kind == "new":
            return kind, self.new_point()
        return kind, None


def zipf_quota(points: List[Dict[str, Any]], total: int) -> List[Dict[str, Any]]:
    """``total`` picks of ``points``, rank r weighted 1/(r+1)^s, each
    point taken floor(its share) times and the rest by largest remainder."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(points))]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(points)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return [point for point, count in zip(points, counts) for _ in range(count)]


def request_line(point: Optional[Dict[str, Any]]) -> bytes:
    if point is None:
        return b'{"verb": "ping"}\n'
    return (json.dumps({"verb": "evaluate", "scenario": point}) + "\n").encode()


class ServeDispatch(Workload):
    """Set-up: the request list and a pre-warmed store to copy per pass."""

    name = "serve-dispatch"
    #: Every response against ``Scenario.records()``, the pinned digest.
    checks = 2

    def __init__(self, seed: int) -> None:
        stream = RequestStream(seed)
        self.warm = stream.hot + stream.queries
        self.requests = [stream.next() for _ in range(REQUESTS)]
        self.lines = [request_line(point) for _, point in self.requests]
        self.units_per_pass = self.runs_per_pass = len(self.requests)
        OUT.mkdir(parents=True, exist_ok=True)
        self.snapshot = tempfile.mkdtemp(prefix="serve-store-", dir=OUT)
        try:
            self._daemon(self.snapshot).scheduler.close()
        except BaseException:
            self.close()
            raise
        self.responses: List[bytes] = []
        self.stats: Dict[str, Any] = {}

    def close(self) -> None:
        shutil.rmtree(self.snapshot, ignore_errors=True)

    def _daemon(self, store: str):
        """A daemon over ``store`` with the hot set and queries answered."""
        from repro.experiments import common
        from repro.service import BatchScheduler, EvaluationDaemon

        common.clear_caches()
        daemon = EvaluationDaemon(BatchScheduler(store=store))
        for point in self.warm:
            reply = daemon.dispatch({"verb": "evaluate", "scenario": point})
            if not reply.get("records"):
                raise RuntimeError(f"pre-warm of {point} returned no records")
        return daemon

    def run_pass(self, instrument=None) -> Tuple[str, List[Tuple[Any, float, float]]]:
        store = tempfile.mkdtemp(prefix="serve-pass-", dir=OUT)
        try:
            shutil.copytree(self.snapshot, store, dirs_exist_ok=True)
            daemon = self._daemon(store)
            samples, lines = [], []
            for start in range(0, len(self.lines), PROBE_EVERY):
                times = []
                with traced(instrument):
                    for line in self.lines[start:start + PROBE_EVERY]:
                        t0 = time.perf_counter()
                        try:
                            response = {"ok": True, "result": daemon.dispatch(json.loads(line))}
                        except Exception as exc:  # noqa: BLE001 - as the daemon answers
                            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                        lines.append((json.dumps(response) + "\n").encode("utf-8"))
                        times.append(time.perf_counter() - t0)
                probe = host_probe()
                samples.extend((start + i, t, probe) for i, t in enumerate(times))
            self.stats = daemon.scheduler.stats()
            daemon.scheduler.close()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if not self.responses:
            self.responses = lines
        # Pings carry the daemon's pid and store path; the export is the
        # evaluate responses.
        export = b"".join(line for (kind, _), line in zip(self.requests, lines)
                          if kind != "ping")
        return export.decode("utf-8"), samples

    def layers(self, tracer) -> Dict[str, float]:
        totals = tracer.layer_totals()
        dispatches = [s["end"] - s["start"] for s in tracer.spans
                      if s["name"] == "EvaluationDaemon.dispatch"]

        def mean_ms(layer: str) -> float:
            entry = totals.get(layer)
            return 1e3 * entry["span_s"] / entry["calls"] if entry and entry["calls"] else 0.0

        looked_up = self.stats["store_hits"] + self.stats["executed"]
        return {
            "service.dispatch_ms": 1e3 * median(dispatches),
            # Codec time per request (a request may encode several results).
            "service.codec_ms": 1e3 * totals.get("service.codec", {}).get("span_s", 0.0)
            / len(dispatches),
            "service.store_get_ms": mean_ms("service.store_get"),
            "service.store_put_ms": mean_ms("service.store_put"),
            "service.store_hit_ratio": self.stats["store_hits"] / looked_up if looked_up else 0.0,
            "service.executed": self.stats["executed"],
        }

    def verify(self) -> List[str]:
        """Every response of the first pass equals ``Scenario.records()``."""
        from repro.api import Scenario

        failures = []
        expected: Dict[str, Any] = {}
        for (kind, point), line in zip(self.requests, self.responses):
            reply = json.loads(line)
            if not reply.get("ok"):
                failures.append(f"{kind} {point}: {reply.get('error')}")
            elif point is None:
                if reply["result"].get("service") != "repro.service":
                    failures.append("ping: wrong service name")
            else:
                key = json.dumps(point, sort_keys=True)
                if key not in expected:
                    expected[key] = json.loads(json.dumps(Scenario.from_dict(point).records()))
                if reply["result"]["records"] != expected[key]:
                    failures.append(f"{kind} {key}: response differs from Scenario.records()")
        return failures
