"""The in-process workloads: ``design-sweep`` and ``bulk-scale``.

Each workload is built from the benchmark seed (the program only sees
the generated inputs), measured in passes until the time budget is
spent, and checked afterwards:

- every pass exports the simulated statistics it produced; all passes
  must export identical bytes, and at :data:`~measure.DEFAULT_SEED` the
  SHA-256 of the export must equal the digest pinned in
  ``perfbench/design.json`` -- a pure speed-up leaves every simulated
  statistic identical;
- sampled operator points must match the ``segmented=False`` reference
  path byte for byte (simulated statistics and functional output).

Every timed sample is followed by a reading of the host-speed probe
(:func:`measure.host_probe`); the gated rate and median use the
samples at the reference speed, so a shared host that runs slower for a
while moves them far less than the raw times, which are printed too.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator as op
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from measure import DEFAULT_SEED, ROOT, at_reference, host_probe, median

OPERATORS = ("scan", "sort", "groupby", "join")
QUERIES = ("fk-join-aggregate", "sort-then-scan", "skewed-partition-join")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_bytes(output: Any) -> bytes:
    """Canonical bytes of an operator's functional output."""
    data = getattr(output, "data", None)  # a Relation (sort, pipelines)
    if data is not None:
        return data.tobytes()
    groups = getattr(output, "groups", None)  # GroupByOutput
    if groups is not None:
        return json.dumps(sorted((int(k), v) for k, v in groups.items()),
                          sort_keys=True).encode("utf-8")
    return repr(output).encode("utf-8")  # JoinOutput / ScanOutput


def answer_digest(output: Any) -> str:
    """Digest of an answer that every system must compute identically.

    Systems partition and aggregate in different orders, so relations
    are compared as multisets, and group sums -- float64 accumulated in
    a system-specific order -- only through their rounded grand total;
    group keys, counts, minima and maxima must match exactly.
    """
    import numpy as np

    data = getattr(output, "data", None)
    if data is not None:
        order = np.lexsort((data["payload"], data["key"]))
        return hashlib.sha256(data[order].tobytes()).hexdigest()
    groups = getattr(output, "groups", None)
    if groups is not None:
        exact = [(int(k), g["count"], g["min"], g["max"]) for k, g in sorted(groups.items())]
        total = f"{sum(g['sum'] for g in groups.values()):.9e}"
        return sha256(json.dumps([exact, total]))
    return sha256(repr(output))


def check_reference(machine, operator: str, workload, scale: float,
                    expected_records: Optional[List[Dict[str, Any]]],
                    base: Dict[str, Any]) -> Optional[str]:
    """Re-run one point on both execution paths; describe any mismatch.

    ``expected_records`` (when given) are the records the measured run
    exported for this point; they must equal the reference path's.
    """
    from repro.api import records_from_result
    from repro.service.codec import result_to_document

    fast = machine.run_operator(operator, workload, scale, segmented=True)
    ref = machine.run_operator(operator, workload, scale, segmented=False)
    label = f"{machine.name}/{operator}"
    if json.dumps(result_to_document(fast), sort_keys=True) != json.dumps(
            result_to_document(ref), sort_keys=True):
        return f"{label}: simulated statistics differ from segmented=False"
    if output_bytes(fast.output) != output_bytes(ref.output):
        return f"{label}: functional output differs from segmented=False"
    if expected_records is not None:
        ref_records = json.loads(json.dumps(records_from_result(machine, ref, base)))
        if ref_records != expected_records:
            return f"{label}: exported records differ from the reference path"
    return None


@contextlib.contextmanager
def traced(instrument=None):
    """Apply ``instrument`` (when given) for the duration of the block."""
    handle = instrument() if instrument is not None else None
    try:
        yield
    finally:
        if handle is not None:
            handle.remove()


class Workload:
    """Shared pass loop and metrics.

    A pass returns its export and timed samples keyed by what was run
    (each part of the grid on design-sweep, each point on bulk-scale),
    each with the probe reading taken right after it.
    """

    name = ""
    #: Units of work the rate counts per pass (points, or input tuples).
    units_per_pass = 0
    #: Evaluations one pass attempts (grid points, or point runs).
    runs_per_pass = 0
    #: What ``p50_ms`` is the median of: whole passes (the sum of their
    #: parts) or single points.
    latency_of = "point"
    #: The host-probe parts that match the work a sample times.
    probe_parts: Tuple[str, ...] = ("interp", "json", "numpy")

    def run_pass(self, instrument=None) -> Tuple[str, List[Tuple[Any, float, float]]]:
        """One pass, traced by ``instrument`` when given:
        (exported statistics, [(key, seconds, probe seconds)])."""
        raise NotImplementedError

    def layers(self, tracer) -> Dict[str, float]:
        """Per-layer numbers only this workload has (traced run)."""
        return {}

    def close(self) -> None:
        """Remove what set-up left on disk."""

    def measure(self, seconds: float, instrument=None) -> Dict[str, Any]:
        """Run passes for ``seconds``; with ``instrument`` passes are
        traced in the order untraced, traced, traced, untraced, ... (at
        least one of each), so both kinds see the same host conditions."""
        phases = {flag: {"times": {}, "wall_s": 0.0} for flag in (False, True)}
        exports: List[str] = []
        host_probe()  # allocates the probe's inputs
        before = host_probe()
        start = time.perf_counter()
        last = 0.0
        # Start another pass while at least half of it fits the budget.
        while (len(exports) < (2 if instrument else 1)
               or time.perf_counter() - start + last / 2 < seconds):
            traced = instrument is not None and len(exports) % 4 in (1, 2)
            t0 = time.perf_counter()
            export, samples = self.run_pass(instrument if traced else None)
            last = time.perf_counter() - t0
            # A sample's host speed: the mean of the probe readings
            # before and after it (a single reading is noisy).
            for key, elapsed, after in samples:
                probe = {part: (before[part] + after[part]) / 2 for part in after}
                phases[traced]["times"].setdefault(key, []).append((elapsed, probe))
                phases[traced]["wall_s"] += elapsed
                before = after
            exports.append(export)
        self.export = exports[0]
        return {
            "untraced": phases[False],
            "traced": phases[True],
            "passes": len(exports),
            "unstable_passes": sum(e != exports[0] for e in exports),
        }

    def metrics(self, phase: Dict[str, Any]) -> Dict[str, float]:
        """Rate, median and slowest time from each key's median time, at
        the reference host speed (the raw figures under ``raw_*``).

        Per-key medians first: a pass's keys differ in cost by 10x, and
        one slow sample of the host should not move the run's figure.
        """
        samples = phase["times"].values()
        raw = [median([e for e, _ in ts]) for ts in samples]
        norm = [median([at_reference(e, p, self.probe_parts) for e, p in ts])
                for ts in samples]

        def p50(per_key: List[float]) -> float:
            return (sum(per_key) if self.latency_of == "pass" else median(per_key)) * 1e3

        return {
            "rate_per_s": self.units_per_pass / sum(norm),
            "p50_ms": p50(norm),
            "raw_rate_per_s": self.units_per_pass / sum(raw),
            "raw_p50_ms": p50(raw),
            "slowest_ms": max(raw) * 1e3,
        }


class DesignSweep(Workload):
    """A cold architect grid: presets plus derived specs, all workloads.

    Caches are emptied before every pass and no store is configured, so
    each pass pays workload generation and simulation for every point,
    as a fresh ``Sweep`` does.  A pass runs the grid in parts (one
    ``Sweep`` per system, the paper points, one ``SuiteRun`` per suite,
    then the export) in the order of the whole grid, so its records and
    cache traffic equal one big sweep's; each part is a timed sample.
    The latency is the whole pass: a sweep returns its records only when
    the grid is done.
    """

    name = "design-sweep"
    latency_of = "pass"
    #: 4 reference points, 5 cross-preset suite answers, the suite golden
    #: file and the pinned export digest.
    checks = 11

    def __init__(self, seed: int) -> None:
        from repro.api import Sweep, SystemSpec
        from repro.config.system import EVALUATED_PRESETS
        from repro.suites import SuiteRun

        rng = random.Random(seed)
        self.seed = seed
        self.seeds = tuple(sorted(rng.sample(range(1, 1 << 30), 3)))
        derived = (
            SystemSpec("mondrian").with_cores(32).with_topology("star")
            .named("mondrian-32c-star"),
            SystemSpec("nmp-seq").with_interleave("random").named("nmp-seq-random-il"),
            SystemSpec("mondrian").with_simd(256).named("mondrian-simd256"),
            SystemSpec("nmp-perm").with_faults(drop_prob=0.1, seed=rng.randrange(1 << 16))
            .named("nmp-perm-drop10"),
        )
        self.sweep = Sweep(systems=EVALUATED_PRESETS + derived,
                           workloads=OPERATORS + QUERIES, seeds=self.seeds)
        # The paper's own points: Figure 6 / Table 5 read these.
        self.paper = Sweep(systems=EVALUATED_PRESETS, workloads=OPERATORS,
                           seeds=(17,), scales=(2000.0,))
        self.suites = SuiteRun(seed=rng.randrange(1, 1 << 30))
        self.parts = (
            [(f"sweep:{i}", Sweep(systems=(system,), workloads=self.sweep.workloads,
                                  seeds=self.seeds))
             for i, system in enumerate(self.sweep.systems)]
            + [("paper", self.paper)]
            + [(f"suite:{suite}", SuiteRun(suites=(suite,), seed=self.suites.seed))
               for suite in self.suites.suites])
        self.units_per_pass = self.sweep.size + self.paper.size + self.suites.size
        self.runs_per_pass = self.units_per_pass
        self.cache = {"workload": [0, 0], "result": [0, 0]}

    def run_pass(self, instrument=None) -> Tuple[str, List[Tuple[Any, float, float]]]:
        from repro.experiments import common

        common.clear_caches()
        results, samples = [], []
        with traced(instrument):
            for key, part in self.parts:
                t0 = time.perf_counter()
                results.append(part.run())
                samples.append((key, time.perf_counter() - t0, host_probe()))
            t0 = time.perf_counter()
            export = functools.reduce(op.add, results).to_json()
            samples.append(("export", time.perf_counter() - t0, host_probe()))
        if instrument is not None:
            tiers = common.cache_stats()["tiers"]
            for tier, counts in self.cache.items():
                counts[0] += tiers[tier]["hits"]
                counts[1] += tiers[tier]["hits"] + tiers[tier]["misses"]
        return export, samples

    def layers(self, tracer) -> Dict[str, float]:
        return {f"experiments.{tier}_hit_ratio": hits / looked
                for tier, (hits, looked) in self.cache.items()}

    def verify(self) -> List[str]:
        from repro.api import Scenario
        from repro.experiments import common
        from repro.suites import functional_digests

        failures = []
        rng = random.Random(self.seed ^ 0x5EED)
        exported = json.loads(self.export)
        operator_points = [s for s in self.sweep.scenarios() if not s.is_query]
        for scenario in rng.sample(operator_points, 4):
            base = {"system": scenario.system_label, "workload": scenario.operator,
                    "scale": float(scenario.model_scale), "seed": int(scenario.seed),
                    "num_partitions": int(scenario.num_partitions)}
            expected = [r for r in exported if "suite" not in r
                        and all(r.get(k) == v for k, v in base.items())]
            problem = check_reference(
                scenario.machine(), scenario.operator,
                common.make_workload(scenario.operator, scenario.seed,
                                     scenario.num_partitions),
                scenario.model_scale, expected, base)
            if problem:
                failures.append(problem)

        by_suite: Dict[str, set] = {}
        for outcome in self.suites.outcomes():
            by_suite.setdefault(outcome.suite, set()).add(outcome.output_digest)
        for suite, digests in sorted(by_suite.items()):
            if len(digests) != 1:
                failures.append(f"suite {suite}: answers differ across presets")
        golden_path = ROOT / "tests" / "data" / "suites_functional_golden.json"
        if functional_digests(seed=17) != json.loads(golden_path.read_text()):
            failures.append("suite answers at seed 17 differ from the golden file")

        self.paper_err_pct = paper_error_pct(
            lambda system, op: Scenario(system, op, model_scale=2000.0, seed=17).result())
        return failures


def paper_error_pct(result) -> float:
    """Mean |model/paper - 1| over Figure 6's and Table 5's speedups, in %."""
    from repro.experiments.fig6_probe import PAPER_APPROX
    from repro.experiments.table5_partition import PAPER_SPEEDUPS
    from repro.perf.result import partition_speedup, probe_speedup

    errors = []
    for (operator, system), paper in PAPER_APPROX.items():
        model = probe_speedup(result("cpu", operator), result(system, operator))
        errors.append(abs(model / paper - 1.0))
    for system, paper in PAPER_SPEEDUPS.items():
        model = partition_speedup(result("cpu", "join"), result(system, "join"))
        errors.append(abs(model / paper - 1.0))
    return 100.0 * sum(errors) / len(errors)


class BulkScale(Workload):
    """Half-million-tuple relations (8 MB, beyond a core's 2 MB L2).

    Every input runs once per pass on ``cpu``, ``nmp-seq`` and
    ``mondrian``; each (system, input) point is one timed sample.
    """

    name = "bulk-scale"
    #: Columnar kernels over 8 MB relations, driven from Python.
    probe_parts = ("interp", "numpy")
    #: 6 cross-system answers, 2 reference points, the pinned digest.
    checks = 9
    N = 500_000
    SYSTEMS = ("cpu", "nmp-seq", "mondrian")
    #: 500k functional tuples x 80 = the 40M-tuple dataset the paper
    #: figures model (20k x 2000).
    SCALE = 80.0

    def __init__(self, seed: int) -> None:
        from repro.analytics import skew, workload
        from repro.pipeline import queries
        from repro.systems import build_system

        rng = random.Random(seed)
        seeds = [rng.randrange(1, 1 << 30) for _ in range(6)]
        n, n_r, parts = self.N, self.N // 4, 64
        # (name, operator, input); operator None marks a query plan.
        inputs = [
            ("join", "join", workload.make_join_workload(n_r, n, parts, seeds[0])),
            ("sort", "sort", workload.make_sort_workload(n, parts, seeds[1])),
            ("groupby", "groupby", workload.make_groupby_workload(n, parts, seed=seeds[2])),
            ("groupby-skewed", "groupby",
             skew.make_skewed_groupby_workload(n, parts, seed=seeds[3])),
            ("fk-join-aggregate", None, queries.fk_join_aggregate(n_r, n, parts, seeds[4])),
            ("skewed-partition-join", None,
             queries.skewed_partition_join(n_r, n, parts, seeds[5])),
        ]
        self.points = [(build_system(p), inp) for inp in inputs for p in self.SYSTEMS]
        self.units_per_pass = sum(
            data.total_tuples if op else sum(len(t) for t in data.tables.values())
            for _, (_, op, data) in self.points)
        self.runs_per_pass = len(self.points)
        self.answers: Dict[str, set] = {}
        self.seed = seed

    def run_pass(self, instrument=None) -> Tuple[str, List[Tuple[Any, float, float]]]:
        from repro.api import ResultSet, records_from_result

        records: List[Dict[str, Any]] = []
        samples = []
        for machine, (name, operator, data) in self.points:
            with traced(instrument):
                t0 = time.perf_counter()
                if operator:
                    outcome = machine.run_operator(operator, data, self.SCALE)
                else:
                    outcome = machine.run_pipeline(data, self.SCALE)
                elapsed = time.perf_counter() - t0
            samples.append(((machine.name, name), elapsed, host_probe()))
            base = {"system": machine.name, "workload": name, "scale": self.SCALE}
            if operator:
                records.extend(records_from_result(machine, outcome, base))
                final = outcome.output
            else:
                for stage in outcome.stages:
                    records.extend(records_from_result(
                        machine, stage.result, dict(base, stage=stage.stage)))
                final = outcome.stages[-1].result.output
            digests = self.answers.setdefault(name, {})
            if machine.name not in digests:  # each system's first answer
                digests[machine.name] = answer_digest(final)
        return ResultSet(records).to_json(), samples

    def verify(self) -> List[str]:
        failures = [f"{name}: answers differ across systems"
                    for name, by_system in sorted(self.answers.items())
                    if len(set(by_system.values())) != 1]
        exported = json.loads(self.export)
        operator_points = [(m, inp) for m, inp in self.points if inp[1]]
        rng = random.Random(self.seed ^ 0x5EED)
        for machine, (name, operator, data) in rng.sample(operator_points, 2):
            base = {"system": machine.name, "workload": name, "scale": self.SCALE}
            expected = [r for r in exported if all(r.get(k) == v for k, v in base.items())]
            problem = check_reference(machine, operator, data, self.SCALE, expected, base)
            if problem:
                failures.append(problem)
        return failures


def pinned_digest(workload: str) -> Optional[str]:
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    return design["pinned_sha256"].get(workload)


def digest_check(name: str, seed: int, export: str) -> Tuple[str, List[str]]:
    """SHA-256 of the export; at the default seed it must match the pin."""
    digest = sha256(export)
    if seed != DEFAULT_SEED:
        return digest, []
    pinned = pinned_digest(name)
    if pinned != digest:
        return digest, [f"{name}: exported statistics sha256 {digest} != pinned {pinned}"]
    return digest, []
