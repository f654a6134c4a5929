"""Span tracing from outside the program: wrappers around public entry points.

The traced run installs :func:`instrument` once; it replaces each
layer's public entry points (module attributes, class methods and the
``OPERATOR_RUNNERS`` dispatch table) with thin wrappers that record a
span per call.  Nothing under ``src/`` carries a span of its own, so the
untraced run executes exactly the code a user runs.

Spans live in memory (:class:`Tracer`) and are written once, at exit,
as Chrome ``trace_event`` JSON.  A layer's *self* time is its spans'
durations minus the part covered by their direct child spans; wall time
no span covers is reported as the unattributed remainder.

The tracer deliberately does not reuse ``repro.telemetry``: the
benchmark must keep measuring the same way when the program's own
telemetry changes.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List


class Tracer:
    """In-memory span recorder.

    Traced phases call the program from one thread (sweeps and replays
    run with ``jobs=1``), so one stack tracks the open spans.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: Fault-protocol accounting summed over every traced run.
        self.resilience = {"retries": 0, "shuffle_b": 0.0, "wire_b": 0.0}
        self._stack: List[Dict[str, Any]] = []
        self._next_id = 0

    def begin(self, name: str, layer: str) -> Dict[str, Any]:
        self._next_id += 1
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
            "units": 0,
        }
        self._stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]
        self.spans.append(span)

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, span seconds, calls and work units
        (input tuples for operators, phases for the cost model)."""
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "span_s": 0.0, "calls": 0, "units": 0}
        )
        for span in self.spans:
            duration = span["end"] - span["start"]
            entry = totals[span["layer"]]
            entry["self_s"] += duration - span["child_s"]
            entry["span_s"] += duration
            entry["calls"] += 1
            entry["units"] += span["units"]
        return dict(totals)

    def count(self, name: str) -> int:
        """Finished spans named ``name``."""
        return sum(1 for s in self.spans if s["name"] == name)

    def export_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON; returns the event count."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": round((s["start"] - origin) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "pid": os.getpid(),
                "tid": 0,
                "args": {"id": s["id"], "parent": s["parent"]},
            }
            for s in sorted(self.spans, key=lambda s: (s["start"], s["id"]))
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def _input_tuples(args: tuple) -> int:
    """Tuples an operator call consumes (its first argument's size)."""
    if not args:
        return 0
    first = args[0]
    total = getattr(first, "total_tuples", None)
    if total is not None:
        return int(total)
    if isinstance(first, list):  # partitioning: a list of source relations
        return sum(len(rel) for rel in first)
    return 0


def _wrap(
    tracer: Tracer, layer: str, name: str, fn: Callable, count_tuples: bool = False
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, layer)
        if count_tuples:
            span["units"] = _input_tuples(args)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(span)

    return wrapper


class Instrumentation:
    """The set of patches :func:`instrument` applied, undone by :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Callable[[], None]] = []

    def patch_attr(self, owner: Any, attr: str, layer: str, name: str,
                   count_tuples: bool = False) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(self.tracer, layer, name, original, count_tuples))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, table: Dict[str, Any], key: str, layer: str,
                   name: str, count_tuples: bool = False) -> None:
        original = table[key]
        table[key] = _wrap(self.tracer, layer, name, original, count_tuples)
        self._undo.append(lambda: table.__setitem__(key, original))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every layer's public entry points; returns the undo handle.

    Layers are the program's packages.  Operators are reached both
    through ``OPERATOR_RUNNERS`` (the systems layer's dispatch table)
    and by name from ``repro.pipeline.stage``; both call sites are
    wrapped.  Workload generators are wrapped where their callers look
    them up (``repro.experiments.common`` imports them by name).
    """
    from repro import api, operators
    from repro.analytics import skew as analytics_skew
    from repro.analytics import workload as analytics_workload
    from repro.api import results as api_results
    from repro.api import scenario as api_scenario
    from repro.api import sweep as api_sweep
    from repro.experiments import common
    from repro.pipeline import plan as pipeline_plan
    from repro.pipeline import queries as pipeline_queries
    from repro.pipeline import stage as pipeline_stage
    from repro.service import codec as service_codec
    from repro.service import daemon as service_daemon
    from repro.service import scheduler as service_scheduler
    from repro.service import store as service_store
    from repro.suites import registry as suites_registry
    from repro.suites import runner as suites_runner
    from repro.systems import machine as systems_machine

    inst = Instrumentation(tracer)

    for op in list(operators.OPERATOR_RUNNERS):
        inst.patch_item(operators.OPERATOR_RUNNERS, op, "operators",
                        f"run_{op}", count_tuples=True)
    for attr in ("run_scan", "run_join", "run_groupby", "run_sort",
                 "run_partitioning", "run_partitioning_skew_aware"):
        inst.patch_attr(pipeline_stage, attr, "operators", attr,
                        count_tuples=True)

    inst.patch_attr(pipeline_plan.QueryPlan, "execute", "pipeline", "QueryPlan.execute")
    inst.patch_attr(pipeline_queries, "make_fk_tables", "analytics", "make_fk_tables")
    for attr in ("make_scan_workload", "make_sort_workload",
                 "make_groupby_workload", "make_join_workload"):
        inst.patch_attr(common, attr, "analytics", attr)
        inst.patch_attr(analytics_workload, attr, "analytics", attr)
    inst.patch_attr(analytics_skew, "make_skewed_groupby_workload", "analytics",
                    "make_skewed_groupby_workload")

    machine = systems_machine.Machine
    inst.patch_attr(machine, "__init__", "systems", "Machine.__init__")
    inst.patch_attr(machine, "run_operator", "systems", "Machine.run_operator")
    inst.patch_attr(machine, "run_pipeline", "systems", "Machine.run_pipeline")
    original_eval = machine.evaluate_run
    resilience = tracer.resilience

    def evaluate_run(self, run):
        span = tracer.begin("Machine.evaluate_run", "perf")
        span["units"] = len(run.phases)
        try:
            result = original_eval(self, run)
        finally:
            tracer.end(span)
        stats = run.metadata.get("resilience")
        if stats is not None:
            resilience["retries"] += int(stats["retries"])
            resilience["shuffle_b"] += float(stats["shuffle_b"])
            resilience["wire_b"] += float(stats["shuffle_b"]) + float(
                stats["retried_b"]) + float(stats["duplicate_b"])
        return result

    machine.evaluate_run = evaluate_run
    inst._undo.append(lambda: setattr(machine, "evaluate_run", original_eval))

    inst.patch_attr(common, "run_cached_result", "experiments", "run_cached_result")
    inst.patch_attr(api_scenario.Scenario, "records", "api", "Scenario.records")
    # records_from_result is looked up by name in three modules.
    for owner in (api, api_scenario, suites_runner):
        inst.patch_attr(owner, "records_from_result", "api", "records_from_result")
    inst.patch_attr(api_sweep.Sweep, "run", "api", "Sweep.run")
    inst.patch_attr(api_results.ResultSet, "to_json", "api.export", "ResultSet.to_json")

    inst.patch_attr(suites_runner.SuiteRun, "run", "suites", "SuiteRun.run")
    inst.patch_attr(suites_runner.SuitePoint, "records", "suites", "SuitePoint.records")
    inst.patch_attr(suites_runner, "run_suite_point", "suites", "run_suite_point")
    inst.patch_attr(suites_registry.Suite, "build_plan", "suites", "Suite.build_plan")

    inst.patch_attr(service_daemon.EvaluationDaemon, "dispatch", "service",
                    "EvaluationDaemon.dispatch")
    inst.patch_attr(service_scheduler.BatchScheduler, "submit", "service",
                    "BatchScheduler.submit")
    for attr in ("result_to_document", "result_from_document"):
        inst.patch_attr(service_codec, attr, "service.codec", attr)
    inst.patch_attr(service_store.ResultStore, "get", "service.store_get", "ResultStore.get")
    inst.patch_attr(service_store.ResultStore, "put", "service.store_put", "ResultStore.put")
    return inst
