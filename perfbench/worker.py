"""One workload in one fresh interpreter: set up, measure, check, report.

Started by ``run.py`` (``--child setup|run``).  Prints ``READY`` once
the inputs exist, then -- in ``run`` mode -- measures, checks every
output and prints ``RESULT <json>``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from measure import OUT, declared_metrics, self_peak_rss_mb
from tracer import Tracer, instrument

#: Raw figures printed under the workload's own names (the gated rate
#: and median are at the reference host speed).
RAW_NAMES = {
    "design-sweep": ("sweep_pts_per_s", "sweep_pass_p50_ms"),
    "bulk-scale": ("bulk_tuples_per_s", "bulk_point_p50_ms"),
    "serve-dispatch": ("serve_requests_per_s", "serve_p50_ms"),
}


def build(name: str, seed: int):
    from serve import ServeDispatch
    from workloads import BulkScale, DesignSweep

    return {"design-sweep": DesignSweep, "bulk-scale": BulkScale,
            "serve-dispatch": ServeDispatch}[name](seed)


def layer_values(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer numbers every workload shares, from one traced phase."""
    totals = tracer.layer_totals()

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    ops_span = get("operators", "span_s")
    attributed = sum(t["self_s"] for t in totals.values())
    res = tracer.resilience
    return {
        "operators.self_s": get("operators", "self_s"),
        "operators.calls": get("operators", "calls"),
        "operators.mtuples_per_s": get("operators", "units") / ops_span / 1e6
        if ops_span else 0.0,
        "pipeline.self_s": get("pipeline", "self_s"),
        "pipeline.plans": get("pipeline", "calls"),
        "perf.eval_s": get("perf", "self_s"),
        "perf.phases": get("perf", "units"),
        "analytics.gen_s": get("analytics", "self_s"),
        "systems.self_s": get("systems", "self_s"),
        "systems.machines_built": tracer.count("Machine.__init__"),
        "experiments.self_s": get("experiments", "self_s"),
        "api.records_s": get("api", "self_s"),
        "api.export_s": get("api.export", "self_s"),
        "suites.self_s": get("suites", "self_s"),
        "faults.retries": res["retries"],
        "faults.delivery_ratio": res["shuffle_b"] / res["wire_b"] if res["wire_b"] else 0.0,
        "service.self_s": get("service", "self_s"),
        "trace.unattributed_pct": 100.0 * (wall_s - attributed) / wall_s,
    }


def measure_and_check(args, workload) -> Dict[str, Any]:
    """Measure (and trace), then check every output."""
    from workloads import digest_check

    tracer = Tracer()
    run = workload.measure(args.seconds,
                           (lambda: instrument(tracer)) if args.trace else None)
    metrics = workload.metrics(run["untraced"])
    metrics["peak_rss_mb"] = self_peak_rss_mb()
    rate_name, p50_name = RAW_NAMES[workload.name]
    info = {rate_name: (metrics["raw_rate_per_s"], "1/s"),
            p50_name: (metrics["raw_p50_ms"], "ms")}
    if workload.name == "bulk-scale":
        info["bulk_slowest_point_ms"] = (metrics["slowest_ms"], "ms")
    if args.trace:
        traced = run["traced"]
        layers = layer_values(tracer, traced["wall_s"])
        layers.update(workload.layers(tracer))
        layers["trace.overhead_pct"] = 100.0 * (
            metrics["rate_per_s"] / workload.metrics(traced)["rate_per_s"] - 1.0)
        tracer.export_chrome(str(OUT / f"trace-{workload.name}.json"))
        metrics = layers
    problems = workload.verify()
    digest, pin_problems = digest_check(workload.name, args.seed, workload.export)
    problems += pin_problems
    info.update({"export_sha256": (digest, ""), "passes": (run["passes"], "count")})
    if workload.name == "design-sweep":
        info["paper_err_pct"] = (workload.paper_err_pct, "%")
        info["grid_points_per_pass"] = (workload.units_per_pass, "count")
    runs = run["passes"] * workload.runs_per_pass
    return {"metrics": metrics, "attempted": runs + workload.checks,
            "failed": run["unstable_passes"] * workload.runs_per_pass + len(problems),
            "problems": problems, "info": info}


def main(args) -> int:
    # The traced run also traces set-up, where bulk-scale generates its
    # relations and builds its machines.
    setup_tracer = Tracer()
    handle = instrument(setup_tracer) if args.trace else None
    try:
        workload = build(args.workload, args.seed)
    finally:
        if handle is not None:
            handle.remove()
    print("READY", flush=True)
    try:
        if args.child == "setup":
            return 0
        result = measure_and_check(args, workload)
    finally:
        workload.close()
    if args.trace:
        setup = setup_tracer.layer_totals()
        layers = result["metrics"]
        layers["analytics.gen_s"] += setup.get("analytics", {}).get("self_s", 0.0)
        layers["systems.machines_built"] += setup_tracer.count("Machine.__init__")
        # Layers a workload never enters report 0 (no calls, no time).
        result["metrics"] = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in declared_metrics("per_layer").items()
        }
    else:  # run.py adds setup_s, which it times itself
        result["metrics"] = {name: float(result["metrics"][name])
                             for name in declared_metrics("end_to_end") if name != "setup_s"}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit("worker.py is started by run.py")
