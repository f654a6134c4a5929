"""End-to-end benchmark of the Mondrian model: one command, three workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 17        # every workload

Each workload runs in fresh interpreters, so caches, heap growth and
peak RSS cannot leak between workloads.  Set-up is timed separately:
the workload's interpreter is started ``SETUP_REPEATS`` times and
``setup_s`` is the median time from spawn until the inputs are ready
(imports and input generation, or the pre-warmed store), at the
reference host speed (see ``measure.host_probe``); only the last
interpreter goes on to measure.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced passes (spans from ``tracer.py`` around each
layer's public entry points) and prints the per-layer metrics, writing
the spans to ``.perfbench-out/trace-<workload>.json``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit status is non-zero when any output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import (DEFAULT_SEED, ROOT, SRC, at_reference, child_env,  # noqa: E402
                     declared_metrics, host_probe, median)

WORKLOADS = ("design-sweep", "bulk-scale", "serve-dispatch")
SETUP_REPEATS = 5
#: Set-up is imports and input generation: interpreter and JSON-like work.
SETUP_PROBE_PARTS = ("interp", "json", "numpy")
#: A child that has not finished by then is killed (the contract allows 180 s).
CHILD_TIMEOUT_S = 170.0

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def spawn_child(args, workload: str, mode: str) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own, so the child and anything it may start can be
    # stopped together.
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=str(ROOT), text=True, start_new_session=True)


def stop_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's session, then reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()


def run_workload(args, workload: str) -> dict:
    """Time ``SETUP_REPEATS`` set-ups; the last child also measures.

    Each set-up is put at the reference host speed by a probe reading
    taken just before its spawn, while no child runs.
    """
    setups, raw = [], []
    result = None
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    host_probe()  # allocates the probe's inputs
    for i in range(SETUP_REPEATS):
        mode = "run" if i == SETUP_REPEATS - 1 else "setup"
        probe = host_probe()
        t0 = time.perf_counter()
        proc = spawn_child(args, workload, mode)
        try:
            for line in proc.stdout:
                if line.startswith("READY"):
                    raw.append(time.perf_counter() - t0)
                    setups.append(at_reference(raw[-1], probe, SETUP_PROBE_PARTS))
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{workload} exceeded {CHILD_TIMEOUT_S:.0f} s")
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            stop_session(proc)
        if proc.returncode != 0 or len(setups) != i + 1:
            raise RuntimeError(f"{workload} child ({mode}) failed with exit "
                               f"code {proc.returncode}")
    if result is None:
        raise RuntimeError(f"{workload} child printed no result")
    if not args.trace:
        result["metrics"]["setup_s"] = median(setups)
    result["info"]["setup_raw_s"] = (median(raw), "s")
    return result


def readout(workload: str, result: dict, trace: int) -> None:
    """Human-readable metric lines (the workload-specific names)."""
    print(f"== {workload}: {result['attempted']} attempted, {result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.6f})")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")
    if trace:
        for name, value in sorted(result["metrics"].items()):
            print(f"   {name:32s} {value['value']:14.6g} {value['unit']}")
    else:
        units = declared_metrics("end_to_end")
        for name, value in result["metrics"].items():
            print(f"   {name:32s} {value:14.6g} {units[name]}")
    for name, (value, unit) in sorted(result["info"].items()):
        shown = f"{value:14.6g}" if isinstance(value, (int, float)) else value
        print(f"   {name:32s} {shown} {unit}")


def parent(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = declared_metrics("end_to_end")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(args, workload)
        readout(workload, result, args.trace)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, value in result["metrics"].items():
            combined["metrics"][prefix + name] = (
                value if args.trace else {"value": value, "unit": units[name]})
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["correct"] = combined["correct"] and result["failed"] == 0
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def child(args) -> int:
    from measure import use_source_tree

    use_source_tree()
    import worker

    return worker.main(args)


if __name__ == "__main__":
    ARGS = parse_args()
    sys.exit(child(ARGS) if ARGS.child else parent(ARGS))
