"""The fleet worker: one evaluation subprocess behind the supervisor.

A worker is a plain ``python -m repro.service.resilience.worker``
process speaking newline-delimited JSON over stdin/stdout -- one task
object in, one response object out.  Verbs:

``ping``
    Heartbeat: answers ``{"ok": true, "pong": true, "pid": ...}``
    immediately.  The supervisor pings idle workers and declares a
    silent one wedged.
``evaluate``
    ``{"scenario": {...}, "store": dir-or-null, "cache": bool}`` ->
    the scenario's tidy records plus the store-counter delta its
    evaluation caused (the supervisor folds deltas into the parent
    handle, keeping fleet-run store stats truthful).
``exit``
    Acknowledge and leave the loop (clean drain at fleet shutdown).

Workers exit on stdin EOF, so an orphaned worker (its supervisor was
``kill -9``-ed) dies with its parent instead of leaking.

**Deterministic fault injection.**  The ``REPRO_WORKER_CHAOS``
environment variable (comma-separated ``k=v`` pairs) arms seeded
crash/stall faults the chaos harness uses::

    kill_after=N[,mode=pre|post]   SIGKILL itself on its (N+1)-th
                                   evaluate task -- before doing any
                                   work (``pre``) or after evaluating
                                   and writing the store but *before*
                                   replying (``post``, which is how
                                   replays exercise store-level dedup).
    stall_after=N[,stall=SECONDS]  sleep mid-task instead of dying
                                   (exceeds the supervisor's task
                                   deadline -> treated as wedged).

Faults live *here*, in the victim process, so the failure is a real
``SIGKILL`` mid-batch -- the supervisor sees exactly what a production
crash looks like -- while remaining schedulable from a seed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from typing import Any, Dict, Optional, TextIO


def parse_chaos(spec: Optional[str]) -> Dict[str, Any]:
    """``REPRO_WORKER_CHAOS`` -> a normalized fault plan (empty if unset)."""
    plan: Dict[str, Any] = {}
    if not spec:
        return plan
    for pair in spec.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, _, value = pair.partition("=")
        key = key.strip()
        if key in ("kill_after", "stall_after"):
            plan[key] = int(value)
        elif key == "stall":
            plan[key] = float(value)
        elif key == "mode":
            if value not in ("pre", "post"):
                raise ValueError(f"chaos mode must be pre|post, got {value!r}")
            plan[key] = value
        else:
            raise ValueError(f"unknown chaos key {key!r} in {spec!r}")
    plan.setdefault("mode", "pre")
    plan.setdefault("stall", 5.0)
    return plan


def _self_destruct() -> None:
    """Die the way a crashed worker dies: un-catchable, mid-write-nothing."""
    os.kill(os.getpid(), signal.SIGKILL)


def _evaluate(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scenario with the task's store/cache selection installed.

    A task carrying ``"trace": true`` additionally runs under a fresh
    worker-local tracer and ships the finished spans back in the
    response (the supervisor re-parents them under the batch span) --
    the JSON-lines side channel the telemetry layer documents.
    """
    from repro.api.scenario import Scenario
    from repro.experiments import common

    records, delta, spans = common.worker_records(
        Scenario.from_dict(task["scenario"]),
        bool(task.get("cache", True)),
        task.get("store"),
        bool(task.get("trace")),
        "fleet_worker",
        pid=os.getpid(),
    )
    response = {"records": records, "store_delta": delta}
    if spans is not None:
        response["spans"] = spans
    return response


def run(
    infile: TextIO,
    outfile: TextIO,
    chaos: Optional[Dict[str, Any]] = None,
    kill=_self_destruct,
) -> None:
    """The worker loop: read task lines, write response lines.

    ``chaos`` and ``kill`` are injectable so unit tests can drive the
    loop in-process (StringIO streams, recorded kills) while the real
    entry point wires stdio and ``SIGKILL``.
    """
    chaos = parse_chaos(os.environ.get("REPRO_WORKER_CHAOS")) if chaos is None else chaos
    evaluated = 0
    for line in infile:
        if not line.strip():
            continue
        task = None
        try:
            task = json.loads(line)
            verb = task.get("verb", "evaluate")
            task_id = task.get("id")
            if verb == "ping":
                response = {"id": task_id, "ok": True, "pong": True, "pid": os.getpid()}
            elif verb == "exit":
                outfile.write(json.dumps({"id": task_id, "ok": True, "bye": True}) + "\n")
                outfile.flush()
                return
            elif verb == "evaluate":
                if chaos.get("kill_after") is not None and evaluated >= chaos["kill_after"]:
                    if chaos["mode"] == "post":
                        # Evaluate first: the store write lands, the
                        # reply never does -- the requeued replay then
                        # dedups against the store.
                        _evaluate(task)
                    kill()
                    # A real kill never reaches here; the injectable
                    # test kill returns, so answer with a marker the
                    # supervisor would never see in production.
                    response = {"id": task_id, "ok": False, "error": "chaos: killed"}
                elif (
                    chaos.get("stall_after") is not None
                    and evaluated >= chaos["stall_after"]
                ):
                    time.sleep(chaos["stall"])
                    response = {"id": task_id, "ok": True, **_evaluate(task)}
                else:
                    response = {"id": task_id, "ok": True, **_evaluate(task)}
                evaluated += 1
            else:
                response = {"id": task_id, "ok": False, "error": f"unknown verb {verb!r}"}
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            response = {
                "id": task.get("id") if isinstance(task, dict) else None,
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        outfile.write(json.dumps(response) + "\n")
        outfile.flush()


def main() -> None:
    run(sys.stdin, sys.stdout)


if __name__ == "__main__":
    main()
