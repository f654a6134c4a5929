"""JSON codec for evaluated points.

Turns a :class:`~repro.perf.result.SystemResult` (an operator point,
schema ``system-result/v1``) or a :class:`~repro.pipeline.perf.StagedRun`
(a query or suite point, schema ``staged-run/v1``) into a plain-JSON
document and back, so the content-addressed store can persist what the
in-memory result tier holds.  Everything the performance/energy side
carries is scalar dataclasses (``PhaseCost``, ``CoreEstimate``,
``EnergyEvents``, ``EnergyBreakdown``), so the round-trip is exact:
floats survive byte-for-byte through JSON's shortest-repr encoding,
which is what makes warm-store exports byte-identical to cold runs.

The one deliberate loss is the **functional output** (the materialized
``Relation`` / join result): it exists to cross-check the simulation,
is megabytes of tuples at functional size, and nothing downstream of
the shared result cache reads it.  Restored results carry
``output=None`` and a ``"restored"`` marker in ``metadata`` so a
consumer that *does* want the functional payload can tell it must
recompute.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Mapping

from repro.energy.model import EnergyBreakdown, EnergyEvents
from repro.operators.base import PhaseCost
from repro.cores.base import CoreEstimate
from repro.perf.model import PhasePerf
from repro.perf.result import SystemResult
from repro.pipeline.perf import StagedRun

#: Document schema tag; mismatches are treated as store misses upstream.
RESULT_SCHEMA = "system-result/v1"


def _plain(value: Any) -> Any:
    """Coerce scalars to JSON-native types (numpy scalars -> Python)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    raise TypeError(f"cannot store value of type {type(value).__name__}")


def result_to_document(result: SystemResult) -> Dict[str, Any]:
    """Serialize one evaluated result (minus its functional output)."""
    return {
        "schema": RESULT_SCHEMA,
        "system": result.system,
        "operator": result.operator,
        "variant": result.variant,
        "metadata": _plain(result.metadata),
        "energy": asdict(result.energy),
        "phase_perfs": [
            {
                "phase": asdict(perf.phase),
                "time_ns": perf.time_ns,
                "core": asdict(perf.core),
                "events": asdict(perf.events),
                "core_utilization": perf.core_utilization,
                "limits": _plain(perf.limits),
            }
            for perf in result.phase_perfs
        ],
    }


def result_from_document(document: Mapping[str, Any]) -> SystemResult:
    """Rebuild a :class:`SystemResult` from its stored document.

    Raises ``ValueError`` on a schema mismatch (callers treat that as a
    store miss) and lets the dataclasses' own validation reject
    documents whose fields drifted from the current code.
    """
    if document.get("schema") != RESULT_SCHEMA:
        raise ValueError(
            f"unsupported stored-result schema {document.get('schema')!r}"
        )
    phase_perfs = [
        PhasePerf(
            phase=PhaseCost(**perf["phase"]),
            time_ns=perf["time_ns"],
            core=CoreEstimate(**perf["core"]),
            events=EnergyEvents(**perf["events"]),
            core_utilization=perf["core_utilization"],
            limits=dict(perf["limits"]),
        )
        for perf in document["phase_perfs"]
    ]
    metadata = dict(document["metadata"])
    metadata["restored"] = True
    return SystemResult(
        system=document["system"],
        operator=document["operator"],
        variant=document["variant"],
        phase_perfs=phase_perfs,
        energy=EnergyBreakdown(**document["energy"]),
        output=None,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Staged runs: one multi-stage pipeline evaluation (a query or a suite).
# ---------------------------------------------------------------------------

#: Document schema tag for persisted staged runs (query and suite points).
STAGED_SCHEMA = "staged-run/v1"


def staged_run_to_document(run: StagedRun) -> Dict[str, Any]:
    """Serialize one evaluated pipeline (a list of per-stage results).

    Each stage's :class:`~repro.perf.result.SystemResult` round-trips
    through :func:`result_to_document` exactly (floats byte-for-byte);
    the functional relations are already gone, with the final one
    summarized by ``output_digest`` so golden checks survive a store
    replay.
    """
    return {
        "schema": STAGED_SCHEMA,
        "plan": str(run.plan),
        "system": str(run.system),
        "family": str(run.family),
        "output_digest": str(run.output_digest),
        "stages": [
            {
                "stage": str(stage),
                "operator": str(operator),
                "output_table": str(output_table),
                "result": result_to_document(result),
            }
            for stage, operator, output_table, result in run.stages
        ],
    }


def staged_run_from_document(document: Mapping[str, Any]) -> StagedRun:
    """Rebuild a :class:`~repro.pipeline.perf.StagedRun` from its document.

    Stage results carry the usual ``restored`` marker and
    ``output=None``.  Raises ``ValueError`` on a schema mismatch so the
    evaluation path treats drifted documents as store misses.
    """
    if document.get("schema") != STAGED_SCHEMA:
        raise ValueError(
            f"unsupported stored staged-run schema {document.get('schema')!r}"
        )
    return StagedRun(
        plan=document["plan"],
        system=document["system"],
        family=document["family"],
        output_digest=document["output_digest"],
        stages=[
            (
                entry["stage"],
                entry["operator"],
                entry["output_table"],
                result_from_document(entry["result"]),
            )
            for entry in document["stages"]
        ],
    )


def point_to_document(value: Any) -> Dict[str, Any]:
    """The store document of any evaluated point: a result or a staged run."""
    if isinstance(value, StagedRun):
        return staged_run_to_document(value)
    return result_to_document(value)


def point_from_document(document: Mapping[str, Any]) -> Any:
    """Inverse of :func:`point_to_document`, dispatching on the schema."""
    if document.get("schema") == STAGED_SCHEMA:
        return staged_run_from_document(document)
    return result_from_document(document)
