"""Pipeline performance: per-stage time/energy aggregation + bottleneck.

``evaluate_pipeline`` costs a :class:`~repro.pipeline.plan.PipelineRun`
on one machine by feeding every stage through the machine's existing
``evaluate_run`` path (the same :class:`~repro.perf.model.PhaseEvaluator`
and :class:`~repro.energy.model.EnergyModel` standalone operators use),
so pipeline numbers are exactly the sum of their parts -- there is no
separate pipeline cost model to drift out of sync.

The result is a :class:`PipelinePerf`: per-stage
:class:`~repro.perf.result.SystemResult` records plus pipeline-level
totals, stage time/energy fractions and a bottleneck report naming the
stage and the resource (core, network, destination DRAM) that paces it.

A :class:`StagedRun` is the form a ``PipelinePerf`` is cached in: the
per-stage results without their functional relations, plus a digest of
the final answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.energy.model import EnergyBreakdown
from repro.perf.result import SystemResult
from repro.pipeline.plan import PipelineRun

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard cycle
    from repro.systems.machine import Machine


@dataclass
class StagePerf:
    """One pipeline stage costed on one machine."""

    stage: str
    operator: str
    output_table: str
    result: SystemResult

    @property
    def runtime_s(self) -> float:
        return self.result.runtime_s

    @property
    def energy_j(self) -> float:
        return self.result.energy.total_j

    @property
    def dominant_limit(self) -> str:
        """The resource pacing this stage: the limiter of its slowest
        phase (``core`` when the core model is the floor, ``network`` or
        ``dest_dram`` when a system-level cap is)."""
        slowest = max(self.result.phase_perfs, key=lambda p: p.time_ns)
        return max(slowest.limits, key=slowest.limits.get)


@dataclass
class PipelinePerf:
    """A whole query pipeline costed on one machine."""

    system: str
    plan: str
    stages: List[StagePerf]
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def runtime_s(self) -> float:
        return sum(s.runtime_s for s in self.stages)

    @property
    def energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for s in self.stages:
            total.accumulate(s.result.energy)
        return total

    @property
    def energy_j(self) -> float:
        return self.energy.total_j

    def stage(self, name: str) -> StagePerf:
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(
            f"no stage named {name!r}; stages: {[s.stage for s in self.stages]}"
        )

    def time_fractions(self) -> Dict[str, float]:
        """Share of pipeline runtime per stage."""
        total = self.runtime_s
        if total <= 0:
            return {s.stage: 0.0 for s in self.stages}
        return {s.stage: s.runtime_s / total for s in self.stages}

    def bottleneck(self) -> StagePerf:
        """The stage that dominates end-to-end runtime."""
        return max(self.stages, key=lambda s: s.runtime_s)

    def summary(self) -> Dict[str, float]:
        return {
            "runtime_s": self.runtime_s,
            "energy_j": self.energy_j,
            "stages": len(self.stages),
            "bottleneck": self.bottleneck().stage,
        }


def relation_digest(relation) -> str:
    """Content digest of a relation's exact tuple bytes."""
    return hashlib.sha256(relation.data.tobytes()).hexdigest()


@dataclass
class StagedRun:
    """One evaluated pipeline as the memory tier and the store hold it.

    ``stages`` are ``(stage, operator, output_table, SystemResult)``
    tuples whose results carry ``output=None``: the functional relations
    are dropped, and the final one survives as ``output_digest``.  Query
    and suite points both evaluate to this; ``plan`` names the canonical
    query or suite that ran, ``family`` a suite's workload family.
    """

    plan: str
    system: str
    stages: List[Tuple[str, str, str, SystemResult]]
    output_digest: str
    family: str = ""

    @classmethod
    def of(cls, perf: "PipelinePerf", family: str = "") -> "StagedRun":
        """Strip an executed pipeline down to its cached form."""
        return cls(
            plan=perf.plan,
            system=perf.system,
            stages=[
                (s.stage, s.operator, s.output_table,
                 dataclasses.replace(s.result, output=None))
                for s in perf.stages
            ],
            output_digest=relation_digest(perf.stages[-1].result.output),
            family=family,
        )

    @property
    def suite(self) -> str:
        """The suite a suite run evaluated (its plan is named after it)."""
        return self.plan

    @property
    def runtime_s(self) -> float:
        return sum(result.runtime_s for *_, result in self.stages)

    @property
    def energy_j(self) -> float:
        return sum(result.energy.total_j for *_, result in self.stages)


def evaluate_pipeline(machine: "Machine", run: PipelineRun) -> PipelinePerf:
    """Cost an executed pipeline on ``machine``, stage by stage."""
    stage_perfs = [
        StagePerf(
            stage=stage.name,
            operator=stage.operator,
            output_table=stage.output_table,
            result=machine.evaluate_run(stage.as_operator_run()),
        )
        for stage in run.stages
    ]
    return PipelinePerf(
        system=machine.name,
        plan=run.plan,
        stages=stage_perfs,
        metadata={"variant": run.variant, "model_scale": run.model_scale},
    )


def pipeline_speedup(baseline: PipelinePerf, candidate: PipelinePerf) -> float:
    """End-to-end runtime speedup of ``candidate`` over ``baseline``."""
    if candidate.runtime_s <= 0:
        raise ValueError("candidate runtime must be positive")
    return baseline.runtime_s / candidate.runtime_s


def pipeline_efficiency_improvement(
    baseline: PipelinePerf, candidate: PipelinePerf
) -> float:
    """Performance-per-watt improvement, figure 9's metric lifted to
    whole pipelines (perf/W reduces to 1/energy for identical work)."""
    if baseline.energy_j <= 0 or candidate.energy_j <= 0:
        raise ValueError("energies must be positive")
    return baseline.energy_j / candidate.energy_j
