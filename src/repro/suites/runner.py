"""The suite driver: every suite x every system preset, cached end-to-end.

A :class:`SuitePoint` (suite x system x scale x seed x partitions) is a
:class:`~repro.experiments.common.Point` of kind ``suite``: it gives its
key payload (the suite's full ``cache_params``, so an edited generator
or plan can never replay a stale run) and its execute function (a real
:meth:`~repro.systems.machine.Machine.run_pipeline`), and
:func:`run_suite_point` evaluates it through the one path every point
kind takes, :func:`repro.experiments.common.evaluate`: the shared
``result`` memory tier, then the persistent content-addressed store
(``REPRO_STORE`` / ``--store``; ``staged-run/v1`` documents of
:mod:`repro.service.codec`), then execution with write-back.  Fresh
processes replay warm suite grids with zero pipeline executions.

Both tiers hold a :class:`~repro.pipeline.perf.StagedRun` (exported here
as :data:`SuiteOutcome`): the per-stage results without their relations,
plus a SHA-256 digest of the final relation's bytes, so replays keep
satisfying the functional goldens.  Because generation is deterministic,
the digest is identical across presets: every system must compute the
*same answer*, only the costs differ.

:class:`SuiteRun` sweeps a grid of points into one tidy
:class:`~repro.api.results.ResultSet` (suite-major order), optionally
across a process pool through the same loop :class:`repro.api.Sweep`
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.api.results import ResultSet
from repro.api.scenario import records_from_result
from repro.api.sweep import run_points
from repro.experiments import common
from repro.pipeline.perf import StagedRun, relation_digest
from repro.suites.registry import SUITES, get_suite

#: Default cost-model scale for suite grids: 5 suites x 6 presets is a
#: 30-point grid, so suites default lighter than the single-operator
#: figures' 2000x while staying far beyond every cache level.
DEFAULT_SCALE = 100.0

#: One evaluated suite run (the suite's name is the run's ``plan``).
SuiteOutcome = StagedRun


@dataclass(frozen=True)
class SuitePoint(common.Point):
    """One (suite, system, scale, seed, partitions) evaluation point."""

    kind = "suite"

    suite: str
    system: str
    model_scale: float = DEFAULT_SCALE
    seed: int = 17
    num_partitions: int = common.NUM_PARTITIONS

    def __post_init__(self) -> None:
        get_suite(self.suite)  # validates the name
        if not isinstance(self.system, str):
            raise TypeError(
                "suite points evaluate named system presets; got "
                f"{type(self.system).__name__}"
            )
        common.machine_for(self.system)  # validates the preset
        if self.model_scale <= 0:
            raise ValueError("model_scale must be positive")
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")

    def records(self) -> List[Dict[str, Any]]:
        """Tidy per-phase records, one block per pipeline stage."""
        suite = get_suite(self.suite)
        outcome = run_suite_point(self)
        machine = common.machine_for(self.system)
        base = {
            "suite": self.suite,
            "family": suite.family_name,
            "system": self.system,
            "scale": float(self.model_scale),
            "seed": int(self.seed),
            "num_partitions": int(self.num_partitions),
        }
        records: List[Dict[str, Any]] = []
        for stage, _operator, _table, result in outcome.stages:
            records.extend(
                records_from_result(machine, result, dict(base, stage=stage))
            )
        return records

    def run(self) -> ResultSet:
        return ResultSet(self.records())

    def key_payload(self) -> Dict[str, Any]:
        """Everything this run depends on (see :attr:`digest`)."""
        return {
            "kind": "suite-result",
            "suite": get_suite(self.suite).cache_params(),
            "system": common.system_payload(self.system),
            "scale": float(self.model_scale),
            "seed": int(self.seed),
            "num_partitions": int(self.num_partitions),
        }

    def execute(self) -> SuiteOutcome:
        """Really run the suite's pipeline (the evaluation path's miss)."""
        suite = get_suite(self.suite)
        plan = suite.build_plan(seed=self.seed, num_partitions=self.num_partitions)
        perf = common.machine_for(self.system).run_pipeline(
            plan, scale_factor=self.model_scale
        )
        return StagedRun.of(perf, family=suite.family_name)


def run_suite_point(point: SuitePoint) -> SuiteOutcome:
    """Evaluate one point through memory tier -> store -> pipeline."""
    return common.evaluate(point)


# ---------------------------------------------------------------------------
# Grid driver.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteRun:
    """A grid of suite points: suites x system presets, one batch.

    Mirrors :class:`repro.api.Sweep`: ``run(jobs=N)`` fans points over a
    process pool, records return in grid (suite-major) order either
    way, so equal grids export byte-identical results regardless of
    worker count.
    """

    suites: Tuple[str, ...] = tuple(SUITES)
    systems: Tuple[str, ...] = common.ALL_SYSTEMS
    model_scale: float = DEFAULT_SCALE
    seed: int = 17
    num_partitions: int = common.NUM_PARTITIONS

    def __post_init__(self) -> None:
        for name in ("suites", "systems"):
            value = getattr(self, name)
            if isinstance(value, str):
                value = (value,)
            if not value:
                raise ValueError(f"suite-run axis {name!r} must not be empty")
            object.__setattr__(self, name, tuple(value))

    @property
    def size(self) -> int:
        return len(self.suites) * len(self.systems)

    def points(self) -> List[SuitePoint]:
        return [
            SuitePoint(
                suite=suite,
                system=system,
                model_scale=self.model_scale,
                seed=self.seed,
                num_partitions=self.num_partitions,
            )
            for suite in self.suites
            for system in self.systems
        ]

    def outcomes(self) -> List[SuiteOutcome]:
        """Every point's :class:`SuiteOutcome`, grid order (sequential;
        points hit the shared cache, so this is cheap after ``run``)."""
        return [run_suite_point(point) for point in self.points()]

    def run(self, jobs: int = 1) -> ResultSet:
        """Evaluate the whole grid into one tidy :class:`ResultSet`."""
        return run_points(self.points(), jobs, "suite_run", "suites")


def functional_digests(
    suites: Tuple[str, ...] = tuple(SUITES),
    seed: int = 17,
    num_partitions: int = common.NUM_PARTITIONS,
) -> Dict[str, str]:
    """Per-suite digest of the final answer relation (system-agnostic).

    Executes each suite's plan functionally once (CPU preset, unit
    scale) -- every preset computes the same answer bytes, which the
    cross-preset digest test asserts directly.
    """
    digests = {}
    for name in suites:
        plan = get_suite(name).build_plan(seed=seed, num_partitions=num_partitions)
        machine = common.machine_for("cpu")
        run = plan.execute(machine.variant(num_partitions))
        digests[name] = relation_digest(run.output)
    return digests
