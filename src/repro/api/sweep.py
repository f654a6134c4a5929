"""Sweeps: cartesian grids of scenarios, executed as one batch.

A :class:`Sweep` is the product of systems x workloads x scales x seeds
x partition counts.  ``run()`` evaluates every scenario -- sequentially
through the shared content-keyed caches, or across a process pool with
``jobs=N`` (each worker holds its own cache, mirroring
``run_all --jobs``) -- and concatenates the tidy records into one
:class:`~repro.api.results.ResultSet` in grid order, so equal sweeps
produce byte-identical exports regardless of worker count.

Sweeps serialize to/from JSON (``from_json`` / ``to_json``): systems may
be preset names or :class:`SystemSpec` dicts, which is what
``python -m repro.api --sweep SPEC.json`` and ``run_all --sweep`` load.

>>> from repro.api import Sweep
>>> sweep = Sweep(systems=("cpu", "mondrian"), workloads=("scan",),
...               scales=(50.0,), num_partitions=(8,))
>>> sweep.size
2
>>> [s.system_label for s in sweep.scenarios()]
['cpu', 'mondrian']
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Union

from repro.api.results import ResultSet
from repro.api.scenario import Scenario
from repro.api.spec import SystemSpec
from repro.experiments import common
from repro.telemetry import trace as _trace
from repro.telemetry import span as _span


def _spec_from_entry(entry: Union[str, SystemSpec, Mapping[str, Any]]):
    """A sweep's system entry: preset name, spec, or spec dict."""
    if isinstance(entry, Mapping):
        return SystemSpec.from_dict(entry)
    return entry  # str stays str (shares the preset-addressed caches)


@dataclass(frozen=True)
class Sweep:
    """A cartesian grid of :class:`Scenario` points."""

    systems: Tuple[Union[str, SystemSpec], ...] = ("cpu", "mondrian")
    workloads: Tuple[str, ...] = ("join",)
    scales: Tuple[float, ...] = (common.MODEL_SCALE,)
    seeds: Tuple[int, ...] = (17,)
    num_partitions: Tuple[int, ...] = (common.NUM_PARTITIONS,)

    def __post_init__(self) -> None:
        for name in ("systems", "workloads", "scales", "seeds", "num_partitions"):
            value = getattr(self, name)
            if isinstance(value, (str, SystemSpec)) or not isinstance(
                value, Sequence
            ):
                value = (value,)
            if not value:
                raise ValueError(f"sweep axis {name!r} must not be empty")
            object.__setattr__(self, name, tuple(value))
        object.__setattr__(
            self, "systems", tuple(_spec_from_entry(s) for s in self.systems)
        )

    @property
    def size(self) -> int:
        return (
            len(self.systems)
            * len(self.workloads)
            * len(self.scales)
            * len(self.seeds)
            * len(self.num_partitions)
        )

    def scenarios(self) -> List[Scenario]:
        """The grid in deterministic (system-major) order."""
        return [
            Scenario(
                system=system,
                operator=workload,
                model_scale=scale,
                seed=seed,
                num_partitions=parts,
            )
            for system in self.systems
            for workload in self.workloads
            for scale in self.scales
            for seed in self.seeds
            for parts in self.num_partitions
        ]

    def run(self, jobs: int = 1) -> ResultSet:
        """Evaluate the whole grid into one :class:`ResultSet`.

        ``jobs > 1`` fans scenarios over a process pool; records come
        back in grid order either way, so the export bytes are identical
        to a sequential run.
        """
        return run_points(self.scenarios(), jobs, "sweep", "api")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "systems": [
                s if isinstance(s, str) else s.to_dict() for s in self.systems
            ],
            "workloads": list(self.workloads),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "num_partitions": list(self.num_partitions),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sweep":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep field(s) {unknown}; valid: {sorted(known)}"
            )
        # Values pass through raw: __post_init__ wraps scalars (a bare
        # "join" or 500) into one-element axes instead of, say, a string
        # being exploded into characters by an eager tuple().
        return cls(**dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Sweep":
        data = json.loads(text)
        if not isinstance(data, Mapping):
            raise ValueError("expected a JSON object describing the sweep grid")
        return cls.from_dict(data)


def run_points(points: Sequence[Any], jobs: int, span: str, category: str) -> ResultSet:
    """Evaluate points into one :class:`ResultSet`, records in point order.

    ``jobs > 1`` fans the points over a process pool (:func:`_pool_worker`);
    each worker's store traffic is folded into the parent's handle and,
    when the parent traces, its spans are re-parented under this call's
    ``span``.  :meth:`Sweep.run` and :meth:`repro.suites.SuiteRun.run`
    both run through here.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    with _span(span, category=category, points=len(points), jobs=jobs):
        if jobs == 1 or len(points) <= 1:
            records: List[Dict[str, Any]] = []
            for point in points:
                records.extend(point.records())
            return ResultSet(records)
        tracer = _trace.active_tracer()
        payloads = [
            (p, common.cache_enabled(), common.store_path(), tracer is not None)
            for p in points
        ]
        store = common.active_store()
        records = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for chunk, store_delta, spans in pool.map(_pool_worker, payloads):
                records.extend(chunk)
                if store is not None and store_delta:
                    store.merge_stats(store_delta)
                if tracer is not None and spans:
                    tracer.adopt(spans, parent_id=tracer.current_span_id())
        return ResultSet(records)


def _pool_worker(payload):
    """Process-pool entry point: (point, use_cache, store, trace) ->
    :func:`repro.experiments.common.worker_records`."""
    point, use_cache, store, trace = payload
    return common.worker_records(point, use_cache, store, trace, kind=point.kind)
