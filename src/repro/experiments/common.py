"""Shared experiment plumbing: default workloads, scale, result caching.

Two dataset sizes are in play everywhere:

- **Functional size** (``FUNCTIONAL_N``): the tuples Python actually
  moves through partitioning and probing -- kept in the tens of
  thousands so the whole suite runs in seconds and outputs stay
  exactly verifiable.
- **Modeled size** = functional size x ``MODEL_SCALE``: the dataset the
  ``PhaseCost`` records *describe*.  Every operator runner takes the
  factor as ``model_scale`` (machines pass it as ``scale_factor``) and
  emits costs for the larger dataset: per-tuple-linear quantities scale
  exactly, and size-dependent structure -- mergesort pass counts,
  hash-table region sizes -- is recomputed at modeled size, not scaled.

The default ``MODEL_SCALE`` of 2000x turns the ~20k-tuple functional
runs into a ~40M-tuple (~0.6 GB) modeled dataset: a mid-size slice of
the paper's 32 GB machine (512 MB vaults filled with 16 B tuples) that
keeps per-partition working sets far beyond every cache level, as in the
paper.  ``run_all --fast`` and the test suite use 500x, which preserves
all qualitative orderings.

**Shared experiment runtime.**  Workloads and evaluated points are
memoized in module-level, *content-keyed* caches: the ``workload`` tier
keys a relation by operator, functional tuple count, seed and partition
count; the ``result`` tier keys every evaluated point -- operator,
canonical query or suite -- by its digest (:class:`Point`), so
fig6/fig7/fig8/fig9/table5, which all evaluate overlapping (system,
operator) pairs, compute each pair once per process instead of once per
figure.  ``run_all --no-cache`` (or :func:`set_cache_enabled`) restores
the recompute-everything behaviour, and ``run_all --jobs N`` runs
experiment sections in a process pool (each worker holds its own cache).

Systems are addressed either by preset name *or* by any
:class:`~repro.api.spec.SystemSpec`-like object exposing ``cache_key``
and ``to_config()`` -- which is how the scenario API (:mod:`repro.api`)
evaluates hardware points the paper never measured through the same
memoization.

Below the memory tiers sits an optional **persistent, content-addressed
result store** (``REPRO_STORE=dir`` or the CLIs' ``--store`` flag;
:mod:`repro.service.store`).  :func:`evaluate` is the one path every
point takes -- memory tier, then store, then execution with write-back
-- so fresh processes (repeated CLI invocations, CI runs, the serving
daemon's clients) replay warm points of every kind with zero
executions.  :func:`cache_stats` reports every tier's
hits/misses/evictions.

:func:`format_table` forwards to its new home in
:mod:`repro.api.results`; grids of results are
:class:`repro.api.Scenario` / :class:`repro.api.Sweep` territory.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.analytics.workload import (
    make_groupby_workload,
    make_join_workload,
    make_scan_workload,
    make_sort_workload,
)
from repro.config.system import EVALUATED_PRESETS
from repro.perf.result import SystemResult
from repro.systems import build_system
from repro.telemetry import registry as _registry
from repro.telemetry import trace as _trace

#: Functional dataset sizes (tuples actually moved in Python).
FUNCTIONAL_N = {
    "scan": 20_000,
    "sort": 16_000,
    "groupby": 16_000,
    "join": (4_000, 16_000),
}

#: Cost-model scale: functional tuples x MODEL_SCALE = modeled tuples.
#: 2000x turns the 20k-tuple functional runs into a ~40M-tuple modeled
#: dataset (~0.6 GB of 16 B tuples), a mid-size slice of the paper's
#: 32 GB machine that keeps per-partition working sets far beyond every
#: cache level, as in the paper.
MODEL_SCALE = 2000.0

#: Memory partitions = vaults in the paper's machine.
NUM_PARTITIONS = 64

#: All evaluated configurations, evaluation order (one shared constant:
#: ``repro.config.system.EVALUATED_PRESETS``).
ALL_SYSTEMS = EVALUATED_PRESETS

OPERATORS = ("scan", "sort", "groupby", "join")


# ---------------------------------------------------------------------------
# Cache tiers: in-process memory tiers + an optional persistent store.
# ---------------------------------------------------------------------------

#: Sentinel distinguishing "cached None" from "not cached".
_MISS = object()


class CacheTier:
    """One named get/put cache tier with hit/miss/eviction counters.

    The memory tiers below wrap plain dicts (unbounded, so their
    eviction count stays 0); the persistent disk tier
    (:class:`repro.service.store.ResultStore`) exposes the same
    ``stats()`` shape, which is what lets :func:`cache_stats` report
    every tier uniformly.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._data: Dict[Tuple, Any] = {}
        self._stats = {"hits": 0, "misses": 0, "evictions": 0}

    def get(self, key: Tuple) -> Any:
        """The cached value, or the module sentinel ``_MISS``."""
        value = self._data.get(key, _MISS)
        self._stats["hits" if value is not _MISS else "misses"] += 1
        return value

    def put(self, key: Tuple, value: Any) -> Any:
        self._data[key] = value
        return value

    def get_or_build(self, key: Tuple, build):
        value = self.get(key)
        if value is _MISS:
            value = self.put(key, build())
        return value

    def clear(self) -> None:
        self._data.clear()
        self._stats.update(hits=0, misses=0, evictions=0)

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return dict(self._stats, entries=len(self._data))


_WORKLOADS = CacheTier("workload")
_RESULTS = CacheTier("result")
_CACHE_ENABLED = True

#: (store root, point digest) pairs already confirmed on disk, so the
#: memory-hit write-through in :func:`evaluate` costs one stat per point
#: per process instead of one per hit.
_PERSISTED: set = set()


def set_cache_enabled(enabled: bool) -> bool:
    """Toggle the shared in-memory caches; returns the previous setting.

    Only the memory tiers are affected: the persistent store (see
    :func:`configure_store`) is an independent tier, so ``--no-cache``
    still measures cold in-process runs while a warm store keeps
    serving across processes.
    """
    global _CACHE_ENABLED
    previous = _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)
    return previous


def cache_enabled() -> bool:
    return _CACHE_ENABLED


def clear_caches() -> None:
    """Drop all memoized workloads, results and machine singletons.

    The persistent store is *not* cleared (it is durable by design);
    only the handle's in-process state survives via
    :func:`configure_store`.
    """
    from repro.systems.machine import clear_machine_cache

    _WORKLOADS.clear()
    _RESULTS.clear()
    _PERSISTED.clear()
    _spec_machine.cache_clear()
    clear_machine_cache()


#: Times this process fell back from the evaluation daemon to local
#: in-process evaluation (the client's ``degrade="local"`` path).
_DEGRADED = 0


def note_degraded() -> int:
    """Count one degradation to local evaluation; returns the total."""
    global _DEGRADED
    _DEGRADED += 1
    return _DEGRADED


def degraded_count() -> int:
    """How many service calls this process served locally after failure."""
    return _DEGRADED


def cache_stats() -> Dict[str, Any]:
    """Per-tier hit/miss/eviction counters, plus legacy aggregates.

    The top-level ``hits``/``misses`` keys sum the in-memory tiers
    (the pre-service shape); ``tiers`` breaks them down per tier and
    adds the persistent store when one is active.  ``degraded`` counts
    service calls this process answered locally after daemon failure.
    """
    tiers: Dict[str, Any] = {
        _WORKLOADS.name: _WORKLOADS.stats(),
        _RESULTS.name: _RESULTS.stats(),
    }
    store = active_store()
    if store is not None:
        tiers["store"] = store.stats()
    return {
        "hits": _WORKLOADS.stats()["hits"] + _RESULTS.stats()["hits"],
        "misses": _WORKLOADS.stats()["misses"] + _RESULTS.stats()["misses"],
        "degraded": _DEGRADED,
        "tiers": tiers,
    }


# ---------------------------------------------------------------------------
# The persistent store tier (REPRO_STORE / --store).
# ---------------------------------------------------------------------------

#: Environment variables configuring the default persistent tier.
STORE_ENV = "REPRO_STORE"
STORE_MAX_BYTES_ENV = "REPRO_STORE_MAX_BYTES"

_STORE: Optional[Any] = None  # ResultStore handle (lazy import)
_STORE_PATH: Optional[str] = None
_STORE_EXPLICIT = False


def configure_store(path: Optional[Any], max_bytes: Optional[int] = None):
    """Select the persistent result-store for this process.

    ``path`` is a store directory, an already-open
    :class:`~repro.service.store.ResultStore` handle (its counters then
    stay continuous across reconfigurations -- how the scheduler scopes
    its store to one batch at a time), or ``None`` to revert to the
    environment default (``REPRO_STORE``).  Returns the active handle
    (or ``None``).  The CLIs' ``--store`` flag lands here.
    """
    global _STORE, _STORE_PATH, _STORE_EXPLICIT
    if path is None:
        _STORE, _STORE_PATH, _STORE_EXPLICIT = None, None, False
        return active_store()
    if isinstance(path, (str, os.PathLike)):
        # Fleet-aware: a directory carrying a fleet.json manifest opens
        # as a sharded, replicated store (see repro.service.fleet).
        from repro.service.store import open_store

        _STORE = open_store(path, max_bytes=max_bytes or _env_max_bytes())
    else:
        _STORE = path  # an already-open store handle (any store protocol)
    _STORE_PATH = str(_STORE.root)
    _STORE_EXPLICIT = True
    return _STORE


def store_selection() -> Tuple:
    """Opaque snapshot of the store selection, for save/restore.

    Lets a scoped user (the batch scheduler, tests) install its own
    store for a window and put the process back exactly as it was:
    ``previous = store_selection(); ...; restore_store_selection(previous)``.
    """
    return (_STORE_EXPLICIT, _STORE, _STORE_PATH)


def restore_store_selection(selection: Tuple) -> None:
    """Undo a :func:`configure_store` using a prior snapshot."""
    global _STORE, _STORE_PATH, _STORE_EXPLICIT
    _STORE_EXPLICIT, _STORE, _STORE_PATH = selection


def _env_max_bytes() -> Optional[int]:
    import os

    raw = os.environ.get(STORE_MAX_BYTES_ENV)
    return int(raw) if raw else None


def active_store():
    """The persistent tier in effect: explicit ``--store`` beats env.

    Reads ``REPRO_STORE`` on every call (not at import), so a caller or
    test that sets the variable mid-process still gets the tier; the
    handle is cached per path to keep its stats continuous.
    """
    global _STORE, _STORE_PATH
    if _STORE_EXPLICIT:
        return _STORE
    import os

    env = os.environ.get(STORE_ENV)
    if not env:
        return None
    if _STORE is None or _STORE_PATH != env:
        from repro.service.store import open_store

        _STORE = open_store(env, max_bytes=_env_max_bytes())
        _STORE_PATH = env
    return _STORE


def store_path() -> Optional[str]:
    """The active store's directory (for worker-process propagation)."""
    store = active_store()
    return str(store.root) if store is not None else None


def store_stats() -> Optional[Dict[str, int]]:
    """The active store's counters, or ``None`` without a store."""
    store = active_store()
    return store.stats() if store is not None else None


def system_payload(system: Any) -> Dict[str, Any]:
    """A system's part of a key payload.

    Presets normalize to ``{"preset": name}`` (a no-override spec digests
    identically to its bare preset name); other specs key by their
    ``to_dict`` form.
    """
    if isinstance(system, str):
        return {"preset": system}
    if getattr(system, "is_preset", False):
        return {"preset": system.base}
    return {"spec": system.to_dict()}


def result_store_payload(
    system: Any,
    operator: str,
    scale: float,
    seed: int,
    num_partitions: int,
) -> Dict[str, Any]:
    """The canonical key payload naming one (system, operator) result.

    The functional size rides along because the stored numbers describe
    those exact bytes.  The digest (:attr:`Point.digest`) additionally
    folds in :data:`repro.service.store.CODE_VERSION`.
    """
    functional_n = FUNCTIONAL_N.get(operator)
    return {
        "kind": "operator-result",
        "system": system_payload(system),
        "operator": operator,
        "functional_n": list(functional_n)
        if isinstance(functional_n, tuple)
        else functional_n,
        "scale": float(scale),
        "seed": int(seed),
        "num_partitions": int(num_partitions),
    }


def _build_workload(operator: str, seed: int, num_partitions: int):
    if operator == "scan":
        return make_scan_workload(FUNCTIONAL_N["scan"], num_partitions, seed)
    if operator == "sort":
        return make_sort_workload(FUNCTIONAL_N["sort"], num_partitions, seed)
    if operator == "groupby":
        return make_groupby_workload(FUNCTIONAL_N["groupby"], num_partitions, seed=seed)
    if operator == "join":
        n_r, n_s = FUNCTIONAL_N["join"]
        return make_join_workload(n_r, n_s, num_partitions, seed)
    raise ValueError(f"unknown operator {operator!r}")


def make_workload(operator: str, seed: int = 17, num_partitions: int = NUM_PARTITIONS):
    """Default workload for one operator, memoized by content key.

    The key covers everything the generated bytes depend on -- operator,
    functional size, seed, partition count -- so every experiment module
    asking for the same relation shares one materialization.  Workloads
    are frozen dataclasses and operators never mutate their inputs
    (property-tested), which is what makes the sharing sound.
    """
    if operator not in FUNCTIONAL_N:
        raise ValueError(f"unknown operator {operator!r}")
    if not _CACHE_ENABLED:
        return _build_workload(operator, seed, num_partitions)
    key = ("workload", operator, FUNCTIONAL_N[operator], seed, num_partitions)
    return _WORKLOADS.get_or_build(
        key, lambda: _build_workload(operator, seed, num_partitions)
    )


@functools.lru_cache(maxsize=None)
def _spec_machine(spec) -> Any:
    """Machine singleton per custom (non-preset) system spec."""
    from repro.systems.machine import Machine

    return Machine(spec.to_config())


def machine_for(system) -> Any:
    """The machine singleton for a preset name or a SystemSpec.

    Preset names (and specs that add nothing to their base preset) share
    the per-preset singletons of :func:`repro.systems.build_system`;
    custom specs get their own memoized machine.  Specs are duck-typed:
    anything hashable with ``to_config()`` (plus optionally
    ``is_preset``/``base``) works.
    """
    if isinstance(system, str):
        return build_system(system)
    if getattr(system, "is_preset", False):
        return build_system(system.base)
    return _spec_machine(system)


class Point:
    """A point of any kind on the one evaluation path (:func:`evaluate`).

    Subclasses are frozen dataclasses (:class:`repro.api.Scenario` for
    ``operator`` and ``query`` points, :class:`repro.suites.SuitePoint`
    for ``suite`` points) that give three things: ``kind``,
    ``key_payload()`` -- everything the evaluated value depends on --
    and ``execute()``.  The digest is built here once per point object
    and serves as the memory-tier key, the store address, the fleet's
    routing key and the worker fleet's task id.
    """

    kind: str

    def key_payload(self) -> Dict[str, Any]:
        raise NotImplementedError

    def execute(self) -> Any:
        raise NotImplementedError

    @functools.cached_property
    def digest(self) -> str:
        """SHA-256 of the key payload, salted with ``CODE_VERSION``."""
        from repro.service.store import digest_payload

        return digest_payload(self.key_payload())


def evaluate(point: Point) -> Any:
    """Evaluate one point: memory tier -> persistent store -> execute.

    An operator point evaluates to a
    :class:`~repro.perf.result.SystemResult`; query and suite points to a
    :class:`~repro.pipeline.perf.StagedRun` (stage results without their
    functional relations, plus the answer digest).  A store miss executes
    and writes the value back, so a fresh process replays warm points
    with zero executions; a memory hit writes through to a store
    configured after the value was computed.  Store-restored values carry
    ``output=None`` (see :mod:`repro.service.codec`).  Memory hits, store
    hits and executions are counted per kind in the telemetry registry
    (``points.<kind>.memory_hits`` / ``store_hits`` / ``executed``).
    """
    tracer = _trace.active_tracer()
    if tracer is None:
        return _evaluate(point)
    # The span names the point by its fields (a spec by its label).
    attrs = {}
    for f in dataclasses.fields(point):
        value = getattr(point, f.name)
        attrs[f.name] = getattr(value, "label", value)
    with tracer.span("task", category="service", kind=point.kind, **attrs):
        return _evaluate(point)


def _evaluate(point: Point) -> Any:
    store = active_store()
    digest = point.digest
    if _CACHE_ENABLED:
        value = _RESULTS.get(digest)
        if value is not _MISS:
            _registry().counter(f"points.{point.kind}.memory_hits").inc()
            marker = (str(store.root), digest) if store is not None else None
            if marker is not None and marker not in _PERSISTED:
                if not store.contains(digest):
                    from repro.service.codec import point_to_document

                    store.put(digest, point_to_document(value))
                _PERSISTED.add(marker)
            return value

    value, outcome = _MISS, "store_hits"
    if store is not None:
        from repro.service.codec import point_from_document, point_to_document

        document = store.get(digest)
        try:
            value = _MISS if document is None else point_from_document(document)
        except (KeyError, TypeError, ValueError):
            pass  # schema drift or a hand-edited entry: a miss
    if value is _MISS:
        value, outcome = point.execute(), "executed"
        if store is not None:
            store.put(digest, point_to_document(value))
    if store is not None:
        _PERSISTED.add((str(store.root), digest))
    _registry().counter(f"points.{point.kind}.{outcome}").inc()
    if _CACHE_ENABLED:
        _RESULTS.put(digest, value)
    return value


def run_cached_result(
    system: Any,
    operator: str,
    scale: float,
    seed: int = 17,
    num_partitions: int = NUM_PARTITIONS,
) -> SystemResult:
    """Functionally run + cost one (system, operator) pair, memoized.

    ``system`` is a preset name or a :class:`~repro.api.spec.SystemSpec`;
    the pair evaluates as an operator :class:`~repro.api.Scenario`
    through :func:`evaluate`.  Results are immutable to their consumers
    (the figure modules only read them), so sharing one
    :class:`~repro.perf.result.SystemResult` across figures is safe.
    """
    # Deferred: repro.api imports this module.
    from repro.api.scenario import Scenario

    return Scenario(system, operator, scale, seed, num_partitions).result()


def worker_records(
    point: Any,
    use_cache: bool,
    store: Optional[str],
    trace: bool = False,
    span: str = "pool_worker",
    **attrs: Any,
) -> Tuple[List[Dict[str, Any]], Optional[Dict[str, int]], Optional[List[Dict[str, Any]]]]:
    """A worker's evaluation of one point: (records, store delta, spans).

    Installs the caller's cache switch and store selection (an env-var
    default would survive ``fork``, a ``--store`` flag set only in the
    parent would not), so store writes land in one shared directory.
    The store traffic the point caused comes back as a counter delta the
    parent folds into its own handle.  With ``trace``, the evaluation
    runs under a worker-local tracer inside a ``span`` root (``attrs``
    ride on it) and the finished spans come back as plain dicts for
    ``Tracer.adopt``.  Process-pool fan-out (:func:`repro.api.sweep
    .run_points`) and the fleet worker subprocess both run through here.
    """
    set_cache_enabled(use_cache)
    if store != store_path():
        configure_store(store)
    handle = active_store()
    before = handle.counters() if handle is not None else None
    spans = None
    if trace:
        with _trace.tracing() as tracer:
            with tracer.span(span, category="service", **attrs):
                records = point.records()
            spans = tracer.to_dicts()
    else:
        records = point.records()
    if handle is None:
        return records, None, spans
    after = handle.counters()
    return records, {k: after[k] - before[k] for k in before}, spans


def format_table(headers: List[str], rows: List[List[Any]]) -> str:
    """Fixed-width ASCII table for experiment output.

    Back-compat forwarder: the implementation now lives with the
    scenario API's result container (:mod:`repro.api.results`).  The
    import is deferred so ``repro.api`` (which imports this module) can
    finish initializing first.
    """
    from repro.api.results import format_table as _format_table

    return _format_table(headers, rows)
