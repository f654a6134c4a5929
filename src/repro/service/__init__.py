"""The evaluation service: durable results, batching, serving.

This package turns the in-process experiment runtime into a shareable
service layer -- the piece that lets many CLI invocations, CI runs and
concurrent clients split one simulation bill:

- :mod:`repro.service.store` -- a **content-addressed persistent result
  store**: evaluated results as JSON documents keyed by a digest of
  their full content key (system spec, workload, seed, scale, code
  version), with atomic writes, LRU size-bounding and per-handle stats.
  Wired under ``repro.experiments.common.run_cached_result`` as the
  second cache tier (``REPRO_STORE=dir`` / ``--store``).
- :mod:`repro.service.codec` -- exact JSON round-trip for
  ``SystemResult`` documents (minus the functional output payload).
- :mod:`repro.service.scheduler` -- :class:`BatchScheduler`: batch
  submission with deduplication, store consultation, and the misses
  evaluated in-process or on a supervised worker fleet.
- :mod:`repro.service.daemon` / :mod:`repro.service.client` -- an
  asyncio JSON-lines TCP daemon (``ping`` / ``evaluate`` / ``sweep`` /
  ``stats`` / ``shutdown``) and its blocking client, returning the same
  tidy :class:`~repro.api.results.ResultSet` records as in-process
  ``Sweep.run``.  The daemon's line server, background launcher and
  handle also serve the fleet router, and the client's retry matrix
  also drives the async client.
- :mod:`repro.service.resilience` -- the crash-safety layer: write-ahead
  store journaling with startup recovery, a supervised worker fleet
  with heartbeats / backoff restarts / circuit breaking, client retry
  with degradation to local evaluation, and the seeded fault hooks the
  chaos harness (``make chaos-test``) drives.

Command line: ``python -m repro.service serve|submit|stats|ping|recover``
(see ``docs/USAGE.md``).
"""

from repro.service.client import (
    IDEMPOTENT_VERBS,
    ServiceClient,
    ServiceDegradedWarning,
    ServiceError,
)
from repro.service.daemon import (
    DEFAULT_PORT,
    DeadlineExceeded,
    EvaluationDaemon,
    serve,
    serve_background,
)
from repro.service.resilience import (
    CircuitBreaker,
    IntentJournal,
    RetryPolicy,
    WorkerFleet,
    WorkerTaskError,
)
from repro.service.scheduler import BatchScheduler
from repro.service.store import CODE_VERSION, ResultStore, digest_payload

__all__ = [
    "BatchScheduler",
    "CODE_VERSION",
    "CircuitBreaker",
    "DEFAULT_PORT",
    "DeadlineExceeded",
    "EvaluationDaemon",
    "IDEMPOTENT_VERBS",
    "IntentJournal",
    "ResultStore",
    "RetryPolicy",
    "ServiceClient",
    "ServiceDegradedWarning",
    "ServiceError",
    "WorkerFleet",
    "WorkerTaskError",
    "digest_payload",
    "serve",
    "serve_background",
]
