"""Content-addressed persistent result store.

A :class:`ResultStore` maps a **digest** -- the SHA-256 of a canonical
JSON *key payload* -- to one JSON document on disk.  The key payload
spells out everything the stored bytes depend on (system spec, workload
kind/params/seed, model scale, plus the :data:`CODE_VERSION` salt), so
equal inputs hit the same entry from any process on the machine and a
cost-model change invalidates every old entry at once instead of
serving stale numbers.

Layout under the store root::

    <root>/
      index.json               # LRU bookkeeping: {digest: {size, tick}}
      objects/<dd>/<digest>.json   # one JSON document per entry

Layout under the store root (continued)::

      journal/<digest>.<pid>.json  # write-ahead intents (in-flight puts)
      quarantine/<digest>.json     # corrupt entries, preserved not served

Design points:

- **Atomic, durable writes.**  Every object and every index snapshot is
  written to a same-directory temporary file and ``os.replace``d into
  place, so a reader never observes a half-written entry and two
  concurrent writers of the same digest leave one intact winner (last
  writer wins; the content is identical by construction anyway).  With
  ``fsync`` enabled (the default), the temp file is fsynced *before*
  the rename and the directory after it, so a committed entry survives
  power loss; ``fsync=False`` (or ``REPRO_STORE_FSYNC=0``) is the fast
  path for tests and throwaway stores.
- **Journaled puts.**  Each object write is preceded by a write-ahead
  intent record (:class:`~repro.service.resilience.journal.IntentJournal`).
  Opening a store runs a **recovery scan**: interrupted puts are rolled
  forward (a complete temp file is renamed into place) or discarded
  (debris deleted); counts surface in :meth:`ResultStore.stats` as
  ``recovered_forward`` / ``recovered_discarded``.
- **Corruption tolerance.**  An entry that fails to parse (truncated,
  overwritten, hand-edited) is treated as a *miss* and **quarantined**
  -- moved to ``quarantine/``, never served, never silently destroyed
  (the bytes stay available for post-mortems); the ``quarantined``
  counter surfaces in ``stats``.  The index is advisory and is
  reconciled against the ``objects/`` tree whenever it disagrees, so
  deleting ``index.json`` loses nothing but recency ordering.
- **LRU size-bounding.**  With ``max_bytes`` set, least-recently-used
  entries are evicted after each put until the payload bytes fit.
  Recency is a monotonic logical tick bumped on every hit and put (not
  wall-clock time, so tests and replays are deterministic).
- **Stats.**  ``hits`` / ``misses`` / ``evictions`` / ``puts`` counters
  per store handle, surfaced by ``cache_stats()`` in the experiments
  layer, the ``stats`` verb of the serving daemon, and the CLIs.

The store knows nothing about what it holds: callers bring their own
codec (see :mod:`repro.service.codec` for ``SystemResult`` documents).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.service.resilience.journal import (
    IntentJournal,
    atomic_write_text,
    fsync_dir,
)

#: Environment switch for the durability fast path: ``0`` disables the
#: fsync-before-rename discipline process-wide (tests, scratch stores).
FSYNC_ENV = "REPRO_STORE_FSYNC"

#: Temp-write + rename tries per put when another process's recovery
#: settles the put's live intent under it (see :meth:`ResultStore.put`).
_PUT_ATTEMPTS = 3

#: Salt folded into every digest.  Bump when the cost model or the
#: stored document schema changes meaning: old entries then simply stop
#: matching instead of replaying outdated results.
CODE_VERSION = "mondrian-store-v1"


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The canonical text form a digest is computed over.

    Keys are sorted recursively and separators are fixed, so two dicts
    with equal content -- whatever their insertion order -- serialize to
    identical bytes (pinned by tests).
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_payload(payload: Mapping[str, Any]) -> str:
    """Content address of a key payload: SHA-256 over canonical JSON."""
    text = canonical_json({"code_version": CODE_VERSION, **payload})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _atomic_write_text(path: Path, text: str, fsync: bool = True) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + rename.

    With ``fsync`` (the default) the write is also *durable*: the temp
    file is fsynced before the rename and the directory after it.  Kept
    as the store's historical entry point; the implementation lives in
    :func:`repro.service.resilience.journal.atomic_write_text`.
    """
    atomic_write_text(path, text, fsync=fsync)


def _default_fsync() -> bool:
    return os.environ.get(FSYNC_ENV, "1") != "0"


def _parses_as_json(path: Path) -> bool:
    """Is this file a complete JSON document? (The journal's validator.)"""
    try:
        json.loads(path.read_bytes())
        return True
    except (OSError, ValueError):
        return False


def open_store(
    root: os.PathLike,
    max_bytes: Optional[int] = None,
    fsync: Optional[bool] = None,
):
    """Open the store at ``root``, fleet-aware.

    A directory carrying a ``fleet.json`` manifest opens as a
    :class:`~repro.service.fleet.sharded.ShardedResultStore` (N shards,
    R replicas, read-repair); anything else opens as a plain
    :class:`ResultStore`.  Every path-based entry point -- ``--store``
    flags, ``REPRO_STORE``, worker store propagation, ``recover`` --
    routes through here, so a fleet root is a drop-in store directory.
    """
    if os.path.isfile(os.path.join(os.fspath(root), "fleet.json")):
        from repro.service.fleet.sharded import ShardedResultStore

        return ShardedResultStore(root, max_bytes=max_bytes, fsync=fsync)
    return ResultStore(root, max_bytes=max_bytes, fsync=fsync)


class ResultStore:
    """A content-addressed, size-bounded, on-disk JSON document store."""

    def __init__(
        self,
        root: os.PathLike,
        max_bytes: Optional[int] = None,
        fsync: Optional[bool] = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self._root = Path(root)
        self._objects = self._root / "objects"
        self._quarantine_dir = self._root / "quarantine"
        self._index_path = self._root / "index.json"
        self._max_bytes = max_bytes
        self._fsync = _default_fsync() if fsync is None else bool(fsync)
        self._stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "puts": 0,
            "quarantined": 0,
            "recovered_forward": 0,
            "recovered_discarded": 0,
        }
        self._objects.mkdir(parents=True, exist_ok=True)
        # One handle may be shared across threads (the daemon answers
        # read verbs while a batch writes); every public operation takes
        # this lock, so the in-memory index never tears.
        self._lock = threading.RLock()
        self._journal = IntentJournal(self._root, fsync=self._fsync)
        self._recover()
        self._tick, self._entries = self._load_index()
        self._index_dirty = False
        self._reconcile()

    def _recover(self) -> None:
        """Startup recovery scan: settle every surviving write intent."""
        counts = self._journal.recover(
            validate=_parses_as_json, quarantine=self._quarantine
        )
        self._stats["recovered_forward"] += counts["rolled_forward"]
        self._stats["recovered_discarded"] += counts["discarded"]

    # -- identity ------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def max_bytes(self) -> Optional[int]:
        return self._max_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        bound = f", max_bytes={self._max_bytes}" if self._max_bytes else ""
        return f"ResultStore({str(self._root)!r}, {len(self)} entries{bound})"

    # -- index bookkeeping ---------------------------------------------------

    def _load_index(self):
        try:
            data = json.loads(self._index_path.read_text())
            entries = {
                str(d): {"size": int(e["size"]), "tick": int(e["tick"])}
                for d, e in data["entries"].items()
            }
            return int(data["tick"]), entries
        except (OSError, ValueError, KeyError, TypeError):
            # Missing or corrupt index: rebuilt from the objects tree.
            return 0, {}

    def _save_index(self) -> None:
        # The index is advisory (rebuilt from the objects tree), so it
        # rides the fast path even on durable stores: an index lost to a
        # crash costs recency ordering, nothing else.
        _atomic_write_text(
            self._index_path,
            json.dumps({"tick": self._tick, "entries": self._entries}),
            fsync=False,
        )
        self._index_dirty = False

    def _object_path(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}.json"

    def _scan_objects(self) -> Dict[str, os.stat_result]:
        """Stat every object on disk, keyed by digest (takes no lock)."""
        on_disk = {}
        for path in self._objects.glob("*/*.json"):
            try:
                on_disk[path.stem] = path.stat()
            except OSError:
                continue
        return on_disk

    def _reconcile(
        self,
        on_disk: Optional[Dict[str, os.stat_result]] = None,
        scanned_at: Optional[int] = None,
    ) -> None:
        """Make the index agree with the objects actually on disk.

        Entries another process wrote are adopted (oldest-first by file
        mtime, below every known tick, so they evict before anything this
        handle has touched); entries whose file vanished are dropped, and
        known entries' sizes are refreshed from disk.

        ``on_disk`` may be a :meth:`_scan_objects` snapshot taken outside
        the lock when the tick was ``scanned_at``: entries touched since
        are newer than the snapshot and are kept, and adoptions are
        re-checked on disk, since a put may have evicted them meanwhile.
        """
        if on_disk is None:
            on_disk, scanned_at = self._scan_objects(), self._tick
        for digest in list(self._entries):
            if digest in on_disk:
                self._entries[digest]["size"] = on_disk[digest].st_size
            elif self._entries[digest]["tick"] <= scanned_at:
                del self._entries[digest]
        unknown = sorted(
            (
                d
                for d in on_disk
                if d not in self._entries and self._object_path(d).is_file()
            ),
            key=lambda d: (on_disk[d].st_mtime, d),
        )
        for order, digest in enumerate(unknown):
            self._entries[digest] = {
                "size": on_disk[digest].st_size,
                "tick": -len(unknown) + order,
            }

    def _touch(self, digest: str, size: Optional[int] = None) -> None:
        self._tick += 1
        entry = self._entries.setdefault(digest, {"size": 0, "tick": self._tick})
        entry["tick"] = self._tick
        if size is not None:
            entry["size"] = size

    # -- the store protocol --------------------------------------------------

    def contains(self, digest: str) -> bool:
        """Probe for an entry without touching stats or recency."""
        return self._object_path(digest).is_file()

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored document, or ``None`` on a miss.

        A present-but-unparseable entry (truncated write from a killed
        process, manual corruption) counts as a miss and is removed so
        the next put can heal it.
        """
        path = self._object_path(digest)
        try:
            raw = path.read_bytes()
            document = json.loads(raw)
        except FileNotFoundError:
            with self._lock:
                self._stats["misses"] += 1
            return None
        except (OSError, ValueError):
            # Never serve a torn entry -- and never silently destroy it
            # either: quarantine preserves the bytes for post-mortems
            # while the next put heals the slot.
            with self._lock:
                self._stats["misses"] += 1
                self._quarantine(path)
                self._entries.pop(digest, None)
                self._save_index()
            return None
        with self._lock:
            self._stats["hits"] += 1
            # Recency is bumped in memory only: the index is advisory,
            # and rewriting it per hit would make warm replays
            # disk-bound.  The next put (or an explicit flush) persists
            # the accumulated ticks.  The size rides along so entries
            # first seen via get() (a pool worker's write) count toward
            # the eviction budget at their real size, not zero.
            self._touch(digest, size=len(raw))
            self._index_dirty = True
        return document

    def put(self, digest: str, document: Mapping[str, Any]) -> Path:
        """Store one JSON document under its digest (idempotent).

        The write is **journaled**: an intent record naming the temp and
        final paths is persisted first, so a ``kill -9`` anywhere inside
        the put is settled by the next open's recovery scan -- rolled
        forward if the temp file was complete, discarded otherwise.
        The temp name carries the pid, so concurrent writers of the
        same digest never share (or tear) a temp file.

        Another process opening the store runs recovery over *live*
        intents too, and may move this put's temp file into place or
        delete it as incomplete before the rename.  Entries are
        content-addressed, so an object found in place then holds these
        very bytes; otherwise the write is journaled and made again.
        """
        path = self._object_path(digest)
        text = json.dumps(document, sort_keys=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{digest}.{os.getpid()}.tmp"
        for attempt in range(_PUT_ATTEMPTS):
            try:
                with self._journal.intent(digest, final=path, tmp=tmp):
                    self._write_object(tmp, path, text)
                break
            except FileNotFoundError:
                if _parses_as_json(path):
                    break
                if attempt == _PUT_ATTEMPTS - 1:
                    raise
        with self._lock:
            self._stats["puts"] += 1
            self._touch(digest, size=len(text))
            self._evict_to_budget(keep=digest)
            self._save_index()
        return path

    def _write_object(self, tmp: Path, path: Path, text: str) -> None:
        """Temp-write ``text`` and rename it to ``path`` (durably if fsync)."""
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
                if self._fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
            if self._fsync:
                fsync_dir(path.parent)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt object aside where it can never be served."""
        self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self._quarantine_dir / path.name)
        except OSError:
            with contextlib.suppress(OSError):
                path.unlink()
        self._stats["quarantined"] += 1

    def _drop(self, digest: str) -> None:
        try:
            self._object_path(digest).unlink()
        except OSError:
            pass
        self._entries.pop(digest, None)

    def discard(self, digest: str) -> None:
        """Remove one entry outright (fleet rebalance pruning).

        Unlike quarantine this *is* destruction -- only callers that
        hold (or just wrote) another replica of the digest use it.
        """
        with self._lock:
            self._drop(digest)
            self._save_index()

    def _evict_to_budget(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        The just-written entry (``keep``) survives even when it alone
        exceeds the budget: evicting the result a caller is about to
        rely on would turn every oversized put into a permanent miss.

        The budget is enforced against this handle's view of the store
        (sizes are tracked incrementally by put/get and refreshed by the
        reconciles at init and :meth:`stats`); scanning the objects tree
        on every put would make cold runs quadratic in entry count.
        """
        if self._max_bytes is None:
            return
        while self.total_bytes() > self._max_bytes and len(self._entries) > 1:
            victim = min(
                (d for d in self._entries if d != keep),
                key=lambda d: self._entries[d]["tick"],
                default=None,
            )
            if victim is None:
                return
            self._drop(victim)
            self._stats["evictions"] += 1

    # -- introspection -------------------------------------------------------

    def flush(self) -> None:
        """Persist any recency ticks accumulated by pure reads."""
        with self._lock:
            if self._index_dirty:
                self._save_index()

    @property
    def fsync(self) -> bool:
        return self._fsync

    @property
    def quarantine_dir(self) -> Path:
        return self._quarantine_dir

    def quarantined(self) -> Iterator[str]:
        """Names of quarantined entries (digest filenames), sorted."""
        if not self._quarantine_dir.is_dir():
            return iter(())
        return iter(sorted(p.name for p in self._quarantine_dir.glob("*.json")))

    def verify(self) -> Dict[str, int]:
        """Full integrity scan: settle intents, validate every object.

        Walks the whole objects tree (not just journaled paths),
        quarantines anything that fails to parse, and reports what it
        found.  This is the explicit, heavyweight counterpart of the
        automatic startup recovery scan -- the chaos harness and the
        ``recover`` CLI call it to prove no torn write can ever be
        served.
        """
        with self._lock:
            recovered = self._journal.recover(
                validate=_parses_as_json, quarantine=self._quarantine
            )
            self._stats["recovered_forward"] += recovered["rolled_forward"]
            self._stats["recovered_discarded"] += recovered["discarded"]
            checked = corrupt = 0
            for path in sorted(self._objects.glob("*/*.json")):
                checked += 1
                if not _parses_as_json(path):
                    self._quarantine(path)
                    self._entries.pop(path.stem, None)
                    corrupt += 1
            debris = 0
            for tmp in self._objects.glob("*/.*.tmp"):
                # Unjournaled leftovers (pre-journal stores, interrupted
                # index writes): plain debris, safe to delete.
                with contextlib.suppress(OSError):
                    tmp.unlink()
                    debris += 1
            self._reconcile()
            self._save_index()
            return {
                "checked": checked,
                "quarantined_now": corrupt,
                "quarantined_total": self._stats["quarantined"],
                "rolled_forward": self._stats["recovered_forward"],
                "discarded": self._stats["recovered_discarded"],
                "debris_removed": debris,
                "entries": len(self._entries),
            }

    def digests(self) -> Iterator[str]:
        """Known digests, least-recently-used first."""
        with self._lock:
            return iter(
                sorted(self._entries, key=lambda d: self._entries[d]["tick"])
            )

    def total_bytes(self) -> int:
        with self._lock:
            return sum(e["size"] for e in self._entries.values())

    def merge_stats(self, counters: Mapping[str, int]) -> None:
        """Fold another handle's counters into this one.

        The process-pool runtime evaluates in workers, each with its own
        handle on the same directory; merging their counters back gives
        the parent the true traffic totals of the run.
        """
        with self._lock:
            for name in self._stats:
                self._stats[name] += int(counters.get(name, 0))

    def counters(self) -> Dict[str, int]:
        """Just the hit/miss/eviction/put counters -- O(1), no I/O.

        For hot paths (per-task worker deltas, health checks) that must
        not pay :meth:`stats`'s objects-tree reconcile.
        """
        with self._lock:
            return dict(self._stats)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/put counters plus current occupancy.

        Occupancy is reconciled against the objects tree first (an
        O(entries) directory scan), so entries other processes (pool
        workers, concurrent CLIs) wrote are counted; use
        :meth:`counters` where occupancy is not needed.

        The scan runs outside the lock: a thread polling ``stats`` must
        not hold writers off the handle for the length of a directory walk.
        """
        with self._lock:
            scanned_at = self._tick
        on_disk = self._scan_objects()
        with self._lock:
            self._reconcile(on_disk, scanned_at)
            return dict(
                self._stats, entries=len(self._entries), bytes=self.total_bytes()
            )
