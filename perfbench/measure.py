"""Shared helpers: checkout paths, medians, memory readings and the
host-speed probe."""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Sequence

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (scratch stores, Chrome traces) goes here.
OUT = ROOT / ".perfbench-out"

#: The seed at which the exported statistics must equal the pinned digests.
DEFAULT_SEED = 17


def use_source_tree() -> None:
    """Import the program from the checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def declared_metrics(kind: str) -> Dict[str, str]:
    """Metric name -> unit as ``BENCHMARK.json`` declares them, for
    ``kind`` ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def child_env() -> Dict[str, str]:
    """Environment for spawned interpreters: the program's defaults.

    ``REPRO_*`` variables select stores and durability modes; dropping
    them keeps every run on the defaults a fresh user gets.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


_PROBE_INPUTS = None


def host_probe() -> Dict[str, float]:
    """Seconds each part of a fixed reference kernel takes on the host now.

    The parts are an interpreter loop (``interp``), a JSON round trip of
    400 record-like dicts (``json``), and a numpy sort of 4 MB plus a
    streaming pass over 8 MB (``numpy``) -- the kinds of work the
    workloads do -- on inputs fixed here, so they read only how fast the
    (shared) host runs at this moment.  Timed next to a sample, they turn
    the sample into one at the reference speed (:func:`at_reference`).
    """
    global _PROBE_INPUTS
    import numpy as np

    if _PROBE_INPUTS is None:
        rng = np.random.default_rng(12345)
        records = [{"system": f"s{i}", "phase": "probe", "time_s": i * 1e-3,
                    "energy": {"dram": i, "core": 2 * i}} for i in range(400)]
        _PROBE_INPUTS = (rng.integers(0, 1 << 40, 1 << 19), rng.random(1 << 20), records)
    keys, values, records = _PROBE_INPUTS
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i * i % 7
    t1 = time.perf_counter()
    for _ in range(5):
        json.loads(json.dumps(records))
    t2 = time.perf_counter()
    np.sort(keys)
    float((values * 2.0).sum())
    t3 = time.perf_counter()
    return {"interp": t1 - t0, "json": t2 - t1, "numpy": t3 - t2}


@functools.lru_cache(maxsize=None)
def reference_probe() -> Dict[str, float]:
    """The probe's parts on the reference host (``perfbench/design.json``)."""
    design = json.loads((ROOT / "perfbench" / "design.json").read_text())
    return {part: float(s) for part, s in design["host_probe"]["reference_s"].items()}


def at_reference(seconds: float, probe: Dict[str, float], parts: Sequence[str]) -> float:
    """A time measured next to a probe reading, at the reference speed of
    the probe ``parts`` that match the work timed."""
    ref = reference_probe()
    return seconds * sum(ref[p] for p in parts) / sum(probe[p] for p in parts)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def self_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
