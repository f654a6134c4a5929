"""End-to-end smoke test of the evaluation service (``make service-smoke``).

Starts the daemon as a real subprocess on an ephemeral port with a
fresh store, submits the committed sweep-smoke 2x2 grid twice through
the ``python -m repro.service submit`` CLI, and asserts:

- both exports match ``tests/data/sweep_smoke_golden.json`` byte for
  byte (the daemon serves the same records as in-process ``Sweep.run``);
- the second pass is **100% store hits** (zero simulations executed);
- the daemon survives both submissions and reports coherent stats.

It then submits a small canonical-query grid (``fk-join-aggregate`` on
cpu and mondrian) twice the same way: query points take the same
content-keyed path, so the second pass is 100% store hits too, and both
exports equal the in-process ``Sweep.run().to_json()``.

Run directly: ``PYTHONPATH=src python tests/service_smoke.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "tests" / "data" / "sweep_smoke.json"
GOLDEN = ROOT / "tests" / "data" / "sweep_smoke_golden.json"
#: The query grid: one canonical query on two machines.
QUERY_GRID = {
    "systems": ["cpu", "mondrian"],
    "workloads": ["fk-join-aggregate"],
    "scales": [50.0],
    "num_partitions": [8],
}

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def submit(port: int, spec: Path = SPEC) -> bytes:
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.service", "submit",
            "--port", str(port), "--sweep", str(spec), "--json", "-",
        ],
        env=ENV, cwd=ROOT, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def stats(port: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", "stats", "--port", str(port)],
        env=ENV, cwd=ROOT, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def main() -> None:
    grid_size = 4  # the committed 2x2 sweep-smoke grid
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as store:
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--port", "0", "--store", store,
            ],
            env=ENV, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = daemon.stdout.readline()
            match = re.search(r"serving on ([\w.]+):(\d+)", banner)
            assert match, f"daemon did not announce its port: {banner!r}"
            port = int(match.group(2))

            golden = GOLDEN.read_bytes()
            first = submit(port)
            assert first == golden, "first submission diverges from the golden file"
            second = submit(port)
            assert second == golden, "second submission diverges from the golden file"

            report = stats(port)
            scheduler = report["scheduler"]
            assert scheduler["submitted"] == 2 * grid_size, scheduler
            assert scheduler["executed"] == grid_size, (
                f"expected only the cold pass to simulate, got {scheduler}"
            )
            assert scheduler["store_hits"] == grid_size, (
                f"expected the warm pass to be 100% store hits, got {scheduler}"
            )
            assert report["store"]["puts"] == grid_size, report["store"]

            sys.path.insert(0, str(ROOT / "src"))
            from repro.api import Sweep

            query_spec = Path(store).with_name(Path(store).name + "-queries.json")
            query_spec.write_text(json.dumps(QUERY_GRID))
            try:
                expected = (Sweep.from_dict(QUERY_GRID).run().to_json() + "\n").encode()
                queries = len(QUERY_GRID["systems"])
                for attempt in ("cold", "warm"):
                    assert submit(port, query_spec) == expected, (
                        f"{attempt} query submission diverges from Sweep.run()"
                    )
            finally:
                query_spec.unlink()
            after = stats(port)["scheduler"]
            assert after["executed"] - scheduler["executed"] == queries, after
            assert after["store_hits"] - scheduler["store_hits"] == queries, (
                f"expected the warm query pass to be 100% store hits, got {after}"
            )

            # Ask for a clean shutdown through the wire protocol.
            from repro.service.client import ServiceClient

            with ServiceClient(port=port) as client:
                client.shutdown()
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    print(
        "service-smoke OK: daemon round-trip matches the golden file and "
        "the second pass was 100% store hits, queries included."
    )


if __name__ == "__main__":
    main()
