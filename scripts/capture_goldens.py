"""Capture golden-trace equivalence data for the cache data path.

Thin wrapper around :mod:`repro.goldens` — the same harness the equivalence
suite (``tests/integration/test_golden_equivalence.py``) replays. Runs the
pinned golden matrix (3 workload classes x {lru, srrip, plru} x
{isolation, PInTE p=0.1}) through ``simulate()``, the fastcache host, and a
direct Cache+PInTE eviction-sequence harness, and writes the observed
counters to ``tests/golden/golden_traces.json``.

The file checked into the repo was generated from the original
object-per-block (``CacheBlock``) implementation, immediately before the
flat-array ``CacheSetState`` refactor. Regenerate only when an *intentional*
behaviour change is made:

    PYTHONPATH=src python scripts/capture_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.goldens import capture_all

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "golden_traces.json"


def main() -> None:
    payload = capture_all()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} "
          f"({len(payload['full_sim'])} full_sim, "
          f"{len(payload['fastcache'])} fastcache, "
          f"{len(payload['victim_sequences'])} victim-sequence, "
          f"{len(payload['multicore'])} multicore, "
          f"{len(payload['hybrid'])} hybrid, "
          f"{len(payload['hooks'])} hook goldens, "
          f"{len(payload['reports']['artifacts'])} artifact and "
          f"{len(payload['reports']['studies'])} study reports)")


if __name__ == "__main__":
    main()
