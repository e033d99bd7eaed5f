"""Record the exact counters every job yields, for every pinned input set.

    PYTHONPATH=src python3 perfbench/pin.py [--workload NAME ...]

Writes ``perfbench/pinned/<workload>.json``. Run it only when a change is
meant to alter simulated behaviour; a change that only speeds the simulator
up must leave these files byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import measure
import workloads


def pin(name: str) -> dict:
    seeds = {}
    measure.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=measure.WORK_DIR) as workdir:
        for seed in range(workloads.PINNED_SEEDS):
            out = measure.measure(name, seed, 0.0, traced=False,
                                  min_passes=1, workdir=Path(workdir))
            if out["failed"]:
                raise SystemExit(f"{name} seed {seed}: {out['problems']}")
            seeds[str(seed)] = out["counters"]
            print(f"{name} seed {seed}: {len(out['counters'])} jobs",
                  file=sys.stderr)
    return {"workload": name, "fields": out["fields"], "seeds": seeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*",
                        default=list(workloads.WORKLOAD_NAMES),
                        choices=workloads.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    measure.PINNED_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        data = pin(name)
        path = measure.PINNED_DIR / f"{name}.json"
        # One job per line keeps diffs of a behaviour change readable.
        lines = [f'{{"workload": {json.dumps(data["workload"])}, '
                 f'"fields": {json.dumps(data["fields"])}, "seeds": {{']
        seed_blocks = []
        for seed, jobs in data["seeds"].items():
            rows = ",\n".join(f"  {json.dumps(job)}: {json.dumps(values)}"
                              for job, values in sorted(jobs.items()))
            seed_blocks.append(f'"{seed}": {{\n{rows}\n}}')
        lines.append(",\n".join(seed_blocks))
        lines.append("}}")
        path.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
