"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload timing-pinte --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout (the simulator is imported from ``src/``).
Every measurement runs in a fresh process (``measure.py``):

* ``--trace 0`` starts :data:`SETUP_SAMPLES` - 1 set-up-only processes and
  one measuring process, and reports the end-to-end metrics: ``setup_s`` is
  the median over all of them of the host time from process start to the
  first timed job.
* ``--trace 1`` starts one untraced and one traced measuring process, half
  the budget each, and reports the per-layer ledger with the tracing
  overhead (traced over untraced ``wall_s``) and the unattributed
  remainder. It also checks that both processes produced the same counters.

All times are host time: how long the simulator takes to run. Every job's
simulated counters are checked against ``perfbench/pinned/``; a mismatch, a
raised exception or a failed campaign job counts as a failed job. A
human-readable summary goes to standard error; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
WORKLOADS = ("timing-pinte", "replay-llc", "pair-2ndtrace", "reproduce-quick")
SETUP_SAMPLES = 9
#: A whole run must end within 180 s; measuring processes get this long.
RUN_LIMIT_S = 170.0
OUT_DIR = Path(".perfbench_out")


class RunError(RuntimeError):
    """A measuring process failed; the run prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: List[str],
              deadline: float) -> Tuple[float, Optional[dict]]:
    """Run ``measure.py``: (seconds from start to READY, final JSON line)."""
    command = [sys.executable, str(HERE / "measure.py"), *args]
    start = time.perf_counter()
    # A session of its own, so a kill also reaches the campaign's workers.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=child_env(),
                            text=True, start_new_session=True)
    try:
        ready = None
        last = None
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not selector.select(remaining):
                    raise RunError(f"{' '.join(args)}: over the time limit")
                line = proc.stdout.readline()
                if not line:
                    break
                if ready is None and line.strip() == "READY":
                    ready = time.perf_counter() - start
                elif line.strip():
                    last = line
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{' '.join(args)}: over the time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RunError(f"measure.py {' '.join(args)} exited with {code}")
    return ready, (json.loads(last) if last is not None else None)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def wall_seconds(out: dict) -> float:
    """Host seconds for one pass over the workload's job list.

    Simulation workloads: the sum over jobs of each job's median time across
    passes. ``reproduce-quick``: the median time of one reproduction.
    """
    if "rounds" in out:
        return median(out["pass_seconds"])
    return sum(median(times) for times in out["job_seconds"].values())


def end_to_end(out: dict, setup: List[float]) -> dict:
    wall = wall_seconds(out)
    # Guards a run whose every job failed (reported as incorrect).
    rate_base = wall or float("inf")
    rss_kb = out["rss_kb"] + out["children_rss_kb"]
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "records_per_s": (counter_total(out, "records") / rate_base, "1/s"),
        "jobs_per_s": (out["jobs"] / rate_base, "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def counter_total(out: dict, field: str) -> int:
    """Sum of one exact counter over the workload's jobs (one pass)."""
    index = out["fields"].index(field)
    return sum(values[index] for values in out["counters"].values())


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced run (calls and times are per pass)."""
    passes = max(1, len(traced["pass_seconds"]))
    ledger = traced["ledger"]
    setup = traced["ledger_setup"]
    metrics = {}

    def calls(layer):
        return ledger[layer][0] / passes

    def self_s(layer):
        return ledger[layer][1] / passes

    rounds = plain.get("rounds")
    sim = rounds is None
    if not sim:
        n = len(rounds)
        metrics["trace.build.calls"] = (
            sum(r["trace_misses"] for r in rounds) / n, "count")
        metrics["trace.build.self_s"] = (
            sum(r["trace_seconds"] for r in rounds) / n, "s")
        metrics["trace.store.hits"] = (
            sum(r["trace_hits"] for r in rounds) / n, "count")
        metrics["trace.store.misses"] = (
            sum(r["trace_misses"] for r in rounds) / n, "count")
    else:
        metrics["trace.build.calls"] = (setup["trace.build"][0], "count")
        metrics["trace.build.self_s"] = (setup["trace.build"][1], "s")
        metrics["trace.store.hits"] = (0, "count")
        metrics["trace.store.misses"] = (0, "count")

    retired = counter_total(plain, "retired") if sim else 0
    secondary = counter_total(plain, "secondary_records") if sim else 0
    metrics["sim.session.build_s"] = (self_s("sim.session.build"), "s")
    metrics["sim.session.self_s"] = (self_s("sim.session"), "s")
    metrics["sim.multicore.secondary_share"] = (
        secondary / retired if retired else 0.0, "ratio")
    metrics["cpu.instructions"] = (retired, "count")
    metrics["cpu.self_s"] = (self_s("cpu"), "s")
    for layer in ("branch", "cache.hierarchy", "cache.replacement",
                  "core.counters"):
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.self_s"] = (self_s(layer), "s")
    for level in ("L1I", "L1D", "L2", "LLC", "L2f"):
        for op in ("access", "fill"):
            layer = f"cache.{level}.{op}"
            metrics[f"{layer}.calls"] = (calls(layer), "count")
            metrics[f"{layer}.self_s"] = (self_s(layer), "s")
        access = ledger[f"cache.{level}.access"]
        metrics[f"cache.{level}.hit_ratio"] = (
            access[2] / access[0] if access[0] else 0.0, "ratio")

    triggers = counter_total(plain, "pinte_triggers") if sim else 0
    thefts = counter_total(plain, "pinte_invalidations") if sim else 0
    metrics["core.pinte.calls"] = (calls("core.pinte"), "count")
    metrics["core.pinte.triggers"] = (triggers, "count")
    metrics["core.pinte.invalidations"] = (thefts, "count")
    metrics["core.pinte.self_s"] = (self_s("core.pinte"), "s")
    metrics["core.pinte.theft_per_trigger"] = (
        thefts / triggers if triggers else 0.0, "ratio")

    if sim:
        reads = counter_total(plain, "dram_reads")
        writes = counter_total(plain, "dram_writes")
        row_hits = counter_total(plain, "dram_row_hits")
    else:
        reads = writes = row_hits = 0
    metrics["dram.calls"] = (calls("dram"), "count")
    metrics["dram.writes"] = (writes, "count")
    metrics["dram.self_s"] = (self_s("dram"), "s")
    metrics["dram.row_hit_ratio"] = (
        row_hits / (reads + writes) if reads + writes else 0.0, "ratio")

    if not sim:
        n = len(rounds)
        job_seconds = [t for r in rounds for t in r["job_seconds"]]
        campaign = sum(r["campaign_seconds"] for r in rounds)
        busy = (sum(job_seconds) / (plain["processes"] * campaign)
                if campaign else 0.0)
        metrics["campaign.job_s_p50"] = (percentile(job_seconds, 50), "s")
        metrics["campaign.job_s_p90"] = (percentile(job_seconds, 90), "s")
        metrics["campaign.worker_busy_frac"] = (busy, "ratio")
        for key in ("pool_steals", "retries", "failures"):
            metrics[f"campaign.{key}"] = (
                sum(r[key] for r in rounds) / n, "count")
        metrics["experiments.plan_s"] = (self_s("experiments.plan"), "s")
        metrics["experiments.aggregate_s"] = (
            self_s("experiments.aggregate"), "s")
        metrics["experiments.dedup_ratio"] = (plain["dedup_ratio"], "ratio")
    else:
        for key, unit in (("job_s_p50", "s"), ("job_s_p90", "s"),
                          ("worker_busy_frac", "ratio"),
                          ("pool_steals", "count"), ("retries", "count"),
                          ("failures", "count")):
            metrics[f"campaign.{key}"] = (0, unit)
        metrics["experiments.plan_s"] = (0.0, "s")
        metrics["experiments.aggregate_s"] = (0.0, "s")
        metrics["experiments.dedup_ratio"] = (0.0, "ratio")

    plain_wall = wall_seconds(plain)
    llc_accesses = calls("cache.LLC.access")
    metrics["host_ns_per_llc_access"] = (
        plain_wall * 1e9 / llc_accesses if llc_accesses else 0.0, "ns")
    traced_wall = sum(traced["pass_seconds"]) / passes
    attributed = sum(row[1] for row in ledger.values()) / passes
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.unattributed_s"] = (traced_wall - attributed, "s")
    metrics["bench.unattributed_frac"] = (
        (traced_wall - attributed) / traced_wall, "ratio")
    metrics["bench.tracing_overhead"] = (wall_seconds(traced) / plain_wall,
                                         "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("run.py: no src/repro here; run from the root of a checkout "
              "of the repository", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace == 0:
            setup = [run_child(common + ["--setup-only"], deadline)[0]
                     for _ in range(SETUP_SAMPLES - 1)]
            ready, plain = run_child(
                common + ["--seconds", str(args.seconds)], deadline)
            setup.append(ready)
            runs = [plain]
            metrics = end_to_end(plain, setup)
        else:
            budget = str(args.seconds / 2)
            _, plain = run_child(common + ["--seconds", budget,
                                           "--min-passes", "2"], deadline)
            spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
            _, traced = run_child(common + ["--seconds", budget,
                                            "--min-passes", "2", "--traced",
                                            "--spans", str(spans)], deadline)
            runs = [plain, traced]
            metrics = per_layer(plain, traced)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    problems = [p for run in runs for p in run["problems"]]
    if args.trace == 1 and runs[0]["counters"] != runs[1]["counters"]:
        differing = sorted(
            job for job in set(runs[0]["counters"]) | set(runs[1]["counters"])
            if runs[0]["counters"].get(job) != runs[1]["counters"].get(job))
        failed += len(differing)
        problems.append(f"traced counters differ from untraced: {differing}")
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} "
          f"failed_frac={failed / max(1, attempted):.4f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print("  exact counters, one pass (count):", file=sys.stderr)
    for field in runs[0]["fields"]:
        print(f"    {field:32s} {counter_total(runs[0], field):12d}",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
