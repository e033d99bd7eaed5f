"""One measuring process: set up a workload, then time it for a budget.

``run.py`` starts this script in a fresh process per sample. It prints
``READY`` once set-up is done (the parent times set-up from process start to
that line) and, at the end, one JSON line with the per-job times, the exact
counters of every job, the failure count and — when ``--traced`` — the
per-layer ledger. ``--setup-only`` exits right after ``READY``.

Set-up covers imports, the machine config, trace generation (the three
simulation workloads) and planning (``reproduce-quick``). The measured
region repeats passes over the workload's job list until ``--seconds`` have
passed and at least ``--min-passes`` passes are complete.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import ledger
import workloads

#: A measuring process stops starting passes after this many seconds, so a
#: run on a slow host still ends inside the 180 s a whole run may take.
HARD_LIMIT_S = 120.0

PINNED_DIR = Path(__file__).resolve().parent / "pinned"
#: Scratch space inside the checkout (the campaign's stores live here).
WORK_DIR = Path(".perfbench_out")


def load_pinned(workload: str, seed: int) -> Dict[str, List[int]]:
    """Pinned counters of one input set (empty when not pinned)."""
    path = PINNED_DIR / f"{workload}.json"
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        return {}
    return data["seeds"].get(str(workloads.input_seed(seed)), {})


class Checker:
    """Counts jobs whose counters differ from the pinned or earlier values.

    ``pinned=None`` skips the pinned comparison (used when recording pins);
    every pass must still reproduce the first pass's counters exactly.
    """

    def __init__(self, fields, pinned: Optional[Dict[str, List[int]]]):
        self.fields = fields
        self.pinned = pinned
        self.counters: Dict[str, List[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def error(self, job: str, message: str) -> None:
        self.attempted += 1
        self._fail(f"{job}: {message}")

    def check(self, job: str, values: List[int]) -> bool:
        """Record one job's counters; False (and a failure) on mismatch."""
        self.attempted += 1
        expected = self.counters.setdefault(job, values)
        if expected != values:
            self._fail(f"{job}: counters changed between passes")
            return False
        if self.pinned is not None:
            pinned = self.pinned.get(job)
            if pinned != values:
                diff = ("not pinned" if pinned is None else ", ".join(
                    f"{name} {want}->{got}" for name, want, got in
                    zip(self.fields, pinned, values) if want != got))
                self._fail(f"{job}: differs from pinned counters ({diff})")
                return False
        return True


def run_sim(workload, probe: ledger.Probe, trace_ledger, checker: Checker,
            seconds: float, min_passes: int, started: float) -> dict:
    """Passes over a simulation workload's jobs; per-job times and counters.

    A pass's time is the sum of its jobs' times: the garbage collection and
    counter checks between jobs are not part of it.
    """
    times: Dict[str, List[float]] = {job.id: [] for job in workload.jobs}
    pass_seconds: List[float] = []
    deadline = time.perf_counter() + seconds
    while (len(pass_seconds) < min_passes
           or time.perf_counter() < deadline):
        if pass_seconds and time.perf_counter() - started > HARD_LIMIT_S:
            break
        pass_seconds.append(0.0)
        for job in workload.jobs:
            gc.collect()
            start = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # a failed job, never a crashed run
                checker.error(job.id, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                pass_seconds[-1] += elapsed
                sessions = probe.take()
                if trace_ledger is not None:
                    trace_ledger.close_job(job.id)
            if len(sessions) != 1:
                checker.error(job.id, f"{len(sessions)} sessions built")
                continue
            session = sessions[0]
            warmup = probe.warmup_instructions.pop(id(session), None)
            if warmup is None:
                checker.error(job.id, "no warm-up boundary seen")
                continue
            values = workloads.sim_counters(job, result, session, warmup)
            if checker.check(job.id, values):
                times[job.id].append(elapsed)
    return {"job_seconds": times, "pass_seconds": pass_seconds,
            "jobs": len(workload.jobs)}


def run_reproduce(workload, executions: List, trace_ledger, checker: Checker,
                  seconds: float, min_passes: int, started: float) -> dict:
    """Rounds of ``run_reproduction``; per-round times and campaign facts."""
    pass_seconds: List[float] = []
    rounds: List[dict] = []
    deadline = time.perf_counter() + seconds
    while (len(pass_seconds) < min_passes
           or time.perf_counter() < deadline):
        if pass_seconds and time.perf_counter() - started > HARD_LIMIT_S:
            break
        gc.collect()
        executions.clear()
        start = time.perf_counter()
        outcome = workload.run_round(executions)
        elapsed = time.perf_counter() - start
        pass_seconds.append(elapsed)
        if trace_ledger is not None:
            trace_ledger.close_job(f"round-{len(pass_seconds)}")
        ok = not outcome.failed_ids
        for jid in outcome.failed_ids:
            checker.error(jid, outcome.error or "no stored result")
        for jid, values in outcome.counters.items():
            ok = checker.check(jid, values) and ok
        rounds.append({
            "seconds": elapsed, "ok": ok,
            "records": sum(values[0] for values in outcome.counters.values()),
            "job_seconds": outcome.job_seconds,
            "campaign_seconds": outcome.campaign_seconds,
            "trace_hits": outcome.trace_hits,
            "trace_misses": outcome.trace_misses,
            "trace_seconds": outcome.trace_seconds,
            "pool_steals": outcome.pool_steals, "retries": outcome.retries,
            "failures": outcome.failures,
        })
    return {"pass_seconds": pass_seconds, "rounds": rounds,
            "jobs": len(workload.job_ids), "processes": workload.processes,
            "dedup_ratio": workload.dedup_ratio}


def measure(name: str, seed: int, seconds: float, traced: bool,
            min_passes: int, setup_only: bool = False,
            pinned: Optional[Dict[str, List[int]]] = None,
            workdir: Optional[Path] = None) -> Optional[dict]:
    """Set up ``name`` and measure it; ``None`` when ``setup_only``."""
    started = time.perf_counter()
    probe = ledger.Probe().install()
    executions = (probe.capture_executions()
                  if name == workloads.ReproduceQuick.name else None)
    trace_ledger = ledger.Ledger().install() if traced else None
    try:
        if executions is not None:
            processes = max(1, min(2, os.cpu_count() or 1))
            workload = workloads.ReproduceQuick(
                seed, workdir or WORK_DIR / f"work-{os.getpid()}", processes)
        else:
            workload = workloads.SIM_WORKLOADS[name](seed)
        print("READY", flush=True)
        if setup_only:
            return None
        if trace_ledger is not None:
            trace_ledger.close_job("setup")
        checker = Checker(workload.fields, pinned)
        if executions is not None:
            try:
                out = run_reproduce(workload, executions, trace_ledger,
                                    checker, seconds, min_passes, started)
            finally:
                if workdir is None:
                    shutil.rmtree(workload.workdir, ignore_errors=True)
        else:
            out = run_sim(workload, probe, trace_ledger, checker, seconds,
                          min_passes, started)
    finally:
        if trace_ledger is not None:
            trace_ledger.uninstall()
        probe.uninstall()
    out.update({
        "workload": name, "seed": seed, "traced": traced,
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems, "counters": checker.counters,
        "fields": list(workload.fields),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    })
    if trace_ledger is not None:
        out["ledger_setup"] = trace_ledger.totals(jobs={"setup"})
        out["ledger"] = trace_ledger.totals(
            jobs={job for job, _ in trace_ledger.jobs} - {"setup"})
        out["spans"] = trace_ledger.to_records()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-passes", type=int, default=3)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path,
                        help="write the traced per-(job, layer) spans here")
    args = parser.parse_args(argv)
    out = measure(args.workload, args.seed, args.seconds, args.traced,
                  args.min_passes, setup_only=args.setup_only,
                  pinned=load_pinned(args.workload, args.seed))
    if out is None:
        return 0
    spans = out.pop("spans", None)
    if args.spans is not None and spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        args.spans.write_text(json.dumps(spans, indent=1) + "\n")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
