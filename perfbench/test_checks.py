"""The benchmark's own checks: every kind of bad job is counted, none crashes.

    PYTHONPATH=src python3 -m pytest perfbench

A job counts as failed when its counters differ from the pinned values,
when it raises, or when the campaign records it as a ``JobFailure``.
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ledger  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def probe():
    probe = ledger.Probe().install()
    yield probe
    probe.uninstall()


def tiny_workload():
    from repro import build_trace, get_workload, scaled_config, simulate

    config = scaled_config()
    trace = build_trace(get_workload("470.lbm"), 3_000, 1, config.llc.size)

    def boom():
        raise RuntimeError("injected job failure")

    jobs = [
        workloads.SimJob("lbm", "timing", lambda: simulate(
            trace, config, warmup_instructions=500, sim_instructions=2_500)),
        workloads.SimJob("boom", "timing", boom),
    ]
    return types.SimpleNamespace(jobs=jobs, fields=workloads.SIM_FIELDS)


def run_passes(workload, probe, pinned, passes=2):
    checker = measure.Checker(workload.fields, pinned)
    measure.run_sim(workload, probe, None, checker, seconds=0.0,
                    min_passes=passes, started=time.perf_counter())
    return checker


def test_perturbed_pin_and_raising_job_are_both_failed(probe):
    workload = tiny_workload()
    recorded = run_passes(workload, probe, pinned=None)
    assert recorded.attempted == 4 and recorded.failed == 2  # boom x2
    assert "lbm" in recorded.counters

    pinned = {"lbm": list(recorded.counters["lbm"])}
    assert run_passes(workload, probe, pinned).failed == 2

    pinned["lbm"][workloads.SIM_FIELDS.index("llc_misses")] += 1
    checker = run_passes(workload, probe, pinned)
    assert checker.attempted == 4
    assert checker.failed == 4  # perturbed pin and raising job, each pass
    assert any("llc_misses" in problem for problem in checker.problems)
    assert any("injected job failure" in problem
               for problem in checker.problems)


def test_warmup_counts_every_core(probe):
    from repro import build_trace, get_workload, scaled_config
    from repro.sim import multicore

    config = scaled_config()
    a = build_trace(get_workload("605.mcf"), 2_000, 1, config.llc.size)
    b = build_trace(get_workload("453.povray"), 2_000, 2, config.llc.size)
    job = workloads.SimJob("pair", "pair", lambda: multicore.simulate_pair(
        a, b, config, warmup_instructions=500, sim_instructions=1_500,
        return_secondary=True))
    result = job.run()
    (session,) = probe.take()
    warmup = probe.warmup_instructions.pop(id(session))
    values = dict(zip(workloads.SIM_FIELDS, workloads.sim_counters(
        job, result, session, warmup)))
    assert warmup[0] == 500
    assert values["secondary_records"] == (
        warmup[1] + result.extra["secondary_instructions"])
    assert values["records"] == 2_000 + values["secondary_records"]


def test_campaign_job_failure_is_counted(probe, tmp_path, monkeypatch):
    from repro.campaign import engine

    workload = workloads.ReproduceQuick(0, tmp_path, processes=1)
    real = engine.execute_job

    def flaky(job, *args, **kwargs):
        if job.mode == "pair" and job.workload == "470.lbm":
            raise RuntimeError("injected campaign failure")
        return real(job, *args, **kwargs)

    monkeypatch.setattr(engine, "execute_job", flaky)
    executions = probe.capture_executions()
    checker = measure.Checker(workload.fields, pinned=None)
    out = measure.run_reproduce(workload, executions, None, checker,
                                seconds=0.0,
                                min_passes=1, started=time.perf_counter())
    assert checker.attempted == len(workload.job_ids)
    assert checker.failed == workload.PANEL_SIZE
    assert out["rounds"][0]["ok"] is False
    assert any("injected campaign failure" in problem
               for problem in checker.problems)
