"""Session-layer throughput benchmark: no overhead vs the datapath floors.

The session refactor rebuilt every host on one SessionBuilder / Stepper /
``drive()`` core; this bench proves the composition costs nothing. It
re-measures the four datapath metrics through the session-driven hosts
(same workload, seed and lengths as ``repro.bench.datapath``), asserts
each stays within the regression-gate tolerance of the committed
``BENCH_datapath.json`` reference, and appends the run to
``benchmarks/reports/BENCH_session.json``.

The session-only metrics (the multicore pair and the hybrid context) are
recorded for the trajectory.
"""

from __future__ import annotations

import pytest

from repro.bench.gate import DEFAULT_TOLERANCE
from repro.bench.session import (
    load_datapath_reference,
    run_session_bench,
    write_record,
)

#: Shared metrics must stay within the gate tolerance of the datapath
#: reference — the same bar ``repro bench --suite session --baseline
#: BENCH_datapath.json --check`` enforces.
SESSION_FLOOR = 1.0 - DEFAULT_TOLERANCE


@pytest.fixture(scope="module")
def bench_result():
    """One measured run shared by every assertion; best-of-5 for stability."""
    return run_session_bench(repeats=5)


@pytest.fixture(scope="module")
def datapath_reference():
    reference = load_datapath_reference()
    if reference is None:
        pytest.skip("no usable reference in BENCH_datapath.json")
    return reference


def test_record_run(bench_result, write_report):
    """Append the measurement to the bench file and echo the ratios."""
    document = write_record(bench_result)
    lines = ["session-layer throughput (records|instructions / sec):"]
    for metric, value in sorted(vars(bench_result).items()):
        if isinstance(value, float):
            lines.append(f"  {metric:40s} {value:12.0f}")
    ratios = document.get("vs_datapath", {})
    if ratios:
        lines.append("vs BENCH_datapath.json reference:")
        for metric, ratio in sorted(ratios.items()):
            lines.append(f"  {metric:40s} {ratio:10.3f}x")
    write_report("BENCH_session_summary", "\n".join(lines))


def test_no_overhead_vs_datapath(bench_result, datapath_reference):
    """Every shared metric within gate tolerance of the datapath floor."""
    for name, reference in datapath_reference.items():
        measured = getattr(bench_result, name)
        ratio = measured / reference
        assert ratio >= SESSION_FLOOR, (
            f"{name}: session host at {ratio:.2f}x of the datapath "
            f"reference — the session layer is adding overhead")


def test_session_only_hosts_measured(bench_result):
    """The refactor-unlocked paths produce real throughput numbers."""
    assert bench_result.multicore_instructions_per_sec > 0
    assert bench_result.hybrid_instructions_per_sec > 0
