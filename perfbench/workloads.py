"""The benchmark's four workloads and the exact counters each job yields.

Every workload is built from the benchmark seed alone and drives the
simulator only through public entry points: ``repro.sim.simulate``,
``repro.sim.fastcache.simulate_cache_only``, ``repro.sim.simulate_pair``
and ``repro.experiments.reproduce.run_reproduction``. The program receives
only the generated traces (or, for ``reproduce-quick``, the suite and
scale it plans from).

The seed selects one of :data:`PINNED_SEEDS` input sets (``seed %
PINNED_SEEDS``); the exact counters of every job of every input set are
pinned in ``pinned/<workload>.json`` and each run is checked against them.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Number of distinct input sets whose counters are pinned.
PINNED_SEEDS = 32

#: Exact counters of one simulation job, in pinned-file order.
#: ``records``: trace records simulated — instructions retired by every
#: core, warm-up included, on the timing hosts; records replayed on the
#: replay host. ``retired``: the same count for timing hosts, 0 on replay.
#: ``instructions``/``cycles``/``llc_*``/``thefts_*``: the primary owner's
#: measured region. ``pinte_*``: engine statistics. ``dram_*``: the shared
#: DRAM's cumulative statistics. ``secondary_records``: instructions the
#: co-runner retired, warm-up included.
SIM_FIELDS = ("records", "retired", "instructions", "cycles", "llc_accesses",
              "llc_misses", "thefts_natural", "thefts_induced",
              "pinte_triggers", "pinte_invalidations", "dram_reads",
              "dram_writes", "dram_row_hits", "secondary_records")

#: Exact counters of one campaign job, read from its ``SimulationResult``
#: (worker processes are not probed, so DRAM and induced-theft splits are
#: not available here).
CAMPAIGN_FIELDS = ("records", "instructions", "cycles", "llc_accesses",
                   "llc_misses", "thefts_experienced", "thefts_caused",
                   "pinte_triggers", "pinte_invalidations",
                   "llc_writeback_fills", "l2_misses")


def input_seed(seed: int) -> int:
    """The pinned input set a benchmark seed selects."""
    return seed % PINNED_SEEDS


@dataclass
class SimJob:
    """One call into a simulation host; ``run`` returns the host's result."""

    id: str
    kind: str  # "timing", "replay" or "pair"
    run: Callable[[], object]
    records: int = 0  # replay host: records in the replayed trace


def sim_counters(job: SimJob, result, session,
                 warmup: Sequence[int]) -> List[int]:
    """The job's :data:`SIM_FIELDS`, from its result and probed session.

    ``warmup`` holds the instructions each core had retired when the
    warm-up statistics were reset (see ``ledger.Probe``).
    """
    tracker = session.tracker
    primary = tracker.counters(0)
    engine = session.engine
    triggers = engine.stats.triggers if engine is not None else 0
    invalidations = engine.stats.invalidations if engine is not None else 0
    dram = session.dram.stats if session.dram is not None else None
    if job.kind == "replay":
        records, retired, instructions, cycles = job.records, 0, 0, 0
        llc_accesses, llc_misses = result.accesses, result.misses
        secondary = 0
    else:
        per_core = [w + core.stats.instructions
                    for w, core in zip(warmup, session.cores)]
        retired = records = sum(per_core)
        secondary = sum(per_core[1:])
        instructions, cycles = result.instructions, result.cycles
        llc_accesses, llc_misses = result.llc_accesses, result.llc_misses
    return [records, retired, instructions, cycles, llc_accesses, llc_misses,
            primary.thefts_experienced - primary.induced_thefts,
            primary.induced_thefts, triggers, invalidations,
            dram.reads if dram else 0, dram.writes if dram else 0,
            dram.row_hits if dram else 0, secondary]


def campaign_counters(result, warmup: int) -> List[int]:
    """The job's :data:`CAMPAIGN_FIELDS`, from its ``SimulationResult``."""
    extra = result.extra
    return [warmup + result.instructions, result.instructions, result.cycles,
            result.llc_accesses, result.llc_misses, result.thefts_experienced,
            result.thefts_caused, int(extra.get("pinte_triggers", 0)),
            int(extra.get("pinte_invalidations", 0)),
            result.llc_writeback_fills, result.l2_misses]


# ---------------------------------------------------------------------------
# Simulation workloads
# ---------------------------------------------------------------------------

class SimWorkload:
    """Shared shape of the three simulation workloads: traces, then jobs."""

    name = ""
    fields = SIM_FIELDS

    def __init__(self, seed: int) -> None:
        from repro import scaled_config

        self.seed = input_seed(seed)
        self.config = scaled_config()
        self.jobs: List[SimJob] = []

    def _trace(self, name: str, length: int, seed: int):
        # Looked up through the module on each call so a traced process
        # sees its wrapper.
        from repro.trace import spec_models, synthetic

        return synthetic.build_trace(spec_models.get_workload(name), length,
                                     seed, self.config.llc.size)


class TimingPinte(SimWorkload):
    """Single-core ``simulate()``: isolation and PInTE at two ``P_induce``."""

    name = "timing-pinte"
    P_INDUCE = (0.1, 0.5)
    WORKLOADS = ("435.gromacs", "450.soplex", "453.povray", "470.lbm",
                 "605.mcf", "638.imagick", "456.hmmer")
    WARMUP, MEASURE = 3_000, 12_000
    SAMPLE_INTERVAL = 1_500

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.core import PinteConfig
        from repro.sim import simulator

        config, s = self.config, self.seed
        for name in self.WORKLOADS:
            trace = self._trace(name, self.WARMUP + self.MEASURE, s)
            for p in (None,) + self.P_INDUCE:
                pinte = PinteConfig(p, seed=s) if p is not None else None

                def run(trace=trace, pinte=pinte):
                    return simulator.simulate(
                        trace, config, pinte=pinte,
                        warmup_instructions=self.WARMUP,
                        sim_instructions=self.MEASURE,
                        sample_interval=self.SAMPLE_INTERVAL, seed=s)
                label = "iso" if p is None else f"p{p}"
                self.jobs.append(SimJob(f"{name}@{label}", "timing", run))


class ReplayLlc(SimWorkload):
    """Cache-only replay of LLC-bound traces across ``P_induce`` 0..1."""

    name = "replay-llc"
    P_INDUCE = (0.0, 0.5, 1.0)
    WORKLOADS = ("470.lbm", "605.mcf", "450.soplex")
    RECORDS = 40_000
    WARMUP_ACCESSES = 2_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.core import PinteConfig
        from repro.sim import fastcache

        config, s = self.config, self.seed
        for name in self.WORKLOADS:
            trace = self._trace(name, self.RECORDS, s)
            for p in self.P_INDUCE:
                def run(trace=trace, pinte=PinteConfig(p, seed=s)):
                    return fastcache.simulate_cache_only(
                        trace, config, pinte=pinte,
                        warmup_accesses=self.WARMUP_ACCESSES, seed=s)
                self.jobs.append(SimJob(f"{name}@p{p}", "replay", run,
                                        records=len(trace)))


class Pair2ndTrace(SimWorkload):
    """``simulate_pair`` without PInTE: natural thefts between two cores."""

    name = "pair-2ndtrace"
    PAIRS = (("605.mcf", "453.povray"), ("470.lbm", "450.soplex"),
             ("450.soplex", "605.mcf"), ("435.gromacs", "470.lbm"),
             ("638.imagick", "605.mcf"))
    WARMUP, MEASURE = 1_500, 6_000
    SAMPLE_INTERVAL = 750

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.sim import multicore

        config, s = self.config, self.seed
        length = self.WARMUP + self.MEASURE
        traces = {}
        for primary, secondary in self.PAIRS:
            for name, trace_seed in ((primary, s), (secondary, s + 1)):
                if (name, trace_seed) not in traces:
                    traces[name, trace_seed] = self._trace(name, length,
                                                           trace_seed)

            def run(a=traces[primary, s], b=traces[secondary, s + 1]):
                return multicore.simulate_pair(
                    a, b, config, warmup_instructions=self.WARMUP,
                    sim_instructions=self.MEASURE,
                    sample_interval=self.SAMPLE_INTERVAL, seed=s)
            self.jobs.append(SimJob(f"{primary}+{secondary}", "pair", run))


# ---------------------------------------------------------------------------
# The reproduction workload
# ---------------------------------------------------------------------------

@dataclass
class RoundOutcome:
    """One ``run_reproduction`` call: per-job counters plus campaign facts."""

    counters: Dict[str, List[int]] = field(default_factory=dict)
    failed_ids: List[str] = field(default_factory=list)
    job_seconds: List[float] = field(default_factory=list)
    trace_hits: int = 0
    trace_misses: int = 0
    trace_seconds: float = 0.0
    campaign_seconds: float = 0.0
    pool_steals: int = 0
    retries: int = 0
    failures: int = 0
    error: Optional[str] = None


class ReproduceQuick:
    """The eight bundle artifacts on ``QUICK_SUITE`` through the campaign pool.

    Each round runs with a cold on-disk ``TraceStore`` and a fresh
    ``ResultStore`` in a new directory, and reads the per-job results back
    from the store, so a failed job is visible even when the campaign
    raises.
    """

    name = "reproduce-quick"
    fields = CAMPAIGN_FIELDS
    P_INDUCE = (0.1, 0.5, 1.0)
    PANEL_SIZE = 2
    WARMUP, MEASURE = 1_000, 4_000
    SAMPLE_INTERVAL = 500

    def __init__(self, seed: int, workdir: Path, processes: int) -> None:
        from repro import ExperimentScale, scaled_config
        from repro.experiments import QUICK_SUITE
        from repro.experiments import registry
        from repro.experiments.reproduce import select_artifacts

        self.seed = input_seed(seed)
        self.config = scaled_config()
        self.scale = ExperimentScale(self.WARMUP, self.MEASURE,
                                     self.SAMPLE_INTERVAL, seed=self.seed)
        self.suite = tuple(QUICK_SUITE)
        self.workdir = Path(workdir)
        self.processes = processes
        ctx = registry.PlanContext(config=self.config, scale=self.scale,
                                   suite=self.suite, p_values=self.P_INDUCE,
                                   panel_size=self.PANEL_SIZE)
        plan = registry.plan_union(select_artifacts(), ctx)
        self.job_ids = [item.id for item in plan.unique]
        self.dedup_ratio = plan.dedup_ratio
        self._rounds = 0

    def run_round(self, capture: Sequence) -> RoundOutcome:
        """One reproduction; ``capture`` collects ``execute_plan`` outcomes."""
        from repro.campaign.store import ResultStore
        from repro.experiments import reproduce

        self._rounds += 1
        root = self.workdir / f"round-{self._rounds}"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        outcome = RoundOutcome()
        try:
            try:
                reproduce.run_reproduction(
                    config=self.config, scale=self.scale, suite=self.suite,
                    p_values=self.P_INDUCE, panel_size=self.PANEL_SIZE,
                    processes=self.processes, trace_store=root / "traces",
                    store=root / "results.jsonl")
            except Exception as exc:  # counted as failed jobs, never a crash
                outcome.error = f"{type(exc).__name__}: {exc}"
            stored = ResultStore(root / "results.jsonl").load()
            results = stored.result_objects()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for jid in self.job_ids:
            result = results.get(jid)
            if result is None:
                outcome.failed_ids.append(jid)
                continue
            outcome.counters[jid] = campaign_counters(result, self.WARMUP)
            outcome.job_seconds.append(result.wall_time_seconds)
            outcome.trace_hits += int(result.extra.get("trace_cache_hits", 0))
            outcome.trace_misses += int(
                result.extra.get("trace_cache_misses", 0))
            outcome.trace_seconds += result.extra.get(
                "phase_trace_gen_seconds", 0.0)
        for execution in capture:
            for report in execution.reports:
                outcome.campaign_seconds += report.wall_time_seconds
                outcome.pool_steals += report.pool_steals
                outcome.retries += report.retries
                outcome.failures += report.failed
        return outcome


SIM_WORKLOADS = {cls.name: cls for cls in (TimingPinte, ReplayLlc,
                                           Pair2ndTrace)}
WORKLOAD_NAMES: Tuple[str, ...] = (*SIM_WORKLOADS, ReproduceQuick.name)
