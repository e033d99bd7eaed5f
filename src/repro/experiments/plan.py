"""Planned jobs and their execution through the campaign engine.

Every experiment — a registered artifact, a standalone study driver or
``repro sweep`` — runs the same way: a plan lists :class:`PlannedJob`
items (job plus the machine/scale it runs under), :func:`execute_plan`
routes them through :func:`repro.campaign.run_campaign` (inline for
``processes <= 1``, the pool/spawn executors otherwise), and the caller
looks results up by deterministic job id in the returned
:class:`ResultMap`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.engine import CampaignReport, RetryPolicy, run_campaign
from repro.campaign.ids import job_id
from repro.campaign.store import ResultStore
from repro.config import MachineConfig
from repro.sim import ExperimentScale, SimulationResult
from repro.sim.batch import Job
from repro.trace.spec_models import get_workload
from repro.trace.store import MemoryTraceStore

__all__ = [
    "ExecutionOutcome",
    "PlannedJob",
    "ResultMap",
    "UnionPlan",
    "execute_jobs",
    "execute_plan",
    "panel_pair_job",
    "unique_jobs",
]


@dataclass(frozen=True)
class PlannedJob:
    """One job plus the machine/scale it runs under.

    Artifacts may plan jobs on *different* machine configs (Fig 11 sweeps
    config variants; Fig 10 uses the xeon config), so the pair travels
    with the job — and is hashed into :attr:`id`, which is what makes the
    union planner's dedup sound across configs.
    """

    job: Job
    config: MachineConfig
    scale: ExperimentScale

    @property
    def id(self) -> str:
        """The deterministic campaign id this job will execute under."""
        return job_id(self.job, self.config, self.scale)


class ResultMap:
    """Campaign results keyed by deterministic job id."""

    def __init__(self, results_by_id: Dict[str, SimulationResult]) -> None:
        self._by_id = dict(results_by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, jid: str) -> bool:
        return jid in self._by_id

    def for_id(self, jid: str) -> SimulationResult:
        """The result stored under one job id."""
        try:
            return self._by_id[jid]
        except KeyError:
            raise KeyError(
                f"no result for job id {jid}; the campaign holds "
                f"{len(self._by_id)} results — was the plan fully "
                "executed (check the failure manifest)?") from None

    def for_job(self, job: Job, config: MachineConfig,
                scale: ExperimentScale) -> SimulationResult:
        """The result of one (job, config, scale) — id computed here."""
        return self.for_id(job_id(job, config, scale))

    def get(self, planned: PlannedJob) -> SimulationResult:
        """The result of one planned job."""
        return self.for_id(planned.id)


def panel_pair_job(name: str, other: str, scale: ExperimentScale) -> Job:
    """One 2nd-Trace panel run: ``name`` measured against ``other``.

    Both traces are built at ``scale.seed`` (pair jobs otherwise default
    the co-runner to ``scale.seed + 1``); every pair panel — the shared
    bundle's and Fig 10's — uses this one convention.
    """
    return Job(name, mode="pair", co_runner=other, co_seed=scale.seed)


def unique_jobs(planned: Iterable[PlannedJob]) -> List[PlannedJob]:
    """The first occurrence of every job id, in order."""
    unique: List[PlannedJob] = []
    seen = set()
    for item in planned:
        jid = item.id
        if jid not in seen:
            seen.add(jid)
            unique.append(item)
    return unique


@dataclass
class UnionPlan:
    """Deduplicated union of several artifacts' plans.

    ``unique`` keeps first-occurrence order, so execution order is stable
    and resume skips a well-defined prefix.
    """

    artifacts: Tuple[str, ...]
    per_artifact: Dict[str, List[PlannedJob]]
    unique: List[PlannedJob]

    @property
    def planned_total(self) -> int:
        """Sum of per-artifact plan sizes (jobs *requested*)."""
        return sum(len(planned) for planned in self.per_artifact.values())

    @property
    def unique_total(self) -> int:
        """Jobs that will actually execute."""
        return len(self.unique)

    @property
    def dedup_ratio(self) -> float:
        """Requested jobs per executed job (> 1 means sharing paid off)."""
        if not self.unique:
            return 1.0
        return self.planned_total / self.unique_total


@dataclass
class ExecutionOutcome:
    """Results plus the per-context campaign reports behind them."""

    results: ResultMap
    reports: List[CampaignReport]

    @property
    def executed(self) -> int:
        """Jobs actually simulated in this invocation."""
        return sum(report.executed for report in self.reports)

    @property
    def skipped(self) -> int:
        """Jobs served from the result store (resume)."""
        return sum(report.skipped for report in self.reports)

    @property
    def failed(self) -> int:
        """Jobs that exhausted their retries."""
        return sum(report.failed for report in self.reports)

    @property
    def ok(self) -> bool:
        """True when every campaign pass completed every job."""
        return all(report.ok for report in self.reports)


def _context_key(config: MachineConfig, scale: ExperimentScale) -> str:
    """Canonical grouping key for one (machine, scale) execution context."""
    return json.dumps(
        {"machine": dataclasses.asdict(config),
         "scale": dataclasses.asdict(scale)},
        sort_keys=True, separators=(",", ":"))


def execute_plan(
    plan: UnionPlan,
    *,
    processes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_seconds: Optional[float] = None,
    store=None,
    resume: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    trace_store=None,
    observe=None,
    progress=None,
    inject: Optional[str] = None,
    raise_on_failure: bool = True,
    executor: Optional[str] = None,
) -> ExecutionOutcome:
    """Execute a union plan through the campaign engine.

    Jobs are grouped by (machine config, scale) — one
    :func:`~repro.campaign.run_campaign` pass per context — and every
    pass shares one ``store`` (a path or
    :class:`~repro.campaign.store.ResultStore`), so a single JSONL file
    holds the whole reproduction and ``resume=True`` skips every job id
    it already contains. ``processes`` defaults to 1 (inline execution);
    inline runs without an explicit ``trace_store`` share an in-process
    :class:`~repro.trace.store.MemoryTraceStore` so each input trace is
    built once per invocation.

    ``inject`` names a fault workload (``raise``/``exit``/``hang``/
    ``flaky:N+name`` — the ``__fault:`` prefix is added if missing) that
    is inserted at the midpoint of the first context group, for
    resumability drills. ``shard=(i, n)`` partitions each context group
    deterministically across machines. ``executor`` selects the parallel
    scheduler (``pool``/``spawn``, see
    :func:`repro.campaign.run_campaign`) for every context group.
    """
    processes = 1 if processes is None else processes
    if trace_store is None and timeout_seconds is None and processes <= 1:
        trace_store = MemoryTraceStore()

    groups: Dict[str, Tuple[MachineConfig, ExperimentScale, List[Job]]] = {}
    for item in plan.unique:
        key = _context_key(item.config, item.scale)
        if key not in groups:
            groups[key] = (item.config, item.scale, [])
        groups[key][2].append(item.job)

    result_store: Optional[ResultStore] = None
    if store is not None:
        result_store = (store if isinstance(store, ResultStore)
                        else ResultStore(store))

    results_by_id: Dict[str, SimulationResult] = {}
    reports: List[CampaignReport] = []
    for index, (config, scale, jobs) in enumerate(groups.values()):
        jobs = list(jobs)
        if inject is not None and index == 0:
            fault = (inject if inject.startswith("__fault:")
                     else f"__fault:{inject}")
            jobs.insert(len(jobs) // 2, Job(fault))
        report = run_campaign(
            jobs, config, scale,
            processes=processes,
            retry=retry,
            timeout_seconds=timeout_seconds,
            store=result_store,
            # Later groups append to the store the first group created;
            # ids cannot collide across contexts, so this is safe.
            resume=(resume if index == 0 else result_store is not None),
            shard=shard,
            observe=observe,
            progress=progress,
            raise_on_failure=raise_on_failure,
            trace_store=trace_store,
            executor=executor,
        )
        reports.append(report)
        results_by_id.update(report.results_by_id)
    return ExecutionOutcome(results=ResultMap(results_by_id),
                            reports=reports)


def execute_jobs(planned: Sequence[PlannedJob]) -> ResultMap:
    """Execute one study's plan inline and return its results.

    The route of the standalone drivers (``run_fig3`` and friends) and
    ``repro sweep``. Unknown workload names fail before any job runs,
    with the workload registry's one-line error; a failing job raises
    :class:`~repro.campaign.CampaignError` without retries, because an
    inline simulation fails the same way every time.
    """
    for item in planned:
        job = item.job
        for name in (job.workload, job.co_runner, *(job.co_runners or ())):
            if name is not None:
                get_workload(name)
    plan = UnionPlan(artifacts=(), per_artifact={},
                     unique=unique_jobs(planned))
    return execute_plan(plan, retry=RetryPolicy(max_attempts=1)).results
