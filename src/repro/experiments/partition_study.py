"""Extension study: cache partitioning vs. theft contention.

The paper positions thefts as the direct signal of LLC contention and its
related work covers the partitioning schemes built to suppress them
(Section VII-d). This study closes the loop: run a victim/aggressor pair
under four LLC management schemes — unpartitioned sharing, static even way
partitioning, UCP, and CASHT-style theft-driven partitioning — and compare
thefts, per-workload weighted IPC, and system throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.throughput import throughput_report
from repro.config import MachineConfig
from repro.experiments.plan import PlannedJob, ResultMap, execute_jobs
from repro.experiments.reporting import format_table
from repro.sim import ExperimentScale, SimulationResult
from repro.sim.batch import Job

#: Default victim/aggressor pair: an LLC-bound workload with real reuse vs a
#: streaming cache-flooder.
DEFAULT_PAIR = ("450.soplex", "470.lbm")
SCHEMES = ("shared", "static", "ucp", "casht")


@dataclass
class SchemeOutcome:
    """One scheme's per-core results and throughput summary."""

    scheme: str
    results: List[SimulationResult]
    throughput: Dict[str, float]
    final_quotas: Dict[int, int] = field(default_factory=dict)

    @property
    def victim_thefts(self) -> int:
        return self.results[0].thefts_experienced

    @property
    def victim_weighted_ipc(self) -> float:
        return self.throughput_component(0)

    def throughput_component(self, core: int) -> float:
        return self.results[core].extra.get(f"wipc_core{core}", 0.0)


@dataclass
class PartitionStudyResult:
    """Theft and throughput outcomes for every partitioning scheme."""
    workloads: Tuple[str, str]
    outcomes: Dict[str, SchemeOutcome]

    def outcome(self, scheme: str) -> SchemeOutcome:
        return self.outcomes[scheme]


def _jobs(
    scale: ExperimentScale,
    workloads: Tuple[str, str],
    schemes: Sequence[str],
    repartition_interval: int,
) -> Tuple[Job, Job, Dict[str, Job]]:
    """Both isolation baselines plus one shared co-run per scheme.

    The aggressor runs on the shifted-seed trace (``scale.seed + 1``) it
    gets as a co-runner, and its isolation baseline pins that seed too.
    """
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")
    victim, aggressor = workloads
    co_runs = {
        scheme: Job(victim, mode="multi", co_runners=(aggressor,),
                    scheme=scheme, repartition_interval=repartition_interval)
        for scheme in schemes
    }
    return (Job(victim), Job(aggressor, trace_seed=scale.seed + 1), co_runs)


def plan_partition_study(
    config: MachineConfig,
    scale: ExperimentScale,
    workloads: Tuple[str, str] = DEFAULT_PAIR,
    schemes: Sequence[str] = SCHEMES,
    repartition_interval: int = 4_000,
) -> List[PlannedJob]:
    """Plan the isolation baselines plus one co-run per scheme."""
    iso_victim, iso_aggressor, co_runs = _jobs(scale, workloads, schemes,
                                               repartition_interval)
    return [PlannedJob(job, config, scale)
            for job in (iso_victim, iso_aggressor, *co_runs.values())]


def partition_from_results(
    results: ResultMap,
    config: MachineConfig,
    scale: ExperimentScale,
    workloads: Tuple[str, str] = DEFAULT_PAIR,
    schemes: Sequence[str] = SCHEMES,
    repartition_interval: int = 4_000,
) -> PartitionStudyResult:
    """Per-scheme outcomes from :func:`plan_partition_study`'s results.

    Each co-run's final partition quotas come home in its ``extra``.
    """
    iso_victim, iso_aggressor, co_runs = _jobs(scale, workloads, schemes,
                                               repartition_interval)
    isolations = [results.for_job(iso_victim, config, scale),
                  results.for_job(iso_aggressor, config, scale)]
    outcomes: Dict[str, SchemeOutcome] = {}
    for scheme, job in co_runs.items():
        primary = results.for_job(job, config, scale)
        quotas = {
            int(key.rsplit("_", 1)[1]): int(value)
            for key, value in primary.extra.items()
            if key.startswith("partition_quota_")
        }
        outcomes[scheme] = outcome_from_results(
            scheme, [primary] + list(primary.co_results), isolations, quotas)
    return PartitionStudyResult(workloads=tuple(workloads), outcomes=outcomes)


def run_partition_study(
    config: MachineConfig,
    scale: ExperimentScale,
    workloads: Tuple[str, str] = DEFAULT_PAIR,
    schemes: Sequence[str] = SCHEMES,
    repartition_interval: int = 4_000,
) -> PartitionStudyResult:
    """Run the victim/aggressor pair under each partitioning scheme."""
    results = execute_jobs(plan_partition_study(
        config, scale, workloads, schemes, repartition_interval))
    return partition_from_results(results, config, scale, workloads, schemes,
                                  repartition_interval)


def outcome_from_results(
    scheme: str,
    results: List[SimulationResult],
    isolations: List[SimulationResult],
    final_quotas: Dict[int, int],
) -> SchemeOutcome:
    """Build one scheme's outcome from its per-core and isolation results."""
    throughput = throughput_report(results, isolations)
    for core, (shared, alone) in enumerate(zip(results, isolations)):
        results[core].extra[f"wipc_core{core}"] = shared.ipc / alone.ipc
    return SchemeOutcome(
        scheme=scheme,
        results=results,
        throughput=throughput,
        final_quotas=final_quotas,
    )


def format_report(result: PartitionStudyResult) -> str:
    """Render the partitioning comparison table."""
    victim_name, aggressor_name = result.workloads
    rows = []
    for scheme, outcome in result.outcomes.items():
        quotas = (f"{outcome.final_quotas.get(0)}/{outcome.final_quotas.get(1)}"
                  if outcome.final_quotas else "-")
        rows.append((
            scheme,
            outcome.victim_thefts,
            outcome.throughput_component(0),
            outcome.throughput_component(1),
            outcome.throughput["weighted_speedup"],
            outcome.throughput["fairness"],
            quotas,
        ))
    return format_table(
        ["Scheme", "victim thefts", "victim wIPC", "aggr. wIPC",
         "wSpeedup", "fairness", "quotas"],
        rows,
        title=(f"Partitioning study: {victim_name} (victim) vs "
               f"{aggressor_name} (aggressor)"),
    )
