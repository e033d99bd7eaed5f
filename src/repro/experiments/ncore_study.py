"""Extension study: does adding cores fix 2nd-Trace's coverage problem?

The paper's motivation argues that multi-programmed simulation gets *more*
expensive with core count while still not guaranteeing contention coverage.
This study measures both claims: for 2, 3 and 4 concurrent workloads it
records the victim's observed contention rate and the wall-clock cost, then
compares against a PInTE sweep that reaches the same (and higher) contention
for a fraction of the cost on one core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.config import MachineConfig
from repro.experiments.plan import PlannedJob, ResultMap, execute_jobs
from repro.experiments.reporting import format_table
from repro.sim import ExperimentScale, SimulationResult
from repro.sim.batch import Job

#: Victim measured throughout; adversaries appended per core count.
DEFAULT_VICTIM = "450.soplex"
DEFAULT_ADVERSARIES = ("435.gromacs", "470.lbm", "605.mcf")
DEFAULT_PINDUCE = (0.05, 0.2, 0.5, 1.0)


@dataclass
class NcoreResult:
    """Coverage and cost measurements for one core count."""
    victim: str
    #: core count -> the victim's result in that co-run
    by_cores: Dict[int, SimulationResult]
    #: P_induce -> the victim's PInTE result
    pinte: Dict[float, SimulationResult]

    def contention_reached(self, cores: int) -> float:
        return self.by_cores[cores].contention_rate

    def pinte_max_contention(self) -> float:
        return max(r.contention_rate for r in self.pinte.values())

    def cost(self, cores: int) -> float:
        return self.by_cores[cores].wall_time_seconds

    def pinte_mean_cost(self) -> float:
        costs = [r.wall_time_seconds for r in self.pinte.values()]
        return sum(costs) / len(costs)


def _corun_job(victim: str, adversaries: Sequence[str], extra: int) -> Job:
    """The (1 + extra)-core co-run; co-runner i's trace seed is
    ``scale.seed + 1 + i``."""
    return Job(victim, mode="multi", co_runners=tuple(adversaries[:extra]))


def _pinte_job(victim: str, p: float) -> Job:
    return Job(victim, mode="pinte", p_induce=p)


def plan_ncore_study(
    config: MachineConfig,
    scale: ExperimentScale,
    victim: str = DEFAULT_VICTIM,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    p_values: Sequence[float] = DEFAULT_PINDUCE,
) -> List[PlannedJob]:
    """The 2..N-core co-runs, then the victim's single-core PInTE sweep."""
    jobs = [_corun_job(victim, adversaries, extra)
            for extra in range(1, len(adversaries) + 1)]
    jobs.extend(_pinte_job(victim, p) for p in p_values)
    return [PlannedJob(job, config, scale) for job in jobs]


def ncore_from_results(
    results: ResultMap,
    config: MachineConfig,
    scale: ExperimentScale,
    victim: str = DEFAULT_VICTIM,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    p_values: Sequence[float] = DEFAULT_PINDUCE,
) -> NcoreResult:
    """Key :func:`plan_ncore_study`'s results by core count and P_induce."""
    by_cores = {
        extra + 1: results.for_job(_corun_job(victim, adversaries, extra),
                                   config, scale)
        for extra in range(1, len(adversaries) + 1)
    }
    pinte = {p: results.for_job(_pinte_job(victim, p), config, scale)
             for p in p_values}
    return NcoreResult(victim=victim, by_cores=by_cores, pinte=pinte)


def run_ncore_study(
    config: MachineConfig,
    scale: ExperimentScale,
    victim: str = DEFAULT_VICTIM,
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
    p_values: Sequence[float] = DEFAULT_PINDUCE,
) -> NcoreResult:
    """Measure contention coverage and wall-clock cost as core count grows."""
    results = execute_jobs(plan_ncore_study(config, scale, victim,
                                            adversaries, p_values))
    return ncore_from_results(results, config, scale, victim, adversaries,
                              p_values)


def format_report(result: NcoreResult) -> str:
    """Render the core-count study tables."""
    rows: List[tuple] = []
    for cores in sorted(result.by_cores):
        run = result.by_cores[cores]
        rows.append((f"{cores}-core co-run", run.contention_rate,
                     run.interference_rate, run.ipc, run.wall_time_seconds))
    for p in sorted(result.pinte):
        run = result.pinte[p]
        rows.append((f"PInTE p={p}", run.contention_rate,
                     run.interference_rate, run.ipc, run.wall_time_seconds))
    table = format_table(
        ["Context", "contention", "interference", "IPC", "wall (s)"],
        rows,
        title=f"N-core coverage/cost study — victim {result.victim}",
    )
    summary = (
        f"max contention from co-runs: "
        f"{max(result.contention_reached(c) for c in result.by_cores):.3f} "
        f"(4-core wall {result.cost(max(result.by_cores)):.2f}s); "
        f"PInTE reaches {result.pinte_max_contention():.3f} at "
        f"{result.pinte_mean_cost():.2f}s mean per run on one core"
    )
    return table + "\n\n" + summary
