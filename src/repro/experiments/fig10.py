"""Fig 10 — real system vs PInTE contention.

The paper runs six SPEC 17 benchmarks on a Xeon Silver 4110 with Intel RDT
capping the workload at 10 of 11 MB of LLC, then compares against a
re-configured ChampSim with halved DRAM resources. We cannot run the Xeon,
so (per the substitution rule) the "real system" is the same simulator in the
:func:`~repro.config.xeon_config` configuration running 2nd-Trace pairs —
measured through the *change-in-occupancy* proxy (Eq. 6), exactly the metric
the paper uses because real machines lack theft counters. The PInTE side
sweeps ``P_induce`` on the same configuration with interference rate as its
x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.occupancy import mean_change_in_occupancy
from repro.config import MachineConfig, xeon_config
from repro.experiments.plan import (
    PlannedJob,
    ResultMap,
    execute_jobs,
    panel_pair_job,
)
from repro.experiments.reporting import format_table
from repro.experiments.suites import FIG10_SUITE
from repro.sim import ExperimentScale, SimulationResult, adversary_panel
from repro.sim.batch import Job

#: Reduced sweep for the Fig 10 bench (six points across the range).
FIG10_PINDUCE = (0.02, 0.05, 0.15, 0.35, 0.6, 1.0)
#: 2nd-Trace panel size of the Fig 10 scatter.
FIG10_PANEL_SIZE = 3


@dataclass
class Fig10Point:
    """One scatter point: contention proxy -> % change in IPC."""

    x: float  # change in occupancy (real) or interference rate (PInTE)
    ipc_change_percent: float


@dataclass
class Fig10Result:
    #: benchmark -> scatter under "real" (2nd-Trace on the xeon config)
    """Occupancy-change scatter points for the real-proxy and PInTE runs."""
    real_points: Dict[str, List[Fig10Point]]
    #: benchmark -> scatter under PInTE
    pinte_points: Dict[str, List[Fig10Point]]
    allocation_fraction: float

    def max_loss(self, benchmark: str, which: str) -> float:
        points = (self.real_points if which == "real"
                  else self.pinte_points).get(benchmark, [])
        if not points:
            return 0.0
        return min(point.ipc_change_percent for point in points)

    def classification_agreement(self, threshold: float = 5.0) -> Dict[str, bool]:
        """Do real and PInTE agree on whether losses exceed ``threshold``%?"""
        agreement = {}
        for name in self.real_points:
            real_sensitive = self.max_loss(name, "real") < -threshold
            pinte_sensitive = self.max_loss(name, "pinte") < -threshold
            agreement[name] = real_sensitive == pinte_sensitive
        return agreement


def _percent_change(results: Sequence[SimulationResult]) -> List[float]:
    """% change in IPC relative to the lowest-contention case, as in the
    paper's dotted 1/5/10% reference lines."""
    if not results:
        return []
    baseline = max(r.ipc for r in results)
    if baseline <= 0:
        return [0.0] * len(results)
    return [100.0 * (r.ipc / baseline - 1.0) for r in results]


def _sweep_job(name: str, p: float) -> Job:
    return Job(name, mode="pinte", p_induce=p)


def plan_fig10(
    names: Sequence[str],
    config: MachineConfig,
    scale: ExperimentScale,
    p_values: Sequence[float] = FIG10_PINDUCE,
    panel_size: int = FIG10_PANEL_SIZE,
) -> List[PlannedJob]:
    """The PInTE sweep of every benchmark, then each one's pair panel."""
    jobs = [_sweep_job(name, p) for name in names for p in p_values]
    jobs.extend(panel_pair_job(name, other, scale)
                for name in names
                for other in adversary_panel(name, names, panel_size))
    return [PlannedJob(job, config, scale) for job in jobs]


def fig10_from_results(
    results: ResultMap,
    names: Sequence[str],
    config: MachineConfig,
    scale: ExperimentScale,
    p_values: Sequence[float] = FIG10_PINDUCE,
    panel_size: int = FIG10_PANEL_SIZE,
) -> Fig10Result:
    """Both scatters from :func:`plan_fig10`'s results.

    The real side plots the Eq. 6 change in occupancy of each pair, the
    PInTE side the interference rate of each sweep point; both against
    the % change in IPC from the benchmark's best run.
    """
    allocation = ((config.llc_way_allocation or config.llc.assoc)
                  / config.llc.assoc)
    real_points: Dict[str, List[Fig10Point]] = {}
    pinte_points: Dict[str, List[Fig10Point]] = {}
    for name in names:
        pairs = [results.for_job(panel_pair_job(name, other, scale), config,
                                 scale)
                 for other in adversary_panel(name, names, panel_size)]
        real_points[name] = [
            Fig10Point(x=mean_change_in_occupancy([result], allocation),
                       ipc_change_percent=change)
            for result, change in zip(pairs, _percent_change(pairs))
        ]
        sweep = [results.for_job(_sweep_job(name, p), config, scale)
                 for p in p_values]
        pinte_points[name] = [
            Fig10Point(x=result.interference_rate, ipc_change_percent=change)
            for result, change in zip(sweep, _percent_change(sweep))
        ]
    return Fig10Result(real_points=real_points, pinte_points=pinte_points,
                       allocation_fraction=allocation)


def run_fig10(
    names: Sequence[str] = tuple(FIG10_SUITE),
    config: MachineConfig = None,
    scale: ExperimentScale = None,
    p_values: Sequence[float] = FIG10_PINDUCE,
    panel_size: int = FIG10_PANEL_SIZE,
) -> Fig10Result:
    """Run the xeon-config 2nd-Trace proxy against the PInTE sweep."""
    config = config if config is not None else xeon_config()
    scale = scale if scale is not None else ExperimentScale()
    names = list(names)
    results = execute_jobs(plan_fig10(names, config, scale, p_values,
                                      panel_size))
    return fig10_from_results(results, names, config, scale, p_values,
                              panel_size)


def format_report(result: Fig10Result) -> str:
    """Render per-benchmark occupancy slopes and classification agreement."""
    rows = []
    agreement = result.classification_agreement()
    for name in sorted(result.real_points):
        rows.append((
            name,
            result.max_loss(name, "real"),
            result.max_loss(name, "pinte"),
            "yes" if agreement[name] else "NO",
        ))
    table = format_table(
        ["Benchmark", "real max ΔIPC %", "PInTE max ΔIPC %", "agree@5%"],
        rows,
        title=(f"Fig 10: 'real system' (xeon config, RDT allocation "
               f"{result.allocation_fraction:.0%}) vs PInTE"),
    )
    detail_parts = [table]
    for name in sorted(result.real_points):
        real = " ".join(f"({p.x:.1f}%,{p.ipc_change_percent:+.1f}%)"
                        for p in result.real_points[name])
        pinte = " ".join(f"({p.x:.2f},{p.ipc_change_percent:+.1f}%)"
                         for p in result.pinte_points[name])
        detail_parts.append(
            f"{name}\n  real (Δoccupancy -> ΔIPC): {real}\n"
            f"  PInTE (interference rate -> ΔIPC): {pinte}"
        )
    return "\n\n".join(detail_parts)
