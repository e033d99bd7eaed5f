"""Fig 3 — PInTE stability analysis.

Repeats every (workload, P_induce) experiment with different PInTE seeds and
reports the standard deviation of miss rate and IPC normalised to the mean
(Eq. 3). The paper runs 25 repeats of 12 configurations and finds medians
near zero (< 0.00125 for MR, < 0.011 for IPC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.stability import median, normalised_std_dev
from repro.config import MachineConfig
from repro.core import PAPER_PINDUCE_SWEEP
from repro.experiments.plan import PlannedJob, ResultMap, execute_jobs
from repro.experiments.reporting import format_table
from repro.sim import ExperimentScale
from repro.sim.batch import Job


@dataclass
class Fig3Result:
    #: benchmark -> metric -> list of normalised std devs (one per P_induce)
    """Normalised stability standard deviations behind Fig 3."""
    per_benchmark: Dict[str, Dict[str, List[float]]]
    #: p_induce -> metric -> list of normalised std devs (one per benchmark)
    per_config: Dict[float, Dict[str, List[float]]]
    n_repeats: int

    def benchmark_median(self, benchmark: str, metric: str) -> float:
        return median(self.per_benchmark[benchmark][metric])

    def config_median(self, p: float, metric: str) -> float:
        return median(self.per_config[p][metric])

    def worst(self, metric: str) -> float:
        """Largest normalised std dev anywhere (paper-style headline bound)."""
        return max(
            (value
             for by_metric in self.per_benchmark.values()
             for value in by_metric[metric]),
            default=0.0,
        )


METRICS = ("miss_rate", "ipc")


#: PInTE seed base for repeat ``k`` (``1000 + k``).
REPEAT_SEED_BASE = 1000


def _repeat_job(name: str, p: float, k: int) -> Job:
    """One stability run: fixed trace, per-repeat PInTE stream."""
    return Job(name, mode="pinte", p_induce=p,
               pinte_seed=REPEAT_SEED_BASE + k)


def plan_fig3(
    names: Sequence[str],
    config: MachineConfig,
    scale: ExperimentScale,
    p_values: Sequence[float] = PAPER_PINDUCE_SWEEP,
    n_repeats: int = 5,
) -> List[PlannedJob]:
    """The repeat matrix: repeats x names x sweep, one PInTE job each."""
    if n_repeats < 2:
        raise ValueError("stability needs at least two repeats")
    return [PlannedJob(_repeat_job(name, p, k), config, scale)
            for k in range(n_repeats)
            for name in names
            for p in p_values]


def fig3_from_results(
    results: ResultMap,
    names: Sequence[str],
    config: MachineConfig,
    scale: ExperimentScale,
    p_values: Sequence[float] = PAPER_PINDUCE_SWEEP,
    n_repeats: int = 5,
) -> Fig3Result:
    """Normalised spread (Eq. 3) of every (name, P_induce) cell of
    :func:`plan_fig3` across its repeats."""
    per_benchmark: Dict[str, Dict[str, List[float]]] = {
        name: {metric: [] for metric in METRICS} for name in names
    }
    per_config: Dict[float, Dict[str, List[float]]] = {
        p: {metric: [] for metric in METRICS} for p in p_values
    }
    for name in names:
        for p in p_values:
            runs = [results.for_job(_repeat_job(name, p, k), config, scale)
                    for k in range(n_repeats)]
            for metric in METRICS:
                values = [getattr(run, metric) for run in runs]
                mean = sum(values) / len(values)
                if mean == 0:
                    spread = 0.0
                else:
                    spread = normalised_std_dev(values)
                per_benchmark[name][metric].append(spread)
                per_config[p][metric].append(spread)
    return Fig3Result(per_benchmark=per_benchmark, per_config=per_config,
                      n_repeats=n_repeats)


def run_fig3(
    names: Sequence[str],
    config: MachineConfig,
    scale: ExperimentScale,
    p_values: Sequence[float] = PAPER_PINDUCE_SWEEP,
    n_repeats: int = 5,
) -> Fig3Result:
    """Repeat the PInTE sweep ``n_repeats`` times with distinct seeds."""
    results = execute_jobs(plan_fig3(names, config, scale, p_values,
                                     n_repeats))
    return fig3_from_results(results, names, config, scale, p_values,
                             n_repeats)


def format_report(result: Fig3Result) -> str:
    """Render per-benchmark and per-P_induce stability tables."""
    left = format_table(
        ["Benchmark", "median norm-std MR", "median norm-std IPC"],
        [
            (name,
             result.benchmark_median(name, "miss_rate"),
             result.benchmark_median(name, "ipc"))
            for name in sorted(result.per_benchmark)
        ],
        title=f"Fig 3 (left): stability per benchmark over {result.n_repeats} repeats",
    )
    right = format_table(
        ["P_induce", "median norm-std MR", "median norm-std IPC"],
        [
            (p, result.config_median(p, "miss_rate"), result.config_median(p, "ipc"))
            for p in sorted(result.per_config)
        ],
        title="Fig 3 (right): stability per P_induce configuration",
    )
    summary = (
        f"worst normalised std dev: MR={result.worst('miss_rate'):.4f}, "
        f"IPC={result.worst('ipc'):.4f} (paper medians: <0.00125 MR, <0.011 IPC)"
    )
    return "\n\n".join([left, right, summary])
