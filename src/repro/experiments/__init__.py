"""Experiment drivers: one module per paper table/figure.

Most drivers consume a shared :class:`~repro.experiments.contexts.ContextBundle`
(isolation + PInTE sweep + 2nd-Trace panel over one suite); Fig 3, 10, 11
and the n-core and partitioning studies plan their own jobs. Either way
every job runs through :func:`repro.experiments.plan.execute_plan` and the
campaign engine. Every driver exposes ``run_*`` returning a result
dataclass and ``format_report`` rendering the paper-style rows/series.
"""

from repro.experiments import (
    ablations,
    ncore_study,
    partition_study,
    fig1,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
    table2,
)
from repro.experiments.contexts import ContextBundle
from repro.experiments.suites import (
    CASE_STUDY_SUITE,
    CORE_SUITE,
    FIG10_SUITE,
    FIG5_WORKLOADS,
    FULL_SUITE,
    QUICK_SUITE,
)
# The registry imports every driver module above, so it must come last.
from repro.experiments import registry

__all__ = [
    "CASE_STUDY_SUITE",
    "CORE_SUITE",
    "ContextBundle",
    "FIG10_SUITE",
    "FIG5_WORKLOADS",
    "FULL_SUITE",
    "QUICK_SUITE",
    "ablations",
    "fig1",
    "ncore_study",
    "partition_study",
    "registry",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table1",
    "table2",
]
