"""Declarative artifact registry: plan → execute → aggregate → render.

The paper's evaluation is one campaign viewed thirteen ways (Section V-A
*Running Context*). This module makes that literal: every table/figure is
an :class:`Artifact` with three pure-ish phases —

* ``plan(ctx) -> [PlannedJob]`` — enumerate the simulations the artifact
  needs (**no simulation happens here**; a plan is just jobs plus the
  machine/scale each runs under);
* ``aggregate(ctx, results) -> result object`` — reconstruct the
  artifact's result dataclass from campaign results;
* ``render(result) -> str`` — the driver's ``format_report``.

The bundle artifacts share :func:`plan_bundle` and
:func:`bundle_from_results`; each standalone study (Fig 3/10/11, the
n-core and partitioning studies) owns its plan and aggregation in its
own module, and its artifact only binds :class:`PlanContext` to them.
Between plan and aggregate sits :func:`~repro.experiments.plan.execute_plan`,
the one route every experiment job takes through the fault-tolerant
campaign engine (:mod:`repro.campaign`), so every artifact gets retries,
timeouts, sharding, the shared trace cache, a persistent result store
and resume.

:func:`plan_union` exploits the deterministic job ids of
:mod:`repro.campaign.ids`: jobs requested by several artifacts (isolation
runs feed Table I *and* the partitioning study; the PInTE sweep feeds six
figures) are planned once and executed once, with results fanned back to
every consumer through the id-keyed :class:`ResultMap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.config import MachineConfig
from repro.configs import get_machine_config
from repro.core import PAPER_PINDUCE_SWEEP
from repro.experiments import (
    fig1,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    ncore_study,
    partition_study,
    table1,
    table2,
)
from repro.experiments.contexts import ContextBundle
from repro.experiments.plan import (
    ExecutionOutcome,
    PlannedJob,
    ResultMap,
    UnionPlan,
    execute_plan,
    panel_pair_job,
    unique_jobs,
)
from repro.experiments.suites import FIG10_SUITE
from repro.sim import ExperimentScale, SimulationResult, adversary_panel
from repro.sim.batch import Job

__all__ = [
    "Artifact",
    "ExecutionOutcome",
    "PlanContext",
    "PlannedJob",
    "REGISTRY",
    "ResultMap",
    "UnionPlan",
    "artifact_names",
    "bundle_from_results",
    "execute_plan",
    "get_artifact",
    "plan_bundle",
    "plan_union",
    "register",
]


@dataclass(frozen=True)
class PlanContext:
    """Shared planning inputs: machine, scale, suite and sweep shape.

    This is the ``(config, scale, suite)`` triple every artifact plans
    against, plus the two campaign-shape knobs ``repro reproduce`` exposes
    (the P_induce sweep and the 2nd-Trace panel size). Artifacts that pin
    their own suite or machine (Fig 10's xeon config, the case-study
    suite) ignore the corresponding field.
    """

    config: MachineConfig
    scale: ExperimentScale
    suite: Tuple[str, ...]
    p_values: Tuple[float, ...] = tuple(PAPER_PINDUCE_SWEEP)
    panel_size: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "suite", tuple(self.suite))
        object.__setattr__(self, "p_values", tuple(self.p_values))


@dataclass(frozen=True)
class Artifact:
    """One registered table/figure: plan → aggregate → render."""

    name: str
    title: str
    plan: Callable[[PlanContext], List[PlannedJob]]
    aggregate: Callable[[PlanContext, "ResultMap"], object]
    render: Callable[[object], str]

    def report(self, ctx: PlanContext, results: "ResultMap") -> str:
        """Aggregate and render in one step."""
        return self.render(self.aggregate(ctx, results))


#: Registered artifacts in registration (= canonical rendering) order.
REGISTRY: Dict[str, Artifact] = {}


def register(artifact: Artifact) -> Artifact:
    """Add one artifact to the registry (name must be unused)."""
    if artifact.name in REGISTRY:
        raise ValueError(f"artifact {artifact.name!r} already registered")
    REGISTRY[artifact.name] = artifact
    return artifact


def get_artifact(name: str) -> Artifact:
    """Look up one artifact; ``KeyError`` lists what is registered."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown artifact {name!r}; registered: "
                       f"{', '.join(REGISTRY)}") from None


def artifact_names() -> List[str]:
    """All registered artifact names, registration order."""
    return list(REGISTRY)


# --------------------------------------------------------------------------
# Union planning
# --------------------------------------------------------------------------

def plan_union(names: Sequence[str], ctx: PlanContext) -> UnionPlan:
    """Plan every named artifact and deduplicate across them by job id."""
    per_artifact = {name: get_artifact(name).plan(ctx) for name in names}
    unique = unique_jobs(item for planned in per_artifact.values()
                         for item in planned)
    return UnionPlan(artifacts=tuple(names), per_artifact=per_artifact,
                     unique=unique)


# --------------------------------------------------------------------------
# Bundle artifacts (Table I/II, Fig 1/5/6/7/8/9) — one shared plan
# --------------------------------------------------------------------------

def plan_bundle(ctx: PlanContext) -> List[PlannedJob]:
    """The shared three-context campaign every bundle artifact consumes:
    isolation runs, then the PInTE sweep, then the 2nd-Trace panels."""
    names = list(ctx.suite)
    jobs: List[Job] = [Job(name) for name in names]
    for name in names:
        jobs.extend(Job(name, mode="pinte", p_induce=p)
                    for p in ctx.p_values)
    if ctx.panel_size > 0:
        for name in names:
            panel = adversary_panel(name, names, ctx.panel_size)
            jobs.extend(panel_pair_job(name, other, ctx.scale)
                        for other in panel)
    return [PlannedJob(job, ctx.config, ctx.scale) for job in jobs]


def bundle_from_results(ctx: PlanContext,
                        results: ResultMap) -> ContextBundle:
    """Assemble the :class:`ContextBundle` of :func:`plan_bundle`'s results.

    Bundles are built only here; with ``ctx.panel_size == 0`` the bundle
    has no pairs.
    """
    names = list(ctx.suite)

    def res(job: Job) -> SimulationResult:
        return results.for_job(job, ctx.config, ctx.scale)

    isolation = {name: res(Job(name)) for name in names}
    pinte = {
        name: {p: res(Job(name, mode="pinte", p_induce=p))
               for p in ctx.p_values}
        for name in names
    }
    pairs: Dict[str, List[SimulationResult]] = {}
    if ctx.panel_size > 0:
        for name in names:
            panel = adversary_panel(name, names, ctx.panel_size)
            pairs[name] = [res(panel_pair_job(name, other, ctx.scale))
                           for other in panel]
    return ContextBundle(config=ctx.config, scale=ctx.scale, names=names,
                         isolation=isolation, pinte=pinte, pairs=pairs)


def _bundle_artifact(name: str, title: str, run: Callable,
                     render: Callable) -> Artifact:
    """Register one artifact that post-processes the shared bundle."""
    def aggregate(ctx: PlanContext, results: ResultMap):
        return run(bundle_from_results(ctx, results))
    return register(Artifact(name=name, title=title, plan=plan_bundle,
                             aggregate=aggregate, render=render))


def _aggregate_fig5(ctx: PlanContext, results: ResultMap):
    """Fig 5 with the reduced-suite fallback ``run_reproduction`` used."""
    bundle = bundle_from_results(ctx, results)
    try:
        return fig5.run_fig5(bundle)
    except ValueError:
        # The Fig 5 exemplars may not be in a reduced suite; fall back to
        # whatever the bundle contains.
        return fig5.run_fig5(bundle, workloads=tuple(bundle.names[:3]))


_bundle_artifact("table1", "Table I: simulation run-times and experiment "
                 "sizes", table1.run_table1, table1.format_report)
_bundle_artifact("fig1", "Fig 1: contention-rate coverage, 2nd-Trace vs "
                 "PInTE", fig1.run_fig1, fig1.format_report)
_bundle_artifact("table2", "Table II: average relative error in performance "
                 "metrics", table2.run_table2, table2.format_report)
register(Artifact(name="fig5", title="Fig 5: reuse histograms under PInTE "
                  "vs 2nd-Trace", plan=plan_bundle,
                  aggregate=_aggregate_fig5, render=fig5.format_report))
_bundle_artifact("fig6", "Fig 6: reuse KL divergence and worst-case root "
                 "cause", fig6.run_fig6, fig6.format_report)
_bundle_artifact("fig7", "Fig 7: run-time metric entropy and CRG coverage",
                 fig7.run_fig7, fig7.format_report)
_bundle_artifact("fig8", "Fig 8: contention sensitivity curves",
                 fig8.run_fig8, fig8.format_report)
_bundle_artifact("fig9", "Fig 9: AMAT under contention",
                 fig9.run_fig9, fig9.format_report)


# --------------------------------------------------------------------------
# Standalone studies — each module's own plan, bound to the context
# --------------------------------------------------------------------------

def _study_artifact(name: str, title: str, plan: Callable,
                    from_results: Callable, render: Callable,
                    params: Callable[[PlanContext], dict]) -> Artifact:
    """Register one study; ``params(ctx)`` gives the keyword arguments its
    ``plan`` and ``from_results`` both take."""
    return register(Artifact(
        name=name, title=title,
        plan=lambda ctx: plan(**params(ctx)),
        aggregate=lambda ctx, results: from_results(results, **params(ctx)),
        render=render))


#: Fig 3 repeats at reproduction scale (the paper runs 25).
FIG3_REPEATS = 3


def _fig3_params(ctx: PlanContext) -> dict:
    """Fig 3's reduced suite and sweep."""
    return dict(names=list(ctx.suite)[:4], config=ctx.config,
                scale=ctx.scale,
                p_values=tuple(ctx.p_values[::3]) or tuple(ctx.p_values),
                n_repeats=FIG3_REPEATS)


def _machine_params(ctx: PlanContext) -> dict:
    """The context's machine and scale; everything else at its default."""
    return dict(config=ctx.config, scale=ctx.scale)


_study_artifact("fig3", "Fig 3: PInTE stability across seeds",
                fig3.plan_fig3, fig3.fig3_from_results, fig3.format_report,
                _fig3_params)
_study_artifact("fig10", "Fig 10: real-system proxy vs PInTE (xeon config)",
                fig10.plan_fig10, fig10.fig10_from_results,
                fig10.format_report,
                lambda ctx: dict(names=list(FIG10_SUITE),
                                 config=get_machine_config("xeon"),
                                 scale=ctx.scale))
_study_artifact("fig11", "Fig 11: best design choice vs contention level",
                fig11.plan_fig11, fig11.fig11_from_results,
                fig11.format_report, _machine_params)
_study_artifact("ncore_study", "N-core coverage/cost study",
                ncore_study.plan_ncore_study, ncore_study.ncore_from_results,
                ncore_study.format_report, _machine_params)
_study_artifact("partition_study",
                "Partitioning study: thefts vs LLC management",
                partition_study.plan_partition_study,
                partition_study.partition_from_results,
                partition_study.format_report, _machine_params)
