"""Shared fixtures for the whole test suite.

Simulation-backed fixtures are session-scoped: the expensive campaigns run
once and every analysis/experiment test reads from them.
"""

from __future__ import annotations

import pytest

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.sim import ExperimentScale, TraceLibrary, simulate
from repro.trace import build_trace, get_workload

#: Tiny scale so unit tests stay fast.
TINY = ExperimentScale(warmup_instructions=1_000, sim_instructions=6_000,
                       sample_interval=1_000)


@pytest.fixture(scope="session")
def config():
    return scaled_config()


@pytest.fixture(scope="session")
def tiny_scale():
    return TINY


@pytest.fixture(scope="session")
def library(config):
    return TraceLibrary(config, TINY)


@pytest.fixture(scope="session")
def lbm_trace(config):
    """An LLC-bound streaming trace (contention-sensitive)."""
    return build_trace(get_workload("470.lbm"), TINY.trace_length, 1,
                       config.llc.size)


@pytest.fixture(scope="session")
def povray_trace(config):
    """A core-bound trace (contention-insensitive)."""
    return build_trace(get_workload("453.povray"), TINY.trace_length, 1,
                       config.llc.size)


@pytest.fixture(scope="session")
def gromacs_trace(config):
    """A cache-friendly trace with real LLC reuse."""
    return build_trace(get_workload("435.gromacs"), TINY.trace_length, 1,
                       config.llc.size)


@pytest.fixture(scope="session")
def lbm_isolation(lbm_trace, config):
    return simulate(lbm_trace, config,
                    warmup_instructions=TINY.warmup_instructions,
                    sim_instructions=TINY.sim_instructions,
                    sample_interval=TINY.sample_interval)


@pytest.fixture(scope="session")
def lbm_pinte(lbm_trace, config):
    return simulate(lbm_trace, config, pinte=PinteConfig(p_induce=0.5),
                    warmup_instructions=TINY.warmup_instructions,
                    sim_instructions=TINY.sim_instructions,
                    sample_interval=TINY.sample_interval)


@pytest.fixture(scope="session")
def tiny_bundle(config):
    """A small but complete three-context campaign for experiment tests."""
    from repro.experiments.registry import (
        PlanContext, bundle_from_results, execute_plan, plan_union)

    ctx = PlanContext(config=config, scale=TINY,
                      suite=("435.gromacs", "453.povray", "470.lbm",
                             "605.mcf"),
                      p_values=(0.02, 0.1, 0.3, 0.7, 1.0), panel_size=2)
    outcome = execute_plan(plan_union(["table1"], ctx))
    return bundle_from_results(ctx, outcome.results)
