"""Experiment scale, the in-memory trace library and adversary panels.

Every experiment job runs through :mod:`repro.experiments.plan` and the
campaign engine; this module holds the shared pieces those plans are
written in: how big each simulation is (:class:`ExperimentScale`), which
co-runners a benchmark meets (:func:`adversary_panel`), and a trace cache
for the ablation drivers, which call the hosts directly
(:class:`TraceLibrary`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.serde import ConfigSerde
from repro.trace.record import Trace
from repro.trace.spec_models import get_workload
from repro.trace.synthetic import build_trace


@dataclass(frozen=True)
class ExperimentScale(ConfigSerde):
    """How big each simulation is.

    The paper warms 500M and measures 500M instructions per trace; the
    defaults here are the scaled equivalents used by the benchmark harness.
    """

    warmup_instructions: int = 10_000
    sim_instructions: int = 40_000
    sample_interval: int = 4_000
    seed: int = 1

    @property
    def trace_length(self) -> int:
        return self.warmup_instructions + self.sim_instructions


#: Small scale for unit/integration tests.
TEST_SCALE = ExperimentScale(warmup_instructions=2_000, sim_instructions=8_000,
                             sample_interval=1_000)


class TraceLibrary:
    """Builds and caches synthetic traces keyed by (workload, llc, length,
    seed)."""

    def __init__(self, config: MachineConfig, scale: ExperimentScale) -> None:
        self.config = config
        self.scale = scale
        self._cache: Dict[Tuple[str, int, int, int], Trace] = {}

    def get(self, name: str, length: Optional[int] = None,
            seed: Optional[int] = None) -> Trace:
        """The trace for ``name``, generated on first use."""
        length = length if length is not None else self.scale.trace_length
        seed = seed if seed is not None else self.scale.seed
        key = (name, self.config.llc.size, length, seed)
        trace = self._cache.get(key)
        if trace is None:
            trace = build_trace(get_workload(name), length, seed,
                                self.config.llc.size)
            self._cache[key] = trace
        return trace


def adversary_panel(target: str, all_names: Sequence[str], count: int) -> List[str]:
    """Deterministic subset of co-runners for ``target``.

    The paper runs all unique pairs (17,578 for 188 traces); at reproduction
    scale each benchmark is paired with a rotating panel of ``count``
    adversaries chosen deterministically from the suite.
    """
    others = [name for name in all_names if name != target]
    if count >= len(others):
        return others
    start = sum(ord(ch) for ch in target) % len(others)
    rotated = others[start:] + others[:start]
    return rotated[:count]
