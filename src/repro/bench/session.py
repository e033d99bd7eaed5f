"""The simulation-session layer microbenchmark.

The session refactor (:mod:`repro.sim.session`) rebuilt every host as a
thin composition over one :class:`~repro.sim.session.SessionBuilder` /
Stepper / :func:`~repro.sim.session.drive` core. This suite proves the
layer adds no overhead: it re-measures the exact four data-path metrics
(same workload, seed and lengths as :mod:`repro.bench.datapath`) through
the session-driven hosts, so the run can be gated **directly against the
committed ``BENCH_datapath.json`` floors**::

    repro bench --suite session --baseline benchmarks/reports/BENCH_datapath.json --check

On top of the shared metrics it records session-only observables: the
furthest-behind multicore schedule and the hybrid (PInTE + 2nd-Trace)
context the refactor unlocked.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.sim.fastcache import simulate_cache_only
from repro.sim.multicore import simulate_pair
from repro.sim.simulator import simulate
from repro.trace import build_trace, get_workload

#: Canonical record of session-layer throughput, appended to by
#: ``repro bench --suite session``.
BENCH_FILE = (Path(__file__).resolve().parents[3]
              / "benchmarks" / "reports" / "BENCH_session.json")

#: Pinned to the datapath suite's parameters so the four shared metrics
#: are directly comparable to BENCH_datapath.json.
BENCH_WORKLOAD = "470.lbm"
CO_WORKLOAD = "429.mcf"
BENCH_SEED = 3
FASTCACHE_LENGTH = 120_000
SIM_WARMUP = 4_000
SIM_INSTRUCTIONS = 24_000
P_INDUCE = 0.1


@dataclass
class SessionBenchResult:
    """Session-layer throughput (higher is better everywhere).

    The first four fields use the *datapath suite's* metric names on
    purpose: the regression gate matches metrics by name, so a session
    run can be checked against the ``BENCH_datapath.json`` reference.
    """

    fastcache_records_per_sec: float
    fastcache_pinte_records_per_sec: float
    simulate_instructions_per_sec: float
    simulate_pinte_instructions_per_sec: float
    #: Cycle-synchronised 2-core host (primary+secondary retired
    #: instructions per second of wall time).
    multicore_instructions_per_sec: float
    #: The hybrid context: same pair with induced thefts layered on top.
    hybrid_instructions_per_sec: float
    repeats: int
    python: str = ""

    def speedup_over(self, baseline: "SessionBenchResult") -> dict:
        """Per-metric throughput ratio vs ``baseline``."""
        return {
            "fastcache": (self.fastcache_records_per_sec
                          / baseline.fastcache_records_per_sec),
            "fastcache_pinte": (self.fastcache_pinte_records_per_sec
                                / baseline.fastcache_pinte_records_per_sec),
            "simulate": (self.simulate_instructions_per_sec
                         / baseline.simulate_instructions_per_sec),
            "simulate_pinte": (self.simulate_pinte_instructions_per_sec
                               / baseline.simulate_pinte_instructions_per_sec),
        }


def _best_of(repeats: int, fn) -> float:
    """Best (max) throughput over ``repeats`` runs — min-noise estimator."""
    return max(fn() for _ in range(repeats))


def run_session_bench(repeats: int = 3, scale: float = 1.0) -> SessionBenchResult:
    """Time the session-driven hosts on the pinned datapath workload.

    ``scale`` shrinks the workload (quick CI smoke mode uses 0.25).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    config = scaled_config()
    fast_length = max(2_000, int(FASTCACHE_LENGTH * scale))
    sim_warmup = max(500, int(SIM_WARMUP * scale))
    sim_instructions = max(2_000, int(SIM_INSTRUCTIONS * scale))
    trace_fast = build_trace(get_workload(BENCH_WORKLOAD), fast_length,
                             BENCH_SEED, config.llc.size)
    trace_sim = build_trace(get_workload(BENCH_WORKLOAD),
                            sim_warmup + sim_instructions, BENCH_SEED,
                            config.llc.size)
    trace_co = build_trace(get_workload(CO_WORKLOAD),
                           sim_warmup + sim_instructions, BENCH_SEED,
                           config.llc.size)

    def fastcache(pinte: Optional[PinteConfig]) -> float:
        start = time.perf_counter()
        simulate_cache_only(trace_fast, config, pinte=pinte,
                            warmup_accesses=fast_length // 10, seed=BENCH_SEED)
        return fast_length / (time.perf_counter() - start)

    def full(pinte: Optional[PinteConfig]) -> float:
        start = time.perf_counter()
        simulate(trace_sim, config, pinte=pinte,
                 warmup_instructions=sim_warmup,
                 sim_instructions=sim_instructions, seed=BENCH_SEED)
        return ((sim_warmup + sim_instructions)
                / (time.perf_counter() - start))

    def pair(pinte: Optional[PinteConfig]) -> float:
        start = time.perf_counter()
        result = simulate_pair(trace_sim, trace_co, config, pinte=pinte,
                               warmup_instructions=sim_warmup,
                               sim_instructions=sim_instructions,
                               seed=BENCH_SEED)
        elapsed = time.perf_counter() - start
        retired = (sim_warmup + result.instructions
                   + int(result.extra.get("secondary_instructions", 0)))
        return retired / elapsed

    return SessionBenchResult(
        fastcache_records_per_sec=_best_of(repeats, lambda: fastcache(None)),
        fastcache_pinte_records_per_sec=_best_of(
            repeats, lambda: fastcache(PinteConfig(P_INDUCE, seed=BENCH_SEED))),
        simulate_instructions_per_sec=_best_of(repeats, lambda: full(None)),
        simulate_pinte_instructions_per_sec=_best_of(
            repeats, lambda: full(PinteConfig(P_INDUCE, seed=BENCH_SEED))),
        multicore_instructions_per_sec=_best_of(repeats, lambda: pair(None)),
        hybrid_instructions_per_sec=_best_of(
            repeats, lambda: pair(PinteConfig(P_INDUCE, seed=BENCH_SEED))),
        repeats=repeats,
        python=platform.python_version(),
    )


def load_datapath_reference(path: Optional[Path] = None) -> Optional[dict]:
    """The four shared metrics from BENCH_datapath.json (``current``
    preferred, ``seed_baseline`` fallback), or None when unavailable."""
    if path is None:
        path = BENCH_FILE.parent / "BENCH_datapath.json"
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    reference = document.get("current") or document.get("seed_baseline")
    if not isinstance(reference, dict):
        return None
    shared = ("fastcache_records_per_sec", "fastcache_pinte_records_per_sec",
              "simulate_instructions_per_sec",
              "simulate_pinte_instructions_per_sec")
    if not all(name in reference for name in shared):
        return None
    return {name: float(reference[name]) for name in shared}


def write_record(result: SessionBenchResult, path: Optional[Path] = None) -> dict:
    """Record a run in BENCH_session.json; returns the updated document.

    Runs land in ``runs`` (an append-only trajectory) and refresh
    ``current`` — the entry the regression gate reads.
    """
    if path is None:
        path = BENCH_FILE
    document = json.loads(path.read_text()) if path.exists() else {}
    entry = asdict(result)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    document["current"] = entry
    document.setdefault("runs", []).append(entry)
    datapath = load_datapath_reference()
    if datapath is not None:
        document["vs_datapath"] = {
            "fastcache": round(
                result.fastcache_records_per_sec
                / datapath["fastcache_records_per_sec"], 3),
            "fastcache_pinte": round(
                result.fastcache_pinte_records_per_sec
                / datapath["fastcache_pinte_records_per_sec"], 3),
            "simulate": round(
                result.simulate_instructions_per_sec
                / datapath["simulate_instructions_per_sec"], 3),
            "simulate_pinte": round(
                result.simulate_pinte_instructions_per_sec
                / datapath["simulate_pinte_instructions_per_sec"], 3),
        }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return document
