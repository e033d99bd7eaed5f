"""Golden-trace capture harnesses for data-path equivalence testing.

The functions here replay a pinned workload/policy/contention matrix through
the three hosts (full ``simulate()``, the fastcache host, and a direct
Cache+PInTE eviction-sequence harness) and return every observable that a
data-path change could disturb: miss counts, theft/interference counters,
reuse histograms, occupancy, exact eviction sequences and RNG draw counts.

``tests/golden/golden_traces.json`` holds the output of these harnesses as
captured from the original object-per-block implementation, immediately
before the flat-array ``CacheSetState`` refactor;
``tests/integration/test_golden_equivalence.py`` asserts the current data
path reproduces it bit-for-bit. Its ``reports`` section, captured from the
serial per-figure drivers before they were folded into the artifact
registry, pins rendered report text and ``repro sweep`` output instead.
Regenerate the file (only for an *intentional* behaviour change) with
``scripts/capture_goldens.py``.
"""

from __future__ import annotations

import hashlib
import io
import time
from contextlib import contextmanager, redirect_stdout
from typing import Dict, Optional

from repro.config import scaled_config
from repro.core import PInTE, PinteConfig
from repro.core.counters import ContentionTracker
from repro.cache.cache import Cache
from repro.obs import Observation
from repro.sim.fastcache import simulate_cache_only
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.runner import ExperimentScale
from repro.sim.simulator import simulate
from repro.trace import build_trace, get_workload

#: One workload per behaviour class (cache-friendly / LLC-bound / DRAM-bound).
GOLDEN_WORKLOADS = ("400.perlbench", "470.lbm", "429.mcf")
GOLDEN_POLICIES = ("lru", "rrip", "plru")
GOLDEN_SEED = 7
WARMUP = 2_000
SIM = 8_000
P_INDUCE = 0.1

#: Fastcache harness parameters. 400.perlbench is cache-friendly enough
#: that its 30k-record trace yields only ~64 LLC accesses — fewer than the
#: warm-up budget. The seed host silently kept the (zero-progress) warm-up
#: statistics in that case, which is numerically identical to a zero
#: warm-up; the session-layer host raises ``ValueError`` instead, so the
#: harness encodes the per-workload warm-up explicitly and the pinned
#: golden values are unchanged.
FASTCACHE_LENGTH = 30_000
FASTCACHE_WARMUP = 2_000
FASTCACHE_WARMUPS = {"400.perlbench": 0}


def _round(value: float) -> float:
    """Stable float key for JSON round-tripping (12 significant digits)."""
    return float(f"{value:.12g}")


def full_sim_goldens() -> dict:
    """End-to-end ``simulate()`` counters for the golden matrix."""
    goldens = {}
    for workload in GOLDEN_WORKLOADS:
        config = scaled_config()
        trace = build_trace(get_workload(workload), WARMUP + SIM, GOLDEN_SEED,
                            config.llc.size)
        for policy in GOLDEN_POLICIES:
            machine = config.with_llc_policy(policy)
            for mode, pinte in (("isolation", None),
                                ("pinte", PinteConfig(P_INDUCE, seed=GOLDEN_SEED))):
                result = simulate(trace, machine, pinte=pinte,
                                  warmup_instructions=WARMUP,
                                  sim_instructions=SIM, seed=GOLDEN_SEED)
                key = f"{workload}/{policy}/{mode}"
                goldens[key] = {
                    "instructions": result.instructions,
                    "cycles": result.cycles,
                    "llc_accesses": result.llc_accesses,
                    "llc_misses": result.llc_misses,
                    "miss_rate": _round(result.miss_rate),
                    "thefts_experienced": result.thefts_experienced,
                    "interference_misses": result.interference_misses,
                    "llc_writeback_fills": result.llc_writeback_fills,
                    "reuse_histogram": list(result.reuse_histogram),
                    "occupancy": _round(result.occupancy),
                    "ipc": _round(result.ipc),
                    "pinte_invalidations": int(
                        result.extra.get("pinte_invalidations", 0)),
                    "pinte_triggers": int(result.extra.get("pinte_triggers", 0)),
                }
    return goldens


def fastcache_goldens() -> dict:
    """Cache-only host counters for the golden matrix."""
    goldens = {}
    for workload in GOLDEN_WORKLOADS:
        for policy in GOLDEN_POLICIES:
            config = scaled_config().with_llc_policy(policy)
            trace = build_trace(get_workload(workload), FASTCACHE_LENGTH,
                                GOLDEN_SEED, config.llc.size)
            for mode, pinte in (("isolation", None),
                                ("pinte", PinteConfig(P_INDUCE, seed=GOLDEN_SEED))):
                warmup = FASTCACHE_WARMUPS.get(workload, FASTCACHE_WARMUP)
                result = simulate_cache_only(
                    trace, config, pinte=pinte,
                    warmup_accesses=warmup, seed=GOLDEN_SEED)
                goldens[f"{workload}/{policy}/{mode}"] = {
                    "accesses": result.accesses,
                    "misses": result.misses,
                    "thefts_experienced": result.thefts_experienced,
                    "interference_misses": result.interference_misses,
                    "reuse_histogram": list(result.reuse_histogram),
                }
    return goldens


#: Multicore (2nd-Trace) harness parameters. The primary/secondary mix pairs
#: an LLC-bound workload against a DRAM-bound one so the shared timeline,
#: natural thefts and writeback traffic are all exercised.
MULTICORE_PRIMARY = "470.lbm"
MULTICORE_SECONDARY = "429.mcf"
MULTICORE_TERTIARY = "400.perlbench"
MULTICORE_WARMUP = 1_000
MULTICORE_SIM = 5_000


def _multicore_observables(result) -> dict:
    """The per-core counters a scheduling/data-path change could disturb."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": _round(result.ipc),
        "llc_accesses": result.llc_accesses,
        "llc_misses": result.llc_misses,
        "miss_rate": _round(result.miss_rate),
        "thefts_experienced": result.thefts_experienced,
        "thefts_caused": result.thefts_caused,
        "interference_misses": result.interference_misses,
        "llc_writeback_fills": result.llc_writeback_fills,
        "reuse_histogram": list(result.reuse_histogram),
        "occupancy": _round(result.occupancy),
        "n_samples": len(result.samples),
    }


def _multicore_traces(config, names):
    return [build_trace(get_workload(name), MULTICORE_WARMUP + MULTICORE_SIM,
                        GOLDEN_SEED, config.llc.size) for name in names]


def multicore_goldens() -> dict:
    """Cycle-synchronised 2nd-Trace host counters, every core.

    Five configs: the golden pair under each replacement policy, a 3-core
    mix, and a 3-core mix under the UCP partitioner — together they pin the
    furthest-behind schedule, the shared-LLC theft accounting and the
    repartitioning cadence.
    """
    goldens = {}
    for policy in GOLDEN_POLICIES:
        config = scaled_config().with_llc_policy(policy)
        traces = _multicore_traces(config, (MULTICORE_PRIMARY,
                                            MULTICORE_SECONDARY))
        results = simulate_multiprogrammed(
            traces, config, warmup_instructions=MULTICORE_WARMUP,
            sim_instructions=MULTICORE_SIM, sample_interval=1_000,
            seed=GOLDEN_SEED)
        goldens[f"pair/{policy}"] = {
            f"core{i}": _multicore_observables(r)
            for i, r in enumerate(results)
        }
    config = scaled_config()
    names = (MULTICORE_PRIMARY, MULTICORE_SECONDARY, MULTICORE_TERTIARY)
    for scheme in (None, "ucp"):
        partitioner = None
        if scheme is not None:
            from repro.cache.partition import make_partitioner
            n_ways = config.llc.assoc
            n_sets = config.llc.size // (n_ways * config.block_size)
            partitioner = make_partitioner(scheme, n_sets, n_ways,
                                           owners=[0, 1, 2], sampling=4)
        results = simulate_multiprogrammed(
            _multicore_traces(config, names), config,
            warmup_instructions=MULTICORE_WARMUP,
            sim_instructions=MULTICORE_SIM, sample_interval=1_000,
            seed=GOLDEN_SEED, partitioner=partitioner,
            repartition_interval=2_000)
        key = f"multi3/{scheme if scheme else 'shared'}"
        goldens[key] = {
            f"core{i}": _multicore_observables(r)
            for i, r in enumerate(results)
        }
    return goldens


def hybrid_goldens() -> dict:
    """Hybrid-context (PInTE x 2nd-Trace) host counters, every core.

    Unlike the other sections — captured from the seed implementation —
    these were captured from the session-layer implementation that
    *introduced* the hybrid context: induced thefts layered on the golden
    pair's real contention, one config per replacement policy. They pin
    the context from its first version onward; the primary core
    additionally pins the engine's trigger and invalidation counts.
    """
    goldens = {}
    for policy in GOLDEN_POLICIES:
        config = scaled_config().with_llc_policy(policy)
        traces = _multicore_traces(config, (MULTICORE_PRIMARY,
                                            MULTICORE_SECONDARY))
        results = simulate_multiprogrammed(
            traces, config, warmup_instructions=MULTICORE_WARMUP,
            sim_instructions=MULTICORE_SIM, sample_interval=1_000,
            seed=GOLDEN_SEED, pinte=PinteConfig(P_INDUCE, seed=GOLDEN_SEED))
        entry = {
            f"core{i}": _multicore_observables(r)
            for i, r in enumerate(results)
        }
        entry["core0"]["pinte_triggers"] = int(
            results[0].extra["pinte_triggers"])
        entry["core0"]["pinte_invalidations"] = int(
            results[0].extra["pinte_invalidations"])
        goldens[f"pair/{policy}/pinte"] = entry
    return goldens


#: Live-clock hook harness. Every hook mode at a gentle and an extreme
#: rate: ``period_cycles=7`` and ``dram_background_rpkc=400`` are fast
#: enough that long DRAM stalls hit the 8-round / 64-request catch-up caps.
HOOK_P_INDUCE = 0.5
HOOK_WARMUP = 1_000
HOOK_SIM = 4_000
HOOK_CONFIGS = {
    "periodic400": {"trigger": "periodic", "period_cycles": 400},
    "periodic7": {"trigger": "periodic", "period_cycles": 7},
    "background8": {"dram_background_rpkc": 8},
    "background400": {"dram_background_rpkc": 400},
    "both": {"trigger": "periodic", "period_cycles": 400,
             "dram_background_rpkc": 8},
    "both-capped": {"trigger": "periodic", "period_cycles": 7,
                    "dram_background_rpkc": 400},
}


def _hook_observables(result) -> dict:
    """Counters a change to hook or clock scheduling could disturb."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "llc_misses": result.llc_misses,
        "l2_misses": result.l2_misses,
        "thefts_experienced": result.thefts_experienced,
        "interference_misses": result.interference_misses,
        "llc_writeback_fills": result.llc_writeback_fills,
        "samples": [[_round(value) for value in vars(sample).values()]
                    for sample in result.samples],
    }


def _events_digest(observe) -> Optional[str]:
    if observe is None:
        return None
    return hashlib.sha256(
        repr(observe.events.events()).encode()).hexdigest()


def hook_goldens() -> dict:
    """Periodic-trigger / background-DRAM runs, event trace off and on.

    Single-core ``simulate()`` and the 2-core hybrid
    ``simulate_multiprogrammed()`` under every :data:`HOOK_CONFIGS` entry;
    with the trace on, a sha256 of the retained events pins their cycle
    timestamps. The hook extras ``pinte_periodic_rounds`` and
    ``dram_background_requests`` are deliberately not pinned.

    Captured from the stepwise steppers that ticked the hooks after every
    primary instruction, so they pin that schedule for every later
    implementation of it.
    """
    config = scaled_config()
    length = HOOK_WARMUP + HOOK_SIM
    primary = build_trace(get_workload(MULTICORE_PRIMARY), length,
                          GOLDEN_SEED, config.llc.size)
    secondary = build_trace(get_workload(MULTICORE_SECONDARY), length,
                            GOLDEN_SEED, config.llc.size)
    goldens = {}
    for name, knobs in HOOK_CONFIGS.items():
        pinte = PinteConfig(HOOK_P_INDUCE, seed=GOLDEN_SEED, **knobs)
        for traced in (False, True):
            suffix = "events" if traced else "plain"
            observe = Observation.with_events() if traced else None
            result = simulate(primary, config, pinte=pinte,
                              warmup_instructions=HOOK_WARMUP,
                              sim_instructions=HOOK_SIM, sample_interval=1_000,
                              seed=GOLDEN_SEED, observe=observe)
            entry = _hook_observables(result)
            entry["pinte_triggers"] = int(result.extra["pinte_triggers"])
            entry["pinte_invalidations"] = int(
                result.extra["pinte_invalidations"])
            entry["events_sha256"] = _events_digest(observe)
            goldens[f"single/{name}/{suffix}"] = entry

            observe = Observation.with_events() if traced else None
            results = simulate_multiprogrammed(
                [primary, secondary], config,
                warmup_instructions=HOOK_WARMUP, sim_instructions=HOOK_SIM,
                sample_interval=1_000, seed=GOLDEN_SEED, pinte=pinte,
                observe=observe)
            entry = {f"core{i}": _hook_observables(r)
                     for i, r in enumerate(results)}
            entry["pinte_triggers"] = int(results[0].extra["pinte_triggers"])
            entry["pinte_invalidations"] = int(
                results[0].extra["pinte_invalidations"])
            entry["events_sha256"] = _events_digest(observe)
            goldens[f"hybrid/{name}/{suffix}"] = entry
    return goldens


def victim_sequence_goldens() -> dict:
    """Exact eviction sequences from a direct Cache(+PInTE) harness.

    A small LLC fed a deterministic pointer-chase-ish pattern from two
    owners; every eviction (tag, owner, dirty) and every induced
    invalidation is recorded in order. Any change in victim selection, RNG
    consumption or promotion behaviour shows up here immediately.
    """
    goldens = {}
    for policy in GOLDEN_POLICIES + ("nmru", "random", "drrip"):
        for with_pinte in (False, True):
            cache = Cache("LLC", size=4096, assoc=8, block_size=64,
                          policy=policy, policy_seed=GOLDEN_SEED,
                          track_reuse=True)
            tracker = ContentionTracker()
            engine = None
            if with_pinte:
                engine = PInTE(PinteConfig(0.2, seed=GOLDEN_SEED), cache, tracker)
            evictions = []
            original_fill = cache.fill

            def fill(block, owner, _original=original_fill, _log=evictions, **kw):
                evicted = _original(block, owner, **kw)
                if evicted is not None:
                    _log.append([evicted.tag, evicted.owner, int(evicted.dirty)])
                return evicted

            cache.fill = fill
            for step in range(4_000):
                owner = step % 2
                # Two interleaved strided streams with periodic revisits:
                # hits, misses, and conflict evictions in every set.
                base = (step * 3 + owner * 17) % 96
                block = (base * 64) + owner * (1 << 20)
                is_write = step % 5 == 0
                hit = cache.access(block, is_write, owner)
                tracker.record_access(owner, block, hit)
                if not hit:
                    cache.fill(block, owner, dirty=is_write)
                    tracker.record_refill(owner, block)
                if engine is not None:
                    engine.on_llc_access(cache.set_index(block), step, owner)
            key = f"{policy}/{'pinte' if with_pinte else 'isolation'}"
            stats = cache.stats
            counters0 = tracker.counters(0)
            counters1 = tracker.counters(1)
            goldens[key] = {
                "evictions": evictions[:600],
                "n_evictions": len(evictions),
                "hits": stats.hits,
                "misses": stats.misses,
                "writebacks": stats.writebacks,
                "invalidations": stats.invalidations,
                "occupancy": cache.occupancy(),
                "occupancy_owner0": cache.occupancy(0),
                "occupancy_owner1": cache.occupancy(1),
                "reuse_histogram": list(cache.reuse_histogram),
                "reuse_owner0": cache.owner_reuse_histogram(0),
                "reuse_owner1": cache.owner_reuse_histogram(1),
                "thefts_owner0": counters0.thefts_experienced,
                "thefts_owner1": counters1.thefts_experienced,
                "interference_owner0": counters0.interference_misses,
                "interference_owner1": counters1.interference_misses,
                "pinte_invalidations": engine.stats.invalidations if engine else 0,
                "pinte_promotions": engine.stats.promotions if engine else 0,
                "pinte_rng_draws": engine._rng.draws if engine else 0,
            }
    return goldens


#: Report-golden inputs: all thirteen registered artifacts rendered at this
#: scale, suite, sweep and 2nd-Trace panel.
REPORT_SCALE = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                               sample_interval=500, seed=7)
REPORT_SUITE = ("435.gromacs", "453.povray", "470.lbm", "605.mcf")
REPORT_P_VALUES = (0.05, 0.3, 1.0)
REPORT_PANEL = 2
REPORT_ARTIFACTS = ("table1", "fig1", "table2", "fig5", "fig6", "fig7",
                    "fig8", "fig9", "fig3", "fig10", "fig11", "ncore_study",
                    "partition_study")
#: Scales of the custom-parameter study runs the experiment tests make.
STUDY_SCALE = ExperimentScale(warmup_instructions=1_000, sim_instructions=4_000,
                              sample_interval=1_000)
PARTITION_SCALE = ExperimentScale(warmup_instructions=1_500,
                                  sim_instructions=8_000, sample_interval=2_000)
#: ``repro sweep`` invocation whose stdout is pinned.
SWEEP_ARGV = ("sweep", "470.lbm", "--p-induce", "0.2", "0.6", "1.0",
              "--instructions", "4000", "--warmup", "1000")


class FakeClock:
    """Deterministic ``perf_counter``: a fixed step per call."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@contextmanager
def fake_perf_counter():
    """Swap ``time.perf_counter`` for a :class:`FakeClock`.

    Table I and the n-core study render per-run wall seconds; under the
    fake clock a duration is step x call-count, identical for identical
    simulations regardless of execution order or host load.
    """
    real = time.perf_counter
    time.perf_counter = FakeClock()
    try:
        yield
    finally:
        time.perf_counter = real


def artifact_reports() -> Dict[str, str]:
    """Every artifact's report at the ``REPORT_*`` inputs, through the
    registry's plan → execute → aggregate → render pipeline."""
    from repro.experiments.registry import (
        PlanContext, execute_plan, get_artifact, plan_union)

    ctx = PlanContext(config=scaled_config(), scale=REPORT_SCALE,
                      suite=REPORT_SUITE, p_values=REPORT_P_VALUES,
                      panel_size=REPORT_PANEL)
    results = execute_plan(plan_union(REPORT_ARTIFACTS, ctx)).results
    return {name: get_artifact(name).report(ctx, results)
            for name in REPORT_ARTIFACTS}


def study_reports() -> Dict[str, str]:
    """Reports of the studies run with non-default parameters."""
    from repro.config import xeon_config
    from repro.experiments import fig3, fig10, fig11, partition_study

    config = scaled_config()
    return {
        "fig3": fig3.format_report(fig3.run_fig3(
            ["435.gromacs", "470.lbm"], config, STUDY_SCALE,
            p_values=(0.1, 0.5), n_repeats=3)),
        "fig10": fig10.format_report(fig10.run_fig10(
            names=("619.lbm", "648.exchange2"), config=xeon_config(),
            scale=STUDY_SCALE, p_values=(0.05, 0.5, 1.0), panel_size=1)),
        "fig11": fig11.format_report(fig11.run_fig11(
            config, STUDY_SCALE, workloads=("450.soplex", "470.lbm"),
            p_values=(0.0, 0.5),
            dimensions=[d for d in fig11.DIMENSIONS
                        if d.name in ("replacement", "branching")])),
        "partition_study": partition_study.format_report(
            partition_study.run_partition_study(
                config, PARTITION_SCALE, repartition_interval=2_000)),
    }


def sweep_stdout() -> str:
    """What ``repro sweep`` prints for :data:`SWEEP_ARGV`."""
    from repro.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        main(list(SWEEP_ARGV))
    return out.getvalue()


def report_goldens() -> dict:
    """Rendered reports and CLI output, all under the fake clock."""
    with fake_perf_counter():
        return {"artifacts": artifact_reports(),
                "studies": study_reports(),
                "sweep": sweep_stdout()}


def capture_all() -> dict:
    """The full golden payload, matrix metadata included."""
    return {
        "matrix": {
            "workloads": list(GOLDEN_WORKLOADS),
            "policies": list(GOLDEN_POLICIES),
            "seed": GOLDEN_SEED,
            "warmup": WARMUP,
            "sim": SIM,
            "p_induce": P_INDUCE,
        },
        "full_sim": full_sim_goldens(),
        "fastcache": fastcache_goldens(),
        "victim_sequences": victim_sequence_goldens(),
        "multicore": multicore_goldens(),
        "hybrid": hybrid_goldens(),
        "hooks": hook_goldens(),
        "reports": report_goldens(),
    }
