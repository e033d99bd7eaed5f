#!/usr/bin/env python3
"""Where does contention land? PInTE vs a real co-runner, spatially.

Runs the same victim under (a) PInTE and (b) a streaming co-runner, records
which LLC sets lose blocks to thefts, and prints the spatial distribution of
contention: coverage (sets touched), entropy (blanketing vs targeting) and
the hottest sets. This visualises the paper's design point — PInTE triggers
on the *victim's own accesses*, so induced thefts track the victim's hot
sets instead of blanketing the cache like tune-able adversary workloads do.

Usage::

    python examples/contention_topology.py [victim] [adversary]
"""

import sys

from repro import PinteConfig, build_trace, get_workload, scaled_config
from repro.analysis.topology import attach_topology
from repro.cache.hierarchy import MemoryHierarchy, build_llc
from repro.core import ContentionTracker, PInTE
from repro.cpu import Core
from repro.sim.session import (ADDRESS_SPACE_STRIDE, SessionBuilder,
                               TimingStepper)
from repro.trace.packed import as_packed

WARMUP, MEASURE = 6_000, 20_000


def describe(topology, label: str) -> None:
    print(f"\n{label}")
    print(f"  thefts recorded : {topology.total}")
    print(f"  set coverage    : {topology.coverage():.0%} of "
          f"{topology.n_sets} sets")
    print(f"  entropy         : {topology.entropy():.3f} "
          f"(1.0 = uniform blanket, 0 = single hot set)")
    buckets = topology.histogram(buckets=8)
    peak = max(buckets) or 1
    for index, count in enumerate(buckets):
        bar = "#" * int(30 * count / peak)
        print(f"  sets {index * topology.n_sets // 8:3d}-"
              f"{(index + 1) * topology.n_sets // 8 - 1:3d} |{bar} {count}")


def run_pinte(victim_trace, config):
    tracker = ContentionTracker()
    llc = build_llc(config)
    topology = attach_topology(tracker, llc.n_sets, victim_owner=0)
    hierarchy = MemoryHierarchy(config, 0, llc=llc, tracker=tracker,
                                registry={})
    engine = PInTE(PinteConfig(p_induce=0.3, seed=1), llc, tracker)
    hierarchy.attach_pinte(engine)
    core = Core(config.core, hierarchy)
    packed = as_packed(victim_trace)
    core.run(packed.pcs, packed.loads, packed.stores, packed.flags, 0,
             WARMUP + MEASURE)
    return topology


def run_pair(victim_trace, adversary_trace, config):
    # simulate_pair builds its own tracker internally, so for topology we
    # assemble the shared two-core machine and drive its scheduler directly.
    session = SessionBuilder(config).build_timing(2)
    topology = attach_topology(session.tracker, session.llc.n_sets,
                               victim_owner=0)
    streams = [as_packed(victim_trace),
               as_packed(adversary_trace).offset(ADDRESS_SPACE_STRIDE)]
    TimingStepper(session, streams).run(WARMUP + MEASURE)
    return topology


def main() -> None:
    victim_name = sys.argv[1] if len(sys.argv) > 1 else "450.soplex"
    adversary_name = sys.argv[2] if len(sys.argv) > 2 else "470.lbm"
    config = scaled_config()
    victim = build_trace(get_workload(victim_name), WARMUP + MEASURE, 1,
                         config.llc.size)
    adversary = build_trace(get_workload(adversary_name), WARMUP + MEASURE, 2,
                            config.llc.size)
    print(f"victim: {victim_name}  adversary: {adversary_name}  "
          f"LLC: {config.llc.size // 1024} KB / "
          f"{config.llc.size // (config.llc.assoc * 64)} sets")
    describe(run_pinte(victim, config), f"PInTE p=0.3 thefts of {victim_name}")
    describe(run_pair(victim, adversary, config),
             f"2nd-Trace ({adversary_name}) thefts of {victim_name}")


if __name__ == "__main__":
    main()
