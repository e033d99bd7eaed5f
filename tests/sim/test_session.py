"""Tests for the unified simulation-session core.

Every timing host runs one stepper, :class:`TimingStepper`, which folds the
furthest-behind argmin and the live-clock hooks (periodic PInTE,
background DRAM) into cycle limits for ``Core.run``. These tests check it
against a deliberately naive reference scheduler kept here on the test
side: one instruction per scheduling step, the argmin recomputed before
every instruction and the hooks ticked after every primary instruction.

The checks are seeded property tests: random workload / policy / PInTE /
hook / event-trace / budget combinations, each run through both schedulers
and compared on every counter a scheduling change could disturb.
"""

import hashlib
import random

import pytest

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.obs import Observation
from repro.sim.multicore import simulate_multiprogrammed, simulate_pair
from repro.sim.session import (
    ADDRESS_SPACE_STRIDE,
    SessionBuilder,
    TimingStepper,
    drive,
)
from repro.trace import build_trace, get_workload
from repro.trace.packed import PackedTrace, as_packed

WORKLOADS = ("470.lbm", "429.mcf", "435.gromacs")
POLICIES = ("lru", "rrip", "plru")
#: PInTE knobs beyond ``p_induce``: no hook, each hook at a gentle and an
#: extreme rate (the extreme ones hit the hooks' catch-up caps), and both.
HOOKS = (
    {},
    {"trigger": "periodic", "period_cycles": 400},
    {"trigger": "periodic", "period_cycles": 7},
    {"dram_background_rpkc": 8},
    {"dram_background_rpkc": 400},
    {"trigger": "periodic", "period_cycles": 150, "dram_background_rpkc": 20},
)


class ReferenceStepper:
    """The furthest-behind schedule at its most literal.

    Before every instruction the core with the smallest clock (ties to the
    lowest id) is chosen and retires exactly one instruction; after every
    primary instruction both live-clock hooks are ticked.
    """

    unit = "instructions"

    def __init__(self, session, streams):
        self.cores = session.cores
        self.streams = streams
        self.indices = [0] * len(streams)
        self.periodic = session.periodic
        self.background = session.background

    def run(self, count):
        cores = self.cores
        primary = cores[0]
        retired = 0
        while retired < count:
            core_id = min(range(len(cores)), key=lambda i: cores[i].cycle)
            stream = self.streams[core_id]
            index = self.indices[core_id]
            cores[core_id].run(stream.pcs, stream.loads, stream.stores,
                               stream.flags, index, 1)
            self.indices[core_id] = (index + 1) % len(stream)
            if core_id == 0:
                retired += 1
                if self.periodic is not None:
                    self.periodic.maybe_tick(primary.cycle, 0)
                if self.background is not None:
                    self.background.advance(primary.cycle)
        return count


@pytest.fixture(scope="module")
def traces(config):
    return {name: build_trace(get_workload(name), 8_000, 11, config.llc.size)
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def short_traces(config):
    """Streams shorter than every run that uses them, so the primary and
    the secondaries wrap again and again: povray retires ~100 instructions
    per mcf one, and a memory-bound mcf secondary makes a wrongly scheduled
    instruction show in the shared LLC."""
    def packed(name, length):
        return as_packed(build_trace(get_workload(name), length, 11,
                                     config.llc.size))
    return {"primary": packed("429.mcf", 1_200),
            "453.povray": packed("453.povray", 1_500),
            "429.mcf": packed("429.mcf", 1_500)}


def _observables(session, observe):
    """Every counter a scheduling change could disturb, all cores."""
    per_core = []
    for owner, (core, hierarchy) in enumerate(zip(session.cores,
                                                  session.hierarchies)):
        counters = session.tracker.counters(owner)
        per_core.append((
            core.cycle, core.stats.instructions,
            hierarchy.l1d.stats.misses, hierarchy.l2.stats.misses,
            counters.llc_accesses, counters.llc_misses,
            counters.thefts_experienced, counters.interference_misses,
        ))
    llc = session.llc
    engine = session.engine
    periodic = session.periodic
    background = session.background
    dram = session.dram.stats
    events = (hashlib.sha256(repr(observe.events.events()).encode())
              .hexdigest() if observe is not None else None)
    return (tuple(per_core), llc.stats.hits, llc.stats.misses,
            llc.stats.writebacks, tuple(llc.reuse_histogram),
            engine.stats.triggers if engine else 0,
            engine.stats.invalidations if engine else 0,
            engine._rng.draws if engine else 0,
            (periodic.rounds, periodic.invalidations) if periodic else None,
            background.requests if background else None,
            (dram.reads, dram.writes, dram.row_hits), events)


def _run(stepper_class, config, streams, pinte, warmup, sim, traced=False,
         partitioner=False):
    builder = SessionBuilder(config, seed=5).with_pinte(pinte)
    if partitioner:
        from repro.cache.partition import make_partitioner
        n_ways = config.llc.assoc
        n_sets = config.llc.size // (n_ways * config.block_size)
        builder.with_partitioner(
            make_partitioner("ucp", n_sets, n_ways,
                             owners=list(range(len(streams))), sampling=4),
            repartition_interval=2_000)
    observe = Observation.with_events() if traced else None
    session = builder.with_observation(observe).build_timing(len(streams))
    drive(session, stepper_class(session, streams), warmup=warmup,
          total=sim, sample_interval=1_000)
    session.detach_events()
    return _observables(session, observe)


def _random_pinte(rng):
    p = rng.choice((None, 0.1, 0.5))
    hooks = rng.choice(HOOKS)
    if p is None and not hooks:
        return None, "isolation"
    pinte = PinteConfig(p if p is not None else 0.3,
                        seed=rng.randrange(100), **hooks)
    return pinte, f"p={pinte.p_induce}/{hooks}"


class TestSingleCoreParity:
    def test_matches_reference_randomised(self, traces):
        """One stream: the production stepper equals the reference."""
        rng = random.Random(0xB10C)
        for case in range(8):
            workload = rng.choice(WORKLOADS)
            policy = rng.choice(POLICIES)
            pinte, knobs = _random_pinte(rng)
            traced = rng.random() < 0.5
            warmup = rng.choice((0, 500, 1_700))
            sim = rng.randrange(2_000, 6_000)
            config = scaled_config().with_llc_policy(policy)
            label = (f"case {case}: {workload}/{policy}/{knobs}/"
                     f"events={traced}/{warmup}+{sim}")
            streams = [as_packed(traces[workload])]
            production = _run(TimingStepper, config, streams, pinte,
                              warmup, sim, traced=traced)
            reference = _run(ReferenceStepper, config, streams, pinte,
                             warmup, sim, traced=traced)
            assert production == reference, label


    @pytest.mark.parametrize("hooks", HOOKS)
    def test_wrapping_stream_matches_reference(self, short_traces, hooks):
        """A primary stream far shorter than the run wraps at every
        scheduling distance from a cycle limit."""
        pinte = PinteConfig(0.3, seed=7, **hooks) if hooks else None
        streams = [short_traces["primary"]]
        for traced in (False, True):
            production = _run(TimingStepper, scaled_config(), streams, pinte,
                              500, 3_500, traced=traced)
            reference = _run(ReferenceStepper, scaled_config(), streams,
                             pinte, 500, 3_500, traced=traced)
            assert production == reference, f"events={traced}"


class TestMultiCoreParity:
    def test_matches_reference_randomised(self, traces):
        """Random pair/triple mixes, hooks on the primary clock."""
        rng = random.Random(0x5E55)
        for case in range(8):
            names = rng.sample(WORKLOADS, rng.choice((2, 2, 3)))
            policy = rng.choice(POLICIES)
            pinte, knobs = _random_pinte(rng)
            traced = rng.random() < 0.5
            partitioner = rng.random() < 0.4
            warmup = rng.choice((0, 800))
            sim = rng.randrange(2_000, 5_000)
            config = scaled_config().with_llc_policy(policy)
            streams = [
                as_packed(traces[name]).offset(i * ADDRESS_SPACE_STRIDE)
                for i, name in enumerate(names)]
            label = (f"case {case}: {names}/{policy}/{knobs}/"
                     f"events={traced}/ucp={partitioner}/{warmup}+{sim}")
            production = _run(TimingStepper, config, streams, pinte, warmup,
                              sim, traced=traced, partitioner=partitioner)
            reference = _run(ReferenceStepper, config, streams, pinte, warmup,
                             sim, traced=traced, partitioner=partitioner)
            assert production == reference, label

    @pytest.mark.parametrize("hooks", HOOKS)
    @pytest.mark.parametrize("secondary", ("453.povray", "429.mcf"))
    def test_wrapping_streams_match_reference(self, short_traces, secondary,
                                              hooks):
        """Short streams on both cores, so both wrap many times."""
        pinte = PinteConfig(0.3, seed=7, **hooks) if hooks else None
        streams = [short_traces["primary"],
                   short_traces[secondary].offset(ADDRESS_SPACE_STRIDE)]
        for traced in (False, True):
            production = _run(TimingStepper, scaled_config(), streams, pinte,
                              300, 2_000, traced=traced)
            reference = _run(ReferenceStepper, scaled_config(), streams,
                             pinte, 300, 2_000, traced=traced)
            assert production == reference, f"events={traced}"

    def test_stream_count_must_match_cores(self, config, traces):
        session = SessionBuilder(config, seed=5).build_timing(2)
        with pytest.raises(ValueError, match="streams for"):
            TimingStepper(session, [as_packed(traces["470.lbm"])])


class TestCoreRun:
    """The cycle limit of the one retirement loop."""

    def _core(self, config):
        session = SessionBuilder(config, seed=5).build_timing(1)
        return session.cores[0]

    def test_stops_right_after_passing_limit(self, config, traces):
        stream = as_packed(traces["429.mcf"])
        core = self._core(config)
        columns = (stream.pcs, stream.loads, stream.stores, stream.flags)
        retired = core.run(*columns, 0, 2_000, 500)
        assert 0 < retired < 2_000
        assert core.cycle > 500
        assert core.stats.instructions == retired
        # One instruction fewer would have stayed within the limit.
        again = self._core(config)
        again.run(*columns, 0, retired - 1)
        assert again.cycle <= 500

    def test_past_the_limit_retires_exactly_one(self, config, traces):
        stream = as_packed(traces["429.mcf"])
        core = self._core(config)
        columns = (stream.pcs, stream.loads, stream.stores, stream.flags)
        core.run(*columns, 0, 1_000)
        assert core.run(*columns, 1_000, 1_000, core.cycle - 1) == 1


    def test_limit_crossed_on_the_last_record(self, config, short_traces):
        """Passing ``limit`` on a stream's last record ends the stepper's
        run: the index wraps to 0 and nothing more is retired."""
        stream = short_traces["primary"]
        columns = (stream.pcs, stream.loads, stream.stores, stream.flags)
        probe = self._core(config)
        cycles = []
        for index in range(len(stream)):
            probe.run(*columns, index, 1)
            cycles.append(probe.cycle)
        # The longest prefix whose last instruction advances the clock.
        n = max(i + 1 for i in range(1, len(cycles))
                if cycles[i] > cycles[i - 1])
        prefix = PackedTrace.from_records(stream.records[:n])
        # Unbounded (how secondaries run) and with budget to spare.
        for budget in (None, n + 5):
            session = SessionBuilder(config, seed=5).build_timing(1)
            stepper = TimingStepper(session, [prefix])
            assert stepper._retire(0, budget, cycles[n - 2]) == n
            assert stepper.indices == [0]
            assert session.cores[0].cycle == cycles[n - 1]


class TestRemovedNames:
    """The old retirement and stepper names fail loudly when used."""

    def test_core_execute_raises(self, config):
        core = SessionBuilder(config, seed=5).build_timing(1).cores[0]
        for name in ("execute", "execute_cols", "execute_block"):
            with pytest.raises(TypeError, match="use Core.run"):
                getattr(core, name)(None)

    def test_old_steppers_raise(self, config):
        from repro.sim import session as sess
        built = SessionBuilder(config, seed=5).build_timing(1)
        for cls in (sess.SingleCoreStepper, sess.MultiCoreStepper):
            with pytest.raises(TypeError, match="use TimingStepper"):
                cls(built, [])


class TestHybridContext:
    """PInTE layered on real co-runner contention — the context the
    unified session core unlocked."""

    @pytest.fixture(scope="class")
    def hybrid(self, config, lbm_trace, gromacs_trace):
        return simulate_pair(lbm_trace, gromacs_trace, config,
                             warmup_instructions=1_000,
                             sim_instructions=4_000,
                             pinte=PinteConfig(0.4, seed=2))

    def test_mode_and_label(self, hybrid):
        assert hybrid.mode == "hybrid"
        assert hybrid.p_induce == 0.4
        assert hybrid.co_runner == "435.gromacs"
        assert hybrid.label() == "470.lbm+435.gromacs@pinte(0.4)"

    def test_engine_extras_on_primary(self, hybrid):
        assert hybrid.extra["pinte_triggers"] > 0

    def test_induced_contention_on_top_of_real(self, config, lbm_trace,
                                               gromacs_trace):
        plain = simulate_pair(lbm_trace, gromacs_trace, config,
                              warmup_instructions=1_000,
                              sim_instructions=4_000)
        hybrid = simulate_pair(lbm_trace, gromacs_trace, config,
                               warmup_instructions=1_000,
                               sim_instructions=4_000,
                               pinte=PinteConfig(0.6, seed=2))
        assert hybrid.thefts_experienced > plain.thefts_experienced

    def test_multiprogrammed_hybrid_marks_every_core(self, config, lbm_trace,
                                                     gromacs_trace,
                                                     povray_trace):
        results = simulate_multiprogrammed(
            [lbm_trace, gromacs_trace, povray_trace], config,
            warmup_instructions=500, sim_instructions=3_000,
            pinte=PinteConfig(0.3, seed=2))
        assert all(r.mode == "hybrid" for r in results)
        assert all(r.p_induce == 0.3 for r in results)

    def test_deterministic(self, config, lbm_trace, gromacs_trace):
        a = simulate_pair(lbm_trace, gromacs_trace, config,
                          sim_instructions=3_000,
                          pinte=PinteConfig(0.4, seed=9))
        b = simulate_pair(lbm_trace, gromacs_trace, config,
                          sim_instructions=3_000,
                          pinte=PinteConfig(0.4, seed=9))
        assert a.ipc == b.ipc
        assert a.thefts_experienced == b.thefts_experienced

    def test_hybrid_job_runs(self, config, tiny_scale):
        from repro.sim.batch import Job, run_job
        job = Job("470.lbm", mode="pair", co_runner="435.gromacs",
                  p_induce=0.4)
        result = run_job(job, config, tiny_scale)
        assert result.mode == "hybrid"
        assert result.p_induce == 0.4
