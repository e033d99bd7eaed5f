"""PInTE extensions sketched by the paper's limitations section (IV-B/E2b).

Two of the paper's three named error sources come with suggested remedies
that this module implements:

* core-bound workloads trigger per-access PInTE too rarely — *"an
  independent PInTE module could avoid this"* → :class:`PeriodicPinte`,
  a clock-driven trigger that fires every ``period_cycles`` regardless of
  the workload's LLC activity;
* DRAM-bound workloads see contention beyond the LLC — *"increasing DRAM
  access costs could complement this"* → :class:`BackgroundDramTraffic`,
  a synthetic request stream that occupies the shared DRAM channels the way
  a co-runner's misses would.

Both are opt-in via :class:`~repro.core.pinte_config.PinteConfig` and ship
with ablation benches comparing them against the paper's baseline design.
"""

from __future__ import annotations

import math

from repro.core.pinte import PInTE
from repro.dram import Dram
from repro.util.rng import DeterministicRng

#: Sets swept per periodic induction round (keeps one round cheap while
#: still reaching the whole cache over time).
SETS_PER_ROUND = 4


class PeriodicPinte:
    """Clock-driven wrapper over a :class:`PInTE` engine.

    Every ``period_cycles`` of core time is one trigger opportunity: the
    usual GEN-PROBABILITY draw runs, and on success the induction flow is
    applied to a rotating window of sets, so contention reaches the whole
    LLC even if the workload never touches it.
    """

    def __init__(self, engine: PInTE, period_cycles: int) -> None:
        if period_cycles <= 0:
            raise ValueError("period_cycles must be positive")
        self.engine = engine
        self.period_cycles = period_cycles
        #: First core cycle at which :meth:`maybe_tick` does any work.
        self.next_due = period_cycles
        self._cursor = 0
        self._rng = DeterministicRng(engine.config.seed, "pinte-periodic")
        self.rounds = 0
        self.invalidations = 0

    def maybe_tick(self, cycle: int, owner: int) -> int:
        """Run pending trigger opportunities up to ``cycle``.

        Returns the number of blocks invalidated. Bounded work per call: at
        most a handful of rounds even after a long stall.
        """
        invalidated = 0
        fired_rounds = 0
        while cycle >= self.next_due and fired_rounds < 8:
            self.next_due += self.period_cycles
            fired_rounds += 1
            if self._rng.trigger_ratio() > self.engine.config.p_induce:
                continue
            self.rounds += 1
            n_sets = self.engine.llc.n_sets
            for _ in range(min(SETS_PER_ROUND, n_sets)):
                set_index = self._cursor
                self._cursor = (self._cursor + 1) % n_sets
                invalidated += self.engine.on_llc_access(set_index, cycle, owner)
        self.invalidations += invalidated
        return invalidated


class BackgroundDramTraffic:
    """Synthetic DRAM request stream occupying shared channels.

    Models the off-chip half of a co-runner: ``rate_per_kilocycle`` requests
    are injected at jittered intervals across the whole address space,
    advancing each channel's busy window so the workload's own misses queue
    behind them — without simulating a second core.
    """

    def __init__(self, dram: Dram, rate_per_kilocycle: float, seed: int = 0,
                 write_fraction: float = 0.3) -> None:
        if rate_per_kilocycle <= 0:
            raise ValueError("rate_per_kilocycle must be positive")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        self.dram = dram
        self.interval = 1000.0 / rate_per_kilocycle
        self.write_fraction = write_fraction
        self._rng = DeterministicRng(seed, "dram-background")
        self._next_issue = self.interval
        self.requests = 0

    @property
    def next_due(self) -> int:
        """First core cycle at which :meth:`advance` does any work."""
        return math.ceil(self._next_issue)

    def advance(self, cycle: int) -> int:
        """Issue all background requests scheduled up to ``cycle``.

        Returns how many were issued. Work is bounded so a long core stall
        cannot trigger an unbounded catch-up burst.
        """
        issued = 0
        while cycle >= self._next_issue and issued < 64:
            # Random block address across a wide region: spreads over all
            # channels/banks like an independent workload's miss stream.
            address = self._rng.randint(0, (1 << 30) - 1) & ~63
            is_write = self._rng.random() < self.write_fraction
            self.dram.access(address, int(self._next_issue), is_write=is_write)
            jitter = 0.5 + self._rng.random()  # 0.5x - 1.5x the mean interval
            self._next_issue += self.interval * jitter
            issued += 1
        if issued == 64:
            # Catch-up cap hit: resynchronise to now rather than replaying
            # the entire backlog.
            self._next_issue = cycle + self.interval
        self.requests += issued
        return issued
