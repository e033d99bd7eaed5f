"""Per-job probe and per-layer ledger, installed from outside the simulator.

Nothing here edits ``src/``. Both pieces replace class attributes and
module-level function bindings of the ``repro`` package at run time:

* :class:`Probe` keeps a handle on each job's :class:`Session` (one call per
  job) so the exact counters that ``SimulationResult`` does not carry — DRAM
  reads/writes, induced thefts, PInTE triggers on the replay host, and the
  instructions every core retired during warm-up — can be read after the
  job. It wraps only calls made once per job, so it costs nothing
  measurable and is installed in every measuring process.
* :class:`Ledger` wraps the public hot-path entry points of every layer
  (cores, hierarchy glue, each cache level, replacement policy, PInTE,
  contention counters, DRAM, session steppers, campaign and experiments
  glue) and records call counts and *self* time: a span's duration minus
  the part its child spans cover. It is installed only in traced processes,
  before any session is built, because several hot paths bind methods once
  (``Cache.__init__`` binds the policy's ``on_hit``/``on_insert``/
  ``_victim_valid``; ``Core.execute_block`` binds ``hierarchy.fetch/load/
  store`` and ``predictor.update`` at block entry), and wrappers installed
  later would never be seen by those bindings.

Spans are aggregated in memory per (job, layer) and written out once at the
end of the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Dict, List

#: Cache instances are told apart by ``Cache.name``: the timing host builds
#: ``L1I``/``L1D``/``L2``/``LLC``; the replay host builds ``L2f`` filters.
CACHE_LEVELS = ("L1I", "L1D", "L2", "LLC", "L2f")

#: Layers whose spans the ledger records; each one's self time is reported.
LAYERS = (
    "trace.build", "sim.session.build", "sim.session", "cpu", "branch",
    "cache.hierarchy",
    *(f"cache.{level}.{op}" for level in CACHE_LEVELS
      for op in ("access", "fill")),
    "cache.replacement", "core.pinte", "core.counters", "dram",
    "campaign", "experiments.plan", "experiments.execute",
    "experiments.aggregate",
)

_POLICY_METHODS = ("on_hit", "on_insert", "_victim_valid", "victim",
                   "promote", "eviction_order_into", "hit_position",
                   "record_miss")
_TRACKER_METHODS = ("record_access", "record_theft", "record_refill",
                    "record_trigger", "record_promotion")


#: Installed probes and ledgers, oldest first. Forked children (the
#: campaign pool's workers) undo them all, newest first: a worker would
#: otherwise run traced without reporting its spans, and keep every
#: session it builds alive in a probe no one reads.
_ACTIVE: List = []


def _uninstall_all() -> None:
    while _ACTIVE:
        _ACTIVE[-1].uninstall()


os.register_at_fork(after_in_child=_uninstall_all)


def _rebind_function(original: Callable, replacement: Callable,
                     undo: List) -> None:
    """Point every ``repro`` module's name for ``original`` at the wrapper.

    Functions imported with ``from module import name`` are separate
    bindings in each importer, so a wrapper is only seen where it is bound.
    Modules imported later copy the (already rebound) name from its source.
    """
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


def _rebind_method(cls: type, attr: str, replacement: Callable,
                   undo: List) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def _undo(undo: List) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
    undo.clear()


def _methods_in_hierarchy(classes, names):
    """(class, name) for each method defined (not inherited) in the MRO."""
    seen = set()
    for cls in classes:
        for klass in cls.__mro__:
            for name in names:
                if name in klass.__dict__ and (klass, name) not in seen:
                    seen.add((klass, name))
                    yield klass, name


class Probe:
    """Once-per-job handles on the session every host builds.

    ``sessions`` holds the sessions built since the last :meth:`take`;
    ``warmup_instructions`` maps ``id(session)`` to the instructions each
    core had retired when the warm-up statistics were reset.
    """

    def __init__(self) -> None:
        self.sessions: List = []
        self.warmup_instructions: Dict[int, List[int]] = {}
        self._undo: List = []

    def install(self) -> "Probe":
        from repro.sim.session import Session, SessionBuilder

        for attr in ("build_timing", "build_cache_only"):
            _rebind_method(SessionBuilder, attr,
                           self._capture(SessionBuilder.__dict__[attr]),
                           self._undo)
        reset = Session.__dict__["reset_statistics"]
        warmup = self.warmup_instructions

        @functools.wraps(reset)
        def reset_statistics(session):
            warmup[id(session)] = [core.stats.instructions
                                   for core in session.cores]
            return reset(session)

        _rebind_method(Session, "reset_statistics", reset_statistics,
                       self._undo)
        _ACTIVE.append(self)
        return self

    def _capture(self, build: Callable) -> Callable:
        sessions = self.sessions

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            session = build(*args, **kwargs)
            sessions.append(session)
            return session
        return wrapper

    def capture_executions(self) -> List:
        """Keep each ``execute_plan`` outcome (one per reproduction).

        Returns the list the outcomes are appended to. ``run_reproduction``
        returns only the rendered reports, so this is the benchmark's only
        view of the campaign reports (pool steals, retries, failures).
        """
        from repro.experiments import registry

        execute = registry.execute_plan
        outcomes: List = []

        @functools.wraps(execute)
        def execute_plan(*args, **kwargs):
            outcome = execute(*args, **kwargs)
            outcomes.append(outcome)
            return outcome

        _rebind_function(execute, execute_plan, self._undo)
        return outcomes

    def take(self) -> List:
        """The sessions built since the last call (and forget them)."""
        sessions = list(self.sessions)
        self.sessions.clear()
        return sessions

    def uninstall(self) -> None:
        _undo(self._undo)
        if self in _ACTIVE:
            _ACTIVE.remove(self)


class Ledger:
    """Self time and call counts per layer, from class-level wrappers.

    Each accumulator is ``[calls, self_seconds, truthy_returns]``; the third
    slot counts hits for ``Cache.access`` and is unused elsewhere.
    :meth:`close_job` moves the running totals into :attr:`jobs`, keyed by
    (job id, layer).
    """

    def __init__(self) -> None:
        self.layers: Dict[str, list] = {name: [0, 0.0, 0] for name in LAYERS}
        self.jobs: Dict[tuple, list] = {}
        # The root frame collects the time of top-level spans.
        self._stack: List[float] = [0.0]
        self._undo: List = []

    # -- wrappers -----------------------------------------------------------
    def _timed(self, fn: Callable, layer: str) -> Callable:
        acc = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed - stack.pop()
                stack[-1] += elapsed
        return wrapper

    def _timed_cache(self, fn: Callable, op: str) -> Callable:
        accs = {level: self.layers[f"cache.{level}.{op}"]
                for level in CACHE_LEVELS}
        stack = self._stack
        clock = time.perf_counter
        count_hits = op == "access"

        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            acc = accs[cache.name]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(cache, *args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += 1
                acc[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if count_hits and result:
                acc[2] += 1
            return result
        return wrapper

    # -- install ------------------------------------------------------------
    def install(self) -> "Ledger":
        """Wrap every layer's entry points; call before any session exists."""
        from repro.branch import PREDICTORS
        from repro.cache.cache import Cache
        from repro.cache.hierarchy import MemoryHierarchy
        from repro.cache.replacement import POLICIES
        from repro.campaign.engine import run_campaign
        from repro.core.counters import ContentionTracker
        from repro.core.pinte import PInTE
        from repro.cpu.core import Core
        from repro.dram.model import Dram
        from repro.experiments import registry
        from repro.sim import session as sess
        from repro.trace import synthetic

        undo = self._undo

        def method(cls, attr, layer):
            _rebind_method(cls, attr, self._timed(cls.__dict__[attr], layer),
                           undo)

        def function(fn, layer):
            _rebind_function(fn, self._timed(fn, layer), undo)

        function(synthetic.build_trace, "trace.build")
        for attr in ("build_timing", "build_cache_only"):
            method(sess.SessionBuilder, attr, "sim.session.build")
        for cls in (sess.SingleCoreStepper, sess.MultiCoreStepper,
                    sess.AccessReplayStepper, sess.ReplayGroup):
            method(cls, "run", "sim.session")
        method(sess.Session, "reset_statistics", "sim.session")
        for fn in (sess.drive, sess.finalise_result, sess.finish):
            function(fn, "sim.session")
        for attr in ("execute", "execute_cols", "execute_block"):
            method(Core, attr, "cpu")
        for cls, attr in _methods_in_hierarchy(
                [PREDICTORS[name] for name in PREDICTORS.names()],
                ("update",)):
            method(cls, attr, "branch")
        for attr in ("fetch", "load", "store"):
            method(MemoryHierarchy, attr, "cache.hierarchy")
        for op in ("access", "fill"):
            _rebind_method(Cache, op, self._timed_cache(
                Cache.__dict__[op], op), undo)
        for cls, attr in _methods_in_hierarchy(
                [POLICIES[name] for name in POLICIES.names()],
                _POLICY_METHODS):
            method(cls, attr, "cache.replacement")
        method(PInTE, "on_llc_access", "core.pinte")
        for attr in _TRACKER_METHODS:
            method(ContentionTracker, attr, "core.counters")
        method(Dram, "access", "dram")
        function(run_campaign, "campaign")
        function(registry.plan_union, "experiments.plan")
        function(registry.execute_plan, "experiments.execute")
        method(registry.Artifact, "report", "experiments.aggregate")
        _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        _undo(self._undo)
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    # -- aggregation ----------------------------------------------------------
    def close_job(self, job: str) -> None:
        """Move the running totals into the per-(job, layer) table."""
        for layer, acc in self.layers.items():
            if acc[0]:
                row = self.jobs.setdefault((job, layer), [0, 0.0, 0])
                row[0] += acc[0]
                row[1] += acc[1]
                row[2] += acc[2]
                acc[0], acc[1], acc[2] = 0, 0.0, 0

    def totals(self, jobs) -> Dict[str, list]:
        """Per-layer sums over the given job ids."""
        out = {layer: [0, 0.0, 0] for layer in LAYERS}
        for (job, layer), row in self.jobs.items():
            if job in jobs:
                acc = out[layer]
                acc[0] += row[0]
                acc[1] += row[1]
                acc[2] += row[2]
        return out

    def to_records(self) -> List[dict]:
        """The per-(job, layer) table as plain records (for the span file)."""
        return [{"job": job, "layer": layer, "calls": row[0],
                 "self_s": row[1], "truthy": row[2]}
                for (job, layer), row in sorted(self.jobs.items())]
