"""Per-layer timers wrapped around the public calls of each module.

Nothing in the program is edited: :func:`install` replaces class and
module attributes (the names callers look up at call time) with timing
wrappers and returns a function that puts the originals back.  Each
layer records inclusive seconds, self seconds (inclusive minus the time
of nested wrapped calls), call counts and layer-specific counters.

Shards that run in forked worker processes are wrapped by
:func:`_traced_shard`, which ships the worker's own counters back with
the shard result; they are merged into the layer totals but not into
the parent's self time, because they run beside it.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: The tracer the wrappers report to while installed.  Module-level so
#: that a forked shard worker, which only receives a pickled function
#: reference, finds the same tracer object.
_ACTIVE: "Tracer | None" = None


class Tracer:
    """Seconds and counts per layer for one process."""

    def __init__(self):
        self.owner_pid = os.getpid()
        #: Open wrapped calls, innermost last: each holds the seconds
        #: its nested wrapped calls took.  Wrappers keep a reference,
        #: so :meth:`reset` empties it in place.
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack.clear()
        self.trim_depth = 0

    def timed(self, layer: str, fn, after=None):
        """``fn`` wrapped so its time counts towards ``layer``.

        ``after(tracer, result, args)`` records counters from the call.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.seconds[layer] += elapsed
                self.self_seconds[layer] += elapsed - frame[0]
                self.counts[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def attributed_seconds(self) -> float:
        """Parent-process time spent inside any wrapped layer."""
        return sum(self.self_seconds.values())

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def merge_worker(self, snapshot: dict) -> None:
        for layer, seconds in snapshot["seconds"].items():
            self.seconds[layer] += seconds
        for name, count in snapshot["counts"].items():
            self.counts[name] += count


# -- counters recorded after a wrapped call ---------------------------------

def _sim_cycles(prefix):
    def after(tracer, result, args):
        tracer.counts[f"{prefix}.sim_cycles"] += result.cycles
    return after


def _windows(tracer, windows, args):
    tracer.counts["detection.windows"] += len(windows)
    tracer.counts["detection.mispredicted_windows"] += sum(
        1 for window in windows if window.mispredicted)


def _violations(tracer, violations, args):
    tracer.counts["contracts.violations"] += len(violations)


def _memo_trace(tracer, fn):
    """``GoldenTraceMemo.trace`` timed, with its hit/miss split."""
    timed = tracer.timed("golden.trace", fn)

    @functools.wraps(fn)
    def wrapper(memo, *args, **kwargs):
        hits = memo.hits
        result = timed(memo, *args, **kwargs)
        key = "golden.memo_hits" if memo.hits > hits else "golden.memo_misses"
        tracer.counts[key] += 1
        size = len(memo)
        if size > tracer.counts["golden.memo_size"]:
            tracer.counts["golden.memo_size"] = size
        return result

    return wrapper


def _evaluate(tracer, fn):
    """``OnlinePhase.evaluate`` with the trace events it examined."""

    @functools.wraps(fn)
    def wrapper(online, program):
        before = online.events_examined
        result = fn(online, program)
        tracer.counts["rtl.trace.events_examined"] += \
            online.events_examined - before
        return result

    return wrapper


def _run_once(tracer, fn):
    """``OnlinePhase.run_once``, counted as a probe while trimming."""

    @functools.wraps(fn)
    def wrapper(online, program):
        if tracer.trim_depth:
            tracer.counts["fuzz.trim_probes"] += 1
        return fn(online, program)

    return wrapper


def _trim(tracer, fn):
    timed = tracer.timed("fuzz.trim", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.trim_depth += 1
        try:
            return timed(*args, **kwargs)
        finally:
            tracer.trim_depth -= 1

    return wrapper


def _contract_init(tracer, fn):
    """Wrap each new detector's ``run_hardware`` instance attribute."""

    @functools.wraps(fn)
    def wrapper(detector, *args, **kwargs):
        fn(detector, *args, **kwargs)
        detector.run_hardware = tracer.timed(
            "contracts.variant_run", detector.run_hardware)

    return wrapper


def _imap_shards(tracer, fn):
    """Time the parent blocked on the next shard; unwrap worker counters."""

    @functools.wraps(fn)
    def wrapper(worker, specs, jobs, policy=None):
        shards = fn(functools.partial(_traced_shard, worker), specs, jobs,
                    policy)
        next_shard = tracer.timed("harness.parallel.wait", next)
        try:
            while True:
                try:
                    task, result = next_shard(shards)
                except StopIteration:
                    return
                if isinstance(result, tuple) and len(result) == 2 \
                        and isinstance(result[1], dict):
                    result, snapshot = result
                    tracer.merge_worker(snapshot)
                yield task, result
        finally:
            # An abandoned campaign must tear its workers down now,
            # as the unwrapped generator does.
            shards.close()

    return wrapper


def _traced_shard(worker, task):
    """Run one shard; in a worker process, return its counters too."""
    tracer = _ACTIVE
    if tracer is None or os.getpid() == tracer.owner_pid:
        return worker(task)
    tracer.reset()
    before = cache_counters()
    result = worker(task)
    for name, value in cache_counters().items():
        if not name.endswith("_size"):
            tracer.counts[name] += value - before[name]
    return result, tracer.snapshot()


def cache_counters() -> dict[str, int]:
    """Hits, misses and size of the process-wide decode caches."""
    from repro.golden.iss import _predecoded_image
    from repro.isa.instructions import decode

    counters = {}
    for prefix, cache in (("isa.decode", decode),
                          ("golden.predecode", _predecoded_image)):
        info = cache.cache_info()
        counters[f"{prefix}_hits"] = info.hits
        counters[f"{prefix}_misses"] = info.misses
        counters[f"{prefix}_size"] = info.currsize
    return counters


def install(tracer: Tracer):
    """Wrap every layer's public calls; returns the undo function."""
    global _ACTIVE
    from repro.boom.core import BoomCore
    from repro.contracts.clauses import GoldenTraceMemo
    from repro.contracts.detector import ContractDetector
    from repro.contracts.hwtrace import HardwareTraceCollector
    from repro.core import online, specure
    from repro.coverage.lp import LpCoverage
    from repro.detection.leakage import LeakageDetector
    from repro.detection.vulnerability import VulnerabilityDetector
    from repro.fuzz.mutations import MutationEngine
    from repro.harness import parallel
    from repro.puts.base import Put
    from repro.puts.rtl import RtlPut
    from repro.scenarios import runner
    from repro.scenarios.store import CampaignStore

    timed = tracer.timed
    patches = [
        (BoomCore, "run", timed("boom", BoomCore.run, _sim_cycles("boom"))),
        (RtlPut, "run", timed("puts.rtl", Put.run, _sim_cycles("puts.rtl"))),
        (LeakageDetector, "windows",
         timed("detection.windows", LeakageDetector.windows, _windows)),
        (LeakageDetector, "potential_leaks",
         timed("detection.leaks", LeakageDetector.potential_leaks)),
        (VulnerabilityDetector, "detect",
         timed("detection.vulnerability", VulnerabilityDetector.detect)),
        (LpCoverage, "items", timed("coverage.lp", LpCoverage.items)),
        (ContractDetector, "detect",
         timed("contracts.detect", ContractDetector.detect, _violations)),
        (ContractDetector, "__init__",
         _contract_init(tracer, ContractDetector.__init__)),
        (HardwareTraceCollector, "collect",
         timed("contracts.hwtrace", HardwareTraceCollector.collect)),
        (GoldenTraceMemo, "trace", _memo_trace(tracer, GoldenTraceMemo.trace)),
        (MutationEngine, "mutate", timed("fuzz.mutate", MutationEngine.mutate)),
        (MutationEngine, "splice", timed("fuzz.mutate", MutationEngine.splice)),
        (online.OnlinePhase, "evaluate",
         _evaluate(tracer, online.OnlinePhase.evaluate)),
        (online.OnlinePhase, "run_once",
         _run_once(tracer, online.OnlinePhase.run_once)),
        (specure, "run_offline", timed("core.offline", specure.run_offline)),
        (parallel, "run_offline", timed("core.offline", parallel.run_offline)),
        (runner, "trim_program", _trim(tracer, runner.trim_program)),
        (runner, "imap_shards", _imap_shards(tracer, runner.imap_shards)),
        (runner, "merge_reports",
         timed("harness.merge", runner.merge_reports)),
        (CampaignStore, "record_shard",
         timed("scenarios.store", CampaignStore.record_shard)),
        (CampaignStore, "finalize",
         timed("scenarios.store", CampaignStore.finalize)),
    ]
    # vars(), not getattr(): RtlPut inherits run, so its undo deletes.
    saved = [(owner, name, vars(owner).get(name))
             for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    _ACTIVE = tracer

    def undo():
        global _ACTIVE
        for owner, name, original in reversed(saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        _ACTIVE = None

    return undo
