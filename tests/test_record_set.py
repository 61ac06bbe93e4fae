"""The read-set fast path against full recording.

The online phase hands every PUT run the union of the trace slots its
consumers read, and BOOM skips the writes to slot families outside it.
That is only sound if (a) a read-set run is the full run with some
slots' events left out, and (b) every consumer reads only the slots it
declares.  This file checks both against full recording:

1. a read-set run and a full run agree on everything but the trace
   (cycles, commits, ground-truth windows, coverage points, ...);
2. the read-set trace is the full trace filtered to the recorded slots,
   event for event and in order, and records every read slot;
3. each consumer gives the same answer on the full trace filtered to
   exactly its declared slots as on the full trace — so a consumer
   that reads an undeclared slot fails here, whichever slots BOOM
   happens to skip today;
4. ``OnlinePhase.evaluate`` and ``run_once`` return identical items and
   findings with the read set, with full recording and with traces cut
   down to the read set.

Scenarios: every BOOM scenario in the registry (LP and code coverage
arms, the ift and contract detectors, every armed vulnerability and
speculation set) plus ``quickstart`` under ``detector="both"``, on the
core's special seeds, every trigger gadget and random programs.
"""

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OnlinePhase
from repro.coverage.code import CodeCoverage
from repro.detection.leakage import LeakageDetector
from repro.fuzz.mutations import MutationEngine
from repro.fuzz.seeds import random_seed
from repro.fuzz.triggers import all_triggers
from repro.rtl.trace import SignalTrace
from repro.scenarios.registry import get_scenario, scenario_names
from repro.utils.rng import DeterministicRng

BOOM_SCENARIOS = [name for name in scenario_names()
                  if get_scenario(name).design != "spec-cpu"]

_SPECS = {name: get_scenario(name) for name in BOOM_SCENARIOS}
_SPECS["quickstart+both"] = get_scenario("quickstart").override(
    detector="both")

#: Slot families BOOM may leave unrecorded (name suffixes).
_FAMILIES = ("_valid", "_unsafe", "rob.count", "rob.head")


def _random_program(seed: int, mutate: bool = True):
    rng = DeterministicRng(seed)
    program = random_seed(rng, length=rng.randint(6, 30))
    if mutate:
        program = MutationEngine(rng.fork(1)).mutate(
            program, rounds=rng.randint(1, 4))
    return program


def _programs(core):
    return (list(core.special_seeds()) + list(all_triggers().values())
            + [_random_program(seed) for seed in range(4)])


def _filtered(trace: SignalTrace, slots) -> SignalTrace:
    """``trace`` with only the events of ``slots`` (initial state kept)."""
    kept = SignalTrace(trace.signal_names, trace.initial)
    for event in trace.events:
        if event.signal in slots:
            kept.record(*event)
    kept.close(trace.final_cycle)
    return kept


def _cut(result, slots):
    return replace(result, trace=_filtered(result.trace, slots))


class _Recording:
    """A PUT that records every slot, then keeps the events of
    ``keep(read)`` (``None``: all of them)."""

    def __init__(self, core, keep):
        self._core = core
        self._keep = keep

    def __getattr__(self, name):
        return getattr(self._core, name)

    def run(self, program, read=None):
        result = self._core.run(program)
        slots = self._keep(read)
        return result if slots is None else _cut(result, slots)


def _full(core):
    return _Recording(core, lambda read: None)


def _exact(core):
    return _Recording(core, lambda read: read)


def _setup(key):
    spec = _SPECS[key]
    specure = spec.build_specure()
    return spec, specure, specure.build_online()


# -- 1 and 2: the run itself ---------------------------------------------

def assert_same_run(core, program, read):
    full = core.run(program)
    fast = core.run(program, read=read)
    for name in ("cycles", "instret", "commits", "windows",
                 "coverage_points", "halt_reason", "arch_regs",
                 "csr_values", "instrumented"):
        assert getattr(fast, name) == getattr(full, name), name
    fast_trace, full_trace = fast.trace, full.trace
    assert fast_trace.initial == full_trace.initial
    assert fast_trace.final_cycle == full_trace.final_cycle
    recorded = set(fast_trace.columns().signals)
    changed = set(full_trace.columns().signals)
    # Never fewer: every read slot that changed is recorded.
    assert read & changed <= recorded
    # The left-out slots are whole families outside the read set.
    names = full_trace.signal_names
    for slot in changed - recorded:
        assert slot not in read
        assert names[slot].endswith(_FAMILIES), names[slot]
    # Event for event, in order: the full trace minus the left-out slots.
    assert fast_trace.events == _filtered(full_trace, recorded).events
    return changed - recorded


@pytest.mark.parametrize("key", sorted(_SPECS))
def test_read_set_run_is_the_filtered_full_run(key):
    spec, specure, online = _setup(key)
    skipped = set()
    for program in _programs(specure.core):
        skipped |= assert_same_run(specure.core, program, online.read_set)
    if spec.coverage == "code":
        assert not skipped  # code coverage reads every slot
    else:
        assert skipped  # the LP arm really leaves families out


# -- 3: each consumer reads only what it declares -------------------------

def assert_consumers_read_what_they_declare(online, result):
    names = result.trace.signal_names
    leakage, lp = online.leakage, online.lp
    windows = leakage.windows(result)
    assert leakage.windows(_cut(result, leakage.reads(names))) == windows
    assert lp.covered(_cut(result, lp.reads())) == lp.covered(result)
    if online.coverage_kind == "code":
        code = online.code
        assert code.items(_cut(result, CodeCoverage.reads(names))) \
            == code.items(result)
    if online.detector_mode in ("ift", "both"):
        detector = online.vulnerability
        view = _cut(result, detector.reads(names))
        assert detector.detect(
            view, leakage.potential_leaks(view, windows=windows)
        ) == detector.detect(
            result, leakage.potential_leaks(result, windows=windows))
    if online.contract is not None:
        collector = online.contract.collector
        assert collector.collect(_cut(result, collector.reads())) \
            == collector.collect(result)


@pytest.mark.parametrize("key", sorted(_SPECS))
def test_consumers_read_only_declared_slots(key):
    _, specure, online = _setup(key)
    for program in _programs(specure.core):
        assert_consumers_read_what_they_declare(
            online, specure.core.run(program))


def _slot(online, name):
    return online.core.signal_names().index(name)


@pytest.mark.parametrize("consumer, scenario, dropped", [
    ("leakage", "dcache-monitor-sweep", "boom.rob.disp_tag"),
    ("lp", "dcache-monitor-sweep", None),
    ("vulnerability", "zenbleed-mwait", "boom.csr.mwait_timer"),
    ("collector", "spectre-v1-contract", "boom.arch.pc"),
])
def test_an_undeclared_read_fails_the_check(monkeypatch, consumer,
                                            scenario, dropped):
    """The check in ``test_consumers_read_only_declared_slots`` is not
    vacuous: a consumer that declares one slot fewer than it reads
    fails it on some program."""
    _, specure, online = _setup(scenario)
    owner = {
        "leakage": type(online.leakage),
        "lp": type(online.lp),
        "vulnerability": type(online.vulnerability),
        "collector": type(online.contract.collector)
        if online.contract else None,
    }[consumer]
    declared = owner.reads
    if dropped is None:
        # The LP calculator: drop every intermediate path signal.
        target = getattr(online, consumer)
        lp_groups = [set(group) for group in target._group_sets]
        drop = {slot for group in lp_groups if len(group) > 1
                for slot in group}

        def under(self, *args):
            return declared(self, *args) - drop
    else:
        slot = _slot(online, dropped)

        def under(self, *args):
            full = declared(self, *args)
            assert slot in full
            return full - {slot}
    monkeypatch.setattr(owner, "reads", under)
    failed = False
    for program in _programs(specure.core):
        try:
            assert_consumers_read_what_they_declare(
                online, specure.core.run(program))
        except AssertionError:
            failed = True
            break
    assert failed


# -- 4: the online phase end to end ---------------------------------------

@pytest.mark.parametrize("key", sorted(_SPECS))
def test_evaluate_matches_full_recording(key):
    spec, specure, fast = _setup(key)
    offline = specure.offline()
    full = OnlinePhase(_full(specure.core), offline, spec)
    exact = OnlinePhase(_exact(specure.core), offline, spec)
    assert exact.read_set == fast.read_set
    for program in _programs(specure.core):
        items, findings, metadata = full.evaluate(program)
        for phase in (fast, exact):
            assert phase.evaluate(program) == (items, findings, metadata)
        reports = full.run_once(program)[1]
        assert fast.run_once(program)[1] == reports
        assert exact.run_once(program)[1] == reports
    assert fast.lp_covered == full.lp_covered
    assert fast.stats.contract_runs == full.stats.contract_runs


# -- random programs --------------------------------------------------------

_RANDOM_KEYS = ("quickstart", "zenbleed-mwait", "spectre-ssb",
                "meltdown", "spectre-rsb", "code-coverage-race")
_cached_setup = cache(_setup)


@given(seed=st.integers(min_value=0, max_value=10**6),
       key=st.sampled_from(_RANDOM_KEYS), mutate=st.booleans())
@settings(max_examples=40, deadline=None)
def test_random_programs(seed, key, mutate):
    _, specure, online = _cached_setup(key)
    program = _random_program(seed, mutate)
    assert_same_run(specure.core, program, online.read_set)
    assert_consumers_read_what_they_declare(online, specure.core.run(program))


def test_leakage_declares_the_five_strobes():
    _, specure, online = _setup("quickstart")
    names = specure.core.signal_names()
    declared = {names[slot] for slot in LeakageDetector().reads(names)}
    assert declared == {
        "boom.rob.disp_tag", "boom.rob.disp_pc", "boom.rob.disp_word",
        "boom.rob.res_tag", "boom.rob.res_mispredict",
    }
