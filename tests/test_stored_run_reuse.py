"""A stored run does each piece of work once.

* The online statics (LP coverage groups, the vulnerability detector's
  destination index) are built once per offline artifact set and shared
  by every online phase on it — and die with the artifacts.
* The finding minimizer probes each distinct program once per run, and
  still trims every finding to exactly what an uncached pipeline does.
* Forking the worker fleet leaves the parent's collector unfrozen.
"""

import gc
import weakref

from repro.boom.core import BoomCore
from repro.core.online import OnlinePhase
from repro.core.specure import Specure
from repro.fuzz.crash import CRASH_KIND, crash_report
from repro.fuzz.fuzzer import FuzzFinding
from repro.fuzz.input import TestProgram
from repro.fuzz.trim import trim_program
from repro.harness.parallel import shutdown_pool
from repro.scenarios import get_scenario
from repro.scenarios.runner import (
    _contained_run_once,
    _Minimizer,
    replay_findings,
    run_scenario,
)


def _reference_trim(spec, finding: FuzzFinding) -> TestProgram:
    """The slow reference: ``trim_program`` driven by a fresh pipeline
    (its own PUT and offline artifacts, so nothing is shared or
    memoized) that re-runs every probe."""
    online = Specure(spec).build_online()

    def still_leaks(program):
        _, reports = _contained_run_once(online, program)
        if finding.kind == CRASH_KIND:
            return any(r.kind == CRASH_KIND
                       and r.exception == finding.detail.exception
                       for r in reports)
        return finding.kind in {r.kind for r in reports}

    return trim_program(finding.program, still_leaks)


def _assert_minimizes_like_reference(spec, findings):
    minimized = _Minimizer(Specure(spec).build_online()).minimize(findings)
    assert minimized, "no finding minimized"
    for index, finding in enumerate(findings):
        expected = _reference_trim(spec, finding)
        assert minimized[index].key() == expected.key()
        assert minimized[index].label == expected.label


class TestMinimizerMatchesReference:
    def test_contract_findings(self):
        spec = get_scenario("spectre-v1-contract")
        findings = Specure(spec).campaign(1).fuzz.findings
        assert findings and all(f.kind.startswith("contract")
                                for f in findings)
        _assert_minimizes_like_reference(spec, findings)

    def test_ift_findings_sharing_one_program(self):
        # Every shard of the sweep finds its leak in the same seed, so
        # the findings repeat one program: the memo serves the repeats.
        spec = get_scenario("dcache-monitor-sweep")
        finding = Specure(spec).campaign(1).fuzz.findings[0]
        _assert_minimizes_like_reference(spec, [finding, finding])

    def test_crash_finding(self, monkeypatch):
        spec = get_scenario("quickstart")
        program = Specure(spec).core.special_seeds()[0]
        poison = program.words[len(program.words) // 2]
        real_run = BoomCore.run

        def poisoned_run(self, candidate, read=None):
            if poison in candidate.words:
                raise ValueError("simulator choked on the poison word")
            return real_run(self, candidate, read)

        monkeypatch.setattr(BoomCore, "run", poisoned_run)
        finding = FuzzFinding(
            iteration=0, kind=CRASH_KIND,
            detail=crash_report(ValueError("poison")), program=program)
        _assert_minimizes_like_reference(spec, [finding])
        # The trim kept exactly the poison word.
        minimized = _Minimizer(Specure(spec).build_online()).minimize(
            [finding])
        assert minimized[0].words == [poison]


class TestProbeMemo:
    def test_repeated_programs_probe_once(self, monkeypatch):
        spec = get_scenario("dcache-monitor-sweep")
        finding = Specure(spec).campaign(1).fuzz.findings[0]
        online = Specure(spec).build_online()
        probed = []
        real_run_once = OnlinePhase.run_once

        def counting_run_once(self, program):
            probed.append(program.key())
            return real_run_once(self, program)

        monkeypatch.setattr(OnlinePhase, "run_once", counting_run_once)
        once = _Minimizer(online).minimize([finding])
        single = len(probed)
        assert single == len(set(probed))  # no program probed twice
        probed.clear()
        twice = _Minimizer(online).minimize([finding, finding, finding])
        assert len(probed) == single
        assert twice[0].key() == twice[2].key() == once[0].key()

    def test_max_cycles_is_part_of_the_identity(self):
        short = TestProgram(words=[1, 2], max_cycles=10)
        long = TestProgram(words=[1, 2], max_cycles=20)
        assert short.key() != long.key()
        assert short.to_bytes() == long.to_bytes()
        assert short.key() == short.copy().key()
        assert short.fingerprint() == hash(short.key())

    def test_replay_probes_each_stored_program_once(self, tmp_path,
                                                     monkeypatch):
        spec = get_scenario("dcache-monitor-sweep").override(
            iterations=1, shards=3)
        run_dir = tmp_path / "run"
        run_scenario(spec, run_dir=run_dir, jobs=1, minimize=False)
        probed = []
        real_run_once = OnlinePhase.run_once

        def counting_run_once(self, program):
            probed.append(program.key())
            return real_run_once(self, program)

        monkeypatch.setattr(OnlinePhase, "run_once", counting_run_once)
        results = replay_findings(run_dir)
        assert len(results) == 3 and all(r.confirmed for r in results)
        assert len(probed) == len(set(probed)) == 1

    def test_counters_split_probes_from_hits(self, tmp_path):
        spec = get_scenario("dcache-monitor-sweep").override(
            iterations=1, shards=2)
        outcome = run_scenario(spec, run_dir=tmp_path / "run", jobs=1,
                               telemetry=True)
        counters = outcome.telemetry.metrics["counters"]
        assert counters["minimize.probes"] > 0
        # The second shard's finding repeats the first one's program.
        assert counters["minimize.probe_hits"] >= counters["minimize.probes"]


class TestOnlineStatics:
    def test_phases_on_one_artifact_set_share_the_statics(self):
        spec = get_scenario("quickstart")
        specure = Specure(spec)
        first = specure.build_online()
        second = OnlinePhase(specure.core, specure.offline(), spec)
        assert first.lp is second.lp
        assert first.vulnerability is second.vulnerability
        # Per-campaign state is never shared.
        assert first.stats is not second.stats
        assert first.mst is not second.mst

    def test_distinct_inputs_do_not_share(self):
        spec = get_scenario("quickstart")
        specure = Specure(spec)
        unpruned = specure.build_online()
        pruned = OnlinePhase(specure.core, specure.offline(),
                             spec.override(static_prune=True))
        assert pruned.lp is not unpruned.lp
        assert pruned.lp.include != unpruned.lp.include
        flipped = not spec.monitor_dcache
        dcache = OnlinePhase(specure.core, specure.offline(),
                             spec.override(monitor_dcache=flipped))
        assert dcache.vulnerability is not unpruned.vulnerability
        assert dcache.vulnerability.monitor_dcache is flipped

    def test_other_artifacts_build_their_own(self):
        spec = get_scenario("quickstart")
        assert Specure(spec).build_online().lp is not \
            Specure(spec).build_online().lp

    def test_dropped_artifacts_are_collected(self):
        specure = Specure(get_scenario("quickstart"))
        specure.build_online()
        artifacts = weakref.ref(specure.offline())
        del specure
        gc.collect()
        assert artifacts() is None


class TestForkFreeze:
    def test_parent_collector_is_unfrozen_after_a_fleet_run(self):
        spec = get_scenario("dcache-monitor-sweep").override(
            iterations=1, shards=2)
        shutdown_pool()  # force a fresh fork under this run
        try:
            outcome = run_scenario(spec, jobs=2, minimize=False)
        finally:
            shutdown_pool()
        assert outcome.report is not None
        assert gc.get_freeze_count() == 0
