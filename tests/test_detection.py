"""Tests for window extraction, the MST, snapshot diffs, and the
vulnerability detector."""

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core.offline import run_offline
from repro.detection.leakage import LeakageDetector
from repro.detection.mst import MisspeculationTable
from repro.detection.snapshot_diff import window_diff
from repro.detection.vulnerability import VulnerabilityDetector
from repro.detection.windows import extract_windows
from repro.fuzz.seeds import random_seed, special_seeds
from repro.fuzz.triggers import all_triggers, mwait_trigger, zenbleed_trigger
from repro.utils.rng import DeterministicRng


@pytest.fixture(scope="module")
def core():
    return BoomCore(BoomConfig.small(VulnConfig.all()))


@pytest.fixture(scope="module")
def offline(core):
    return run_offline(core.netlist)


@pytest.fixture(scope="module")
def detector(core, offline):
    return VulnerabilityDetector(
        offline.pdlc,
        monitor_dcache=True,
        line_bytes=core.config.line_bytes,
        dcache_sets=core.config.dcache_sets,
    )


class TestWindowExtraction:
    def test_matches_ground_truth_on_seeds(self, core):
        for seed in special_seeds():
            result = core.run(seed)
            derived = {
                (w.tag, w.start, w.end, w.pc, w.word, w.mispredicted)
                for w in extract_windows(result.trace)
            }
            truth = {
                (w.tag, w.start, w.end, w.pc, w.word, w.mispredicted)
                for w in result.windows
            }
            assert derived == truth

    @pytest.mark.parametrize("trial", range(12))
    def test_matches_ground_truth_on_random(self, core, trial):
        program = random_seed(DeterministicRng(9000 + trial), length=28)
        result = core.run(program)
        derived = {
            (w.tag, w.start, w.end, w.mispredicted)
            for w in extract_windows(result.trace)
        }
        truth = {
            (w.tag, w.start, w.end, w.mispredicted)
            for w in result.windows
        }
        assert derived == truth

    def test_windows_sorted_by_start(self, core):
        result = core.run(special_seeds()[1])
        starts = [w.start for w in extract_windows(result.trace)]
        assert starts == sorted(starts)


class TestMst:
    def test_render_has_paper_columns(self, core):
        result = core.run(special_seeds()[0])
        mst = MisspeculationTable()
        added = mst.add_windows(extract_windows(result.trace))
        assert added == len(result.mispredicted_windows())
        text = mst.render()
        for column in ("ID", "Start", "End", "Instruction", "Instruction(Readable)"):
            assert column in text

    def test_row_contents(self, core):
        result = core.run(special_seeds()[0])
        mst = MisspeculationTable()
        mst.add_windows(extract_windows(result.trace))
        text = mst.render()
        assert "BEQ" in text  # the seed's mispredicted branch

    def test_limit(self, core):
        mst = MisspeculationTable()
        for seed in special_seeds():
            mst.add_windows(extract_windows(core.run(seed).trace))
        limited = mst.render(limit=1)
        assert limited.count("\n") <= 4


class TestSnapshotDiff:
    def test_diff_names_signals(self, core):
        result = core.run(special_seeds()[0])
        window = extract_windows(result.trace)[0]
        changed = window_diff(result.trace, window)
        assert changed
        assert all(name in result.trace.signal_names for name in changed)
        for before, after in changed.values():
            assert before != after


class TestLeakageDetector:
    def test_only_mispredicted_windows(self, core):
        detector = LeakageDetector()
        result = core.run(special_seeds()[1])
        leaks = detector.potential_leaks(result)
        assert all(leak.window.mispredicted for leak in leaks)

    def test_no_speculation_no_leaks(self, core):
        from repro.fuzz.input import TestProgram
        from repro.isa.assembler import assemble

        words = assemble("addi t0, zero, 3\necall\n")
        result = core.run(TestProgram(words=words))
        assert LeakageDetector().potential_leaks(result) == []


class TestVulnerabilityDetector:
    def run_detect(self, core, detector, program):
        result = core.run(program)
        leaks = LeakageDetector().potential_leaks(result)
        return result, detector.detect(result, leaks)

    def test_all_triggers_detected(self, core, detector):
        for kind, program in all_triggers().items():
            _, reports = self.run_detect(core, detector, program)
            assert kind in {r.kind for r in reports}, f"missed {kind}"

    def test_mwait_root_cause_is_dcache_to_timer(self, core, detector):
        _, reports = self.run_detect(core, detector, mwait_trigger())
        report = next(r for r in reports if r.kind == "mwait")
        assert report.leaked_signals == ("boom.csr.mwait_timer",)
        assert any(
            ".dcache." in cause.source and cause.dest == "boom.csr.mwait_timer"
            for cause in report.root_causes
        )

    def test_zenbleed_root_cause_involves_rename(self, core, detector):
        _, reports = self.run_detect(core, detector, zenbleed_trigger())
        report = next(r for r in reports if r.kind == "zenbleed")
        assert any("boom.arch.x" in s for s in report.leaked_signals)
        assert any(
            ".rename." in cause.source for cause in report.root_causes
        )

    def test_committed_changes_not_flagged(self, core, offline):
        """A mispredicted window full of legitimate commits is clean."""
        from repro.fuzz.input import TestProgram
        from repro.fuzz.seeds import seed_context
        from repro.isa.assembler import assemble

        detector = VulnerabilityDetector(offline.pdlc, monitor_dcache=False)
        words = assemble("""
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            addi t3, zero, 5
            nop
        target:
            sd   t2, 8(s0)
            ecall
        """)
        result = core.run(seed_context(TestProgram(words=words)))
        leaks = LeakageDetector().potential_leaks(result)
        reports = detector.detect(result, leaks)
        # Without zenbleed_en set and without dcache monitoring there is
        # nothing unexplained architecturally.
        assert reports == []

    def test_report_rendering(self, core, detector):
        _, reports = self.run_detect(core, detector, zenbleed_trigger())
        text = reports[0].render()
        assert "misspeculated window" in text
        assert "root cause" in text

    def test_spectre_classification_by_opener(self, core, detector):
        from repro.fuzz.triggers import spectre_v1_trigger, spectre_v2_trigger

        _, v1_reports = self.run_detect(core, detector, spectre_v1_trigger())
        assert "spectre_v1" in {r.kind for r in v1_reports}
        _, v2_reports = self.run_detect(core, detector, spectre_v2_trigger())
        assert "spectre_v2" in {r.kind for r in v2_reports}

    def test_unarmed_core_detects_no_emulated_vulns(self, offline):
        plain_core = BoomCore(BoomConfig.small())
        plain_offline = run_offline(plain_core.netlist)
        detector = VulnerabilityDetector(plain_offline.pdlc, monitor_dcache=False)
        for kind in ("mwait", "zenbleed"):
            program = all_triggers()[kind]
            result = plain_core.run(program)
            leaks = LeakageDetector().potential_leaks(result)
            reports = detector.detect(result, leaks)
            assert kind not in {r.kind for r in reports}
