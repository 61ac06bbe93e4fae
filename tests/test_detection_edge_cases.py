"""Edge-case tests for the detection stack.

Boundary conditions the main suites do not reach: windows opening at
cycle 0, empty traces, unresolved windows at end of run, the ablation
switch, and malformed inputs to each detector component.
"""

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core.offline import run_offline
from repro.detection.leakage import LeakageDetector
from repro.detection.mst import MisspeculationTable
from repro.detection.snapshot_diff import window_diff
from repro.detection.vulnerability import VulnerabilityDetector
from repro.detection.windows import DetectedWindow, RobSignalMap, extract_windows
from repro.fuzz.input import TestProgram
from repro.fuzz.seeds import seed_context
from repro.fuzz.triggers import zenbleed_trigger
from repro.isa.assembler import assemble
from repro.rtl.trace import SignalTrace


@pytest.fixture(scope="module")
def core():
    return BoomCore(BoomConfig.small(VulnConfig.all()))


@pytest.fixture(scope="module")
def offline(core):
    return run_offline(core.netlist)


def synthetic_trace() -> SignalTrace:
    """A minimal trace with the ROB indicator signals."""
    names = [
        "boom.rob.disp_tag", "boom.rob.disp_pc", "boom.rob.disp_word",
        "boom.rob.res_tag", "boom.rob.res_mispredict", "boom.arch.x5",
    ]
    return SignalTrace(names, [0] * len(names))


class TestWindowEdgeCases:
    def test_empty_trace_no_windows(self):
        trace = synthetic_trace()
        trace.close(10)
        assert extract_windows(trace) == []

    def test_window_opening_at_cycle_zero(self):
        trace = synthetic_trace()
        trace.record(0, trace.index_of("boom.rob.disp_pc"), 0, 0x100)
        trace.record(0, trace.index_of("boom.rob.disp_word"), 0, 0xAB)
        trace.record(0, trace.index_of("boom.rob.disp_tag"), 0, 1)
        trace.record(3, trace.index_of("boom.rob.res_mispredict"), 0, 1)
        trace.record(3, trace.index_of("boom.rob.res_tag"), 0, 1)
        trace.close(5)
        windows = extract_windows(trace)
        assert len(windows) == 1
        window = windows[0]
        assert (window.start, window.end) == (0, 3)
        assert window.pc == 0x100 and window.word == 0xAB
        assert window.mispredicted

    def test_unresolved_window_closes_at_trace_end(self):
        trace = synthetic_trace()
        trace.record(2, trace.index_of("boom.rob.disp_tag"), 0, 1)
        trace.close(9)
        windows = extract_windows(trace)
        assert len(windows) == 1
        assert windows[0].end == 9
        assert not windows[0].resolved
        assert not windows[0].mispredicted

    def test_resolution_without_dispatch_ignored(self):
        trace = synthetic_trace()
        trace.record(1, trace.index_of("boom.rob.res_tag"), 0, 42)
        trace.close(4)
        assert extract_windows(trace) == []

    def test_custom_signal_map(self):
        names = ["x.dt", "x.dp", "x.dw", "x.rt", "x.rm"]
        trace = SignalTrace(names, [0] * 5)
        trace.record(1, 0, 0, 7)
        trace.record(2, 3, 0, 7)
        trace.close(3)
        windows = extract_windows(trace, RobSignalMap(
            disp_tag="x.dt", disp_pc="x.dp", disp_word="x.dw",
            res_tag="x.rt", res_mispredict="x.rm",
        ))
        assert len(windows) == 1

    def test_diff_of_window_at_cycle_zero(self):
        trace = synthetic_trace()
        trace.record(0, trace.index_of("boom.arch.x5"), 0, 9)
        trace.close(2)
        window = DetectedWindow(tag=1, start=0, end=2, pc=0, word=0,
                                mispredicted=True)
        changed = window_diff(trace, window)
        assert changed == {"boom.arch.x5": (0, 9)}


class TestDetectorEdgeCases:
    def test_commit_filter_ablation_switch(self, core, offline):
        """With the filter off, clean misspeculated windows false-positive."""
        words = assemble("""
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            addi t3, zero, 5
        target:
            sd   t2, 8(s0)
            ecall
        """)
        program = seed_context(TestProgram(words=words))
        result = core.run(program)
        leaks = LeakageDetector().potential_leaks(result)
        strict = VulnerabilityDetector(offline.pdlc, commit_filter=True)
        loose = VulnerabilityDetector(offline.pdlc, commit_filter=False)
        assert strict.detect(result, leaks) == []
        assert loose.detect(result, leaks) != []

    def test_counter_csrs_never_flagged(self, core, offline):
        """Free-running counter CSRs are excluded even if they change."""
        detector = VulnerabilityDetector(offline.pdlc)
        result = core.run(zenbleed_trigger())
        leaks = LeakageDetector().potential_leaks(result)
        for report in detector.detect(result, leaks):
            for signal in report.leaked_signals:
                assert signal not in {
                    "boom.csr.mcycle", "boom.csr.minstret",
                    "boom.csr.cycle", "boom.csr.time", "boom.csr.instret",
                }

    def test_max_root_causes_cap(self, core, offline):
        detector = VulnerabilityDetector(offline.pdlc, max_root_causes=2)
        result = core.run(zenbleed_trigger())
        leaks = LeakageDetector().potential_leaks(result)
        for report in detector.detect(result, leaks):
            assert len(report.root_causes) <= 2

    def test_detect_with_no_leaks(self, core, offline):
        detector = VulnerabilityDetector(offline.pdlc)
        words = assemble("addi t0, zero, 1\necall\n")
        result = core.run(TestProgram(words=words))
        assert detector.detect(result, []) == []


class TestMstEdgeCases:
    def test_empty_mst_renders(self):
        mst = MisspeculationTable()
        text = mst.render()
        assert "Misspeculation Table" in text
        assert len(mst) == 0

    def test_only_mispredicted_rows_added(self):
        mst = MisspeculationTable()
        windows = [
            DetectedWindow(tag=1, start=0, end=2, pc=0, word=0x13,
                           mispredicted=False),
            DetectedWindow(tag=2, start=3, end=5, pc=4, word=0x13,
                           mispredicted=True),
        ]
        assert mst.add_windows(windows) == 1
        assert len(mst) == 1
