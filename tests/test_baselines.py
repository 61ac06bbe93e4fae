"""Tests for the SpecDoctor, TheHuzz, and exhaustive-checker baselines."""

import pytest

from repro.baselines.exhaustive import DEFAULT_ALPHABET, ExhaustiveChecker
from repro.baselines.specdoctor import SpecDoctor, _arch_traces_equal
from repro.baselines.thehuzz import TheHuzz
from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core.offline import run_offline
from repro.fuzz.seeds import special_seeds
from repro.fuzz.triggers import mwait_trigger, zenbleed_trigger


@pytest.fixture(scope="module")
def core():
    return BoomCore(BoomConfig.small(VulnConfig.all()))


@pytest.fixture(scope="module")
def offline(core):
    return run_offline(core.netlist)


class TestSpecDoctor:
    def test_detects_secret_dependent_transient_leak(self, core):
        tool = SpecDoctor(core, seed=5, seeds=special_seeds())
        findings = tool.run(iterations=3)
        assert findings
        assert findings[0].components == ("dcache",)
        assert "spectre_v1" in findings[0].ground_truth_kinds

    def test_misses_mwait(self, core):
        """The timer zeroing is secret-independent: hashes agree."""
        tool = SpecDoctor(core, seed=5, seeds=[mwait_trigger()])
        findings = tool.run(iterations=1)
        assert findings == []

    def test_misses_zenbleed(self, core):
        """The leaked value is secret-independent and the register file
        is not an instrumented component."""
        tool = SpecDoctor(core, seed=5, seeds=[zenbleed_trigger()])
        findings = tool.run(iterations=1)
        assert findings == []

    def test_arch_divergent_inputs_discarded(self, core):
        from repro.fuzz.input import TestProgram
        from repro.fuzz.seeds import seed_context
        from repro.isa.assembler import assemble

        # Architecturally reads the secret: runs diverge, input discarded.
        words = assemble("ld t1, 0(s5)\nsd t1, 0(s0)\necall\n")
        program = seed_context(TestProgram(words=words))
        tool = SpecDoctor(core, seed=5, seeds=[program])
        tool.run(iterations=1)
        assert tool.stats.discarded_arch_divergent == 1
        assert not tool.findings

    def test_arch_trace_compare_helper(self, core):
        result_a = core.run(special_seeds()[0])
        result_b = core.run(special_seeds()[0])
        assert _arch_traces_equal(result_a, result_b)

    def test_stop_on_mismatch(self, core):
        tool = SpecDoctor(core, seed=5, seeds=special_seeds())
        tool.run(iterations=10, stop_on_mismatch=True)
        assert tool.stats.programs <= 10


class TestTheHuzz:
    def test_clean_core_no_mismatches(self):
        """On an *unarmed* core the OoO pipeline is functionally exact.

        (On the armed core the ISA-aware generator writes zenbleed_en
        often enough that organic Zenbleed divergences appear — that
        positive path is covered below.)
        """
        plain_core = BoomCore(BoomConfig.small())
        tool = TheHuzz(plain_core, seed=6)
        findings = tool.run(iterations=8)
        assert findings == []

    def test_armed_core_can_diverge_organically(self, core):
        """The same generation stream on the armed core eventually trips
        a Zenbleed divergence — golden-model fuzzing's only route to it."""
        tool = TheHuzz(core, seed=6)
        findings = tool.run(iterations=8)
        assert findings  # iteration 7 consumes a leaked register

    def test_coverage_accumulates(self, core):
        tool = TheHuzz(core, seed=6, seeds=special_seeds())
        tool.run(iterations=6)
        assert len(tool.seen) > 100
        assert len(tool.corpus) >= 1

    def test_detects_zenbleed_divergence_when_consumed(self, core):
        """When a *committed* instruction consumes a leaked register the
        golden trace diverges — TheHuzz's only route to this bug."""
        from repro.fuzz.input import TestProgram
        from repro.fuzz.seeds import seed_context
        from repro.isa.assembler import assemble

        words = assemble("""
            csrrwi zero, zenbleed_en, 1
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            addi t3, zero, 1234
            nop
        target:
            add  t4, t3, t3     # consumes the leaked t3
            sd   t4, 0(s0)
            ecall
        """)
        tool = TheHuzz(core, seed=6,
                       seeds=[seed_context(TestProgram(words=words))])
        findings = tool.run(iterations=1)
        assert findings  # divergence from golden model

    def test_stats_populated(self, core):
        tool = TheHuzz(core, seed=6)
        tool.run(iterations=4)
        assert tool.stats.programs == 4
        assert tool.stats.simulate_seconds > 0
        assert tool.stats.golden_seconds > 0


class TestExhaustive:
    def test_frontier_growth_is_exponential(self, core, offline):
        checker = ExhaustiveChecker(core, offline)
        outcome = checker.run(budget=30, max_depth=3)
        sizes = outcome.frontier_sizes
        # Depth 3 is never entered (budget dies inside depth 2), but the
        # recorded frontiers already show the exponential blow-up.
        assert sizes[1] == len(DEFAULT_ALPHABET)
        assert sizes[2] == sizes[1] ** 2
        assert outcome.max_depth_completed == 1

    def test_budget_respected(self, core, offline):
        checker = ExhaustiveChecker(core, offline)
        outcome = checker.run(budget=25, max_depth=2)
        assert outcome.candidates_checked == 25
        assert outcome.max_depth_completed == 1

    def test_finds_spectre_at_shallow_depth(self, core, offline):
        checker = ExhaustiveChecker(core, offline)
        outcome = checker.run(budget=300, max_depth=2)
        assert "spectre_v1" in outcome.detected_kinds
        assert "spectre_v2" in outcome.detected_kinds

    def test_cannot_reach_emulated_vulns_in_budget(self, core, offline):
        checker = ExhaustiveChecker(core, offline)
        outcome = checker.run(budget=300, max_depth=2)
        assert "mwait" not in outcome.detected_kinds
        assert "zenbleed" not in outcome.detected_kinds

    def test_harness_program_halts(self, core, offline):
        checker = ExhaustiveChecker(core, offline)
        program = checker.harness(("addi t3, zero, 77",))
        result = core.run(program)
        assert result.halt_reason in ("halt_instruction", "max_cycles")

    def test_summary(self, core, offline):
        checker = ExhaustiveChecker(core, offline)
        outcome = checker.run(budget=10, max_depth=1)
        assert "checked 10 candidates" in outcome.summary()

    def test_alphabet_has_csr_templates_last(self):
        csr_positions = [
            index for index, template in enumerate(DEFAULT_ALPHABET)
            if template.startswith("csr")
        ]
        assert csr_positions == list(range(len(DEFAULT_ALPHABET) - 4,
                                           len(DEFAULT_ALPHABET)))
