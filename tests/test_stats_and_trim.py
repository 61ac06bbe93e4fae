"""Tests for test-case trimming."""

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.fuzz.input import TestProgram
from repro.fuzz.trim import trim_program, trim_register_context
from repro.fuzz.triggers import zenbleed_trigger
from repro.isa.assembler import assemble


@pytest.fixture(scope="module")
def core():
    return BoomCore(BoomConfig.small(VulnConfig.all()))


class TestTrimProgram:
    @staticmethod
    def zenbleed_predicate(core):
        def holds(program: TestProgram) -> bool:
            result = core.run(program)
            return result.coverage_points.get("zenbleed.leak", 0) > 0
        return holds

    def test_trim_preserves_behaviour(self, core):
        predicate = self.zenbleed_predicate(core)
        original = zenbleed_trigger()
        assert predicate(original)
        trimmed = trim_program(original, predicate)
        assert predicate(trimmed)
        assert len(trimmed.words) <= len(original.words)

    def test_trim_actually_shrinks_padded_input(self, core):
        predicate = self.zenbleed_predicate(core)
        padded = zenbleed_trigger()
        padded.words = [0x13] * 12 + padded.words  # 12 leading nops
        assert predicate(padded)
        trimmed = trim_program(padded, predicate)
        assert len(trimmed.words) < len(padded.words)

    def test_trim_rejects_nonholding_input(self, core):
        predicate = self.zenbleed_predicate(core)
        benign = TestProgram(words=assemble("nop\necall\n"))
        with pytest.raises(ValueError):
            trim_program(benign, predicate)

    def test_trim_label(self, core):
        predicate = self.zenbleed_predicate(core)
        trimmed = trim_program(zenbleed_trigger(), predicate)
        assert trimmed.label.endswith("+trimmed")

    def test_trim_deterministic(self, core):
        predicate = self.zenbleed_predicate(core)
        a = trim_program(zenbleed_trigger(), predicate)
        b = trim_program(zenbleed_trigger(), predicate)
        assert a.words == b.words

    def test_synthetic_minimisation(self):
        """On a pure-list predicate the trimmer reaches the minimum."""
        def needs_magic(program: TestProgram) -> bool:
            return 0xDEADBEEF in program.words

        padded = TestProgram(words=[0x13] * 20 + [0xDEADBEEF] + [0x13] * 20)
        trimmed = trim_program(padded, needs_magic, max_rounds=16)
        assert trimmed.words == [0xDEADBEEF]


class TestTrimRegisters:
    def test_zeroes_unneeded_registers(self, core):
        predicate = TestTrimProgram.zenbleed_predicate(core)
        original = zenbleed_trigger()
        slimmed = trim_register_context(original, predicate)
        assert predicate(slimmed)
        nonzero_before = sum(1 for v in original.reg_init if v)
        nonzero_after = sum(1 for v in slimmed.reg_init if v)
        assert nonzero_after <= nonzero_before
        # The divisor register (s2) is genuinely needed for the slow
        # chain only if zeroing it breaks the window — either way the
        # predicate still holds on the result.
