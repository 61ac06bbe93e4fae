"""Tests for the deterministic vulnerability trigger programs."""

import pytest

from repro.baselines.specdoctor import SpecDoctor
from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core.offline import run_offline
from repro.core.specure import Specure
from repro.fuzz.triggers import (
    all_triggers,
    mwait_trigger,
    spectre_v1_trigger,
    spectre_v2_secret_trigger,
    spectre_v2_trigger,
    zenbleed_trigger,
)
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def online():
    spec = ScenarioSpec(name="triggers", seed=1, monitor_dcache=True)
    return Specure(spec).build_online()


class TestTriggerPrograms:
    def test_all_triggers_labelled(self):
        triggers = all_triggers()
        assert set(triggers) == {"spectre_v1", "spectre_v2", "mwait", "zenbleed"}
        for kind, program in triggers.items():
            assert kind in program.label

    @pytest.mark.parametrize("kind", ["spectre_v1", "spectre_v2", "mwait",
                                      "zenbleed"])
    def test_trigger_detected_as_its_kind(self, online, kind):
        _, reports = online.run_once(all_triggers()[kind])
        assert kind in {report.kind for report in reports}

    def test_triggers_halt_cleanly(self, online):
        for program in all_triggers().values():
            result, _ = online.run_once(program)
            assert result.halt_reason == "halt_instruction"

    def test_triggers_are_deterministic(self, online):
        for program in all_triggers().values():
            first, first_reports = online.run_once(program)
            second, second_reports = online.run_once(program)
            assert first.arch_regs == second.arch_regs
            assert len(first_reports) == len(second_reports)

    def test_v1_transient_loads_never_commit(self, online):
        result, _ = online.run_once(spectre_v1_trigger())
        committed_pcs = {commit.pc for commit in result.commits}
        base = 0x8000_0000
        # The wrong-path loads sit at +12 and +24 in the seed.
        assert base + 12 not in committed_pcs
        assert base + 24 not in committed_pcs

    def test_v2_trigger_ends_on_correct_path(self, online):
        result, _ = online.run_once(spectre_v2_trigger())
        # The architecturally correct path stores s4 at s0.
        stores = [c for c in result.commits if c.store_addr is not None]
        assert stores
        assert stores[-1].store_value == 0xDEAD


class TestSecretDependentV2:
    def test_specdoctor_sees_secret_variant_only(self):
        core = BoomCore(BoomConfig.small(VulnConfig.all()))
        plain = SpecDoctor(core, seed=5, seeds=[spectre_v2_trigger()])
        assert plain.run(iterations=1) == []
        secret = SpecDoctor(core, seed=5, seeds=[spectre_v2_secret_trigger()])
        findings = secret.run(iterations=1)
        assert findings
        assert "spectre_v2" in findings[0].ground_truth_kinds

    def test_secret_variant_architecturally_clean(self):
        """Training iterations must not read the secret architecturally."""
        core = BoomCore(BoomConfig.small(VulnConfig.all()))
        program = spectre_v2_secret_trigger()
        run_a = core.run(program.with_secret(0x8100_0400, b"\x11" * 32))
        run_b = core.run(program.with_secret(0x8100_0400, b"\xEE" * 32))
        assert len(run_a.commits) == len(run_b.commits)
        for ca, cb in zip(run_a.commits, run_b.commits):
            assert ca.rd_value == cb.rd_value


class TestMwaitTriggerMechanics:
    def test_timer_survives_without_transient_load(self):
        """Removing the transient load keeps the timer armed."""
        core = BoomCore(BoomConfig.small(VulnConfig.all()))
        program = mwait_trigger()
        # nop out the wrong-path 'ld t4, 0(s5)' (word index 10).
        target = None
        for index, word in enumerate(program.words):
            from repro.isa.instructions import decode
            inst = decode(word)
            if inst.mnemonic == "ld" and inst.rd == 29:
                target = index
                break
        assert target is not None
        program.words[target] = 0x13  # nop
        result = core.run(program)
        assert result.csr_values[0x802] == 99

    def test_zenbleed_leaked_values(self):
        core = BoomCore(BoomConfig.small(VulnConfig.all()))
        result = core.run(zenbleed_trigger())
        assert result.arch_regs[28] == 1234
        assert result.arch_regs[29] == 777
