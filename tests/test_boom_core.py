"""Behavioural tests of the out-of-order core: correctness, speculation,
rollback, and the vulnerability hooks."""

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.fuzz.input import TestProgram
from repro.fuzz.seeds import seed_context, special_seeds
from repro.fuzz.triggers import mwait_trigger, zenbleed_trigger
from repro.isa.assembler import assemble


@pytest.fixture(scope="module")
def core():
    return BoomCore(BoomConfig.small())


@pytest.fixture(scope="module")
def vuln_core():
    return BoomCore(BoomConfig.small(VulnConfig.all()))


def run_asm(core, source, **kwargs):
    words = assemble(source, base_address=core.config.base_address)
    return core.run(seed_context(TestProgram(words=words, **kwargs)))


class TestBasicExecution:
    def test_arithmetic_loop(self, core):
        result = run_asm(core, """
            addi t0, zero, 5
            addi t1, zero, 0
        loop:
            add  t1, t1, t0
            addi t0, t0, -1
            bne  t0, zero, loop
            ecall
        """)
        assert result.halt_reason == "halt_instruction"
        assert result.arch_regs[6] == 15

    def test_memory_roundtrip(self, core):
        result = run_asm(core, """
            addi t0, zero, -99
            sd   t0, 0(s0)
            ld   t1, 0(s0)
            ecall
        """)
        assert result.arch_regs[6] == result.arch_regs[5]

    def test_store_to_load_forwarding_value(self, core):
        # The load must see the store's value even before it commits.
        result = run_asm(core, """
            addi t0, zero, 42
            sd   t0, 8(s0)
            ld   t1, 8(s0)
            add  t2, t1, t1
            ecall
        """)
        assert result.arch_regs[7] == 84

    def test_partial_overlap_store_load(self, core):
        # sb writes one byte; the overlapping ld must wait for the store
        # to drain and then read through the cache.
        result = run_asm(core, """
            addi t0, zero, 0x7F
            sd   zero, 0(s0)
            sb   t0, 0(s0)
            ld   t1, 0(s0)
            ecall
        """)
        assert result.arch_regs[6] == 0x7F

    def test_mul_div_latency_ordering(self, core):
        result = run_asm(core, """
            addi t0, zero, 7
            addi t1, zero, 3
            mul  t2, t0, t1
            div  t3, t2, t1
            rem  t4, t2, t1
            ecall
        """)
        assert result.arch_regs[7] == 21
        assert result.arch_regs[28] == 7
        assert result.arch_regs[29] == 0

    def test_illegal_instructions_are_noops(self, core):
        result = run_asm(core, """
            .word 0xFFFFFFFF
            addi t0, zero, 9
            ecall
        """)
        assert result.arch_regs[5] == 9

    def test_runaway_halts(self, core):
        result = run_asm(core, "jal zero, 0x100\n")
        assert result.halt_reason == "runaway"

    def test_max_cycles_bound(self, core):
        words = assemble("loop: jal zero, loop\n")
        result = core.run(TestProgram(words=words, max_cycles=100))
        assert result.cycles <= 100

    def test_x0_immutable(self, core):
        result = run_asm(core, "addi zero, zero, 5\nadd t0, zero, zero\necall\n")
        assert result.arch_regs[0] == 0
        assert result.arch_regs[5] == 0

    def test_determinism(self, core):
        seed = special_seeds()[0]
        first = core.run(seed)
        second = core.run(seed)
        assert first.arch_regs == second.arch_regs
        assert len(first.trace.events) == len(second.trace.events)
        assert first.windows == second.windows


class TestSpeculation:
    def test_misprediction_produces_window(self, core):
        result = run_asm(core, """
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            addi t3, zero, 1
            nop
        target:
            ecall
        """)
        mispredicted = result.mispredicted_windows()
        assert len(mispredicted) == 1
        assert mispredicted[0].end > mispredicted[0].start

    def test_wrong_path_register_write_rolled_back(self, core):
        result = run_asm(core, """
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            addi t3, zero, 1234
        target:
            ecall
        """)
        assert result.arch_regs[28] != 1234  # t3 write squashed

    def test_wrong_path_store_never_reaches_memory(self, core):
        result = run_asm(core, """
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            sd   s4, 16(s0)
        target:
            ld   t4, 16(s0)
            ecall
        """)
        assert result.arch_regs[29] != result.arch_regs[20]

    def test_wrong_path_load_fills_cache(self, core):
        """The Spectre residue: a squashed load's line fill persists."""
        result = run_asm(core, """
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            ld   t4, 0(s5)
            nop
        target:
            ecall
        """)
        window = result.mispredicted_windows()[0]
        changed = result.trace.diff(window.start - 1, window.end)
        changed_names = {result.trace.signal_names[i] for i in changed}
        assert any(".dcache." in name for name in changed_names)

    def test_branch_trains_predictor(self, core):
        # gshare indexes by (pc ^ history), so the loop branch trains a
        # different counter each iteration until the history saturates
        # (~ghist_bits iterations); after that predictions are correct.
        # Over 24 iterations mispredictions must be a small minority.
        result = run_asm(core, """
            addi t0, zero, 24
        loop:
            addi t0, t0, -1
            bne  t0, zero, loop
            ecall
        """)
        mispredicted = len(result.mispredicted_windows())
        assert len(result.windows) >= 24
        assert mispredicted <= 8

    def test_nested_windows_squash(self, core):
        # A mispredicted outer branch squashes inner (younger) windows.
        result = run_asm(core, """
            ld   t1, 0(s1)
            div  t2, t1, s2
            beq  t2, t2, target
            beq  t0, t0, 8
            addi t3, zero, 5
            nop
        target:
            ecall
        """)
        assert result.arch_regs[28] != 5
        assert result.halt_reason == "halt_instruction"

    def test_spec_windows_match_ground_truth_count(self, core):
        from repro.detection.windows import extract_windows

        for seed in special_seeds():
            result = core.run(seed)
            derived = extract_windows(result.trace)
            assert len(derived) == len(result.windows)
            derived_keys = {(w.tag, w.start, w.mispredicted) for w in derived}
            truth_keys = {(w.tag, w.start, w.mispredicted) for w in result.windows}
            assert derived_keys == truth_keys


class TestVulnerabilityHooks:
    def test_zenbleed_leak_persists(self, vuln_core):
        result = vuln_core.run(zenbleed_trigger())
        assert result.arch_regs[28] == 1234  # t3 survived the squash
        assert result.coverage_points.get("zenbleed.leak", 0) > 0

    def test_zenbleed_requires_csr(self, vuln_core):
        # Same program minus the CSR write: rollback is clean.
        program = zenbleed_trigger()
        program.words[0] = 0x13  # nop out the csrrwi
        result = vuln_core.run(program)
        assert result.arch_regs[28] != 1234

    def test_zenbleed_requires_armed_hook(self, core):
        # Unarmed core: the CSR write happens but the hook is absent.
        result = core.run(zenbleed_trigger())
        assert result.arch_regs[28] != 1234

    def test_mwait_timer_cleared_by_transient_load(self, vuln_core):
        result = vuln_core.run(mwait_trigger())
        assert result.csr_values[0x802] == 0  # timer zeroed
        assert result.coverage_points.get("mwait.timer_cleared", 0) > 0

    def test_mwait_requires_armed_monitor(self, vuln_core):
        program = mwait_trigger()
        program.words[3] = 0x13  # nop out 'csrrwi zero, mwait_en, 1'
        result = vuln_core.run(program)
        assert result.csr_values[0x802] == 99  # timer untouched

    def test_mwait_unarmed_core(self, core):
        result = core.run(mwait_trigger())
        assert result.csr_values[0x802] == 99

    def test_netlist_edges_differ_with_vulns(self):
        plain = BoomCore(BoomConfig.small()).netlist
        armed = BoomCore(BoomConfig.small(VulnConfig.all())).netlist
        assert len(armed.edges) > len(plain.edges)


class TestCoSimulation:
    """The strongest functional check: committed state equals the ISS."""

    def _cosim(self, core, program):
        from repro.golden.iss import Iss, IssConfig
        from repro.golden.memory import SparseMemory

        result = core.run(program)
        memory = SparseMemory(fill_seed=program.data_seed)
        for address, value in program.memory_overlay.items():
            memory.write_byte(address, value)
        iss = Iss(memory=memory, config=IssConfig(max_steps=len(result.commits)))
        iss.regs = list(program.reg_init)
        iss.load_program(program.words)
        golden = iss.run(max_steps=len(result.commits))
        assert len(golden) == len(result.commits)
        for commit, reference in zip(result.commits, golden):
            assert commit.pc == reference.pc
            assert commit.word == reference.word
            assert commit.rd == reference.rd
            assert commit.rd_value == reference.rd_value
            assert commit.store_addr == reference.store_address
            assert commit.store_value == reference.store_value
        return result

    def test_special_seeds_cosim(self, core):
        for seed in special_seeds():
            self._cosim(core, seed)

    @pytest.mark.parametrize("trial", range(25))
    def test_random_programs_cosim(self, core, trial):
        from repro.fuzz.seeds import random_seed
        from repro.utils.rng import DeterministicRng

        program = random_seed(DeterministicRng(4200 + trial), length=24)
        self._cosim(core, program)

    @pytest.mark.parametrize("trial", range(10))
    def test_mutated_programs_cosim(self, core, trial):
        from repro.fuzz.mutations import MutationEngine
        from repro.fuzz.seeds import random_seed
        from repro.utils.rng import DeterministicRng

        rng = DeterministicRng(777 + trial)
        engine = MutationEngine(rng)
        program = engine.mutate(random_seed(rng, length=16), rounds=5)
        self._cosim(core, program)
