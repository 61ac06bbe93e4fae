"""The reusable-engine and pre-decode contracts: reuse changes nothing.

PR 3 made :class:`~repro.boom.core.BoomCore` reuse one simulation
engine across programs (unit resets instead of per-program
reconstruction) and serve fetches from a pre-decoded program image.
These are pure optimizations: a reused engine must be bit-for-bit
indistinguishable from a fresh core, including for self-modifying
programs that invalidate the pre-decoded image.
"""

from repro.boom.config import BoomConfig
from repro.boom.core import BoomCore
from repro.boom.vulns import VulnConfig
from repro.fuzz.input import TestProgram
from repro.fuzz.seeds import random_seed, special_seeds
from repro.fuzz.triggers import all_triggers
from repro.isa.assembler import assemble
from repro.utils.rng import DeterministicRng


def result_fingerprint(result):
    """Every externally observable field of a CoreResult."""
    return (
        result.trace.initial,
        result.trace.events,
        result.trace.final_cycle,
        result.commits,
        result.windows,
        result.coverage_points,
        result.cycles,
        result.instret,
        result.halt_reason,
        result.arch_regs,
        result.csr_values,
        result.instrumented,
    )


def programs():
    progs = list(all_triggers().values()) + list(special_seeds())
    progs.append(random_seed(DeterministicRng(3)))
    return progs


class TestEngineReuse:
    def test_reused_engine_matches_fresh_cores(self):
        config = BoomConfig.small(VulnConfig.all())
        reused = BoomCore(config)
        for program in programs():
            fresh = BoomCore(config).run(program)
            again = reused.run(program)
            assert result_fingerprint(again) == result_fingerprint(fresh)

    def test_rerunning_the_same_program_is_stable(self):
        core = BoomCore(BoomConfig.small(VulnConfig.all()))
        program = all_triggers()["spectre_v1"]
        first = result_fingerprint(core.run(program))
        # Interleave a different program to dirty every unit.
        core.run(all_triggers()["zenbleed"])
        assert result_fingerprint(core.run(program)) == first

    def test_interleaving_order_does_not_leak_state(self):
        config = BoomConfig.small(VulnConfig.all())
        progs = programs()
        forward = BoomCore(config)
        backward = BoomCore(config)
        fingerprints_fwd = {
            id(p): result_fingerprint(forward.run(p)) for p in progs
        }
        for program in reversed(progs):
            assert result_fingerprint(backward.run(program)) == \
                fingerprints_fwd[id(program)]


class TestPredecodeFastPath:
    def test_predecode_cache_is_bounded_and_hit(self):
        core = BoomCore(BoomConfig.small())
        program = TestProgram(words=[0x13, 0x13])
        core.run(program)
        assert len(core._predecode) == 1
        core.run(program.copy())  # same bytes: cache hit, no growth
        assert len(core._predecode) == 1

    # A loop that patches its own body: iteration 1 executes the
    # original `addi t2, t2, 1` and commits a store rewriting that word
    # to a NOP, so later iterations must fetch the patched word.
    SELF_MODIFYING = """
        addi t0, zero, 1
        slli t0, t0, 31          # t0 = 0x8000_0000 (not sign-extended)
        addi t1, zero, 0x13      # NOP encoding (addi x0, x0, 0)
        addi t4, zero, 0
        addi t2, t2, 1           # loop body, patched to a NOP
        sw   t1, 16(t0)          # overwrite the word above
        addi t4, t4, 1
        addi t3, zero, 3
        blt  t4, t3, -16         # three iterations
        ecall
    """

    def test_self_modifying_store_invalidates_the_image(self):
        words = assemble(self.SELF_MODIFYING, base_address=0x8000_0000)
        core = BoomCore(BoomConfig.small())
        result = core.run(TestProgram(words=words, max_cycles=400))
        # The loop ran three times but only the first pass saw the
        # original body: the committed store invalidated the
        # pre-decoded image and later fetches read the patched NOP.
        assert result.arch_regs[29] == 3   # t4: iterations completed
        assert result.arch_regs[7] == 1    # t2: original body ran once
        assert core._engine._code_clean is False

    def test_fast_path_equals_fallback_on_self_modifying_code(self):
        # The pre-decode fast path must be bit-for-bit equivalent to
        # decoding live memory.  Force the fallback for the whole run by
        # overlaying one code byte with its own value (memory contents
        # identical, fast path disabled) and compare everything.
        base = 0x8000_0000
        words = assemble(self.SELF_MODIFYING, base_address=base)
        fast = BoomCore(BoomConfig.small()).run(
            TestProgram(words=words, max_cycles=400)
        )
        fallback = BoomCore(BoomConfig.small()).run(
            TestProgram(words=words, max_cycles=400,
                        memory_overlay={base: words[0] & 0xFF})
        )
        assert result_fingerprint(fast) == result_fingerprint(fallback)

    def test_overlay_in_code_region_disables_the_fast_path(self):
        base = 0x8000_0000
        words = assemble("""
            addi t2, zero, 5
            ecall
        """)
        clean = TestProgram(words=words, max_cycles=100)
        # Overlay rewrites the first instruction to addi t2, zero, 1.
        patched_word = assemble("addi t2, zero, 1")[0]
        overlay = {
            base + offset: (patched_word >> (8 * offset)) & 0xFF
            for offset in range(4)
        }
        patched = TestProgram(words=words, max_cycles=100,
                              memory_overlay=overlay)
        core = BoomCore(BoomConfig.small())
        assert core.run(clean).arch_regs[7] == 5
        assert core.run(patched).arch_regs[7] == 1
        assert core.run(clean).arch_regs[7] == 5  # cache not poisoned
