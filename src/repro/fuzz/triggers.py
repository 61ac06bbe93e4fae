"""Deterministic trigger programs for the four studied vulnerabilities.

Each function builds a program that reliably exercises one
vulnerability on a core with the corresponding hook armed.  These are
*oracles for tests, examples, and baselines* — the fuzzing experiments
(benchmarks E4/E5) do not use them as seeds; they measure how long the
fuzzer takes to synthesise equivalent behaviour on its own.

A detection subtlety the MWAIT trigger documents: endpoint snapshot
diffing (the paper's Step 2) cannot see a value that changes and reverts
*within* one window.  The CSR arming sequence therefore drains through a
small delay loop so ``mwait_timer``'s architectural write commits before
the speculation window of interest opens, and the only in-window timer
change is the hardware zeroing — the leak.
"""

from __future__ import annotations

from repro.fuzz.input import TestProgram
from repro.fuzz.seeds import bti_seed, mispredict_seed, seed_context
from repro.isa.assembler import assemble


def spectre_v1_trigger() -> TestProgram:
    """Conditional-branch misprediction with transient cache residue."""
    program = mispredict_seed()
    program.label = "trigger:spectre_v1"
    return program


def spectre_v2_trigger() -> TestProgram:
    """Branch target injection through BTB aliasing."""
    program = bti_seed()
    program.label = "trigger:spectre_v2"
    return program


def spectre_v2_secret_trigger() -> TestProgram:
    """BTI whose transient gadget dereferences a *secret*.

    The plain v2 trigger's transient load address is secret-independent,
    which is enough for Specure (any unexplained transient cache change)
    but invisible to differential tools: both secret values leave the
    same cache state.  This variant's injected gadget loads the secret
    at ``s5`` and dereferences it — the classic BTI leak — giving
    SpecDoctor-style detection a fair chance at the v2 column.
    """
    words = assemble(
        """
        auipc t1, 0          # 0:  t1 = base
        addi  t2, t1, 28     # 4:  t2 = X (gadget at base+28)
        addi  t4, zero, 2    # 8:  training iterations
        nop                  # 12
        nop                  # 16
        jalr  zero, 0(t2)    # 20: P — the injected jump
        nop                  # 24
        slli  t3, t4, 5      # 28: X: index*32 — training (t4=2,1) reads
        add   t3, s5, t3     # 32:    NON-secret lines; the transient run
        ld    t3, 0(t3)      # 36:    (t4=0) reads the SECRET at s5
        slli  t3, t3, 4      # 40
        add   t3, s0, t3     # 44
        ld    t6, 0(t3)      # 48: X: secret-dependent line fill
        addi  t4, t4, -1     # 52
        bne   t4, zero, -40  # 56: back to P while training
        div   t5, s2, s2     # 60: slow 1 (t4 is 0 here: the secret index)
        div   t5, t5, t5     # 64: slow 1 again — stretches the window so
        addi  t5, t5, 95     # 68: the transient two-load chain completes
        add   t2, t1, t5     # 72: t2 = Y (base+96), data-dependent & slow
        jal   zero, -56      # 76: back to P — BTB still predicts X
        nop                  # 80
        nop                  # 84
        nop                  # 88
        nop                  # 92
        sd    s4, 0(s0)      # 96: Y: the architecturally correct path
        ecall                # 100
        """
    )
    return seed_context(
        TestProgram(words=words, label="trigger:spectre_v2_secret"))


def mwait_trigger() -> TestProgram:
    """(M)WAIT emulation: transient load on the monitored line zeroes the
    timer CSR — an architectural change with no commit to explain it."""
    words = assemble(
        """
        csrrw  zero, monitor_addr, s5   # monitor the cold line at s5
        addi   t6, zero, 99
        csrrw  zero, mwait_timer, t6    # timer armed non-zero
        csrrwi zero, mwait_en, 1
        addi   t0, zero, 6
    drain:
        addi   t0, t0, -1
        bne    t0, zero, drain          # let the CSR writes retire
        ld     t1, 0(s1)                # cache miss: slow
        div    t2, t1, s2               # slower
        beq    t2, t2, target           # mispredicted not-taken
        ld     t4, 0(s5)                # transient: touches monitored line
        nop
        nop
    target:
        sd     t2, 8(s0)
        ecall
        """
    )
    return seed_context(TestProgram(words=words, label="trigger:mwait"))


def zenbleed_trigger() -> TestProgram:
    """Zenbleed emulation: with ``zenbleed_en`` set, wrong-path register
    writes survive the squash into the architectural register file."""
    words = assemble(
        """
        csrrwi zero, zenbleed_en, 1
        ld   t1, 0(s1)                  # slow chain feeding the branch
        div  t2, t1, s2
        beq  t2, t2, target             # mispredicted not-taken
        addi t3, zero, 1234             # transient writes: should vanish,
        addi t4, zero, 777              # persist instead -> the leak
        nop
    target:
        sd   t2, 8(s0)
        ecall
        """
    )
    return seed_context(TestProgram(words=words, label="trigger:zenbleed"))


def all_triggers() -> dict[str, TestProgram]:
    """kind -> trigger program, for the detection matrix tests."""
    return {
        "spectre_v1": spectre_v1_trigger(),
        "spectre_v2": spectre_v2_trigger(),
        "mwait": mwait_trigger(),
        "zenbleed": zenbleed_trigger(),
    }
