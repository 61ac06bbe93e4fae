"""Seed programs: random seeds and the paper's special speculative seeds.

Specure "integrates special input seeds into the fuzzer alongside random
seeds.  The special seeds have transient execution windows covering
scenarios like branch misprediction, branch target injection, and return
stack buffer manipulation" (§3.2, Hardware Fuzzer).  The three seed
builders below construct exactly those scenarios, each engineered so a
long-latency dependency chain holds the speculation window open while a
wrong-path load leaves cache residue:

* :func:`mispredict_seed` — a branch whose condition hangs off a cache
  miss + division; the predictor starts weakly-not-taken, so the fall-
  through wrong path (with its loads) executes transiently.
* :func:`bti_seed` — an indirect jump trained to gadget X, then redirected
  to gadget Y through a slow chain; the BTB keeps predicting X, which
  executes transiently: branch target injection.
* :func:`rsb_seed` — a call whose return address is corrupted through a
  slow chain; the return-address stack predicts the original site, which
  executes transiently.

Three further gadget seeds ride behind the armed speculation mechanisms
(:attr:`repro.boom.config.BoomConfig.speculation`) — each targets one
execution clause of :mod:`repro.contracts.clauses`:

* :func:`store_bypass_seed` ("ssb") — a load issues past an older store
  whose address resolves through a slow division chain, reads the
  *stale* pre-store memory, and leaves value-dependent residue before
  the memory-order squash replays it: Spectre-v4.
* :func:`meltdown_seed` ("fault") — a protected-region load executes
  transiently while its fault defers to the commit head; a dependent
  load encodes the protected value into cache residue: Meltdown-shape.
* :func:`ret_leak_seed` ("ret") — a corrupted return address sends the
  RAS-predicted path through a value-dependent load gadget the
  architectural execution never runs: return-stack misspeculation with
  *leaking* wrong-path residue (unlike :func:`rsb_seed`, whose fixed
  transient load is value-independent).

Random seeds mix ISA-aware instruction generation with raw random words
(pure random 32-bit words are ~99 % illegal encodings and exercise
nothing).
"""

from __future__ import annotations

from repro.fuzz.input import TestProgram
from repro.fuzz.mutations import random_instruction
from repro.isa.assembler import assemble
from repro.utils.rng import DeterministicRng

_DATA = 0x8100_0000

#: The architecturally protected region ("fault" speculation) — matches
#: :attr:`repro.boom.config.BoomConfig.protected_base`.
_PROTECTED = 0x8180_0000


def seed_context(program: TestProgram) -> TestProgram:
    """Deterministic register context shared by the special seeds.

    s0..s6 point into the data region; s2/s3 are small non-zero values
    for division chains.
    """
    regs = program.reg_init
    regs[8] = _DATA            # s0: store target
    regs[9] = _DATA + 0x200    # s1: load source (cold line)
    regs[18] = 5               # s2: divisor/dividend for slow chains
    regs[19] = 3               # s3
    regs[20] = 0xDEAD          # s4: store payload
    regs[21] = _DATA + 0x400   # s5: transient-load target (cold line)
    regs[22] = _DATA + 0x600   # s6: transient-load target (cold line)
    return program


def mispredict_seed() -> TestProgram:
    """Branch misprediction with a transient Spectre-v1-style body."""
    words = assemble(
        """
        ld   t1, 0(s1)       # cache miss: slow
        div  t2, t1, s2      # division: slower
        beq  t2, t2, target  # always taken; predictor starts not-taken
        ld   t4, 0(s5)       # transient: fills a cold cache line
        slli t5, t4, 3
        add  t6, s0, t5
        ld   t5, 0(t6)       # transient: secret-dependent second load
        nop
    target:
        sd   t2, 8(s0)
        ecall
        """
    )
    return seed_context(TestProgram(words=words, label="seed:mispredict"))


def bti_seed() -> TestProgram:
    """Branch target injection: BTB-trained gadget executes transiently.

    The gadget's load address is indexed by ``t4`` so every execution —
    two architectural training runs and the final transient run — touches
    a *different* cache line; the correct path sets ``t4 = 7`` right
    before the injected jump, so the transient run's line is cold.
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
        slli  t3, t4, 4      # 28: X: line selector = t4 * 16 (distinct
                             #     cache lines AND distinct sets per run)
        add   t3, s6, t3     # 32
        ld    t6, 0(t3)      # 36: X: transient load on the final run
        addi  t4, t4, -1     # 40
        bne   t4, zero, -24  # 44: back to P while training
        addi  t4, zero, 7    # 48: fresh line selector for the BTI run
        div   t5, s2, s2     # 52: slow 1
        addi  t5, t5, 79     # 56: 80
        add   t2, t1, t5     # 60: t2 = Y (base+80), data-dependent & slow
        jal   zero, -44      # 64: back to P — BTB still predicts X
        nop                  # 68
        nop                  # 72
        nop                  # 76
        sd    s4, 0(s0)      # 80: Y: the architecturally correct path
        ecall                # 84
        """
    )
    return seed_context(TestProgram(words=words, label="seed:bti"))


def rsb_seed() -> TestProgram:
    """Return-stack-buffer manipulation: corrupted return address."""
    words = assemble(
        """
        jal  ra, func        # 0:  call F (RAS push 4)
        ld   t2, 0(s6)       # 4:  transient: predicted return path
        jal  zero, end       # 8
        sd   s4, 8(s0)       # 12: the corrupted return actually lands here
        jal  zero, end       # 16
    func:
        div  t5, s2, s2      # 20: slow 1
        slli t5, t5, 3       # 24: 8
        add  ra, ra, t5      # 28: ra = 12 (slow, data-dependent)
        jalr zero, 0(ra)     # 32: return — RAS predicts 4, actual 12
        nop                  # 36
    end:
        ecall                # 40
        """
    )
    return seed_context(TestProgram(words=words, label="seed:rsb"))


def store_bypass_seed() -> TestProgram:
    """Spectre-v4: a load bypasses an older unresolved store.

    The store's address hangs off a division chain, so the younger load
    from the same address issues first (when the core arms ``ssb``),
    reads the *stale* pre-store memory, and a dependent load turns the
    stale value into cache residue before the memory-order violation
    squashes and replays it.  Architecturally the load always sees the
    stored ``s4`` payload.
    """
    words = assemble(
        """
        div  t0, s3, s2      # slow: 3/5 = 0
        div  t0, t0, s2      # slower still: 0
        add  t1, s0, t0      # t1 = s0 — store address, resolved late
        sd   s4, 0(t1)       # store whose address is long unknown
        ld   t2, 0(s0)       # bypassing load: reads stale memory
        slli t3, t2, 3
        add  t3, s5, t3
        ld   t4, 0(t3)       # transient: stale-value-dependent residue
        ecall
        """
    )
    return seed_context(TestProgram(words=words, label="seed:store-bypass"))


def meltdown_seed() -> TestProgram:
    """Meltdown-shape: a faulting load's value leaks transiently.

    ``s7`` points into the protected region; the load executes
    transiently while its fault stalls at the commit head, and the
    dependent load encodes the protected value into a cache line the
    fault then fails to erase.
    """
    words = assemble(
        """
        ld   t2, 0(s7)       # protected: faults at commit, reads now
        slli t3, t2, 3
        add  t3, s5, t3
        ld   t4, 0(t3)       # transient: protected-value residue
        ecall
        """
    )
    program = seed_context(TestProgram(words=words, label="seed:meltdown"))
    program.reg_init[23] = _PROTECTED  # s7
    return program


def ret_leak_seed() -> TestProgram:
    """Return misspeculation whose wrong path leaks a memory value.

    The callee corrupts ``ra`` through a slow chain, so the RAS keeps
    predicting the original return site — a gadget that loads a cold
    line and a second line indexed by the loaded value.  The actual
    return lands past the gadget; architectural execution never touches
    either line.
    """
    words = assemble(
        """
        jal  ra, func        # 0:  call (RAS push 4)
        ld   t2, 0(s6)       # 4:  transient: predicted return path
        slli t3, t2, 3       # 8
        add  t3, s5, t3      # 12
        ld   t4, 0(t3)       # 16: transient: value-dependent residue
        jal  zero, end       # 20
        sd   s4, 8(s0)       # 24: the corrupted return lands here
        jal  zero, end       # 28
    func:
        div  t5, s2, s2      # 32: slow 1
        div  t5, t5, s2      # 36: slower 0 — holds the window open
        addi t5, t5, 20      # 40: 20
        add  ra, ra, t5      # 44: ra = 24 (slow, data-dependent)
        jalr zero, 0(ra)     # 48: return — RAS predicts 4, actual 24
    end:
        ecall                # 52
        """
    )
    return seed_context(TestProgram(words=words, label="seed:ret-leak"))


def special_seeds(speculation: tuple[str, ...] = ()) -> list[TestProgram]:
    """The paper's special seeds, in a stable order.

    The base trio is unconditional; each armed speculation mechanism
    appends its gadget seed behind them (in ``ssb``/``fault``/``ret``
    order), so unarmed campaigns see the exact historical corpus.
    """
    seeds = [mispredict_seed(), bti_seed(), rsb_seed()]
    if "ssb" in speculation:
        seeds.append(store_bypass_seed())
    if "fault" in speculation:
        seeds.append(meltdown_seed())
    if "ret" in speculation:
        seeds.append(ret_leak_seed())
    return seeds


def random_seed(rng: DeterministicRng, length: int = 24,
                categories: tuple[str, ...] = ()) -> TestProgram:
    """A random seed: ISA-aware instructions with some raw-word chaos.

    A non-empty category scope drops the raw-word chaos entirely (raw
    words are out of every scope) and draws scoped instructions only;
    the unscoped path keeps its historical RNG consumption exactly.
    """
    words = []
    for _ in range(length):
        if categories:
            words.append(random_instruction(rng, categories))
        elif rng.coin(0.7):
            words.append(random_instruction(rng))
        else:
            words.append(rng.randbits(32))
    program = TestProgram.random(rng, length=length)
    program.words = words
    program.label = "seed:random"
    return program
