"""Mutation engine: how one test input becomes the next generation.

Implements the paper's mutation operations — "bit/byte flipping,
swapping, deleting, or cloning" (§2, Fuzzing) — plus the instruction-
aware operations every serious hardware fuzzer adds (TheHuzz-style):
inserting or substituting *well-formed* instructions drawn from the ISA
description, including CSR accesses to implemented CSR addresses, and
immediate-field tweaks.  Instruction-aware generation is what makes CSR
state (and therefore the emulated (M)WAIT/Zenbleed triggers) reachable
in realistic time; pure bit-flipping almost never forms a valid SYSTEM
encoding.
"""

from __future__ import annotations

from repro.fuzz.categories import allowed_classes, validate_categories
from repro.fuzz.input import TestProgram
from repro.isa.instructions import INSTRUCTIONS, ExecClass, decode, encode
from repro.isa.registers import ALL_CSRS
from repro.utils.rng import DeterministicRng

#: Writable CSR addresses the generator targets (from the parsed spec).
#: Implementation-defined (custom) CSRs are weighted up: hardware
#: fuzzers deliberately hammer the vendor CSR space, where undocumented
#: state machines — and the paper's emulated vulnerabilities — live.
_WRITABLE_CSRS = []
for _spec in ALL_CSRS:
    if _spec.writable:
        _WRITABLE_CSRS.extend([_spec.address] * (3 if _spec.custom else 1))

_GENERATABLE = [
    spec for spec in INSTRUCTIONS
    if spec.exec_class not in (ExecClass.SYSTEM, ExecClass.FENCE)
]
#: Class weights: CSR instructions get extra mass (state-space coverage),
#: everything else is uniform.
_GENERATABLE_WEIGHTS = [
    3 if spec.exec_class is ExecClass.CSR else 1 for spec in _GENERATABLE
]

#: Scoped (specs, weights) pools, memoized per canonical category tuple.
_SCOPED_POOLS: dict[tuple[str, ...], tuple[list, list]] = {}


def _generation_pool(categories) -> tuple[list, list]:
    key = validate_categories(categories)
    if not key:
        return _GENERATABLE, _GENERATABLE_WEIGHTS
    pool = _SCOPED_POOLS.get(key)
    if pool is None:
        allowed = allowed_classes(key)
        specs = [s for s in _GENERATABLE if s.exec_class in allowed]
        weights = [3 if s.exec_class is ExecClass.CSR else 1 for s in specs]
        pool = _SCOPED_POOLS[key] = (specs, weights)
    return pool


def random_instruction(rng: DeterministicRng, categories=()) -> int:
    """One well-formed random instruction word (ISA-aware generation).

    A non-empty ``categories`` scope restricts the mnemonic pool (see
    :mod:`repro.fuzz.categories`); the unscoped path draws from the
    full pool with byte-identical RNG consumption to before scoping
    existed.
    """
    if categories:
        specs, weights = _generation_pool(categories)
    else:
        specs, weights = _GENERATABLE, _GENERATABLE_WEIGHTS
    spec = rng.choices(specs, weights=weights)[0]
    rd = rng.randint(0, 31)
    rs1 = rng.randint(0, 31)
    rs2 = rng.randint(0, 31)
    cls = spec.exec_class
    if cls is ExecClass.CSR:
        csr = rng.choice(_WRITABLE_CSRS)
        return encode(spec.mnemonic, rd=rd, rs1=rng.randint(0, 31), csr=csr)
    if spec.funct7 is not None and spec.fmt.value == "I":  # shifts
        shamt_width = 6 if spec.is_shift64 else 5
        return encode(spec.mnemonic, rd=rd, rs1=rs1,
                      shamt=rng.randint(0, (1 << shamt_width) - 1))
    if spec.fmt.value == "R":
        return encode(spec.mnemonic, rd=rd, rs1=rs1, rs2=rs2)
    if spec.fmt.value == "I":
        return encode(spec.mnemonic, rd=rd, rs1=rs1,
                      imm=rng.randint(-2048, 2047))
    if spec.fmt.value == "S":
        return encode(spec.mnemonic, rs1=rs1, rs2=rs2,
                      imm=rng.randint(-64, 64) & ~0x7)
    if spec.fmt.value == "B":
        return encode(spec.mnemonic, rs1=rs1, rs2=rs2,
                      imm=rng.randint(-16, 15) * 4)
    if spec.fmt.value == "U":
        return encode(spec.mnemonic, rd=rd, imm=rng.randbits(20))
    return encode(spec.mnemonic, rd=rd, imm=rng.randint(-32, 31) * 4)  # J


class MutationEngine:
    """Applies one randomly chosen mutation per call."""

    def __init__(self, rng: DeterministicRng, max_program_words: int = 96,
                 categories=()):
        self.rng = rng
        self.max_program_words = max_program_words
        self.categories = validate_categories(categories)
        if self.categories:
            # Scoped engines drop the raw bit/byte/word operations —
            # arbitrary bit chaos leaves the category scope almost
            # every time — and scrub stragglers after each mutate().
            self._allowed = allowed_classes(self.categories)
            self._operations = self._SCOPED_OPERATIONS
            self._weights = (4, 4, 1, 1, 1, 3, 2, 1)
        else:
            self._allowed = None
            self._operations = self._ALL_OPERATIONS
            #: Instruction-aware ops get extra weight — they are what
            #: moves a hardware fuzzer through architectural state space.
            self._weights = (2, 2, 1, 4, 4, 1, 1, 1, 3, 2, 1)
        #: Operator names applied by the most recent :meth:`mutate` call
        #: (telemetry's per-operator yield attribution).  Written after
        #: the operator draw, so tracking consumes no randomness.
        self.last_operations: tuple[str, ...] = ()

    def mutate(self, program: TestProgram, rounds: int = 1) -> TestProgram:
        """Return a mutated copy (``rounds`` stacked mutations)."""
        mutant = program.copy()
        mutant.label = "mutant"
        applied: list[str] = []
        for _ in range(max(1, rounds)):
            operation = self.rng.choices(
                self._operations, weights=self._weights
            )[0]
            applied.append(operation.__name__.lstrip("_"))
            operation(self, mutant)
        self.last_operations = tuple(applied)
        if not mutant.words:
            mutant.words = [random_instruction(self.rng, self.categories)]
        del mutant.words[self.max_program_words:]
        if self._allowed is not None:
            # Scoped scrub: an immediate tweak can mutate a word into a
            # different (or illegal) encoding — regenerate any word
            # that left the scope.
            for index, word in enumerate(mutant.words):
                if decode(word).exec_class not in self._allowed:
                    mutant.words[index] = random_instruction(
                        self.rng, self.categories
                    )
        return mutant

    def splice(self, first: TestProgram, second: TestProgram) -> TestProgram:
        """Crossover: head of one program, tail of another."""
        cut_a = self.rng.randint(1, max(1, len(first.words) - 1))
        cut_b = self.rng.randint(0, max(0, len(second.words) - 1))
        child = first.copy()
        child.words = first.words[:cut_a] + second.words[cut_b:]
        del child.words[self.max_program_words:]
        child.label = "splice"
        return child

    # -- operations -------------------------------------------------------

    def _pick_index(self, program: TestProgram) -> int:
        return self.rng.randint(0, len(program.words) - 1)

    def _bit_flip(self, program: TestProgram) -> None:
        index = self._pick_index(program)
        program.words[index] ^= 1 << self.rng.randint(0, 31)

    def _byte_flip(self, program: TestProgram) -> None:
        index = self._pick_index(program)
        shift = 8 * self.rng.randint(0, 3)
        program.words[index] ^= self.rng.randbits(8) << shift

    def _word_random(self, program: TestProgram) -> None:
        program.words[self._pick_index(program)] = self.rng.randbits(32)

    def _word_valid_instruction(self, program: TestProgram) -> None:
        program.words[self._pick_index(program)] = random_instruction(
            self.rng, self.categories
        )

    def _insert_valid_instruction(self, program: TestProgram) -> None:
        index = self.rng.randint(0, len(program.words))
        program.words.insert(index, random_instruction(self.rng, self.categories))

    def _swap_words(self, program: TestProgram) -> None:
        if len(program.words) < 2:
            return
        a = self._pick_index(program)
        b = self._pick_index(program)
        program.words[a], program.words[b] = program.words[b], program.words[a]

    def _delete_word(self, program: TestProgram) -> None:
        if len(program.words) > 1:
            del program.words[self._pick_index(program)]

    def _clone_word(self, program: TestProgram) -> None:
        index = self._pick_index(program)
        program.words.insert(index, program.words[index])

    def _tweak_immediate(self, program: TestProgram) -> None:
        """Perturb the I-immediate field of a random word."""
        index = self._pick_index(program)
        delta = self.rng.randint(-8, 8)
        word = program.words[index]
        imm = (word >> 20) & 0xFFF
        program.words[index] = (word & 0xFFFFF) | (((imm + delta) & 0xFFF) << 20)

    def _mutate_register_init(self, program: TestProgram) -> None:
        reg = self.rng.randint(1, 31)
        if self.rng.coin(0.5):
            program.reg_init[reg] = 0x8100_0000 + (self.rng.randbits(10) << 3)
        else:
            program.reg_init[reg] = self.rng.randbits(64)

    def _mutate_data_seed(self, program: TestProgram) -> None:
        program.data_seed = self.rng.randbits(32)

    #: The operator tables hold plain functions, called with the engine:
    #: a table of the engine's own bound methods would make every engine
    #: a reference cycle (``tests/test_cyclic_garbage.py``).
    _SCOPED_OPERATIONS = (
        _word_valid_instruction,
        _insert_valid_instruction,
        _swap_words,
        _delete_word,
        _clone_word,
        _tweak_immediate,
        _mutate_register_init,
        _mutate_data_seed,
    )
    _ALL_OPERATIONS = (
        _bit_flip,
        _byte_flip,
        _word_random,
    ) + _SCOPED_OPERATIONS
