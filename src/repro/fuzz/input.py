"""Test-input representation: what the fuzzer hands the processor.

A :class:`TestProgram` is one fuzzing input: a sequence of 32-bit
instruction words plus the deterministic initial machine context
(register values and the memory background-fill seed).  It is the unit
of mutation, corpus storage, and simulation, and it can configure both
the out-of-order core and the golden-model ISS identically — which is
what makes co-simulation and the TheHuzz baseline possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.rng import DeterministicRng


@dataclass
class TestProgram:
    """One fuzzer-generated test input.

    ``memory_overlay`` maps addresses to byte values written into memory
    before the run — differential tools (the SpecDoctor baseline) use it
    to plant different *secret* values while everything else stays
    identical.
    """

    #: Not a pytest class, despite the Test* name.
    __test__ = False

    words: list[int]
    reg_init: list[int] = field(default_factory=lambda: [0] * 32)
    data_seed: int = 0
    max_cycles: int = 2_000
    label: str = ""
    memory_overlay: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.reg_init) != 32:
            raise ValueError("reg_init must have 32 entries")
        self.reg_init = [0] + [v & 0xFFFFFFFFFFFFFFFF for v in self.reg_init[1:]]
        self.words = [w & 0xFFFFFFFF for w in self.words]

    @classmethod
    def random(
        cls,
        rng: DeterministicRng,
        length: int = 24,
        data_region: int = 0x8100_0000,
    ) -> "TestProgram":
        """A fully random program (random words, random register state).

        Registers are biased toward the data region so random loads and
        stores mostly land in a coherent address range, as hardware
        fuzzers do with address masking.
        """
        words = [rng.randbits(32) for _ in range(length)]
        regs = [0] * 32
        for i in range(1, 32):
            if rng.coin(0.5):
                regs[i] = data_region + (rng.randbits(10) << 3)
            else:
                regs[i] = rng.randbits(64)
        return cls(words=words, reg_init=regs, data_seed=rng.randbits(32),
                   label="random")

    def copy(self) -> "TestProgram":
        return TestProgram(
            words=list(self.words),
            reg_init=list(self.reg_init),
            data_seed=self.data_seed,
            max_cycles=self.max_cycles,
            label=self.label,
            memory_overlay=dict(self.memory_overlay),
        )

    def with_secret(self, base: int, secret: bytes) -> "TestProgram":
        """A copy with ``secret`` planted at ``base`` (differential runs)."""
        clone = self.copy()
        for offset, value in enumerate(secret):
            clone.memory_overlay[base + offset] = value
        return clone

    def to_bytes(self) -> bytes:
        """Little-endian byte image of the instruction words."""
        out = bytearray()
        for word in self.words:
            out += word.to_bytes(4, "little")
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes, template: "TestProgram") -> "TestProgram":
        """Rebuild a program from a mutated byte image, keeping context."""
        padded = blob + b"\x00" * (-len(blob) % 4)
        words = [
            int.from_bytes(padded[i:i + 4], "little")
            for i in range(0, len(padded), 4)
        ]
        clone = template.copy()
        clone.words = words or [0]
        return clone

    def key(self) -> tuple:
        """The program's exact content: every field a run reads (words,
        register context, data seed, cycle budget, memory overlay) and
        nothing else (``label`` is provenance, not content).  Two
        programs with equal keys run identically, so this is the one
        identity for corpus deduplication and for probe memos."""
        return (
            tuple(self.words),
            tuple(self.reg_init),
            self.data_seed,
            self.max_cycles,
            tuple(sorted(self.memory_overlay.items())),
        )

    def fingerprint(self) -> int:
        """Cheap content hash: the hash of :meth:`key`."""
        return hash(self.key())
