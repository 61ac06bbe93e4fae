"""Bounded exhaustive checking baseline (the [14]-style approach).

The paper cites exhaustive RTL approaches as suffering from *state
explosion* (§1 (iii)).  This baseline makes that concrete: breadth-first
enumeration of instruction-template sequences over a small alphabet,
each candidate harnessed into a two-iteration loop (so predictors can
train) and checked with the *full* Specure leakage property.

With an alphabet of ~16 templates, depth-3 exploration (a few thousand
candidates) already finds the Spectre-style leaks — a mispredicted
always-taken branch or retargeted indirect jump followed by a cold load.
The emulated (M)WAIT and Zenbleed vulnerabilities need four to six
*specific* operations in a specific order; the depth-4 frontier alone
exceeds any practical candidate budget, which is the state-explosion
wall the paper describes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.boom.core import BoomCore
from repro.core.offline import OfflineArtifacts
from repro.detection.leakage import LeakageDetector
from repro.detection.vulnerability import VulnerabilityDetector
from repro.fuzz.input import TestProgram
from repro.fuzz.seeds import seed_context
from repro.isa.assembler import assemble
from repro.telemetry import timed as telemetry_timed

#: The instruction-template alphabet.  Order matters: CSR templates come
#: last so their (deep) combinations sit late in the BFS frontier.
DEFAULT_ALPHABET: tuple[str, ...] = (
    "addi t3, zero, 77",
    "addi t4, t4, 1",
    "add  t3, t3, t4",
    "ld   t1, 0(s1)",
    "ld   t4, 0(s5)",
    "ld   t6, 0(s6)",
    "sd   t3, 0(s0)",
    "div  t2, t1, s2",
    "beq  t2, t2, 8",      # always-taken, predicted not-taken at first
    "bne  t3, t3, 8",      # never-taken
    "jalr zero, 0(s7)",    # indirect jump through a trained register
    "slli t5, t4, 4",
    "csrrwi zero, mwait_en, 1",
    "csrrw  zero, monitor_addr, s5",
    "csrrw  zero, mwait_timer, s2",
    "csrrwi zero, zenbleed_en, 1",
)


@dataclass
class ExhaustiveResult:
    """Outcome of one bounded exhaustive run."""

    candidates_checked: int
    max_depth_completed: int
    frontier_sizes: dict[int, int] = field(default_factory=dict)
    detected_kinds: set[str] = field(default_factory=set)
    first_detection: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def summary(self) -> str:
        frontier = ", ".join(
            f"depth {d}: {n}" for d, n in sorted(self.frontier_sizes.items())
        )
        return (
            f"checked {self.candidates_checked} candidates "
            f"(complete through depth {self.max_depth_completed}; {frontier}); "
            f"detected: {sorted(self.detected_kinds) or 'nothing'} "
            f"in {self.wall_seconds:.1f}s"
        )


class ExhaustiveChecker:
    """BFS over template sequences with the Specure property as oracle."""

    def __init__(
        self,
        core: BoomCore,
        offline: OfflineArtifacts,
        alphabet: tuple[str, ...] = DEFAULT_ALPHABET,
    ):
        self.core = core
        self.alphabet = alphabet
        self.leakage = LeakageDetector()
        self.vulnerability = VulnerabilityDetector(
            offline.pdlc,
            monitor_dcache=True,
            line_bytes=core.config.line_bytes,
            dcache_sets=core.config.dcache_sets,
        )

    def harness(self, sequence: tuple[str, ...]) -> TestProgram:
        """Wrap a template sequence in the two-iteration loop harness.

        The loop lets single-shot sequences still train predictors
        (iteration one) and misspeculate (iteration two); trailing nops
        keep the loop-exit wrong path free of accidental side effects.
        """
        body = "\n".join(sequence)
        source = (
            "    auipc s7, 0\n"        # s7 -> loop head (jalr self-target)
            "    addi  s7, s7, 12\n"
            "    addi  t0, zero, 2\n"
            "loop:\n"
            f"{body}\n"
            "    addi t0, t0, -1\n"
            "    bne  t0, zero, loop\n"
            + "    nop\n" * 8
            + "    ecall\n"
        )
        words = assemble(source)
        return seed_context(TestProgram(words=words, label="exhaustive",
                                    max_cycles=400))

    def check(self, sequence: tuple[str, ...]) -> set[str]:
        """Run one candidate; returns the detected vulnerability kinds."""
        program = self.harness(sequence)
        result = self.core.run(program)
        leaks = self.leakage.potential_leaks(result)
        return {report.kind for report in self.vulnerability.detect(result, leaks)}

    def run(self, budget: int, max_depth: int = 4) -> ExhaustiveResult:
        """Enumerate candidates breadth-first up to ``budget`` checks."""
        outcome = ExhaustiveResult(candidates_checked=0, max_depth_completed=0)
        with telemetry_timed("baseline/exhaustive") as timer:
            for depth in range(1, max_depth + 1):
                outcome.frontier_sizes[depth] = len(self.alphabet) ** depth
                completed_depth = True
                for sequence in itertools.product(self.alphabet, repeat=depth):
                    if outcome.candidates_checked >= budget:
                        completed_depth = False
                        break
                    kinds = self.check(sequence)
                    outcome.candidates_checked += 1
                    for kind in kinds:
                        outcome.detected_kinds.add(kind)
                        outcome.first_detection.setdefault(
                            kind, outcome.candidates_checked
                        )
                if completed_depth:
                    outcome.max_depth_completed = depth
                else:
                    break
        outcome.wall_seconds = timer.seconds
        return outcome
