"""Corpus management and seed-energy scheduling.

An input earns a corpus slot by discovering coverage items the corpus
has not seen ("the fuzzer mutates the optimal test inputs from the
preceding round", §2).  Selection is energy-weighted: entries that
discovered more new items are mutated more often, with a mild decay as
they are reused, which is the standard power-schedule shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fuzz.input import TestProgram
from repro.utils.rng import DeterministicRng


@dataclass
class CorpusEntry:
    """One retained input and its scheduling state."""

    program: TestProgram
    new_items: int          # coverage items it discovered on entry
    picks: int = 0          # times selected for mutation

    def energy(self) -> float:
        """Scheduling weight: discovery-proportional, decaying with reuse."""
        return (1.0 + self.new_items) / (1.0 + 0.25 * self.picks)


@dataclass
class Corpus:
    """The retained-input pool."""

    max_entries: int = 256
    entries: list[CorpusEntry] = field(default_factory=list)
    #: :meth:`TestProgram.key` of every retained entry.
    _keys: set[tuple] = field(default_factory=set)

    def add(self, program: TestProgram, new_items: int) -> bool:
        """Retain an input that found ``new_items`` new coverage items.

        Returns False for duplicates.  When full, the lowest-energy
        entry is evicted.
        """
        key = program.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.entries.append(CorpusEntry(program.copy(), new_items))
        if len(self.entries) > self.max_entries:
            weakest = min(range(len(self.entries)),
                          key=lambda i: self.entries[i].energy())
            evicted = self.entries.pop(weakest)
            self._keys.discard(evicted.program.key())
        return True

    def pick(self, rng: DeterministicRng) -> CorpusEntry:
        """Energy-weighted random selection."""
        if not self.entries:
            raise IndexError("corpus is empty")
        weights = [entry.energy() for entry in self.entries]
        entry = rng.choices(self.entries, weights=weights)[0]
        entry.picks += 1
        return entry

    def __len__(self) -> int:
        return len(self.entries)
