"""Sparse little-endian byte-addressable memory.

Shared by the golden-model ISS and the out-of-order core (as the backing
store behind the L1 data cache).  Unwritten locations read as a
deterministic pseudo-random-but-fixed fill derived from the address, so
that "uninitialised" memory is reproducible across runs — fuzzing
campaigns must be pure functions of their seeds.
"""

from __future__ import annotations

from repro.utils.bitvec import mask, sext, truncate


class SparseMemory:
    """Byte-granular sparse memory over the full 64-bit address space."""

    def __init__(self, fill_seed: int = 0):
        self._bytes: dict[int, int] = {}
        self._fill_seed = fill_seed & mask(64)

    def copy(self) -> "SparseMemory":
        """An independent copy (same fill seed, same written bytes)."""
        clone = SparseMemory(self._fill_seed)
        clone._bytes = dict(self._bytes)
        return clone

    def _background(self, address: int) -> int:
        """Deterministic fill byte for a never-written address."""
        mixed = (address * 0x9E3779B97F4A7C15 + self._fill_seed) & mask(64)
        mixed ^= mixed >> 29
        return mixed & 0xFF

    def read_byte(self, address: int) -> int:
        address &= mask(64)
        existing = self._bytes.get(address)
        if existing is not None:
            return existing
        return self._background(address)

    def write_byte(self, address: int, value: int) -> None:
        self._bytes[address & mask(64)] = value & 0xFF

    def read(self, address: int, size: int, signed: bool = False) -> int:
        """Read ``size`` bytes little-endian; optionally sign-extend to 64."""
        value = 0
        for offset in range(size):
            value |= self.read_byte(address + offset) << (8 * offset)
        if signed:
            return sext(value, 64, from_width=8 * size)
        return value

    def write(self, address: int, value: int, size: int) -> None:
        """Write the low ``size`` bytes of ``value`` little-endian."""
        value = truncate(value, 8 * size)
        for offset in range(size):
            self.write_byte(address + offset, (value >> (8 * offset)) & 0xFF)

    def load_words(self, base: int, words: list[int]) -> None:
        """Store 32-bit words contiguously from ``base`` (program loading)."""
        for index, word in enumerate(words):
            self.write(base + 4 * index, word, 4)

    def __contains__(self, address: int) -> bool:
        return (address & mask(64)) in self._bytes
