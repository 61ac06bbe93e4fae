"""Potential Direct Leakage Channel (PDLC) extraction.

A PDLC is a pathway through which information can flow from a
microarchitectural register to an architectural register — visualised in
the IFG as a chain of edges from a microarchitectural source to an
architectural destination (paper §3.1).  We enumerate one PDLC per
reachable *(microarchitectural register, architectural register)* pair,
carrying a witness path for root-cause reporting and for the Leakage
Path coverage metric's signal sets.

Two search directions are provided:

* :func:`extract_pdlc_forward` — the naive direction: a DFS from *every*
  microarchitectural register.  With M sources this is O(M·(V+E)),
  the paper's "O(V^2)" behaviour, since M grows with the design.
* :func:`extract_pdlc_reverse` — the paper's skew-aware join: reverse
  every edge and search *from the architectural registers*, of which
  there are only A (a small ISA-fixed constant).  One O(V+E) traversal
  per architectural register — the "O(V)" behaviour.

Both directions share one DFS kernel (:func:`_reach`), which builds
every reached vertex's witness path as it goes, so benchmark E2
compares search directions, not two implementations.  Both produce the
same (source, destination) pair set; a property test asserts the
equivalence, and ``tests/pdlc_reference.py`` keeps the parent-pointer
extractor this kernel replaced as the oracle of its exact output.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ifg.graph import Ifg


class PdlcItem(NamedTuple):
    """One potential direct leakage channel.

    ``path`` is a witness chain of signal names from ``source``
    (microarchitectural register) to ``dest`` (architectural register),
    inclusive of both endpoints.
    """

    index: int
    source: str
    dest: str
    path: tuple[str, ...]

    def signals(self) -> frozenset[str]:
        """All signals along the witness path (LP coverage keys on these)."""
        return frozenset(self.path)

    def __str__(self) -> str:
        return f"PDLC#{self.index}: {' -> '.join(self.path)}"


def extract_pdlc_forward(ifg: Ifg) -> list[PdlcItem]:
    """Naive forward extraction: DFS from every microarchitectural register.

    For each source, a full reachability pass records the first witness
    path to every architectural register it reaches.
    """
    arch = set(ifg.architectural_registers())
    successors = ifg.adjacency(forward=True)
    by_source = {}
    for source in ifg.microarchitectural_registers():
        paths = _reach(successors, source)
        by_source[source] = [(dest, paths[dest])
                             for dest in sorted(arch.intersection(paths))]
    return _numbered(by_source)


def extract_pdlc_reverse(ifg: Ifg) -> list[PdlcItem]:
    """Skew-aware reverse extraction: search from architectural registers.

    Reverses the edge direction and runs one traversal per architectural
    register; every reached microarchitectural register is a PDLC
    source, whose witness path is the search path read backwards
    (source → destination).
    """
    micro = set(ifg.microarchitectural_registers())
    predecessors = ifg.adjacency(forward=False)
    by_source: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    # Destinations in sorted order keep every source's list sorted.
    for dest in sorted(ifg.architectural_registers()):
        paths = _reach(predecessors, dest)
        for source in micro.intersection(paths):
            by_source.setdefault(source, []).append(
                (dest, paths[source][::-1]))
    return _numbered(by_source)


def _reach(adjacency: dict[str, list[str]],
           start: str) -> dict[str, tuple[str, ...]]:
    """Iterative DFS from ``start``: every reached vertex's search path.

    Each path is its discoverer's path plus the vertex itself, starting
    at ``start`` — the chain the DFS's parent pointers would spell.
    """
    paths = {start: (start,)}
    stack = [start]
    pop, push = stack.pop, stack.append
    while stack:
        vertex = pop()
        base = paths[vertex]
        for neighbour in adjacency[vertex]:
            if neighbour not in paths:
                paths[neighbour] = base + (neighbour,)
                push(neighbour)
    return paths


def _numbered(by_source: dict[str, list[tuple[str, tuple[str, ...]]]]
              ) -> list[PdlcItem]:
    """Items in the deterministic order: by source, then destination.

    Each source's list must already be sorted by destination.  The
    architectural and microarchitectural sets are disjoint, so no pair
    joins a register to itself.
    """
    # tuple.__new__ skips the NamedTuple constructor's Python frame
    # (this runs once per channel, ~9k times on the small BOOM preset).
    new = tuple.__new__
    items: list[PdlcItem] = []
    append = items.append
    for source in sorted(by_source):
        for dest, path in by_source[source]:
            append(new(PdlcItem, (len(items), source, dest, path)))
    return items


def pdlc_pair_set(items: list[PdlcItem]) -> set[tuple[str, str]]:
    """The (source, dest) pair set — the algorithm-equivalence invariant."""
    return {(item.source, item.dest) for item in items}
