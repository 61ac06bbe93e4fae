"""The slow reference for PDLC extraction and LP coverage grouping.

:mod:`repro.ifg.pdlc` builds every witness path during one DFS kernel
and :class:`repro.coverage.lp.LpCoverage` groups channels by their name
prefixes.  This module keeps the implementations they replaced — a
parent-pointer DFS per start vertex, a per-pair walk back along the
parent chain, one sort of all pairs, and a per-channel mapping of
prefix names to signal indices — as the oracle that
``tests/test_pdlc_reference.py`` holds the fast path to, output for
output.
"""

from __future__ import annotations

from repro.ifg.graph import Ifg


def reference_pdlc(ifg: Ifg, forward: bool) -> list[tuple]:
    """``(index, source, dest, path)`` of every channel, in the order
    and with the witness paths of the original extractor."""
    micro = ifg.microarchitectural_registers()
    arch = ifg.architectural_registers()
    pairs: list[tuple[str, str, tuple[str, ...]]] = []
    if forward:
        arch_set = set(arch)
        for source in micro:
            parents = _dfs_parents(ifg, source, forward=True)
            for dest in sorted(arch_set & parents.keys()):
                if dest == source:
                    continue
                pairs.append((source, dest, _walk(parents, source, dest)))
    else:
        micro_set = set(micro)
        for dest in arch:
            parents = _dfs_parents(ifg, dest, forward=False)
            for source in sorted(micro_set & parents.keys()):
                if source == dest:
                    continue
                reversed_path = _walk(parents, dest, source)
                pairs.append((source, dest, tuple(reversed(reversed_path))))
    pairs.sort(key=lambda item: (item[0], item[1]))
    return [(index, source, dest, path)
            for index, (source, dest, path) in enumerate(pairs)]


def _dfs_parents(ifg: Ifg, start: str, forward: bool) -> dict[str, str | None]:
    """Iterative DFS; returns parent pointers for every reached vertex."""
    neighbours = ifg.successors if forward else ifg.predecessors
    parents: dict[str, str | None] = {start: None}
    stack = [start]
    while stack:
        vertex = stack.pop()
        for neighbour in neighbours(vertex):
            if neighbour not in parents:
                parents[neighbour] = vertex
                stack.append(neighbour)
    return parents


def _walk(parents: dict[str, str | None], start: str, end: str) -> tuple[str, ...]:
    """Reconstruct the path start → end from parent pointers."""
    path = [end]
    while path[-1] != start:
        parent = parents[path[-1]]
        assert parent is not None, "broken parent chain"
        path.append(parent)
    path.reverse()
    return tuple(path)


def reference_lp_groups(pdlc, signal_names: list[str], mode: str = "path",
                        include=None) -> list[tuple[tuple[int, ...], list[int]]]:
    """LP coverage groups, each channel's prefix mapped on its own."""
    index_of = {name: i for i, name in enumerate(signal_names)}
    groups: dict[tuple[int, ...], list[int]] = {}
    for pdlc_index, item in enumerate(pdlc):
        if include is not None and pdlc_index not in include:
            continue
        path = item.path[:1] if mode == "source" else item.path[:-1]
        prefix = tuple(index_of[name] for name in path)
        groups.setdefault(prefix, []).append(pdlc_index)
    return sorted(groups.items())
