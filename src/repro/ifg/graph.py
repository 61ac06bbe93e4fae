"""The Information Flow Graph: ``IFG = (R, F)``.

``R`` is the set of all signals in the processor-under-test; ``F`` the
directed connections between them (paper §3.1).  Vertices carry the
metadata the offline phase needs: whether the signal is a clocked
register (``is_state``) and whether it is architectural (set by the
labeller).  The structure keeps both forward and reverse adjacency so the
skew-aware reverse PDLC search needs no graph transposition pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VertexInfo:
    """Metadata attached to one IFG vertex (signal)."""

    name: str
    is_state: bool = False
    is_arch: bool = False
    unit: str | None = None
    width: int = 1


class Ifg:
    """Directed graph over signal names with O(1) adjacency access."""

    def __init__(self):
        self._succ: dict[str, list[str]] = {}
        self._pred: dict[str, list[str]] = {}
        self._edge_set: set[tuple[str, str]] = set()
        self.info: dict[str, VertexInfo] = {}

    # -- construction -----------------------------------------------------

    def add_vertex(
        self,
        name: str,
        is_state: bool = False,
        unit: str | None = None,
        width: int = 1,
    ) -> None:
        """Add a signal vertex (idempotent; metadata merged with OR)."""
        if name in self.info:
            self.info[name].is_state = self.info[name].is_state or is_state
            if unit is not None:
                self.info[name].unit = unit
            return
        self.info[name] = VertexInfo(name, is_state=is_state, unit=unit, width=width)
        self._succ[name] = []
        self._pred[name] = []

    def add_edge(self, src: str, dst: str) -> None:
        """Add a flow edge; vertices must exist; self-loops are ignored.

        Self-references (``q <= q + 1``) carry no *inter*-signal flow and
        would only pollute path extraction.
        """
        if src not in self.info:
            raise KeyError(f"unknown source vertex {src!r}")
        if dst not in self.info:
            raise KeyError(f"unknown destination vertex {dst!r}")
        if src == dst:
            return
        key = (src, dst)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self._succ[src].append(dst)
        self._pred[dst].append(src)

    # -- queries -----------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.info)

    @property
    def edge_count(self) -> int:
        return len(self._edge_set)

    def vertices(self) -> list[str]:
        """All vertex names in insertion order."""
        return list(self.info)

    def edges(self) -> list[tuple[str, str]]:
        """All edges (in insertion order per source)."""
        return [(src, dst) for src in self._succ for dst in self._succ[src]]

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edge_set

    def successors(self, name: str) -> list[str]:
        return self._succ[name]

    def predecessors(self, name: str) -> list[str]:
        return self._pred[name]

    def adjacency(self, forward: bool = True) -> dict[str, list[str]]:
        """Every vertex's successors (``forward``) or predecessors — the
        bulk form of the two lookups above for graph searches.  Read
        only: the lists are the graph's own."""
        return self._succ if forward else self._pred

    def architectural_registers(self) -> list[str]:
        """Vertices labelled architectural."""
        return [name for name, info in self.info.items() if info.is_arch]

    def microarchitectural_registers(self) -> list[str]:
        """State vertices that are *not* architectural — PDLC sources."""
        return [
            name for name, info in self.info.items()
            if info.is_state and not info.is_arch
        ]

    def to_networkx(self):
        """Export as a networkx DiGraph (for analyses and sanity checks)."""
        import networkx as nx

        graph = nx.DiGraph()
        for name, info in self.info.items():
            graph.add_node(
                name, is_state=info.is_state, is_arch=info.is_arch, unit=info.unit
            )
        graph.add_edges_from(self._edge_set)
        return graph
