"""Programmatic netlists: signals + explicit information-flow edges.

The BOOM-like core model is a behavioural simulator, not parsed Verilog,
but the offline phase needs an RTL-shaped view of it: the set of register
signals and the flow connections between them.  A :class:`Netlist` is
exactly that — the moral equivalent of what Chisel elaboration would hand
Pyverilog in the paper's flow.  Each hardware unit of the core declares
its registers and edges here; the IFG builder consumes either a netlist
or an elaborated Verilog design through the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NetSignal:
    """One netlist signal.

    ``is_state`` marks clocked registers (snapshot members); ``unit``
    names the owning hardware unit (for reports); ``width`` is
    informational at this level.  ``squash_cleaned`` declares that a
    pipeline flush provably restores the register (the netlist has no
    expressions for the taint classifier to prove it from) — sources
    with the flag classify flush-gated instead of
    speculative-reachable (:mod:`repro.analysis.taint`).
    """

    name: str
    width: int
    is_state: bool
    unit: str | None = None
    squash_cleaned: bool = False


class Netlist:
    """A flat signal/edge container with hierarchical dotted names."""

    def __init__(self, name: str):
        self.name = name
        self.signals: dict[str, NetSignal] = {}
        self.edges: list[tuple[str, str]] = []
        self._edge_set: set[tuple[str, str]] = set()
        #: Lint waivers (repro.analysis.diagnostics.Waiver), the
        #: netlist-side equivalent of ``// repro-lint: waive`` pragmas.
        self.waivers: list = []

    # -- declaration ---------------------------------------------------

    def reg(self, name: str, width: int = 64, unit: str | None = None,
            squash_cleaned: bool = False) -> str:
        """Declare a clocked register signal; returns its name."""
        return self._declare(name, width, is_state=True, unit=unit,
                             squash_cleaned=squash_cleaned)

    def wire(self, name: str, width: int = 64, unit: str | None = None) -> str:
        """Declare a combinational signal; returns its name."""
        return self._declare(name, width, is_state=False, unit=unit)

    def _declare(self, name: str, width: int, is_state: bool,
                 unit: str | None, squash_cleaned: bool = False) -> str:
        if name in self.signals:
            raise ValueError(f"duplicate netlist signal {name!r}")
        self.signals[name] = NetSignal(name, width, is_state, unit,
                                       squash_cleaned)
        return name

    def waive(self, check: str, pattern: str, reason: str = "") -> None:
        """Declare a lint waiver: silence ``check`` on leaf-name
        ``pattern`` (fnmatch glob), documenting ``reason``."""
        from repro.analysis.diagnostics import Waiver

        self.waivers.append(Waiver(check, pattern, reason))

    # -- connectivity ----------------------------------------------------

    def connect(self, src: str, dst: str) -> None:
        """Add a directed information-flow edge ``src -> dst``."""
        if src not in self.signals:
            raise KeyError(f"unknown source signal {src!r}")
        if dst not in self.signals:
            raise KeyError(f"unknown destination signal {dst!r}")
        if src == dst:
            raise ValueError(f"self-edge on {src!r}")
        key = (src, dst)
        if key not in self._edge_set:
            self._edge_set.add(key)
            self.edges.append(key)

    # -- queries ---------------------------------------------------------

    def state_names(self) -> list[str]:
        """Register signal names, in declaration order."""
        return [s.name for s in self.signals.values() if s.is_state]

    def names_by_unit(self, unit: str) -> list[str]:
        """Signals owned by a unit (e.g. ``'dcache'``)."""
        return [s.name for s in self.signals.values() if s.unit == unit]

    def __len__(self) -> int:
        return len(self.signals)
