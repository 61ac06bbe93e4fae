"""Elaborated design IR: flat signals with hierarchical names.

Elaboration flattens a module hierarchy into one namespace of
``instance.path.signal`` names — the same naming the paper's IFG example
uses (``top.df1.q``).  The IR keeps three kinds of drivers:

* combinational assigns (``assign`` statements),
* port connections (input and output, kept distinct so the IFG builder
  can reproduce the paper's connection edges one-to-one), and
* flip-flop processes (``always @(posedge clk)`` bodies).

Both the RTL simulator and the IFG builder consume this IR; the
programmatic :class:`~repro.rtl.netlist.Netlist` used by the core model
lowers into the same signal/edge vocabulary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.rtl import ast


class SignalKind(enum.Enum):
    """Declared role of a signal in its module."""

    INPUT = "input"
    OUTPUT = "output"
    WIRE = "wire"
    REG = "reg"


@dataclass
class Signal:
    """One elaborated signal.

    ``is_state`` marks flip-flop outputs (signals written by non-blocking
    assignment), the "registers" whose values constitute a snapshot.
    ``depth`` is the hierarchy depth (0 = declared in the top module).
    """

    name: str
    width: int
    kind: SignalKind
    is_state: bool = False
    depth: int = 0


#: Driver kinds for elaborated assigns.
ASSIGN_COMB = "comb"
ASSIGN_CONN_IN = "conn_in"  # parent expression -> child input port
ASSIGN_CONN_OUT = "conn_out"  # child output port -> parent net


@dataclass(frozen=True)
class ElabAssign:
    """A combinational driver: ``target`` follows ``value`` continuously."""

    target: str
    value: ast.Expr
    kind: str  # one of the ASSIGN_* constants


@dataclass(frozen=True)
class ElabFF:
    """One ``always @(posedge clock)`` process with a qualified body."""

    clock: str
    body: ast.Statement


@dataclass
class ElaboratedDesign:
    """A flattened design: the unit of IFG extraction and simulation."""

    top: str
    signals: dict[str, Signal] = field(default_factory=dict)
    assigns: list[ElabAssign] = field(default_factory=list)
    ffs: list[ElabFF] = field(default_factory=list)

    def add_signal(self, signal: Signal) -> None:
        if signal.name in self.signals:
            raise ValueError(f"duplicate signal {signal.name!r}")
        self.signals[signal.name] = signal

    def state_signals(self) -> list[Signal]:
        """Signals written on clock edges (snapshot contents)."""
        return [s for s in self.signals.values() if s.is_state]

    def top_inputs(self) -> list[Signal]:
        """Top-level input ports (simulation stimulus targets)."""
        return [
            s for s in self.signals.values()
            if s.kind is SignalKind.INPUT and s.depth == 0
        ]

    def signal_names(self) -> list[str]:
        """All signal names in insertion (declaration) order."""
        return list(self.signals)

    def ff_targets(self) -> set[str]:
        """Names written by any flip-flop process."""
        return {target for ff in self.ffs
                for target in statement_targets(ff.body)}


def statement_targets(statement: ast.Statement) -> list[str]:
    """Targets of the non-blocking writes in ``statement``, each once,
    first occurrence first."""
    targets: dict[str, None] = {}
    _collect_targets(statement, targets)
    return list(targets)


def _collect_targets(statement: ast.Statement, out: dict[str, None]) -> None:
    if isinstance(statement, ast.NonBlocking):
        out[statement.target] = None
    elif isinstance(statement, ast.If):
        _collect_targets(statement.then_body, out)
        if statement.else_body is not None:
            _collect_targets(statement.else_body, out)
    elif isinstance(statement, ast.Block):
        for child in statement.statements:
            _collect_targets(child, out)
