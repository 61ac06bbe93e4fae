"""Cycle-driven two-state simulator for elaborated designs.

Evaluation model per clock cycle:

1. apply the cycle's stimulus to top-level inputs;
2. settle combinational logic (assigns + port connections) in a
   topological order computed once at construction — combinational
   loops are a :class:`SimulationError`;
3. evaluate every flip-flop body against the settled pre-edge state
   (non-blocking semantics: all updates are simultaneous);
4. commit the register updates and settle combinational logic again;
5. record a change event for every signal whose end-of-cycle value
   differs from the previous cycle.

The simulator runs the straight-line Python that
:mod:`repro.rtl.compile` generates for the design once, at construction;
state is the slot-indexed list :attr:`RtlSimulator.state`, in the
design's declaration order.  Operator semantics live in
:mod:`repro.rtl.semantics`.
"""

from __future__ import annotations

from repro.rtl.compile import SimulationError, compile_design
from repro.rtl.ir import ElaboratedDesign
from repro.rtl.trace import SignalTrace

__all__ = ["RtlSimulator", "SimulationError"]


class RtlSimulator:
    """Simulates one :class:`ElaboratedDesign` through compiled code."""

    def __init__(self, design: ElaboratedDesign):
        self.design = design
        self.compiled = compile_design(design)
        #: Current signal values, one slot per signal (declaration order).
        self.state = [0] * len(self.compiled.names)
        self.cycle = -1
        self.compiled.settle(self.state)

    # -- public API -------------------------------------------------------

    @property
    def values(self) -> dict[str, int]:
        """A name -> value snapshot of the current state."""
        return dict(zip(self.compiled.names, self.state))

    def step(self, inputs: dict[str, int] | None = None) -> None:
        """Advance one clock cycle with the given top-input values.

        Input names may be unqualified (``"i"``) or fully qualified
        (``"top.i"``).  Writing any signal other than a free top-level
        input re-settles the whole design first, as an interpreter that
        settles everything every cycle would.
        """
        self.cycle += 1
        if inputs and not self._write(inputs) <= self.compiled.free_inputs:
            self.compiled.settle(self.state)
        self.compiled.step(self.state)

    def run(
        self,
        cycles: int,
        stimulus: list[dict[str, int]] | None = None,
        trace: SignalTrace | None = None,
    ) -> SignalTrace:
        """Run ``cycles`` cycles; returns the recorded trace.

        ``stimulus[c]`` supplies the inputs for cycle ``c`` (missing
        entries hold their previous values).  A supplied ``trace`` must
        list the design's signals in declaration order.
        """
        names = self.compiled.names
        if trace is None:
            trace = SignalTrace(list(names), list(self.state),
                                _index_of=self.compiled.slots)
        elif tuple(trace.signal_names) != names:
            raise ValueError("trace signals differ from the design's")
        previous = list(self.state)
        for cycle in range(cycles):
            inputs = stimulus[cycle] if stimulus and cycle < len(stimulus) else None
            self.step(inputs)
            trace.record_changes(self.cycle, previous, self.state)
            previous[:] = self.state
        if cycles > 0:
            trace.close(self.cycle)
        return trace

    def value(self, name: str) -> int:
        """Current value of a signal (qualified or top-level name)."""
        return self.state[self.slot(name)]

    def preset(self, values: dict[str, int], *, reset: bool = False) -> None:
        """Overwrite signal state (register initialisation) and re-settle.

        With ``reset`` the design first returns to the power-on all-zero
        state, so one simulator instance can run many programs; the
        ``values`` then seed the named registers, exactly as an RTL
        testbench would force them before releasing reset.
        """
        if reset:
            self.state[:] = [0] * len(self.state)
            self.cycle = -1
        self._write(values)
        self.compiled.settle(self.state)

    def slot(self, name: str) -> int:
        """Slot of a signal in :attr:`state` (qualified or top-level)."""
        slots = self.compiled.slots
        if name in slots:
            return slots[name]
        qualified = f"{self.design.top}.{name}"
        if qualified in slots:
            return slots[qualified]
        raise KeyError(f"unknown signal {name!r}")

    # -- internals ----------------------------------------------------------

    def _write(self, values: dict[str, int]) -> set[int]:
        """Write masked values; returns the slots written."""
        masks = self.compiled.masks
        written = set()
        for name, value in values.items():
            slot = self.slot(name)
            self.state[slot] = value & masks[slot]
            written.add(slot)
        return written
