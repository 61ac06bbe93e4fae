"""Trace writer binding the core's units to a change-event trace.

Every netlist signal has a slot; units write values through
:meth:`TraceWriter.set` and only actual changes are recorded, giving the
same event stream an RTL waveform dump would produce for those signals.

"Every change" means every change to a *recorded* slot.  A run given a
read set (:meth:`repro.boom.core.BoomCore.reset`) skips, at the call
site, the writes to slot families none of its consumers read; those
slots keep their reset value and have no events.  The writer itself has
no notion of the read set, so a recorded write costs the same either
way.
"""

from __future__ import annotations

from repro.rtl.netlist import Netlist
from repro.rtl.trace import SignalTrace


class TraceWriter:
    """Mutable current-state view over a :class:`SignalTrace`."""

    def __init__(self, netlist: Netlist, statics: tuple | None = None):
        """``statics`` is an optional prebuilt ``(names, index)`` pair.

        The names and the name->slot map are pure functions of the
        netlist; a caller that runs many programs against one netlist
        (the reusable core engine) builds them once and shares them with
        every per-run writer instead of rebuilding them per program.
        """
        if statics is None:
            names = list(netlist.signals)
            index = {name: i for i, name in enumerate(names)}
        else:
            names, index = statics
        self.trace = SignalTrace(names, [0] * len(names), _index_of=index)
        self.values = [0] * len(names)
        self.cycle = 0
        self._index = index
        # Bound once: the writer's cycle counter is monotonic by
        # construction and finish() closes the trace, so set() may use
        # the trace's column-append fast path (see
        # :meth:`SignalTrace.appenders`) — one C-level append per column
        # per actual change, no per-event Python frame, no event object.
        (self._append_cycle, self._append_signal,
         self._append_old, self._append_new) = self.trace.appenders()

    def idx(self, name: str) -> int:
        """Resolve a signal name to its slot (units cache these)."""
        return self._index[name]

    def init(self, index: int, value: int) -> None:
        """Set a signal's *initial* (pre-cycle-0) value without an event.

        Used for reset state — the initial register values a waveform
        would show before the first clock edge.
        """
        self.values[index] = value
        self.trace.initial[index] = value

    def init_all(self, values: list[int]) -> None:
        """:meth:`init` for every slot at once (``values`` in slot order)."""
        self.values[:] = values
        self.trace.initial[:] = values

    def set_cycle(self, cycle: int) -> None:
        self.cycle = cycle

    def set(self, index: int, value: int) -> None:
        """Write a signal; records an event only when the value changes.

        The simulator's single hottest call: one per actual signal
        change, hundreds of thousands per campaign.
        """
        old = self.values[index]
        if value != old:
            self.values[index] = value
            self._append_cycle(self.cycle)
            self._append_signal(index)
            self._append_old(old)
            self._append_new(value)

    def set_all(self, values: list[int]) -> None:
        """:meth:`set` for every slot at once (``values`` in slot order).

        For engines that compute a whole state per cycle: the changed
        slots are recorded in slot order at C level
        (:meth:`SignalTrace.record_changes`), with no per-signal call.
        """
        self.trace.record_changes(self.cycle, self.values, values)
        self.values[:] = values

    def get(self, index: int) -> int:
        return self.values[index]

    def finish(self) -> SignalTrace:
        """Close the trace at the current cycle and return it."""
        self.trace.close(self.cycle)
        return self.trace
