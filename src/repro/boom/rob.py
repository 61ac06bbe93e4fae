"""The re-order buffer: in-order allocate/commit, out-of-order complete.

Each entry has BOOM's ``unsafe`` flag — set while the entry is an
unresolved speculation source (a conditional branch or indirect jump) —
on its traced ``rob.e*_unsafe`` slot, and the resolution bus mirrors
BOOM's ``brupdate``: the traced ``rob.res_tag`` / ``rob.res_mispredict``
signals latch each resolution.
The paper's Leakage Detector reads exactly these signals out of the
snapshots to delimit speculative windows (§3.2 Step 1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.boom import netlist as nl
from repro.boom.config import BoomConfig
from repro.boom.tracer import TraceWriter
from repro.isa.instructions import DecodedInstruction

# Entry lifecycle states.
DISPATCHED = 0
EXECUTING = 1
DONE = 2


@dataclass(slots=True)
class RobEntry:
    """One in-flight instruction."""

    index: int
    age: int
    pc: int
    inst: DecodedInstruction
    state: int = DISPATCHED
    result: int | None = None
    ready_cycle: int = -1

    # Operand capture (aligned with inst.sources()).
    src_tags: list = field(default_factory=list)   # pending ROB tag or None
    src_vals: list = field(default_factory=list)

    # Stores.
    store_addr: int | None = None
    store_data: int | None = None
    store_size: int = 0
    store_ready: bool = False
    stq_slot: int | None = None

    # Control flow / speculation.
    is_ctrl: bool = False
    spec_tag: int = 0
    pred_taken: bool = False
    pred_target: int = 0
    actual_taken: bool = False
    actual_target: int = 0
    mispredicted: bool = False
    resolved: bool = False
    ghist_snapshot: int = 0
    ras_snapshot: int = 0

    # Loads.
    load_addr: int | None = None
    #: Load issued past an older not-address-ready store ("ssb" armed).
    bypassed: bool = False
    #: Replay marker after a memory-order squash: issue in order.
    no_bypass: bool = False

    # Faults ("fault" speculation): the access overlapped the protected
    # region, executed transiently, and raises at the commit head after
    # stalling there until ``fault_commit_cycle``.
    faults: bool = False
    fault_commit_cycle: int = -1

    # CSR / system.
    csr_new: int | None = None
    is_halt: bool = False


class Rob:
    """Circular re-order buffer with traced occupancy and entry flags."""

    def __init__(self, config: BoomConfig, tracer: TraceWriter):
        self.config = config
        self._ix_head = tracer.idx(nl.sig_rob_head())
        self._ix_tail = tracer.idx(nl.sig_rob_tail())
        self._ix_count = tracer.idx(nl.sig_rob_count())
        self._ix_valid = [tracer.idx(nl.sig_rob_valid(i))
                          for i in range(config.rob_entries)]
        self._ix_unsafe = [tracer.idx(nl.sig_rob_unsafe(i))
                           for i in range(config.rob_entries)]
        self._ix_pc = [tracer.idx(nl.sig_rob_pc(i))
                       for i in range(config.rob_entries)]
        self.reset(tracer)

    def reset(self, tracer: TraceWriter, occupancy: bool = True,
              unsafe: bool = True) -> None:
        """Empty the buffer onto a fresh trace writer.

        ``occupancy`` and ``unsafe`` say whether this run records the
        occupancy slots (``e*_valid``, ``head``, ``count``) and the
        ``e*_unsafe`` flags; a run whose consumers read neither family
        skips those writes at the call site.
        """
        self.tracer = tracer
        self._record_occupancy = occupancy
        self._record_unsafe = unsafe
        self.entries: list[RobEntry | None] = [None] * self.config.rob_entries
        self.head = 0
        self.tail = 0
        self.count = 0
        self._next_age = 0
        #: Live entries oldest-to-youngest, maintained incrementally
        #: (allocate appends, commit pops the left end, squash pops the
        #: youngest suffix) so age-order walks need no per-call rebuild.
        self._order: deque[RobEntry] = deque()

    def full(self) -> bool:
        return self.count == self.config.rob_entries

    def empty(self) -> bool:
        return self.count == 0

    def allocate(self, pc: int, inst: DecodedInstruction) -> RobEntry:
        """Allocate the tail slot for a newly dispatched instruction."""
        if self.full():
            raise RuntimeError("ROB overflow")
        index = self.tail
        entry = RobEntry(index=index, age=self._next_age, pc=pc, inst=inst)
        self._next_age += 1
        self.entries[index] = entry
        self._order.append(entry)
        self.tail = (index + 1) % self.config.rob_entries
        self.count += 1
        tracer = self.tracer
        if self._record_occupancy:
            tracer.set(self._ix_valid[index], 1)
        tracer.set(self._ix_pc[index], pc)
        tracer.set(self._ix_tail, self.tail)
        if self._record_occupancy:
            tracer.set(self._ix_count, self.count)
        return entry

    def set_unsafe(self, entry: RobEntry, value: bool) -> None:
        """Trace the entry's ``unsafe`` flag (the trace is its only record)."""
        if self._record_unsafe:
            self.tracer.set(self._ix_unsafe[entry.index], int(value))

    def head_entry(self) -> RobEntry | None:
        if self.empty():
            return None
        return self.entries[self.head]

    def pop_head(self) -> RobEntry:
        """Commit: remove and return the head entry."""
        entry = self.entries[self.head]
        assert entry is not None
        self._order.popleft()
        self.entries[self.head] = None
        tracer = self.tracer
        if self._record_occupancy:
            tracer.set(self._ix_valid[self.head], 0)
        if self._record_unsafe:
            tracer.set(self._ix_unsafe[self.head], 0)
        self.head = (self.head + 1) % self.config.rob_entries
        self.count -= 1
        if self._record_occupancy:
            tracer.set(self._ix_head, self.head)
            tracer.set(self._ix_count, self.count)
        return entry

    def in_age_order(self) -> list[RobEntry]:
        """Live entries from oldest to youngest (a fresh list; safe to
        iterate across structural changes)."""
        return list(self._order)

    def live_order(self) -> deque[RobEntry]:
        """The internal age-ordered deque — read-only iteration for hot
        paths that do not allocate, commit, or squash while walking."""
        return self._order

    def squash_after(self, pivot: RobEntry) -> list[RobEntry]:
        """Remove every entry younger than ``pivot``; returns them
        (oldest first)."""
        order = self._order
        squashed: list[RobEntry] = []
        while order and order[-1].age > pivot.age:
            squashed.append(order.pop())
        squashed.reverse()
        tracer = self.tracer
        occupancy, unsafe = self._record_occupancy, self._record_unsafe
        for entry in squashed:
            self.entries[entry.index] = None
            if occupancy:
                tracer.set(self._ix_valid[entry.index], 0)
            if unsafe:
                tracer.set(self._ix_unsafe[entry.index], 0)
        self.tail = (pivot.index + 1) % self.config.rob_entries
        self.count = len(order)
        tracer.set(self._ix_tail, self.tail)
        if occupancy:
            tracer.set(self._ix_count, self.count)
        return squashed

    def older_stores(self, entry: RobEntry) -> list[RobEntry]:
        """Store entries older than ``entry`` (oldest first)."""
        age = entry.age
        return [
            e for e in self._order
            if e.age < age and e.store_size > 0
        ]
