"""The out-of-order core: fetch → rename/dispatch → issue → commit.

One :meth:`BoomCore.run` call simulates one test program cycle by cycle
with genuine speculative execution: the frontend follows predictions,
wrong-path instructions issue and mutate microarchitectural state
(caches, TLB, predictors), and misprediction squashes roll architectural
state back — except where an armed vulnerability hook deliberately
breaks that contract.

Pipeline stages run in reverse order within a cycle (commit, writeback/
resolve, issue/execute, dispatch, fetch) so same-cycle ordering hazards
resolve without extra bookkeeping.

The run result carries everything the online phase consumes: the
change-event signal trace ("snapshots"), the commit log (the legitimate
architectural changes), the ground-truth speculation windows (for
validating the trace-derived window extraction), and behavioural
coverage points (the "traditional code coverage" baseline feedback).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict, deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.boom import netlist as nl
from repro.boom.bpu import BranchPredictor
from repro.boom.config import BoomConfig
from repro.boom.csr import CsrFile
from repro.boom.dcache import DCache
from repro.boom.rename import RenameTable
from repro.boom.rob import DISPATCHED, DONE, EXECUTING, Rob, RobEntry
from repro.boom.tlb import Tlb
from repro.boom.tracer import TraceWriter
from repro.fuzz.input import TestProgram
from repro.golden.iss import alu_value, branch_taken, muldiv_value
from repro.golden.memory import SparseMemory
from repro.isa.instructions import DecodedInstruction, ExecClass, decode
from repro.rtl.trace import SignalTrace
from repro.utils.bitvec import mask, to_signed
from repro.utils.rng import stable_hash

_M64 = mask(64)

_ACCESS_SIZE = {
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, False),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
    "sb": 1, "sh": 2, "sw": 4, "sd": 8,
}

#: Link registers whose JAL/JALR uses drive the return-address stack.
_LINK_REGS = (1, 5)

#: Pre-built coverage-point names (an f-string per commit/issue shows up
#: in profiles at campaign scale).
COMMIT_POINTS = {cls: f"commit.{cls.value}" for cls in ExecClass}
_EXEC_POINTS = {cls: f"exec.{cls.value}" for cls in ExecClass}


#: Process-independent hash (``hash()`` is salted per interpreter).
_stable_hash = stable_hash


class Commit(NamedTuple):
    """One committed instruction — a legitimate architectural change.

    A :class:`~typing.NamedTuple`: one is built per committed
    instruction (tens of thousands per campaign iteration batch), and
    tuple construction is several times cheaper than a frozen dataclass
    ``__init__`` while keeping immutability and field access by name.
    """

    cycle: int
    pc: int
    word: int
    next_pc: int
    rd: int | None = None
    rd_value: int | None = None
    csr: int | None = None
    csr_value: int | None = None
    store_addr: int | None = None
    store_value: int | None = None
    store_size: int = 0
    load_addr: int | None = None
    is_halt: bool = False


class SpecWindow(NamedTuple):
    """Ground-truth speculation window (for validating the detector)."""

    tag: int
    start: int
    end: int
    pc: int
    word: int
    mispredicted: bool


@dataclass
class CoreResult:
    """Everything one simulation run produces."""

    trace: SignalTrace
    commits: list[Commit]
    windows: list[SpecWindow]
    coverage_points: dict[str, int]
    cycles: int
    instret: int
    halt_reason: str
    arch_regs: list[int]
    csr_values: dict[int, int]
    #: End-of-run state hashes of the instrumented microarchitectural
    #: components (what a SpecDoctor-style tool hashes for mismatches).
    instrumented: dict[str, int] = field(default_factory=dict)

    def mispredicted_windows(self) -> list[SpecWindow]:
        return [w for w in self.windows if w.mispredicted]


@dataclass(slots=True)
class _Fetched:
    pc: int
    word: int
    inst: DecodedInstruction
    is_ctrl: bool = False
    pred_taken: bool = False
    pred_target: int = 0
    ghist_snapshot: int = 0
    ras_snapshot: int = 0


#: Most-recently-used pre-decoded programs kept per core (see
#: :meth:`BoomCore._predecoded`).
_PREDECODE_LRU_ENTRIES = 512


class BoomCore:
    """The processor-under-test.  One instance may run many programs.

    The core owns one reusable simulation engine: running a program
    *resets* the engine (units restore power-on state in place, a fresh
    trace is attached) instead of reconstructing every pipeline unit and
    signal-index table per program.  Resets are exact — a reused engine
    produces byte-identical results to a freshly built one — which the
    equivalence tests pin.
    """

    design = "boom"

    def __init__(self, config: BoomConfig | None = None):
        self.config = config or BoomConfig.small()
        self.netlist = nl.build_boom_netlist(self.config)
        names = list(self.netlist.signals)
        #: Shared (names, name->slot) pair for every per-run trace.
        self._trace_statics = (names, {n: i for i, n in enumerate(names)})
        self._engine: _Engine | None = None
        #: LRU of pre-decoded programs keyed on their instruction bytes:
        #: corpus entries are re-executed and re-mutated many times, so
        #: most programs a campaign runs have been decoded before.
        self._predecode: OrderedDict[bytes, tuple[DecodedInstruction, ...]] = (
            OrderedDict()
        )

    # ------------------------------------------------------------------

    def _predecoded(self, program: TestProgram) -> tuple[DecodedInstruction, ...]:
        """The program's words decoded once, LRU-cached on the bytes."""
        key = program.to_bytes()
        cache = self._predecode
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            return hit
        decoded = tuple(decode(word) for word in program.words)
        cache[key] = decoded
        if len(cache) > _PREDECODE_LRU_ENTRIES:
            cache.popitem(last=False)
        return decoded

    def run(self, program: TestProgram,
            read: frozenset[int] | None = None) -> CoreResult:
        """Simulate one test program from reset; returns the run result.

        ``read`` is the set of trace slots the caller reads (``None``:
        every slot); see :meth:`reset`.
        """
        self.reset(program, read)
        return self._engine.execute()

    # -- the Put cycle-level protocol ----------------------------------

    def reset(self, program: TestProgram,
              read: frozenset[int] | None = None) -> None:
        """Load ``program`` into the (lazily built) engine from reset.

        The trace records at least the slots in ``read``: a slot family
        no slot of which is read (ROB occupancy, ROB ``unsafe`` flags,
        store-queue valid bits) is not written for this run.  Every
        other slot, and every slot with ``read=None``, records every
        change.
        """
        engine = self._engine
        if engine is None:
            engine = self._engine = _Engine(
                self.config, self.netlist, self._trace_statics
            )
        engine.reset(program, self._predecoded(program), read)

    def step(self) -> bool:
        """Advance one clock edge; ``False`` when the run is over."""
        return self._engine.step()

    def finish(self) -> CoreResult:
        """Assemble the finished run's :class:`CoreResult`."""
        return self._engine.finish()

    # -- the Put design-structure protocol -----------------------------

    def signal_names(self) -> list[str]:
        """Every traced signal, in trace-slot order."""
        return list(self._trace_statics[0])

    def signal_map(self):
        """The BOOM signal-naming map for this configuration."""
        from repro.puts.base import boom_signal_map

        return boom_signal_map(self.config)

    def offline_model(self):
        """The declared netlist (what the offline phase analyses)."""
        return self.netlist

    def static_source(self) -> str | None:
        """No Verilog source — lint waivers live on the netlist."""
        return None

    def special_seeds(self) -> list[TestProgram]:
        """The hand-written speculative seed corpus (the base trio plus
        one gadget per armed speculation mechanism)."""
        from repro.fuzz.seeds import special_seeds

        return special_seeds(self.config.speculation)

    def golden_memo(self):
        """A fresh RISC-V ISS contract-trace memo."""
        from repro.contracts.clauses import GoldenTraceMemo

        return GoldenTraceMemo()

    def supported_clauses(self) -> tuple[str, ...]:
        """The golden ISS implements every composable clause."""
        from repro.contracts.clauses import all_clauses

        return all_clauses()


def _mwait_monitor(config: BoomConfig, csr: CsrFile,
                   cov: dict[str, int]) -> Callable[[int], None] | None:
    """The data cache's line-change hook for one run, or None when the
    (M)WAIT vulnerability is off: a change to the monitored line zeroes
    the timer CSR.

    A closure over the units it touches, never a bound method of the
    engine: the engine owns the cache, so a hook holding the engine
    would make every engine a reference cycle that only the cyclic
    garbage collector frees (``tests/test_cyclic_garbage.py``).
    """
    if not config.vulns.mwait:
        return None
    line = config.line_bytes

    def on_line_change(line_base: int) -> None:
        if not csr.mwait_monitor_active():
            return
        if line_base <= csr.monitor_address() < line_base + line:
            if csr.hardware_clear_timer():
                cov["mwait.timer_cleared"] += 1

    return on_line_change


class _Engine:
    """The reusable simulation engine (one per :class:`BoomCore`).

    Construction wires the pipeline units and resolves every traced
    signal index once; :meth:`reset` then prepares the engine for one
    program: fresh trace writer and memory, units restored to power-on
    state in place, per-run scalars cleared.  Everything that escapes
    into the :class:`CoreResult` (trace, commits, windows, coverage
    dict) is freshly allocated per reset.
    """

    def __init__(self, config: BoomConfig, netlist, trace_statics: tuple):
        self.config = config
        self.netlist = netlist
        self._trace_statics = trace_statics
        # Armed speculation mechanisms beyond branch prediction.
        self._ssb_armed = "ssb" in config.speculation
        self._fault_armed = ("fault" in config.speculation
                             and config.protected_size > 0)

        # A throwaway writer wires the units' signal indexes; reset()
        # rebinds them all to the per-run writer.
        tracer = TraceWriter(netlist, trace_statics)
        self.bpu = BranchPredictor(config, tracer)
        self.tlb = Tlb(config, tracer)
        self.csr = CsrFile(tracer)
        self.rename = RenameTable(tracer)
        self.rob = Rob(config, tracer)
        self.dcache = DCache(config, tracer, SparseMemory())

        self._ix_arch = [tracer.idx(nl.sig_arch_x(i)) for i in range(32)]
        self._ix_arch_pc = tracer.idx(nl.sig_arch_pc())
        self._ix_pc_f = tracer.idx(nl.sig_pc_f())
        self._ix_disp_tag = tracer.idx(nl.sig_disp_tag())
        self._ix_disp_pc = tracer.idx(nl.sig_disp_pc())
        self._ix_disp_word = tracer.idx(nl.sig_disp_word())
        self._ix_res_tag = tracer.idx(nl.sig_res_tag())
        self._ix_res_mispredict = tracer.idx(nl.sig_res_mispredict())
        self._ix_wb = tracer.idx(nl.sig_wb_data())
        self._ix_req = tracer.idx(nl.sig_req_addr())
        self._ix_resp = tracer.idx(nl.sig_resp_data())
        stq_n = nl.stq_size(config)
        self._ix_stq_valid = [tracer.idx(nl.sig_stq_valid(i)) for i in range(stq_n)]
        self._ix_stq_addr = [tracer.idx(nl.sig_stq_addr(i)) for i in range(stq_n)]
        self._ix_stq_data = [tracer.idx(nl.sig_stq_data(i)) for i in range(stq_n)]
        #: The slot families a run may leave unrecorded (see
        #: :meth:`BoomCore.reset`): ROB occupancy, ROB unsafe flags,
        #: store-queue valid bits.
        rob_n = config.rob_entries
        self._occupancy_slots = frozenset([
            tracer.idx(nl.sig_rob_head()), tracer.idx(nl.sig_rob_count()),
            *(tracer.idx(nl.sig_rob_valid(i)) for i in range(rob_n)),
        ])
        self._unsafe_slots = frozenset(
            tracer.idx(nl.sig_rob_unsafe(i)) for i in range(rob_n))
        self._stq_valid_slots = frozenset(self._ix_stq_valid)
        self.fetch_queue: deque[_Fetched] = deque()

    def reset(self, program: TestProgram,
              predecoded: tuple[DecodedInstruction, ...],
              read: frozenset[int] | None = None) -> None:
        config = self.config
        self.program = program
        self.tracer = TraceWriter(self.netlist, self._trace_statics)
        self.memory = SparseMemory(fill_seed=program.data_seed)
        self.memory.load_words(config.base_address, program.words)
        for address, value in program.memory_overlay.items():
            self.memory.write_byte(address, value)
        self.program_end = config.base_address + 4 * len(program.words)

        #: Fetch fast path: serve instructions from the pre-decoded
        #: program image while nothing has overwritten the code region
        #: (an overlay byte or a committed store there falls back to
        #: decoding the live memory word).
        self._predecoded = predecoded
        self._code_clean = not any(
            config.base_address <= address < self.program_end
            for address in program.memory_overlay
        )

        self.bpu.reset(self.tracer)
        self.tlb.reset(self.tracer)
        self.csr.reset(self.tracer)
        self.rename.reset(self.tracer)
        self.rob.reset(
            self.tracer,
            occupancy=read is None
            or not self._occupancy_slots.isdisjoint(read),
            unsafe=read is None or not self._unsafe_slots.isdisjoint(read),
        )
        self._record_stq_valid = (
            read is None or not self._stq_valid_slots.isdisjoint(read))
        self.cov: dict[str, int] = defaultdict(int)
        self.dcache.reset(
            self.tracer, self.memory,
            on_line_change=_mwait_monitor(config, self.csr, self.cov),
        )

        self.arch_regs = list(program.reg_init)
        for i in range(32):
            self.tracer.init(self._ix_arch[i], self.arch_regs[i])
        self.tracer.init(self._ix_arch_pc, config.base_address)
        self.tracer.init(self._ix_pc_f, config.base_address)

        self.pc_f = config.base_address
        self.fetch_queue.clear()
        self.cycle = -1
        self.instret = 0
        self.commits: list[Commit] = []
        self.windows: dict[int, dict] = {}
        self.closed_windows: list[SpecWindow] = []
        self.halted = False
        self.halt_reason = "max_cycles"
        self.last_commit_cycle = 0
        self._next_spec_tag = 1
        self._resolved_this_cycle = False
        #: Stores whose addresses resolved this cycle ("ssb" armed):
        #: checked against younger bypassed loads for order violations.
        self._pending_ssb: list[RobEntry] = []
        self._max_cycles = min(program.max_cycles, config.max_cycles)
        self._running = True

    def _bump(self, point: str, amount: int = 1) -> None:
        self.cov[point] += amount  # self.cov is a defaultdict(int)

    # -- main loop -----------------------------------------------------------

    def execute(self) -> CoreResult:
        while self.step():
            pass
        return self.finish()

    def step(self) -> bool:
        """One clock edge; ``False`` once the run has ended."""
        if not self._running:
            return False
        if self.halted or self.cycle + 1 >= self._max_cycles:
            self._running = False
            return False
        self.cycle += 1
        self.tracer.set_cycle(self.cycle)
        self._resolved_this_cycle = False
        self._stage_commit()
        if self.halted:
            self._running = False
            return False
        self._stage_writeback()
        self._stage_issue()
        if self._pending_ssb:
            self._stage_ssb_violations()
        self._stage_dispatch()
        self._stage_fetch()
        self._fsm_coverage()
        if self.cycle - self.last_commit_cycle > self.config.commit_timeout:
            self.halt_reason = "commit_timeout"
            self._running = False
            return False
        return True

    def finish(self) -> CoreResult:
        if self.halted is False and self.halt_reason == "max_cycles":
            self._bump("run.max_cycles")

        for state in self.windows.values():
            # Windows still open at end of run close unresolved.
            self.closed_windows.append(SpecWindow(
                tag=state["tag"], start=state["start"], end=self.cycle,
                pc=state["pc"], word=state["word"], mispredicted=False,
            ))
        self.closed_windows.sort(key=lambda w: (w.start, w.tag))
        self.cov["dcache.hits"] = self.dcache.hits
        self.cov["dcache.misses"] = self.dcache.misses
        self.cov["dcache.evictions"] = self.dcache.evictions
        self.cov["tlb.hits"] = self.tlb.hits
        self.cov["tlb.misses"] = self.tlb.misses
        return CoreResult(
            trace=self.tracer.finish(),
            commits=self.commits,
            windows=self.closed_windows,
            coverage_points=dict(self.cov),
            cycles=self.cycle + 1,
            instret=self.instret,
            halt_reason=self.halt_reason,
            arch_regs=list(self.arch_regs),
            csr_values=dict(self.csr.values),
            instrumented={
                "dcache": _stable_hash(self.dcache.state_fingerprint()),
                "bpu": _stable_hash((
                    tuple(self.bpu.counters),
                    tuple(self.bpu.btb_tag),
                    tuple(self.bpu.btb_target),
                    self.bpu.ghist,
                )),
            },
        )

    # -- commit ---------------------------------------------------------------

    def _stage_commit(self) -> None:
        for _ in range(self.config.commit_width):
            entry = self.rob.head_entry()
            if entry is None or entry.state != DONE:
                return
            if entry.is_ctrl and not entry.resolved:
                return
            if entry.faults:
                self._commit_fault(entry)
                return
            self._commit_entry(entry)
            if self.halted:
                return

    def _commit_fault(self, entry: RobEntry) -> None:
        """A protected-region access reached the commit head: stall for
        the fault latency — the transient window in which already-issued
        dependents keep executing and leave cache residue — then raise
        the fault with no architectural effects."""
        if entry.fault_commit_cycle < 0:
            entry.fault_commit_cycle = self.cycle + self.config.fault_latency
            self._bump("fault.at_head")
            return
        if self.cycle < entry.fault_commit_cycle:
            return
        self.halted = True
        self.halt_reason = "fault"
        self._bump("fault.raised")

    def _commit_entry(self, entry: RobEntry) -> None:
        inst = entry.inst
        cls = inst.exec_class
        next_pc = (entry.pc + 4) & _M64
        rd = inst.dest()
        rd_value = None
        csr_addr = None
        csr_value = None
        store_addr = None
        store_value = None
        store_size = 0

        if entry.is_ctrl:
            next_pc = entry.actual_target
        if cls is ExecClass.JAL:
            next_pc = (entry.pc + to_signed(inst.imm, 64)) & _M64

        if entry.store_size > 0:
            store_addr = entry.store_addr
            store_value = entry.store_data
            store_size = entry.store_size
            if (store_addr < self.program_end
                    and store_addr + store_size > self.config.base_address):
                # Self-modifying store: the pre-decoded image is stale.
                self._code_clean = False
            self.dcache.write(store_addr, store_value, store_size)
            if entry.stq_slot is not None and self._record_stq_valid:
                self.tracer.set(self._ix_stq_valid[entry.stq_slot], 0)
            self._bump("commit.store")
        if cls is ExecClass.CSR:
            csr_addr = inst.csr
            csr_value = entry.csr_new
            if csr_value is not None:
                self.csr.write(csr_addr, csr_value)
            self._bump("commit.csr")
        if rd is not None:
            rd_value = entry.result & _M64
            self.arch_regs[rd] = rd_value
            self.tracer.set(self._ix_arch[rd], rd_value)
        if cls is ExecClass.SYSTEM:
            self.halted = True
            self.halt_reason = "halt_instruction"

        self.tracer.set(self._ix_arch_pc, next_pc)
        if entry.spec_tag and not entry.is_ctrl:
            # An ssb-armed load commits: its bypass (if any) was legal.
            self.rename.drop_snapshot(entry.spec_tag)
            state = self.windows.pop(entry.spec_tag, None)
            if state is not None:
                self.tracer.set(self._ix_res_mispredict, 0)
                self.tracer.set(self._ix_res_tag, entry.spec_tag)
                self.closed_windows.append(SpecWindow(
                    tag=entry.spec_tag, start=state["start"], end=self.cycle,
                    pc=entry.pc, word=inst.word, mispredicted=False,
                ))
        if rd is not None:
            self.rename.retire(rd, entry.index)
        self.rename.scrub_committed(entry.index)
        self.rob.pop_head()
        self.instret += 1
        self.last_commit_cycle = self.cycle
        self._bump(COMMIT_POINTS[cls])
        # tuple.__new__ skips the generated NamedTuple __new__ — one
        # Commit per committed instruction; field order as declared.
        self.commits.append(tuple.__new__(Commit, (
            self.cycle, entry.pc, inst.word, next_pc,
            rd, rd_value, csr_addr, csr_value,
            store_addr, store_value, store_size, entry.load_addr,
            cls is ExecClass.SYSTEM,
        )))
        if not self.halted and not (
            self.config.base_address <= next_pc < self.program_end
        ):
            self.halted = True
            self.halt_reason = "runaway"

    # -- writeback / branch resolution ----------------------------------------

    def _stage_writeback(self) -> None:
        # Walking the live deque is safe here: the only structural
        # mutation this stage can make is a squash, and the loop returns
        # immediately after performing it.
        for entry in self.rob.live_order():
            if entry.state != EXECUTING or entry.ready_cycle > self.cycle:
                continue
            if entry.is_ctrl:
                if self._resolved_this_cycle:
                    entry.ready_cycle = self.cycle + 1  # one brupdate per cycle
                    continue
                self._resolve(entry)
                if entry.mispredicted:
                    # Squash invalidated younger entries; stop scanning.
                    self._finish_writeback(entry)
                    return
            self._finish_writeback(entry)

    def _finish_writeback(self, entry: RobEntry) -> None:
        entry.state = DONE
        if entry.result is not None:
            self.tracer.set(self._ix_wb, entry.result & _M64)
        self._broadcast(entry)

    def _broadcast(self, producer: RobEntry) -> None:
        if producer.result is None:
            return
        producer_index = producer.index
        producer_age = producer.age
        value = producer.result & _M64
        # Only younger entries can wait on this producer, and the live
        # deque is age-ordered — walk youngest-first and stop at the
        # producer's age instead of scanning the older half.
        for entry in reversed(self.rob.live_order()):
            if entry.age <= producer_age:
                break
            # C-level membership test first: src_tags holds at most two
            # slots, and almost every live entry is not waiting on this
            # producer — the common case must not pay a Python loop.
            tags = entry.src_tags
            if producer_index not in tags:
                continue
            for slot, tag in enumerate(tags):
                if tag == producer_index:
                    tags[slot] = None
                    entry.src_vals[slot] = value

    def _resolve(self, entry: RobEntry) -> None:
        """Branch/indirect resolution — the brupdate event."""
        self._resolved_this_cycle = True
        entry.resolved = True
        self.rob.set_unsafe(entry, False)
        inst = entry.inst

        if inst.exec_class is ExecClass.BRANCH:
            entry.mispredicted = entry.actual_taken != entry.pred_taken
            self.bpu.train_branch(entry.pc, entry.ghist_snapshot, entry.actual_taken)
            if entry.mispredicted:
                self.bpu.repair_history(entry.ghist_snapshot, entry.actual_taken)
        else:  # JALR
            entry.mispredicted = entry.actual_target != entry.pred_target
            self.bpu.train_indirect(entry.pc, entry.actual_target)
            if entry.mispredicted:
                # Undo history shifts made by squashed younger branches.
                self.bpu.set_history(entry.ghist_snapshot)

        self.tracer.set(self._ix_res_mispredict, int(entry.mispredicted))
        self.tracer.set(self._ix_res_tag, entry.spec_tag)
        self._bump("resolve.mispredict" if entry.mispredicted else "resolve.correct")

        state = self.windows.pop(entry.spec_tag, None)
        if state is not None:
            self.closed_windows.append(SpecWindow(
                tag=entry.spec_tag, start=state["start"], end=self.cycle,
                pc=entry.pc, word=inst.word, mispredicted=entry.mispredicted,
            ))

        if not entry.mispredicted:
            self.rename.drop_snapshot(entry.spec_tag)
            return

        # ---- squash ----
        squashed = self.rob.squash_after(entry)
        self._bump("squash.events")
        self._bump("squash.instructions", len(squashed))

        if self.config.vulns.zenbleed and self.csr.zenbleed_enabled():
            # Zenbleed emulation: register-file changes made by already-
            # executed wrong-path instructions are NOT rolled back.
            for victim in squashed:
                rd = victim.inst.dest()
                if victim.state == DONE and rd is not None and victim.result is not None:
                    leaked = victim.result & _M64
                    if self.arch_regs[rd] != leaked:
                        self.arch_regs[rd] = leaked
                        self.tracer.set(self._ix_arch[rd], leaked)
                        self._bump("zenbleed.leak")

        self.rename.restore(entry.spec_tag)
        squashed_indices = {victim.index for victim in squashed}
        self.rename.scrub_squashed(squashed_indices)
        for victim in squashed:
            if victim.spec_tag:  # ctrl, or an ssb-armed load
                self.rename.drop_snapshot(victim.spec_tag)
                wstate = self.windows.pop(victim.spec_tag, None)
                if wstate is not None:
                    # A squashed-away window closes with its squasher; the
                    # kill is strobed on the resolution bus (brupdate's
                    # kill mask) so the trace-based extractor sees it too.
                    self.tracer.set(self._ix_res_mispredict, 0)
                    self.tracer.set(self._ix_res_tag, victim.spec_tag)
                    self.closed_windows.append(SpecWindow(
                        tag=victim.spec_tag, start=wstate["start"],
                        end=self.cycle, pc=victim.pc, word=victim.inst.word,
                        mispredicted=False,
                    ))
            if victim.stq_slot is not None and self._record_stq_valid:
                self.tracer.set(self._ix_stq_valid[victim.stq_slot], 0)
        self.bpu.repair_ras(entry.ras_snapshot)

        # Redirect the frontend.
        self.fetch_queue.clear()
        self.pc_f = entry.actual_target
        self.tracer.set(self._ix_pc_f, self.pc_f)

    # -- issue / execute --------------------------------------------------------

    def _stage_issue(self) -> None:
        issued = 0
        # _start_execution mutates entries but never the buffer itself,
        # so walking the live deque is safe here.
        for entry in self.rob.live_order():
            if issued >= self.config.issue_width:
                return
            if entry.state != DISPATCHED:
                continue
            if not self._poll_operands(entry):
                continue
            if self._start_execution(entry):
                issued += 1

    def _poll_operands(self, entry: RobEntry) -> bool:
        """Capture newly available operands; True when all are ready
        (the fused former poll-then-``sources_ready`` pair — this runs
        for every dispatched entry every cycle)."""
        ready = True
        tags = entry.src_tags
        for slot, tag in enumerate(tags):
            if tag is None:
                continue
            producer = self.rob.entries[tag]
            if producer is None or producer.age > entry.age:
                # Producer vanished (committed or squashed): value is
                # architectural now.
                reg = entry.inst.sources()[slot]
                tags[slot] = None
                entry.src_vals[slot] = self.arch_regs[reg]
            elif producer.state == DONE and producer.result is not None:
                tags[slot] = None
                entry.src_vals[slot] = producer.result & _M64
            else:
                ready = False
        return ready

    def _operand(self, entry: RobEntry, slot: int) -> int:
        return entry.src_vals[slot]

    def _start_execution(self, entry: RobEntry) -> bool:
        """Begin executing; returns False when the entry must keep waiting."""
        inst = entry.inst
        cls = inst.exec_class
        config = self.config

        if cls in (ExecClass.ALU, ExecClass.JAL, ExecClass.JALR):
            rs1 = self._operand(entry, 0) if inst.spec.reads_rs1 else 0
            rs2 = self._operand(entry, 1) if inst.spec.reads_rs2 else 0
            if cls is ExecClass.ALU:
                entry.result = alu_value(inst, rs1, rs2, entry.pc)
            else:
                entry.result = (entry.pc + 4) & _M64
                if cls is ExecClass.JALR:
                    entry.actual_target = (rs1 + to_signed(inst.imm, 64)) & _M64 & ~1
                    entry.actual_taken = True
            entry.ready_cycle = self.cycle + config.alu_latency
            self._bump(_EXEC_POINTS[cls])
        elif cls is ExecClass.MUL:
            entry.result = muldiv_value(inst, self._operand(entry, 0),
                                        self._operand(entry, 1))
            entry.ready_cycle = self.cycle + config.mul_latency
            self._bump("exec.mul")
        elif cls is ExecClass.DIV:
            entry.result = muldiv_value(inst, self._operand(entry, 0),
                                        self._operand(entry, 1))
            entry.ready_cycle = self.cycle + config.div_latency
            self._bump("exec.div")
        elif cls is ExecClass.BRANCH:
            entry.actual_taken = branch_taken(
                inst.mnemonic, self._operand(entry, 0), self._operand(entry, 1)
            )
            entry.actual_target = (
                (entry.pc + to_signed(inst.imm, 64)) & _M64
                if entry.actual_taken else (entry.pc + 4) & _M64
            )
            entry.ready_cycle = self.cycle + config.branch_latency
            self._bump("exec.branch")
        elif cls is ExecClass.LOAD:
            return self._start_load(entry)
        elif cls is ExecClass.STORE:
            address = (self._operand(entry, 0) + to_signed(inst.imm, 64)) & _M64
            entry.store_addr = address
            entry.store_data = self._operand(entry, 1) & mask(
                8 * _ACCESS_SIZE[inst.mnemonic]
            )
            entry.store_size = _ACCESS_SIZE[inst.mnemonic]
            entry.store_ready = True
            if self._fault_armed and self._faulting(address, entry.store_size):
                entry.faults = True
            if self._ssb_armed:
                self._pending_ssb.append(entry)
            entry.ready_cycle = self.cycle + 1
            slot = entry.index % nl.stq_size(config)
            entry.stq_slot = slot
            if self._record_stq_valid:
                self.tracer.set(self._ix_stq_valid[slot], 1)
            self.tracer.set(self._ix_stq_addr[slot], address)
            self.tracer.set(self._ix_stq_data[slot], entry.store_data)
            self._bump("exec.store")
        elif cls is ExecClass.CSR:
            if self.rob.head_entry() is not entry:
                return False  # CSRs serialize at the ROB head.
            old = self.csr.read(inst.csr)
            operand = (inst.rs1 if inst.mnemonic.endswith("i")
                       else self._operand(entry, 0))
            name = inst.mnemonic
            if name in ("csrrw", "csrrwi"):
                entry.csr_new = operand & _M64
            elif name in ("csrrs", "csrrsi"):
                entry.csr_new = (old | operand) & _M64 if operand else None
            else:
                entry.csr_new = (old & ~operand) & _M64 if operand else None
            entry.result = old
            entry.ready_cycle = self.cycle + 1
            self._bump("exec.csr")
        elif cls is ExecClass.SYSTEM:
            if self.rob.head_entry() is not entry:
                return False
            entry.is_halt = True
            entry.ready_cycle = self.cycle + 1
            self._bump("exec.system")
        else:  # FENCE / ILLEGAL retire as no-ops.
            entry.ready_cycle = self.cycle + 1
            self._bump("exec.nop")

        entry.state = EXECUTING
        return True

    def _start_load(self, entry: RobEntry) -> bool:
        """Loads: memory disambiguation, forwarding, speculative dcache."""
        inst = entry.inst
        address = (self._operand(entry, 0) + to_signed(inst.imm, 64)) & _M64
        size, signed = _ACCESS_SIZE[inst.mnemonic]
        entry.load_addr = address

        bypassed = False
        if self._ssb_armed:
            # Older stores that have not issued yet have unresolved
            # addresses and are invisible to the disambiguation loop
            # below.  The armed core issues past them *speculatively*
            # (Spectre-v4 hardware): the bypass opens a window and is
            # repaired by a memory-order squash if the store turns out
            # to alias.  A replaying load waits for them instead.
            for older in self.rob.live_order():
                if older.age >= entry.age:
                    break
                if (older.inst.exec_class is ExecClass.STORE
                        and not older.store_ready):
                    if entry.no_bypass:
                        return False  # replay: wait for every address
                    bypassed = True
                    break

        forward_from = None
        for store in self.rob.older_stores(entry):
            if not store.store_ready:
                return False  # unknown older store address: wait
            overlap = (store.store_addr < address + size
                       and address < store.store_addr + store.store_size)
            if not overlap:
                continue
            exact = (store.store_addr == address and store.store_size >= size)
            if exact:
                forward_from = store  # youngest exact match wins
            else:
                return False  # partial overlap: wait for the store to drain

        self.tracer.set(self._ix_req, address)
        if self._fault_armed and self._faulting(address, size):
            # Protected access: executes transiently below; the fault
            # raises when the entry reaches the commit head.
            entry.faults = True
            self._bump("fault.transient")
        if bypassed:
            entry.bypassed = True
            self.rob.set_unsafe(entry, True)
            # The bypass is a speculation source: strobe the dispatch
            # bus and open a ground-truth window keyed by the load's
            # tag, exactly as a dispatched branch would.
            self.tracer.set(self._ix_disp_pc, entry.pc)
            self.tracer.set(self._ix_disp_word, inst.word)
            self.tracer.set(self._ix_disp_tag, entry.spec_tag)
            self.windows[entry.spec_tag] = {
                "tag": entry.spec_tag, "start": self.cycle,
                "pc": entry.pc, "word": inst.word,
            }
            self._bump("ssb.bypass")
        if forward_from is not None:
            raw = forward_from.store_data & mask(8 * size)
            if signed and raw & (1 << (8 * size - 1)):
                raw |= _M64 & ~mask(8 * size)
            entry.result = raw
            entry.ready_cycle = self.cycle + 1
            self._bump("lsu.forward")
        else:
            extra = self.tlb.translate(address)
            latency = self.dcache.access(address)
            entry.result = self.memory.read(address, size, signed=signed) & _M64
            entry.ready_cycle = self.cycle + latency + extra
            self._bump("exec.load")
        self.tracer.set(self._ix_resp, entry.result)
        entry.state = EXECUTING
        return True

    def _faulting(self, address: int, size: int) -> bool:
        """Does an access overlap the architecturally protected region?"""
        base = self.config.protected_base
        return (address < base + self.config.protected_size
                and address + size > base)

    # -- store-bypass violations ("ssb" armed) ------------------------------

    def _stage_ssb_violations(self) -> None:
        """Memory-order check at store address resolution: a younger
        load that bypassed this store and overlaps it read stale memory
        — squash everything younger than the load and replay the load
        in order.  One squash per cycle (mirroring the one-brupdate
        discipline); remaining stores re-check next cycle."""
        pending = self._pending_ssb
        self._pending_ssb = []
        for position, store in enumerate(pending):
            if self.rob.entries[store.index] is not store:
                continue  # the store itself was squashed away
            victim_load = None
            for entry in self.rob.live_order():
                if entry.age <= store.age or not entry.bypassed:
                    continue
                load_size = _ACCESS_SIZE[entry.inst.mnemonic][0]
                if (entry.load_addr < store.store_addr + store.store_size
                        and store.store_addr < entry.load_addr + load_size):
                    victim_load = entry
                    break  # oldest violating load
            if victim_load is None:
                continue
            self._squash_ssb(victim_load)
            self._pending_ssb.extend(
                later for later in pending[position + 1:]
                if self.rob.entries[later.index] is later
            )
            return

    def _squash_ssb(self, load: RobEntry) -> None:
        """Roll back past a memory-order violation and replay the load."""
        self.tracer.set(self._ix_res_mispredict, 1)
        self.tracer.set(self._ix_res_tag, load.spec_tag)
        self._bump("ssb.violation")
        state = self.windows.pop(load.spec_tag, None)
        if state is not None:
            self.closed_windows.append(SpecWindow(
                tag=load.spec_tag, start=state["start"], end=self.cycle,
                pc=load.pc, word=load.inst.word, mispredicted=True,
            ))

        squashed = self.rob.squash_after(load)
        self._bump("squash.events")
        self._bump("squash.instructions", len(squashed))

        self.rename.restore(load.spec_tag)
        squashed_indices = {victim.index for victim in squashed}
        self.rename.scrub_squashed(squashed_indices)
        for victim in squashed:
            if victim.spec_tag:
                self.rename.drop_snapshot(victim.spec_tag)
                wstate = self.windows.pop(victim.spec_tag, None)
                if wstate is not None:
                    self.tracer.set(self._ix_res_mispredict, 0)
                    self.tracer.set(self._ix_res_tag, victim.spec_tag)
                    self.closed_windows.append(SpecWindow(
                        tag=victim.spec_tag, start=wstate["start"],
                        end=self.cycle, pc=victim.pc, word=victim.inst.word,
                        mispredicted=False,
                    ))
            if victim.stq_slot is not None and self._record_stq_valid:
                self.tracer.set(self._ix_stq_valid[victim.stq_slot], 0)
        self.bpu.repair_ras(load.ras_snapshot)

        # Replay the load itself, in order this time.
        self.rob.set_unsafe(load, False)
        load.state = DISPATCHED
        load.bypassed = False
        load.no_bypass = True
        load.result = None
        load.ready_cycle = -1
        load.load_addr = None
        load.faults = False
        load.fault_commit_cycle = -1

        # Redirect the frontend to the instruction after the load.
        self.fetch_queue.clear()
        self.pc_f = (load.pc + 4) & _M64
        self.tracer.set(self._ix_pc_f, self.pc_f)

    # -- dispatch -----------------------------------------------------------

    def _stage_dispatch(self) -> None:
        for _ in range(self.config.fetch_width):
            if not self.fetch_queue or self.rob.full():
                if self.rob.full():
                    self._bump("dispatch.rob_full")
                return
            fetched = self.fetch_queue.popleft()
            self._dispatch_one(fetched)

    def _dispatch_one(self, fetched: _Fetched) -> None:
        entry = self.rob.allocate(fetched.pc, fetched.inst)
        inst = fetched.inst

        src_tags: list = []
        src_vals: list = []
        rename_map = self.rename.map
        rob_entries = self.rob.entries
        for reg in inst.sources():
            tag = rename_map[reg]
            if tag is None:
                src_tags.append(None)
                src_vals.append(self.arch_regs[reg])
            else:
                producer = rob_entries[tag]
                if producer is not None and producer.state == DONE \
                        and producer.result is not None:
                    src_tags.append(None)
                    src_vals.append(producer.result & _M64)
                else:
                    src_tags.append(tag)
                    src_vals.append(0)
        entry.src_tags = src_tags
        entry.src_vals = src_vals

        dest = inst.dest()
        if dest is not None:
            self.rename.allocate(dest, entry.index)

        if fetched.is_ctrl:
            entry.is_ctrl = True
            entry.spec_tag = self._next_spec_tag
            self._next_spec_tag += 1
            entry.pred_taken = fetched.pred_taken
            entry.pred_target = fetched.pred_target
            entry.ghist_snapshot = fetched.ghist_snapshot
            entry.ras_snapshot = fetched.ras_snapshot
            self.rename.snapshot(entry.spec_tag)
            self.rob.set_unsafe(entry, True)
            # Tag written last: it is the strobe the window extractor
            # keys on, so pc/word must already hold this dispatch's data.
            self.tracer.set(self._ix_disp_pc, fetched.pc)
            self.tracer.set(self._ix_disp_word, inst.word)
            self.tracer.set(self._ix_disp_tag, entry.spec_tag)
            self.windows[entry.spec_tag] = {
                "tag": entry.spec_tag, "start": self.cycle,
                "pc": fetched.pc, "word": inst.word,
            }
        elif self._ssb_armed and inst.exec_class is ExecClass.LOAD:
            # Armed store bypass: every load is a potential speculation
            # source, so it takes a tag and a rename snapshot at
            # dispatch (after its own dest allocation, so a restore
            # keeps the surviving load's mapping).  The window opens
            # only if the load actually bypasses at issue.
            entry.spec_tag = self._next_spec_tag
            self._next_spec_tag += 1
            entry.ras_snapshot = fetched.ras_snapshot
            self.rename.snapshot(entry.spec_tag)

    # -- fetch ----------------------------------------------------------------

    def _stage_fetch(self) -> None:
        capacity = 2 * self.config.fetch_width
        fetched_now = 0
        base = self.config.base_address
        while len(self.fetch_queue) < capacity and fetched_now < self.config.fetch_width:
            offset = self.pc_f - base
            if (self._code_clean and 0 <= offset
                    and self.pc_f < self.program_end and not offset & 3):
                # Pre-decoded fast path: the code region is pristine, so
                # the memory word at an aligned in-range pc is exactly
                # the program word decoded up front.
                inst = self._predecoded[offset >> 2]
                word = inst.word
            else:
                word = self.memory.read(self.pc_f, 4)
                inst = decode(word)
            item = _Fetched(pc=self.pc_f, word=word, inst=inst)
            next_pc = (self.pc_f + 4) & _M64
            stop_group = False

            cls = inst.exec_class
            if cls is ExecClass.BRANCH:
                taken = self.bpu.predict_branch(self.pc_f)
                item.is_ctrl = True
                item.pred_taken = taken
                item.pred_target = (
                    (self.pc_f + to_signed(inst.imm, 64)) & _M64
                    if taken else next_pc
                )
                item.ghist_snapshot = self.bpu.speculate_history(taken)
                item.ras_snapshot = self.bpu.ras_top
                next_pc = item.pred_target
                stop_group = True
                self._bump("fetch.pred_taken" if taken else "fetch.pred_not_taken")
            elif cls is ExecClass.JAL:
                target = (self.pc_f + to_signed(inst.imm, 64)) & _M64
                if inst.rd in _LINK_REGS:
                    self.bpu.push_ras((self.pc_f + 4) & _M64)
                    self._bump("fetch.ras_push")
                next_pc = target
                stop_group = True
                self._bump("fetch.jal")
            elif cls is ExecClass.JALR:
                predicted = None
                if inst.rd == 0 and inst.rs1 in _LINK_REGS:
                    predicted = self.bpu.pop_ras()
                    if predicted is not None:
                        self._bump("fetch.ras_pop")
                if predicted is None:
                    predicted = self.bpu.predict_indirect(self.pc_f)
                    self._bump("fetch.btb_hit" if predicted is not None
                               else "fetch.btb_miss")
                if predicted is None:
                    predicted = next_pc  # fall-through guess
                if inst.rd in _LINK_REGS:
                    self.bpu.push_ras((self.pc_f + 4) & _M64)
                item.is_ctrl = True
                item.pred_taken = True
                item.pred_target = predicted
                item.ghist_snapshot = self.bpu.ghist
                item.ras_snapshot = self.bpu.ras_top
                next_pc = predicted
                stop_group = True
            elif cls is ExecClass.ILLEGAL:
                self._bump("fetch.illegal")
            elif cls is ExecClass.LOAD and self._ssb_armed:
                # A bypass squash redirects here, so the load needs the
                # RAS state it was fetched under to repair from.
                item.ras_snapshot = self.bpu.ras_top

            self.fetch_queue.append(item)
            self.pc_f = next_pc
            fetched_now += 1
            if stop_group:
                break
        self.tracer.set(self._ix_pc_f, self.pc_f)

    # -- coverage ---------------------------------------------------------------

    def _fsm_coverage(self) -> None:
        """Behavioural FSM-style coverage: ROB occupancy band per cycle."""
        count = self.rob.count
        if count == 0:
            band = "empty"
        elif count == self.config.rob_entries:
            band = "full"
        elif count < self.config.rob_entries // 2:
            band = "low"
        else:
            band = "high"
        self._bump(f"fsm.rob_{band}")
