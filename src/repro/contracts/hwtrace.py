"""Hardware observation traces derived from the BOOM change-event trace.

The relational side of contract testing needs an *attacker's view* of
one hardware run: what a side-channel observer could learn through the
microarchitecture.  This collector derives it from the trace the core
already records — no new instrumentation — as an ordered sequence of:

``("fill", line_base)`` / ``("evict", line_base)``
    Data-cache line movements, reconstructed from the traced per-way
    tag/valid signals.  Fills include *speculative* fills (the core
    never rolls a cache line back), which is precisely the Spectre
    residue; line addresses — not line contents — are observed, because
    a cache timing attacker learns which lines are resident, not what
    bytes they hold.
``("pc", next_pc)``
    The committed control-flow stream (the architectural PC signal's
    change events): the resolved path the branch units settled on.

Two runs with equal hardware traces are indistinguishable to this
observer; the contract detector compares traces *within* an input
class, never against the model's contract trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.boom import netlist as nl
from repro.boom.config import BoomConfig
from repro.boom.core import CoreResult
from repro.puts.base import PutSignalMap
from repro.utils.rng import stable_hash


@dataclass(frozen=True)
class HardwareTrace:
    """One run's attacker-visible observation sequence."""

    observations: tuple[tuple, ...]
    #: Base addresses of every line the cache held at any point
    #: (speculatively or not) — the transient-residue candidate pool.
    lines: frozenset[int]

    def key(self) -> int:
        """Process-stable equality fingerprint."""
        return stable_hash(self.observations)


class HardwareTraceCollector:
    """Derives :class:`HardwareTrace` objects from ``CoreResult`` traces.

    Signal indexes are resolved once per collector (per netlist); one
    collector serves every run of its core.
    """

    def __init__(self, config: BoomConfig, signal_names: list[str],
                 signal_map: PutSignalMap | None = None):
        """``signal_map`` locates the watched signals for non-BOOM PUTs;
        without one the historic BOOM netlist names are used."""
        self.config = config
        index = {name: i for i, name in enumerate(signal_names)}
        if signal_map is None:
            sets, ways = config.dcache_sets, config.dcache_ways
            line_bytes = config.line_bytes
            tag_name, valid_name = nl.sig_dc_tag, nl.sig_dc_valid
            arch_pc = nl.sig_arch_pc()
        else:
            dcache = signal_map.dcache
            sets, ways, line_bytes = dcache.sets, dcache.ways, dcache.line_bytes
            tag_name, valid_name = dcache.tag_name, dcache.valid_name
            arch_pc = signal_map.arch_pc
        self._sets = sets
        self._line_bytes = line_bytes
        #: signal index -> ("tag"|"valid", set, way)
        self._dc_role: dict[int, tuple[str, int, int]] = {}
        for s in range(sets):
            for w in range(ways):
                self._dc_role[index[tag_name(s, w)]] = ("tag", s, w)
                self._dc_role[index[valid_name(s, w)]] = ("valid", s, w)
        self._ix_arch_pc = index[arch_pc]
        self._watched = set(self._dc_role) | {self._ix_arch_pc}

    def reads(self) -> frozenset[int]:
        """The trace slots :meth:`collect` reads."""
        return frozenset(self._watched)

    def _line_base(self, tag: int, set_index: int) -> int:
        return ((tag * self._sets) + set_index) * self._line_bytes

    def collect(self, result: CoreResult) -> HardwareTrace:
        """The observation trace of one finished run."""
        trace = result.trace
        observations: list[tuple] = []
        lines: set[int] = set()
        # Current per-way cache metadata, replayed from the trace's
        # initial state (power-on: everything invalid).
        tags: dict[tuple[int, int], int] = {}
        valid: dict[tuple[int, int], bool] = {}
        for idx, role in self._dc_role.items():
            kind, s, w = role
            if kind == "tag":
                tags[(s, w)] = trace.initial[idx]
            else:
                valid[(s, w)] = bool(trace.initial[idx])

        # Positional walk over the watched signals' events — no event
        # objects are materialised (see SignalTrace.signal_event_positions).
        _cycles, trace_signals, _olds, trace_news = trace.columns()
        for position in trace.signal_event_positions(self._watched):
            signal = trace_signals[position]
            new = trace_news[position]
            if signal == self._ix_arch_pc:
                observations.append(("pc", new))
                continue
            kind, s, w = self._dc_role[signal]
            way = (s, w)
            if kind == "tag":
                if valid[way]:
                    # A valid way's tag change is an eviction + refill
                    # (the dcache never invalidates in place).
                    observations.append(
                        ("evict", self._line_base(tags[way], s))
                    )
                    base = self._line_base(new, s)
                    observations.append(("fill", base))
                    lines.add(base)
                tags[way] = new
            else:  # valid
                valid[way] = bool(new)
                if new:
                    base = self._line_base(tags[way], s)
                    observations.append(("fill", base))
                    lines.add(base)
        return HardwareTrace(
            observations=tuple(observations), lines=frozenset(lines)
        )
