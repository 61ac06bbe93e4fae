"""The :class:`Put` protocol and the per-design signal-naming map.

A PUT backend owns one simulation engine and describes itself through
two objects:

* a :class:`PutSignalMap` — where in *this* design's signal namespace
  the detection stack finds the speculation-window strobes, the
  architectural state, and the data-cache metadata;
* a golden-trace memo — the contract model that architecturally matches
  *this* design's ISA (:meth:`Put.golden_memo`).

The cycle-level half of the protocol (``reset``/``step``/``finish``)
exists so campaign code can drive any backend one clock edge at a time;
``run`` is the batch form every consumer in the hot loop uses.

Both take an optional *read set*: the trace slots the caller will read.
A backend must record every change of every slot in it and may record
more (any slot, or everything); it must never record fewer.  ``None``
means every slot.  The online phase passes the union of its consumers'
reads, so a backend may skip writes no consumer looks at.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.detection.windows import RobSignalMap

if TYPE_CHECKING:  # imported lazily at runtime (contracts imports us back)
    from repro.contracts.clauses import GoldenTraceMemo


@dataclass(frozen=True)
class DcacheMap:
    """Where a design keeps its data-cache metadata signals.

    ``tag_format``/``valid_format`` are ``str.format`` templates over
    ``set`` and ``way``; ``marker`` is the substring that identifies a
    signal as data-cache state in leak reports (the set index itself is
    parsed from the ``s{set}w{way}_*`` leaf, which every design's cache
    naming follows).
    """

    sets: int
    ways: int
    line_bytes: int
    tag_format: str
    valid_format: str
    marker: str = ".dcache."

    def tag_name(self, set_index: int, way: int) -> str:
        return self.tag_format.format(set=set_index, way=way)

    def valid_name(self, set_index: int, way: int) -> str:
        return self.valid_format.format(set=set_index, way=way)


@dataclass(frozen=True)
class PutSignalMap:
    """One design's signal naming, as the detection stack consumes it.

    Architectural-state identification works either by prefix
    (``arch_prefixes``, the BOOM convention where everything under
    ``boom.arch.``/``boom.csr.`` is architectural) or by explicit set
    (``arch_signals``, for designs whose architectural registers live in
    a flat namespace next to pipeline state).
    """

    windows: RobSignalMap
    arch_pc: str
    arch_reg_format: str
    dcache: DcacheMap
    arch_prefixes: tuple[str, ...] = ()
    arch_signals: frozenset[str] | None = None
    #: CSR signal-name template (``None``: the design has no CSRs).
    csr_format: str | None = None
    #: Free-running counters excluded from leak classification.
    counter_csrs: frozenset[str] = frozenset()
    #: The MWAIT timer signal (``None``: no MWAIT emulation).
    mwait_signal: str | None = None

    def arch_reg(self, index: int) -> str:
        return self.arch_reg_format.format(index=index)

    @property
    def arch_reg_prefix(self) -> str:
        """The template's literal prefix (classifies Zenbleed-style leaks)."""
        return self.arch_reg_format.split("{", 1)[0]

    def is_architectural(self, name: str) -> bool:
        if self.arch_signals is not None:
            return name in self.arch_signals
        return name.startswith(self.arch_prefixes)


def boom_signal_map(config=None) -> PutSignalMap:
    """The BOOM model's signal map (the historic hard-coded names).

    ``config`` supplies the cache geometry; without one the map still
    answers every architectural-side query (the geometry-free uses).
    """
    from repro.boom.config import BoomConfig

    config = config or BoomConfig.small()
    return PutSignalMap(
        windows=RobSignalMap(),
        arch_pc="boom.arch.pc",
        arch_reg_format="boom.arch.x{index}",
        dcache=DcacheMap(
            sets=config.dcache_sets,
            ways=config.dcache_ways,
            line_bytes=config.line_bytes,
            tag_format="boom.dcache.s{set}w{way}_tag",
            valid_format="boom.dcache.s{set}w{way}_valid",
        ),
        arch_prefixes=("boom.arch.", "boom.csr."),
        csr_format="boom.csr.{name}",
        counter_csrs=frozenset(
            f"boom.csr.{name}"
            for name in ("mcycle", "minstret", "cycle", "time", "instret")
        ),
        mwait_signal="boom.csr.mwait_timer",
    )


class Put(ABC):
    """A processor under test.

    One instance may run many programs; ``run`` must be exact under
    reuse (same program, same result, byte for byte).  Subclasses set
    ``design`` to their registry name.
    """

    design: str = "put"

    # -- the cycle-level protocol ------------------------------------------

    @abstractmethod
    def reset(self, program, read: frozenset[int] | None = None) -> None:
        """Load ``program`` (words, registers, memory image) from reset;
        the run records at least the trace slots in ``read`` (``None``:
        every slot)."""

    @abstractmethod
    def step(self) -> bool:
        """Advance one clock edge; ``False`` when the run is over."""

    @abstractmethod
    def finish(self):
        """Assemble the finished run's :class:`~repro.boom.core.CoreResult`."""

    def run(self, program, read: frozenset[int] | None = None):
        """Simulate one test program from reset (the batch form)."""
        self.reset(program, read)
        while self.step():
            pass
        return self.finish()

    # -- design structure ---------------------------------------------------

    @abstractmethod
    def signal_names(self) -> list[str]:
        """Every traced signal, in trace-slot order."""

    @abstractmethod
    def signal_map(self) -> PutSignalMap:
        """This design's signal-naming map."""

    @abstractmethod
    def offline_model(self):
        """What :func:`repro.core.offline.run_offline` analyses (the
        netlist or elaborated design)."""

    def static_source(self) -> str | None:
        """Raw Verilog source of :meth:`offline_model`, when one exists.

        ``repro analyze`` reads waiver and flush pragmas from it
        (:mod:`repro.analysis.diagnostics`).  Netlist-backed designs
        have no source text and return ``None`` — their waivers live on
        the netlist itself.
        """
        return None

    # -- fuzzing hooks ------------------------------------------------------

    @abstractmethod
    def special_seeds(self) -> list:
        """The design's speculative seed corpus (may be empty)."""

    @abstractmethod
    def golden_memo(self) -> "GoldenTraceMemo":
        """A fresh contract-trace memo whose model architecturally
        matches this design's ISA."""

    def supported_clauses(self) -> tuple[str, ...]:
        """Contract clauses this design's golden model implements.

        Names are canonical clause spellings (see
        :func:`repro.contracts.clauses.canonicalize_clause`); a design
        whose model simulates every execution clause should return
        :func:`repro.contracts.clauses.all_clauses` instead of this
        conservative single-member default set.
        """
        from repro.contracts.clauses import CLAUSES

        return CLAUSES


def build_put(config) -> Put:
    """The config-type dispatch: one PUT backend per config class."""
    from repro.boom.config import BoomConfig

    if isinstance(config, BoomConfig):
        from repro.boom.core import BoomCore

        return BoomCore(config)
    from repro.puts.rtl import RtlPut, RtlPutConfig

    if isinstance(config, RtlPutConfig):
        return RtlPut(config)
    raise TypeError(
        f"no PUT backend for configuration type {type(config).__name__}; "
        f"expected BoomConfig or RtlPutConfig"
    )


def design_of(config) -> str:
    """The design name of a PUT configuration (for statics keying)."""
    from repro.boom.config import BoomConfig

    if isinstance(config, BoomConfig):
        return "boom"
    design = getattr(config, "design", None)
    if isinstance(design, str):
        return design
    raise TypeError(
        f"cannot name the design of a {type(config).__name__} configuration"
    )


def statics_key(config) -> tuple[str, str]:
    """The (design, config) key for per-process shared statics."""
    return design_of(config), repr(config)
