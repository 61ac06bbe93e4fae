"""The Offline Phase: RTL model -> IFG -> labelled registers -> PDLC.

Performed statically, once per processor-under-test (paper §3.1):

1. extract the Information Flow Graph from the PUT's register-level
   model (a parsed Verilog design or the core's declared netlist);
2. label the architectural registers using the names parsed from the
   RISC-V ISA specification excerpt;
3. extract all Potential Direct Leakage Channels, by default with the
   skew-aware reverse search (``O(V)``), optionally with the naive
   forward DFS for the complexity comparison.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.taint import StaticClassification, classify_pdlc
from repro.telemetry import span as telemetry_span
from repro.telemetry import timed as telemetry_timed
from repro.ifg.builder import build_ifg_from_design, build_ifg_from_netlist
from repro.ifg.graph import Ifg
from repro.ifg.labeling import label_architectural
from repro.ifg.pdlc import PdlcItem, extract_pdlc_forward, extract_pdlc_reverse
from repro.rtl.ir import ElaboratedDesign
from repro.rtl.netlist import Netlist


@dataclass
class OfflineArtifacts:
    """Everything the Offline Phase hands to the Online Phase."""

    ifg: Ifg
    pdlc: list[PdlcItem]
    arch_count: int
    micro_count: int
    build_seconds: float
    extract_seconds: float
    algorithm: str
    #: Static PDLC labels (repro.analysis.taint); None only for
    #: artifacts constructed by callers that skip classification.
    classification: StaticClassification | None = None
    #: Online statics derived from these artifacts (see :meth:`derived`).
    _derived: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def derived(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The value ``build()`` returns, built once per ``key``.

        For immutable structures the online phase derives from the PDLC
        list (the LP coverage groups, the vulnerability detector's
        destination index): every online phase built on these artifacts
        with the same inputs shares one, including the phases of forked
        shard workers, which inherit the parent's.  ``key`` must name
        every input ``build`` reads besides the artifacts.  The cache
        lives and dies with the artifacts — no module-level state keeps
        them alive.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def summary(self, include_timings: bool = True) -> str:
        """The paper's §4.1 numbers for this PUT.

        ``include_timings=False`` drops the wall-clock figures, giving a
        byte-stable line for persisted reports (the campaign store's
        resume-determinism contract).
        """
        built = f" (built in {self.build_seconds:.3f}s)" \
            if include_timings else ""
        extraction = f"{self.algorithm} search, {self.extract_seconds:.3f}s" \
            if include_timings else f"{self.algorithm} search"
        return (
            f"IFG: {self.ifg.vertex_count} signals, {self.ifg.edge_count} "
            f"connections{built}; "
            f"{self.arch_count} architectural registers, "
            f"{self.micro_count} microarchitectural registers; "
            f"PDLC: {len(self.pdlc)} channels ({extraction})"
        )


def run_offline(
    model: Netlist | ElaboratedDesign,
    arch_names: list[str] | None = None,
    algorithm: str = "reverse",
) -> OfflineArtifacts:
    """Run the full offline phase on an RTL model.

    ``algorithm`` selects PDLC extraction: ``"reverse"`` (the paper's
    skew-aware join) or ``"forward"`` (the naive baseline).
    """
    with telemetry_timed("offline/ifg-build") as build_timer:
        if isinstance(model, Netlist):
            ifg = build_ifg_from_netlist(model)
        else:
            ifg = build_ifg_from_design(model)
        label_architectural(ifg, arch_names=arch_names)

    with telemetry_timed("offline/pdlc-extract") as extract_timer:
        if algorithm == "reverse":
            pdlc = extract_pdlc_reverse(ifg)
        elif algorithm == "forward":
            pdlc = extract_pdlc_forward(ifg)
        else:
            raise ValueError(f"unknown PDLC algorithm {algorithm!r}")

    with telemetry_span("offline/classify"):
        classification = classify_pdlc(model, ifg, pdlc)

    return OfflineArtifacts(
        ifg=ifg,
        pdlc=pdlc,
        arch_count=len(ifg.architectural_registers()),
        micro_count=len(ifg.microarchitectural_registers()),
        build_seconds=build_timer.seconds,
        extract_seconds=extract_timer.seconds,
        algorithm=algorithm,
        classification=classification,
    )
