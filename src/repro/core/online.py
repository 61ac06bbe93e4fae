"""The Online Phase: one evaluate() call per fuzzer iteration.

Composes the paper's Figure 1 components:

* **Microarchitecture Visualizer** — simulate the test input on the PUT,
  producing the change-event trace (snapshots) and classic coverage
  events;
* **Leakage Detector** — speculative windows from the traced ROB signals
  + snapshot discrepancies per misspeculated window;
* **Vulnerability Detector** — commit-aware architectural diffing and
  PDLC cross-referencing into root-caused leak reports (vulnerability
  feedback);
* **Coverage Calculator** — LP coverage items (or traditional code
  coverage when configured as the Figure 2 baseline) as coverage
  feedback for the Hardware Fuzzer.

A second, IFG-free detection pathway rides the same evaluate() call:
``detector="contract"`` swaps the Vulnerability Detector for the
model-based relational :class:`~repro.contracts.detector.ContractDetector`
(:mod:`repro.contracts`), and ``detector="both"`` runs the two side by
side — the built-in cross-validation mode whose per-iteration agreement
the campaign report surfaces.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from typing import Any

from repro import faultinject, telemetry

from repro.boom.core import CoreResult
from repro.contracts.detector import ContractDetector
from repro.contracts.hwtrace import HardwareTraceCollector
from repro.core.offline import OfflineArtifacts
from repro.coverage.code import CodeCoverage
from repro.coverage.lp import LpCoverage
from repro.detection.leakage import LeakageDetector
from repro.detection.mst import MisspeculationTable
from repro.detection.vulnerability import VulnerabilityDetector
from repro.fuzz.input import TestProgram

#: The selectable detection pathways.
DETECTORS = ("ift", "contract", "both")


@dataclass
class OnlineStats:
    """Aggregate counters over all evaluations of a campaign: the one
    record of the online work counts (telemetry derives its ``online.*``
    counters from the merged stats)."""

    programs: int = 0
    cycles: int = 0
    instructions: int = 0
    windows: int = 0
    mispredicted_windows: int = 0
    simulate_seconds: float = 0.0
    analysis_seconds: float = 0.0
    #: Extra hardware runs the contract detector's variant inputs made
    #: (0 on IFT-only campaigns, so pre-contract shard artifacts load
    #: with the default).
    contract_runs: int = 0
    #: Golden-trace memo traffic: ISS contract-trace requests served
    #: from the keyed LRU memo (hits) vs executed fresh (misses).
    #: 0/0 on IFT-only campaigns and on shard artifacts that predate
    #: the memo, which therefore load with the defaults.
    memo_hits: int = 0
    memo_misses: int = 0
    #: Trace events examined by the analysis queries (the bench harness
    #: reports it as events-examined/iteration).
    events_examined: int = 0

    def merge(self, *others: "OnlineStats") -> "OnlineStats":
        """Field-wise sum with other shards' stats (new object).

        Every field is an additive counter, so the merge is commutative
        and associative — shard completion order does not matter.
        """
        stats = (self, *others)
        return OnlineStats(**{
            f.name: sum(getattr(s, f.name) for s in stats)
            for f in fields(OnlineStats)
        })

    def counts(self) -> dict[str, int]:
        """The work counts: every integer field, not the wall-clock
        timings, which vary run to run (telemetry keeps those in spans)."""
        return {f.name: getattr(self, f.name) for f in fields(OnlineStats)
                if not isinstance(f.default, float)}


def _statics(build: Callable[[], Any]) -> Callable[[], Any]:
    """``build`` inside the ``online/statics`` span: recorded only when
    :meth:`OfflineArtifacts.derived` misses and actually builds."""
    def traced():
        with telemetry.span("online/statics"):
            return build()
    return traced


class OnlinePhase:
    """The evaluation pipeline handed to the fuzzing loop."""

    def __init__(self, core, offline: OfflineArtifacts, spec):
        """Wire the pipeline for ``core`` (any
        :class:`repro.puts.base.Put` backend) with the detection and
        coverage knobs of ``spec`` (a
        :class:`~repro.scenarios.spec.ScenarioSpec`, validated on
        construction)."""
        self.core = core
        self.offline = offline
        self.coverage_kind = spec.coverage
        self.detector_mode = spec.detector
        self.static_prune = spec.static_prune
        signal_names = core.signal_names()
        signal_map = core.signal_map()
        # With static_prune, provably-dead channels (see
        # repro.analysis.taint) are dropped from the coverage groups.
        # Detection below stays unpruned: pruning only shapes feedback,
        # never what counts as a leak.
        include = None
        if spec.static_prune and offline.classification is not None:
            include = frozenset(offline.classification.live_indices())
        # The coverage groups and the detector's destination index are
        # immutable, so every phase on these artifacts shares them.
        self.lp = offline.derived(
            ("lp", tuple(signal_names), "path", include),
            _statics(lambda: LpCoverage(offline.pdlc, signal_names,
                                        include=include)))
        self.code = CodeCoverage()
        self.leakage = LeakageDetector(signal_map.windows)
        self.vulnerability = offline.derived(
            ("vulnerability", spec.monitor_dcache, core.config.line_bytes,
             core.config.dcache_sets, signal_map),
            _statics(lambda: VulnerabilityDetector(
                offline.pdlc,
                monitor_dcache=spec.monitor_dcache,
                line_bytes=core.config.line_bytes,
                dcache_sets=core.config.dcache_sets,
                signal_map=signal_map,
            )))
        collector = None
        if spec.detector in ("contract", "both"):
            collector = HardwareTraceCollector(core.config, signal_names,
                                               signal_map=signal_map)
        #: The trace slots this phase's consumers read: every run it
        #: makes records at least these (see :meth:`Put.run`).
        self.read_set: frozenset[int] = offline.derived(
            ("reads", tuple(signal_names), include, spec.coverage,
             spec.detector, spec.monitor_dcache, signal_map),
            _statics(lambda: self._reads(signal_names, collector)))
        self.contract: ContractDetector | None = None
        if collector is not None:
            contract = spec.effective_contract()
            if contract not in core.supported_clauses():
                raise ValueError(
                    f"contract clause {contract!r} is not supported by "
                    f"the {core.design!r} design (supported: "
                    f"{', '.join(core.supported_clauses())})"
                )
            # The detector mirrors the hardware's armed speculation
            # mechanisms into the golden model: the fault region
            # geometry, and stale-store probing when stores can be
            # bypassed.  Designs without the knobs run unmirrored.
            config = core.config
            speculation = getattr(config, "speculation", ())
            self.contract = ContractDetector(
                partial(core.run, read=self.read_set),
                collector,
                clause=contract,
                inputs_per_class=spec.inputs_per_class,
                max_spec_window=spec.max_spec_window,
                base_address=core.config.base_address,
                line_bytes=core.config.line_bytes,
                memo=core.golden_memo(),
                protected_base=getattr(config, "protected_base", 0),
                protected_size=getattr(config, "protected_size", 0),
                probe_stale_stores="ssb" in speculation,
            )
        self.mst = MisspeculationTable()
        self.stats = OnlineStats()
        #: Covered PDLCs, recorded for *both* coverage arms so Figure 2
        #: can plot the code-coverage-guided fuzzer on the same y-axis
        #: (the LP calculator runs as a passive observer there).
        self.lp_covered: set[int] = set()
        #: Pipeline phase the current evaluate() call is in — read by
        #: the crash-containment path to attribute escaped exceptions.
        self._phase = "simulate"

    def _reads(self, signal_names: list[str],
               collector: HardwareTraceCollector | None) -> frozenset[int]:
        """The union of the trace slots every configured consumer reads."""
        reads = [self.leakage.reads(signal_names), self.lp.reads()]
        if self.coverage_kind == "code":
            reads.append(self.code.reads(signal_names))
        if self.detector_mode in ("ift", "both"):
            reads.append(self.vulnerability.reads(signal_names))
        if collector is not None:
            reads.append(collector.reads())
        return frozenset().union(*reads)

    @property
    def events_examined(self) -> int:
        """Trace events examined so far (``stats.events_examined``)."""
        return self.stats.events_examined

    # -- the fuzzer-facing API ------------------------------------------------

    def evaluate(self, program: TestProgram):
        """Run one test input through the whole online pipeline.

        Returns ``(coverage_items, findings, metadata)`` as the fuzzing
        loop expects; findings are ``(kind, report)`` pairs where the
        report is a :class:`LeakReport` (IFT pathway) or a
        :class:`~repro.contracts.detector.ContractViolation`.

        An exception escaping any pipeline phase is stamped with a
        ``crash_phase`` attribute ("simulate"/"detect"/"coverage") so
        the fuzz loop's crash containment can report *where* a poison
        program blew up, then re-raised unchanged.
        """
        self._phase = "simulate"
        try:
            faultinject.maybe_step_exception()
            return self._evaluate(program)
        except Exception as error:
            error.crash_phase = getattr(error, "crash_phase", self._phase)
            raise

    def _evaluate(self, program: TestProgram):
        self._phase = "simulate"
        stats = self.stats
        variant_seconds = 0.0
        with telemetry.timed("online/simulate") as simulate_timer:
            result = self.core.run(program, read=self.read_set)

        self._phase = "detect"
        with telemetry.timed("online/detect") as detect_timer:
            windows = self.leakage.windows(result)
            self.mst.add_windows(windows)
            # Counted with the MST rows, so a later contained crash
            # cannot leave rows the stats never saw.
            stats.programs += 1
            stats.cycles += result.cycles
            stats.instructions += result.instret
            stats.windows += len(windows)
            stats.mispredicted_windows += sum(
                1 for w in windows if w.mispredicted
            )
            reports: list = []
            if self.detector_mode in ("ift", "both"):
                leaks = self.leakage.potential_leaks(result, windows=windows)
                reports.extend(self.vulnerability.detect(result, leaks))
            if self.contract is not None:
                contract, memo = self.contract, self.contract.memo
                runs_before = contract.variant_runs
                variant_seconds_before = contract.variant_seconds
                variant_events_before = contract.events_examined
                memo_hits_before = memo.hits
                memo_misses_before = memo.misses
                reports.extend(contract.detect(program, result))
                variant_seconds = \
                    contract.variant_seconds - variant_seconds_before
                stats.contract_runs += contract.variant_runs - runs_before
                stats.memo_hits += memo.hits - memo_hits_before
                stats.memo_misses += memo.misses - memo_misses_before
                stats.events_examined += \
                    contract.events_examined - variant_events_before

        self._phase = "coverage"
        with telemetry.timed("online/coverage") as coverage_timer:
            if self.coverage_kind == "lp":
                lp_items = self.lp.items(result)
                items = lp_items
                self.lp_covered.update(index for _, index in lp_items)
            else:
                items = self.code.items(result)
                self.lp_covered.update(self.lp.covered(result))
        stats.events_examined += result.trace.events_examined
        # The contract detector's variant runs happen inside the detect
        # phase but are PUT simulation; move their time across.
        stats.simulate_seconds += simulate_timer.seconds + variant_seconds
        stats.analysis_seconds += detect_timer.seconds \
            - variant_seconds + coverage_timer.seconds

        findings = [(report.kind, report) for report in reports]
        recorder = telemetry.recorder()
        if recorder.enabled and self.lp.total:
            recorder.gauge(
                "lp.coverage_pct",
                round(100.0 * len(self.lp_covered) / self.lp.total, 3),
            )
        metadata = {
            "cycles": result.cycles,
            "instret": result.instret,
            "halt": result.halt_reason,
            "windows": len(windows),
        }
        return items, findings, metadata

    def run_once(self, program: TestProgram) -> tuple[CoreResult, list]:
        """Single-run convenience (examples, tests, minimization, replay):
        result + reports from every configured detector."""
        result = self.core.run(program, read=self.read_set)
        reports: list = []
        if self.detector_mode in ("ift", "both"):
            leaks = self.leakage.potential_leaks(result)
            reports.extend(self.vulnerability.detect(result, leaks))
        if self.contract is not None:
            reports.extend(self.contract.detect(program, result))
        return result, reports
