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
from dataclasses import dataclass, field
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
    """Aggregate counters over all evaluations of a campaign."""

    programs: int = 0
    cycles: int = 0
    instructions: int = 0
    windows: int = 0
    mispredicted_windows: int = 0
    simulate_seconds: float = 0.0
    analysis_seconds: float = 0.0
    #: Extra hardware runs the contract detector's variant inputs made
    #: and the violations it confirmed (0 on IFT-only campaigns, so
    #: pre-contract shard artifacts load with the defaults).
    contract_runs: int = 0
    contract_violations: int = 0
    #: Golden-trace memo traffic: ISS contract-trace requests served
    #: from the keyed LRU memo (hits) vs executed fresh (misses).
    #: 0/0 on IFT-only campaigns and on shard artifacts that predate
    #: the memo, which therefore load with the defaults.
    memo_hits: int = 0
    memo_misses: int = 0

    def merge(self, *others: "OnlineStats") -> "OnlineStats":
        """Field-wise sum with other shards' stats (new object).

        Every field is an additive counter, so the merge is commutative
        and associative — shard completion order does not matter.
        """
        merged = OnlineStats(**vars(self))
        for other in others:
            merged.programs += other.programs
            merged.cycles += other.cycles
            merged.instructions += other.instructions
            merged.windows += other.windows
            merged.mispredicted_windows += other.mispredicted_windows
            merged.simulate_seconds += other.simulate_seconds
            merged.analysis_seconds += other.analysis_seconds
            merged.contract_runs += other.contract_runs
            merged.contract_violations += other.contract_violations
            merged.memo_hits += other.memo_hits
            merged.memo_misses += other.memo_misses
        return merged


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
        self.contract: ContractDetector | None = None
        if spec.detector in ("contract", "both"):
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
                core.run,
                HardwareTraceCollector(core.config, signal_names,
                                       signal_map=signal_map),
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
        #: Total trace events examined by this phase's analysis queries
        #: (summed per-run telemetry; the bench harness reports it as
        #: events-examined/iteration).  Kept outside :class:`OnlineStats`
        #: so persisted shard artifacts keep their existing shape.
        self.events_examined = 0
        #: Covered PDLCs, recorded for *both* coverage arms so Figure 2
        #: can plot the code-coverage-guided fuzzer on the same y-axis
        #: (the LP calculator runs as a passive observer there).
        self.lp_covered: set[int] = set()
        #: Pipeline phase the current evaluate() call is in — read by
        #: the crash-containment path to attribute escaped exceptions.
        self._phase = "simulate"

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
        events_before = self.events_examined
        memo_hit_delta = memo_miss_delta = variant_run_delta = 0
        variant_seconds = 0.0
        with telemetry.timed("online/simulate") as simulate_timer:
            result = self.core.run(program)

        self._phase = "detect"
        with telemetry.timed("online/detect") as detect_timer:
            windows = self.leakage.windows(result)
            self.mst.add_windows(windows)
            reports: list = []
            if self.detector_mode in ("ift", "both"):
                leaks = self.leakage.potential_leaks(result, windows=windows)
                reports.extend(self.vulnerability.detect(result, leaks))
            if self.contract is not None:
                memo = self.contract.memo
                runs_before = self.contract.variant_runs
                variant_seconds_before = self.contract.variant_seconds
                variant_events_before = self.contract.events_examined
                memo_hits_before = memo.hits
                memo_misses_before = memo.misses
                violations = self.contract.detect(program, result)
                reports.extend(violations)
                variant_run_delta = self.contract.variant_runs - runs_before
                variant_seconds = \
                    self.contract.variant_seconds - variant_seconds_before
                self.stats.contract_runs += variant_run_delta
                self.stats.contract_violations += len(violations)
                memo_hit_delta = memo.hits - memo_hits_before
                memo_miss_delta = memo.misses - memo_misses_before
                self.stats.memo_hits += memo_hit_delta
                self.stats.memo_misses += memo_miss_delta
                self.events_examined += \
                    self.contract.events_examined - variant_events_before

        self._phase = "coverage"
        with telemetry.timed("online/coverage") as coverage_timer:
            if self.coverage_kind == "lp":
                lp_items = self.lp.items(result)
                items = lp_items
                self.lp_covered.update(index for _, index in lp_items)
            else:
                items = self.code.items(result)
                self.lp_covered.update(self.lp.covered(result))
        self.events_examined += result.trace.events_examined

        self.stats.programs += 1
        self.stats.cycles += result.cycles
        self.stats.instructions += result.instret
        self.stats.windows += len(windows)
        self.stats.mispredicted_windows += sum(
            1 for w in windows if w.mispredicted
        )
        # The contract detector's variant runs happen inside the detect
        # phase but are PUT simulation; move their time across.
        self.stats.simulate_seconds += simulate_timer.seconds + variant_seconds
        self.stats.analysis_seconds += detect_timer.seconds \
            - variant_seconds + coverage_timer.seconds

        findings = [(report.kind, report) for report in reports]
        recorder = telemetry.recorder()
        if recorder.enabled:
            self._emit_metrics(recorder, reports, windows, events_before)
            if self.contract is not None:
                recorder.count("contract.variant_runs", variant_run_delta)
                recorder.count("memo.hits", memo_hit_delta)
                recorder.count("memo.misses", memo_miss_delta)
        metadata = {
            "cycles": result.cycles,
            "instret": result.instret,
            "halt": result.halt_reason,
            "windows": len(windows),
        }
        return items, findings, metadata

    def _emit_metrics(self, recorder, reports, windows,
                      events_before: int) -> None:
        """Per-evaluation telemetry metrics (enabled recorders only).

        Pure observation: reads counters the pipeline already computed,
        never consumes randomness or branches the campaign.
        """
        recorder.count("online.evaluations")
        recorder.count("online.events_examined",
                       self.events_examined - events_before)
        if windows:
            recorder.count("online.windows", len(windows))
            mispredicted = sum(1 for w in windows if w.mispredicted)
            if mispredicted:
                recorder.count("online.mispredicted_windows", mispredicted)
        for report in reports:
            kind = getattr(report, "kind", "unknown")
            detector = "contract" if str(kind).startswith("contract") \
                else "ift"
            recorder.count(f"findings.{detector}")
        if self.lp.total:
            recorder.gauge(
                "lp.coverage_pct",
                round(100.0 * len(self.lp_covered) / self.lp.total, 3),
            )

    def run_once(self, program: TestProgram) -> tuple[CoreResult, list]:
        """Single-run convenience (examples, tests, minimization, replay):
        result + reports from every configured detector."""
        result = self.core.run(program)
        reports: list = []
        if self.detector_mode in ("ift", "both"):
            leaks = self.leakage.potential_leaks(result)
            reports.extend(self.vulnerability.detect(result, leaks))
        if self.contract is not None:
            reports.extend(self.contract.detect(program, result))
        return result, reports
