"""Campaign reports: what a Specure run found, rendered for humans.

``reports`` (derived from the fuzz findings) may hold findings of
either detection pathway — IFT
:class:`~repro.detection.vulnerability.LeakReport` objects and contract
:class:`~repro.contracts.detector.ContractViolation` objects — told
apart by their ``kind`` prefix.  When a campaign ran both detectors
(``detector="both"``), :meth:`CampaignReport.cross_validation` turns the
per-iteration agreement into first-class triage output: iterations
flagged by exactly one detector are where the two oracles disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.offline import OfflineArtifacts
from repro.core.online import OnlineStats
from repro.detection.mst import MisspeculationTable
from repro.fuzz.crash import CRASH_KIND
from repro.fuzz.fuzzer import CampaignResult
from repro.utils.text import ascii_table

#: Finding kinds of the contract pathway start with this prefix.
CONTRACT_KIND_PREFIX = "contract_"


def is_contract_kind(kind: str) -> bool:
    """True for contract-detector finding kinds (``contract_ct_seq``…)."""
    return kind.startswith(CONTRACT_KIND_PREFIX)


@dataclass
class CampaignReport:
    """End-of-campaign summary."""

    #: ``None`` only on a shard report in transit from its worker; the
    #: dispatching parent re-attaches its own copy on arrival.
    offline: OfflineArtifacts | None
    fuzz: CampaignResult
    stats: OnlineStats
    mst: MisspeculationTable
    #: The detection pathways that actually ran (distinguishes "the IFT
    #: detector found nothing" from "the IFT detector never ran" —
    #: findings alone cannot tell the two apart).
    detectors: tuple[str, ...] = ("ift",)
    #: True when LP coverage dropped provably-dead channels (the
    #: ``static_prune`` knob).  Gates the static-triage section: with
    #: the knob off, rendered reports stay byte-identical to pre-knob
    #: references.
    static_prune: bool = False

    @property
    def reports(self) -> list:
        """The details of :attr:`fuzz.findings <CampaignResult.findings>`
        in finding order: leak reports, contract violations and
        contained-crash reports.  The findings are the one record of
        detections, so the report list cannot drift from them."""
        return [finding.detail for finding in self.fuzz.findings]

    def detected_kinds(self) -> set[str]:
        return {report.kind for report in self.reports}

    def first_detection_iteration(self, kind: str) -> int | None:
        """Iteration index of the first finding of ``kind`` (0-based)."""
        finding = self.fuzz.first_finding(kind)
        return None if finding is None else finding.iteration

    def ran_both_detectors(self) -> bool:
        """True when the campaign ran the IFT and contract pathways."""
        return "ift" in self.detectors and "contract" in self.detectors

    def cross_validation(self) -> dict[str, list[int]]:
        """Per-iteration agreement of the two detection pathways.

        Returns the iterations flagged by ``both`` detectors, by the
        IFT detector ``ift_only``, and by the contract detector
        ``contract_only`` (each sorted).  Only meaningful when
        :meth:`ran_both_detectors` — elsewhere one side is empty by
        construction.
        """
        ift = {f.iteration for f in self.fuzz.findings
               if not is_contract_kind(f.kind) and f.kind != CRASH_KIND}
        contract = {f.iteration for f in self.fuzz.findings
                    if is_contract_kind(f.kind)}
        return {
            "both": sorted(ift & contract),
            "ift_only": sorted(ift - contract),
            "contract_only": sorted(contract - ift),
        }

    def static_triage(self) -> dict | None:
        """Cross-validate static PDLC labels against dynamic findings.

        Returns, per static class, the channel count and how many
        distinct ``(source, dest)`` pairs from IFT leak root causes
        landed in that class; plus the dynamically-confirmed pairs the
        classifier had written off (``missed`` — dead-labelled or
        outside the PDLC universe) and the count of transient-cache
        root causes, which name no PDLC pair by construction.
        ``None`` when the offline artifacts carry no classification.
        """
        classification = self.offline.classification
        if classification is None:
            return None
        label_of = {
            (item.source, item.dest): classification.labels[item.index]
            for item in self.offline.pdlc
        }
        dynamic_pairs: set[tuple[str, str]] = set()
        transient = 0
        for report in self.reports:
            if is_contract_kind(report.kind) or report.kind == CRASH_KIND:
                continue
            for cause in report.root_causes:
                if cause.dest == "(transient cache state)":
                    transient += 1
                    continue
                dynamic_pairs.add((cause.source, cause.dest))
        confirmed: dict[str, int] = {}
        missed: list[tuple[str, str]] = []
        for pair in sorted(dynamic_pairs):
            label = label_of.get(pair)
            if label is None or label == "provably-dead":
                missed.append(pair)
            if label is not None:
                confirmed[label] = confirmed.get(label, 0) + 1
        return {
            "counts": classification.counts(),
            "confirmed": confirmed,
            "missed": missed,
            "transient_causes": transient,
        }

    def to_dict(self) -> dict:
        """Machine-readable summary (JSON-serialisable) for CI pipelines."""
        cross = (
            {"cross_validation": self.cross_validation()}
            if self.ran_both_detectors() else {}
        )
        triage = {}
        if self.static_prune:
            summary = self.static_triage()
            if summary is not None:
                triage = {"static_triage": {
                    **summary,
                    "missed": [list(pair) for pair in summary["missed"]],
                }}
        return {
            **cross,
            **triage,
            "detectors": list(self.detectors),
            "offline": {
                "signals": self.offline.ifg.vertex_count,
                "connections": self.offline.ifg.edge_count,
                "arch_registers": self.offline.arch_count,
                "micro_registers": self.offline.micro_count,
                "pdlc": len(self.offline.pdlc),
                "algorithm": self.offline.algorithm,
            },
            "campaign": {
                "iterations": self.fuzz.iterations,
                "coverage": self.fuzz.final_coverage(),
                "corpus": self.fuzz.corpus_size,
                "cycles": self.stats.cycles,
                "instructions": self.stats.instructions,
                "windows": self.stats.windows,
                "mispredicted_windows": self.stats.mispredicted_windows,
            },
            "detections": [
                {
                    "kind": kind,
                    "first_iteration": self.first_detection_iteration(kind),
                    "reports": sum(1 for r in self.reports if r.kind == kind),
                }
                for kind in sorted(self.detected_kinds())
            ],
            "mst_rows": len(self.mst),
        }

    def render(self, mst_limit: int = 10,
               include_timings: bool = True,
               telemetry=None) -> str:
        """Human-readable report.  ``include_timings=False`` drops the
        wall-clock offline-phase figures so the output is byte-stable
        across runs (what the campaign store persists).

        ``telemetry`` takes a
        :class:`~repro.telemetry.export.TelemetrySummary` and appends
        its phase-time section.  The persisted report never passes it
        (wall-clock figures are machine-local), so stored ``report.txt``
        bytes are identical with telemetry on or off.
        """
        lines = [
            "== Specure campaign report ==",
            self.offline.summary(include_timings=include_timings),
            f"iterations: {self.fuzz.iterations}, "
            f"coverage: {self.fuzz.final_coverage()}, "
            f"corpus: {self.fuzz.corpus_size}",
            f"simulated {self.stats.instructions} instructions over "
            f"{self.stats.cycles} cycles; "
            f"{self.stats.mispredicted_windows}/{self.stats.windows} "
            f"windows misspeculated",
        ]
        if include_timings:
            # The campaign's timing section (dropped from persisted
            # reports, which must be byte-stable across machines).
            timing = (
                f"timings: simulate {self.stats.simulate_seconds:.2f}s, "
                f"analysis {self.stats.analysis_seconds:.2f}s"
            )
            if self.stats.memo_hits or self.stats.memo_misses:
                timing += (
                    f"; golden-trace memo: {self.stats.memo_hits} hit(s) / "
                    f"{self.stats.memo_misses} miss(es)"
                )
            lines.append(timing)
        leaks = [r for r in self.reports
                 if not is_contract_kind(r.kind) and r.kind != CRASH_KIND]
        violations = [r for r in self.reports if is_contract_kind(r.kind)]
        crashes = [r for r in self.reports if r.kind == CRASH_KIND]
        ran_ift = "ift" in self.detectors
        ran_contract = "contract" in self.detectors
        first_by_kind = {}
        for report in self.reports:
            first_by_kind.setdefault(report.kind, report)
        if leaks:
            kinds = sorted({r.kind for r in leaks})
            rows = []
            for kind in kinds:
                iteration = self.first_detection_iteration(kind)
                count = sum(1 for r in leaks if r.kind == kind)
                rows.append([kind, count, iteration])
            lines.append(ascii_table(
                ["vulnerability", "reports", "first at iteration"], rows,
                title="Detected direct-channel leaks",
            ))
            lines.append("")
            for kind in kinds:
                lines.append(first_by_kind[kind].render())
        elif ran_ift:
            lines.append("no direct-channel leaks detected")
        else:
            lines.append("direct-channel (IFT) detector not run")
        if violations:
            kinds = sorted({r.kind for r in violations})
            rows = []
            for kind in kinds:
                iteration = self.first_detection_iteration(kind)
                count = sum(1 for r in violations if r.kind == kind)
                rows.append([kind, count, iteration])
            lines.append(ascii_table(
                ["contract", "violations", "first at iteration"], rows,
                title="Contract violations (model-based relational testing)",
            ))
            lines.append(
                f"({self.stats.contract_runs} differential hardware runs)"
            )
            lines.append("")
            for kind in kinds:
                lines.append(first_by_kind[kind].render())
        elif ran_contract:
            lines.append("no contract violations detected")
        if crashes:
            by_signature: dict[tuple[str, str], int] = {}
            for report in crashes:
                key = (report.phase, report.exception)
                by_signature[key] = by_signature.get(key, 0) + 1
            first = self.first_detection_iteration(CRASH_KIND)
            lines.append("")
            lines.append(ascii_table(
                ["phase", "exception", "crashes"],
                [[phase, exception, count]
                 for (phase, exception), count
                 in sorted(by_signature.items())],
                title="Contained crashes (poison programs kept as findings)",
            ))
            suffix = "" if first is None else f" (first at iteration {first})"
            lines.append(crashes[0].render() + suffix)
        if self.ran_both_detectors():
            agreement = self.cross_validation()

            def _fmt(iterations: list[int]) -> str:
                return ", ".join(str(i) for i in iterations) or "-"

            lines.append("")
            lines.append(ascii_table(
                ["agreement", "iterations"],
                [["both detectors", _fmt(agreement["both"])],
                 ["ift only", _fmt(agreement["ift_only"])],
                 ["contract only", _fmt(agreement["contract_only"])]],
                title="Detector cross-validation (flagged iterations)",
            ))
        if self.static_prune:
            triage = self.static_triage()
            if triage is not None:
                lines.append("")
                rows = [
                    [label, str(count),
                     str(triage["confirmed"].get(label, 0))]
                    for label, count in triage["counts"].items()
                ]
                lines.append(ascii_table(
                    ["class", "channels", "dynamically confirmed"], rows,
                    title="Static triage (coverage pruned to live "
                          "channels)",
                ))
                if triage["missed"]:
                    for source, dest in triage["missed"]:
                        lines.append(
                            f"static-missed channel: {source} -> {dest}"
                        )
                else:
                    lines.append(
                        "no dynamically-confirmed channel was statically "
                        "dead or unknown"
                    )
                if triage["transient_causes"]:
                    lines.append(
                        f"({triage['transient_causes']} transient-cache "
                        "root cause(s) outside the PDLC universe)"
                    )
        if len(self.mst):
            from repro.detection.nesting import max_depth

            lines.append("")
            lines.append(self.mst.render(limit=mst_limit))
            lines.append(
                f"(deepest misspeculation nesting observed: "
                f"{max_depth(self.mst.rows)})"
            )
        if telemetry is not None:
            lines.append("")
            lines.append(telemetry.render())
        return "\n".join(lines)
