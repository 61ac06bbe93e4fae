"""The Leakage Detector: windows + snapshot diffs = potential leaks.

Combines Step 1 (window extraction from the traced ROB signals) and
Step 2 (snapshot discrepancies) of the paper's Leakage Detector and
hands each misspeculated window's potential leakage locations to the
Vulnerability Detector.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from repro.boom.core import CoreResult
from repro.detection.snapshot_diff import window_diff
from repro.detection.windows import DetectedWindow, RobSignalMap, extract_windows


@dataclass(frozen=True)
class PotentialLeak:
    """One misspeculated window and its changed-signal set."""

    window: DetectedWindow
    changed: dict[str, tuple[int, int]]  # signal -> (before, after)


class LeakageDetector:
    """Trace-only leakage detection (no simulator internals consulted)."""

    def __init__(self, signal_map: RobSignalMap | None = None):
        self.signal_map = signal_map or RobSignalMap()

    def reads(self, signal_names: list[str]) -> frozenset[int]:
        """The trace slots window extraction reads: the five strobes.

        :meth:`potential_leaks` diffs every slot but only hands the
        diff on; its readers declare what they look at.
        """
        wanted = set(astuple(self.signal_map))
        return frozenset(i for i, name in enumerate(signal_names)
                         if name in wanted)

    def windows(self, result: CoreResult) -> list[DetectedWindow]:
        """All speculative windows of a run (Step 1)."""
        return extract_windows(result.trace, self.signal_map)

    def potential_leaks(
        self,
        result: CoreResult,
        windows: list[DetectedWindow] | None = None,
    ) -> list[PotentialLeak]:
        """Changed-signal sets for every *misspeculated* window (Step 2).

        Only misspeculated windows can leak transient state: a correctly
        predicted window's changes are simply early execution of the
        architectural path.

        Callers that already ran Step 1 pass its result as ``windows``
        so the trace is not replayed a second time per iteration.
        """
        if windows is None:
            windows = self.windows(result)
        leaks = []
        for window in windows:
            if not window.mispredicted:
                continue
            changed = window_diff(result.trace, window)
            if changed:
                leaks.append(PotentialLeak(window=window, changed=changed))
        return leaks
