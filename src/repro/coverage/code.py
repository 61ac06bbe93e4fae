"""Traditional code coverage: toggle + branch/condition + FSM combined.

This is the baseline feedback of the paper's Figure 2 experiment (and
what TheHuzz-style fuzzers maximise): a union of the classic RTL
coverage metrics, with no knowledge of leakage paths.
"""

from __future__ import annotations

from repro.boom.core import CoreResult
from repro.coverage.branchcov import point_items
from repro.coverage.fsm import fsm_items
from repro.coverage.toggle import toggle_items


class CodeCoverage:
    """Item generator for traditional code coverage."""

    def __init__(self, max_bits_per_signal: int = 16):
        self.max_bits_per_signal = max_bits_per_signal

    @staticmethod
    def reads(signal_names: list[str]) -> frozenset[int]:
        """Every trace slot: toggle coverage counts bits of all of them."""
        return frozenset(range(len(signal_names)))

    def items(self, result: CoreResult) -> list:
        """All coverage items one run produced."""
        collected = list(toggle_items(result.trace, self.max_bits_per_signal))
        collected.extend(point_items(result.coverage_points))
        collected.extend(fsm_items(result.coverage_points))
        return collected
