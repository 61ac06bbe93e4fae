"""Named counters and gauges for campaign telemetry.

A :class:`MetricSet` is the value-side companion to the span recorder:
spans say where wall-clock went, metrics say how much work happened
(iterations, findings by detector, memo hits, events examined, LP
coverage, per-mutation-operator yield).  The campaign's work and
finding counts are derived once from the merged report
(:mod:`repro.scenarios.runner`); only quantities no report records are
counted as they happen.

Merging follows the :class:`repro.core.online.OnlineStats` discipline —
field-wise addition, commutative and associative — so per-shard metric
sets aggregate into exactly the campaign-level set regardless of shard
order or ``--jobs`` count:

* **counters** add, and
* **gauges** merge by ``max`` — the one deliberate deviation, because a
  gauge is a level, not a flow.  The one gauge we emit (LP coverage %)
  is monotone within a shard, so ``max`` picks each shard's final value
  and the merge stays order-independent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class MetricSet:
    """A thread-safe bag of named counters and gauges."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    # -- aggregation --------------------------------------------------------

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges)

    def merge(self, *others: "MetricSet") -> "MetricSet":
        """Return a new set folding ``others`` into ``self`` (additive)."""
        out = MetricSet(counters=dict(self.counters),
                        gauges=dict(self.gauges))
        for other in others:
            for name, value in other.counters.items():
                out.counters[name] = out.counters.get(name, 0) + value
            for name, value in other.gauges.items():
                have = out.gauges.get(name)
                out.gauges[name] = value if have is None else max(have, value)
        return out

    # -- codec --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricSet":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
        )
