"""Telemetry wire formats: JSONL event log, Prometheus text, summary.

Three export surfaces, all stdlib-only:

* **JSONL event log** — one JSON object per line, discriminated by
  ``type`` (``meta`` / ``span`` / ``metric`` / ``heartbeat`` /
  ``complete``).  Readers drop a torn trailing line (a killed worker's
  partial write) exactly like the scenario store's shard logs, and
  raise :class:`TelemetryError` on mid-file corruption.
* **Prometheus text exposition** — counters, gauges, and histogram
  count/sum/min/max rendered in the ``# TYPE`` text format so a
  scraper (or a human) can diff two runs with standard tooling.
* **TelemetrySummary** — the compact JSON the report section and
  ``repro stats --format json`` share: wall clock, tracked seconds,
  phase rows, shard rows, merged metrics.

The module also carries the mini schema validator behind
``repro stats --validate`` / the CI telemetry job: a deliberately small
schema dialect (per record type: required/optional field -> JSON type)
checked in at ``docs/telemetry.schema.json``, so the event log's shape
is pinned without a third-party jsonschema dependency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.metrics import MetricSet
from repro.telemetry.spans import SpanRecord
from repro.utils import rundir
from repro.utils.text import ascii_table


class TelemetryError(RuntimeError):
    """Raised for unreadable telemetry artifacts or absent telemetry."""


# -- JSONL records ----------------------------------------------------------

def meta_record(role: str, **fields) -> dict:
    record = {"type": "meta", "role": role}
    record.update(fields)
    return record


def heartbeat_record(shard: int, iteration: int, coverage: int,
                     timestamp: float, rss_kb: int) -> dict:
    return {
        "type": "heartbeat",
        "shard": shard,
        "iteration": iteration,
        "coverage": coverage,
        "timestamp": round(timestamp, 3),
        "rss_kb": rss_kb,
    }


def complete_record(shard: int, iterations: int, findings: int) -> dict:
    return {
        "type": "complete",
        "shard": shard,
        "iterations": iterations,
        "findings": findings,
    }


def metric_records(metrics: MetricSet) -> list[dict]:
    records: list[dict] = []
    for name in sorted(metrics.counters):
        records.append({"type": "metric", "kind": "counter", "name": name,
                        "value": metrics.counters[name]})
    for name in sorted(metrics.gauges):
        records.append({"type": "metric", "kind": "gauge", "name": name,
                        "value": metrics.gauges[name]})
    for name in sorted(metrics.histograms):
        stat = metrics.histograms[name]
        records.append({"type": "metric", "kind": "histogram", "name": name,
                        "count": stat.count, "total": stat.total,
                        "min": stat.minimum, "max": stat.maximum})
    return records


def records_to_metrics(records: list[dict]) -> MetricSet:
    metrics = MetricSet()
    for record in records:
        if record.get("type") != "metric":
            continue
        kind, name = record.get("kind"), record.get("name", "")
        if kind == "counter":
            metrics.counters[name] = record.get("value", 0)
        elif kind == "gauge":
            metrics.gauges[name] = record.get("value", 0)
        elif kind == "histogram":
            from repro.telemetry.metrics import HistogramStat
            metrics.histograms[name] = HistogramStat(
                count=int(record.get("count", 0)),
                total=float(record.get("total", 0.0)),
                minimum=record.get("min"),
                maximum=record.get("max"),
            )
    return metrics


def records_to_spans(records: list[dict]) -> list[SpanRecord]:
    return [SpanRecord.from_dict(r) for r in records if r.get("type") == "span"]


# -- JSONL files ------------------------------------------------------------

def dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: Path | str, records: list[dict]) -> None:
    """Atomically replace ``path`` with ``records``, one line each."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rundir.write_atomic(
        path, "".join(dump_line(record) + "\n" for record in records))


def read_jsonl(path: Path | str) -> list[dict]:
    """Read a telemetry JSONL file.  A worker killed mid-append leaves a
    torn final line, which is dropped; a malformed line before the end
    means the file is corrupt and raises :class:`TelemetryError`."""
    return rundir.read_jsonl(path, TelemetryError)


# -- Prometheus text exposition ---------------------------------------------

def _prom_name(prefix: str, name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return prefix + cleaned


def _prom_value(value: float) -> str:
    if value is None:
        return "NaN"
    as_float = float(value)
    if as_float == int(as_float):
        return str(int(as_float))
    return repr(as_float)


def render_prometheus(metrics: MetricSet, prefix: str = "repro_") -> str:
    """Render a MetricSet in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in sorted(metrics.counters):
        prom = _prom_name(prefix, name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(metrics.counters[name])}")
    for name in sorted(metrics.gauges):
        prom = _prom_name(prefix, name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(metrics.gauges[name])}")
    for name in sorted(metrics.histograms):
        stat = metrics.histograms[name]
        prom = _prom_name(prefix, name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {stat.count}")
        lines.append(f"{prom}_sum {_prom_value(stat.total)}")
        lines.append(f"{prom}_min {_prom_value(stat.minimum)}")
        lines.append(f"{prom}_max {_prom_value(stat.maximum)}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- compact summary --------------------------------------------------------

@dataclass
class TelemetrySummary:
    """The compact cross-surface summary (report section, stats JSON)."""

    wall_seconds: float
    tracked_seconds: float
    phases: list[dict] = field(default_factory=list)
    shards: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of campaign wall-clock accounted for by spans.

        With ``--jobs > 1`` worker shards run concurrently, so summed
        span self-time can legitimately exceed 1.0x the campaign wall
        clock.
        """
        if self.wall_seconds <= 0:
            return 0.0
        return self.tracked_seconds / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "tracked_seconds": round(self.tracked_seconds, 6),
            "span_coverage": round(self.coverage, 4),
            "phases": self.phases,
            "shards": self.shards,
            "metrics": self.metrics,
        }

    def render(self, top_phases: int = 8) -> str:
        """The optional telemetry section of a campaign report."""
        lines = [
            "telemetry:",
            f"  wall-clock           : {self.wall_seconds:.3f} s",
            f"  span-tracked         : {self.tracked_seconds:.3f} s"
            f" ({self.coverage:.0%} of wall)",
        ]
        rows = [
            [p["name"], str(p["count"]), f"{p['seconds']:.3f}",
             f"{p['self_seconds']:.3f}"]
            for p in self.phases[:top_phases]
        ]
        if rows:
            table = ascii_table(
                ["phase", "count", "total s", "self s"], rows,
            )
            lines.extend("  " + line for line in table.splitlines())
        if self.shards:
            status = ", ".join(
                f"shard {s['shard']}: {s['iterations']} it"
                + ("" if s["complete"] else " (incomplete)")
                for s in self.shards
            )
            lines.append(f"  shards               : {status}")
        return "\n".join(lines)


# -- schema validation ------------------------------------------------------

_JSON_TYPES = {
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
    "array": list,
    "object": dict,
}


def load_schema(path: Path | str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise TelemetryError(f"cannot load telemetry schema {path}: {exc}")
    if "record_types" not in schema:
        raise TelemetryError(f"telemetry schema {path} has no record_types")
    return schema


def _check_type(value, type_names) -> bool:
    if isinstance(type_names, str):
        type_names = [type_names]
    for name in type_names:
        expected = _JSON_TYPES.get(name)
        if expected is None:
            continue
        if isinstance(value, bool) and name in ("integer", "number"):
            continue  # bool is an int subclass; JSON-wise it is not
        if isinstance(value, expected):
            return True
    return False


def validate_records(records: list[dict], schema: dict,
                     source: str = "") -> list[str]:
    """Validate JSONL records against the checked-in telemetry schema.

    Returns human-readable violation strings (empty = clean).  Unknown
    record types and extra fields are violations: the schema is the
    contract between the event log and downstream consumers.
    """
    where = f"{source}:" if source else ""
    types = schema.get("record_types", {})
    errors: list[str] = []
    for index, record in enumerate(records, 1):
        if not isinstance(record, dict):
            errors.append(f"{where}{index}: record is not an object")
            continue
        kind = record.get("type")
        spec = types.get(kind)
        if spec is None:
            errors.append(f"{where}{index}: unknown record type {kind!r}")
            continue
        required = spec.get("required", {})
        optional = spec.get("optional", {})
        for name, type_names in required.items():
            if name not in record:
                errors.append(
                    f"{where}{index}: {kind} record missing field {name!r}")
            elif not _check_type(record[name], type_names):
                errors.append(
                    f"{where}{index}: {kind}.{name} is not {type_names}")
        for name, value in record.items():
            if name in required:
                continue
            if name not in optional:
                errors.append(
                    f"{where}{index}: {kind} record has unknown field "
                    f"{name!r}")
            elif not _check_type(value, optional[name]):
                errors.append(
                    f"{where}{index}: {kind}.{name} is not {optional[name]}")
    return errors
