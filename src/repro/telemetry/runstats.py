"""The queryable run-observability layer behind ``repro stats``.

Loads a run directory's telemetry artifacts — the parent's campaign
log, every shard log (torn trailing lines tolerated), and the atomic
summary; :mod:`repro.utils.rundir` names them — into a
:class:`RunTelemetry` that answers the operator questions:

* where did wall-clock go (phase breakdown, aggregated by span name,
  ordered by self-time),
* what were the slowest individual spans,
* what is each shard doing (iterations, coverage, RSS, last-heartbeat
  lag, complete or not), and
* what do the merged metrics say (counters add, histograms add, gauges
  max — the :class:`~repro.telemetry.metrics.MetricSet` discipline).

Shard telemetry merges by shard id exactly like shard reports merge by
unit id: file order never matters, so ``--jobs 1`` and ``--jobs 8``
runs of the same scenario produce the same merged heartbeat rows
(timestamps and RSS aside).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry import export
from repro.telemetry.export import TelemetryError, TelemetrySummary
from repro.telemetry.metrics import MetricSet
from repro.telemetry.spans import Recorder, SpanRecord
from repro.utils import rundir
from repro.utils.text import ascii_table

#: The parent campaign's root span name.
ROOT_SPAN = "campaign"


@dataclass
class ShardTelemetry:
    """One shard's telemetry log, parsed."""

    shard: int
    path: Path
    meta: dict = field(default_factory=dict)
    spans: list[SpanRecord] = field(default_factory=list)
    metrics: MetricSet = field(default_factory=MetricSet)
    heartbeats: list[dict] = field(default_factory=list)
    complete: bool = False
    iterations: int = 0
    findings: int = 0

    @property
    def attempt(self) -> int:
        """Which execution attempt produced this log (1 = first try;
        retried shards stamp their attempt into the meta record)."""
        return int(self.meta.get("attempt", 1))

    @property
    def last_iteration(self) -> int:
        if self.heartbeats:
            return int(self.heartbeats[-1]["iteration"])
        return -1

    @property
    def last_timestamp(self) -> float | None:
        if self.heartbeats:
            return float(self.heartbeats[-1]["timestamp"])
        return None

    @property
    def last_coverage(self) -> int:
        if self.heartbeats:
            return int(self.heartbeats[-1]["coverage"])
        return 0

    @property
    def rss_kb(self) -> int:
        if self.heartbeats:
            return int(self.heartbeats[-1]["rss_kb"])
        return 0


@dataclass
class RunTelemetry:
    """All telemetry artifacts of one run directory."""

    root: Path
    campaign_meta: dict = field(default_factory=dict)
    campaign_spans: list[SpanRecord] = field(default_factory=list)
    campaign_metrics: MetricSet = field(default_factory=MetricSet)
    shards: dict[int, ShardTelemetry] = field(default_factory=dict)
    #: Quarantine records — shards that exhausted their retries; the
    #: run completed degraded without them.
    quarantined: list[dict] = field(default_factory=list)

    def all_spans(self) -> list[SpanRecord]:
        spans = list(self.campaign_spans)
        for shard in sorted(self.shards):
            spans.extend(self.shards[shard].spans)
        return spans

    def merged_metrics(self) -> MetricSet:
        shard_sets = [self.shards[k].metrics for k in sorted(self.shards)]
        return self.campaign_metrics.merge(*shard_sets)

    def wall_seconds(self) -> float:
        """Campaign wall-clock: the parent root span when present."""
        roots = [s.seconds for s in self.campaign_spans
                 if s.name == ROOT_SPAN and s.depth == 0]
        if roots:
            return max(roots)
        spans = self.all_spans()
        return max((s.seconds for s in spans), default=0.0)

    def tracked_seconds(self) -> float:
        """Total span self-time, excluding the root span's own residue."""
        return sum(
            s.self_seconds for s in self.all_spans()
            if not (s.name == ROOT_SPAN and s.depth == 0)
        )


def _parse_shard_file(path: Path) -> ShardTelemetry:
    records = export.read_jsonl(path)
    shard_id = None
    shard = ShardTelemetry(shard=-1, path=path)
    for record in records:
        kind = record.get("type")
        if kind == "meta":
            shard.meta = record
            if "shard" in record:
                shard_id = int(record["shard"])
        elif kind == "heartbeat":
            shard.heartbeats.append(record)
            shard_id = shard_id if shard_id is not None else record.get("shard")
        elif kind == "complete":
            shard.complete = True
            shard.iterations = int(record.get("iterations", 0))
            shard.findings = int(record.get("findings", 0))
    shard.spans = export.records_to_spans(records)
    shard.metrics = export.records_to_metrics(records)
    if shard_id is None:
        try:
            shard_id = rundir.shard_index(path)  # fall back to the name
        except ValueError:
            raise TelemetryError(
                f"cannot determine shard id of telemetry log {path}")
    shard.shard = int(shard_id)
    if not shard.complete:
        shard.iterations = shard.last_iteration + 1
    return shard


def load_run_telemetry(run_dir: Path | str) -> RunTelemetry:
    """Load ``<run_dir>/telemetry`` (raises TelemetryError if absent)."""
    root = Path(run_dir)
    tdir = root / rundir.TELEMETRY_DIR
    if not tdir.is_dir():
        raise TelemetryError(
            f"no telemetry artifacts under {root} — re-run the scenario "
            f"with --telemetry to record them")
    run = RunTelemetry(root=root)
    records = export.read_jsonl(tdir / rundir.CAMPAIGN_LOG)
    for record in records:
        if record.get("type") == "meta":
            run.campaign_meta = record
            break
    run.campaign_spans = export.records_to_spans(records)
    run.campaign_metrics = export.records_to_metrics(records)
    for path in rundir.shard_files(tdir, ".jsonl"):
        shard = _parse_shard_file(path)
        run.shards[shard.shard] = shard
    run.quarantined = sorted(
        export.read_jsonl(root / rundir.QUARANTINE_FILE),
        key=lambda record: record.get("shard", -1))
    if not run.campaign_spans and not run.shards:
        raise TelemetryError(f"telemetry directory {tdir} holds no records")
    return run


# -- aggregation ------------------------------------------------------------

def phase_rows(spans: list[SpanRecord]) -> list[dict]:
    """Aggregate spans by name; ordered by total self-time, descending."""
    totals: dict[str, list[float]] = {}
    for span in spans:
        if span.name == ROOT_SPAN and span.depth == 0:
            continue
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.seconds
        entry[2] += span.self_seconds
    rows = [
        {"name": name, "count": int(entry[0]),
         "seconds": round(entry[1], 6), "self_seconds": round(entry[2], 6)}
        for name, entry in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self_seconds"], row["name"]))
    return rows


def top_spans(spans: list[SpanRecord], limit: int = 10) -> list[SpanRecord]:
    """The slowest individual spans (root excluded), longest first."""
    candidates = [s for s in spans
                  if not (s.name == ROOT_SPAN and s.depth == 0)]
    candidates.sort(key=lambda s: (-s.seconds, s.name, s.start))
    return candidates[:limit]


def shard_rows(run: RunTelemetry) -> list[dict]:
    """Per-shard status rows, lag measured against the freshest beat."""
    stamps = [s.last_timestamp for s in run.shards.values()
              if s.last_timestamp is not None]
    latest = max(stamps) if stamps else None
    rows = []
    for shard_id in sorted(run.shards):
        shard = run.shards[shard_id]
        lag = None
        if not shard.complete and latest is not None \
                and shard.last_timestamp is not None:
            lag = round(latest - shard.last_timestamp, 3)
        rows.append({
            "shard": shard_id,
            "iterations": shard.iterations,
            "coverage": shard.last_coverage,
            "rss_kb": shard.rss_kb,
            "findings": shard.findings,
            "complete": shard.complete,
            "lag_seconds": lag,
            "attempt": shard.attempt,
        })
    return rows


def summarize(run: RunTelemetry) -> TelemetrySummary:
    spans = run.all_spans()
    return TelemetrySummary(
        wall_seconds=run.wall_seconds(),
        tracked_seconds=run.tracked_seconds(),
        phases=phase_rows(spans),
        shards=shard_rows(run),
        metrics=run.merged_metrics().to_dict(),
    )


def summarize_recorder(recorder: Recorder) -> TelemetrySummary:
    """Summarize an in-memory recorder (runs without a run directory)."""
    spans = recorder.spans()
    run = RunTelemetry(root=Path("."), campaign_spans=spans,
                       campaign_metrics=recorder.metrics)
    return TelemetrySummary(
        wall_seconds=run.wall_seconds(),
        tracked_seconds=run.tracked_seconds(),
        phases=phase_rows(spans),
        shards=[],
        metrics=recorder.metrics.to_dict(),
    )


# -- rendering --------------------------------------------------------------

def stats_to_dict(run: RunTelemetry, top: int = 10) -> dict:
    summary = summarize(run)
    payload = summary.to_dict()
    payload["run_dir"] = str(run.root)
    payload["top_spans"] = [
        {"name": s.name, "start": round(s.start, 6),
         "seconds": round(s.seconds, 6)}
        for s in top_spans(run.all_spans(), top)
    ]
    return payload


def render_stats(run: RunTelemetry, top: int = 10) -> str:
    """The human-facing ``repro stats`` page."""
    summary = summarize(run)
    out: list[str] = []
    scenario = run.campaign_meta.get("scenario")
    title = f"telemetry — {run.root}"
    if scenario:
        title += f" (scenario {scenario})"
    out.append(title)
    out.append(f"wall-clock   : {summary.wall_seconds:.3f} s")
    out.append(f"span-tracked : {summary.tracked_seconds:.3f} s "
               f"({summary.coverage:.0%} of wall)")
    out.append("")

    rows = [[p["name"], str(p["count"]), f"{p['seconds']:.3f}",
             f"{p['self_seconds']:.3f}",
             (f"{p['self_seconds'] / summary.wall_seconds:.1%}"
              if summary.wall_seconds else "-")]
            for p in summary.phases]
    out.append(ascii_table(
        ["phase", "count", "total s", "self s", "% wall"], rows,
        title="phase breakdown (by self-time)"))
    out.append("")

    slow = [[s.name, f"{s.start:.3f}", f"{s.seconds:.4f}"]
            for s in top_spans(run.all_spans(), top)]
    out.append(ascii_table(["span", "start s", "seconds"], slow,
                           title=f"top {top} slowest spans"))

    if summary.shards:
        out.append("")
        shard_table = []
        for row in summary.shards:
            if row["complete"]:
                status = "complete"
            elif row["lag_seconds"] is not None and row["lag_seconds"] > 0:
                status = f"lagging {row['lag_seconds']:.1f}s"
            else:
                status = "incomplete"
            if row.get("attempt", 1) > 1:
                status += f" (attempt {row['attempt']})"
            shard_table.append([
                str(row["shard"]), str(row["iterations"]),
                str(row["coverage"]), str(row["rss_kb"]),
                str(row["findings"]), status,
            ])
        out.append(ascii_table(
            ["shard", "iterations", "coverage", "rss kb", "findings",
             "status"],
            shard_table, title="shard heartbeats"))

    if run.quarantined:
        out.append("")
        out.append(ascii_table(
            ["shard", "attempts", "failure", "last error"],
            [[str(q.get("shard")), str(q.get("attempts")),
              str(q.get("failure")), str(q.get("error"))]
             for q in run.quarantined],
            title="quarantined shards (run completed DEGRADED "
                  "without them)"))

    metrics = run.merged_metrics()
    if not metrics.is_empty():
        out.append("")
        metric_rows = []
        for name in sorted(metrics.counters):
            value = metrics.counters[name]
            rendered = str(int(value)) if value == int(value) else f"{value:g}"
            metric_rows.append([name, "counter", rendered])
        for name in sorted(metrics.gauges):
            metric_rows.append([name, "gauge", f"{metrics.gauges[name]:g}"])
        for name in sorted(metrics.histograms):
            stat = metrics.histograms[name]
            metric_rows.append([
                name, "histogram",
                f"n={stat.count} mean={stat.mean:g} "
                f"min={stat.minimum:g} max={stat.maximum:g}",
            ])
        out.append(ascii_table(["metric", "kind", "value"], metric_rows,
                               title="metrics (merged across shards)"))
    return "\n".join(out)


def validate_run(run_dir: Path | str, schema_path: Path | str) -> list[str]:
    """Validate a run's telemetry and resilience records against the
    checked-in schema: every telemetry log, the run's quarantine list,
    each shard checkpoint, and the summary's JSON."""
    schema = export.load_schema(schema_path)
    root = Path(run_dir)
    tdir = root / rundir.TELEMETRY_DIR
    if not tdir.is_dir():
        raise TelemetryError(f"no telemetry artifacts under {run_dir}")
    errors: list[str] = []
    for path in sorted(tdir.glob("*.jsonl")):
        records = export.read_jsonl(path)
        errors.extend(export.validate_records(records, schema,
                                              source=path.name))
    errors.extend(export.validate_records(
        export.read_jsonl(root / rundir.QUARANTINE_FILE), schema,
        source=rundir.QUARANTINE_FILE))
    for path in rundir.shard_files(root / rundir.CHECKPOINT_DIR):
        source = f"{rundir.CHECKPOINT_DIR}/{path.name}"
        try:
            record = rundir.read_json_object(path, TelemetryError)
        except TelemetryError as exc:
            errors.append(str(exc))
            continue
        errors.extend(export.validate_records([record], schema,
                                              source=source))
    summary = tdir / rundir.SUMMARY_FILE
    if summary.exists():
        try:
            rundir.read_json_object(summary, TelemetryError)
        except TelemetryError as exc:
            errors.append(str(exc))
    return errors
