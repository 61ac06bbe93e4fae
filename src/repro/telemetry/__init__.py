"""Campaign telemetry: spans, metrics, heartbeats, run observability.

A zero-dependency tracing + metrics layer threaded through every phase
of a campaign.  Disabled by default — the process-wide recorder is a
no-op singleton until :func:`enable` swaps a real one in — and
guaranteed inert: telemetry never touches RNG or program flow, so
fixed-seed campaign artifacts are byte-identical with it on or off
(pinned by tests and the CI telemetry job).

Layers:

* :mod:`repro.telemetry.spans` — hierarchical wall-clock spans and the
  swap-in :class:`Recorder` (``span`` records-when-on, ``timed``
  always measures).
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms with an
  additive ``merge()`` matching the ``OnlineStats`` discipline.
* :mod:`repro.telemetry.export` — JSONL event log, Prometheus text,
  the compact :class:`TelemetrySummary`, and the mini schema
  validator.
* :mod:`repro.telemetry.heartbeat` — per-shard log writers
  (iteration-cadenced heartbeats + final span/metric dump).
* :mod:`repro.telemetry.runstats` — loads a run directory's telemetry
  into the queryable layer behind ``python -m repro stats``.

See docs/observability.md for the span taxonomy and metric names.
"""

from repro.telemetry.export import (
    TelemetryError,
    TelemetrySummary,
    complete_record,
    heartbeat_record,
    load_schema,
    meta_record,
    metric_records,
    read_jsonl,
    records_to_metrics,
    records_to_spans,
    render_prometheus,
    validate_records,
    write_jsonl,
)
from repro.telemetry.heartbeat import HeartbeatWriter, rss_kb
from repro.telemetry.metrics import HistogramStat, MetricSet
from repro.telemetry.runstats import (
    RunTelemetry,
    load_run_telemetry,
    render_stats,
    stats_to_dict,
    summarize,
    summarize_recorder,
    validate_run,
)
from repro.telemetry.spans import (
    NullRecorder,
    Recorder,
    SpanRecord,
    Stopwatch,
    count,
    disable,
    enable,
    enabled,
    gauge,
    observe,
    recorder,
    span,
    timed,
)

__all__ = [
    "HeartbeatWriter",
    "HistogramStat",
    "MetricSet",
    "NullRecorder",
    "Recorder",
    "RunTelemetry",
    "SpanRecord",
    "Stopwatch",
    "TelemetryError",
    "TelemetrySummary",
    "complete_record",
    "count",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "heartbeat_record",
    "load_run_telemetry",
    "load_schema",
    "meta_record",
    "metric_records",
    "observe",
    "read_jsonl",
    "recorder",
    "records_to_metrics",
    "records_to_spans",
    "render_prometheus",
    "render_stats",
    "rss_kb",
    "span",
    "stats_to_dict",
    "summarize",
    "summarize_recorder",
    "timed",
    "validate_records",
    "validate_run",
    "write_jsonl",
]
