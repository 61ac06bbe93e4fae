"""The campaign telemetry subsystem (``repro.telemetry``).

Covers the recorder's span/metric semantics, the exporter's record
round-trips and schema validation, the per-shard heartbeat logs
(including a killed worker's partial file), the run-level query layer
behind ``python -m repro stats``, and the load-bearing contract that
telemetry never changes campaign results: byte-identical persisted
reports with the recorder on or off.
"""

import json

import pytest

from repro import telemetry
from repro.scenarios import get_scenario, run_scenario
from repro.telemetry import (
    HeartbeatWriter,
    MetricSet,
    Recorder,
    SpanRecord,
    TelemetryError,
    TelemetrySummary,
    complete_record,
    heartbeat_record,
    load_run_telemetry,
    load_schema,
    meta_record,
    metric_records,
    read_jsonl,
    records_to_metrics,
    summarize,
    validate_records,
    write_jsonl,
)
from repro.telemetry.runstats import shard_rows
from repro.utils.rundir import CAMPAIGN_LOG, shard_file


@pytest.fixture
def recorder():
    rec = telemetry.enable()
    yield rec
    telemetry.disable()


@pytest.fixture(scope="module")
def telemetry_run(tmp_path_factory):
    """One small sharded campaign with telemetry on (shared, read-only)."""
    root = tmp_path_factory.mktemp("telemetry") / "run"
    spec = get_scenario("dcache-monitor-sweep").override(
        iterations=4, shards=2
    )
    outcome = run_scenario(spec, run_dir=root, minimize=False,
                           telemetry=True)
    assert not telemetry.enabled()  # the runner restores the no-op recorder
    return root, outcome


class TestSpans:
    def test_disabled_recorder_is_inert_and_allocation_free(self):
        assert not telemetry.enabled()
        null_a = telemetry.span("online/iteration")
        null_b = telemetry.span("online/simulate")
        assert null_a is null_b  # shared singleton, not per-call objects
        with null_a:
            telemetry.count("x")
            telemetry.gauge("y", 1.0)
        assert telemetry.recorder().metrics is None

    def test_nesting_depth_and_self_time(self, recorder):
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            with recorder.span("inner"):
                pass
        spans = recorder.spans()
        by_depth = sorted((s.depth, s.name) for s in spans)
        assert by_depth == [(0, "outer"), (1, "inner"), (1, "inner")]
        outer = next(s for s in spans if s.name == "outer")
        children = sum(s.seconds for s in spans if s.name == "inner")
        # Parent's self-time excludes its children's inclusive time.
        assert outer.self_seconds == pytest.approx(
            outer.seconds - children, abs=1e-6
        )
        assert all(s.self_seconds >= 0 for s in spans)

    def test_timed_measures_with_telemetry_off(self):
        assert not telemetry.enabled()
        with telemetry.timed("offline/ifg-build") as timer:
            pass
        assert timer.seconds >= 0.0

    def test_timed_records_a_span_when_enabled(self, recorder):
        with telemetry.timed("offline/ifg-build") as timer:
            pass
        assert timer.seconds >= 0.0
        assert [s.name for s in recorder.spans()] == ["offline/ifg-build"]

    def test_window_scopes_spans_and_metrics(self, recorder):
        with recorder.span("campaign"):
            with recorder.window() as window:
                with recorder.span("shard/0"):
                    recorder.count("fuzz.iterations", 3)
        # The shard's spans and metrics moved into the window...
        assert [s.name for s in window.spans] == ["shard/0"]
        assert window.metrics.counters == {"fuzz.iterations": 3}
        # ...and the parent keeps only its own, with child time still
        # credited to the enclosing frame's self-time accounting.
        assert [s.name for s in recorder.spans()] == ["campaign"]
        assert recorder.metrics.is_empty()

    def test_span_record_round_trip(self):
        record = SpanRecord(name="online/simulate", depth=2,
                            start=1.25, seconds=0.5, self_seconds=0.5)
        data = record.to_dict()
        assert data["type"] == "span"
        assert SpanRecord.from_dict(data) == record


class TestMetrics:
    def test_counter_and_gauge(self):
        metrics = MetricSet()
        metrics.count("iters")
        metrics.count("iters", 2)
        metrics.gauge("pct", 40.0)
        metrics.gauge("pct", 70.0)
        assert metrics.counters["iters"] == 3
        assert metrics.gauges["pct"] == 70.0

    def test_merge_is_additive_like_online_stats(self):
        a, b = MetricSet(), MetricSet()
        a.count("iters", 2)
        b.count("iters", 3)
        a.gauge("pct", 50.0)
        b.gauge("pct", 30.0)
        merged = a.merge(b)
        assert merged.counters["iters"] == 5
        assert merged.gauges["pct"] == 50.0  # max across shards
        # Merge does not mutate its inputs.
        assert a.counters["iters"] == 2 and b.counters["iters"] == 3

    def test_dict_round_trip(self):
        metrics = MetricSet()
        metrics.count("iters", 7)
        restored = MetricSet.from_dict(metrics.to_dict())
        assert restored.to_dict() == metrics.to_dict()

    def test_record_round_trip(self):
        metrics = MetricSet()
        metrics.count("iters", 7)
        metrics.gauge("pct", 12.5)
        restored = records_to_metrics(metric_records(metrics))
        assert restored.to_dict() == metrics.to_dict()


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [meta_record("campaign", scenario="quickstart"),
                   heartbeat_record(0, 10, 42, 12.3456789, 1024),
                   complete_record(0, 60, 2)]
        write_jsonl(path, records)
        loaded = read_jsonl(path)
        assert loaded[0]["role"] == "campaign"
        assert loaded[1]["timestamp"] == 12.346  # rounded at the record
        assert loaded[2] == records[2]

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(path, [complete_record(0, 60, 2)])
        with path.open("a") as handle:
            handle.write('{"type": "heartbeat", "shard"')  # killed mid-write
        assert len(read_jsonl(path)) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('not json\n{"type": "complete"}\n')
        with pytest.raises(TelemetryError):
            read_jsonl(path)


class TestSchema:
    def test_checked_in_schema_accepts_real_records(self):
        schema = load_schema("docs/telemetry.schema.json")
        metrics = MetricSet()
        metrics.count("iters", 3)
        records = [
            meta_record("shard", shard=1, scenario="quickstart", seed=7,
                        iterations=60, pid=123),
            SpanRecord(name="online/simulate", depth=1, start=0.0,
                       seconds=0.5, self_seconds=0.5).to_dict(),
            *metric_records(metrics),
            heartbeat_record(1, 10, 42, 1.5, 2048),
            complete_record(1, 60, 2),
        ]
        assert validate_records(records, schema, source="test") == []

    def test_schema_flags_violations(self):
        schema = load_schema("docs/telemetry.schema.json")
        bad = [
            {"type": "heartbeat", "shard": "zero", "iteration": 1,
             "coverage": 2, "timestamp": 0.1, "rss_kb": 3},  # wrong type
            {"type": "complete", "shard": 0},                # missing fields
            {"type": "wormhole"},                            # unknown type
            complete_record(0, 1, 0) | {"extra": True},      # extra field
        ]
        errors = validate_records(bad, schema, source="test")
        # record 2 is missing two fields -> two violations
        assert len(errors) == 5


class TestHeartbeat:
    def test_cadence_and_finalize(self, tmp_path):
        ticks = iter(range(100))
        writer = HeartbeatWriter(tmp_path, shard=3, interval=2,
                                 clock=lambda: float(next(ticks)))
        with writer:
            writer.write_meta(scenario="quickstart", seed=7, iterations=6)
            for index in range(6):
                writer.on_iteration(index, new_items=1,
                                    coverage_size=10 + index)
            metrics = MetricSet()
            metrics.count("fuzz.iterations", 6)
            writer.finalize(spans=[], metrics=metrics, findings=1)
        records = read_jsonl(tmp_path / shard_file(3, ".jsonl"))
        beats = [r for r in records if r["type"] == "heartbeat"]
        # interval=2 over 6 iterations: indices 0, 2, 4, plus the final
        # beat written by finalize.
        assert [b["iteration"] for b in beats] == [0, 2, 4, 5]
        assert records[-1] == complete_record(3, 6, 1)

    def test_truncates_predecessor_debris(self, tmp_path):
        (tmp_path / shard_file(0, ".jsonl")).write_text('{"type": "meta"')
        with HeartbeatWriter(tmp_path, shard=0) as writer:
            writer.finalize(spans=[], metrics=MetricSet(), findings=0)
        records = read_jsonl(tmp_path / shard_file(0, ".jsonl"))
        assert records[-1]["type"] == "complete"


class TestRunTelemetry:
    def test_campaign_artifacts_and_summary(self, telemetry_run):
        root, outcome = telemetry_run
        tdir = root / "telemetry"
        names = sorted(p.name for p in tdir.iterdir())
        assert names == [CAMPAIGN_LOG, shard_file(0, ".jsonl"),
                         shard_file(1, ".jsonl"), "summary.json"]
        run = load_run_telemetry(root)
        assert sorted(run.shards) == [0, 1]
        assert all(shard.complete for shard in run.shards.values())
        summary = summarize(run)
        assert summary.wall_seconds > 0
        assert summary.coverage > 0.5  # spans track most of the run
        assert summary.metrics["counters"]["fuzz.iterations"] == 8
        # The outcome carries the same summary the CLI renders.
        assert outcome.telemetry is not None
        assert "telemetry:" in outcome.telemetry.render()
        disk = json.loads((tdir / "summary.json").read_text())
        assert disk["metrics"]["counters"]["fuzz.iterations"] == 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_equal_the_merged_report(self, jobs, tmp_path):
        """The work and finding counters are derived once from the
        merged report, so they equal it at any jobs count."""
        from collections import Counter

        from repro.scenarios.store import detector_of

        spec = get_scenario("dcache-monitor-sweep").override(
            iterations=4, shards=2, detector="both"
        )
        outcome = run_scenario(spec, run_dir=tmp_path / "run", jobs=jobs,
                               minimize=False, telemetry=True)
        report = outcome.report
        counters = outcome.telemetry.metrics["counters"]
        for name, value in report.stats.counts().items():
            assert counters[f"online.{name}"] == value == \
                getattr(report.stats, name)
        assert counters["online.contract_runs"] > 0
        assert counters["fuzz.iterations"] == report.fuzz.iterations == 8
        assert counters["fuzz.new_coverage_items"] == \
            len(report.fuzz.discovery_log)
        detectors = Counter(detector_of(f.detail)
                            for f in report.fuzz.findings)
        assert set(detectors) == {"ift", "contract"}
        assert {name: value for name, value in counters.items()
                if name.startswith("findings.")} == \
            {f"findings.{name}": count for name, count in detectors.items()}

    def test_in_memory_telemetry_does_not_depend_on_jobs(self, monkeypatch):
        """Without a run directory, worker processes send their spans
        and metrics back with the shard result: the phase names, the
        counter names and every ``mutation.*`` value equal jobs=1's."""
        from collections import OrderedDict

        from repro.harness import parallel

        spec = get_scenario("dcache-monitor-sweep").override(
            iterations=4, shards=2)
        seen = {}
        for jobs in (1, 2):
            # Cold per-process statics, so both runs build the offline
            # artifacts (and record their spans) in the parent.
            monkeypatch.setattr(parallel, "_WORKER_STATICS", OrderedDict())
            parallel.shutdown_pool()
            summary = run_scenario(spec, jobs=jobs, minimize=False,
                                   telemetry=True).telemetry
            counters = summary.metrics["counters"]
            seen[jobs] = (
                {row["name"] for row in summary.phases},
                set(counters),
                {name: value for name, value in counters.items()
                 if name.startswith("mutation.")},
            )
        parallel.shutdown_pool()
        phases, counter_names, mutation = seen[1]
        assert {"shard/0", "shard/1", "online/simulate"} <= phases
        assert mutation
        assert seen[2] == seen[1]

    def test_persisted_report_is_byte_identical_on_vs_off(
        self, telemetry_run, tmp_path
    ):
        root, _ = telemetry_run
        spec = get_scenario("dcache-monitor-sweep").override(
            iterations=4, shards=2
        )
        off_root = tmp_path / "off"
        run_scenario(spec, run_dir=off_root, minimize=False)
        assert (root / "report.txt").read_bytes() == \
            (off_root / "report.txt").read_bytes()
        assert not (off_root / "telemetry").exists()

    def test_killed_worker_leaves_readable_partial_log(self, telemetry_run):
        root, _ = telemetry_run
        crashed = root.parent / "crashed"
        import shutil

        shutil.copytree(root, crashed)
        # Simulate shard 1's worker dying mid-write: its log ends in a
        # torn heartbeat and never reached the complete record.
        shard_log = crashed / "telemetry" / shard_file(1, ".jsonl")
        lines = shard_log.read_text().splitlines()
        cut = next(i for i, line in enumerate(lines[1:], start=1)
                   if json.loads(line)["type"] == "heartbeat") + 1
        shard_log.write_text(
            "\n".join(lines[:cut]) + '\n{"type": "heartbeat", "sh'
        )
        run = load_run_telemetry(crashed)
        shard = run.shards[1]
        assert not shard.complete
        assert shard.last_iteration is not None
        row = next(r for r in shard_rows(run) if r["shard"] == 1)
        assert not row["complete"]
        assert summarize(run).render()  # renders without crashing
        from repro.telemetry import render_stats

        text = render_stats(run)
        assert "lagging" in text or "incomplete" in text

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_run_telemetry(tmp_path)


class TestSummaryRendering:
    def test_summary_dict_and_report_section(self):
        metrics = MetricSet()
        metrics.count("fuzz.iterations", 60)
        summary = TelemetrySummary(
            wall_seconds=10.0, tracked_seconds=9.5,
            phases=[{"name": "online/simulate", "count": 60,
                     "seconds": 8.0, "self_seconds": 8.0}],
            shards=[], metrics=metrics.to_dict(),
        )
        data = summary.to_dict()
        assert data["span_coverage"] == pytest.approx(0.95)
        text = summary.render()
        assert "online/simulate" in text
        # The campaign report only gains the section when handed one.
        assert "telemetry:" in text
