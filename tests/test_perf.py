"""Tests for the bench suite: protocols, measurements, BENCH.json, the
gate and the ``bench`` command."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.perf import (
    SUITE,
    BenchError,
    BenchResult,
    check_regression,
    load_bench,
    record_bench,
    render_bench_list,
    run_bench,
    run_paired,
)
from repro.perf.bench import (
    MAX_OVERHEAD,
    MIN_SCALING,
    Protocol,
    gate_bounds,
    parse_protocol,
)

REPO = Path(__file__).resolve().parent.parent


def _bench_cli(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )


def _history(result, **overrides):
    return {result.key: [dict(result.to_dict(), source="test", **overrides)]}


@pytest.fixture(scope="module")
def quick_result():
    """One tiny fixed-iteration bench (module-scoped: offline phase)."""
    return run_bench("quickstart", iterations=4)


@pytest.fixture(scope="module")
def committed():
    return load_bench(REPO / "BENCH.json")


class TestRunBench:
    def test_measures_the_requested_iterations(self, quick_result):
        assert quick_result.scenario == "quickstart"
        assert quick_result.mode == "iterations"
        assert quick_result.iterations == 4
        assert quick_result.seconds > 0
        assert quick_result.iters_per_sec == pytest.approx(
            quick_result.iterations / quick_result.seconds
        )

    def test_reports_analysis_and_memory_telemetry(self, quick_result):
        assert quick_result.events_examined > 0
        assert quick_result.events_examined_per_iter == pytest.approx(
            quick_result.events_examined / quick_result.iterations
        )
        assert quick_result.cycles > 0
        assert quick_result.instructions > 0
        # ru_maxrss is a process-lifetime high-water mark, so it cannot
        # be attributed to one protocol of a one-process suite.
        assert "peak_rss_kb" not in quick_result.to_dict()

    def test_key_is_protocol_qualified(self, quick_result):
        assert quick_result.key == "quickstart@4it"
        budget = BenchResult(**{**quick_result.to_dict(),
                                "mode": "budget_s", "budget": 10.0})
        assert budget.key == "quickstart@10s"

    def test_budget_mode_respects_the_wall_clock(self):
        result = run_bench("quickstart", budget_s=1.5)
        assert result.mode == "budget_s"
        assert result.key == "quickstart@1.5s"
        assert result.iterations >= 1
        # One in-flight evaluation may overshoot; bound it loosely.
        assert result.seconds < 30

    def test_rejects_contradictory_budgets(self):
        with pytest.raises(BenchError):
            run_bench("quickstart", budget_s=1, iterations=1)
        with pytest.raises(BenchError):
            run_bench("quickstart", iterations=0)
        with pytest.raises(BenchError):
            run_bench("quickstart", budget_s=0)
        with pytest.raises(BenchError):
            run_bench("quickstart", iterations=1, variant="bogus")

    def test_offline_only_scenarios_need_a_wall_clock_budget(self):
        with pytest.raises(BenchError):
            run_bench("offline-analysis")


class TestArtifact:
    """Reading and appending a BENCH.json history file."""

    def test_emit_and_load_round_trip(self, quick_result, tmp_path):
        path = tmp_path / "BENCH.json"
        record_bench([quick_result], path=path)
        history = record_bench([quick_result], path=path)
        assert load_bench(path) == json.loads(json.dumps(history))
        entries = history["quickstart@4it"]
        assert len(entries) == 2                  # appended, not replaced
        assert entries[0]["source"].startswith("record ")
        assert entries[1] == dict(quick_result.to_dict(),
                                  source=entries[1]["source"])

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(BenchError):
            load_bench(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchError):
            load_bench(bad)
        shapeless = tmp_path / "shapeless.json"
        shapeless.write_text("{\"hello\": 1}")
        with pytest.raises(BenchError):
            load_bench(shapeless)


class TestRegressionGate:
    def test_passes_within_the_allowance(self, quick_result):
        history = _history(quick_result,
                           iters_per_sec=quick_result.iters_per_sec * 1.2)
        assert check_regression([quick_result], history) == []

    def test_fails_beyond_the_allowance(self, quick_result):
        history = _history(quick_result,
                           iters_per_sec=quick_result.iters_per_sec * 2.0)
        failures = check_regression([quick_result], history)
        assert len(failures) == 1
        assert "regression" in failures[0]
        events = _history(quick_result, events_examined_per_iter=(
            quick_result.events_examined_per_iter / 2))
        failures = check_regression([quick_result], events)
        assert len(failures) == 1 and "events-examined/iter" in failures[0]

    def test_skips_scenarios_absent_from_the_committed_artifact(
            self, quick_result):
        assert check_regression([quick_result], {}) == []

    def test_only_gates_matching_protocols(self, quick_result):
        budget = BenchResult(**{**quick_result.to_dict(),
                                "mode": "budget_s", "budget": 10.0})
        history = _history(quick_result,
                           iters_per_sec=quick_result.iters_per_sec * 10)
        # The recorded entry is fixed-iteration; the budget run's key
        # differs, so no comparison happens.
        assert check_regression([budget], history) == []

    def test_gates_against_the_strictest_recorded_figure(self, quick_result):
        fast = dict(quick_result.to_dict(), source="a",
                    iters_per_sec=quick_result.iters_per_sec * 2.0)
        slow = dict(quick_result.to_dict(), source="b",
                    iters_per_sec=quick_result.iters_per_sec * 0.5)
        for entries in ([fast, slow], [slow, fast]):
            failures = check_regression([quick_result],
                                        {quick_result.key: entries})
            assert len(failures) == 1 and "iters/sec" in failures[0]


class TestCommittedArtifact:
    """The BENCH.json committed in the repository."""

    #: The bounds the nine per-artifact CI steps enforced before the
    #: suite existed: key -> (iters/sec floor, events/iter ceiling).
    #: Each is 0.75x the highest / 1.25x the lowest figure any artifact
    #: holding the key recorded (quickstart@60it: pr5's 48.72 it/s and
    #: pr3's 13,626 events/iter).  Budget protocols have no ceiling.
    PER_STEP_BOUNDS = {
        "quickstart@60it": (0.75 * 48.7239, 1.25 * 13626.233),
        "quickstart@10s": (0.75 * 16.6931, None),
        "contract-ablation@40it": (0.75 * 17.4967, 1.25 * 17424.675),
        "spec-cpu-quickstart@120it": (0.75 * 191.821, 1.25 * 1055.625),
        "composed-clauses@40it": (0.75 * 15.3057, 1.25 * 6690.075),
        "quickstart-pruned@60it": (0.75 * 29.0244, 1.25 * 14355.967),
        "quickstart@60it+telemetry": (0.75 * 38.7734, 1.25 * 14355.967),
        "quickstart@60it+checkpoint": (0.75 * 37.1357, 1.25 * 14355.967),
        "quickstart@2x2s-scaling": (None, None),
    }

    def test_every_suite_protocol_has_an_entry(self, committed):
        assert set(self.PER_STEP_BOUNDS) == set(SUITE)
        assert [key for key in SUITE if not committed.get(key)] == []

    @pytest.mark.parametrize("key", sorted(PER_STEP_BOUNDS))
    def test_derived_bounds_equal_the_per_step_bounds(self, committed, key):
        migrated = [entry for entry in committed[key]
                    if entry["source"].startswith("pr")]
        expected = self.PER_STEP_BOUNDS[key]
        assert gate_bounds(key, migrated) == pytest.approx(expected,
                                                           rel=1e-5)
        # Entries recorded since can only tighten the gate.
        floor, ceiling = gate_bounds(key, committed[key])
        if expected[0] is not None:
            assert floor >= expected[0] * (1 - 1e-5)
        if expected[1] is not None:
            assert ceiling <= expected[1] * (1 + 1e-5)

    def test_exists_and_records_both_sides(self, committed):
        # The before (the first entry) and the best figure since.
        quickstart = committed["quickstart@60it"]
        assert quickstart[0]["source"] == "pr3"
        assert quickstart[0]["iters_per_sec"] == pytest.approx(26.34,
                                                               abs=0.01)
        best = max(quickstart, key=lambda entry: entry["iters_per_sec"])
        assert best["source"] == "pr5"

    def test_smoke_budget_entry_present_for_the_ci_gate(self, committed):
        entry = committed["quickstart@10s"][0]
        assert entry["source"] == "pr3" and entry["mode"] == "budget_s"

    def test_pr4_contract_entry_present_for_the_ci_gate(self, committed):
        entries = committed["contract-ablation@40it"]
        assert [entry["source"] for entry in entries[:2]] == ["pr4", "pr5"]
        for entry in entries:
            assert entry["mode"] == "iterations"
            assert entry["events_examined_per_iter"] > 0

    def test_pr6_rtl_entry_present_for_the_ci_gate(self, committed):
        entry = committed["spec-cpu-quickstart@120it"][0]
        assert entry["source"] == "pr6"
        assert entry["iterations"] == 120
        assert entry["events_examined_per_iter"] > 0

    def test_every_entry_keeps_its_source_artifact_name(self, committed):
        tags = {f"pr{n}" for n in range(3, 11)}
        migrated = {entry["source"] for entries in committed.values()
                    for entry in entries if entry["source"] in tags}
        assert migrated == tags
        for entries in committed.values():
            for entry in entries:
                assert entry["source"] in tags or \
                    entry["source"].startswith("record ")
                assert "peak_rss_kb" not in entry


@pytest.mark.slow
class TestBenchCli:
    def test_bench_command_emits_artifact(self, tmp_path):
        for _ in range(2):
            proc = _bench_cli("quickstart@3it", "--record", cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("quickstart@3it: ")
        history = load_bench(tmp_path / "BENCH.json")
        assert [entry["iterations"] for entry in
                history["quickstart@3it"]] == [3, 3]

    def test_check_leaves_bench_json_byte_identical(self):
        before = (REPO / "BENCH.json").read_bytes()
        proc = _bench_cli("quickstart@3it", "--check", cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        assert "bench gate passed" in proc.stdout
        assert (REPO / "BENCH.json").read_bytes() == before

    def test_check_fails_on_a_regression_and_without_history(self, tmp_path):
        proc = _bench_cli("quickstart@3it", "--check", cwd=tmp_path)
        assert proc.returncode == 2 and "BENCH.json" in proc.stderr
        record_bench([run_bench("quickstart", iterations=3)],
                     path=tmp_path / "BENCH.json")
        history = load_bench(tmp_path / "BENCH.json")
        history["quickstart@3it"][0]["iters_per_sec"] = 1e9
        (tmp_path / "BENCH.json").write_text(
            json.dumps({"history": history}))
        proc = _bench_cli("quickstart@3it", "--check", cwd=tmp_path)
        assert proc.returncode == 1
        assert "REGRESSION: quickstart@3it" in proc.stderr


class TestScenarioRequests:
    def test_plain_name_passes_through(self):
        assert parse_protocol("quickstart") == Protocol("quickstart")

    def test_pinned_budget_parses(self):
        assert parse_protocol("contract-ablation@40it") == \
            Protocol("contract-ablation", iterations=40)
        assert parse_protocol("quickstart@10s") == \
            Protocol("quickstart", budget_s=10.0)
        assert parse_protocol("quickstart@60it+checkpoint") == \
            Protocol("quickstart", iterations=60, variant="checkpoint")
        assert parse_protocol("quickstart@2x2s-scaling") == \
            Protocol("quickstart", budget_s=2.0, shards=2)

    @pytest.mark.parametrize("bad", [
        "quickstart@", "quickstart@x", "quickstart@0", "quickstart@-3",
        "quickstart@60", "quickstart@60it+bogus", "quickstart@1x2s-scaling",
        "quickstart@2x2s-scaling+telemetry",
    ])
    def test_malformed_requests_fail_loudly(self, bad):
        with pytest.raises(BenchError):
            parse_protocol(bad)


class TestMultiEntryBaseline:
    """A protocol's recorded history holds several entries, and the gate
    resolves each bound per protocol across all of them."""

    def test_pr5_baseline_resolves_per_protocol(self, committed):
        for key in ("quickstart@60it", "contract-ablation@40it"):
            pr5 = next(entry for entry in committed[key]
                       if entry["source"] == "pr5")
            floor, _ = gate_bounds(key, committed[key])
            assert floor >= 0.75 * pr5["iters_per_sec"]

    def test_pr6_baseline_resolves_per_protocol(self, committed):
        # The Verilog route gates on its recorded pr6 result (191.8), not
        # on the never-gated 200 it/s introduction estimate.
        floor, _ = gate_bounds("spec-cpu-quickstart@120it",
                               committed["spec-cpu-quickstart@120it"][:1])
        assert floor == pytest.approx(0.75 * 191.821, rel=1e-5)

    def test_legacy_baseline_keys_like_results(self, committed,
                                               quick_result):
        assert parse_protocol(quick_result.key).iterations == 4
        for key, entries in committed.items():
            parse_protocol(key)
            for entry in entries:
                if "mode" in entry:
                    assert BenchResult(**{
                        name: entry[name] for name in quick_result.to_dict()
                    }).key == key

    def test_render_handles_multi_entry_baselines(self, committed):
        listing = render_bench_list(committed)
        row = next(line for line in listing.splitlines()
                   if line.startswith("contract-ablation@40it "))
        assert "10.40 it/s (pr4)" in row and "13.12" in row


class TestScaling:
    @pytest.fixture(scope="class")
    def scaling(self):
        from repro.perf import run_scaling_bench

        return run_scaling_bench("quickstart", shards=2, budget_s=0.3,
                                 check_iterations=4)

    def test_scaling_measures_every_jobs_count(self, scaling):
        assert set(scaling.wall_seconds) == {"jobs=1", "jobs=2"}
        assert all(seconds > 0 for seconds in scaling.wall_seconds.values())
        assert scaling.speedup == pytest.approx(
            scaling.wall_seconds["jobs=1"] / scaling.wall_seconds["jobs=2"]
        )

    def test_scaling_merges_are_deterministic(self, scaling):
        assert scaling.deterministic is True

    def test_scaling_serialises_with_jobs_labels(self, scaling):
        payload = json.loads(json.dumps(scaling.to_dict()))
        assert set(payload["wall_seconds"]) == {"jobs=1", "jobs=2"}
        assert scaling.key == "quickstart@2x0.3s-scaling"

    def test_check_scaling_gates_speedup_and_determinism(self, scaling):
        assert replace(scaling, speedup=MIN_SCALING).failures([]) == []
        failures = replace(scaling, speedup=MIN_SCALING - 0.01).failures([])
        assert failures and "faster than jobs=1" in failures[0]
        broken = replace(scaling, speedup=MIN_SCALING, deterministic=False)
        failures = check_regression([broken], {})
        assert failures and "completion order" in failures[0]

    def test_emit_embeds_the_scaling_entry(self, scaling, tmp_path):
        history = record_bench([scaling], path=tmp_path / "BENCH.json")
        entry = history[scaling.key][0]
        assert entry["shards"] == 2
        assert entry["speedup"] == scaling.speedup
        assert gate_bounds(scaling.key, [entry]) == (None, None)


class TestBenchList:
    def test_listing_names_protocols_and_baselines(self, committed):
        listing = render_bench_list(committed)
        for key in SUITE:
            assert f"\n{key} " in listing
        assert "26.34 it/s (pr3)" in listing      # quickstart's first entry
        assert "191.82 it/s (pr6)" in listing
        assert "36.54" in listing                 # 0.75 x pr5's 48.72

    def test_listing_shows_first_and_latest_entries(self, quick_result):
        entries = [dict(quick_result.to_dict(), source=source,
                        iters_per_sec=speed)
                   for source, speed in (("a", 1.0), ("b", 2.0), ("c", 3.0))]
        row = next(line for line in render_bench_list(
            {quick_result.key: entries}).splitlines()
            if line.startswith(quick_result.key))
        assert "1.00 it/s (a)" in row and "3.00 it/s (c)" in row
        assert "(b)" not in row
        assert "2.25" in row                      # floor: 0.75 x 3.00

    def test_cli_list_flag(self):
        proc = _bench_cli("--list", cwd=REPO)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == render_bench_list(
            load_bench(REPO / "BENCH.json")) + "\n"


class TestTelemetryOverhead:
    def test_variant_qualifies_the_key(self):
        plain = run_bench("quickstart", iterations=3)
        instrumented = run_bench("quickstart", iterations=3,
                                 variant="telemetry")
        assert plain.key == "quickstart@3it"
        assert instrumented.key == "quickstart@3it+telemetry"
        # Instrumentation observes, it does not perturb: the workload
        # executed is identical.
        assert instrumented.events_examined == plain.events_examined
        assert instrumented.coverage == plain.coverage
        assert instrumented.findings == plain.findings

    def test_instrumented_bench_restores_the_null_recorder(self):
        from repro import telemetry

        run_bench("quickstart", iterations=3, variant="telemetry")
        assert not telemetry.enabled()

    def test_paired_measurement_and_gate(self):
        result = run_paired("quickstart", iterations=3, variant="telemetry",
                            repeats=2)
        assert result.off.key == "quickstart@3it"
        assert result.on.key == result.key == "quickstart@3it+telemetry"
        assert replace(result, overhead=MAX_OVERHEAD).failures([]) == []
        failures = replace(result, overhead=MAX_OVERHEAD + 0.01).failures([])
        assert failures and "overhead" in failures[0]

    def test_paired_mode_alternates_which_side_runs_first(
            self, monkeypatch, quick_result):
        import repro.perf.bench as bench

        calls = []
        speeds = iter([10.0, 9.0, 8.0, 10.0, 10.0, 10.0, 5.0, 4.0])

        def fake_run_bench(scenario, iterations, budget_s, variant=""):
            calls.append(variant)
            return replace(quick_result, variant=variant,
                           iters_per_sec=next(speeds))

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)
        result = run_paired("quickstart", iterations=4, variant="checkpoint",
                            repeats=4)
        assert calls == ["", "checkpoint", "checkpoint", "", "",
                         "checkpoint", "checkpoint", ""]
        # Per-pair off/on - 1: 10/9, 10/8, 10/10, 4/5 -> median of the
        # middle two.
        assert result.overhead == pytest.approx(
            ((10 / 9 - 1) + (10 / 10 - 1)) / 2)
        assert result.off.iters_per_sec == 10.0
        assert result.on.iters_per_sec == 10.0
        assert result.median_pairs == ((10.0, 10.0), (10.0, 9.0))

    def test_summary_and_failure_print_the_median_pair(self, quick_result):
        from repro.perf.bench import PairedResult

        result = PairedResult(
            off=replace(quick_result, iters_per_sec=39.63),
            on=replace(quick_result, variant="checkpoint",
                       iters_per_sec=38.74),
            overhead=0.0664, median_pairs=((38.10, 35.73),))
        summary = result.summary()
        assert "38.74 iters/sec vs 39.63 without (best runs)" in summary
        assert "overhead +6.64% (median pair 38.10 -> 35.73 iters/sec)" \
            in summary
        [failure] = result.failures([])
        assert "overhead 6.64% exceeds the 3% ceiling (median pair " \
            "38.10 -> 35.73 iters/sec; best runs 39.63 -> 38.74 " \
            "iters/sec)" in failure
        two = replace(result, median_pairs=((10.0, 10.0), (10.0, 9.0)))
        assert "median pairs 10.00 -> 10.00, 10.00 -> 9.00 iters/sec" \
            in two.summary()

    def test_record_keeps_the_paired_overhead(self, tmp_path):
        result = run_paired("quickstart", iterations=3, variant="telemetry",
                            repeats=1)
        history = record_bench([result], path=tmp_path / "BENCH.json")
        entry = history["quickstart@3it+telemetry"][0]
        assert entry["overhead"] == round(result.overhead, 4)
        assert entry["iters_per_sec"] == result.on.iters_per_sec


class TestCheckpointVariant:
    def test_checkpoint_variant_runs_the_same_workload(self, monkeypatch):
        from repro.scenarios import checkpoint

        directories = []
        save = checkpoint.save_checkpoint

        def recording_save(directory, shard, record):
            directories.append(Path(directory))
            save(directory, shard, record)

        monkeypatch.setattr(checkpoint, "save_checkpoint", recording_save)
        # The scenario's default cadence is 25: 26 iterations write one.
        plain = run_bench("quickstart", iterations=26)
        assert directories == []
        checkpointed = run_bench("quickstart", iterations=26,
                                 variant="checkpoint")
        assert checkpointed.key == "quickstart@26it+checkpoint"
        assert len(directories) == 1
        assert not directories[0].exists()        # scratch dir removed
        assert checkpointed.events_examined_per_iter == \
            plain.events_examined_per_iter
        assert checkpointed.coverage == plain.coverage
        assert checkpointed.findings == plain.findings
