"""Tests for the persistent campaign store: resume, replay, round-trips."""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenarios import (
    ScenarioSpec,
    StoreError,
    get_scenario,
    replay_findings,
    resume_scenario,
    run_scenario,
)
from repro.harness.parallel import merge_reports, shared_statics
from repro.scenarios.runner import ShardTask, _execute_shard
from repro.scenarios.store import (
    STATUS_COMPLETE,
    STATUS_INTERRUPTED,
    CampaignStore,
    program_from_dict,
    program_to_dict,
    shard_report_from_dict,
    shard_report_to_dict,
)
from repro.utils import rundir


@pytest.fixture(scope="module")
def sweep_spec():
    """A tiny 3-shard scenario with cache observables (findings likely)."""
    return get_scenario("dcache-monitor-sweep").override(
        iterations=4, shards=3
    )


@pytest.fixture(scope="module")
def full_run(sweep_spec, tmp_path_factory):
    """One uninterrupted persisted run of the sweep scenario."""
    root = tmp_path_factory.mktemp("store") / "full"
    outcome = run_scenario(sweep_spec, run_dir=root, minimize=False)
    return root, outcome


class TestProgramRoundTrip:
    def test_program_with_overlay(self):
        from repro.fuzz.input import TestProgram

        program = TestProgram(
            words=[0x13, 0x6F], reg_init=[0] * 31 + [7], data_seed=9,
            max_cycles=500, label="seed:x",
            memory_overlay={0x8100_0000: 0xAB},
        )
        clone = program_from_dict(program_to_dict(program))
        assert clone.words == program.words
        assert clone.reg_init == program.reg_init
        assert clone.memory_overlay == program.memory_overlay
        assert clone.fingerprint() == program.fingerprint()


class TestShardReportRoundTrip:
    def test_report_survives_json(self, sweep_spec):
        report, _corpus = _execute_shard(ShardTask(sweep_spec, 0))
        # Shard reports travel without offline artifacts; the
        # dispatching parent attaches its own copy, as here.
        _core, offline = shared_statics(sweep_spec.build_config())
        report = replace(report, offline=offline)
        payload = json.loads(json.dumps(
            shard_report_to_dict(0, sweep_spec.seed, report)
        ))
        loaded = shard_report_from_dict(payload, offline)
        assert loaded.render(include_timings=False) == \
            report.render(include_timings=False)
        assert loaded.fuzz.discovery_log == report.fuzz.discovery_log
        assert loaded.fuzz.coverage_curve == report.fuzz.coverage_curve
        assert [vars(w) for w in loaded.mst.rows] == \
            [vars(w) for w in report.mst.rows]
        assert loaded.reports == report.reports


class TestStoreLayout:
    def test_artifacts_exist(self, full_run):
        root, outcome = full_run
        assert (root / "scenario.json").exists()
        assert (root / "report.txt").exists()
        store = CampaignStore.open(root)
        assert store.status == STATUS_COMPLETE
        assert store.completed_shards() == [0, 1, 2]
        assert store.spec == outcome.spec
        assert len(store.coverage_curves()) == 3
        assert store.corpus_entries()  # something was retained

    def test_create_refuses_to_clobber(self, full_run):
        root, _ = full_run
        with pytest.raises(StoreError, match="already holds a campaign"):
            CampaignStore.create(root, ScenarioSpec(name="other"))

    def test_open_requires_a_store(self, tmp_path):
        with pytest.raises(StoreError, match="not a campaign directory"):
            CampaignStore.open(tmp_path)

    def test_report_text_matches_render(self, full_run):
        root, outcome = full_run
        assert CampaignStore.open(root).report_text() == \
            outcome.report.render(include_timings=False) + "\n"


class TestResumeDeterminism:
    def test_interrupted_then_resumed_is_byte_identical(
        self, sweep_spec, full_run, tmp_path
    ):
        full_root, _ = full_run
        interrupted_root = tmp_path / "interrupted"

        def interrupt_after_first(shard, _report):
            if shard == 0:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_scenario(sweep_spec, run_dir=interrupted_root,
                         minimize=False, on_shard=interrupt_after_first)
        store = CampaignStore.open(interrupted_root)
        assert store.status == STATUS_INTERRUPTED
        assert store.completed_shards() == [0]

        outcome = resume_scenario(interrupted_root, minimize=False)
        assert outcome.resumed_shards == [0]
        assert outcome.executed_shards == [1, 2]
        assert (interrupted_root / "report.txt").read_bytes() == \
            (full_root / "report.txt").read_bytes()

    def test_resume_prunes_partial_jsonl(self, sweep_spec, tmp_path):
        root = tmp_path / "crashed"

        def interrupt_after_first(shard, _report):
            if shard == 0:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_scenario(sweep_spec, run_dir=root, minimize=False,
                         on_shard=interrupt_after_first)
        # Simulate a crash that appended shard-1 JSONL lines without the
        # shard file: those records must not survive the resume.
        store = CampaignStore.open(root)
        with (root / rundir.COVERAGE_FILE).open("a") as stream:
            stream.write(json.dumps(
                {"shard": 1, "seed": 0, "curve": [999]}
            ) + "\n")
        resume_scenario(root, minimize=False)
        curves = CampaignStore.open(root).coverage_curves()
        assert sorted(c["shard"] for c in curves) == [0, 1, 2]
        assert [999] not in [c["curve"] for c in curves]

    def test_torn_trailing_jsonl_line_is_crash_debris(
        self, sweep_spec, tmp_path
    ):
        root = tmp_path / "torn"

        def interrupt_after_first(shard, _report):
            if shard == 0:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_scenario(sweep_spec, run_dir=root, minimize=False,
                         on_shard=interrupt_after_first)
        # A kill -9 mid-append leaves a truncated final line; resume must
        # treat it as debris of the never-completed shard, not crash.
        with (root / rundir.FINDINGS_FILE).open("a") as stream:
            stream.write('{"shard": 1, "kind": "trunc')
        resume_scenario(root, minimize=False)
        assert CampaignStore.open(root).status == STATUS_COMPLETE

    def test_torn_fragment_does_not_corrupt_resumed_appends(
        self, sweep_spec, tmp_path
    ):
        root = tmp_path / "torn2"

        def interrupt_after_first(shard, _report):
            if shard == 0:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_scenario(sweep_spec, run_dir=root, minimize=False,
                         on_shard=interrupt_after_first)
        # Torn final line *without* a trailing newline: resume must not
        # let the re-run shard's first append concatenate onto it.
        with (root / rundir.FINDINGS_FILE).open("a") as stream:
            stream.write('{"shard": 1, "kind": "trunc')
        resume_scenario(root, minimize=False)
        # Every line must be intact JSON — a fragment left in place would
        # have merged with the resumed shard's first appended record.
        lines = (root / rundir.FINDINGS_FILE).read_text().splitlines()
        records = [json.loads(line) for line in lines if line.strip()]
        assert all("kind" in r and "program" in r for r in records)
        assert CampaignStore.open(root).findings() == records

    def test_missing_meta_is_a_store_error(self, tmp_path):
        root = tmp_path / "half-created"
        run_scenario(ScenarioSpec(name="half", vulns=(), iterations=2),
                     run_dir=root, minimize=False)
        (root / rundir.META_FILE).unlink()
        with pytest.raises(StoreError, match="interrupted during creation"):
            CampaignStore.open(root)

    def test_mid_file_corruption_raises_store_error(self, sweep_spec,
                                                    tmp_path):
        root = tmp_path / "corrupt"
        run_scenario(sweep_spec, run_dir=root, minimize=False)
        path = root / rundir.COVERAGE_FILE
        lines = path.read_text().splitlines()
        lines[0] = "not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StoreError, match="not valid JSON"):
            CampaignStore.open(root).coverage_curves()

    def test_resume_of_complete_run_executes_nothing(self, full_run):
        root, _ = full_run
        before = (root / "report.txt").read_bytes()
        outcome = resume_scenario(root, minimize=False)
        assert outcome.executed_shards == []
        assert (root / "report.txt").read_bytes() == before


class TestReplay:
    def test_replay_reconfirms_findings(self, tmp_path):
        spec = get_scenario("spectre-v1").override(iterations=4)
        root = tmp_path / "sp"
        outcome = run_scenario(spec, run_dir=root)  # minimize on
        assert outcome.report.fuzz.findings, "scenario should find spectre"
        results = replay_findings(root)
        assert results
        assert all(result.confirmed for result in results)
        assert any(result.used_minimized for result in results)

    def test_minimized_program_no_longer_than_original(self, tmp_path):
        spec = get_scenario("spectre-v1").override(iterations=4)
        root = tmp_path / "sp2"
        run_scenario(spec, run_dir=root)
        store = CampaignStore.open(root)
        for record in store.findings():
            if record["minimized"] is None:
                continue
            assert len(record["minimized"]["words"]) <= \
                len(record["program"]["words"])

    def test_replay_empty_store(self, tmp_path):
        spec = ScenarioSpec(name="quiet", vulns=(), iterations=2)
        root = tmp_path / "quiet"
        run_scenario(spec, run_dir=root, minimize=False)
        assert replay_findings(root) == []


#: A ``spec-cpu-quickstart`` run directory (2 shards x 3 iterations,
#: minimized) written by the store before the coverage curve, the
#: executed-program count and the report list were derived, plus a
#: version-1 checkpoint of its shard 1 after one iteration.
PRIOR_FORMAT = Path(__file__).parent / "data" / "spec-cpu-v1"


def _sorted_lines(path: Path) -> list[str]:
    return sorted(path.read_text().splitlines())


class TestPriorFormatRunDirectory:
    @pytest.fixture
    def prior_run(self, tmp_path):
        root = tmp_path / "run"
        shutil.copytree(PRIOR_FORMAT / "run", root)
        return root

    def test_merge_of_stored_shards_renders_the_stored_report(
            self, prior_run):
        store = CampaignStore.open(prior_run)
        _core, offline = shared_statics(store.spec.build_config())
        shards = [store.load_shard_report(shard, offline)
                  for shard in store.completed_shards()]
        merged = merge_reports(shards)
        assert merged.render(include_timings=False) + "\n" == \
            (PRIOR_FORMAT / "run" / "report.txt").read_text()

    def test_resume_ignores_v1_checkpoint_and_matches_stored_run(
            self, prior_run):
        store = CampaignStore.open(prior_run)
        (prior_run / rundir.SHARD_DIR / rundir.shard_file(1)).unlink()
        shutil.copy(PRIOR_FORMAT / "checkpoint-v1-shard-0001.json",
                    store.checkpoint_dir(create=True) / rundir.shard_file(1))
        store.set_status(STATUS_INTERRUPTED)

        outcome = resume_scenario(prior_run)
        assert (outcome.resumed_shards, outcome.executed_shards) == ([0], [1])
        for name in (rundir.FINDINGS_FILE, rundir.CORPUS_FILE,
                     rundir.COVERAGE_FILE):
            assert _sorted_lines(prior_run / name) == \
                _sorted_lines(PRIOR_FORMAT / "run" / name), name
        assert (prior_run / "report.txt").read_bytes() == \
            (PRIOR_FORMAT / "run" / "report.txt").read_bytes()

    def test_replay_confirms_every_prior_finding(self, prior_run):
        results = replay_findings(prior_run)
        assert len(results) == len(CampaignStore.open(prior_run).findings())
        assert results and all(result.confirmed for result in results)


class TestOfflineOnly:
    def test_offline_scenario_persists_summary(self, tmp_path):
        root = tmp_path / "offline"
        outcome = run_scenario(get_scenario("offline-analysis"),
                               run_dir=root)
        assert outcome.report is None
        text = (root / "report.txt").read_text()
        assert "PDLC" in text and "s)" not in text.split(";")[0]
        assert CampaignStore.open(root).status == STATUS_COMPLETE
