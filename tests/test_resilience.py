"""Campaign resilience: retries, watchdogs, quarantine, checkpoints.

Pins the PR-10 robustness contracts end to end:

* the resilient dispatcher retries failed/hung/killed units with the
  same seed and quarantines them only after the budget is exhausted
  (``on_exhaust="degrade"``) or raises the legacy all-stop
  (``on_exhaust="fail"``);
* a poison program that blows up the step loop is *contained* as a
  ``crash`` finding — the campaign keeps iterating, and minimize/
  store/replay treat the crash like any other finding;
* a shard resumed from its mid-run checkpoint (or retried after a
  worker SIGKILL) reproduces the uninterrupted campaign byte for byte;
* degraded campaigns surface prominently: banner in ``report.txt``,
  ``quarantine.jsonl`` records, exit code 3, and a fault-free
  ``resume`` converges on the clean report;
* telemetry failures never abort the shard they observe, and corrupt
  stores fail with :class:`StoreError` naming the offending file/key.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    RetryPolicy,
    ShardExecutionError,
    UnitFailure,
    imap_shard_units,
    shutdown_pool,
)
from repro.utils import rundir


# -- module-level workers (fleet workers must be picklable) -----------------

def _echo_worker(item):
    return ("ok", item)


def _raise_worker(item):
    raise ValueError(f"injected unit failure on {item}")


def _flaky_raise_worker(marker):
    """Fails the first attempt (marker file absent), succeeds after."""
    path = Path(marker)
    if not path.exists():
        path.write_text("x")
        raise ValueError("first attempt fails")
    return "recovered"


def _flaky_kill_worker(marker):
    """SIGKILLs its own process on the first attempt, succeeds after."""
    path = Path(marker)
    if not path.exists():
        path.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    return "recovered"


def _always_kill_worker(item):
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_worker(item):
    if item == "hang":
        time.sleep(60)
    return ("ok", item)


@pytest.fixture(autouse=True)
def _clean_executors():
    yield
    shutdown_pool()


# -- retry policy + failure markers ----------------------------------------

class TestRetryPolicy:
    def test_rejects_unknown_on_exhaust(self):
        with pytest.raises(ValueError, match="on_exhaust"):
            RetryPolicy(on_exhaust="explode")

    def test_failure_summary_is_last_traceback_line(self):
        failure = UnitFailure(
            shard=3, attempts=2, kind="exception",
            error="Traceback (most recent call last):\n"
                  "  File \"x.py\", line 1, in f\n"
                  "ValueError: the actual reason\n")
        assert failure.summary() == "ValueError: the actual reason"

    def test_failure_summary_passes_one_liners_through(self):
        failure = UnitFailure(shard=0, attempts=1, kind="timeout",
                              error="no progress for 5.0s")
        assert failure.summary() == "no progress for 5.0s"


class TestInlineResilient:
    """jobs<=1 without isolation: in-process retries."""

    def test_retry_succeeds_after_transient_failure(self, tmp_path):
        policy = RetryPolicy(max_retries=2, on_exhaust="fail")
        results = list(imap_shard_units(
            _flaky_raise_worker, [str(tmp_path / "marker")], jobs=1,
            policy=policy))
        assert results == [(0, str(tmp_path / "marker"), "recovered")]

    def test_degrade_yields_unit_failure_and_continues(self, tmp_path):
        policy = RetryPolicy(max_retries=1, on_exhaust="degrade")
        specs = [str(tmp_path / "ok-marker"), "always-bad"]
        Path(specs[0]).write_text("x")  # first unit succeeds immediately
        seen = {unit_id: result for unit_id, _spec, result
                in imap_shard_units(_sabotagable_worker, specs, jobs=1,
                                    policy=policy)}
        assert seen[0] == "recovered"
        failure = seen[1]
        assert isinstance(failure, UnitFailure)
        assert failure.attempts == 2  # 1 try + 1 retry
        assert failure.kind == "exception"
        assert "injected unit failure" in failure.error

    def test_fail_mode_raises_shard_execution_error(self):
        policy = RetryPolicy(max_retries=0, on_exhaust="fail")
        with pytest.raises(ShardExecutionError) as excinfo:
            list(imap_shard_units(_raise_worker, ["only"], jobs=1,
                                  policy=policy))
        assert excinfo.value.shard == 0  # plain items fall back to unit id
        assert "injected unit failure" in excinfo.value.worker_traceback


def _sabotagable_worker(item):
    if item == "always-bad":
        raise ValueError(f"injected unit failure on {item}")
    return _flaky_raise_worker(item)


class TestFleet:
    """Isolated workers: SIGKILL survival, watchdog, quarantine."""

    def test_killed_worker_is_replaced_and_unit_retried(self, tmp_path):
        """kill -9 mid-campaign: the dispatcher must respawn just that
        worker and re-run its unit to the byte-identical result."""
        policy = RetryPolicy(max_retries=2, on_exhaust="fail", isolate=True)
        results = list(imap_shard_units(
            _flaky_kill_worker, [str(tmp_path / "marker")], jobs=1,
            policy=policy))
        assert results == [(0, str(tmp_path / "marker"), "recovered")]

    def test_persistent_kills_exhaust_into_unit_failure(self):
        policy = RetryPolicy(max_retries=1, on_exhaust="degrade",
                             isolate=True)
        [(unit_id, _spec, failure)] = list(imap_shard_units(
            _always_kill_worker, ["doomed"], jobs=1, policy=policy))
        assert isinstance(failure, UnitFailure)
        assert failure.attempts == 2
        assert failure.kind == "worker-died"

    def test_fail_mode_tears_the_fleet_down(self):
        policy = RetryPolicy(max_retries=0, on_exhaust="fail", isolate=True)
        with pytest.raises(ShardExecutionError):
            list(imap_shard_units(_always_kill_worker, ["doomed"], jobs=1,
                                  policy=policy))
        assert parallel._FLEET is None

    def test_watchdog_times_out_hung_unit_others_complete(self):
        policy = RetryPolicy(max_retries=0, unit_timeout_s=0.5,
                             on_exhaust="degrade", isolate=True)
        started = time.monotonic()
        seen = {spec: result for _unit_id, spec, result
                in imap_shard_units(_hang_worker, ["hang", "fine"], jobs=2,
                                    policy=policy)}
        assert time.monotonic() - started < 30.0  # not the 60s sleep
        assert seen["fine"] == ("ok", "fine")
        failure = seen["hang"]
        assert isinstance(failure, UnitFailure)
        assert failure.kind == "timeout"
        assert "watchdog" in failure.error

    def test_attempt_stamping_duck_types(self):
        from repro.scenarios.runner import ShardTask
        from repro.scenarios.spec import ScenarioSpec

        assert parallel._stamp_attempt("plain", 2) == "plain"
        task = ShardTask(ScenarioSpec(name="x", iterations=1), shard=4)
        assert parallel._stamp_attempt(task, 1) is task
        assert parallel._stamp_attempt(task, 3).attempt == 3


# -- crash-as-finding containment ------------------------------------------

def _quick_spec(**overrides):
    from repro.scenarios import resolve_scenario

    defaults = {"shards": 1, "iterations": 6}
    defaults.update(overrides)
    return resolve_scenario("quickstart").override(**defaults)


class TestCrashContainment:
    def test_step_exception_is_contained_as_crash_finding(self, monkeypatch):
        from repro import faultinject
        from repro.fuzz.crash import CRASH_KIND

        monkeypatch.setenv(
            faultinject.ENV_VAR,
            '{"kind": "step-exception", "shard": 0, "iteration": 1}')
        faultinject.set_context(0)
        campaign = _quick_spec(iterations=4).build_specure().build_campaign()
        report = campaign.run(4)
        assert report.fuzz.iterations == 4  # the loop kept going
        crashes = [f for f in report.fuzz.findings if f.kind == CRASH_KIND]
        assert len(crashes) == 1
        assert crashes[0].iteration == 1
        assert crashes[0].detail.exception == "ChaosError"
        assert crashes[0].detail.phase == "simulate"
        assert crashes[0].program.words  # poison program bytes kept
        assert "Contained crashes" in report.render(include_timings=False)

    def test_coverage_phase_crash_leaves_no_orphan_report(self,
                                                          monkeypatch):
        """A crash after detection ran must not leave that iteration's
        reports behind: every report count equals its finding count."""
        from collections import Counter

        from repro.coverage.lp import LpCoverage
        from repro.fuzz.crash import CRASH_KIND

        real_items = LpCoverage.items
        calls = []

        def items_raising_once(self, result):
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("injected coverage-phase failure")
            return real_items(self, result)

        monkeypatch.setattr(LpCoverage, "items", items_raising_once)
        report = _quick_spec(iterations=3).build_specure() \
            .build_campaign().run(3)
        crash = report.fuzz.first_finding(CRASH_KIND)
        assert (crash.iteration, crash.detail.phase) == (0, "coverage")
        reports = {row["kind"]: row["reports"]
                   for row in report.to_dict()["detections"]}
        assert reports == Counter(f.kind for f in report.fuzz.findings)
        # The crashed iteration's windows reached the MST in the detect
        # phase; the stats count them there too.
        assert report.stats.programs == 3
        assert report.stats.mispredicted_windows == len(report.mst.rows)

    def test_poison_program_minimizes_stores_and_replays(self, tmp_path,
                                                         monkeypatch):
        """A program that genuinely crashes the simulator becomes a
        stored finding that replay re-confirms like any leak."""
        from repro.boom.core import BoomCore
        from repro.fuzz.crash import CRASH_KIND
        from repro.scenarios.runner import replay_findings, run_scenario

        spec = _quick_spec(iterations=5)

        # Learn which program iteration 2 will evaluate (determinism:
        # the same seed replays the same schedule), then poison it.
        seen = []
        real_run = BoomCore.run

        def recording_run(self, program):
            seen.append(program.fingerprint())
            return real_run(self, program)

        monkeypatch.setattr(BoomCore, "run", recording_run)
        spec.build_specure().build_campaign().run(3)
        poison = seen[2]

        def poisoned_run(self, program):
            if program.fingerprint() == poison:
                raise ValueError("simulator choked on poison program")
            return real_run(self, program)

        monkeypatch.setattr(BoomCore, "run", poisoned_run)
        run_dir = tmp_path / "poisoned"
        outcome = run_scenario(spec, run_dir=run_dir, jobs=None)
        assert not outcome.degraded  # contained, never quarantined
        crashes = [f for f in outcome.report.fuzz.findings
                   if f.kind == CRASH_KIND]
        assert len(crashes) == 1
        assert "poison program" in crashes[0].detail.message
        assert "Contained crashes" in (run_dir / "report.txt").read_text()

        results = replay_findings(run_dir)
        crash_replays = [r for r in results if r.kind == CRASH_KIND]
        assert crash_replays and all(r.confirmed for r in crash_replays)


# -- mid-shard checkpoints -------------------------------------------------

class TestCheckpoints:
    def test_save_load_roundtrip_and_torn_file_degrade(self, tmp_path):
        from repro.scenarios.checkpoint import load_checkpoint, save_checkpoint

        record = {"type": "checkpoint", "version": 1, "shard": 2,
                  "seed": 7, "next_iteration": 3, "state": {}}
        save_checkpoint(tmp_path, 2, record)
        assert load_checkpoint(tmp_path, 2) == record
        assert load_checkpoint(tmp_path, 5) is None  # missing
        (tmp_path / "shard-0002.json").write_text('{"type": "checkp')
        assert load_checkpoint(tmp_path, 2) is None  # torn

    def test_checkpoint_resume_is_byte_identical(self):
        """The fidelity contract: restoring the iteration-6 checkpoint
        and finishing must render exactly the uninterrupted report."""
        from repro.scenarios.checkpoint import (
            checkpoint_record,
            restore_campaign,
        )

        spec = _quick_spec(iterations=8)
        straight = spec.build_specure().build_campaign().run(8)
        reference = straight.render(include_timings=False)

        records = []
        interrupted = spec.build_specure().build_campaign()
        interrupted.run(
            8, checkpoint_every=3,
            on_checkpoint=lambda next_iteration, result: records.append(
                checkpoint_record(0, spec.seed, next_iteration,
                                  interrupted, result)))
        assert [r["next_iteration"] for r in records] == [3, 6]

        resumed = spec.build_specure().build_campaign()
        start, partial = restore_campaign(records[-1], resumed)
        assert start == 6
        report = resumed.run(8, start_iteration=start, resume_result=partial)
        assert report.render(include_timings=False) == reference

    def test_checkpoint_is_a_pure_function_of_the_iteration(self):
        """Two runs of the same campaign write byte-identical records:
        no wall-clock timing leaks into a checkpoint."""
        from repro.scenarios.checkpoint import checkpoint_record

        spec = _quick_spec(iterations=51)
        blobs = []
        for _ in range(2):
            campaign = spec.build_specure().build_campaign()
            campaign.run(51, checkpoint_every=50,
                         on_checkpoint=lambda next_iteration, result:
                         blobs.append(json.dumps(checkpoint_record(
                             0, spec.seed, next_iteration, campaign,
                             result))))
        assert len(blobs) == 2
        assert blobs[0] == blobs[1]

    def test_version_mismatch_restarts_from_scratch(self):
        from repro.scenarios.checkpoint import restore_campaign

        campaign = _quick_spec(iterations=2).build_specure().build_campaign()
        start, partial = restore_campaign(
            {"version": 999, "next_iteration": 5, "state": {}}, campaign)
        assert (start, partial) == (0, None)

    def test_v1_record_restarts_from_scratch(self):
        """A checkpoint of the previous layout (it also stored the
        coverage set, the report list and the curves) is ignored: the
        shard restarts from 0 and renders the straight run's report."""
        from repro.harness.parallel import shard_seed
        from repro.scenarios import resolve_scenario
        from repro.scenarios.checkpoint import restore_campaign

        path = (Path(__file__).parent / "data" / "spec-cpu-v1"
                / "checkpoint-v1-shard-0001.json")
        record = json.loads(path.read_text())
        assert (record["version"], record["next_iteration"]) == (1, 1)
        base = resolve_scenario("spec-cpu-quickstart")
        spec = base.override(seed=shard_seed(base.seed, 1), iterations=3)
        straight = spec.build_specure().build_campaign().run(3)

        campaign = spec.build_specure().build_campaign()
        start, partial = restore_campaign(record, campaign)
        assert (start, partial) == (0, None)
        report = campaign.run(3, start_iteration=start,
                              resume_result=partial)
        assert report.render(include_timings=False) == \
            straight.render(include_timings=False)

    def test_crashed_shard_resumes_from_checkpoint(self, tmp_path,
                                                   monkeypatch):
        """A worker SIGKILLed *after* a checkpoint was persisted must
        retry from that checkpoint and still converge byte-for-byte."""
        from repro import faultinject
        from repro.scenarios.runner import run_scenario
        from repro.scenarios.store import CampaignStore

        spec = _quick_spec(iterations=8, checkpoint_every=2,
                           max_shard_retries=2)
        clean_dir = tmp_path / "clean"
        run_scenario(spec, run_dir=clean_dir, jobs=1, minimize=False)

        monkeypatch.setenv(faultinject.ENV_VAR, json.dumps({
            "kind": "worker-crash", "shard": 0, "iteration": 5,
            "trips": 1, "state": str(tmp_path / "chaos-state")}))
        chaos_dir = tmp_path / "chaos"
        outcome = run_scenario(spec, run_dir=chaos_dir, jobs=1,
                               minimize=False)
        assert not outcome.degraded
        assert (chaos_dir / "report.txt").read_text() == \
            (clean_dir / "report.txt").read_text()
        # Success clears the shard's checkpoint.
        store = CampaignStore.open(chaos_dir)
        assert not (store.checkpoint_dir() / rundir.shard_file(0)).exists()


# -- retry-with-quarantine and degraded campaigns --------------------------

class TestQuarantine:
    def test_exhausted_shard_quarantines_and_campaign_degrades(
            self, tmp_path, monkeypatch):
        from repro.scenarios import runner as runner_module
        from repro.scenarios.runner import resume_scenario, run_scenario
        from repro.scenarios.store import STATUS_DEGRADED, CampaignStore

        spec = _quick_spec(shards=3, iterations=4, max_shard_retries=1)
        real_execute = runner_module._execute_shard
        attempts = []

        def sabotaged(task):
            if task.shard == 1:
                attempts.append(task.attempt)
                raise RuntimeError("injected persistent shard failure")
            return real_execute(task)

        monkeypatch.setattr(runner_module, "_execute_shard", sabotaged)
        run_dir = tmp_path / "campaign"
        outcome = run_scenario(spec, run_dir=run_dir, jobs=None,
                               minimize=False)
        assert outcome.degraded
        assert [f.shard for f in outcome.quarantined] == [1]
        assert outcome.quarantined[0].attempts == 2
        assert attempts == [1, 2]  # the retry was stamped

        store = CampaignStore.open(run_dir)
        assert store.status == STATUS_DEGRADED
        [record] = store.quarantined()
        assert record["shard"] == 1
        assert record["attempts"] == 2
        assert "injected persistent shard failure" in record["error"]
        report_text = (run_dir / "report.txt").read_text()
        assert report_text.startswith("!! DEGRADED CAMPAIGN !!")
        assert "Quarantined shards" in report_text

        # A fault-free resume re-runs exactly the quarantined shard
        # with a fresh retry budget and converges on the clean report.
        monkeypatch.setattr(runner_module, "_execute_shard", real_execute)
        resumed = resume_scenario(run_dir, jobs=None, minimize=False)
        assert not resumed.degraded
        assert resumed.executed_shards == [1]
        assert sorted(resumed.resumed_shards) == [0, 2]
        clean_dir = tmp_path / "reference"
        run_scenario(spec, run_dir=clean_dir, jobs=None, minimize=False)
        assert (run_dir / "report.txt").read_text() == \
            (clean_dir / "report.txt").read_text()

    def test_all_shards_quarantined_still_completes(self, tmp_path,
                                                    monkeypatch):
        from repro.scenarios import runner as runner_module
        from repro.scenarios.runner import run_scenario

        def doomed(task):
            raise RuntimeError("nothing works today")

        monkeypatch.setattr(runner_module, "_execute_shard", doomed)
        spec = _quick_spec(shards=2, iterations=3, max_shard_retries=0)
        run_dir = tmp_path / "campaign"
        outcome = run_scenario(spec, run_dir=run_dir, jobs=None,
                               minimize=False)
        assert outcome.degraded and outcome.report is None
        assert "every shard was quarantined" in \
            (run_dir / "report.txt").read_text()

    def test_fail_policy_keeps_the_all_stop_contract(self, tmp_path,
                                                     monkeypatch):
        from repro.scenarios import runner as runner_module
        from repro.scenarios.runner import run_scenario
        from repro.scenarios.store import STATUS_INTERRUPTED, CampaignStore

        real_execute = runner_module._execute_shard

        def doomed(task):
            if task.shard == 1:
                raise RuntimeError("injected shard death")
            return real_execute(task)

        monkeypatch.setattr(runner_module, "_execute_shard", doomed)
        spec = _quick_spec(shards=2, iterations=3, max_shard_retries=0,
                           on_shard_failure="fail")
        run_dir = tmp_path / "campaign"
        with pytest.raises(ShardExecutionError) as excinfo:
            run_scenario(spec, run_dir=run_dir, jobs=None, minimize=False)
        assert excinfo.value.shard == 1
        assert CampaignStore.open(run_dir).status == STATUS_INTERRUPTED


class TestCliExitCodes:
    """0 clean / 3 degraded / 1 failed, straight through ``main``."""

    def _spec_file(self, tmp_path, **overrides):
        spec = _quick_spec(iterations=4, shards=2, max_shard_retries=1,
                           **overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        return str(path)

    def test_degraded_campaign_exits_3_then_resume_exits_0(
            self, tmp_path, monkeypatch, capsys):
        from repro import faultinject
        from repro.__main__ import main

        monkeypatch.setenv(
            faultinject.ENV_VAR,
            '{"kind": "worker-crash", "shard": 1, "iteration": 1}')
        run_dir = str(tmp_path / "run")
        code = main(["run", self._spec_file(tmp_path), "--out", run_dir,
                     "--no-minimize"])
        assert code == 3
        out = capsys.readouterr().out
        assert "!! DEGRADED CAMPAIGN !!" in out

        monkeypatch.delenv(faultinject.ENV_VAR)
        faultinject._CACHE = None
        assert main(["resume", run_dir, "--no-minimize"]) == 0

    def test_fail_policy_exits_1(self, tmp_path, monkeypatch, capsys):
        from repro import faultinject
        from repro.__main__ import main

        monkeypatch.setenv(
            faultinject.ENV_VAR,
            '{"kind": "worker-crash", "shard": 1, "iteration": 1}')
        code = main(["run",
                     self._spec_file(tmp_path, on_shard_failure="fail"),
                     "--out", str(tmp_path / "run"), "--no-minimize"])
        assert code == 1
        assert "resume" in capsys.readouterr().err


# -- satellite regressions -------------------------------------------------

class TestHeartbeatDegradesOnWriteFailure:
    def test_closed_handle_drops_beats_without_aborting(self, tmp_path):
        from repro.telemetry.heartbeat import HeartbeatWriter

        writer = HeartbeatWriter(tmp_path, shard=0, interval=1)
        writer._handle.close()  # e.g. disk full / external teardown
        writer.write_meta(scenario="x")
        writer.on_iteration(0, 0, 10)
        writer.finalize(findings=0)
        assert writer.dropped >= 3  # meta + beat(s) + complete marker

    def test_clean_writer_drops_nothing(self, tmp_path):
        from repro.telemetry.heartbeat import HeartbeatWriter

        writer = HeartbeatWriter(tmp_path, shard=0, interval=1)
        writer.write_meta(scenario="x")
        writer.on_iteration(0, 0, 10)
        writer.finalize(findings=0)
        assert writer.dropped == 0


def _drop_fuzz(text: str) -> str:
    record = json.loads(text)
    del record["fuzz"]
    return json.dumps(record)


_SHARD_0 = f"{rundir.SHARD_DIR}/{rundir.shard_file(0)}"


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    from repro.scenarios.runner import run_scenario

    run_dir = tmp_path_factory.mktemp("validation") / "run"
    run_scenario(_quick_spec(iterations=2), run_dir=run_dir,
                 minimize=False)
    return run_dir


class TestStoreValidation:
    @pytest.mark.parametrize("command, target, corrupt", [
        ("resume", rundir.META_FILE, lambda text: "[]"),
        ("replay", rundir.META_FILE, lambda text: "[]"),
        ("resume", _SHARD_0, lambda text: text[:len(text) // 2]),
        ("resume", _SHARD_0, _drop_fuzz),
    ], ids=["resume-meta-list", "replay-meta-list", "resume-torn-shard",
            "resume-shard-without-fuzz"])
    def test_corrupt_file_raises_store_error_naming_it(
            self, finished_run, tmp_path, capsys, command, target, corrupt):
        import shutil

        from repro.__main__ import main
        from repro.scenarios.runner import replay_findings, resume_scenario
        from repro.scenarios.store import StoreError

        run_dir = tmp_path / "run"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / target
        path.write_text(corrupt(path.read_text()))

        entry = resume_scenario if command == "resume" else replay_findings
        with pytest.raises(StoreError) as excinfo:
            entry(run_dir)
        assert Path(target).name in str(excinfo.value)
        assert main([command, str(run_dir)]) == 2
        assert Path(target).name in capsys.readouterr().err

    def test_resume_names_offending_key_and_file(self, tmp_path):
        from repro.scenarios.runner import resume_scenario
        from repro.scenarios.store import CampaignStore, StoreError

        run_dir = tmp_path / "run"
        CampaignStore.create(run_dir, _quick_spec(iterations=2))
        scenario_path = run_dir / rundir.SCENARIO_FILE
        data = json.loads(scenario_path.read_text())
        target = data.get("scenario", data)  # to_json wraps the spec
        target["on_shard_failure"] = "sometimes"
        scenario_path.write_text(json.dumps(data))

        with pytest.raises(StoreError) as excinfo:
            resume_scenario(run_dir)
        message = str(excinfo.value)
        assert "scenario.json" in message
        assert "on_shard_failure" in message

    def test_quarantine_and_checkpoint_records_validate(self, tmp_path):
        from repro.scenarios.checkpoint import checkpoint_record
        from repro.telemetry.export import load_schema, validate_records

        schema = load_schema("docs/telemetry.schema.json")
        quarantine = {"type": "quarantine", "shard": 1, "seed": 42,
                      "attempts": 3, "failure": "worker-died",
                      "error": "killed"}
        assert validate_records([quarantine], schema, "quarantine.jsonl") \
            == []
        bad = dict(quarantine, attempts="three")
        assert validate_records([bad], schema, "quarantine.jsonl")

        campaign = _quick_spec(iterations=2).build_specure().build_campaign()
        result = campaign.run(2)
        record = checkpoint_record(0, 7, 2, campaign, result.fuzz)
        assert validate_records([record], schema, "checkpoints") == []


class TestTelemetryAttemptSurfacing:
    def test_retried_shard_shows_attempt_in_stats(self, tmp_path,
                                                  monkeypatch):
        """Satellite: kill -9 a pooled worker mid-campaign; the watchdog
        replaces it, the campaign completes, and ``repro stats`` shows
        the retried shard."""
        from repro import faultinject
        from repro.scenarios.runner import run_scenario
        from repro.telemetry.runstats import (
            load_run_telemetry,
            render_stats,
            validate_run,
        )

        monkeypatch.setenv(faultinject.ENV_VAR, json.dumps({
            "kind": "worker-crash", "shard": 1, "iteration": 1,
            "trips": 1, "state": str(tmp_path / "chaos-state")}))
        run_dir = tmp_path / "run"
        outcome = run_scenario(
            _quick_spec(iterations=4, shards=2, max_shard_retries=2),
            run_dir=run_dir, jobs=2, minimize=False, telemetry=True)
        assert not outcome.degraded
        assert validate_run(run_dir, "docs/telemetry.schema.json") == []
        run = load_run_telemetry(run_dir)
        attempts = {shard_id: shard.attempt
                    for shard_id, shard in run.shards.items()}
        assert attempts[0] == 1
        assert attempts[1] == 2  # the replacement worker's attempt
        assert "(attempt 2)" in render_stats(run)


class TestSpecResilienceKnobs:
    def test_defaults_round_trip_and_stay_out_of_to_dict(self):
        from repro.scenarios.spec import ScenarioSpec

        spec = _quick_spec(iterations=3)
        data = spec.to_dict()
        for key in ("max_shard_retries", "unit_timeout_s",
                    "checkpoint_every", "on_shard_failure"):
            assert key not in data
        loaded = ScenarioSpec.from_dict(data)
        assert loaded.max_shard_retries == 2
        assert loaded.on_shard_failure == "degrade"

        tuned = spec.override(max_shard_retries=5, unit_timeout_s=30.0,
                              checkpoint_every=10, on_shard_failure="fail")
        data = tuned.to_dict()
        assert data["max_shard_retries"] == 5
        assert ScenarioSpec.from_dict(data).unit_timeout_s == 30.0

    @pytest.mark.parametrize("overrides, match", [
        ({"max_shard_retries": -1}, "max_shard_retries"),
        ({"unit_timeout_s": -0.5}, "unit_timeout_s"),
        ({"checkpoint_every": -2}, "checkpoint_every"),
        ({"on_shard_failure": "degrad"}, "degrade"),  # did-you-mean
    ])
    def test_invalid_knobs_name_the_key(self, overrides, match):
        from repro.scenarios.spec import ScenarioError

        with pytest.raises(ScenarioError, match=match):
            _quick_spec(**overrides)
