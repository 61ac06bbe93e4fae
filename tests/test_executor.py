"""The shard executor: dispatch, fleet reuse, failure.

Covers the executor semantics the campaign layers rely on:

* results re-assemble by unit id into spec order whatever the
  completion order (byte-identical merges are pinned end-to-end by
  the scenario/bench tests);
* the worker fleet persists across calls, is rebuilt when ``jobs``
  changes, and per-process statics are shared;
* a unit exception surfaces as :class:`ShardExecutionError` naming the
  failing shard at every jobs count — with the fleet torn down
  promptly, or inline with the original exception as ``__cause__``;
* zero units never start a fleet;
* a campaign's per-PUT statics are built once, in the parent, and
  shard results come back without offline artifacts.
"""

import os
import time

import pytest

from repro.harness import parallel
from repro.harness.parallel import (
    RetryPolicy,
    ShardExecutionError,
    imap_shard_units,
    imap_shards,
    map_shards,
    shared_statics,
    shutdown_pool,
)


def _echo_worker(item):
    return ("done", item)


def _sleepy_worker(item):
    # Later units finish first: unit 0 sleeps longest.
    time.sleep(0.15 if item == 0 else 0.0)
    return item * 10


def _failing_worker(item):
    if item == 3:
        raise RuntimeError(f"boom on {item}")
    return item


class _ShardLike:
    """Work item carrying an explicit shard id (like ShardTask)."""

    def __init__(self, shard):
        self.shard = shard

    def __reduce__(self):
        return (_ShardLike, (self.shard,))


def _failing_shardlike_worker(item):
    if item.shard == 7:
        raise ValueError("injected shard failure")
    return item.shard


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    shutdown_pool()


class TestDispatch:
    def test_inline_yields_in_spec_order(self):
        results = list(imap_shards(_echo_worker, [1, 2, 3], jobs=None))
        assert results == [(1, ("done", 1)), (2, ("done", 2)),
                           (3, ("done", 3))]

    def test_map_shards_reassembles_by_unit_id(self):
        # Unit 0 is the slowest; the fleet completes it last, but
        # map_shards must still return spec order.
        assert map_shards(_sleepy_worker, [0, 1, 2, 3], jobs=4) == \
            [0, 10, 20, 30]

    def test_unordered_stream_pairs_spec_with_result(self):
        seen = {}
        for unit_id, spec, result in imap_shard_units(
            _sleepy_worker, [0, 1, 2, 3], jobs=4
        ):
            seen[unit_id] = (spec, result)
        assert seen == {0: (0, 0), 1: (1, 10), 2: (2, 20), 3: (3, 30)}

    def test_pool_persists_across_calls(self):
        map_shards(_echo_worker, [1, 2], jobs=2)
        first = parallel._FLEET
        assert first is not None
        pids = [worker.process.pid for worker in first.workers]
        map_shards(_echo_worker, [3, 4], jobs=2)
        assert parallel._FLEET is first  # same fleet object, no refork
        assert [worker.process.pid for worker in first.workers] == pids

    def test_pool_rebuilds_when_jobs_change(self):
        map_shards(_echo_worker, [1, 2], jobs=2)
        first = parallel._FLEET
        map_shards(_echo_worker, [1, 2, 3], jobs=3)
        assert parallel._FLEET is not first
        assert parallel._FLEET.jobs == 3
        assert not first.workers  # the old fleet was shut down

    def test_inline_run_starts_no_fleet(self):
        assert map_shards(_echo_worker, [1, 2], jobs=1) == \
            [("done", 1), ("done", 2)]
        assert parallel._FLEET is None

    def test_zero_units_never_start_a_fleet(self):
        # `resume` of a completed run with the watchdog or a chaos plan
        # armed dispatches no units under an isolating policy.
        policy = RetryPolicy(isolate=True)
        assert list(imap_shard_units(_echo_worker, [], 2, policy)) == []
        assert parallel._FLEET is None

    def test_zero_units_keep_the_running_fleet(self):
        map_shards(_echo_worker, [1, 2], jobs=2)
        fleet = parallel._FLEET
        policy = RetryPolicy(isolate=True)
        assert list(imap_shard_units(_echo_worker, [], 2, policy)) == []
        assert parallel._FLEET is fleet and fleet.jobs == 2


class TestFailure:
    def test_worker_error_names_the_failing_shard(self):
        items = [_ShardLike(5), _ShardLike(7), _ShardLike(9)]
        with pytest.raises(ShardExecutionError) as excinfo:
            map_shards(_failing_shardlike_worker, items, jobs=2)
        assert excinfo.value.shard == 7
        assert "injected shard failure" in excinfo.value.worker_traceback
        assert "shard 7" in str(excinfo.value)

    def test_pool_is_torn_down_promptly_on_failure(self):
        with pytest.raises(ShardExecutionError):
            map_shards(_failing_worker, [0, 1, 2, 3], jobs=2)
        assert parallel._FLEET is None  # shut down, not left running

    def test_plain_items_fall_back_to_unit_index(self):
        with pytest.raises(ShardExecutionError) as excinfo:
            map_shards(_failing_worker, [0, 1, 2, 3], jobs=2)
        assert excinfo.value.shard == 3
        assert "boom on 3" in excinfo.value.worker_traceback

    def test_inline_failures_propagate_raw(self):
        """Inline failures keep the one failure contract, and the
        original exception travels along as the cause."""
        with pytest.raises(ShardExecutionError) as excinfo:
            map_shards(_failing_worker, [3], jobs=1)
        assert excinfo.value.shard == 0
        cause = excinfo.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert str(cause) == "boom on 3"
        assert "boom on 3" in excinfo.value.worker_traceback

    def test_next_call_after_failure_gets_a_fresh_pool(self):
        with pytest.raises(ShardExecutionError):
            map_shards(_failing_worker, [2, 3], jobs=2)
        assert parallel._FLEET is None
        assert map_shards(_echo_worker, [1, 2], jobs=2) == \
            [("done", 1), ("done", 2)]
        assert parallel._FLEET is not None


class TestSharedStatics:
    def test_same_config_shares_core_and_offline(self):
        from repro.boom.config import BoomConfig
        from repro.boom.vulns import VulnConfig

        config_a = BoomConfig.small(VulnConfig.all())
        config_b = BoomConfig.small(VulnConfig.all())
        core_a, offline_a = shared_statics(config_a)
        core_b, offline_b = shared_statics(config_b)
        assert core_a is core_b
        assert offline_a is offline_b

    def test_distinct_configs_get_distinct_statics(self):
        from repro.boom.config import BoomConfig
        from repro.boom.vulns import VulnConfig

        core_all, _ = shared_statics(BoomConfig.small(VulnConfig.all()))
        core_none, _ = shared_statics(BoomConfig.small(VulnConfig()))
        assert core_all is not core_none

    def test_shared_specure_reuses_statics_and_stays_exact(self):
        """Two campaigns at the same seed through the shared core must
        be byte-identical — engine reuse across campaigns is exact."""
        from repro.core.specure import Specure
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(name="shared", seed=11, monitor_dcache=True)

        def shared_specure():
            core, offline = shared_statics(spec.build_config())
            return Specure(spec, core=core, offline=offline)

        first = shared_specure()
        second = shared_specure()
        assert first.core is second.core
        report_a = first.campaign(5)
        report_b = second.campaign(5)
        assert report_a.render(include_timings=False) == \
            report_b.render(include_timings=False)


class TestScenarioRunnerIntegration:
    def test_worker_failure_marks_store_resumable(self, tmp_path,
                                                  monkeypatch):
        """A dead worker must leave the campaign resumable: completed
        shards persisted, status interrupted, and the error naming the
        failing shard."""
        from repro.scenarios import resolve_scenario
        from repro.scenarios import runner as runner_module
        from repro.scenarios.runner import run_scenario, resume_scenario
        from repro.scenarios.store import STATUS_INTERRUPTED, CampaignStore

        spec = resolve_scenario("quickstart").override(
            shards=3, iterations=4
        )
        real_execute = runner_module._execute_shard

        def sabotaged(task):
            if task.shard == 2:
                raise RuntimeError("injected shard death")
            return real_execute(task)

        calls = []

        def tracking_imap(worker, specs, jobs, policy=None):
            # Run inline but route errors the way the executor does.
            for unit_id, task in enumerate(specs):
                calls.append(task.shard)
                try:
                    yield task, sabotaged(task)
                except RuntimeError:
                    raise ShardExecutionError(task.shard, "injected")

        monkeypatch.setattr(runner_module, "imap_shards", tracking_imap)
        run_dir = tmp_path / "campaign"
        with pytest.raises(ShardExecutionError) as excinfo:
            run_scenario(spec, run_dir=run_dir, jobs=2, minimize=False)
        assert excinfo.value.shard == 2
        store = CampaignStore.open(run_dir)
        assert store.status == STATUS_INTERRUPTED
        assert store.completed_shards() == [0, 1]

        monkeypatch.setattr(runner_module, "imap_shards", imap_shards)
        outcome = resume_scenario(run_dir, jobs=1, minimize=False)
        assert outcome.resumed_shards == [0, 1]
        assert outcome.executed_shards == [2]
        assert outcome.report is not None


# -- per-PUT statics: built once in the parent, never shipped back ---------

def _stored_sweep():
    """Four one-iteration shards whose findings all minimize."""
    from repro.scenarios import get_scenario

    return get_scenario("dcache-monitor-sweep").override(
        iterations=1, shards=4)


class TestParentStatics:
    def test_jobs_counts_agree_with_minimization(self, tmp_path):
        """jobs=1 shares the parent's PUT engine between the inline
        shards and the minimizer; jobs=2 runs shards on forked copies.
        Reports and the minimized programs must not tell them apart.
        Finding records are appended as shards complete, so their
        order follows the fleet's completion order."""
        from repro.scenarios.runner import run_scenario

        spec = _stored_sweep()
        runs = [tmp_path / f"j{jobs}" for jobs in (1, 2)]
        for jobs, run_dir in zip((1, 2), runs):
            run_scenario(spec, run_dir=run_dir, jobs=jobs, minimize=True)
        reports, findings = [], []
        for run_dir in runs:
            reports.append((run_dir / "report.txt").read_bytes())
            findings.append(sorted(
                (run_dir / "findings.jsonl").read_bytes().splitlines()))
        assert reports[0] == reports[1]
        assert findings[0] == findings[1]
        assert all(b'"minimized": {' in line for line in findings[0])

    def test_forked_workers_never_rerun_the_offline_phase(
            self, tmp_path, monkeypatch):
        from repro.scenarios.runner import run_scenario

        spec = _stored_sweep()
        shutdown_pool()
        parallel._WORKER_STATICS.clear()
        parent, real_offline, runs = os.getpid(), parallel.run_offline, []

        def parent_only(model):
            if os.getpid() != parent:
                raise AssertionError("a shard worker re-ran the offline "
                                     "phase")
            runs.append(model)
            return real_offline(model)

        monkeypatch.setattr(parallel, "run_offline", parent_only)
        outcome = run_scenario(spec, run_dir=tmp_path / "run", jobs=2,
                               minimize=True)
        assert outcome.executed_shards == [0, 1, 2, 3]
        assert not outcome.quarantined
        assert len(runs) == 1

    def test_shard_response_carries_no_offline_artifacts(self):
        from multiprocessing.reduction import ForkingPickler

        from repro.scenarios.runner import ShardTask, _execute_shard

        spec = _stored_sweep()
        task = ShardTask(spec, 0)
        report, corpus = _execute_shard(task)
        assert report.offline is None
        # What a fleet worker sends down its pipe for this unit.
        blob = bytes(ForkingPickler.dumps((0, True, (report, corpus))))
        assert b"OfflineArtifacts" not in blob
        assert len(blob) < 64 * 1024

    def test_dispatch_reattaches_the_parents_one_copy(self):
        from repro.scenarios.runner import run_scenario

        spec = _stored_sweep().override(seed=3, iterations=1, shards=2)
        report = run_scenario(spec, jobs=2).report
        _core, offline = shared_statics(spec.build_config())
        assert report.offline is offline

    def test_statics_cache_is_counted_per_process(self, tmp_path):
        from repro.scenarios.runner import run_scenario
        from repro.telemetry import load_run_telemetry

        spec = _stored_sweep()
        shutdown_pool()
        parallel._WORKER_STATICS.clear()
        run_scenario(spec, run_dir=tmp_path / "run", jobs=2,
                     minimize=False, telemetry=True)
        run = load_run_telemetry(tmp_path / "run")
        assert run.campaign_metrics.counters["harness.statics.misses"] == 1
        for shard in range(spec.shards):
            counters = run.shards[shard].metrics.counters
            assert counters["harness.statics.hits"] == 1
            assert "harness.statics.misses" not in counters
