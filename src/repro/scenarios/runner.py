"""Scenario execution: specs in, persisted + merged campaign reports out.

``run_scenario`` is the one entry point behind ``python -m repro run``:
it fans the scenario's shards out (inline or across worker processes),
persists each finished shard into the :class:`CampaignStore` as it
lands, and merges the shard reports into the same
:class:`~repro.core.report.CampaignReport` a serial run produces.

Resume contract
---------------
Shards are the unit of persistence and the unit of determinism: shard
``k`` always runs at seed ``shard_seed(spec.seed, k)``
and its artifacts are written atomically when it completes.  A resumed
campaign therefore loads the completed shards' artifacts byte-for-byte,
re-runs only the missing shards (which are pure functions of their
seeds), and merges in shard order — producing a final ``report.txt``
byte-identical to an uninterrupted run of the same scenario.  A shard
lost mid-run restarts from its last mid-shard checkpoint
(:mod:`repro.scenarios.checkpoint`) with the same byte-identity
guarantee.

Resilience contract
-------------------
Failed or hung shard units are retried at the same seed up to
``spec.max_shard_retries`` times (``docs/resilience.md``); a unit that
exhausts its retries is quarantined (``quarantine.jsonl``) and, under
``on_shard_failure = "degrade"``, the campaign still completes — the
final report leads with a degraded-mode banner naming the quarantined
shards, whose iterations are excluded from every merged figure.
``resume`` drops the quarantine list and re-runs exactly those shards.

Replay contract
---------------
``replay_findings`` re-confirms every persisted finding by running its
stored (preferably minimized) program once through a fresh online
pipeline built from the stored scenario — a regression check that needs
no fuzzing at all.  Contained crash findings replay too: the probe
wraps the step loop the same way the fuzzer does, so a poison program
confirms by raising again instead of taking the replay down.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import faultinject, telemetry
from repro.core.offline import OfflineArtifacts
from repro.core.online import OnlinePhase
from repro.core.report import CampaignReport
from repro.core.specure import TIMED_ITERATION_CAP, Specure, stop_on_kind
from repro.fuzz.crash import CRASH_KIND, crash_report
from repro.fuzz.fuzzer import FuzzFinding, FuzzObserver
from repro.fuzz.input import TestProgram
from repro.fuzz.trim import trim_program
from repro.harness.parallel import (
    RetryPolicy,
    ShardDispatch,
    ShardExecutionError,
    UnitFailure,
    imap_shards,
    merge_reports,
    shard_seed,
    shared_statics,
)
from repro.scenarios.checkpoint import (
    checkpoint_record,
    load_checkpoint,
    restore_campaign,
    save_checkpoint,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import (
    STATUS_INTERRUPTED,
    CampaignStore,
    detector_of,
    program_from_dict,
)
from repro.telemetry import export as telemetry_export
from repro.telemetry.export import TelemetrySummary
from repro.telemetry.spans import SpanRecord
from repro.telemetry.heartbeat import HeartbeatWriter
from repro.telemetry.metrics import MetricSet
from repro.telemetry.runstats import (
    load_run_telemetry,
    summarize,
    summarize_recorder,
)
from repro.utils import rundir
from repro.utils.text import ascii_table


@dataclass
class ScenarioOutcome:
    """What one ``run_scenario``/``resume_scenario`` call produced."""

    spec: ScenarioSpec
    offline: OfflineArtifacts
    report: CampaignReport | None
    store: CampaignStore | None = None
    executed_shards: list[int] = field(default_factory=list)
    resumed_shards: list[int] = field(default_factory=list)
    #: Shards that exhausted their retries (``on_shard_failure =
    #: "degrade"``): the campaign completed without them.
    quarantined: list[UnitFailure] = field(default_factory=list)
    #: Populated only when the campaign ran with ``telemetry=True``.
    telemetry: TelemetrySummary | None = None

    @property
    def degraded(self) -> bool:
        """True when quarantined shards are missing from the report."""
        return bool(self.quarantined)


@dataclass
class ReplayResult:
    """One stored finding re-checked against a fresh pipeline."""

    shard: int
    index: int
    kind: str
    confirmed: bool
    used_minimized: bool
    #: Which pathway produced the finding ("ift" | "contract" |
    #: "crash"); records from stores predating the contract detector
    #: default to "ift".
    detector: str = "ift"


@dataclass(frozen=True)
class ShardTask:
    """One shard's picklable work order for :func:`_execute_shard`.

    Shard ``shard`` of the ``spec`` campaign runs at :attr:`seed`,
    ``spec.iterations`` fuzz rounds — or, with ``seconds``, until that
    wall-clock budget passes — and stops early at its first
    ``spec.stop_kind`` finding.

    ``attempt`` counts executions of this unit (1 = first try); the
    resilient dispatcher re-stamps it via :meth:`with_attempt` so the
    shard's telemetry records which attempt produced its artifacts.

    ``telemetry`` asks for the shard's spans and metrics; without a
    ``telemetry_dir`` to write them to they come back with the result.
    """

    spec: ScenarioSpec
    shard: int
    seconds: float | None = None
    telemetry_dir: str | None = None
    checkpoint_dir: str | None = None
    attempt: int = 1
    telemetry: bool = False

    @property
    def seed(self) -> int:
        """The shard's :func:`~repro.harness.parallel.shard_seed`."""
        return shard_seed(self.spec.seed, self.shard)

    def with_attempt(self, attempt: int) -> "ShardTask":
        return replace(self, attempt=attempt)


def _shard_campaign(task: ShardTask):
    """Build one shard's campaign from the process's shared statics."""
    core, offline = shared_statics(task.spec.build_config())
    spec = task.spec.override(seed=task.seed)
    return Specure(spec, core=core, offline=offline).build_campaign()


def _shard_corpus(campaign) -> list[tuple[TestProgram, int]]:
    return [
        (entry.program, entry.new_items)
        for entry in campaign.fuzzer.corpus.entries
    ]


def _shard_observer(heartbeat: HeartbeatWriter | None,
                    shard: int) -> FuzzObserver | None:
    """Compose the shard's per-iteration hooks into one observer.

    Telemetry heartbeats plus (under an armed ``REPRO_CHAOS`` plan) the
    fault-injection hook — the chaos hook runs *after* the heartbeat so
    an injected crash leaves the beat trail the watchdog and the triage
    tooling expect.
    """
    callbacks = []
    chaos_path = None
    if heartbeat is not None:
        callbacks.append(heartbeat.on_iteration)
        chaos_path = heartbeat.path
    chaos = faultinject.fuzz_observer(shard, chaos_path)
    if chaos is not None:
        callbacks.append(chaos)
    if not callbacks:
        return None
    if len(callbacks) == 1:
        return FuzzObserver(on_iteration=callbacks[0])

    def fan_out(index: int, new_items: int, coverage_size: int) -> None:
        for callback in callbacks:
            callback(index, new_items, coverage_size)

    return FuzzObserver(on_iteration=fan_out)


def _run_shard_campaign(
    task: ShardTask, heartbeat: HeartbeatWriter | None,
) -> tuple[CampaignReport, list[tuple[TestProgram, int]]]:
    """Build, (checkpoint-)resume, and run one shard's campaign."""
    spec = task.spec
    stop_when = stop_on_kind(spec.stop_kind, seconds=task.seconds)
    campaign = _shard_campaign(task)
    checkpointing = (task.checkpoint_dir is not None
                     and spec.checkpoint_every > 0)
    start_iteration, resume_result = 0, None
    on_checkpoint = None
    if checkpointing:
        record = load_checkpoint(task.checkpoint_dir, task.shard)
        if record is not None and record.get("seed") == task.seed:
            # A retry (or a resumed lost shard) restarts at the last
            # checkpoint; the fidelity contract makes that equivalent
            # to — and byte-identical with — restarting from scratch.
            start_iteration, resume_result = restore_campaign(
                record, campaign)

        def on_checkpoint(next_iteration, result):
            save_checkpoint(
                task.checkpoint_dir, task.shard,
                checkpoint_record(task.shard, task.seed, next_iteration,
                                  campaign, result))

    iterations = (spec.iterations if task.seconds is None
                  else TIMED_ITERATION_CAP)
    report = campaign.run(
        iterations,
        stop_when=stop_when,
        observer=_shard_observer(heartbeat, task.shard),
        checkpoint_every=spec.checkpoint_every if checkpointing else 0,
        on_checkpoint=on_checkpoint,
        start_iteration=start_iteration,
        resume_result=resume_result,
    )
    # The offline artifacts stay behind: the dispatching parent holds
    # its own copy and re-attaches it (ShardDispatch.receive).
    return replace(report, offline=None), _shard_corpus(campaign)


#: What a worker returns for one shard: the report, the retained corpus
#: entries, and the spans and metrics (as a dict) a worker process
#: recorded for a telemetry campaign without a run directory (``None``
#: otherwise).
ShardResult = tuple[CampaignReport, list[tuple[TestProgram, int]],
                    tuple[list[SpanRecord], dict] | None]


def _execute_shard(task: ShardTask) -> ShardResult:
    """One shard's full campaign: the one shard worker, which
    :func:`run_scenario` and :func:`resume_scenario` dispatch.

    Returns the shard report, with ``offline=None``, plus the fuzzer's
    retained corpus entries, which only exist inside the campaign object
    and must surface here to be persisted.  The core and the offline
    artifacts come from the executing process's shared statics, which a
    forked worker inherits from the dispatching parent
    (:class:`~repro.harness.parallel.ShardDispatch`).

    With a ``telemetry_dir`` the shard streams a
    ``telemetry/shard-<k>.jsonl`` heartbeat log and dumps its
    spans/metrics into it on completion.  Without one, a shard run
    inline records into the parent's recorder, and a shard run in a
    worker process records into a private one whose spans and metrics
    ride back with the result for the parent to absorb.
    """
    faultinject.set_context(task.shard)
    if task.telemetry_dir is not None:
        return _execute_shard_telemetry(task)
    recorder = telemetry.recorder()
    if not task.telemetry or recorder.pid == os.getpid():
        with recorder.span(f"shard/{task.shard}"):
            return (*_run_shard_campaign(task, heartbeat=None), None)
    recorder = telemetry.enable()
    try:
        with recorder.span(f"shard/{task.shard}"):
            report, corpus = _run_shard_campaign(task, heartbeat=None)
    finally:
        telemetry.disable()
    return report, corpus, (recorder.spans(), recorder.metrics.to_dict())


def _execute_shard_telemetry(task: ShardTask) -> ShardResult:
    """The telemetry-instrumented shard execution path.

    A fleet worker process has no enabled recorder, so it enables a
    private one for the shard's duration; the inline path scopes the
    parent recorder with a window instead.  Either way the shard's
    spans and metrics end up *only* in its own ``shard-<k>.jsonl``
    (heartbeats streamed live, spans/metrics dumped at completion), so
    logs merge by shard id exactly like shard report artifacts.  The
    writer truncates on open, so a retry replaces the failed attempt's
    debris; retries record their attempt number in the meta line.
    """
    recorder = telemetry.recorder()
    owns_recorder = not recorder.enabled
    if owns_recorder:
        recorder = telemetry.enable()
    heartbeat = None
    try:
        with recorder.window() as window:
            with recorder.span(f"shard/{task.shard}"):
                heartbeat = HeartbeatWriter(task.telemetry_dir, task.shard)
                meta = dict(
                    scenario=task.spec.name, seed=task.seed,
                    iterations=task.spec.iterations, pid=os.getpid(),
                )
                if task.attempt > 1:
                    meta["attempt"] = task.attempt
                heartbeat.write_meta(**meta)
                report, corpus = _run_shard_campaign(task, heartbeat)
        heartbeat.finalize(
            spans=window.spans, metrics=window.metrics,
            findings=len(report.fuzz.findings),
        )
        return report, corpus, None
    except BaseException:
        # Leave the partial heartbeat log on disk: that is exactly the
        # crashed-shard triage artifact `repro stats` reports as a
        # lagging/incomplete shard.
        if heartbeat is not None:
            heartbeat.close()
        raise
    finally:
        if owns_recorder:
            telemetry.disable()


def _contained_run_once(online: OnlinePhase, program: TestProgram):
    """``run_once`` with crash containment: a step-loop exception comes
    back as a ``crash`` report instead of unwinding the caller — the
    same shape the fuzz loop records, so minimization predicates and
    replay confirm poison programs like any other finding."""
    try:
        return online.run_once(program)
    except Exception as error:  # containment boundary, like the fuzzer's
        return None, [crash_report(error)]


def _outcome(kind: str, report) -> tuple[str, str | None]:
    """What a probe keeps of one report: its kind and, for a crash, the
    exception type it raised."""
    return kind, report.exception if kind == CRASH_KIND else None


class _ProbeOutcomes:
    """One run's memo of contained probe outcomes.

    A probe's outcome depends only on the program (``run_once`` never
    consults the chaos plan), so each distinct program —
    :meth:`TestProgram.key` — runs once per run, however many findings
    share it or however often a trim revisits it.  An outcome is the
    ``(kind, crash exception)`` pair of every report, never the run
    itself.  Executed probes count as ``minimize.probes``, memo hits as
    ``minimize.probe_hits``.
    """

    def __init__(self, online: OnlinePhase):
        self._online = online
        self._outcomes: dict[tuple, tuple[tuple[str, str | None], ...]] = {}

    def __call__(self, program: TestProgram):
        key = program.key()
        recorder = telemetry.recorder()
        outcome = self._outcomes.get(key)
        if outcome is not None:
            recorder.count("minimize.probe_hits")
            return outcome
        with recorder.span("minimize/probe"):
            _, reports = _contained_run_once(self._online, program)
        recorder.count("minimize.probes")
        outcome = self._outcomes[key] = tuple(
            _outcome(report.kind, report) for report in reports)
        return outcome


class _Minimizer:
    """Trims finding programs against one run's online pipeline."""

    def __init__(self, online: OnlinePhase):
        self._probe = _ProbeOutcomes(online)

    def minimize(self, findings: list[FuzzFinding]) -> dict[int, TestProgram]:
        minimized: dict[int, TestProgram] = {}
        recorder = telemetry.recorder()
        for index, finding in enumerate(findings):
            # A crash minimizes against its own signature: the trimmed
            # program must still raise the *same* exception type, not
            # just any exception.
            wanted = _outcome(finding.kind, finding.detail)

            def still_leaks(program, wanted=wanted):
                return wanted in self._probe(program)

            # trim_program itself asserts the predicate on the input
            # first; a finding that does not reproduce in isolation
            # raises there and is simply not minimized.
            try:
                with recorder.span("minimize/finding"):
                    minimized[index] = trim_program(
                        finding.program, still_leaks)
            except ValueError:
                continue
        return minimized


def run_scenario(
    spec: ScenarioSpec,
    run_dir: str | Path | None = None,
    jobs: int | None = None,
    minimize: bool = True,
    on_shard=None,
    telemetry: bool = False,
    seconds: float | None = None,
) -> ScenarioOutcome:
    """Run a scenario, persisting into ``run_dir`` when given.

    With ``run_dir=None`` the campaign runs purely in memory (what the
    example scripts use).  ``on_shard(shard, report)`` is called after
    each shard is finished and persisted.  ``telemetry=True`` records
    spans/metrics/heartbeats (see :mod:`repro.telemetry`); campaign
    artifacts stay byte-identical either way.

    ``seconds`` gives every shard a wall-clock budget instead of
    ``spec.iterations`` (the paper's time-budgeted runs, scaled down).
    A timed shard is not a pure function of its seed, so a timed
    campaign cannot be persisted and resumed: ``seconds`` together with
    ``run_dir`` raises :class:`ValueError`.
    """
    if seconds is not None:
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        if run_dir is not None:
            raise ValueError(
                "a timed campaign cannot be stored: its shards are not "
                "reproducible from their seeds, so a run directory "
                "could not be resumed byte-identically; pass run_dir "
                "or seconds, not both"
            )
    store = None
    if run_dir is not None:
        store = CampaignStore.create(run_dir, spec)
    return _drive(spec, store, jobs, minimize, on_shard, resumed=[],
                  with_telemetry=telemetry, seconds=seconds)


def resume_scenario(
    run_dir: str | Path,
    jobs: int | None = None,
    minimize: bool = True,
    on_shard=None,
    telemetry: bool = False,
) -> ScenarioOutcome:
    """Resume an interrupted (or degraded) campaign from its run dir.

    Completed shards are loaded from the store; only missing shards
    execute — including previously quarantined ones, whose quarantine
    records are dropped so they get a fresh retry budget.  The final
    report is byte-identical to an uninterrupted run's (see the resume
    contract above).
    """
    store = CampaignStore.open(run_dir)
    store.prune_incomplete()
    store.reset_quarantine()
    resumed = store.completed_shards()
    return _drive(store.spec, store, jobs, minimize, on_shard,
                  resumed=resumed, with_telemetry=telemetry)


def _drive(
    spec: ScenarioSpec,
    store: CampaignStore | None,
    jobs: int | None,
    minimize: bool,
    on_shard,
    resumed: list[int],
    with_telemetry: bool = False,
    seconds: float | None = None,
) -> ScenarioOutcome:
    """Telemetry envelope around :func:`_drive_campaign`.

    When enabled, the whole drive runs under a root ``campaign`` span
    on a freshly-installed recorder; afterwards the parent's spans and
    metrics are written to ``telemetry/campaign.jsonl`` (shard logs are
    written by whichever process executed the shard) plus an atomic
    ``summary.json``, and the merged summary lands on the outcome.  An
    interrupted campaign writes no campaign log — the per-shard
    heartbeat files are the triage artifacts — but stays resumable
    exactly as without telemetry.
    """
    if not with_telemetry:
        return _drive_campaign(spec, store, jobs, minimize, on_shard,
                               resumed, telemetry_dir=None, seconds=seconds)
    recorder = telemetry.enable()
    telemetry_dir = None
    if store is not None:
        telemetry_dir = str(store.telemetry_dir(create=True))
    try:
        with recorder.span("campaign"):
            outcome = _drive_campaign(spec, store, jobs, minimize,
                                      on_shard, resumed,
                                      telemetry_dir=telemetry_dir,
                                      seconds=seconds)
    finally:
        telemetry.disable()
    outcome.telemetry = _finish_telemetry(recorder, store, spec,
                                          outcome.report)
    return outcome


def _count_report(recorder, report: CampaignReport) -> None:
    """Count the campaign's work and findings once, from the merged
    report, so the counters match ``report.txt`` at any jobs count and
    across resume and quarantine."""
    for name, value in report.stats.counts().items():
        recorder.count(f"online.{name}", value)
    recorder.count("fuzz.iterations", report.fuzz.iterations)
    recorder.count("fuzz.new_coverage_items", len(report.fuzz.discovery_log))
    for finding in report.fuzz.findings:
        recorder.count(f"findings.{detector_of(finding.detail)}")


def _finish_telemetry(recorder, store: CampaignStore | None,
                      spec: ScenarioSpec,
                      report: CampaignReport | None) -> TelemetrySummary:
    """Count the merged report into the parent recorder, persist it and
    build the merged run summary."""
    if report is not None:
        _count_report(recorder, report)
    if store is None:
        return summarize_recorder(recorder)
    records: list[dict] = [telemetry_export.meta_record(
        "campaign", scenario=spec.name, seed=spec.seed,
        shards=spec.shards, iterations=spec.iterations,
    )]
    records.extend(span.to_dict() for span in recorder.spans())
    records.extend(telemetry_export.metric_records(recorder.metrics))
    tdir = store.telemetry_dir(create=True)
    telemetry_export.write_jsonl(tdir / rundir.CAMPAIGN_LOG, records)
    summary = summarize(load_run_telemetry(store.root))
    rundir.write_atomic(
        tdir / rundir.SUMMARY_FILE,
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")
    return summary


def _resilience_policy(spec: ScenarioSpec,
                       telemetry_dir: str | None) -> RetryPolicy:
    """The spec's resilience knobs as an executor :class:`RetryPolicy`.

    Worker-process isolation is forced whenever a whole-process failure
    mode is in play: an armed watchdog (a hung *thread* cannot be
    killed in-process) or an armed chaos plan (whose faults include
    SIGKILL and hangs) — so ``--jobs 1`` campaigns still survive them.
    """
    return RetryPolicy(
        max_retries=spec.max_shard_retries,
        unit_timeout_s=spec.unit_timeout_s,
        on_exhaust=spec.on_shard_failure,
        progress_dir=telemetry_dir,
        isolate=spec.unit_timeout_s > 0
        or faultinject.active_plan() is not None,
    )


def degraded_banner(failures: list[UnitFailure]) -> str:
    """The degraded-mode header prepended to a quarantined campaign's
    final report (see ``docs/resilience.md`` for how to read it)."""
    lines = [
        "!! DEGRADED CAMPAIGN !!",
        f"{len(failures)} shard(s) exhausted their retries and were "
        "quarantined; their iterations are EXCLUDED from every figure "
        "in this report.  `python -m repro resume <run_dir>` re-runs "
        "exactly these shards.",
        ascii_table(
            ["shard", "attempts", "failure", "last error"],
            [[f.shard, f.attempts, f.kind, f.summary()] for f in failures],
            title="Quarantined shards",
        ),
    ]
    return "\n".join(lines)


def _drive_campaign(
    spec: ScenarioSpec,
    store: CampaignStore | None,
    jobs: int | None,
    minimize: bool,
    on_shard,
    resumed: list[int],
    telemetry_dir: str | None,
    seconds: float | None = None,
) -> ScenarioOutcome:
    dispatch = ShardDispatch(spec)
    specure = dispatch.specure

    if spec.iterations == 0:
        # Offline-only scenario: no shards, no fuzzing, no merged report.
        offline = specure.offline()
        if store is not None:
            store.finalize(offline.summary(include_timings=False) + "\n")
        return ScenarioOutcome(spec=spec, offline=offline, report=None,
                               store=store)

    checkpoint_dir = None
    if store is not None and spec.checkpoint_every > 0:
        checkpoint_dir = str(store.checkpoint_dir(create=True))
    recorder = telemetry.recorder()
    tasks = [
        ShardTask(spec, shard, seconds=seconds,
                  telemetry_dir=telemetry_dir,
                  checkpoint_dir=checkpoint_dir,
                  telemetry=recorder.enabled)
        for shard in range(spec.shards)
        if shard not in resumed
    ]
    policy = _resilience_policy(spec, telemetry_dir)
    minimizer = _Minimizer(dispatch.online)
    fresh: dict[int, CampaignReport] = {}
    failures: dict[int, UnitFailure] = {}
    executed: list[int] = []
    try:
        for task, result in dispatch.receive(
                imap_shards(_execute_shard, tasks, jobs, policy)):
            shard = task.shard
            if isinstance(result, UnitFailure):
                failures[shard] = result
                if store is not None:
                    store.record_quarantine(
                        shard, task.seed, result.attempts,
                        result.kind, result.summary())
                continue
            report, corpus, records = result
            if records is not None:
                spans, metrics = records
                recorder.absorb(spans, MetricSet.from_dict(metrics))
            if store is not None:
                minimized = (
                    minimizer.minimize(report.fuzz.findings)
                    if minimize and report.fuzz.findings else {}
                )
                with recorder.span("store/persist"):
                    store.record_shard(shard, task.seed, report,
                                       corpus_entries=corpus,
                                       minimized=minimized)
                # The shard's artifacts supersede its checkpoint.
                store.clear_checkpoint(shard)
            fresh[shard] = report
            executed.append(shard)
            if on_shard is not None:
                on_shard(shard, report)
    except (KeyboardInterrupt, ShardExecutionError):
        # Completed shards are already persisted; mark the campaign
        # resumable whether a user interrupted it or a shard exhausted
        # its retries under `on_shard_failure = "fail"` (the
        # ShardExecutionError names the failing shard).
        if store is not None:
            store.set_status(STATUS_INTERRUPTED)
        raise
    executed.sort()  # completion order varies across fleet workers
    quarantined = [failures[shard] for shard in sorted(failures)]

    offline = specure.offline()
    ordered = []
    for shard in range(spec.shards):
        if shard in failures:
            continue  # quarantined: excluded from the merged report
        if shard in fresh:
            ordered.append(fresh[shard])
        else:
            ordered.append(store.load_shard_report(shard, offline))
    merged = None
    if ordered:
        with recorder.span("merge"):
            merged = merge_reports(ordered)
    if store is not None:
        parts = []
        if quarantined:
            parts.append(degraded_banner(quarantined))
        if merged is not None:
            parts.append(merged.render(include_timings=False))
        else:
            parts.append("no completed shards: every shard was quarantined")
        store.finalize("\n\n".join(parts) + "\n",
                       degraded=bool(quarantined))
    return ScenarioOutcome(
        spec=spec,
        offline=offline,
        report=merged,
        store=store,
        executed_shards=executed,
        resumed_shards=list(resumed),
        quarantined=quarantined,
    )


def replay_findings(run_dir: str | Path) -> list[ReplayResult]:
    """Re-confirm every stored finding without fuzzing.

    Each finding's persisted program (the minimized form when one was
    stored) runs through an online pipeline built from the stored
    scenario on this process's shared statics, once per distinct
    program (the minimizer's probe memo); the finding is confirmed when
    the same vulnerability kind is reported again.  Crash findings run
    through the contained probe, confirming when the program still
    raises.
    """
    store = CampaignStore.open(run_dir)
    spec = store.spec
    core, offline = shared_statics(spec.build_config())
    probe = _ProbeOutcomes(
        Specure(spec, core=core, offline=offline).build_online())
    results = []
    for record in store.findings():
        payload = record["minimized"] or record["program"]
        outcome = probe(program_from_dict(payload))
        results.append(ReplayResult(
            shard=record["shard"],
            index=record["index"],
            kind=record["kind"],
            confirmed=any(kind == record["kind"] for kind, _ in outcome),
            used_minimized=record["minimized"] is not None,
            detector=record.get("detector", "ift"),
        ))
    return results
