"""Sharded parallel campaign execution and shard-artifact merging.

The paper's evaluation rests on repeated, long (24-hour) fuzzing
campaigns.  This module fans that work out across worker processes —
coverage-campaign *repeats* (Figure 2), detection-campaign *kinds*
(Table 2), and the shards of a scenario campaign
(:func:`repro.scenarios.runner.run_scenario`, timed or not) — and
merges the shard artifacts back into exactly the report types a serial
run produces.

Determinism contract
--------------------
Every shard derives its seed via :func:`shard_seed` — shard 0 runs at
``base_seed`` itself (so a one-shard campaign is indistinguishable from
a serial one) and shard ``k >= 1`` at ``stable_hash((base_seed, k))`` —
and each worker executes the *same* per-shard code path the serial loop
would.  A sharded run is therefore byte-identical to its serial
counterpart per shard; only wall-clock concurrency differs.
``jobs=None``/``jobs<=1`` runs the shards inline in-process, which is
also the fallback for environments where ``multiprocessing`` is
unavailable.

The hash derivation replaces the original ``base_seed + 1000 * k``
spacing, which collided across campaigns whose base seeds differ by a
multiple of 1000 (scenarios at seeds 0 and 1000 shared shard streams —
shard ``k+1`` of one replayed shard ``k`` of the other).  The old
``shard_stride`` parameter is gone: passing it raises (a ``TypeError``
from :func:`shard_seed`, a :class:`~repro.scenarios.spec.ScenarioError`
from scenario files).  See the compatibility note in ``docs/scenarios.md``.

Executor architecture
---------------------
:func:`imap_shard_units` has two execution paths and one failure
contract.  ``jobs<=1`` runs the units in an inline loop in this
process; ``jobs>1`` (or a :class:`RetryPolicy` with ``isolate``) hands
them to the **worker fleet** (:class:`_WorkerFleet`): worker processes
that live for the process lifetime (one fork per jobs count, not one
per campaign), each behind its own pipe.  Every process keeps
**shared read-only statics** per ``(design, config)`` — the elaborated
netlist or RTL design inside a reusable PUT backend
(:func:`repro.puts.base.build_put`), its decode caches, and the offline
artifacts with the online statics derived from them
(:func:`shared_statics`, :meth:`OfflineArtifacts.derived`).
:class:`ShardDispatch` builds them in the parent before the first unit
is dispatched, so a fleet forked afterwards inherits them and a shard
costs exactly its fuzzing loop; the fork runs under ``gc.freeze()``, so
a worker's collections never rescan them.  Shard reports travel back
without their offline artifacts.  Each shard
is one deterministic work unit (unit id = spec position) handed to
whichever worker is idle, so a slow unit never idles the others;
results are re-assembled by unit id (:func:`map_shards`), keeping
merged reports byte-identical to serial runs whatever the completion
order.  The fleet replaces a worker that
dies, and its watchdog kills one whose unit stops making progress.

Every call runs under a :class:`RetryPolicy` — by default one attempt,
failing on exhaustion.  A unit that exhausts its attempts raises
:class:`ShardExecutionError` naming its shard (inline, the original
exception is its ``__cause__``), after the fleet is torn down; under
``on_exhaust="degrade"`` it is yielded as a :class:`UnitFailure`
marker instead.  See ``docs/performance.md``.

Merge semantics
---------------
* :meth:`~repro.detection.mst.MisspeculationTable.merge` and
  :meth:`~repro.core.online.OnlineStats.merge` are associative and
  shard-order independent (canonical row order / additive counters).
* :func:`merge_campaign_results` concatenates the shards' iteration
  timelines: shard *k*'s findings and discovery log are re-stamped by
  the total iteration count of shards ``0..k-1`` (stable, deterministic
  stamping), and the merged coverage curve is the exact cumulative
  count of *distinct* items discovered by any shard along that
  concatenated timeline (computed from the discovery logs, not by
  summing per-shard counts, so overlapping discoveries are not double
  counted).
* :func:`merge_reports` combines full :class:`CampaignReport` shards
  using all of the above; the offline artifacts are taken from the
  first shard (the parent's one copy, re-attached on arrival by
  :class:`ShardDispatch`).
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import signal
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from multiprocessing import connection
from pathlib import Path

from repro import telemetry
from repro.core.offline import OfflineArtifacts, run_offline
from repro.core.report import CampaignReport
from repro.core.specure import Specure
from repro.fuzz.fuzzer import CampaignResult
from repro.puts.base import Put, build_put, statics_key
from repro.utils import rundir
from repro.utils.rng import stable_hash


def shard_seed(base_seed: int, shard: int) -> int:
    """The deterministic seed of one shard.

    Shard 0 is the base seed itself — a one-shard campaign must be
    byte-identical to a serial run — and every later shard draws an
    independent stream from ``stable_hash((base_seed, shard))``, so two
    campaigns share a shard stream only if their base seeds collide
    outright (the old ``base_seed + stride * shard`` arithmetic aliased
    whenever base seeds differed by a multiple of the stride; its
    ``shard_stride`` parameter has been removed).
    """
    if shard == 0:
        return base_seed
    return stable_hash((base_seed, shard))


# ----------------------------------------------------------------------
# Worker-process plumbing: per-process shared statics
# ----------------------------------------------------------------------

class ShardExecutionError(RuntimeError):
    """A work unit exhausted its attempts under ``on_exhaust="fail"``.

    Carries the failing shard id (``shard``) and the unit's traceback
    text (``worker_traceback``).  Raised the same way whatever the jobs
    count: the fleet is torn down first, so sibling units never hold
    the caller hostage, and an inline unit's original exception is
    chained as ``__cause__``.
    """

    def __init__(self, shard: int, worker_traceback: str):
        super().__init__(
            f"shard {shard} failed:\n{worker_traceback}"
        )
        self.shard = shard
        self.worker_traceback = worker_traceback


#: Per-process shared read-only statics: one (core, offline artifacts)
#: pair per PUT configuration, keyed on ``(design, repr(config))`` so
#: two designs whose configs repr alike can never alias.  The core
#: carries the elaborated netlist/design, the reusable simulation
#: engine, and any decode caches (seed images decode once per process,
#: not once per shard); the offline artifacts are a pure function of
#: the design.  Bounded LRU so a long-lived worker serving many designs
#: cannot grow unboundedly.
_WORKER_STATICS: OrderedDict[tuple[str, str],
                             tuple[Put, OfflineArtifacts]] = OrderedDict()
_WORKER_STATICS_LIMIT = 4


def shared_statics(config) -> tuple[Put, OfflineArtifacts]:
    """This process's shared (core, offline artifacts) for ``config``.

    Safe to share across work units because both are exact under reuse:
    the engine resets byte-identically between programs (pinned by
    ``tests/test_engine_reuse.py``) and the offline artifacts depend on
    the design alone.  Lookups count as ``harness.statics.hits`` /
    ``harness.statics.misses`` in the telemetry registry.
    """
    key = statics_key(config)
    hit = _WORKER_STATICS.get(key)
    if hit is not None:
        telemetry.count("harness.statics.hits")
        _WORKER_STATICS.move_to_end(key)
        return hit
    telemetry.count("harness.statics.misses")
    core = build_put(config)
    value = (core, run_offline(core.offline_model()))
    _WORKER_STATICS[key] = value
    if len(_WORKER_STATICS) > _WORKER_STATICS_LIMIT:
        _WORKER_STATICS.popitem(last=False)
    return value


def _shard_of(item, unit_id: int) -> int:
    """The shard id of a work item, or its unit id when it has none."""
    shard = getattr(item, "shard", None)
    return shard if isinstance(shard, int) else unit_id


# ----------------------------------------------------------------------
# Resilient execution: retry policy, watchdog fleet, quarantine markers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats failing or hung work units.

    ``max_retries`` bounds *re*-tries: a unit runs at most
    ``1 + max_retries`` times, always with the same seed (a retry that
    succeeds is byte-identical to a first-try success — the determinism
    contract makes retries safe).  ``unit_timeout_s > 0`` arms the
    watchdog: a worker whose unit has shown no progress — no completed
    recv, and no fresh heartbeat line in ``progress_dir`` — for that
    long is SIGKILLed and its unit retried.  ``on_exhaust`` picks the
    endgame: ``"fail"`` raises :class:`ShardExecutionError` (the
    all-stop), ``"degrade"`` yields a :class:`UnitFailure` marker so the
    campaign completes without the quarantined shard.  ``isolate``
    forces worker processes even at ``jobs=1`` (required for the
    watchdog and for crash containment of whole-process faults).
    """

    max_retries: int = 2
    unit_timeout_s: float = 0.0
    on_exhaust: str = "fail"
    progress_dir: str | Path | None = None
    isolate: bool = False

    def __post_init__(self):
        if self.on_exhaust not in ("fail", "degrade"):
            raise ValueError(
                f"on_exhaust must be 'fail' or 'degrade', "
                f"not {self.on_exhaust!r}")


@dataclass(frozen=True)
class UnitFailure:
    """A work unit that exhausted its retries (yielded in degrade mode)."""

    shard: int
    attempts: int
    kind: str   # "exception" | "worker-died" | "timeout"
    error: str  # traceback text or one-line description

    def summary(self) -> str:
        """One line for reports: the traceback's final line, or the
        failure description itself when it is already one line."""
        for line in reversed(self.error.strip().splitlines()):
            if line.strip():
                return line.strip()
        return self.kind


def _stamp_attempt(item, attempt: int):
    """Re-stamp a work item with its attempt number when it supports it
    (the scenario runner's tasks do — telemetry records the attempt)."""
    with_attempt = getattr(item, "with_attempt", None)
    if attempt > 1 and callable(with_attempt):
        return with_attempt(attempt)
    return item


def _fleet_worker_main(conn) -> None:
    """A fleet worker: receive ``(unit_id, worker, item)``, send back
    ``(unit_id, ok, result_or_traceback)`` until the pipe closes.

    SIGINT is ignored — on a keyboard interrupt the parent owns the
    shutdown, so workers never die mid-write from the tty's signal
    fan-out.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload is None:
            return
        unit_id, worker, item = payload
        try:
            response = (unit_id, True, worker(item))
        except Exception:
            response = (unit_id, False, traceback.format_exc())
        try:
            conn.send(response)
        except Exception:
            return


class _FleetWorker:
    """Parent-side handle of one fleet worker process."""

    __slots__ = ("process", "conn", "unit_id", "assigned_at")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.unit_id: int | None = None
        self.assigned_at = 0.0


class _WorkerFleet:
    """A crash-survivable worker pool: one duplex pipe per worker, no
    shared queues.

    A pool that multiplexes every worker over shared result queues can
    lose the queue's feeder state (or a held lock) with a SIGKILLed
    worker and deadlock.  The fleet gives each worker a private
    :func:`Pipe`; losing a worker breaks exactly one pipe, which the
    dispatcher observes via the process sentinel and repairs by
    respawning that single worker.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        try:
            self.ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            self.ctx = multiprocessing.get_context("spawn")
        self.workers = [self._spawn() for _ in range(jobs)]

    def _spawn(self) -> _FleetWorker:
        parent_conn, child_conn = self.ctx.Pipe()
        process = self.ctx.Process(
            target=_fleet_worker_main, args=(child_conn,), daemon=True)
        # A forked child starts with everything frozen, so its
        # collections never rescan the statics it inherited; the
        # parent thaws at once and keeps collecting its own garbage.
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        child_conn.close()
        return _FleetWorker(process, parent_conn)

    def respawn(self, worker: _FleetWorker) -> None:
        """Replace one (dead or hung) worker, leaving the rest running."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        worker.conn.close()
        fresh = self._spawn()
        worker.process = fresh.process
        worker.conn = fresh.conn
        worker.unit_id = None
        worker.assigned_at = 0.0

    def shutdown(self) -> None:
        """Stop every worker: idle ones by message, busy ones — whose
        units are being abandoned — by SIGKILL, so teardown never waits
        on a running unit."""
        for worker in self.workers:
            if worker.unit_id is not None:
                worker.process.kill()
                continue
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self.workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.conn.close()
        self.workers = []


#: The process-lifetime fleet (one per jobs count, lazily built).
_FLEET: _WorkerFleet | None = None
_FLEET_ATEXIT_REGISTERED = False


def _get_fleet(jobs: int) -> _WorkerFleet:
    """The process-lifetime fleet, (re)built only when ``jobs`` changes.

    Workers keep their per-process statics (:func:`shared_statics`)
    across campaigns — repeated calls reuse warm processes instead of
    paying a fork + netlist elaboration + offline phase per campaign.
    """
    global _FLEET, _FLEET_ATEXIT_REGISTERED
    if _FLEET is not None and _FLEET.jobs != jobs:
        shutdown_pool()
    if _FLEET is None:
        _FLEET = _WorkerFleet(jobs)
        if not _FLEET_ATEXIT_REGISTERED:
            atexit.register(shutdown_pool)
            _FLEET_ATEXIT_REGISTERED = True
    return _FLEET


def shutdown_pool() -> None:
    """Stop and discard the worker fleet (idempotent).

    Called at interpreter exit, when ``jobs`` changes, and on a unit
    failure, interrupt or abandoned generator; the next call that needs
    workers forks a fresh fleet.
    """
    global _FLEET
    if _FLEET is not None:
        _FLEET.shutdown()
        _FLEET = None


#: Dispatcher poll interval: bounds watchdog latency, not throughput
#: (results wake the dispatcher immediately via ``connection.wait``).
_FLEET_TICK_S = 0.1


def _progress_stamp(policy: RetryPolicy, item, unit_id: int,
                    assigned_at: float) -> float:
    """Wall-clock time of the unit's last observed progress.

    The later of when the unit was assigned and the last modification
    of its telemetry heartbeat log (beats flushed per line) — so a long
    unit that is *beating* is never shot, while a hung one times out
    even mid-unit.  Beats older than the
    assignment are debris of a previous attempt and do not count.
    """
    if policy.progress_dir is None:
        return assigned_at
    path = Path(policy.progress_dir) / rundir.shard_file(
        _shard_of(item, unit_id), ".jsonl")
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return assigned_at
    return max(assigned_at, mtime) if mtime > assigned_at else assigned_at


def _imap_resilient(worker, specs, jobs: int, policy: RetryPolicy):
    """The fleet dispatcher: watchdog + retry + quarantine markers.

    Yields ``(unit_id, spec, result)`` in completion order, where
    ``result`` is a :class:`UnitFailure` for units that exhausted their
    retries under ``on_exhaust="degrade"``.  Raises
    :class:`ShardExecutionError` (after tearing the fleet down) under
    ``on_exhaust="fail"``.  An empty unit list returns without starting
    (or re-forking) a fleet.
    """
    if not specs:
        return
    pending = deque(range(len(specs)))
    attempts = {unit_id: 0 for unit_id in range(len(specs))}

    def exhaust(unit_id: int, kind: str, error: str) -> UnitFailure | None:
        """Retry the unit, or produce its quarantine marker / all-stop."""
        if attempts[unit_id] <= policy.max_retries:
            pending.appendleft(unit_id)
            return None
        if policy.on_exhaust == "degrade":
            return UnitFailure(
                shard=_shard_of(specs[unit_id], unit_id),
                attempts=attempts[unit_id], kind=kind, error=error)
        raise ShardExecutionError(_shard_of(specs[unit_id], unit_id), error)

    try:
        fleet = _get_fleet(jobs)
        done = 0
        while done < len(specs):
            # Hand pending units to idle workers (respawning any that
            # died while idle — can only happen via external kills).
            for member in fleet.workers:
                if not pending or member.unit_id is not None:
                    continue
                if not member.process.is_alive():
                    fleet.respawn(member)
                unit_id = pending.popleft()
                attempts[unit_id] += 1
                item = _stamp_attempt(specs[unit_id], attempts[unit_id])
                try:
                    member.conn.send((unit_id, worker, item))
                except (OSError, ValueError):
                    # Died between the liveness check and the send:
                    # repair and retry without charging an attempt.
                    fleet.respawn(member)
                    attempts[unit_id] -= 1
                    pending.appendleft(unit_id)
                    continue
                member.unit_id = unit_id
                member.assigned_at = time.time()

            busy = [m for m in fleet.workers if m.unit_id is not None]
            if not busy:
                continue
            handles = [m.conn for m in busy] + \
                [m.process.sentinel for m in busy]
            ready = connection.wait(handles, timeout=_FLEET_TICK_S)

            for member in busy:
                unit_id = member.unit_id
                if unit_id is None:
                    continue
                has_result = member.conn in ready
                died = member.process.sentinel in ready
                if died and not has_result:
                    # A killed worker can still have flushed its result
                    # into the pipe buffer — drain before declaring it.
                    has_result = member.conn.poll(0)
                if has_result:
                    try:
                        _, ok, payload = member.conn.recv()
                    except (EOFError, OSError):
                        died, has_result = True, False
                    else:
                        member.unit_id = None
                        if ok:
                            done += 1
                            yield unit_id, specs[unit_id], payload
                        else:
                            failure = exhaust(unit_id, "exception", payload)
                            if failure is not None:
                                done += 1
                                yield unit_id, specs[unit_id], failure
                        continue
                if died:
                    member.unit_id = None
                    fleet.respawn(member)
                    failure = exhaust(
                        unit_id, "worker-died",
                        f"shard worker (unit {unit_id}) died without a "
                        f"result — killed or crashed hard")
                    if failure is not None:
                        done += 1
                        yield unit_id, specs[unit_id], failure

            if policy.unit_timeout_s > 0:
                now = time.time()
                for member in fleet.workers:
                    unit_id = member.unit_id
                    if unit_id is None:
                        continue
                    stamp = _progress_stamp(
                        policy, specs[unit_id], unit_id, member.assigned_at)
                    if now - stamp <= policy.unit_timeout_s:
                        continue
                    member.unit_id = None
                    fleet.respawn(member)
                    failure = exhaust(
                        unit_id, "timeout",
                        f"no progress for {now - stamp:.1f}s "
                        f"(unit_timeout_s={policy.unit_timeout_s:g}) — "
                        f"worker killed by the watchdog")
                    if failure is not None:
                        done += 1
                        yield unit_id, specs[unit_id], failure
    except BaseException:
        # ShardExecutionError, KeyboardInterrupt, or an abandoned
        # generator: quiesce every worker; the next call rebuilds.
        shutdown_pool()
        raise


#: The policy of a call that names none: one attempt, and a failure
#: stops the campaign.
_FAIL_FAST = RetryPolicy(max_retries=0, on_exhaust="fail")


def imap_shard_units(worker, specs, jobs: int | None,
                     policy: RetryPolicy | None = None):
    """Yield ``(unit_id, spec, worker(spec))`` as units *complete*.

    Every spec becomes one deterministic work unit.  ``jobs=None``/
    ``<=1`` runs the units in spec order in this process; ``jobs>1``,
    or a policy that demands ``isolate``, hands them to the worker
    fleet (:func:`_imap_resilient`), where an idle worker takes the
    next pending unit the moment it finishes its previous one.  Unit
    ids let callers re-assemble results into spec order
    (:func:`map_shards`), which keeps merged reports byte-identical to
    serial runs regardless of completion order.

    Both paths run under ``policy`` (default: one attempt, fail): a
    failed unit is retried at the same seed up to ``max_retries``
    times, and then either raises :class:`ShardExecutionError` naming
    its shard or, under ``on_exhaust="degrade"``, is yielded as a
    :class:`UnitFailure` marker.  Inline, only exceptions fail a unit
    and the original one is chained as ``__cause__``; the fleet also
    survives killed, crashed and (with the watchdog) hung workers.
    ``worker`` and every spec must be picklable.
    """
    if policy is None:
        policy = _FAIL_FAST
    jobs = 1 if jobs is None else max(1, min(jobs, len(specs)))
    if jobs > 1 or policy.isolate:
        yield from _imap_resilient(worker, specs, jobs, policy)
        return
    for unit_id, spec in enumerate(specs):
        for attempt in range(1, policy.max_retries + 2):
            try:
                result = worker(_stamp_attempt(spec, attempt))
            except Exception as error:
                if attempt <= policy.max_retries:
                    continue
                if policy.on_exhaust == "fail":
                    raise ShardExecutionError(
                        _shard_of(spec, unit_id),
                        traceback.format_exc()) from error
                result = UnitFailure(
                    shard=_shard_of(spec, unit_id), attempts=attempt,
                    kind="exception", error=traceback.format_exc())
            yield unit_id, spec, result
            break


def imap_shards(worker, specs, jobs: int | None,
                policy: RetryPolicy | None = None):
    """Yield ``(spec, worker(spec))`` pairs as they complete.

    The streaming face of :func:`imap_shard_units` for store-aware
    callers (:mod:`repro.scenarios.runner`) that persist each shard's
    artifacts as soon as it lands: results arrive in *completion* order
    (each paired with its own spec, so identity is never ambiguous), and
    a consumer that stops early has every yielded shard already
    persisted.  Callers that need spec order use :func:`map_shards`.
    With a :class:`RetryPolicy` in degrade mode, a yielded result may be
    a :class:`UnitFailure` marker instead of the worker's return value.
    """
    for _unit_id, spec, result in imap_shard_units(worker, specs, jobs,
                                                   policy):
        yield spec, result


def map_shards(worker, specs, jobs: int | None):
    """Run ``worker`` over ``specs``, optionally across processes.

    Results are re-assembled by unit id into spec order, so downstream
    merges are deterministic regardless of which worker finishes first.
    A failing unit raises :class:`ShardExecutionError`.  ``worker`` and
    every spec must be picklable (module-level function, plain-data
    spec).
    """
    results = [None] * len(specs)
    for unit_id, _spec, result in imap_shard_units(worker, specs, jobs):
        results[unit_id] = result
    return results


# ----------------------------------------------------------------------
# Merge operations
# ----------------------------------------------------------------------

def merge_campaign_results(results: list[CampaignResult]) -> CampaignResult:
    """Merge shard fuzzing results onto one concatenated timeline.

    Shard ``k``'s iterations are re-stamped with the offset
    ``sum(iterations of shards < k)``; the merged log keeps every
    shard's discoveries, so the derived coverage curve counts distinct
    items discovered by *any* shard up to each global iteration.  The
    merge is associative: merging pre-merged prefixes yields the same
    result as merging all shards at once.
    """
    merged = CampaignResult(iterations=0)
    offset = 0
    for result in results:
        for finding in result.findings:
            merged.findings.append(
                replace(finding, iteration=finding.iteration + offset)
            )
        for iteration, item in result.discovery_log:
            merged.discovery_log.append((iteration + offset, item))
        offset += result.iterations
        merged.corpus_size += result.corpus_size
    merged.iterations = offset
    return merged


def merge_reports(reports: list[CampaignReport]) -> CampaignReport:
    """Merge shard :class:`CampaignReport` objects into one.

    The result has the same type and shape as a serial campaign's
    report: merged stats (additive), a canonically ordered MST, and a
    fuzz result on the concatenated iteration timeline (whose findings,
    in shard order, are the merged report list).  A single report
    merges to itself (identity), so a one-shard run is
    indistinguishable from serial — including the MST's discovery
    order, which a multi-shard merge replaces with the canonical
    (start, end, tag) order.
    """
    if not reports:
        raise ValueError("no shard reports to merge")
    if len(reports) == 1:
        return reports[0]
    stats = reports[0].stats.merge(*(r.stats for r in reports[1:]))
    mst = reports[0].mst.merge(*(r.mst for r in reports[1:]))
    fuzz = merge_campaign_results([report.fuzz for report in reports])
    return CampaignReport(
        offline=reports[0].offline,
        fuzz=fuzz,
        stats=stats,
        mst=mst,
        detectors=reports[0].detectors,
        static_prune=reports[0].static_prune,
    )


# ----------------------------------------------------------------------
# Shard dispatch
# ----------------------------------------------------------------------

class ShardDispatch:
    """One campaign's shard dispatch from the parent's shared statics.

    The offline phase runs once per processor under test (§3.1), and so
    does a sharded campaign.  Construction builds the parent's
    :class:`Specure` for ``spec`` on :func:`shared_statics`, and its
    online pipeline (:attr:`online`, which the finding minimizer
    reuses), before any unit is dispatched.  A worker fleet forked
    afterwards inherits the PUT, the offline artifacts and the online
    statics derived from them copy-on-write, so a shard's own online
    phase builds nothing but its per-campaign state.  (A fleet forked
    earlier, for another design, builds its own on first use.)  The
    shard worker returns its report with ``offline=None`` — the
    artifacts are the bulk of a pickled report — and :meth:`receive`
    re-attaches the parent's one copy as each shard arrives.
    """

    def __init__(self, spec):
        core, offline = shared_statics(spec.build_config())
        self.specure = Specure(spec, core=core, offline=offline)
        self.online = self.specure.build_online()

    def receive(self, units):
        """Re-yield the ``(task, result)`` pairs of an :func:`imap_shards`
        stream, each ``(report, corpus, telemetry)`` result's report
        carrying the parent's offline artifacts; :class:`UnitFailure`
        markers pass through unchanged."""
        offline = self.specure.offline()
        for task, result in units:
            if not isinstance(result, UnitFailure):
                report, *rest = result
                result = (replace(report, offline=offline), *rest)
            yield task, result
