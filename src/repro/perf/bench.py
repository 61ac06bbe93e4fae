"""The campaign bench harness: named scenarios in, numbers out.

One :func:`run_bench` call measures the per-iteration hot path of a
scenario — :meth:`BoomCore.run <repro.boom.core.BoomCore.run>` → trace
recording → coverage → detector — under a fixed iteration or wall-clock
budget, and reports:

* **iterations/sec** — wall clock around the fuzzing loop only (the
  one-time offline phase is excluded: campaigns amortise it);
* **events-examined/iteration** — the trace layer's query telemetry,
  a machine-independent proxy for analysis work per iteration;
* **peak RSS** — the process high-water mark from ``getrusage``.

:func:`emit_bench` persists the results as ``BENCH_pr3.json`` together
with the committed pre-PR baseline (:mod:`repro.perf.baseline`), so the
before/after speedup travels with the artifact;
:func:`check_regression` is the CI gate comparing a fresh run against
the numbers committed in the repository.  The contract-detector hot
path is gated through the same machinery: ``BENCH_pr4.json`` carries a
fixed-protocol ``contract-ablation`` entry (relational testing under
``ct-cond``, the most expensive clause), so a regression in the model
run, the wrong-path simulator, or the trace collector trips CI exactly
like one in the IFT path would.

The bench always measures a *serial* campaign at the scenario's seed:
shard fan-out moves work across processes but leaves the per-iteration
path untouched, and that path is what this harness pins.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.perf.baseline import BASELINES, PRE_PR_BASELINE
from repro.utils.text import ascii_table

#: Iteration backstop for wall-clock budgets (the deadline does the work).
_BUDGET_ITERATION_CAP = 10_000_000


class BenchError(ValueError):
    """A bench request that cannot be measured (or a failed gate)."""


def peak_rss_kb() -> int:
    """Process peak resident set size in KiB (normalised per platform).

    ``ru_maxrss`` is a process-lifetime high-water mark: when several
    scenarios bench in one process, every result after the first
    reports at least the largest footprint seen so far.  Bench
    scenarios in separate invocations when per-scenario RSS matters.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class BenchResult:
    """One scenario's measured numbers."""

    scenario: str
    mode: str                # "iterations" | "budget_s"
    budget: float            # the iteration count or the seconds budget
    iterations: int          # iterations actually completed
    seconds: float
    iters_per_sec: float
    events_examined: int
    events_examined_per_iter: float
    cycles: int
    instructions: int
    coverage: int
    findings: int
    peak_rss_kb: int
    #: Measurement variant sharing the scenario's protocol — e.g.
    #: ``"telemetry"`` for the instrumented side of the overhead gate.
    #: Empty for the plain measurement (the default), keeping committed
    #: artifact keys stable.
    variant: str = ""

    @property
    def key(self) -> str:
        """Artifact/gate key: fully protocol-qualified so the gate and
        the speedup figure only ever compare runs of the same shape —
        longer campaigns drift into slower late-campaign iterations, so
        a 600-iteration run must not be measured against a 60-iteration
        figure any more than a wall-clock run against a fixed-count one.
        """
        suffix = f"+{self.variant}" if self.variant else ""
        if self.mode == "iterations":
            return f"{self.scenario}@{self.budget:g}it{suffix}"
        return f"{self.scenario}@{self.budget:g}s{suffix}"

    def to_dict(self) -> dict:
        return asdict(self)


def _load_spec(scenario: str):
    from repro.scenarios import resolve_scenario

    return resolve_scenario(scenario)


def run_bench(
    scenario: str = "quickstart",
    budget_s: float | None = None,
    iterations: int | None = None,
    telemetry: bool = False,
    checkpoint_every: int = 0,
) -> BenchResult:
    """Measure one scenario's per-iteration hot path.

    Exactly one budget applies: ``budget_s`` runs for a wall-clock
    budget (checked between iterations), otherwise ``iterations``
    (default: the scenario's own iteration budget) runs a fixed count.
    The scenario's stop condition stays active — an early stop simply
    ends the measurement with fewer iterations.

    ``telemetry=True`` installs a live span/metric recorder around the
    measured loop (and only the loop — offline setup stays untimed and
    uninstrumented), producing the ``+telemetry`` variant the overhead
    gate compares against the plain run.  ``checkpoint_every=N`` makes
    the measured loop snapshot and atomically persist a real mid-shard
    checkpoint every N iterations (into a scratch directory, exactly as
    a campaign with a store would), producing the ``+checkpoint``
    variant of the resilience overhead gate.
    """
    if budget_s is not None and iterations is not None:
        raise BenchError("pass either budget_s or iterations, not both")
    if budget_s is not None and budget_s <= 0:
        raise BenchError("budget_s must be positive")
    if iterations is not None and iterations < 1:
        raise BenchError("iterations must be >= 1")
    if checkpoint_every < 0:
        raise BenchError("checkpoint_every must be >= 0")
    if telemetry and checkpoint_every:
        raise BenchError("measure one variant at a time: telemetry or "
                         "checkpointing")

    spec = _load_spec(scenario)
    if iterations is not None:
        spec = spec.override(iterations=iterations)
    if spec.iterations == 0 and budget_s is None:
        raise BenchError(
            f"scenario {spec.name!r} is offline-only (iterations = 0); "
            f"bench it with a wall-clock budget (--budget-s)"
        )

    specure = spec.build_specure()
    campaign = specure.build_campaign()  # offline phase paid here, untimed

    scenario_stop = spec.stop_predicate()
    if budget_s is None:
        mode, budget = "iterations", float(spec.iterations)
        budget_iterations = spec.iterations
        stop = scenario_stop
    else:
        mode, budget = "budget_s", float(budget_s)
        budget_iterations = _BUDGET_ITERATION_CAP
        deadline = time.monotonic() + budget_s

        def stop(findings) -> bool:
            if time.monotonic() >= deadline:
                return True
            return scenario_stop is not None and scenario_stop(findings)

    run_kwargs: dict = {}
    scratch = None
    if checkpoint_every:
        import tempfile

        from repro.scenarios.checkpoint import (
            checkpoint_record,
            save_checkpoint,
        )

        scratch = tempfile.mkdtemp(prefix="repro-bench-checkpoint-")
        seed = spec.seed

        def on_checkpoint(next_iteration, result):
            save_checkpoint(scratch, 0, checkpoint_record(
                0, seed, next_iteration, campaign, result))

        run_kwargs = {"checkpoint_every": checkpoint_every,
                      "on_checkpoint": on_checkpoint}

    try:
        if telemetry:
            from repro import telemetry as telemetry_mod

            recorder = telemetry_mod.enable()
            try:
                started = time.perf_counter()
                with recorder.span("campaign"):
                    report = campaign.run(budget_iterations, stop_when=stop)
                seconds = time.perf_counter() - started
            finally:
                telemetry_mod.disable()
        else:
            started = time.perf_counter()
            report = campaign.run(budget_iterations, stop_when=stop,
                                  **run_kwargs)
            seconds = time.perf_counter() - started
    finally:
        if scratch is not None:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)

    done = report.fuzz.iterations
    if done == 0:
        raise BenchError(
            f"scenario {spec.name!r} completed no iterations within the "
            f"budget; raise it"
        )
    events = campaign.online.events_examined
    return BenchResult(
        scenario=spec.name,
        mode=mode,
        budget=budget,
        iterations=done,
        seconds=seconds,
        iters_per_sec=done / seconds,
        events_examined=events,
        events_examined_per_iter=events / done,
        cycles=report.stats.cycles,
        instructions=report.stats.instructions,
        coverage=report.fuzz.final_coverage(),
        findings=len(report.fuzz.findings),
        peak_rss_kb=peak_rss_kb(),
        variant=("telemetry" if telemetry
                 else "checkpoint" if checkpoint_every else ""),
    )


# ----------------------------------------------------------------------
# Telemetry overhead: the observability layer must stay near-free
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TelemetryOverheadResult:
    """Paired off/on measurement of one scenario's telemetry cost.

    ``overhead`` is the fractional slowdown of the instrumented run
    (0.02 = the recorder costs 2% of iteration throughput), estimated
    as the **median of per-repeat paired ratios**: each repeat runs
    off then on back-to-back, so slow machine drift (noisy neighbours,
    thermal state) hits both sides of a pair equally and cancels in
    the ratio, and the median discards the outlier pairs a best-of
    comparison would latch onto.  ``off``/``on`` keep each mode's best
    run for the artifact's absolute figures.
    """

    scenario: str
    iterations: int
    repeats: int
    off: BenchResult
    on: BenchResult
    overhead: float


def run_telemetry_overhead(
    scenario: str = "quickstart",
    iterations: int | None = None,
    repeats: int = 3,
) -> TelemetryOverheadResult:
    """Measure the telemetry recorder's iteration-throughput cost.

    Runs the same fixed-iteration protocol ``repeats`` times per mode,
    interleaved off/on so machine drift hits both sides of each pair
    equally; the overhead estimate is the median of the per-pair
    throughput ratios (see :class:`TelemetryOverheadResult`).
    """
    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    spec = _load_spec(scenario)
    budget = iterations if iterations is not None else spec.iterations
    if budget < 1:
        raise BenchError(
            f"scenario {scenario!r} is offline-only; pass --iterations"
        )

    best: dict[bool, BenchResult] = {}
    ratios: list[float] = []
    for _ in range(repeats):
        pair: dict[bool, BenchResult] = {}
        for with_telemetry in (False, True):
            result = run_bench(
                scenario=scenario,
                iterations=budget,
                telemetry=with_telemetry,
            )
            pair[with_telemetry] = result
            incumbent = best.get(with_telemetry)
            if incumbent is None or result.iters_per_sec > incumbent.iters_per_sec:
                best[with_telemetry] = result
        ratios.append(
            pair[False].iters_per_sec / pair[True].iters_per_sec - 1.0
        )
    ratios.sort()
    middle = len(ratios) // 2
    if len(ratios) % 2:
        overhead = ratios[middle]
    else:
        overhead = (ratios[middle - 1] + ratios[middle]) / 2.0
    return TelemetryOverheadResult(
        scenario=spec.name,
        iterations=budget,
        repeats=repeats,
        off=best[False],
        on=best[True],
        overhead=overhead,
    )


def check_telemetry_overhead(
    result: TelemetryOverheadResult,
    max_overhead: float = 0.03,
) -> list[str]:
    """Gate: the instrumented run must stay within ``max_overhead``
    fractional slowdown of the plain run.  Returns failure messages
    (empty = pass).
    """
    failures: list[str] = []
    if result.overhead > max_overhead:
        failures.append(
            f"{result.scenario}@{result.iterations}it: telemetry overhead "
            f"{result.overhead * 100:.2f}% exceeds the "
            f"{max_overhead * 100:g}% ceiling "
            f"({result.off.iters_per_sec:.2f} -> "
            f"{result.on.iters_per_sec:.2f} iters/sec)"
        )
    return failures


def render_telemetry_overhead(result: TelemetryOverheadResult) -> str:
    """Human-readable off/on comparison table."""
    rows = [
        ["telemetry off", f"{result.off.iters_per_sec:.2f}",
         f"{result.off.seconds:.2f}", str(result.off.peak_rss_kb)],
        ["telemetry on", f"{result.on.iters_per_sec:.2f}",
         f"{result.on.seconds:.2f}", str(result.on.peak_rss_kb)],
    ]
    table = ascii_table(
        ["mode", "iters/sec", "seconds", "peak rss (kb)"], rows,
        title=(
            f"Telemetry overhead: {result.scenario} "
            f"@{result.iterations}it (best of {result.repeats})"
        ),
    )
    overhead = max(0.0, result.overhead)
    return f"{table}\noverhead: {overhead * 100:.2f}%"


# ----------------------------------------------------------------------
# Checkpoint overhead: mid-shard resilience must stay near-free
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointOverheadResult:
    """Paired off/on measurement of mid-shard checkpointing cost.

    Same estimator as :class:`TelemetryOverheadResult` (median of
    per-repeat paired off/on throughput ratios); the ``on`` side runs
    the scenario's fuzz loop with a real checkpoint snapshot + atomic
    write every ``every`` iterations, exactly as a stored campaign at
    that cadence would.
    """

    scenario: str
    iterations: int
    repeats: int
    every: int
    off: BenchResult
    on: BenchResult
    overhead: float


def run_checkpoint_overhead(
    scenario: str = "quickstart",
    iterations: int | None = None,
    repeats: int = 3,
    every: int = 25,
) -> CheckpointOverheadResult:
    """Measure mid-shard checkpointing's iteration-throughput cost.

    ``every`` defaults to the :class:`ScenarioSpec` default cadence
    (``checkpoint_every = 25``), so the committed gate pins the cost
    every stored campaign pays out of the box.
    """
    if repeats < 1:
        raise BenchError("repeats must be >= 1")
    if every < 1:
        raise BenchError("checkpoint cadence must be >= 1")
    spec = _load_spec(scenario)
    budget = iterations if iterations is not None else spec.iterations
    if budget < 1:
        raise BenchError(
            f"scenario {scenario!r} is offline-only; pass --iterations"
        )

    best: dict[bool, BenchResult] = {}
    ratios: list[float] = []
    for _ in range(repeats):
        pair: dict[bool, BenchResult] = {}
        for with_checkpoints in (False, True):
            result = run_bench(
                scenario=scenario,
                iterations=budget,
                checkpoint_every=every if with_checkpoints else 0,
            )
            pair[with_checkpoints] = result
            incumbent = best.get(with_checkpoints)
            if incumbent is None or \
                    result.iters_per_sec > incumbent.iters_per_sec:
                best[with_checkpoints] = result
        ratios.append(
            pair[False].iters_per_sec / pair[True].iters_per_sec - 1.0
        )
    ratios.sort()
    middle = len(ratios) // 2
    if len(ratios) % 2:
        overhead = ratios[middle]
    else:
        overhead = (ratios[middle - 1] + ratios[middle]) / 2.0
    return CheckpointOverheadResult(
        scenario=spec.name,
        iterations=budget,
        repeats=repeats,
        every=every,
        off=best[False],
        on=best[True],
        overhead=overhead,
    )


def check_checkpoint_overhead(
    result: CheckpointOverheadResult,
    max_overhead: float = 0.03,
) -> list[str]:
    """Gate: checkpointing at the measured cadence must stay within
    ``max_overhead`` fractional slowdown.  Returns failure messages
    (empty = pass).
    """
    failures: list[str] = []
    if result.overhead > max_overhead:
        failures.append(
            f"{result.scenario}@{result.iterations}it: checkpoint overhead "
            f"{result.overhead * 100:.2f}% (cadence {result.every}) exceeds "
            f"the {max_overhead * 100:g}% ceiling "
            f"({result.off.iters_per_sec:.2f} -> "
            f"{result.on.iters_per_sec:.2f} iters/sec)"
        )
    return failures


def render_checkpoint_overhead(result: CheckpointOverheadResult) -> str:
    """Human-readable off/on comparison table."""
    rows = [
        ["checkpoints off", f"{result.off.iters_per_sec:.2f}",
         f"{result.off.seconds:.2f}", str(result.off.peak_rss_kb)],
        [f"every {result.every} iters", f"{result.on.iters_per_sec:.2f}",
         f"{result.on.seconds:.2f}", str(result.on.peak_rss_kb)],
    ]
    table = ascii_table(
        ["mode", "iters/sec", "seconds", "peak rss (kb)"], rows,
        title=(
            f"Checkpoint overhead: {result.scenario} "
            f"@{result.iterations}it (best of {result.repeats})"
        ),
    )
    overhead = max(0.0, result.overhead)
    return f"{table}\noverhead: {overhead * 100:.2f}%"


def parse_scenario_request(request: str) -> tuple[str, int | None]:
    """Parse a ``name`` or ``name@ITERATIONS`` bench request.

    The suffix pins one scenario's iteration budget independently of
    the global ``--iterations`` flag, so a single invocation can
    regenerate an artifact whose entries use different protocols
    (``quickstart@60`` next to ``contract-ablation@40``).
    """
    name, separator, budget = request.partition("@")
    if not separator:
        return request, None
    try:
        iterations = int(budget)
    except ValueError:
        raise BenchError(
            f"invalid scenario request {request!r}: expected NAME or "
            f"NAME@ITERATIONS (e.g. quickstart@60)"
        ) from None
    if iterations < 1:
        raise BenchError(
            f"invalid scenario request {request!r}: iterations must be >= 1"
        )
    return name, iterations


# ----------------------------------------------------------------------
# Executor scaling: timed sharded campaigns at several jobs counts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingResult:
    """Wall-clock scaling of one timed sharded campaign across jobs.

    The measured workload is the paper's time-budgeted campaign shape:
    every shard fuzzes an independent seed stream for the *same*
    wall-clock budget, so ``jobs=N`` runs N budgets concurrently where
    ``jobs=1`` pays them back to back — the wall-clock speedup the
    24-hour runs see from the executor.  ``deterministic`` reports the
    orthogonal correctness property, checked on a fixed-iteration run
    of the same scenario: the merged report is byte-identical across
    jobs counts (completion order must not leak into artifacts).
    """

    scenario: str
    shards: int
    budget_s: float
    wall_seconds: dict[int, float]      # jobs -> campaign wall clock
    iterations: dict[int, int]          # jobs -> iterations completed
    speedup: float | None               # jobs=1 wall / max-jobs wall
    deterministic: bool
    check_iterations: int               # fixed budget of the byte check

    @property
    def key(self) -> str:
        return f"{self.scenario}@{self.shards}x{self.budget_s:g}s-scaling"

    def to_dict(self) -> dict:
        payload = asdict(self)
        # JSON object keys are strings; keep "jobs=N" self-describing.
        payload["wall_seconds"] = {
            f"jobs={jobs}": round(seconds, 3)
            for jobs, seconds in sorted(self.wall_seconds.items())
        }
        payload["iterations"] = {
            f"jobs={jobs}": count
            for jobs, count in sorted(self.iterations.items())
        }
        if self.speedup is not None:
            payload["speedup"] = round(self.speedup, 3)
        payload["key"] = self.key
        return payload


def run_scaling_bench(
    scenario: str = "quickstart",
    shards: int = 4,
    budget_s: float = 2.0,
    jobs_list: tuple[int, ...] = (1, 4),
    check_iterations: int = 12,
) -> ScalingResult:
    """Measure executor scaling on a timed sharded campaign.

    For each jobs count, runs ``shards`` wall-clock-budgeted shards of
    the scenario through the shard executor — inline at ``jobs=1``, on
    the worker fleet otherwise — and records the campaign's total wall
    time.  A small warm-up run per jobs count pays the one-time fleet
    fork and per-worker statics (netlist + offline phase) *outside* the
    measurement, mirroring steady-state campaign service.  Separately,
    a fixed-iteration run of the same scenario at the smallest and
    largest jobs counts pins byte-identical merged reports
    (``deterministic``).
    """
    import time

    from repro.harness.parallel import run_shards

    if shards < 1:
        raise BenchError("shards must be >= 1")
    if budget_s <= 0:
        raise BenchError("budget_s must be positive")
    if not jobs_list:
        raise BenchError("jobs_list must name at least one jobs count")
    spec = _load_spec(scenario)
    specure = spec.build_specure()

    wall_seconds: dict[int, float] = {}
    iterations_done: dict[int, int] = {}
    for jobs in jobs_list:
        if jobs < 1:
            raise BenchError("every jobs count must be >= 1")
        # Pay the one-time costs off the clock for *every* jobs count —
        # fleet fork + per-worker statics when multi-process, in-process
        # statics (netlist + offline phase) when inline — so the speedup
        # compares steady-state executors, not cold-start asymmetry.
        run_shards(specure, shards, jobs, seconds=0.05)
        started = time.perf_counter()
        merged = run_shards(specure, shards, jobs, seconds=budget_s)
        wall_seconds[jobs] = time.perf_counter() - started
        iterations_done[jobs] = merged.fuzz.iterations

    speedup = None
    slowest = min(jobs_list)
    fastest = max(jobs_list)
    if slowest != fastest:
        speedup = wall_seconds[slowest] / wall_seconds[fastest]

    # Determinism: fixed-iteration merged reports must not depend on the
    # jobs count (completion order is reassembled by unit id).
    low, high = (
        run_shards(specure, shards, jobs, iterations=check_iterations)
        for jobs in (slowest, fastest)
    )
    deterministic = (
        low.render(include_timings=False) == high.render(include_timings=False)
    )

    return ScalingResult(
        scenario=spec.name,
        shards=shards,
        budget_s=float(budget_s),
        wall_seconds=wall_seconds,
        iterations=iterations_done,
        speedup=speedup,
        deterministic=deterministic,
        check_iterations=check_iterations,
    )


def check_scaling(scaling: ScalingResult,
                  min_speedup: float) -> list[str]:
    """Gate lines for a scaling measurement (empty = passed)."""
    failures = []
    if scaling.speedup is not None and scaling.speedup < min_speedup:
        jobs = max(scaling.wall_seconds)
        failures.append(
            f"{scaling.key}: jobs={jobs} is only "
            f"{scaling.speedup:.2f}x faster than jobs=1 "
            f"(required >= {min_speedup:.2f}x)"
        )
    if not scaling.deterministic:
        failures.append(
            f"{scaling.key}: fixed-iteration merged reports differ "
            f"across jobs counts — the executor leaked completion order "
            f"into artifacts"
        )
    return failures


def render_scaling(scaling: ScalingResult) -> str:
    """Human-readable scaling table."""
    rows = [
        [f"jobs={jobs}", f"{seconds:.2f}",
         scaling.iterations.get(jobs, 0)]
        for jobs, seconds in sorted(scaling.wall_seconds.items())
    ]
    table = ascii_table(
        ["executor", "wall seconds", "iterations"],
        rows,
        title=f"Executor scaling: {scaling.scenario}, {scaling.shards} "
              f"timed shards x {scaling.budget_s:g}s",
    )
    if scaling.speedup is not None:
        table += f"\nwall-clock speedup: {scaling.speedup:.2f}x"
    table += ("\nmerged reports byte-identical across jobs counts: "
              + ("yes" if scaling.deterministic else "NO"))
    return table


# ----------------------------------------------------------------------
# Artifact emission and the CI gate
# ----------------------------------------------------------------------

def baseline_entries(baseline: dict) -> dict[str, dict]:
    """A baseline's per-protocol entries, keyed like :attr:`BenchResult.key`.

    Handles both baseline shapes: the legacy single-scenario dicts
    (``PRE_PR_BASELINE``/``PR4_CONTRACT_BASELINE``) and the multi-entry
    form (``PR5_BASELINE``) whose ``entries`` table carries one
    denominator per protocol-qualified key.
    """
    if "entries" in baseline:
        return dict(baseline["entries"])
    protocol = baseline["protocol"]
    suffix = "it" if protocol["mode"] == "iterations" else "s"
    key = f"{baseline['scenario']}@{protocol['value']:g}{suffix}"
    return {key: baseline}


def speedups_vs_baseline(results: list[BenchResult],
                         baseline: dict) -> dict[str, float]:
    """Per-protocol iterations/sec speedups of the fresh results.

    Only a run replaying a baseline entry's own protocol (same scenario,
    same mode, same budget) produces a speedup figure — any other shape
    would compare different workloads.
    """
    entries = baseline_entries(baseline)
    speedups: dict[str, float] = {}
    for result in results:
        reference = entries.get(result.key)
        if reference is not None:
            speedups[result.key] = \
                result.iters_per_sec / reference["iters_per_sec"]
    return speedups


def speedup_vs_baseline(results: list[BenchResult],
                        baseline: dict = PRE_PR_BASELINE) -> float | None:
    """The single-baseline speedup figure (legacy artifact shape).

    For multi-entry baselines, the first matching entry's speedup is
    returned (``speedups_vs_baseline`` carries the full map).
    """
    speedups = speedups_vs_baseline(results, baseline)
    if not speedups:
        return None
    return next(iter(speedups.values()))


def artifact_tag(path: str | Path) -> str:
    """The bench tag of an artifact path (``BENCH_pr4.json`` → ``pr4``)."""
    stem = Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def baseline_for(path: str | Path) -> dict:
    """The committed baseline an artifact path compares against.

    ``BENCH_pr3.json`` carries the pre-PR-3 quickstart figure and
    ``BENCH_pr4.json`` the contract-pathway introduction figure; any
    other path defaults to the quickstart baseline.
    """
    return BASELINES.get(artifact_tag(path), PRE_PR_BASELINE)


def emit_bench(
    results: list[BenchResult],
    path: str | Path = "BENCH_pr3.json",
    baseline: dict | None = None,
    scaling: "ScalingResult | None" = None,
    extra: dict | None = None,
) -> dict:
    """Write the machine-readable bench artifact; returns its payload.

    The payload carries both sides of the before/after story: the
    committed ``baseline`` (chosen per artifact via
    :func:`baseline_for` unless given explicitly) and the fresh
    ``results``, plus the derived ``speedup_vs_baseline`` when the
    baseline scenario was run.  The ``bench`` tag is derived from the
    artifact's file name, so ``BENCH_pr3.json`` and ``BENCH_pr4.json``
    (the contract-mode entry) self-identify.  ``extra`` merges
    artifact-specific top-level fields into the payload (e.g. the
    measured ``telemetry_overhead`` fraction in ``BENCH_pr9.json``).
    """
    if baseline is None:
        baseline = baseline_for(path)
    payload = {
        "bench": artifact_tag(path),
        "generated_by": "python -m repro bench",
        "baseline": dict(baseline),
        "results": {result.key: result.to_dict() for result in results},
    }
    speedups = speedups_vs_baseline(results, baseline)
    if speedups:
        payload["speedup_vs_baseline"] = round(next(iter(speedups.values())), 3)
        if len(baseline_entries(baseline)) > 1:
            payload["speedups_vs_baseline"] = {
                key: round(value, 3) for key, value in speedups.items()
            }
    if scaling is not None:
        payload["scaling"] = scaling.to_dict()
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def load_bench(path: str | Path) -> dict:
    """Load a previously emitted bench artifact."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as error:
        raise BenchError(f"cannot read bench artifact {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise BenchError(f"invalid bench artifact {path}: {error}") from None
    if not isinstance(payload, dict) or "results" not in payload:
        raise BenchError(f"bench artifact {path} has no 'results' table")
    return payload


def check_regression(
    results: list[BenchResult],
    committed: dict,
    max_regression: float = 0.25,
) -> list[str]:
    """Compare fresh results against a committed artifact's numbers.

    Returns human-readable failure lines (empty = gate passed).  Two
    checks per scenario, matched by protocol-qualified key (scenarios
    absent from the committed artifact are skipped — new benches are
    not gated):

    * **iterations/sec** must not drop more than ``max_regression``
      below the committed figure.  Wall clock varies across machines,
      so the committed number should come from hardware comparable to
      the gate's runner;
    * **events-examined/iteration** — machine-independent analysis
      work — must not *rise* more than ``max_regression`` above the
      committed figure.  This catches algorithmic regressions (a
      de-indexed query path, a lost memo) even when the gate runs on a
      faster machine that would hide them from the wall-clock check.
    """
    failures = []
    committed_results = committed.get("results", {})
    for result in results:
        reference = committed_results.get(result.key)
        if reference is None:
            continue
        floor = reference["iters_per_sec"] * (1.0 - max_regression)
        if result.iters_per_sec < floor:
            failures.append(
                f"{result.key}: {result.iters_per_sec:.2f} iters/sec "
                f"is a >{max_regression:.0%} regression vs the committed "
                f"{reference['iters_per_sec']:.2f} (floor {floor:.2f})"
            )
        reference_events = reference.get("events_examined_per_iter")
        # Only fixed-iteration runs execute a machine-independent
        # workload; in budget mode a faster runner completes more
        # iterations, and events/iter legitimately grows as a campaign
        # progresses, so the comparison would be spurious there.
        if reference_events and result.mode == "iterations":
            ceiling = reference_events * (1.0 + max_regression)
            if result.events_examined_per_iter > ceiling:
                failures.append(
                    f"{result.key}: {result.events_examined_per_iter:.0f} "
                    f"events-examined/iter is a >{max_regression:.0%} "
                    f"regression vs the committed {reference_events:.0f} "
                    f"(ceiling {ceiling:.0f})"
                )
    return failures


def render_bench_list() -> str:
    """The benchable-scenario listing behind ``python -m repro bench --list``.

    One row per registry scenario: the protocol its own budget implies
    (offline-only scenarios need an explicit wall-clock budget), and the
    committed baseline figure when any committed bench artifact's
    baseline carries an entry for that protocol.
    """
    from repro.scenarios import get_scenario, scenario_names

    committed: dict[str, dict] = {}
    for baseline in BASELINES.values():
        committed.update(baseline_entries(baseline))

    rows = []
    for name in scenario_names():
        spec = get_scenario(name)
        if spec.iterations == 0:
            protocol = "offline-only (needs --budget-s)"
        else:
            protocol = f"{name}@{spec.iterations:g}it"
        # A committed baseline may pin a different protocol than the
        # scenario's own budget (the gate replays the baseline's): show
        # whatever entry exists for this scenario.
        reference = "-"
        for key, entry in committed.items():
            if entry.get("scenario", key.partition("@")[0]) == name:
                reference = f"{key}: {entry['iters_per_sec']:.2f} iters/sec"
                break
        rows.append([name, protocol, reference])
    table = ascii_table(
        ["scenario", "bench protocol", "committed baseline"],
        rows,
        title="Benchable scenarios (protocol = scenario's own budget)",
    )
    return (
        table
        + "\nbench any entry with: python -m repro bench --scenario "
        + "NAME[@ITERATIONS] [--budget-s S]"
    )


def render_bench(results: list[BenchResult],
                 baseline: dict = PRE_PR_BASELINE) -> str:
    """Human-readable results table (with the baseline rows for context)."""
    rows = []
    for key, entry in baseline_entries(baseline).items():
        rows.append([
            f"{key} (pre-PR baseline)",
            entry.get("iterations", entry["protocol"]["value"]),
            f"{entry['iters_per_sec']:.2f}",
            f"{entry['events_examined_per_iter']:.0f}",
            f"{entry['peak_rss_kb']:,}",
        ])
    for result in results:
        rows.append([
            result.key,
            result.iterations,
            f"{result.iters_per_sec:.2f}",
            f"{result.events_examined_per_iter:.0f}",
            f"{result.peak_rss_kb:,}",
        ])
    table = ascii_table(
        ["scenario", "iterations", "iters/sec", "events/iter", "peak RSS (KiB)"],
        rows,
        title="Campaign bench: per-iteration hot path",
    )
    speedups = speedups_vs_baseline(results, baseline)
    for key, speedup in speedups.items():
        table += f"\nspeedup vs pre-PR baseline ({key}): {speedup:.2f}x"
    return table
