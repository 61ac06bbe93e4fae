"""The bench suite: pinned campaign protocols in, gated numbers out.

A protocol key names one measurement:

* ``NAME@Nit`` — a serial campaign of scenario NAME for N iterations;
* ``NAME@Ss`` — the same under a wall-clock budget of S seconds;
* ``NAME@Nit+VARIANT`` — a paired measurement of the plain protocol
  against its ``telemetry`` or ``checkpoint`` variant;
* ``NAME@KxSs-scaling`` — K shards of S seconds each at jobs=1 and
  jobs=K, plus a byte-identity check of the merged reports;
* a bare ``NAME`` runs the scenario's own iteration budget.

A serial measurement times the fuzzing loop only (the offline phase is
paid off the clock) and reports **iterations/sec** and
**events-examined/iteration**, the trace layer's query count: a
machine-independent proxy for analysis work per iteration.

``BENCH.json`` keeps a per-key history of recorded entries.  The gate
applies each bound to the strictest figure recorded for the key: the
best iters/sec may drop at most :data:`MAX_REGRESSION`, and on
fixed-iteration protocols the lowest events/iter may rise at most as
much.  Paired variants must cost at most :data:`MAX_OVERHEAD`, and
scaling protocols must reach :data:`MIN_SCALING` with byte-identical
merges.  :func:`record_bench` is the only writer of the file.
"""

from __future__ import annotations

import contextlib
import json
import re
import statistics
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

from repro.core.specure import TIMED_ITERATION_CAP, stop_on_kind
from repro.utils.text import ascii_table

#: The pinned protocols ``python -m repro bench`` runs by default.
SUITE = (
    "quickstart@60it",
    "quickstart@10s",
    "contract-ablation@40it",
    "spec-cpu-quickstart@120it",
    "composed-clauses@40it",
    "quickstart-pruned@60it",
    "quickstart@60it+telemetry",
    "quickstart@60it+checkpoint",
    "quickstart@2x2s-scaling",
)

#: Allowed iters/sec drop below the best recorded figure, and allowed
#: events/iter rise above the lowest one.
MAX_REGRESSION = 0.25
#: Allowed fractional slowdown of a paired variant over its plain run.
MAX_OVERHEAD = 0.03
#: Required jobs=K over jobs=1 wall-clock speedup of a scaling protocol.
MIN_SCALING = 1.2
#: Alternating off/on pairs per paired measurement.
REPEATS = 5
#: The per-protocol history, relative to the working directory.
BENCH_PATH = Path("BENCH.json")

VARIANTS = ("telemetry", "checkpoint")

_NUMBER = r"\d+(?:\.\d+)?"
_KEY = re.compile(
    r"(?P<scenario>[^@+]+)"
    r"(?:@(?:(?P<iterations>\d+)it"
    rf"|(?P<shards>\d+)x(?P<shard_s>{_NUMBER})s-scaling"
    rf"|(?P<budget_s>{_NUMBER})s))?"
    r"(?:\+(?P<variant>\w+))?"
)


class BenchError(ValueError):
    """A bench request that cannot be measured, or an unreadable history."""


class Protocol(NamedTuple):
    """A parsed protocol key (see the module docstring)."""

    scenario: str
    iterations: int | None = None
    budget_s: float | None = None
    variant: str = ""
    shards: int = 0


def parse_protocol(key: str) -> Protocol:
    """Parse a protocol key; malformed keys raise :class:`BenchError`."""
    match = _KEY.fullmatch(key)
    if match is None:
        raise BenchError(
            f"invalid protocol {key!r}: expected NAME, NAME@Nit, NAME@Ss "
            f"or NAME@KxSs-scaling, optionally +telemetry or +checkpoint "
            f"(e.g. quickstart@60it+telemetry)"
        )
    fields = match.groupdict()
    variant = fields["variant"] or ""
    if variant and variant not in VARIANTS:
        raise BenchError(f"invalid protocol {key!r}: unknown variant "
                         f"{variant!r} (choose from {', '.join(VARIANTS)})")
    if fields["shards"]:
        shards = int(fields["shards"])
        if variant or shards < 2:
            raise BenchError(f"invalid protocol {key!r}: a scaling protocol "
                             f"needs >= 2 shards and takes no variant")
        return Protocol(fields["scenario"], budget_s=float(fields["shard_s"]),
                        shards=shards)
    return Protocol(
        fields["scenario"],
        iterations=int(fields["iterations"]) if fields["iterations"] else None,
        budget_s=float(fields["budget_s"]) if fields["budget_s"] else None,
        variant=variant,
    )


def gate_bounds(key: str, entries: list[dict]) -> tuple:
    """The ``(iters/sec floor, events/iter ceiling)`` a key's recorded
    entries impose; ``None`` where nothing is recorded to gate against.

    Only fixed-iteration protocols get a ceiling: under a wall-clock
    budget a faster runner completes more iterations, and events/iter
    legitimately grows as a campaign progresses.
    """
    speeds = [entry["iters_per_sec"] for entry in entries
              if "iters_per_sec" in entry]
    events = [entry["events_examined_per_iter"] for entry in entries
              if entry.get("events_examined_per_iter")]
    floor = max(speeds) * (1.0 - MAX_REGRESSION) if speeds else None
    ceiling = None
    if events and parse_protocol(key).iterations is not None:
        ceiling = min(events) * (1.0 + MAX_REGRESSION)
    return floor, ceiling


@dataclass(frozen=True)
class BenchResult:
    """One serial measurement of a scenario's per-iteration hot path."""

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
    variant: str = ""

    @property
    def key(self) -> str:
        """The protocol key: the gate only compares runs of one shape."""
        unit = "it" if self.mode == "iterations" else "s"
        suffix = f"+{self.variant}" if self.variant else ""
        return f"{self.scenario}@{self.budget:g}{unit}{suffix}"

    def to_dict(self) -> dict:
        return asdict(self)

    def failures(self, entries: list[dict]) -> list[str]:
        """Gate lines against the key's recorded entries (empty = pass)."""
        floor, ceiling = gate_bounds(self.key, entries)
        failures = []
        if floor is not None and self.iters_per_sec < floor:
            failures.append(
                f"{self.key}: {self.iters_per_sec:.2f} iters/sec is a "
                f">{MAX_REGRESSION:.0%} regression (floor {floor:.2f})")
        if ceiling is not None and self.events_examined_per_iter > ceiling:
            failures.append(
                f"{self.key}: {self.events_examined_per_iter:.0f} "
                f"events-examined/iter is a >{MAX_REGRESSION:.0%} "
                f"regression (ceiling {ceiling:.0f})")
        return failures

    def summary(self) -> str:
        return (f"{self.key}: {self.iters_per_sec:.2f} iters/sec, "
                f"{self.events_examined_per_iter:.0f} events/iter "
                f"({self.iterations} iterations in {self.seconds:.2f}s)")


def run_bench(
    scenario: str = "quickstart",
    iterations: int | None = None,
    budget_s: float | None = None,
    variant: str = "",
) -> BenchResult:
    """Measure one scenario's per-iteration hot path.

    Exactly one budget applies: ``budget_s`` runs for a wall-clock
    budget (checked between iterations), otherwise ``iterations``
    (default: the scenario's own budget) runs a fixed count.  The
    scenario's stop condition stays active, so an early stop ends the
    measurement with fewer iterations.

    ``variant="telemetry"`` installs a live span/metric recorder around
    the measured loop.  ``variant="checkpoint"`` snapshots and
    atomically persists a real mid-shard checkpoint at the scenario's
    ``checkpoint_every`` cadence into a scratch directory, exactly as a
    stored campaign does.
    """
    from repro.scenarios import resolve_scenario

    if budget_s is not None and iterations is not None:
        raise BenchError("pass either budget_s or iterations, not both")
    if budget_s is not None and budget_s <= 0:
        raise BenchError("budget_s must be positive")
    if iterations is not None and iterations < 1:
        raise BenchError("iterations must be >= 1")
    if variant and variant not in VARIANTS:
        raise BenchError(f"unknown variant {variant!r}")

    spec = resolve_scenario(scenario)
    if iterations is not None:
        spec = spec.override(iterations=iterations)
    if spec.iterations == 0 and budget_s is None:
        raise BenchError(
            f"scenario {spec.name!r} is offline-only (iterations = 0); "
            f"bench it with a wall-clock budget ({spec.name}@10s)"
        )
    if variant == "checkpoint" and spec.checkpoint_every < 1:
        raise BenchError(f"scenario {spec.name!r} disables checkpoints")

    campaign = spec.build_specure().build_campaign()  # offline, untimed

    if budget_s is None:
        mode, budget = "iterations", float(spec.iterations)
        budget_iterations = spec.iterations
    else:
        mode, budget = "budget_s", float(budget_s)
        budget_iterations = TIMED_ITERATION_CAP
    stop = stop_on_kind(spec.stop_kind, seconds=budget_s)

    hooks: dict = {}
    with contextlib.ExitStack() as stack:
        if variant == "checkpoint":
            from repro.scenarios.checkpoint import (
                checkpoint_record,
                save_checkpoint,
            )

            scratch = stack.enter_context(tempfile.TemporaryDirectory(
                prefix="repro-bench-checkpoint-", ignore_cleanup_errors=True))

            def on_checkpoint(next_iteration, result):
                save_checkpoint(scratch, 0, checkpoint_record(
                    0, spec.seed, next_iteration, campaign, result))

            hooks = {"checkpoint_every": spec.checkpoint_every,
                     "on_checkpoint": on_checkpoint}
        elif variant == "telemetry":
            from repro import telemetry

            stack.callback(telemetry.disable)
            stack.enter_context(telemetry.enable().span("campaign"))
        started = time.perf_counter()
        report = campaign.run(budget_iterations, stop_when=stop, **hooks)
        seconds = time.perf_counter() - started

    done = report.fuzz.iterations
    if done == 0:
        raise BenchError(f"scenario {spec.name!r} completed no iterations "
                         f"within the budget; raise it")
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
        variant=variant,
    )


@dataclass(frozen=True)
class PairedResult:
    """Paired off/on measurement of one variant's throughput cost.

    ``overhead`` is the fractional slowdown of the variant (0.02 = it
    costs 2% of iteration throughput), estimated as the **median of
    per-pair ratios**: each pair runs both sides back to back, so slow
    machine drift hits both equally and cancels in the ratio, and the
    median discards outlier pairs.  ``off``/``on`` keep each side's
    best run; the ``on`` side is gated like a plain protocol.
    """

    off: BenchResult
    on: BenchResult
    overhead: float

    @property
    def key(self) -> str:
        return self.on.key

    def to_dict(self) -> dict:
        return {**self.on.to_dict(), "overhead": round(self.overhead, 4)}

    def failures(self, entries: list[dict]) -> list[str]:
        failures = []
        if self.overhead > MAX_OVERHEAD:
            failures.append(
                f"{self.key}: {self.on.variant} overhead "
                f"{self.overhead:.2%} exceeds the {MAX_OVERHEAD:.0%} "
                f"ceiling ({self.off.iters_per_sec:.2f} -> "
                f"{self.on.iters_per_sec:.2f} iters/sec)")
        return failures + self.on.failures(entries)

    def summary(self) -> str:
        return (f"{self.key}: {self.on.iters_per_sec:.2f} iters/sec vs "
                f"{self.off.iters_per_sec:.2f} without, overhead "
                f"{self.overhead:+.2%}, "
                f"{self.on.events_examined_per_iter:.0f} events/iter")


def run_paired(
    scenario: str = "quickstart",
    iterations: int | None = None,
    budget_s: float | None = None,
    variant: str = "telemetry",
    repeats: int = REPEATS,
) -> PairedResult:
    """Measure ``variant``'s cost against the plain protocol.

    Each of the ``repeats`` pairs runs both sides back to back, and
    the side that runs first alternates from pair to pair so neither
    side always gets the warmer machine.
    """
    best: dict[str, BenchResult] = {}
    ratios = []
    for repeat in range(repeats):
        order = ("", variant) if repeat % 2 == 0 else (variant, "")
        pair = {}
        for side in order:
            pair[side] = result = run_bench(scenario, iterations, budget_s,
                                            variant=side)
            if side not in best or \
                    result.iters_per_sec > best[side].iters_per_sec:
                best[side] = result
        ratios.append(pair[""].iters_per_sec / pair[variant].iters_per_sec
                      - 1.0)
    return PairedResult(off=best[""], on=best[variant],
                        overhead=statistics.median(ratios))


@dataclass(frozen=True)
class ScalingResult:
    """Wall-clock scaling of one timed sharded campaign.

    Every shard fuzzes an independent seed stream for the *same*
    wall-clock budget, so ``jobs=K`` runs K budgets concurrently where
    ``jobs=1`` pays them back to back: the speedup long campaigns see
    from the executor.  ``deterministic`` is checked on a
    fixed-iteration run of the same scenario: the merged report is
    byte-identical across jobs counts (completion order must not leak
    into artifacts).
    """

    scenario: str
    shards: int
    budget_s: float
    wall_seconds: dict[str, float]      # "jobs=N" -> campaign wall clock
    iterations: dict[str, int]          # "jobs=N" -> iterations completed
    speedup: float                      # jobs=1 wall / jobs=K wall
    deterministic: bool
    check_iterations: int               # fixed budget of the byte check

    @property
    def key(self) -> str:
        return f"{self.scenario}@{self.shards}x{self.budget_s:g}s-scaling"

    def to_dict(self) -> dict:
        return asdict(self)

    def failures(self, entries: list[dict]) -> list[str]:
        failures = []
        if self.speedup < MIN_SCALING:
            failures.append(
                f"{self.key}: jobs={self.shards} is only "
                f"{self.speedup:.2f}x faster than jobs=1 "
                f"(required >= {MIN_SCALING:.2f}x)")
        if not self.deterministic:
            failures.append(
                f"{self.key}: fixed-iteration merged reports differ "
                f"across jobs counts — the executor leaked completion "
                f"order into artifacts")
        return failures

    def summary(self) -> str:
        walls = ", ".join(f"{jobs} {seconds:.2f}s"
                          for jobs, seconds in self.wall_seconds.items())
        return (f"{self.key}: {walls} wall, speedup {self.speedup:.2f}x, "
                f"merged reports byte-identical: "
                f"{'yes' if self.deterministic else 'NO'}")


def run_scaling_bench(
    scenario: str = "quickstart",
    shards: int = 2,
    budget_s: float = 2.0,
    check_iterations: int = 12,
) -> ScalingResult:
    """Measure executor scaling on a timed sharded campaign.

    Runs ``shards`` wall-clock-budgeted shards of the scenario inline
    (jobs=1) and on the worker fleet (jobs=shards), timing each
    campaign.  A small warm-up per jobs count pays the fleet fork and
    per-worker statics (netlist + offline phase) off the clock, so the
    speedup compares steady-state executors.  A fixed-iteration run at
    both jobs counts then checks that the merged reports are
    byte-identical.
    """
    from repro.scenarios import resolve_scenario, run_scenario

    if shards < 2:
        raise BenchError("a scaling bench needs >= 2 shards")
    if budget_s <= 0:
        raise BenchError("budget_s must be positive")
    # The scenario's shards, run to the budget alone and failing fast.
    timed = resolve_scenario(scenario).override(
        shards=shards, stop_kind=None, on_shard_failure="fail",
        max_shard_retries=0)

    def merged(spec, jobs: int, seconds: float | None = None):
        return run_scenario(spec, jobs=jobs, minimize=False,
                            seconds=seconds).report

    jobs_counts = (1, shards)
    wall_seconds: dict[str, float] = {}
    iterations_done: dict[str, int] = {}
    for jobs in jobs_counts:
        merged(timed, jobs, seconds=0.05)
        started = time.perf_counter()
        report = merged(timed, jobs, seconds=budget_s)
        wall_seconds[f"jobs={jobs}"] = time.perf_counter() - started
        iterations_done[f"jobs={jobs}"] = report.fuzz.iterations

    fixed = timed.override(iterations=check_iterations)
    low, high = (merged(fixed, jobs) for jobs in jobs_counts)
    return ScalingResult(
        scenario=timed.name,
        shards=shards,
        budget_s=float(budget_s),
        wall_seconds=wall_seconds,
        iterations=iterations_done,
        speedup=wall_seconds["jobs=1"] / wall_seconds[f"jobs={shards}"],
        deterministic=(low.render(include_timings=False)
                       == high.render(include_timings=False)),
        check_iterations=check_iterations,
    )


def measure(key: str) -> BenchResult | PairedResult | ScalingResult:
    """Run the measurement a protocol key names."""
    protocol = parse_protocol(key)
    if protocol.shards:
        return run_scaling_bench(protocol.scenario, protocol.shards,
                                 protocol.budget_s)
    if protocol.variant:
        return run_paired(protocol.scenario, protocol.iterations,
                          protocol.budget_s, protocol.variant)
    return run_bench(protocol.scenario, protocol.iterations,
                     protocol.budget_s)


def check_regression(results, history: dict[str, list[dict]]) -> list[str]:
    """Gate fresh results against the recorded history (empty = pass);
    a key with no recorded entry has no figure to regress from."""
    failures = []
    for result in results:
        failures.extend(result.failures(history.get(result.key, [])))
    return failures


def load_bench(path: str | Path = BENCH_PATH) -> dict[str, list[dict]]:
    """The per-key history table of a bench file."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as error:
        raise BenchError(f"cannot read bench file {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise BenchError(f"invalid bench file {path}: {error}") from None
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("history"), dict):
        raise BenchError(f"bench file {path} has no 'history' table")
    return payload["history"]


def record_bench(results, path: str | Path = BENCH_PATH) -> dict:
    """Append one history entry per result to the bench file (created
    when absent) and return the updated history."""
    path = Path(path)
    history = load_bench(path) if path.exists() else {}
    source = time.strftime("record %Y-%m-%d", time.gmtime())
    for result in results:
        history.setdefault(result.key, []).append(
            {"source": source, **result.to_dict()})
    payload = {"generated_by": "python -m repro bench --record",
               "history": history}
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return history


def _figure(entry: dict) -> str:
    if "wall_seconds" in entry:
        text = f"{entry['speedup']:.2f}x"
    else:
        text = f"{entry['iters_per_sec']:.2f} it/s"
    if "overhead" in entry:
        text += f" {entry['overhead']:+.1%}"
    return f"{text} ({entry['source']})"


def render_bench_list(history: dict[str, list[dict]]) -> str:
    """The ``bench --list`` table: the first and latest recorded entry
    of every suite protocol (and any other recorded key), with the
    bounds the gate derives from the history."""
    rows = []
    for key in (*SUITE, *(key for key in history if key not in SUITE)):
        entries = history.get(key, [])
        floor, ceiling = gate_bounds(key, entries)
        rows.append([
            key,
            _figure(entries[0]) if entries else "-",
            _figure(entries[-1]) if entries else "-",
            f"{floor:.2f}" if floor is not None else "-",
            f"{ceiling:.1f}" if ceiling is not None else "-",
        ])
    table = ascii_table(
        ["protocol", "first", "latest", "it/s floor", "events/iter ceiling"],
        rows, title="Bench suite history (BENCH.json)",
    )
    return (f"{table}\n"
            f"gates: iters/sec >= {1 - MAX_REGRESSION:.0%} of the best "
            f"recorded; events/iter <= {1 + MAX_REGRESSION:.0%} of the "
            f"lowest recorded;\n       variant overhead <= "
            f"{MAX_OVERHEAD:.0%} (median of {REPEATS} alternating pairs); "
            f"scaling >= {MIN_SCALING:g}x, merges byte-identical")
