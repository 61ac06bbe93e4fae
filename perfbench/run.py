"""Outside-in benchmark of the Specure reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload ift-hunt --seed 1 --seconds 20 --trace 0

Each workload repeats *units* until ``--seconds`` have passed.  A unit
is one campaign built from scratch through the public API — a
:class:`~repro.scenarios.spec.ScenarioSpec` from the registry, then
``build_specure().build_campaign().run(...)``, or ``run_scenario`` with
a run directory for ``stored-run`` — at a campaign seed derived from
the workload seed and the unit's index.  Process-wide decode caches are
emptied before every unit, so every campaign pays its own misses.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same units untraced and then again with per-layer timers
(:mod:`layers`), checks that both produce identical fingerprints, and
prints the per-layer split plus the tracing overhead.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
#: Worker processes a stored run may use (the reference host has 2 vCPUs).
JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    #: Fuzz iterations per unit (per shard for ``stored``).
    iterations: int
    #: Finding kind whose first appearance a unit times (hunt metrics).
    target: str | None = None
    #: Drive the unit through ``run_scenario`` with a run directory.
    stored: bool = False


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("ift-hunt", "spectre-v1-no-seeds", 12, target="spectre_v1"),
        Workload("contract-fuzz", "contract-ablation", 8),
        Workload("rtl-fuzz", "spec-cpu-quickstart", 100),
        Workload("stored-run", "dcache-monitor-sweep", 1, stored=True),
    )
}

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MiB"),
    ("completed_frac", "fraction"),
)

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER = (
    ("boom.run_s", "s"), ("boom.runs", "count"),
    ("boom.sim_cycles", "count"), ("boom.us_per_cycle", "us"),
    ("puts.rtl.run_s", "s"), ("puts.rtl.runs", "count"),
    ("puts.rtl.sim_cycles", "count"), ("puts.rtl.us_per_cycle", "us"),
    ("detection.windows_s", "s"), ("detection.leaks_s", "s"),
    ("detection.vulnerability_s", "s"), ("detection.windows", "count"),
    ("detection.mispredicted_windows", "count"),
    ("coverage.lp_s", "s"), ("coverage.new_items", "count"),
    ("rtl.trace.events_examined", "count"),
    ("contracts.detect_self_s", "s"), ("contracts.variant_run_s", "s"),
    ("contracts.variant_runs", "count"), ("contracts.hwtrace_s", "s"),
    ("contracts.violations", "count"),
    ("online.simulate_s", "s"), ("online.analysis_s", "s"),
    ("golden.trace_s", "s"), ("golden.memo_hits", "count"),
    ("golden.memo_misses", "count"), ("golden.memo_hit_frac", "fraction"),
    ("golden.memo_size", "count"),
    ("golden.predecode_hits", "count"), ("golden.predecode_misses", "count"),
    ("golden.predecode_size", "count"),
    ("isa.decode_hits", "count"), ("isa.decode_misses", "count"),
    ("isa.decode_size", "count"),
    ("fuzz.mutate_s", "s"), ("fuzz.trim_s", "s"),
    ("fuzz.trim_probes", "count"), ("fuzz.trim_probes_per_finding", "count"),
    ("core.offline_s", "s"),
    ("scenarios.store.write_s", "s"), ("scenarios.store.bytes", "B"),
    ("harness.parallel.wait_s", "s"), ("harness.merge_s", "s"),
    ("hunt.time_to_detect_s", "s"), ("hunt.detect_rate", "fraction"),
    ("loop.iters_per_s", "it/s"), ("loop.run_wall_s", "s"),
    ("loop.wall_s", "s"), ("loop.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"), ("setup.import_s", "s"),
    ("host.speed", "x"),
)


#: Keys the host-speed probe stores and looks up: a fixed dict-heavy
#: pure-Python loop, timed between units, that no change to the program
#: can speed up.
PROBE_KEYS = 20_000
#: The probe's duration on an unloaded host of the reference machine;
#: unit times are scaled by ``PROBE_NOMINAL_S / probe`` (see README).
PROBE_NOMINAL_S = 0.0075


def probe_seconds() -> float:
    """How long the fixed probe loop takes on the host right now."""
    started = perf_counter()
    table = {}
    for i in range(PROBE_KEYS):
        table[i * 7919 % 100_003] = i
    total = 0
    for i in range(PROBE_KEYS):
        total += table.get(i * 31 % 100_003, 0)
    return perf_counter() - started


class BenchFailure(RuntimeError):
    """An output check failed: the run reports ``correct: false``."""


def unit_seed(workload: str, seed: int, index: int) -> int:
    """The campaign seed of one unit (31 bits, stable across runs)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def clear_caches() -> None:
    """Empty every process-wide cache a campaign fills as it runs, so
    each unit starts from a cold process state like a fresh CLI run."""
    from repro.golden.iss import _predecoded_image
    from repro.harness import parallel
    from repro.isa.instructions import decode
    from repro.puts.spec_cpu import spec_cpu_design

    decode.cache_clear()
    _predecoded_image.cache_clear()
    spec_cpu_design.cache_clear()
    parallel._WORKER_STATICS.clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(record: dict) -> str:
    keys = ("seed", "iterations", "cycles", "instret", "coverage",
            "findings", "report_sha256")
    blob = json.dumps({key: record.get(key) for key in keys},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _setup(workload: Workload, seed: int):
    """Build the unit's spec and campaign; returns (spec, campaign, s)."""
    from repro.scenarios import get_scenario

    started = perf_counter()
    # Units run their full budget; hunts time the target instead.
    spec = get_scenario(workload.scenario).override(
        seed=seed, iterations=workload.iterations, stop_kind=None)
    campaign = spec.build_specure().build_campaign()
    return spec, campaign, perf_counter() - started


def run_loop_unit(workload: Workload, seed: int) -> dict:
    clear_caches()
    spec, campaign, setup_s = _setup(workload, seed)
    detected_at = None

    def watch(findings) -> bool:
        nonlocal detected_at
        if detected_at is None and any(
                finding.kind == workload.target for finding in findings):
            detected_at = perf_counter()
        return False

    started = perf_counter()
    report = campaign.run(spec.iterations,
                          stop_when=watch if workload.target else None)
    loop_s = perf_counter() - started
    fuzz = report.fuzz
    if fuzz.iterations != spec.iterations:
        raise BenchFailure(f"unit {seed}: {fuzz.iterations} of "
                           f"{spec.iterations} iterations ran")
    if any(b < a for a, b in zip(fuzz.coverage_curve,
                                 fuzz.coverage_curve[1:])):
        raise BenchFailure(f"unit {seed}: coverage curve decreases")
    findings = [(f.kind, f.iteration) for f in fuzz.findings]
    return {
        "seed": seed,
        "setup_s": setup_s,
        "loop_s": loop_s,
        "wall_s": setup_s + loop_s,
        "iterations": fuzz.iterations,
        "cycles": report.stats.cycles,
        "instret": report.stats.instructions,
        "coverage": fuzz.final_coverage(),
        "findings": findings,
        "failed": sum(1 for kind, _ in findings if kind == "crash"),
        "attempted": fuzz.iterations,
        "detect_s": None if detected_at is None else detected_at - started,
        "stats": report.stats,
    }


def run_stored_unit(workload: Workload, seed: int, index: int,
                    replay: bool = False) -> dict:
    from repro.harness.parallel import shutdown_pool
    from repro.scenarios import replay_findings, run_scenario

    clear_caches()
    spec, _, setup_s = _setup(workload, seed)
    run_dir = Path.cwd() / ".perfbench_runs" / f"{os.getpid()}-{index}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.parent.mkdir(exist_ok=True)
    try:
        started = perf_counter()
        outcome = run_scenario(spec, run_dir, jobs=JOBS, minimize=True)
        wall_s = perf_counter() - started
        report_path = run_dir / "report.txt"
        if outcome.store is None or not report_path.is_file():
            raise BenchFailure(f"unit {seed}: no finalized report.txt")
        report_sha = hashlib.sha256(report_path.read_bytes()).hexdigest()
        store_bytes = sum(path.stat().st_size
                          for path in run_dir.rglob("*") if path.is_file())
        if replay:
            unconfirmed = [r for r in replay_findings(run_dir)
                           if not r.confirmed]
            if unconfirmed:
                raise BenchFailure(
                    f"unit {seed}: {len(unconfirmed)} stored findings do "
                    f"not replay")
    finally:
        # One CLI run forks its own workers; so does every unit.
        shutdown_pool()
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()
    report = outcome.report
    fuzz = report.fuzz
    findings = [(f.kind, f.iteration) for f in fuzz.findings]
    return {
        "seed": seed,
        "setup_s": setup_s,
        "loop_s": wall_s,
        "wall_s": setup_s + wall_s,
        "iterations": fuzz.iterations,
        "cycles": report.stats.cycles,
        "instret": report.stats.instructions,
        "coverage": fuzz.final_coverage(),
        "findings": findings,
        "report_sha256": report_sha,
        "failed": len(outcome.quarantined)
        + sum(1 for kind, _ in findings if kind == "crash"),
        "attempted": spec.shards,
        "store_bytes": store_bytes,
        "detect_s": None,
        "stats": report.stats,
    }


def run_unit(workload: Workload, seed: int, index: int,
             replay: bool = False) -> dict:
    if workload.stored:
        record = run_stored_unit(workload, seed, index, replay=replay)
    else:
        record = run_loop_unit(workload, seed)
    record["fingerprint"] = fingerprint(record)
    return record


def run_units(workload: Workload, seed: int, seconds: float,
              tracer=None) -> tuple[list[dict], list[dict]]:
    """Units at successive derived seeds until ``seconds`` have passed.

    With a ``tracer`` every unit runs twice, untraced and then with the
    layer timers installed; returns (untraced records, traced records).
    """
    import layers

    records, traced = [], []
    deadline = perf_counter() + seconds
    probe = probe_seconds()
    while not records or perf_counter() < deadline:
        index = len(records)
        seed_i = unit_seed(workload.name, seed, index)
        record = run_unit(workload, seed_i, index, replay=index == 0)
        # Host speed around the unit, from the probes before and after.
        after = probe_seconds()
        record["speed"] = 2 * PROBE_NOMINAL_S / (probe + after)
        probe = after
        records.append(record)
        if tracer is None:
            continue
        undo = layers.install(tracer)
        try:
            traced.append(run_unit(workload, seed_i, index))
            _count_caches(tracer)
        finally:
            undo()
        if traced[-1]["fingerprint"] != records[-1]["fingerprint"]:
            raise BenchFailure(
                f"unit {seed_i}: traced fingerprint "
                f"{traced[-1]['fingerprint']} differs from untraced "
                f"{records[-1]['fingerprint']}")
    return records, traced


def end_to_end(records: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": statistics.median(r["setup_s"] * r["speed"]
                                     for r in records),
        "cycles_per_s": sum(r["cycles"] for r in records)
        / sum(r["loop_s"] * r["speed"] for r in records),
        "peak_rss_mb": peak_rss_mb(),
        "completed_frac": 1.0 - failed / attempted,
    }


def per_layer(records: list[dict], tracer, untraced: list[dict],
              workload: Workload, import_s: float) -> dict:
    seconds, counts = tracer.seconds, tracer.counts
    wall = sum(r["wall_s"] for r in records)

    def per_cycle(prefix):
        cycles = counts[f"{prefix}.sim_cycles"]
        return 1e6 * seconds[prefix] / cycles if cycles else 0.0

    hits, misses = counts["golden.memo_hits"], counts["golden.memo_misses"]
    trimmed = counts["fuzz.trim"]
    # Rates come from the untraced units, the split from the traced ones.
    hunts = [r for r in untraced if workload.target]
    values = {
        "boom.run_s": seconds["boom"], "boom.runs": counts["boom"],
        "boom.sim_cycles": counts["boom.sim_cycles"],
        "boom.us_per_cycle": per_cycle("boom"),
        "puts.rtl.run_s": seconds["puts.rtl"],
        "puts.rtl.runs": counts["puts.rtl"],
        "puts.rtl.sim_cycles": counts["puts.rtl.sim_cycles"],
        "puts.rtl.us_per_cycle": per_cycle("puts.rtl"),
        "detection.windows_s": seconds["detection.windows"],
        "detection.leaks_s": seconds["detection.leaks"],
        "detection.vulnerability_s": seconds["detection.vulnerability"],
        "detection.windows": counts["detection.windows"],
        "detection.mispredicted_windows":
            counts["detection.mispredicted_windows"],
        "coverage.lp_s": seconds["coverage.lp"],
        "coverage.new_items": sum(r["coverage"] for r in records),
        "rtl.trace.events_examined": counts["rtl.trace.events_examined"],
        "contracts.detect_self_s": tracer.self_seconds["contracts.detect"],
        "contracts.variant_run_s": seconds["contracts.variant_run"],
        "contracts.variant_runs": counts["contracts.variant_run"],
        "contracts.hwtrace_s": seconds["contracts.hwtrace"],
        "contracts.violations": counts["contracts.violations"],
        "online.simulate_s": sum(r["stats"].simulate_seconds
                                 for r in records),
        "online.analysis_s": sum(r["stats"].analysis_seconds
                                 for r in records),
        "golden.trace_s": seconds["golden.trace"],
        "golden.memo_hits": hits, "golden.memo_misses": misses,
        "golden.memo_hit_frac": hits / (hits + misses) if hits + misses
        else 0.0,
        "golden.memo_size": counts["golden.memo_size"],
        "fuzz.mutate_s": seconds["fuzz.mutate"],
        "fuzz.trim_s": seconds["fuzz.trim"],
        "fuzz.trim_probes": counts["fuzz.trim_probes"],
        "fuzz.trim_probes_per_finding":
            counts["fuzz.trim_probes"] / trimmed if trimmed else 0.0,
        "core.offline_s": seconds["core.offline"],
        "scenarios.store.write_s": seconds["scenarios.store"],
        "scenarios.store.bytes": sum(r.get("store_bytes", 0)
                                     for r in records),
        "harness.parallel.wait_s": seconds["harness.parallel.wait"],
        "harness.merge_s": seconds["harness.merge"],
        # A unit that never detects counts its whole loop.
        "hunt.time_to_detect_s": sum(
            r["speed"] * (r["loop_s"] if r["detect_s"] is None
                          else r["detect_s"])
            for r in hunts),
        "hunt.detect_rate": sum(r["detect_s"] is not None for r in hunts)
        / len(hunts) if hunts else 0.0,
        "loop.iters_per_s": sum(r["iterations"] for r in untraced)
        / sum(r["loop_s"] * r["speed"] for r in untraced),
        "loop.run_wall_s": statistics.fmean(r["wall_s"] * r["speed"]
                                            for r in untraced),
        "loop.wall_s": wall,
        "loop.unattributed_s": wall - tracer.attributed_seconds(),
        "trace.overhead_frac":
            sum(r["loop_s"] for r in records)
            / sum(r["loop_s"] for r in untraced) - 1.0,
        "setup.import_s": import_s,
        "host.speed": statistics.median(r["speed"] for r in untraced),
    }
    for name in ("golden.predecode_hits", "golden.predecode_misses",
                 "golden.predecode_size", "isa.decode_hits",
                 "isa.decode_misses", "isa.decode_size"):
        values[name] = counts[name]
    return values


def _count_caches(tracer) -> None:
    """Add this process's decode-cache counters for the unit just run
    (caches are emptied before each unit) to the tracer."""
    from layers import cache_counters

    for name, value in cache_counters().items():
        if name.endswith("_size"):
            tracer.counts[name] = max(tracer.counts[name], value)
        else:
            tracer.counts[name] += value


def measure(workload: Workload, seed: int, seconds: float,
            trace: bool, import_s: float) -> tuple[dict, int, int]:
    """Run the workload; returns (metrics, attempted, failed)."""
    import layers

    # One discarded warm-up unit, like Revizor's executor_warmups: the
    # process's one-time costs (lazy imports, first allocations) must
    # not land in the first measured unit.
    run_unit(workload, unit_seed(workload.name, seed, -1), -1)
    tracer = layers.Tracer() if trace else None
    records, traced = run_units(workload, seed, seconds, tracer)
    for record in records:
        print(f"unit {record['seed']}: fingerprint {record['fingerprint']} "
              f"wall {record['wall_s']:.3f}s", file=sys.stderr)
    check_reference(workload, seed, records[0]["fingerprint"])
    if trace:
        metrics = per_layer(traced, tracer, records, workload, import_s)
    else:
        # The same unit again must reproduce its fingerprint exactly.
        repeat = run_unit(workload, records[0]["seed"], len(records))
        if repeat["fingerprint"] != records[0]["fingerprint"]:
            raise BenchFailure(
                f"unit {records[0]['seed']} is not deterministic: "
                f"{records[0]['fingerprint']} then {repeat['fingerprint']}")
        metrics = end_to_end(records)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return metrics, attempted, failed


def check_reference(workload: Workload, seed: int, value: str) -> None:
    """Report (not fail) a first-unit fingerprint that differs from the
    one recorded in ``fingerprints.json``: simulated behaviour changed."""
    reference = json.loads((HERE / "fingerprints.json").read_text())
    expected = reference["first_unit"].get(workload.name, {}).get(str(seed))
    if expected is not None and expected != value:
        print(f"note: {workload.name} seed {seed} first-unit fingerprint "
              f"{value} differs from the recorded {expected}; simulated "
              f"behaviour changed", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro under the current directory; run "
              "from the repository root", file=sys.stderr)
        return 2
    # A chaos plan in the environment would inject faults into units.
    os.environ.pop("REPRO_CHAOS", None)
    started = perf_counter()
    sys.path[:0] = [str(source), str(HERE)]
    import repro.scenarios  # noqa: F401  (one-time import cost)

    import_s = perf_counter() - started
    workload = WORKLOADS[args.workload]
    try:
        metrics, attempted, failed = measure(
            workload, args.seed, args.seconds, bool(args.trace), import_s)
    except BenchFailure as error:
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
