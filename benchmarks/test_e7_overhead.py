"""E7 — §4.2 runtime overhead: Specure vs TheHuzz-style fuzzing.

Paper: "Specure still incurs a runtime overhead of 82% higher than
TheHuzz due to snapshots processing and coverage metric computation."

Here: both pipelines evaluate the *same* input set — the special seeds
plus mutants — and we compare per-input wall time.  The enforced shape
is the paper's *mechanism*: Specure's extra cost over raw simulation
lives in the analysis stage (window extraction, snapshot diffing, LP
computation), and both pipelines drive the same simulator at comparable
cost.  The 82% figure itself is historical: since the columnar trace
engine landed (PR 5), the analysis stage costs *less* than the
golden-model run TheHuzz adds per input, so the measured overhead vs
TheHuzz is emitted for the record but its sign is no longer pinned.
"""

import time

import pytest

from repro.baselines.thehuzz import TheHuzz
from repro.core.specure import Specure
from repro.fuzz.mutations import MutationEngine
from repro.fuzz.seeds import special_seeds
from repro.utils.rng import DeterministicRng
from repro.utils.text import ascii_table

from benchmarks.conftest import campaign_spec, emit

PROGRAMS = 40
PAPER_OVERHEAD_PERCENT = 82.0


def shared_inputs():
    rng = DeterministicRng(77)
    engine = MutationEngine(rng)
    programs = list(special_seeds())
    while len(programs) < PROGRAMS:
        base = programs[len(programs) % 3]
        programs.append(engine.mutate(base, rounds=2))
    return programs


def measure(vuln_core, offline):
    programs = shared_inputs()

    specure = Specure(campaign_spec(seed=1, coverage="lp",
                                    monitor_dcache=True), offline=offline)
    online = specure.build_online()
    started = time.perf_counter()
    for program in programs:
        online.evaluate(program)
    specure_seconds = time.perf_counter() - started

    thehuzz = TheHuzz(vuln_core, seed=1)
    started = time.perf_counter()
    for index, program in enumerate(programs):
        thehuzz.evaluate(index, program)
    thehuzz_seconds = time.perf_counter() - started

    return online, thehuzz, specure_seconds, thehuzz_seconds


def test_e7_runtime_overhead(benchmark, vuln_core, offline):
    online, thehuzz, specure_seconds, thehuzz_seconds = benchmark.pedantic(
        measure, args=(vuln_core, offline), rounds=1, iterations=1
    )
    overhead = 100.0 * (specure_seconds - thehuzz_seconds) / thehuzz_seconds
    rows = [
        ["Specure (LP + snapshots + detectors)",
         f"{1000 * specure_seconds / PROGRAMS:.1f} ms",
         f"{online.stats.simulate_seconds:.2f} s",
         f"{online.stats.analysis_seconds:.2f} s"],
        ["TheHuzz-style (code cov + golden model)",
         f"{1000 * thehuzz_seconds / PROGRAMS:.1f} ms",
         f"{thehuzz.stats.simulate_seconds:.2f} s",
         f"{thehuzz.stats.golden_seconds + thehuzz.stats.coverage_seconds:.2f} s"],
    ]
    emit(ascii_table(
        ["pipeline", "per input", "simulation", "analysis"],
        rows,
        title=f"E7 (§4.2): runtime overhead over {PROGRAMS} identical inputs",
    ))
    emit(f"measured overhead: {overhead:+.0f}%   (paper: +{PAPER_OVERHEAD_PERCENT}%)")

    # Shape 1: the analysis overhead the paper attributes to snapshot
    # processing and coverage computation is a *material* share of the
    # per-input cost, not rounding noise — at least 2% of simulation
    # time (it ran at ~80%+ of it pre-columnar-engine).
    assert online.stats.analysis_seconds > \
        0.02 * online.stats.simulate_seconds
    # Shape 2: the overhead lives in analysis, not simulation — Specure
    # adds no PUT instrumentation, so both pipelines drive the same
    # simulator at comparable per-input cost.
    sim_ratio = online.stats.simulate_seconds / max(
        thehuzz.stats.simulate_seconds, 1e-9
    )
    assert 0.5 < sim_ratio < 2.0  # same simulator, same inputs
    # Shape 3 (cross-pipeline sanity): whatever the sign of the
    # overhead, Specure must stay within a small factor of the
    # golden-model pipeline on identical inputs — a pathological
    # analysis regression fails here.
    assert specure_seconds < 3.0 * thehuzz_seconds
