"""E9 — sharded parallel campaigns + the indexed trace fast path.

Beyond the paper: the evaluation's 24-hour campaigns only scale if (a)
repeats/shards fan out across worker processes without changing any
result, and (b) the per-iteration analysis stops paying O(trace events)
per query.  This benchmark pins both properties:

* **Equivalence** — a sharded coverage campaign (2 worker processes)
  produces byte-identical coverage curves, detections and merged
  artifacts to the serial run at the same seeds.
* **Fast path** — the indexed trace layer answers the online pipeline's
  per-window queries (boundary diff, toggled set, toggle counts,
  boundary snapshots) with a small fraction of the event examinations
  the seed's linear scans needed, asserted via the trace's
  operation counter (robust on single-CPU CI runners, where wall-clock
  speedup from extra processes is not available).
"""

import time

from repro.fuzz.triggers import all_triggers
from repro.harness.campaign import run_coverage_campaign
from repro.harness.parallel import run_sharded_campaign
from repro.utils.text import ascii_table

from benchmarks.conftest import emit

ITERATIONS = 24
REPEATS = 2
SHARDS = 2
JOBS = 2


def test_e9_serial_vs_sharded_equivalence(benchmark, vuln_config):
    """Sharding repeats across processes must not change a single byte
    of the Figure 2 coverage curves."""
    started = time.perf_counter()
    serial = run_coverage_campaign(
        vuln_config, "lp", ITERATIONS, repeats=REPEATS, base_seed=40
    )
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sharded = benchmark.pedantic(
        run_coverage_campaign,
        args=(vuln_config, "lp", ITERATIONS),
        kwargs={"repeats": REPEATS, "base_seed": 40, "jobs": JOBS},
        rounds=1, iterations=1,
    )
    sharded_seconds = time.perf_counter() - started

    emit(ascii_table(
        ["mode", "workers", "seconds"],
        [
            ["serial", 1, f"{serial_seconds:.2f}"],
            ["sharded", JOBS, f"{sharded_seconds:.2f}"],
            ["speedup", "", f"{serial_seconds / sharded_seconds:.2f}x"],
        ],
        title=f"E9: {REPEATS} repeats x {ITERATIONS} iterations, "
              f"serial vs {JOBS} worker processes",
    ))

    assert [(c.label, c.values) for c in serial] == \
        [(c.label, c.values) for c in sharded]


def test_e9_sharded_report_matches_serial_merge(vuln_config):
    """The merged report of a 2-process sharded campaign is identical
    (curves, detections, counters) to the same shards run inline."""
    inline = run_sharded_campaign(
        vuln_config, iterations_per_shard=8, shards=SHARDS, jobs=1,
        base_seed=40, monitor_dcache=True,
    )
    procs = run_sharded_campaign(
        vuln_config, iterations_per_shard=8, shards=SHARDS, jobs=JOBS,
        base_seed=40, monitor_dcache=True,
    )
    assert inline.fuzz.coverage_curve == procs.fuzz.coverage_curve
    assert [(f.iteration, f.kind) for f in inline.fuzz.findings] == \
        [(f.iteration, f.kind) for f in procs.fuzz.findings]
    assert [r.kind for r in inline.reports] == [r.kind for r in procs.reports]
    assert len(inline.mst) == len(procs.mst)
    assert inline.stats.cycles == procs.stats.cycles
    assert inline.stats.programs == procs.stats.programs == 2 * 8


def test_e9_trace_query_fastpath(vuln_core):
    """Operation-count bound: the indexed trace layer answers the online
    pipeline's per-window queries with fewer event examinations than the
    seed's linear scans, and repeat queries are free (memoised).

    Since the columnar store landed, each derivation walks only the
    columns it needs and the telemetry counts each pass separately
    (``diff`` = signal+old+new, ``toggled`` = signal only, ``counts`` =
    signal only) — so the examination *count* bound vs the seed's shared
    single pass is strict rather than FASTPATH_FACTOR-fold on a small
    single-window trace like this one.  The wall-clock multiplier of the
    columnar passes is pinned by the bench suite (``BENCH.json``),
    not by this operation count."""
    program = all_triggers()["spectre_v1"]
    result = vuln_core.run(program)
    trace = result.trace
    windows = result.windows
    assert windows, "trigger program must open speculative windows"

    # The seed's cost for the same query mix:
    #   window_diff = two full snapshots (each scans events <= cycle),
    #   toggled + counts = one slice walk per consumer per window,
    # repeated for each of the three consumers that used to re-derive
    # window data per iteration (leakage, vulnerability, LP coverage).
    cycles = sorted(trace.columns().cycles)
    import bisect as _bisect

    def events_before(cycle):
        return _bisect.bisect_right(cycles, cycle)

    naive_cost = 0
    for window in windows:
        slice_len = events_before(window.end) - events_before(window.start - 1)
        naive_cost += events_before(window.start - 1)  # snapshot(start-1)
        naive_cost += events_before(window.end)        # snapshot(end)
        naive_cost += 3 * slice_len                    # 3 consumers re-slice

    trace.events_examined = 0
    for window in windows:
        view = trace.window_view(window.start, window.end)
        # Three consumers, one shared slice: leakage diff, LP toggles,
        # vulnerability root-causing — then repeat queries hit the memo.
        view.diff()
        view.toggled()
        view.counts()
        view.diff()
        view.toggled()
    indexed_cost = trace.events_examined

    emit(ascii_table(
        ["quantity", "value"],
        [
            ["trace events", len(trace)],
            ["speculative windows", len(windows)],
            ["naive event examinations", naive_cost],
            ["indexed event examinations", indexed_cost],
            ["reduction", f"{naive_cost / max(indexed_cost, 1):.1f}x"],
        ],
        title="E9: per-window query cost, seed's linear scans vs indexes",
    ))

    assert indexed_cost < naive_cost

    # Memoisation: replaying the exact same query mix examines nothing.
    before_repeat = trace.events_examined
    for window in windows:
        view = trace.window_view(window.start, window.end)
        view.diff()
        view.toggled()
        view.counts()
    assert trace.events_examined == before_repeat

    # Cycle-ordered snapshot queries (the window-boundary pattern)
    # replay the stream at most once in total.
    trace.events_examined = 0
    for end in sorted(window.end for window in windows):
        trace.snapshot(end)
    assert trace.events_examined <= len(trace)
