"""Performance measurement for the reproduction's hot path: one bench
suite of pinned protocols (:data:`SUITE`) gated against, and recorded
into, one per-protocol history (``BENCH.json``).  Entry point:
``python -m repro bench [PROTOCOL ...] [--check] [--record] [--list]``.
"""

from repro.perf.bench import (
    BENCH_PATH,
    SUITE,
    BenchError,
    BenchResult,
    PairedResult,
    ScalingResult,
    check_regression,
    load_bench,
    measure,
    record_bench,
    render_bench_list,
    run_bench,
    run_paired,
    run_scaling_bench,
)

__all__ = [
    "BENCH_PATH",
    "SUITE",
    "BenchError",
    "BenchResult",
    "PairedResult",
    "ScalingResult",
    "check_regression",
    "load_bench",
    "measure",
    "record_bench",
    "render_bench_list",
    "run_bench",
    "run_paired",
    "run_scaling_bench",
]
