"""The experiment registry: every paper table/figure and its bench.

One :class:`ExperimentSpec` per artifact of the paper's evaluation,
mapping it to the implementing modules and the benchmark that
regenerates it, plus the registered scenarios that run each
campaign-shaped experiment from the command line.  This tuple is the
one copy: ``python -m repro.harness.experiments`` prints it, and the
table in docs/paper_mapping.md is its :func:`render_markdown` output
(pinned by ``tests/test_docs.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.text import ascii_table


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible artifact of the paper."""

    identifier: str
    paper_artifact: str
    description: str
    modules: tuple[str, ...]
    benchmark: str
    expected_shape: str
    #: Registered scenarios that run the same workload (empty: none).
    scenarios: tuple[str, ...] = ()
    #: The benchmark is marked slow (opt in with ``-m slow``).
    slow: bool = False


EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "E1", "§4.1 IFG numbers",
        "IFG size and build time, once per PUT",
        ("repro.rtl", "repro.ifg.builder", "repro.boom.netlist"),
        "benchmarks/test_e1_ifg.py",
        "one-shot static analysis; size grows with core configuration",
        scenarios=("offline-analysis",),
    ),
    ExperimentSpec(
        "E2", "§4.1 PDLC numbers",
        "PDLC count + skew-aware reverse vs forward extraction",
        ("repro.ifg.pdlc", "repro.isa.spec"),
        "benchmarks/test_e2_pdlc.py",
        "reverse search beats forward; gap grows with design size",
        scenarios=("offline-analysis",),
    ),
    ExperimentSpec(
        "E3", "Table 1",
        "Misspeculation Table: per-window start/end cycles + instruction",
        ("repro.detection.windows", "repro.detection.mst",
         "repro.isa.disassembler"),
        "benchmarks/test_e3_table1_mst.py",
        "rows in the paper's exact format, derived from the trace alone",
        scenarios=("quickstart",),
    ),
    ExperimentSpec(
        "E4", "Table 2",
        "Detection matrix: Specure vs SpecDoctor [11] vs exhaustive [14]",
        ("repro.core.specure", "repro.baselines", "repro.boom.vulns"),
        "benchmarks/test_e4_table2_detection.py",
        "Specure detects all four; baselines miss the emulated vulns",
        scenarios=("zenbleed-mwait",),
    ),
    ExperimentSpec(
        "E5", "§4.2 detection times",
        "Iterations-to-detection; Specure vs SpecDoctor; seeds on/off",
        ("repro.core.specure", "repro.baselines.specdoctor",
         "repro.fuzz.seeds"),
        "benchmarks/test_e5_detection_speed.py",
        "Specure much faster (paper: 20x); special seeds help further",
        scenarios=("spectre-v1", "spectre-v1-no-seeds"),
        slow=True,
    ),
    ExperimentSpec(
        "E6", "Figure 2",
        "Covered-PDLC-vs-iteration: LP coverage vs code coverage, mean of 3",
        ("repro.coverage.lp", "repro.coverage.code", "repro.fuzz.fuzzer",
         "repro.harness.campaign"),
        "benchmarks/test_e6_fig2_coverage.py",
        "LP dominates; fewer iterations to equal coverage (paper: 6.45x),"
        " code coverage lags at the end (paper: 10.2%)",
        scenarios=("lp-coverage-race", "code-coverage-race"),
        slow=True,
    ),
    ExperimentSpec(
        "E7", "§4.2 overhead",
        "Per-iteration runtime: Specure vs TheHuzz-style fuzzing",
        ("repro.core.online", "repro.baselines.thehuzz"),
        "benchmarks/test_e7_overhead.py",
        "analysis is a material share of per-input cost (paper: +82% vs"
        " TheHuzz); since the columnar trace engine the sign vs TheHuzz"
        " is recorded, not pinned",
    ),
    ExperimentSpec(
        "E8", "§3.1 Listing 1",
        "Worked IFG example: exact R and F sets of the two-D-FF design",
        ("repro.rtl.parser", "repro.ifg.builder"),
        "benchmarks/test_e8_listing1.py",
        "R and F match the paper's sets verbatim",
    ),
    ExperimentSpec(
        "E9", "— (infrastructure)",
        "Serial-vs-sharded byte equivalence + indexed-trace operation bounds",
        ("repro.harness.parallel", "repro.scenarios.runner",
         "repro.rtl.trace"),
        "benchmarks/test_e9_parallel_scaling.py",
        "sharded merge identical to serial; indexed queries examine"
        " ≤ 1/4 the events",
        scenarios=("dcache-monitor-sweep",),
    ),
    ExperimentSpec(
        "A1", "— (ablations)",
        "Commit-filter and LP-mode design decisions quantified",
        ("repro.detection.vulnerability", "repro.coverage.lp"),
        "benchmarks/test_a1_ablations.py",
        "filter off → every window false-positives; source-mode LP"
        " collapses granularity",
    ),
)


def render_registry() -> str:
    """The experiment index as a table."""
    rows = [
        [spec.identifier, spec.paper_artifact, spec.benchmark,
         spec.expected_shape]
        for spec in EXPERIMENTS
    ]
    return ascii_table(
        ["id", "paper artifact", "regenerated by", "expected shape"],
        rows,
        title="Experiment registry (paper artifact -> benchmark)",
    )


def render_markdown() -> str:
    """The registry as the docs/paper_mapping.md table."""
    lines = [
        "| ID | Paper artifact | What it is | Regenerated by | Scenario "
        "| Expected shape |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for spec in EXPERIMENTS:
        bench = f"`{spec.benchmark}`" + (" (slow)" if spec.slow else "")
        scenarios = " / ".join(f"`{name}`" for name in spec.scenarios)
        lines.append(
            f"| {spec.identifier} | {spec.paper_artifact} "
            f"| {spec.description} | {bench} | {scenarios or '—'} "
            f"| {spec.expected_shape} |"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_registry())
