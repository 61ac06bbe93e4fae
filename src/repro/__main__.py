"""``python -m repro`` — scenario campaigns, self-check, and replay.

Subcommands:

``run <scenario>``
    Run a registered scenario (or a ``.toml``/``.json`` scenario file)
    and persist its artifacts under a run directory (``--out``, default
    ``runs/<name>``).  ``--iterations``/``--shards``/``--seed``/``--jobs``
    /``--detector`` override the spec's knobs for quick experiments —
    ``--detector both`` cross-validates the IFT detector against the
    contract detector on any scenario.
``list-scenarios``
    Print the scenario registry (``--format json`` for the
    machine-readable metadata, specs included).
``stats <dir>``
    Query a run directory's telemetry (recorded with ``--telemetry``):
    phase-time breakdown, top-N slowest spans, per-shard heartbeat lag,
    merged metric dump — ``--format json`` for tooling, ``--validate``
    to check the event logs against ``docs/telemetry.schema.json``.
``analyze <target>``
    Static analysis (no fuzzing): RTL lint plus IFG taint reachability
    over a registered design (``listing-1``/``pipeline-cpu``/
    ``spec-cpu``/``small``/``medium``/``large``), a scenario name, or a
    ``.toml``/``.json`` scenario file.  ``--format json`` emits the
    machine-readable report; ``--fail-on warn|error`` sets the severity
    at which active findings fail the command (exit 1).
``resume <dir>``
    Continue an interrupted campaign; completed shards load from the
    store, so the final report is byte-identical to an uninterrupted run.
    Quarantined shards get a fresh retry budget.
``replay <dir>``
    Re-confirm every stored finding by running its (minimized) trigger
    program once — a regression check with no fuzzing.
``bench [PROTOCOL ...]``
    Run the bench suite of pinned hot-path protocols (or the named
    ones); ``--check`` gates them against the history in ``BENCH.json``,
    ``--record`` appends this run to it, and ``--list`` prints it.
``selfcheck``
    The original one-command smoke test (also the default with no
    arguments): offline phase + all four studied vulnerabilities +
    the experiment registry.

Exit codes for ``run``/``resume`` (see docs/resilience.md): 0 — every
shard completed; 3 — campaign completed DEGRADED (one or more shards
quarantined after exhausting retries; report carries the degraded
banner); 1 — campaign failed outright (``on_shard_failure = "fail"``
and a shard exhausted its retries); 2 — bad scenario/store input;
130 — interrupted.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import BoomConfig, Specure, VulnConfig, __version__
from repro.core.online import DETECTORS
from repro.fuzz.triggers import all_triggers
from repro.harness.experiments import render_registry
from repro.harness.parallel import ShardExecutionError
from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    StoreError,
    render_scenarios,
    replay_findings,
    resolve_scenario,
    resume_scenario,
    run_scenario,
)


def selfcheck(_args=None) -> int:
    """The original one-command self-check (default mode)."""
    print(f"repro {__version__} — Specure (DAC'24) reproduction")
    print()

    specure = Specure(BoomConfig.small(VulnConfig.all()), seed=1,
                      monitor_dcache=True)
    print(specure.offline().summary())
    print()

    online = specure.build_online()
    failures = 0
    for kind, program in all_triggers().items():
        _, reports = online.run_once(program)
        detected = kind in {report.kind for report in reports}
        print(f"  {'ok  ' if detected else 'FAIL'} {kind}")
        failures += 0 if detected else 1
    print()
    print(render_registry())
    return 1 if failures else 0


def _load_spec(reference: str) -> ScenarioSpec:
    """A scenario by registry name, or from a .toml/.json file path."""
    return resolve_scenario(reference)


def _default_run_dir(name: str) -> str:
    """First free directory under runs/: <name>, <name>-2, <name>-3 ..."""
    from pathlib import Path

    base = Path("runs") / name
    if not base.exists():
        return str(base)
    suffix = 2
    while (candidate := base.with_name(f"{name}-{suffix}")).exists():
        suffix += 1
    return str(candidate)


def cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.scenario)
    overrides = {
        key: value
        for key, value in (
            ("iterations", args.iterations),
            ("shards", args.shards),
            ("seed", args.seed),
            ("detector", args.detector),
            ("contract", args.contract),
            ("execution_clauses",
             tuple(args.execution_clauses)
             if args.execution_clauses is not None else None),
        )
        if value is not None
    }
    if overrides:
        spec = spec.override(**overrides)
    out = args.out or _default_run_dir(spec.name)

    started = time.perf_counter()
    try:
        outcome = run_scenario(
            spec,
            run_dir=out,
            jobs=args.jobs,
            minimize=not args.no_minimize,
            telemetry=args.telemetry,
            on_shard=lambda shard, report: print(
                f"shard {shard}: {report.fuzz.iterations} iterations, "
                f"coverage {report.fuzz.final_coverage()}, "
                f"{len(report.fuzz.findings)} finding(s)"
            ),
        )
    except KeyboardInterrupt:
        print(f"\ninterrupted — resume with: python -m repro resume {out}")
        return 130
    except ShardExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        print(f"(completed shards are persisted — resume with: "
              f"python -m repro resume {out})", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started

    if outcome.report is None:
        print(outcome.offline.summary())
    else:
        print()
        print(outcome.report.render(telemetry=outcome.telemetry))
    if outcome.telemetry is not None:
        print()
        print(f"(telemetry recorded — inspect with: "
              f"python -m repro stats {out})")
    print()
    print(f"(scenario {spec.name!r}, {elapsed:.2f}s wall clock, "
          f"artifacts in {out})")
    return _campaign_exit_code(outcome, out)


def _campaign_exit_code(outcome, directory) -> int:
    """0 when every shard completed; 3 when the campaign is degraded
    (quarantined shards are excluded from the report — the banner
    repeats at the end so it cannot scroll away)."""
    if not outcome.degraded:
        return 0
    from repro.scenarios.runner import degraded_banner

    print()
    print(degraded_banner(outcome.quarantined))
    print(f"(degraded campaign — re-run the quarantined shard(s) with: "
          f"python -m repro resume {directory})", file=sys.stderr)
    return 3


def cmd_list_scenarios(args: argparse.Namespace) -> int:
    if getattr(args, "format", "text") == "json":
        import json

        from repro.scenarios.registry import scenarios_to_dicts

        print(json.dumps(scenarios_to_dicts(), indent=2, sort_keys=True))
        return 0
    print(render_scenarios())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry import (
        TelemetryError,
        load_run_telemetry,
        render_stats,
        stats_to_dict,
        validate_run,
    )

    if args.validate:
        try:
            errors = validate_run(args.directory, args.schema)
        except TelemetryError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if errors:
            for line in errors:
                print(f"SCHEMA: {line}", file=sys.stderr)
            return 1
        print(f"telemetry logs in {args.directory} conform to "
              f"{args.schema}")
        return 0

    try:
        run = load_run_telemetry(args.directory)
    except TelemetryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(stats_to_dict(run, top=args.top), indent=2,
                         sort_keys=True))
    else:
        print(render_stats(run, top=args.top))
    return 0


#: Registered Verilog designs ``analyze`` accepts by name:
#: source constant attribute on :mod:`repro.rtl.designs`, plus the
#: explicit architectural-register names for designs whose registers
#: don't follow the ISA ``x<N>`` convention.
_ANALYZE_RTL = {
    "listing-1": ("LISTING_1", None),
    "pipeline-cpu": ("PIPELINE_CPU", ["acc", "r0", "r1", "r2", "r3"]),
    "spec-cpu": ("SPEC_CPU", None),
}


def _analyze_target(target: str):
    """Resolve an ``analyze`` target to ``(name, model, source_text,
    arch_names)``.

    Registered design names win; anything else resolves through the
    scenario registry (name or ``.toml``/``.json`` path), analysing the
    scenario's PUT exactly as its campaigns would see it.
    """
    if target in _ANALYZE_RTL:
        from repro.rtl import designs
        from repro.rtl.elaborate import elaborate
        from repro.rtl.parser import parse

        attribute, arch_names = _ANALYZE_RTL[target]
        source = getattr(designs, attribute)
        return target, elaborate(parse(source)), source, arch_names
    if target in ("small", "medium", "large"):
        from repro.boom.netlist import build_boom_netlist

        config = getattr(BoomConfig, target)(VulnConfig.all())
        return f"boom-{target}", build_boom_netlist(config), None, None

    from repro.puts.base import build_put, design_of

    spec = resolve_scenario(target)
    config = spec.build_config()
    put = build_put(config)
    return design_of(config), put.offline_model(), put.static_source(), None


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_model

    name, model, source, arch_names = _analyze_target(args.target)
    report = analyze_model(model, name=name, source_text=source,
                           arch_names=arch_names)
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 1 if report.failed(args.fail_on) else 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        BENCH_PATH,
        SUITE,
        BenchError,
        check_regression,
        load_bench,
        measure,
        record_bench,
        render_bench_list,
    )

    try:
        if args.list:
            print(render_bench_list(load_bench()))
            return 0
        history = load_bench() if args.check else {}
        results = []
        for key in args.protocols or SUITE:
            results.append(measure(key))
            print(results[-1].summary(), flush=True)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.record:
        record_bench(results)
        print(f"({len(results)} entries appended to {BENCH_PATH})")
    if not args.check:
        return 0
    failures = check_regression(results, history)
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"bench gate passed ({len(results)} protocols against "
          f"{BENCH_PATH})")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    try:
        outcome = resume_scenario(args.directory, jobs=args.jobs,
                                  minimize=not args.no_minimize,
                                  telemetry=args.telemetry)
    except KeyboardInterrupt:
        print(f"\ninterrupted again — resume with: "
              f"python -m repro resume {args.directory}")
        return 130
    except ShardExecutionError as error:
        print(f"error: {error}", file=sys.stderr)
        print(f"(completed shards are persisted — resume with: "
              f"python -m repro resume {args.directory})", file=sys.stderr)
        return 1
    skipped = len(outcome.resumed_shards)
    print(f"resumed {outcome.spec.name!r}: {skipped} shard(s) loaded from "
          f"the store, {len(outcome.executed_shards)} executed")
    print()
    if outcome.report is not None:
        print(outcome.report.render(telemetry=outcome.telemetry))
    return _campaign_exit_code(outcome, args.directory)


def cmd_replay(args: argparse.Namespace) -> int:
    results = replay_findings(args.directory)
    if not results:
        print(f"no stored findings in {args.directory}")
        return 0
    failures = 0
    for result in results:
        status = "ok  " if result.confirmed else "FAIL"
        source = "minimized" if result.used_minimized else "original"
        print(f"  {status} shard {result.shard} finding {result.index}: "
              f"{result.kind} ({source} program)")
        failures += 0 if result.confirmed else 1
    print(f"{len(results) - failures}/{len(results)} findings re-confirmed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Specure (DAC'24) reproduction: scenario campaigns, "
                    "self-check, resume, replay.",
    )
    commands = parser.add_subparsers(dest="command")

    run = commands.add_parser(
        "run", help="run a registered scenario or a .toml/.json scenario file"
    )
    run.add_argument("scenario", help="scenario name or scenario-file path")
    run.add_argument("--out", metavar="DIR", default=None,
                     help="run directory (default: runs/<scenario>)")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes for multi-shard scenarios")
    run.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="override the spec's per-shard iteration budget")
    run.add_argument("--shards", type=int, default=None, metavar="K",
                     help="override the spec's shard count")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's base seed")
    run.add_argument("--detector", choices=DETECTORS, default=None,
                     help="override the spec's detection pathway "
                          "(both = cross-validate IFT vs contract)")
    run.add_argument("--contract", default=None, metavar="CLAUSE",
                     help="override the spec's base contract clause "
                          "(e.g. ct-seq, ct-cond+ssb)")
    run.add_argument("--execution-clause", action="append", default=None,
                     dest="execution_clauses", metavar="MEMBER",
                     help="replace the spec's composed execution clauses "
                          "(repeatable: --execution-clause ssb "
                          "--execution-clause fault)")
    run.add_argument("--no-minimize", action="store_true",
                     help="skip trimming finding programs before storing")
    run.add_argument("--telemetry", action="store_true",
                     help="record spans/metrics/heartbeats into "
                          "<run-dir>/telemetry (inspect with "
                          "'python -m repro stats')")
    run.set_defaults(handler=cmd_run)

    listing = commands.add_parser(
        "list-scenarios", help="print the scenario registry"
    )
    listing.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="text table or machine-readable JSON "
                              "(specs included; default: text)")
    listing.set_defaults(handler=cmd_list_scenarios)

    stats = commands.add_parser(
        "stats", help="query a run directory's recorded telemetry"
    )
    stats.add_argument("directory", help="a run directory recorded with "
                                         "--telemetry")
    stats.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="report format (default: text)")
    stats.add_argument("--top", type=int, default=10, metavar="N",
                       help="slowest spans to list (default 10)")
    stats.add_argument("--validate", action="store_true",
                       help="validate the telemetry event logs against "
                            "the checked-in schema instead of reporting")
    stats.add_argument("--schema", default="docs/telemetry.schema.json",
                       metavar="FILE",
                       help="schema for --validate "
                            "(default: docs/telemetry.schema.json)")
    stats.set_defaults(handler=cmd_stats)

    analyze = commands.add_parser(
        "analyze", help="static analysis: RTL lint + taint reachability"
    )
    analyze.add_argument(
        "target",
        help="design name (listing-1, pipeline-cpu, spec-cpu, small, "
             "medium, large), scenario name, or scenario-file path")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="report format (default: text)")
    analyze.add_argument("--fail-on", choices=("warn", "error"),
                         default="error", metavar="SEVERITY",
                         help="exit 1 when an active finding reaches this "
                              "severity (warn|error, default: error)")
    analyze.set_defaults(handler=cmd_analyze)

    bench = commands.add_parser(
        "bench", help="run the bench suite of pinned hot-path protocols"
    )
    bench.add_argument("protocols", nargs="*", metavar="PROTOCOL",
                       help="protocol keys such as quickstart@60it, "
                            "quickstart@10s, quickstart@60it+telemetry or "
                            "quickstart@2x2s-scaling (default: the suite)")
    bench.add_argument("--check", action="store_true",
                       help="gate against the history in BENCH.json "
                            "(never writes it)")
    bench.add_argument("--record", action="store_true",
                       help="append this run's entries to BENCH.json")
    bench.add_argument("--list", action="store_true",
                       help="print the first and latest BENCH.json entry "
                            "per protocol with its gate bounds, then exit")
    bench.set_defaults(handler=cmd_bench)

    resume = commands.add_parser(
        "resume", help="continue an interrupted campaign from its run dir"
    )
    resume.add_argument("directory", help="the campaign's run directory")
    resume.add_argument("--jobs", type=int, default=None, metavar="N")
    resume.add_argument("--no-minimize", action="store_true")
    resume.add_argument("--telemetry", action="store_true",
                        help="record spans/metrics/heartbeats for the "
                             "resumed shards")
    resume.set_defaults(handler=cmd_resume)

    replay = commands.add_parser(
        "replay", help="re-confirm the stored findings of a run dir"
    )
    replay.add_argument("directory", help="the campaign's run directory")
    replay.set_defaults(handler=cmd_replay)

    check = commands.add_parser(
        "selfcheck", help="offline phase + all four vulns (the default)"
    )
    check.set_defaults(handler=selfcheck)

    args = parser.parse_args(argv)
    handler = getattr(args, "handler", selfcheck)
    try:
        return handler(args)
    except (ScenarioError, StoreError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
