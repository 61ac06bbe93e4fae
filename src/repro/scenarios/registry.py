"""The built-in scenario registry: the paper's experiments, named.

Each entry bundles one experiment of the paper's evaluation (or a new
workload built from the same pieces) as a :class:`ScenarioSpec` runnable
with ``python -m repro run <name>``.  ``register_scenario`` adds
user-defined specs at runtime; scenario *files* (TOML/JSON) load through
:meth:`ScenarioSpec.load` without touching the registry.
"""

from __future__ import annotations

from repro.scenarios.spec import ScenarioError, ScenarioSpec, suggest
from repro.utils.text import ascii_table

_BUILTIN_SCENARIOS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="quickstart",
        description="The full pipeline in one minute: offline phase + a "
                    "short LP-guided campaign on the armed core",
        vulns=("mwait", "zenbleed"),
        monitor_dcache=True,
        seed=7,
        iterations=60,
    ),
    ScenarioSpec(
        name="quickstart-pruned",
        description="quickstart with static_prune: LP coverage groups "
                    "drop the statically-dead channels; detection is "
                    "untouched (repro.analysis)",
        vulns=("mwait", "zenbleed"),
        monitor_dcache=True,
        seed=7,
        iterations=60,
        static_prune=True,
    ),
    ScenarioSpec(
        name="spectre-v1",
        description="Spectre hunt with the special speculative seeds; the "
                    "data cache joins the monitored observables (§4.2)",
        monitor_dcache=True,
        seed=3,
        iterations=400,
        stop_kind="spectre_v1",
    ),
    ScenarioSpec(
        name="spectre-v1-no-seeds",
        description="The with/without-seeds ablation arm: same hunt on "
                    "random seeds only (paper: 49 min vs 1.5 h)",
        monitor_dcache=True,
        seed=3,
        use_special_seeds=False,
        random_seed_count=6,
        iterations=400,
        stop_kind="spectre_v1",
    ),
    ScenarioSpec(
        name="zenbleed-mwait",
        description="The emulated direct channels (§4.2): fuzz the armed "
                    "core until the Zenbleed leak is root-caused",
        vulns=("mwait", "zenbleed"),
        seed=1,
        iterations=200,
        stop_kind="zenbleed",
    ),
    ScenarioSpec(
        name="lp-coverage-race",
        description="Figure 2, LP arm: three seed streams of LP-guided "
                    "fuzzing, merged onto one coverage curve",
        vulns=(),
        seed=0,
        iterations=150,
        shards=3,
    ),
    ScenarioSpec(
        name="code-coverage-race",
        description="Figure 2, baseline arm: identical campaign guided by "
                    "traditional code coverage",
        vulns=(),
        coverage="code",
        seed=0,
        iterations=150,
        shards=3,
    ),
    ScenarioSpec(
        name="nested-speculation-stress",
        description="New workload: aggressive mutation (5 rounds, heavy "
                    "splicing) to pile up nested misspeculated windows",
        monitor_dcache=True,
        seed=13,
        splice_probability=0.35,
        mutation_rounds=5,
        iterations=250,
    ),
    ScenarioSpec(
        name="dcache-monitor-sweep",
        description="New workload: four shards sweeping seed streams with "
                    "the data cache monitored, merged into one report",
        monitor_dcache=True,
        seed=5,
        iterations=100,
        shards=4,
    ),
    ScenarioSpec(
        name="spectre-v1-contract",
        description="Model-based relational Spectre hunt: ct-seq contract "
                    "traces on the golden ISS vs hardware observation "
                    "traces, no IFG needed (Revizor-style)",
        detector="contract",
        contract="ct-seq",
        seed=3,
        iterations=200,
        stop_kind="contract_ct_seq",
    ),
    ScenarioSpec(
        name="contract-ablation",
        description="The same hunt under ct-cond: conditional-branch "
                    "speculation is contract-allowed, so plain v1 leaks "
                    "stop counting as violations",
        detector="contract",
        contract="ct-cond",
        seed=3,
        iterations=150,
    ),
    ScenarioSpec(
        name="spectre-ssb",
        description="Spectre-v4 hunt: store-bypass speculation armed, "
                    "sequential-model contract, generation scoped to the "
                    "alu/div/load/store gadget shape",
        vulns=(),
        detector="contract",
        contract="ct-seq",
        speculation=("ssb",),
        instruction_categories=("alu", "div", "load", "store"),
        seed=3,
        iterations=120,
        stop_kind="contract_ct_seq",
    ),
    ScenarioSpec(
        name="spectre-ssb-ablation",
        description="The same armed core under ct-seq+ssb: store-bypass "
                    "misspeculation is contract-allowed, so the seeded "
                    "v4 leak stops counting as a violation",
        vulns=(),
        detector="contract",
        contract="ct-seq",
        execution_clauses=("ssb",),
        speculation=("ssb",),
        instruction_categories=("alu", "div", "load", "store"),
        seed=3,
        iterations=40,
    ),
    ScenarioSpec(
        name="meltdown",
        description="Fault-speculation hunt: transient protected-region "
                    "loads armed, sequential-model contract, generation "
                    "scoped to alu/load gadgets",
        vulns=(),
        detector="contract",
        contract="ct-seq",
        speculation=("fault",),
        instruction_categories=("alu", "load"),
        seed=3,
        iterations=120,
        stop_kind="contract_ct_seq",
    ),
    ScenarioSpec(
        name="meltdown-ablation",
        description="The same armed core under ct-seq+fault: the "
                    "transient faulting load is contract-allowed, so the "
                    "Meltdown-style leak stops counting as a violation",
        vulns=(),
        detector="contract",
        contract="ct-seq",
        execution_clauses=("fault",),
        speculation=("fault",),
        instruction_categories=("alu", "load"),
        seed=3,
        iterations=40,
    ),
    ScenarioSpec(
        name="spectre-rsb",
        description="Return-stack hunt: RAS-misprediction seed corpus "
                    "armed, sequential-model contract, generation scoped "
                    "to alu/div/load/store/jump gadgets",
        vulns=(),
        detector="contract",
        contract="ct-seq",
        speculation=("ret",),
        instruction_categories=("alu", "div", "load", "store", "jump"),
        seed=3,
        iterations=120,
        stop_kind="contract_ct_seq",
    ),
    ScenarioSpec(
        name="spectre-rsb-ablation",
        description="The same hunt under ct-seq+ret: return-stack "
                    "misspeculation is contract-allowed, so the seeded "
                    "RSB leak stops counting as a violation",
        vulns=(),
        detector="contract",
        contract="ct-seq",
        execution_clauses=("ret",),
        speculation=("ret",),
        instruction_categories=("alu", "div", "load", "store", "jump"),
        seed=3,
        iterations=40,
    ),
    ScenarioSpec(
        name="composed-clauses",
        description="Clause composition across shards: ct-cond+ssb "
                    "contract-allows branch and store-bypass speculation "
                    "together on the ssb-armed core",
        vulns=(),
        detector="contract",
        contract="ct-cond",
        execution_clauses=("ssb",),
        speculation=("ssb",),
        seed=11,
        iterations=60,
        shards=2,
    ),
    ScenarioSpec(
        name="spec-cpu-quickstart",
        description="The Verilog route in one minute: elaborate the "
                    "speculative RTL core and run a short LP-guided "
                    "campaign on it",
        design="spec-cpu",
        vulns=(),
        monitor_dcache=True,
        seed=7,
        iterations=12,
    ),
    ScenarioSpec(
        name="spec-cpu-spectre-v1",
        description="Spectre hunt on the Verilog core: both detectors "
                    "cross-validated until the seeded transient leak "
                    "is found",
        design="spec-cpu",
        vulns=(),
        monitor_dcache=True,
        detector="both",
        contract="ct-seq",
        inputs_per_class=2,
        seed=3,
        iterations=40,
        stop_kind="spectre_v1",
    ),
    ScenarioSpec(
        name="offline-analysis",
        description="Offline phase only (§4.1): IFG build + PDLC "
                    "extraction numbers for the small design",
        vulns=("mwait", "zenbleed"),
        iterations=0,
    ),
)

_REGISTRY: dict[str, ScenarioSpec] = {
    spec.name: spec for spec in _BUILTIN_SCENARIOS
}


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario; unknown names get a suggestion."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}{suggest(name, scenario_names())}; "
            f"`python -m repro list-scenarios` prints the registry"
        ) from None


def resolve_scenario(reference: str) -> ScenarioSpec:
    """A scenario by registry name, or from a ``.toml``/``.json`` path.

    The one reference-resolution rule shared by every consumer that
    accepts "a scenario" on a command line (``python -m repro run``,
    ``python -m repro bench``, :func:`repro.perf.bench.run_bench`).
    """
    if reference.endswith((".toml", ".json")):
        return ScenarioSpec.load(reference)
    return get_scenario(reference)


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (``replace=True`` to overwrite)."""
    if spec.name in _REGISTRY and not replace:
        raise ScenarioError(
            f"scenario {spec.name!r} is already registered; pass "
            f"replace=True to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def scenarios_to_dicts() -> list[dict]:
    """The registry as JSON-serialisable rows (``list-scenarios
    --format json``).

    Each row pairs the human-facing summary columns of
    :func:`render_scenarios` with the full ``spec`` dict, which
    round-trips through :meth:`ScenarioSpec.from_dict` — so the JSON
    output doubles as a machine-readable export of every registered
    protocol.
    """
    rows = []
    for name in scenario_names():
        spec = _REGISTRY[name]
        rows.append({
            "name": name,
            "design": spec.design,
            "detector": spec.detector,
            "contract": (
                spec.effective_contract() if spec.detector != "ift" else None
            ),
            "coverage": spec.coverage,
            "vulns": list(spec.vulns),
            "monitor_dcache": spec.monitor_dcache,
            "shards": spec.shards,
            "iterations": spec.iterations,
            "stop": spec.stop_kind,
            "description": spec.description,
            "spec": spec.to_dict(),
        })
    return rows


def render_scenarios() -> str:
    """The registry as a table (the ``list-scenarios`` CLI output)."""
    rows = []
    for name in scenario_names():
        spec = _REGISTRY[name]
        if spec.iterations == 0:
            shape = "offline only"
        else:
            shape = f"{spec.shards} x {spec.iterations} iters"
        if spec.detector == "ift":
            detector = "ift"
        else:
            detector = f"{spec.detector}:{spec.effective_contract()}"
        rows.append([
            name,
            spec.design,
            detector,
            spec.coverage,
            "+".join(spec.vulns) or "-",
            "yes" if spec.monitor_dcache else "no",
            shape,
            spec.stop_kind or "-",
            spec.description,
        ])
    return ascii_table(
        ["scenario", "design", "detector", "coverage", "armed vulns",
         "dcache", "shape", "stops at", "description"],
        rows,
        title="Registered scenarios (python -m repro run <scenario>)",
    )
