"""Specure (DAC'24) reproduction: hybrid speculative vulnerability detection.

Public API of the reproduction of *"Lost and Found in Speculation:
Hybrid Speculative Vulnerability Detection"* (Rostami et al., DAC 2024).

Quick start — one :class:`ScenarioSpec` holds every campaign knob::

    from repro import ScenarioSpec, Specure

    spec = ScenarioSpec(name="demo", monitor_dcache=True)
    specure = Specure(spec)
    print(specure.offline().summary())          # IFG + PDLC (offline phase)
    report = specure.campaign(iterations=200)   # fuzz + detect (online phase)
    print(report.render())

Sharded, persisted, resumable and wall-clock-budgeted campaigns of a
spec all run through ``run_scenario``::

    from repro.scenarios import get_scenario, run_scenario

    outcome = run_scenario(get_scenario("spectre-v1"), run_dir="runs/s1")
    merged = run_scenario(spec.override(shards=4), jobs=4).report

See docs/architecture.md for the module map and docs/paper_mapping.md
for the paper-artifact-to-benchmark index.
"""

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core import (
    CampaignReport,
    OfflineArtifacts,
    OnlinePhase,
    Specure,
    SpecureCampaign,
    run_offline,
)
from repro.core.specure import stop_on_kind
from repro.detection import (
    LeakageDetector,
    LeakReport,
    MisspeculationTable,
    VulnerabilityDetector,
    extract_windows,
)
from repro.fuzz import Fuzzer, MutationEngine, TestProgram, special_seeds
from repro.golden import Iss, SparseMemory
from repro.ifg import (
    Ifg,
    build_ifg_from_design,
    build_ifg_from_netlist,
    extract_pdlc_forward,
    extract_pdlc_reverse,
    label_architectural,
)
from repro.rtl import RtlSimulator, elaborate, parse
from repro.scenarios import (
    ScenarioSpec,
    get_scenario,
    replay_findings,
    resume_scenario,
    run_scenario,
    scenario_names,
)

__version__ = "1.1.0"

__all__ = [
    "BoomConfig",
    "BoomCore",
    "VulnConfig",
    "CampaignReport",
    "OfflineArtifacts",
    "OnlinePhase",
    "Specure",
    "SpecureCampaign",
    "run_offline",
    "stop_on_kind",
    "LeakageDetector",
    "LeakReport",
    "MisspeculationTable",
    "VulnerabilityDetector",
    "extract_windows",
    "Fuzzer",
    "MutationEngine",
    "TestProgram",
    "special_seeds",
    "Iss",
    "SparseMemory",
    "Ifg",
    "build_ifg_from_design",
    "build_ifg_from_netlist",
    "extract_pdlc_forward",
    "extract_pdlc_reverse",
    "label_architectural",
    "RtlSimulator",
    "elaborate",
    "parse",
    "ScenarioSpec",
    "get_scenario",
    "scenario_names",
    "run_scenario",
    "resume_scenario",
    "replay_findings",
    "__version__",
]
