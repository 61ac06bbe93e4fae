"""E4 — Table 2: vulnerability detection effectiveness.

Paper Table 2 compares Specure against SpecDoctor [11] and the
exhaustive approach [14] on four vulnerabilities: Spectre v1, Spectre
v2, (M)WAIT (emulated), and Zenbleed (emulated).  (The check marks of
the published table do not survive plain-text extraction; §4.2's prose
states that [11] and [14] cannot detect the two emulated
vulnerabilities, and that Specure detects all four.)

Scoring here is *capability on equal stimuli*: each trigger-driven tool
analyses the same canonical trigger programs (SpecDoctor additionally
gets the secret-dependent v2 variant, without which no differential
tool can see v2 at all); the exhaustive checker generates its own
candidates under a fixed budget.  The required shape: Specure detects
all four; SpecDoctor misses both emulated vulnerabilities; the
exhaustive checker finds the shallow Spectre leaks and hits the
state-explosion wall before the emulated ones.
"""

import pytest

from repro.baselines.exhaustive import ExhaustiveChecker
from repro.baselines.specdoctor import SpecDoctor
from repro.core.specure import Specure
from repro.fuzz.triggers import all_triggers, spectre_v2_secret_trigger
from repro.utils.text import ascii_table

from benchmarks.conftest import campaign_spec, emit

KINDS = ("spectre_v1", "spectre_v2", "mwait", "zenbleed")


def specure_row():
    specure = Specure(campaign_spec(seed=1, monitor_dcache=True))
    online = specure.build_online()
    detected = set()
    for kind, program in all_triggers().items():
        _, reports = online.run_once(program)
        detected.update(r.kind for r in reports)
    return {kind: kind in detected for kind in KINDS}


def specdoctor_row(vuln_core):
    detected = {kind: False for kind in KINDS}
    probes = dict(all_triggers())
    probes["spectre_v2"] = spectre_v2_secret_trigger()
    for kind, program in probes.items():
        tool = SpecDoctor(vuln_core, seed=5, seeds=[program])
        findings = tool.run(iterations=1)
        if findings and kind.startswith("spectre"):
            if kind in findings[0].ground_truth_kinds:
                detected[kind] = True
        elif findings:
            detected[kind] = True
    return detected


def exhaustive_row(vuln_core, offline):
    checker = ExhaustiveChecker(vuln_core, offline)
    outcome = checker.run(budget=450, max_depth=3)
    return {kind: kind in outcome.detected_kinds for kind in KINDS}, outcome


def mark(flag: bool) -> str:
    return "yes" if flag else "no"


def test_e4_table2_detection_matrix(benchmark, vuln_core, offline):
    def run_all():
        return (
            specdoctor_row(vuln_core),
            exhaustive_row(vuln_core, offline),
            specure_row(),
        )

    specdoctor, (exhaustive, outcome), specure = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    rows = [
        ["SpecDoctor [11]"] + [mark(specdoctor[kind]) for kind in KINDS],
        ["Exhaustive [14]"] + [mark(exhaustive[kind]) for kind in KINDS],
        ["Specure"] + [mark(specure[kind]) for kind in KINDS],
    ]
    emit(ascii_table(
        ["Tool", "Spectre v1", "Spectre v2", "(M)WAIT e.m.", "Zenbleed e.m."],
        rows,
        title="E4 (Table 2): vulnerability detection effectiveness",
    ))
    emit(f"(exhaustive checker: {outcome.summary()})")

    # Specure detects all four (the paper's headline row).
    assert all(specure.values())
    # SpecDoctor cannot see the emulated vulnerabilities (§4.2's three
    # reasons: instrumentation scope, no fine-grained coverage,
    # secret-reflection-only detection).
    assert specdoctor["spectre_v1"]
    assert not specdoctor["mwait"]
    assert not specdoctor["zenbleed"]
    # The exhaustive checker finds shallow Spectre leaks but explodes
    # before the deeper emulated triggers.
    assert exhaustive["spectre_v1"]
    assert exhaustive["spectre_v2"]
    assert not exhaustive["mwait"]
    assert not exhaustive["zenbleed"]
