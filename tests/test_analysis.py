"""Tests for the static-analysis subsystem (lint + taint + pruning).

Four layers, mirroring how the subsystem is wired into the repo:

* the lint fixture matrix — every seeded-defect fixture flags exactly
  its own check id (detection *and* precision of the catalogue);
* shipped-design regressions — the true-positive findings in the
  repo's own designs exist and are waived with documented reasons;
* taint soundness — no dynamically-covered PDLC is ever classified
  provably-dead, and the fixed-seed campaign reports stay
  byte-identical to the pre-PR references while ``static_prune`` is
  off;
* the ``static_prune`` path — coverage groups drop dead channels, the
  triage section renders only when the knob is on, and the flag
  round-trips through the campaign store.
"""

import json

import pytest

from repro.analysis import (
    CHECKS,
    DEAD,
    FLUSH_GATED,
    SPECULATIVE,
    Waiver,
    analyze_model,
    apply_waivers,
    classify_pdlc,
    lint_design,
    lint_netlist,
    parse_waivers,
)
from tests.analysis_fixtures import (
    DEADPATH_FIXTURE,
    FLUSHY_FIXTURE,
    LINT_FIXTURES,
)
from repro.boom.config import BoomConfig
from repro.boom.netlist import build_boom_netlist
from repro.core.specure import stop_on_kind
from repro.coverage.lp import LpCoverage
from repro.ifg.builder import build_ifg_from_design
from repro.ifg.labeling import label_architectural
from repro.ifg.pdlc import extract_pdlc_reverse
from repro.rtl.designs import LISTING_1, PIPELINE_CPU, SPEC_CPU
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse
from repro.scenarios import get_scenario
from repro.scenarios.store import shard_report_from_dict, shard_report_to_dict


def _lint_fixture(check_id):
    design = elaborate(parse(LINT_FIXTURES[check_id]))
    return lint_design(design, source_text=LINT_FIXTURES[check_id])


def _analyze_fixture(source, **kwargs):
    design = elaborate(parse(source))
    return analyze_model(design, name="fixture", source_text=source,
                         **kwargs)


class TestLintFixtureMatrix:
    @pytest.mark.parametrize("check_id", sorted(LINT_FIXTURES))
    def test_fixture_flags_exactly_its_check(self, check_id):
        active = [d for d in _lint_fixture(check_id) if not d.waived]
        assert active, f"fixture {check_id} produced no findings"
        assert {d.check for d in active} == {check_id}

    def test_catalogue_is_fully_exercised(self):
        assert {c.check_id for c in CHECKS} == set(LINT_FIXTURES)

    def test_check_ids_are_stable(self):
        assert [c.check_id for c in CHECKS] == [
            "undriven-signal",
            "multi-driven",
            "width-mismatch",
            "inferred-latch",
            "comb-loop",
            "unreachable-branch",
            "no-reset-state",
            "dead-signal",
        ]


class TestWaivers:
    def test_pragma_waives_the_fixture_finding(self):
        source = LINT_FIXTURES["dead-signal"].replace(
            "reg dead_r;",
            "// repro-lint: waive dead-signal dead_r scratch register\n"
            "  reg dead_r;",
        )
        diagnostics = lint_design(elaborate(parse(source)),
                                  source_text=source)
        assert all(d.waived for d in diagnostics)
        waived = [d for d in diagnostics if d.check == "dead-signal"]
        assert waived and waived[0].waive_reason == "scratch register"

    def test_parse_waivers_reads_glob_and_reason(self):
        source = "// repro-lint: waive dead-signal c_* commit record\n"
        assert parse_waivers(source) == [
            Waiver("dead-signal", "c_*", "commit record")
        ]

    def test_apply_waivers_matches_leaf_names(self):
        diagnostics = [d for d in _lint_fixture("dead-signal")
                       if d.check == "dead-signal"]
        waived = apply_waivers(
            diagnostics, [Waiver("dead-signal", "dead_*", "why")])
        assert [d.waived for d in waived] == [True]
        unrelated = apply_waivers(
            diagnostics, [Waiver("comb-loop", "dead_*", "why")])
        assert [d.waived for d in unrelated] == [False]


#: (design name, source, explicit arch names, expected waived count).
_SHIPPED = [
    ("listing-1", LISTING_1, None, 0),
    ("pipeline-cpu", PIPELINE_CPU, ["acc", "r0", "r1", "r2", "r3"], 4),
    ("spec-cpu", SPEC_CPU, None, 25),
]


class TestShippedDesigns:
    @pytest.mark.parametrize("name,source,arch,waived", _SHIPPED,
                             ids=[row[0] for row in _SHIPPED])
    def test_design_lints_clean_with_documented_waivers(
            self, name, source, arch, waived):
        design = elaborate(parse(source))
        diagnostics = lint_design(design, source_text=source,
                                  arch_names=arch)
        assert [d for d in diagnostics if not d.waived] == []
        assert len([d for d in diagnostics if d.waived]) == waived
        assert all(d.waive_reason for d in diagnostics if d.waived)

    def test_boom_netlist_lints_clean_with_documented_waivers(self):
        diagnostics = lint_netlist(build_boom_netlist(BoomConfig.small()))
        assert [d for d in diagnostics if not d.waived] == []
        assert len(diagnostics) == 54
        assert all(d.waive_reason for d in diagnostics)

    def test_armed_boom_netlist_also_clean(self):
        from repro.boom.vulns import VulnConfig

        netlist = build_boom_netlist(BoomConfig.small(VulnConfig.all()))
        assert [d for d in lint_netlist(netlist) if not d.waived] == []


class TestTaintClassifier:
    def test_deadpath_fixture_is_provably_dead(self):
        report = _analyze_fixture(DEADPATH_FIXTURE, arch_names=["x1"])
        labels = {report.pdlc[i].source: label
                  for i, label in enumerate(report.classification.labels)}
        assert labels["deadpath.micro"] == DEAD

    def test_flushy_fixture_splits_by_squash_cleanliness(self):
        report = _analyze_fixture(FLUSHY_FIXTURE, arch_names=["x1"])
        labels = {report.pdlc[i].source: label
                  for i, label in enumerate(report.classification.labels)}
        assert labels["flushy.v"] == FLUSH_GATED
        assert labels["flushy.persist"] == SPECULATIVE
        assert "flushy.flush" in report.classification.flush_signals

    def test_spec_cpu_classification_pins(self):
        design = elaborate(parse(SPEC_CPU))
        ifg = build_ifg_from_design(design)
        label_architectural(ifg)
        pdlc = extract_pdlc_reverse(ifg)
        classification = classify_pdlc(design, ifg, pdlc)
        assert classification.counts() == {
            SPECULATIVE: 144, FLUSH_GATED: 80, DEAD: 0,
        }
        assert classification.flush_signals == ("spec_cpu.flush",)
        assert classification.constant_signals == ("spec_cpu.x0",)

    def test_netlist_squash_cleaned_flags_classify_flush_gated(self):
        netlist = build_boom_netlist(BoomConfig.small())
        from repro.ifg.builder import build_ifg_from_netlist

        ifg = build_ifg_from_netlist(netlist)
        label_architectural(ifg)
        pdlc = extract_pdlc_reverse(ifg)
        classification = classify_pdlc(netlist, ifg, pdlc)
        counts = classification.counts()
        assert counts[DEAD] == 0  # declared edges are all real flows
        assert counts[FLUSH_GATED] > 0  # ROB/rename/STQ rollback state
        labels = {pdlc[i].source: label
                  for i, label in enumerate(classification.labels)}
        assert labels["boom.rob.tail"] == FLUSH_GATED
        assert labels["boom.bpu.btb_tag_0"] == SPECULATIVE

    def test_ranked_candidates_exclude_dead_and_lead_speculative(self):
        report = _analyze_fixture(FLUSHY_FIXTURE, arch_names=["x1"])
        ranked = report.candidates()
        labels = [report.classification.labels[item.index]
                  for item in ranked]
        assert DEAD not in labels
        assert labels == sorted(
            labels, key=lambda label: 0 if label == SPECULATIVE else 1)


def _covered_indices(report):
    return {item[1] for _, item in report.fuzz.discovery_log
            if isinstance(item, tuple) and item[0] == "lp"}


def _run_pinned(name, iterations):
    spec = get_scenario(name).override(iterations=iterations)
    specure = spec.build_specure()
    campaign = specure.build_campaign()
    report = campaign.run(spec.iterations,
                          stop_when=stop_on_kind(spec.stop_kind))
    return campaign, report


class TestSoundnessAgainstDynamics:
    @pytest.mark.parametrize("scenario,iterations", [
        ("quickstart", 20),
        ("spec-cpu-quickstart", 12),
    ])
    def test_covered_channels_are_never_provably_dead(
            self, scenario, iterations):
        campaign, report = _run_pinned(scenario, iterations)
        classification = campaign.offline.classification
        covered = _covered_indices(report)
        assert covered, "campaign covered no channels — vacuous test"
        dead = [index for index in covered
                if classification.labels[index] == DEAD]
        assert dead == []

    @pytest.mark.parametrize("scenario,iterations,reference", [
        ("quickstart", 20, "pr8_pre_quickstart_20it.txt"),
        ("spec-cpu-quickstart", 12, "pr8_pre_spec_cpu_quickstart_12it.txt"),
    ])
    def test_reports_byte_identical_with_prune_off(
            self, scenario, iterations, reference, datadir):
        _, report = _run_pinned(scenario, iterations)
        expected = (datadir / reference).read_text()
        assert report.render(include_timings=False) == expected


class TestStaticPrune:
    def test_include_restricts_coverage_groups(self):
        design = elaborate(parse(DEADPATH_FIXTURE))
        ifg = build_ifg_from_design(design)
        label_architectural(ifg, arch_names=["x1"])
        pdlc = extract_pdlc_reverse(ifg)
        names = design.signal_names()
        unpruned = LpCoverage(pdlc, names)
        pruned = LpCoverage(pdlc, names, include=set())
        assert unpruned._groups and not pruned._groups
        assert pruned.total == unpruned.total == len(pdlc)

    def test_online_phase_prunes_to_live_indices(self):
        spec = get_scenario("quickstart-pruned").override(iterations=1)
        specure = spec.build_specure()
        online = specure.build_online()
        classification = specure.offline().classification
        assert online.static_prune
        assert online.lp.include == classification.live_indices()

    def test_quickstart_pruned_matches_quickstart_dynamics(self):
        # Zero BOOM channels are provably dead, so pruning must be a
        # no-op on campaign dynamics: same findings, same coverage.
        _, unpruned = _run_pinned("quickstart", 20)
        _, pruned = _run_pinned("quickstart-pruned", 20)
        assert pruned.fuzz.final_coverage() == unpruned.fuzz.final_coverage()
        assert ([f.kind for f in pruned.fuzz.findings]
                == [f.kind for f in unpruned.fuzz.findings])

    def test_triage_section_renders_only_when_pruned(self):
        _, unpruned = _run_pinned("quickstart", 20)
        _, pruned = _run_pinned("quickstart-pruned", 20)
        assert "Static triage" not in unpruned.render()
        assert "Static triage" in pruned.render()
        assert "static_triage" not in unpruned.to_dict()
        triage = pruned.to_dict()["static_triage"]
        assert triage["missed"] == []
        assert triage["counts"][DEAD] == 0

    def test_static_prune_round_trips_through_the_store(self):
        campaign, pruned = _run_pinned("quickstart-pruned", 5)
        data = shard_report_to_dict(0, 7, pruned)
        assert data["static_prune"] is True
        restored = shard_report_from_dict(json.loads(json.dumps(data)),
                                          campaign.offline)
        assert restored.static_prune is True
        data.pop("static_prune")
        legacy = shard_report_from_dict(data, campaign.offline)
        assert legacy.static_prune is False

    def test_scenario_spec_omits_default_knob_in_files(self):
        quickstart = get_scenario("quickstart")
        assert "static_prune" not in quickstart.to_dict()
        pruned = get_scenario("quickstart-pruned")
        assert pruned.to_dict()["static_prune"] is True


class TestAnalyzeCli:
    def test_design_target_exits_clean(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "spec-cpu"]) == 0
        out = capsys.readouterr().out
        assert "== Static analysis: spec-cpu ==" in out
        assert "0 active, 25 waived" in out

    def test_json_format_parses(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "listing-1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "listing-1"
        assert payload["diagnostics"] == []

    def test_scenario_target_resolves_the_put_model(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "spec-cpu-quickstart"]) == 0
        assert "spec_cpu.flush" in capsys.readouterr().out

    def test_unknown_target_is_a_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["analyze", "no-such-design"]) == 2

    def test_fail_on_threshold_separates_warn_from_error(self):
        # dead-signal findings are warnings: --fail-on warn fails the
        # command, the default --fail-on error does not.
        report = _analyze_fixture(LINT_FIXTURES["dead-signal"])
        assert report.failed("warn") and not report.failed("error")


class TestFoldMatchesSimulator:
    """The constant folder and the simulator share one set of operator
    rules (:mod:`repro.rtl.semantics`).  Each case is a place where the
    folder's former private copy of the rules computed something else."""

    @pytest.mark.parametrize("expr,expected", [
        # ~ and reductions read a composite operand at 64 bits.
        ("&(a & 8'hFF)", 0),
        ("{1'b0, ~(a & 8'h0F)} >> 1", 248),
        # >> saturates its count at 65536, not 64.
        ("(8'd3 << 64) >> 65", 1),
        # Constant division and modulo fold instead of raising.
        ("(a / 8'd2) + (a % 8'd0) + (8'd7 / 8'd0)", 127),
        # Sized literals truncate to their size.
        ("4'hFF + 8'd0", 15),
    ])
    def test_folded_constant_equals_simulated_value(self, expr, expected):
        from repro.analysis.fold import refine
        from repro.rtl.sim import RtlSimulator

        source = f"""
            module m(input [7:0] a, output [7:0] o);
              assign o = {expr};
            endmodule
        """
        design = elaborate(parse(source))
        sim = RtlSimulator(design)
        sim.step({"a": 0xFF})
        widths = {name: s.width for name, s in design.signals.items()}
        folded, contributors = refine(design.assigns[0].value,
                                      {"m.a": 0xFF}, widths)
        assert contributors == ()
        assert folded & 0xFF == sim.value("o") == expected

    def test_constant_division_does_not_crash_the_analysis(self):
        source = """
            module m(input clk, input [7:0] a, output reg [7:0] q);
              wire [7:0] k;
              assign k = 8'd9 / 8'd2 % 8'd3;
              always @(posedge clk)
                if (k == 8'd1) q <= a;
            endmodule
        """
        report = _analyze_fixture(source)
        assert not report.failed("error")


@pytest.fixture
def datadir():
    from pathlib import Path

    return Path(__file__).parent / "data"
