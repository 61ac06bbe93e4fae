"""End-to-end integration tests across the whole pipeline.

These are deliberately small versions of the benchmark experiments:
fast enough for the unit-test suite, complete enough to catch wiring
regressions between the offline phase, the online phase, the fuzzer,
and the baselines.
"""

import pytest

from repro import (
    BoomConfig,
    BoomCore,
    Specure,
    VulnConfig,
    build_ifg_from_design,
    elaborate,
    parse,
    run_offline,
)
from repro.baselines.exhaustive import ExhaustiveChecker
from repro.baselines.specdoctor import SpecDoctor
from repro.baselines.thehuzz import TheHuzz
from repro.core.specure import stop_on_kind
from repro.fuzz.seeds import special_seeds
from repro.fuzz.triggers import all_triggers
from repro.harness.campaign import run_coverage_campaign
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def vuln_config():
    return BoomConfig.small(VulnConfig.all())


def spec(**knobs) -> ScenarioSpec:
    """A test campaign on the ``vuln_config`` design (both hooks armed)."""
    return ScenarioSpec(name="integration", **knobs)


class TestFullPipeline:
    def test_offline_online_roundtrip(self):
        """Offline PDLC names must all exist in the online trace."""
        specure = Specure(spec(seed=2))
        offline = specure.offline()
        result = specure.core.run(special_seeds()[0])
        names = set(result.trace.signal_names)
        for item in offline.pdlc[:200]:
            assert set(item.path) <= names

    def test_campaign_produces_full_report(self):
        specure = Specure(spec(seed=2, monitor_dcache=True))
        report = specure.campaign(iterations=20)
        text = report.render()
        assert "IFG:" in text
        assert "iterations: 20" in text
        assert len(report.mst) > 0

    def test_detection_of_all_kinds_via_pipeline(self):
        """Feeding the canonical triggers through the online phase
        detects every vulnerability class with a root cause."""
        specure = Specure(spec(seed=2, monitor_dcache=True))
        online = specure.build_online()
        for kind, program in all_triggers().items():
            _, reports = online.run_once(program)
            matching = [r for r in reports if r.kind == kind]
            assert matching, f"{kind} not detected"
            assert matching[0].root_causes, f"{kind} has no root cause"

    def test_lp_beats_code_on_short_run(self):
        """The Figure 2 shape holds even at integration-test scale."""
        lp = run_coverage_campaign(
            spec(coverage="lp", iterations=25, seed=3), repeats=1)[0]
        code = run_coverage_campaign(
            spec(coverage="code", iterations=25, seed=3), repeats=1)[0]
        assert lp.final() >= code.final()

    def test_stop_on_kind_spectre(self):
        specure = Specure(spec(seed=2, monitor_dcache=True))
        report = specure.campaign(60, stop_when=stop_on_kind("spectre_v1"))
        assert "spectre_v1" in report.detected_kinds()

    def test_verilog_to_pdlc_pipeline(self):
        """Parse Verilog -> elaborate -> IFG -> label -> PDLC, end to end."""
        text = """
        module cell(input d, input clk, output q);
          reg q;
          always @(posedge clk) q <= d;
        endmodule
        module soc(input clk, input i, output x1);
          reg x1;
          wire m;
          cell secret (.d(i), .clk(clk), .q(m));
          always @(posedge clk) x1 <= m;
        endmodule
        """
        offline = run_offline(elaborate(parse(text), top="soc"),
                              arch_names=["x1"])
        assert [item.source for item in offline.pdlc] == ["soc.secret.q"]
        assert offline.pdlc[0].dest == "soc.x1"

    def test_baselines_and_specure_same_core(self, vuln_config):
        """All tools share one core instance without interference."""
        core = BoomCore(vuln_config)
        offline = run_offline(core.netlist)
        SpecDoctor(core, seed=2, seeds=special_seeds()).run(iterations=3)
        TheHuzz(core, seed=2).run(iterations=3)
        checker = ExhaustiveChecker(core, offline)
        outcome = checker.run(budget=20, max_depth=1)
        assert outcome.candidates_checked == 16  # depth-1 alphabet

    def test_report_determinism_across_instances(self):
        a = Specure(spec(seed=5, monitor_dcache=True)).campaign(10)
        b = Specure(spec(seed=5, monitor_dcache=True)).campaign(10)
        assert a.fuzz.coverage_curve == b.fuzz.coverage_curve
        assert [r.kind for r in a.reports] == [r.kind for r in b.reports]


class TestCrossConfigConsistency:
    @pytest.mark.parametrize("preset", ["small", "medium"])
    def test_presets_run_and_detect(self, preset):
        specure = Specure(spec(design=preset, seed=2, monitor_dcache=True))
        online = specure.build_online()
        _, reports = online.run_once(all_triggers()["zenbleed"])
        assert "zenbleed" in {r.kind for r in reports}

    def test_medium_offline_larger(self):
        small = Specure(spec(design="small")).offline()
        medium = Specure(spec(design="medium")).offline()
        assert medium.ifg.vertex_count > small.ifg.vertex_count
        assert len(medium.pdlc) > len(small.pdlc)
