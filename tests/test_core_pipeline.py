"""Tests for the Specure pipeline: offline phase, online phase, campaigns."""

import pytest

from repro.boom import BoomConfig, BoomCore, VulnConfig
from repro.core.offline import run_offline
from repro.core.online import OnlinePhase
from repro.core.specure import Specure, stop_on_kind
from repro.fuzz.triggers import zenbleed_trigger
from repro.rtl.elaborate import elaborate
from repro.rtl.parser import parse
from repro.scenarios.spec import ScenarioSpec
from tests.test_rtl_parser import LISTING_1


@pytest.fixture(scope="module")
def vuln_config():
    return BoomConfig.small(VulnConfig.all())


def spec(**knobs) -> ScenarioSpec:
    """A test campaign on the ``vuln_config`` design (both hooks armed)."""
    return ScenarioSpec(name="pipeline", **knobs)


@pytest.fixture(scope="module")
def specure():
    return Specure(spec(seed=1))


class TestOfflinePhase:
    def test_boom_netlist_offline(self, specure):
        offline = specure.offline()
        assert offline.ifg.vertex_count > 200
        assert offline.arch_count > 40
        assert offline.micro_count > 150
        assert len(offline.pdlc) > 1000

    def test_offline_cached(self, specure):
        assert specure.offline() is specure.offline()

    def test_forward_and_reverse_agree(self, vuln_config):
        from repro.ifg.pdlc import pdlc_pair_set

        core = BoomCore(vuln_config)
        reverse = run_offline(core.netlist, algorithm="reverse")
        forward = run_offline(core.netlist, algorithm="forward")
        assert pdlc_pair_set(reverse.pdlc) == pdlc_pair_set(forward.pdlc)

    def test_unknown_algorithm(self, vuln_config):
        core = BoomCore(vuln_config)
        with pytest.raises(ValueError):
            run_offline(core.netlist, algorithm="magic")

    def test_offline_on_elaborated_verilog(self):
        design = elaborate(parse(LISTING_1), top="top")
        offline = run_offline(design, arch_names=["o"])
        # 'top.o' is labelled architectural; both FF registers reach it.
        assert offline.arch_count == 1
        sources = {item.source for item in offline.pdlc}
        assert sources == {"top.df1.q", "top.df2.q"}

    def test_summary_text(self, specure):
        text = specure.offline().summary()
        assert "IFG:" in text and "PDLC:" in text

    def test_mwait_direct_edge_exists_when_armed(self, specure):
        """The armed hook adds a *direct* dcache -> mwait_timer channel."""
        pdlc = specure.offline().pdlc
        direct = [
            item for item in pdlc
            if item.dest == "boom.csr.mwait_timer"
            and ".dcache." in item.source and len(item.path) == 2
        ]
        assert direct

    def test_mwait_direct_edge_absent_when_unarmed(self):
        """Unarmed, dcache reaches the timer CSR only through the normal
        writeback datapath (a csrrw of loaded data) — never directly."""
        plain = Specure(spec(vulns=(), seed=1))
        pdlc = plain.offline().pdlc
        direct = [
            item for item in pdlc
            if item.dest == "boom.csr.mwait_timer"
            and ".dcache." in item.source and len(item.path) == 2
        ]
        assert not direct
        indirect = [
            item for item in pdlc
            if item.dest == "boom.csr.mwait_timer" and ".dcache." in item.source
        ]
        assert indirect  # the architecturally sanctioned route remains


class TestOnlinePhase:
    def test_evaluate_contract(self, specure):
        online = OnlinePhase(specure.core, specure.offline(), spec())
        items, findings, meta = online.evaluate(zenbleed_trigger())
        assert all(tag == "lp" for tag, _ in items)
        assert any(kind == "zenbleed" for kind, _ in findings)
        assert meta["halt"] == "halt_instruction"
        assert online.stats.programs == 1

    def test_code_coverage_arm_tracks_lp_curve(self, specure):
        online = OnlinePhase(specure.core, specure.offline(),
                             spec(coverage="code"))
        items, _findings, _meta = online.evaluate(zenbleed_trigger())
        assert items and all(tag != "lp" for tag, *_ in items)
        assert len(online.lp_covered) > 0

    def test_bad_coverage_kind(self, specure):
        # The spec rejects it before any pipeline is wired.
        with pytest.raises(ValueError):
            spec(coverage="???")

    def test_mst_accumulates(self, specure):
        online = OnlinePhase(specure.core, specure.offline(), spec())
        online.evaluate(zenbleed_trigger())
        online.evaluate(zenbleed_trigger())
        assert len(online.mst) >= 2


class TestCampaigns:
    def test_small_campaign_runs(self):
        specure = Specure(spec(seed=3))
        report = specure.campaign(iterations=12)
        assert report.fuzz.iterations == 12
        assert report.fuzz.final_coverage() > 0
        assert report.stats.programs == 12
        assert "Specure campaign report" in report.render()

    def test_stop_on_kind(self):
        specure = Specure(spec(seed=3, monitor_dcache=True))
        report = specure.campaign(
            iterations=50, stop_when=stop_on_kind("spectre_v1")
        )
        assert report.fuzz.iterations < 50
        assert "spectre_v1" in report.detected_kinds()

    def test_campaign_determinism(self):
        first = Specure(spec(seed=9)).campaign(iterations=8)
        second = Specure(spec(seed=9)).campaign(iterations=8)
        assert first.fuzz.coverage_curve == second.fuzz.coverage_curve

    def test_no_special_seeds_mode(self):
        specure = Specure(spec(seed=3, use_special_seeds=False))
        campaign = specure.build_campaign()
        assert all(
            not seed.label.startswith("seed:mispredict")
            for seed in campaign.fuzzer.seeds[:1]
        )
        report = campaign.run(iterations=5)
        assert report.fuzz.iterations == 5

    def test_first_detection_iteration(self):
        specure = Specure(spec(seed=3, monitor_dcache=True))
        report = specure.campaign(iterations=10)
        if "spectre_v1" in report.detected_kinds():
            assert report.first_detection_iteration("spectre_v1") is not None
        assert report.first_detection_iteration("nonexistent") is None
