"""Campaign-level tests for the contract detection pathway.

Detector dispatch in the online phase, both-mode cross-validation
(the contract detector and the IFT detector flag an overlapping program
set on spectre-v1), the `spectre-v1-contract` CLI acceptance run, and
the persistence contract: detector-kind round-trip, byte-stable resumed
reports, and replay of contract findings.
"""

import json

import pytest

from repro.core.specure import Specure
from repro.scenarios import get_scenario, resolve_scenario
from repro.scenarios.runner import (
    replay_findings,
    resume_scenario,
    run_scenario,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import (
    CampaignStore,
    contract_violation_from_dict,
    contract_violation_to_dict,
    detector_of,
    report_from_dict,
    report_to_dict,
    shard_report_from_dict,
    shard_report_to_dict,
)


def _specure(**overrides) -> Specure:
    defaults = dict(seed=3, monitor_dcache=True, detector="both")
    defaults.update(overrides)
    return Specure(ScenarioSpec(name="contract", **defaults))


class TestOnlinePhaseDispatch:
    def test_unknown_detector_rejected(self):
        # The spec rejects it before any pipeline is wired.
        with pytest.raises(ValueError, match="detector must be one of"):
            _specure(detector="nope")

    def test_ift_mode_has_no_contract_detector(self):
        online = _specure(detector="ift").build_online()
        assert online.contract is None

    def test_contract_mode_skips_ift_reports(self):
        # The mispredict trigger produces an IFT spectre_v1 report when
        # the dcache is monitored; in contract mode only the contract
        # violation must surface.
        from repro.fuzz.seeds import mispredict_seed

        online = _specure(detector="contract").build_online()
        _, reports = online.run_once(mispredict_seed())
        kinds = {r.kind for r in reports}
        assert kinds == {"contract_ct_seq"}

    def test_both_mode_overlap_on_spectre_v1(self):
        # Acceptance: on the spectre-v1 seed the two detectors flag the
        # same program — the built-in cross-validation harness.
        from repro.fuzz.seeds import mispredict_seed

        online = _specure(detector="both").build_online()
        _, reports = online.run_once(mispredict_seed())
        kinds = {r.kind for r in reports}
        assert "spectre_v1" in kinds
        assert "contract_ct_seq" in kinds

    def test_evaluate_tracks_contract_stats(self):
        from repro.fuzz.seeds import mispredict_seed

        online = _specure(detector="contract").build_online()
        _, findings, _ = online.evaluate(mispredict_seed())
        assert online.stats.contract_runs == 2  # the two variants
        assert sum(1 for _, report in findings
                   if detector_of(report) == "contract") == 1
        assert [kind for kind, _ in findings] == ["contract_ct_seq"]

    def test_variant_runs_count_as_simulation(self):
        """The detector's variant hardware runs are PUT simulation: their
        time lands in ``simulate_seconds``, not ``analysis_seconds``."""
        import time

        from repro.fuzz.seeds import mispredict_seed

        pause = 0.2
        specure = _specure(detector="contract")
        real_run = specure.core.run

        def slow_run(program):
            time.sleep(pause)
            return real_run(program)

        specure.core.run = slow_run
        online = specure.build_online()
        online.evaluate(mispredict_seed())
        stats = online.stats
        assert stats.contract_runs == 2
        # The base run plus both variants, each at least one pause.
        assert stats.simulate_seconds >= 3 * pause
        assert 0 <= stats.analysis_seconds < 2 * pause

    def test_cross_validation_campaign(self):
        # A short both-mode campaign over the special seeds: iteration 0
        # (mispredict) is flagged by both detectors, iteration 1 (the
        # secret-independent BTI gadget) by the IFT pathway only —
        # first-class triage output for detector disagreement.
        report = _specure().campaign(iterations=3)
        agreement = report.cross_validation()
        assert 0 in agreement["both"]
        assert 1 in agreement["ift_only"]
        rendered = report.render(include_timings=False)
        assert "Detector cross-validation" in rendered
        assert "Contract violations" in rendered

    def test_report_records_which_detectors_ran(self):
        # The report distinguishes "a detector found nothing" from "it
        # never ran": both-mode campaigns always render the
        # cross-validation table, and a contract-only report says the
        # IFT pathway was off rather than claiming a clean bill.
        both = _specure().campaign(iterations=1)
        assert both.detectors == ("ift", "contract")
        assert both.ran_both_detectors()
        assert "Detector cross-validation" in both.render(include_timings=False)
        assert both.to_dict()["detectors"] == ["ift", "contract"]
        contract_only = _specure(detector="contract").campaign(iterations=1)
        assert contract_only.detectors == ("contract",)
        rendered = contract_only.render(include_timings=False)
        assert "direct-channel (IFT) detector not run" in rendered
        assert "no direct-channel leaks detected" not in rendered
        assert "cross_validation" not in contract_only.to_dict()

    def test_stats_merge_includes_contract_counters(self):
        from repro.core.online import OnlineStats

        a = OnlineStats(contract_runs=2, memo_hits=1)
        b = OnlineStats(contract_runs=3, memo_misses=4)
        merged = a.merge(b)
        assert merged.contract_runs == 5
        assert (merged.memo_hits, merged.memo_misses) == (1, 4)


class TestScenarioAcceptance:
    def test_spectre_v1_contract_scenario_cli(self, tmp_path, capsys):
        # `python -m repro run spectre-v1-contract` reports a contract
        # violation on the fixed seed (the ISSUE acceptance line).
        from repro.__main__ import main

        out = tmp_path / "run"
        assert main(["run", "spectre-v1-contract",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "contract_ct_seq" in stdout
        report_text = (out / "report.txt").read_text()
        assert "Contract violations" in report_text
        assert "contract_ct_seq" in report_text

    def test_contract_ablation_scenario_allows_v1(self, tmp_path):
        spec = get_scenario("contract-ablation").override(iterations=2)
        outcome = run_scenario(spec, run_dir=tmp_path / "run")
        # The same seeds violate ct-seq but are allowed under ct-cond.
        assert not any(
            f.kind.startswith("contract_")
            for f in outcome.report.fuzz.findings
        )
        assert outcome.report.stats.contract_runs > 0

    def test_contract_stop_kind_requires_contract_detector(self):
        from repro.scenarios.spec import ScenarioError

        with pytest.raises(ScenarioError, match="never produces one"):
            ScenarioSpec(name="x", stop_kind="contract_ct_seq")
        with pytest.raises(ScenarioError, match="reports violations as"):
            ScenarioSpec(name="x", detector="contract", contract="ct-cond",
                         stop_kind="contract_ct_seq")
        spec = ScenarioSpec(name="x", detector="both",
                            stop_kind="contract_ct_seq")
        assert spec.stop_kind == "contract_ct_seq"
        # ...and the mirror: an IFT stop kind can never fire on a
        # contract-only campaign.
        with pytest.raises(ScenarioError, match="never produces one"):
            ScenarioSpec(name="x", detector="contract",
                         stop_kind="spectre_v1")
        assert ScenarioSpec(name="x", detector="both",
                            stop_kind="spectre_v1").stop_kind == "spectre_v1"

    def test_detector_cli_override(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["run", "quickstart", "--iterations", "1",
                     "--detector", "contract", "--no-minimize",
                     "--out", str(tmp_path / "run")]) == 0
        spec = resolve_scenario(str(tmp_path / "run" / "scenario.json"))
        assert spec.detector == "contract"


class TestPersistence:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("contract-store") / "run"
        spec = get_scenario("spectre-v1-contract").override(
            iterations=2, shards=2, stop_kind=None,
        )
        outcome = run_scenario(spec, run_dir=root)
        assert outcome.report.fuzz.findings
        return root

    def test_findings_record_detector_kind(self, run_dir):
        store = CampaignStore.open(run_dir)
        records = store.findings()
        assert records
        assert all(r["detector"] == "contract" for r in records)
        assert all(r["report"]["detector"] == "contract" for r in records)

    def test_shard_report_round_trips_contract_reports(self, run_dir):
        store = CampaignStore.open(run_dir)
        spec = store.spec
        offline = spec.build_specure().offline()
        loaded = store.load_shard_report(0, offline)
        assert loaded.reports
        assert loaded.detectors == ("contract",)
        from repro.contracts import ContractViolation

        assert all(isinstance(r, ContractViolation) for r in loaded.reports)
        # ...and a second encode produces identical bytes.
        first = json.dumps(shard_report_to_dict(0, spec.seed, loaded))
        again = json.dumps(shard_report_to_dict(
            0, spec.seed, shard_report_from_dict(json.loads(first), offline)
        ))
        assert first == again

    def test_report_codec_dispatch(self, run_dir):
        store = CampaignStore.open(run_dir)
        record = store.findings()[0]
        violation = contract_violation_from_dict(record["report"])
        assert violation.kind == record["kind"]
        assert contract_violation_to_dict(violation) == {
            key: value for key, value in record["report"].items()
            if key != "detector"
        }
        assert report_from_dict(report_to_dict(violation)) == violation

    def test_legacy_untagged_report_decodes_as_ift(self):
        legacy = {
            "kind": "zenbleed", "window_start": 1, "window_end": 2,
            "window_pc": 0x80000000, "window_word": 0x13,
            "leaked_signals": ["boom.arch.x5"], "root_causes": [],
        }
        from repro.detection.vulnerability import LeakReport

        assert isinstance(report_from_dict(legacy), LeakReport)

    def test_replay_confirms_contract_findings(self, run_dir):
        results = replay_findings(run_dir)
        assert results
        assert all(r.confirmed for r in results)
        assert all(r.detector == "contract" for r in results)

    def test_resume_is_byte_identical(self, run_dir, tmp_path):
        # Re-run the same scenario, drop shard 1's artifacts, resume:
        # the merged report must match the uninterrupted run's bytes.
        reference = (run_dir / "report.txt").read_bytes()
        store = CampaignStore.open(run_dir)
        interrupted = tmp_path / "interrupted"
        run_scenario(store.spec, run_dir=interrupted)
        (interrupted / "shards" / "shard-0001.json").unlink()
        (interrupted / "report.txt").unlink()
        outcome = resume_scenario(interrupted)
        assert outcome.resumed_shards == [0]
        assert outcome.executed_shards == [1]
        assert (interrupted / "report.txt").read_bytes() == reference

    def test_torn_trailing_jsonl_with_detector_field_tolerated(
            self, run_dir, tmp_path):
        # Satellite: the new detector field rides the same torn-write
        # tolerance — a partial final record (cut mid-field) is crash
        # debris, not corruption.
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(run_dir, clone)
        findings = clone / "findings.jsonl"
        intact = findings.read_text()
        record = json.loads(intact.splitlines()[0])
        torn = json.dumps(record)
        torn = torn[:torn.index('"detector"') + 14]  # cut inside the field
        findings.write_text(intact + torn)
        store = CampaignStore.open(clone)
        assert store.findings() == [
            json.loads(line) for line in intact.splitlines()
        ]
        # prune_incomplete rewrites the file without the fragment.
        store.prune_incomplete()
        assert findings.read_text() == intact
