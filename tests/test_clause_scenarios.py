"""Fixed-seed pins for the clause-hunting scenario registry entries.

Each armed speculation mechanism ships one *catching* scenario (the
sequential-model contract flags its seeded gadget at a pinned iteration)
and one *ablation* scenario (the composed clause contract-allows the
mechanism, so the same gadget stops counting).  These pins are the
regression net for the whole clause stack: the gadget seed corpus, the
hardware mechanism model, the golden-ISS execution clause, and the
detector's residue probing all have to keep agreeing byte for byte.

Also here: the persistence round-trip for composed-clause-kind findings
and the jobs-count determinism of a composed sharded campaign.
"""

import json

import pytest

from repro.core.specure import stop_on_kind
from repro.scenarios import get_scenario
from repro.scenarios.runner import replay_findings, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import (
    CampaignStore,
    detector_of,
    report_from_dict,
    report_to_dict,
)

#: (scenario, pinned iteration of the first contract violation).
CATCH_PINS = (
    ("spectre-ssb", 0),
    ("meltdown", 0),
    ("spectre-rsb", 1),
)
ABLATIONS = (
    "spectre-ssb-ablation",
    "meltdown-ablation",
    "spectre-rsb-ablation",
)


def _finding_key(finding):
    return (finding.kind, finding.iteration, tuple(finding.program.words),
            tuple(finding.program.reg_init), finding.program.data_seed)


class TestCatchScenarioPins:
    @pytest.mark.parametrize("name,pin", CATCH_PINS,
                             ids=[name for name, _ in CATCH_PINS])
    def test_seeded_gadget_flagged_at_pinned_iteration(self, name, pin):
        spec = get_scenario(name).override(iterations=pin + 1)
        report = spec.build_specure().build_campaign().run(
            spec.iterations, stop_when=stop_on_kind(spec.stop_kind)
        )
        findings = report.fuzz.findings
        assert findings, f"{name}: the seeded gadget was not flagged"
        first = findings[0]
        assert first.kind == spec.stop_kind == "contract_ct_seq"
        assert first.iteration == pin
        # The trigger is the scenario's crafted gadget seed, untouched.
        seeds = spec.build_specure().build_campaign().fuzzer.seeds
        assert first.program.words == seeds[pin].words


class TestAblationScenarios:
    @pytest.mark.parametrize("name", ABLATIONS)
    def test_contract_allowed_gadget_not_flagged(self, name):
        spec = get_scenario(name).override(iterations=3)
        report = spec.build_specure().campaign(spec.iterations)
        assert report.fuzz.findings == []
        assert not any(detector_of(f.detail) == "contract"
                       for f in report.fuzz.findings)

    @pytest.mark.parametrize("catch,ablation",
                             [(c, a) for (c, _), a in zip(CATCH_PINS,
                                                          ABLATIONS)])
    def test_ablation_differs_only_in_the_allowed_clause(self, catch,
                                                         ablation):
        caught = get_scenario(catch)
        allowed = get_scenario(ablation)
        assert caught.speculation == allowed.speculation
        assert caught.instruction_categories == \
            allowed.instruction_categories
        assert caught.effective_contract() == "ct-seq"
        assert allowed.execution_clauses == \
            tuple(m for m in allowed.speculation)


#: A composed-clause catch setup that fires fast: the store-bypass
#: gadget (armed, iteration 3 of the seed corpus) violates
#: ct-cond+fault, producing a composed finding kind.
_COMPOSED = ScenarioSpec(
    name="composed-kind-store-test",
    description="store round-trip for composed-clause finding kinds",
    detector="contract",
    contract="ct-cond",
    execution_clauses=("fault",),
    speculation=("ssb", "fault"),
    vulns=(),
    seed=3,
    iterations=5,
    shards=2,
)


class TestComposedKindPersistence:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("composed-store") / "run"
        outcome = run_scenario(_COMPOSED, run_dir=root)
        assert outcome.report.fuzz.findings
        return root

    def test_findings_carry_the_composed_kind(self, run_dir):
        records = CampaignStore.open(run_dir).findings()
        assert records
        assert all(r["kind"] == "contract_ct_cond_fault" for r in records)

    def test_composed_kind_report_round_trips(self, run_dir):
        record = CampaignStore.open(run_dir).findings()[0]
        violation = report_from_dict(record["report"])
        assert violation.kind == "contract_ct_cond_fault"
        encoded = report_to_dict(violation)
        assert report_from_dict(json.loads(json.dumps(encoded))) == violation

    def test_replay_confirms_composed_findings(self, run_dir):
        results = replay_findings(run_dir)
        assert results
        assert all(r.confirmed for r in results)
        assert all(r.kind == "contract_ct_cond_fault" for r in results)

    def test_spec_round_trips_with_clause_fields(self, run_dir):
        stored = CampaignStore.open(run_dir).spec
        assert stored == _COMPOSED
        assert ScenarioSpec.from_toml(stored.to_toml()) == _COMPOSED


class TestComposedJobsDeterminism:
    def test_findings_identical_across_jobs_counts(self):
        reference = None
        for jobs in (1, 2):
            fail_fast = _COMPOSED.override(on_shard_failure="fail",
                                           max_shard_retries=0)
            report = run_scenario(fail_fast, jobs=jobs).report
            keys = [_finding_key(f) for f in report.fuzz.findings]
            assert keys, f"jobs={jobs}: no findings"
            if reference is None:
                reference = keys
            else:
                assert keys == reference


class TestRegistryHygiene:
    def test_every_registry_scenario_round_trips(self):
        from repro.scenarios import scenario_names

        for name in scenario_names():
            spec = get_scenario(name)
            assert ScenarioSpec.from_toml(spec.to_toml()) == spec
            assert ScenarioSpec.from_json(spec.to_json()) == spec
