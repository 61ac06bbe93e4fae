"""Tests for the declarative scenario subsystem (spec + registry + CLI)."""

import pytest

from repro.boom.vulns import VulnConfig
from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    render_scenarios,
    scenario_names,
)
from repro.scenarios.registry import _REGISTRY


class TestRoundTrip:
    def test_toml_round_trip_all_builtins(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip_all_builtins(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip_both_formats(self, tmp_path):
        spec = get_scenario("spectre-v1")
        for suffix in (".toml", ".json"):
            path = tmp_path / f"scenario{suffix}"
            spec.dump(path)
            assert ScenarioSpec.load(path) == spec

    def test_top_level_keys_accepted(self):
        # Hand-written files may skip the [scenario] table.
        spec = ScenarioSpec.from_toml('name = "flat"\niterations = 7\n')
        assert spec.name == "flat" and spec.iterations == 7

    def test_stop_kind_omitted_when_none(self):
        spec = ScenarioSpec(name="x")
        assert "stop_kind" not in spec.to_dict()
        assert ScenarioSpec.from_toml(spec.to_toml()).stop_kind is None

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: nope")
        with pytest.raises(ScenarioError, match=r"\.toml or\s+?\.json"):
            ScenarioSpec.load(path)


class TestValidation:
    def test_unknown_key_rejected_with_suggestion(self):
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict({"name": "x", "coverge": "lp"})
        message = str(excinfo.value)
        assert "unknown key" in message and "'coverage'" in message

    def test_missing_name_rejected(self):
        with pytest.raises(ScenarioError, match="missing the required"):
            ScenarioSpec.from_dict({"iterations": 5})

    def test_bad_design_lists_choices(self):
        with pytest.raises(ScenarioError, match="small, medium, large"):
            ScenarioSpec(name="x", design="huge")

    def test_bad_coverage_suggests(self):
        with pytest.raises(ScenarioError, match="did you mean 'lp'"):
            ScenarioSpec(name="x", coverage="lpp")

    def test_bad_vuln_hook(self):
        with pytest.raises(ScenarioError, match="unknown vulnerability hook"):
            ScenarioSpec(name="x", vulns=("heartbleed",))

    def test_duplicate_vuln_hook(self):
        with pytest.raises(ScenarioError, match="twice"):
            ScenarioSpec(name="x", vulns=("mwait", "mwait"))

    def test_bad_stop_kind(self):
        with pytest.raises(ScenarioError, match="stop_kind must be one of"):
            ScenarioSpec(name="x", stop_kind="meltdown")

    @pytest.mark.parametrize("field,value,fragment", [
        ("splice_probability", 2.0, r"\[0.0, 1.0\]"),
        ("mutation_rounds", 0, ">= 1"),
        ("iterations", -1, ">= 0"),
        ("shards", 0, ">= 1"),
        ("random_seed_count", -2, ">= 0"),
    ])
    def test_numeric_ranges(self, field, value, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            ScenarioSpec(name="x", **{field: value})

    def test_type_errors_are_actionable(self):
        with pytest.raises(ScenarioError, match="seed must be a number"):
            ScenarioSpec(name="x", seed=True)
        with pytest.raises(ScenarioError, match="monitor_dcache must be"):
            ScenarioSpec(name="x", monitor_dcache="yes")
        # bool is an int subclass: it must not sneak into float fields.
        with pytest.raises(ScenarioError,
                           match="splice_probability must be a number"):
            ScenarioSpec(name="x", splice_probability=True)

    def test_missing_scenario_file_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            ScenarioSpec.load("does-not-exist.toml")

    def test_seedless_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="at least one seed"):
            ScenarioSpec(name="x", use_special_seeds=False,
                         random_seed_count=0)

    def test_invalid_toml_reported_with_source(self):
        with pytest.raises(ScenarioError, match="invalid TOML in here.toml"):
            ScenarioSpec.from_toml("name = ", source="here.toml")

    def test_override_revalidates(self):
        spec = ScenarioSpec(name="x")
        with pytest.raises(ScenarioError):
            spec.override(shards=0)


class TestBridges:
    def test_build_config_maps_design_and_vulns(self):
        spec = ScenarioSpec(name="x", design="medium", vulns=("zenbleed",))
        config = spec.build_config()
        assert config.rob_entries == 32  # the medium preset
        assert config.vulns == VulnConfig(mwait=False, zenbleed=True)

    def test_build_specure_carries_every_knob(self):
        spec = ScenarioSpec(
            name="x", coverage="code", monitor_dcache=True, seed=42,
            use_special_seeds=False, random_seed_count=2,
            splice_probability=0.5, mutation_rounds=7,
        )
        specure = spec.build_specure()
        assert specure.spec is spec
        campaign = specure.build_campaign()
        assert campaign.online.coverage_kind == "code"
        assert campaign.online.vulnerability.monitor_dcache is True
        # No special seeds: the corpus is the two random seed programs.
        assert len(campaign.fuzzer.seeds) == 2
        assert campaign.fuzzer.splice_probability == 0.5
        assert campaign.fuzzer.mutation_rounds == 7

    def test_build_specure_seed_override(self):
        # A different seed is a different spec: override() is the one
        # spelling, and the campaign reads it from there.
        moved = ScenarioSpec(name="x", seed=1).override(seed=9)
        assert moved.build_specure().spec == ScenarioSpec(name="x", seed=9)

    def test_stop_predicate(self):
        from repro.core.specure import stop_on_kind
        from repro.fuzz.fuzzer import FuzzFinding
        from repro.fuzz.input import TestProgram

        spec = ScenarioSpec(name="x", stop_kind="zenbleed")
        predicate = stop_on_kind(spec.stop_kind)
        finding = FuzzFinding(iteration=0, kind="zenbleed", detail=None,
                              program=TestProgram(words=[0x13]))
        assert predicate([finding]) and not predicate([])
        assert stop_on_kind(ScenarioSpec(name="x").stop_kind) is None
        # A wall-clock budget stops on its own once it has passed.
        assert stop_on_kind(None, seconds=1e-9)([])
        timed = stop_on_kind("zenbleed", seconds=3600)
        assert timed([finding]) and not timed([])


class TestRegistry:
    def test_registry_covers_the_paper_workloads(self):
        names = scenario_names()
        for expected in ("quickstart", "spectre-v1", "spectre-v1-no-seeds",
                         "zenbleed-mwait", "lp-coverage-race",
                         "code-coverage-race", "nested-speculation-stress",
                         "dcache-monitor-sweep", "offline-analysis"):
            assert expected in names

    def test_unknown_name_suggests(self):
        with pytest.raises(ScenarioError, match="did you mean 'spectre-v1'"):
            get_scenario("spectre-v:1")

    def test_register_and_conflict(self):
        spec = ScenarioSpec(name="test-only-temp")
        try:
            register_scenario(spec)
            assert get_scenario("test-only-temp") == spec
            with pytest.raises(ScenarioError, match="already registered"):
                register_scenario(spec)
            register_scenario(spec.override(seed=9), replace=True)
            assert get_scenario("test-only-temp").seed == 9
        finally:
            _REGISTRY.pop("test-only-temp", None)

    def test_render_lists_every_scenario(self):
        rendered = render_scenarios()
        for name in scenario_names():
            assert name in rendered


class TestCli:
    def test_list_scenarios(self, capsys):
        from repro.__main__ import main

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "spectre-v1" in out
        # The design column distinguishes the BOOM presets from the
        # Verilog-backed PUT rows.
        assert "design" in out
        assert "spec-cpu-quickstart" in out
        assert "spec-cpu " in out

    def test_list_scenarios_json_round_trips(self, capsys):
        # `list-scenarios --format json` is the machine-readable export:
        # every row's embedded spec dict must reconstruct the registered
        # ScenarioSpec exactly.
        import json

        from repro.__main__ import main

        assert main(["list-scenarios", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == scenario_names()
        for row in rows:
            spec = ScenarioSpec.from_dict(row["spec"])
            assert spec == get_scenario(row["name"])
            assert row["iterations"] == spec.iterations
            assert row["shards"] == spec.shards

    def test_run_every_registered_scenario_tiny(self, tmp_path, capsys):
        # The acceptance bar: `python -m repro run <name>` works for every
        # registered scenario (with a tiny budget to keep this fast).
        from repro.__main__ import main

        for name in scenario_names():
            code = main([
                "run", name, "--iterations", "2", "--shards", "1",
                "--no-minimize", "--out", str(tmp_path / name),
            ])
            assert code == 0, f"scenario {name} failed"
        out = capsys.readouterr().out
        assert "Specure campaign report" in out

    def test_run_scenario_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "mine.toml"
        ScenarioSpec(name="mine", iterations=2).dump(path)
        assert main(["run", str(path), "--no-minimize",
                     "--out", str(tmp_path / "out")]) == 0

    def test_unknown_scenario_is_an_error_exit(self, capsys):
        from repro.__main__ import main

        assert main(["run", "does-not-exist"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_default_is_selfcheck_help_text(self):
        # No-argument mode stays the self-check; just pin the wiring, not
        # the (slow) run itself.
        from repro.__main__ import main, selfcheck  # noqa: F401
