"""Tests for the campaign harness and experiment registry."""

import pytest

from repro.harness.campaign import (
    CoverageCurve,
    mean_curve,
    run_coverage_campaign,
    run_detection_campaign,
)
from repro.harness.experiments import EXPERIMENTS, render_registry
from repro.harness.plotting import render_coverage_figure
from repro.scenarios import ScenarioSpec, run_scenario


def spec(**knobs) -> ScenarioSpec:
    """A campaign on the small core with both hooks armed."""
    return ScenarioSpec(name="harness", **knobs)


class TestCoverageCurve:
    def test_points_and_final(self):
        curve = CoverageCurve("x", [1, 2, 5])
        assert curve.final() == 5
        assert curve.as_points() == [(1, 1), (2, 2), (3, 5)]

    def test_stride_keeps_last(self):
        curve = CoverageCurve("x", list(range(10)))
        points = curve.as_points(stride=4)
        assert points[-1] == (10, 9)

    def test_iterations_to(self):
        curve = CoverageCurve("x", [1, 3, 7, 7])
        assert curve.iterations_to(3) == 2
        assert curve.iterations_to(8) is None

    def test_mean_curve(self):
        merged = mean_curve(
            [CoverageCurve("a", [0, 10]), CoverageCurve("b", [10, 20])],
            "mean",
        )
        assert merged.values == [5, 15]
        assert merged.label == "mean"

    def test_mean_curve_empty(self):
        with pytest.raises(ValueError):
            mean_curve([], "x")

    def test_mean_curve_pads_shorter_with_final_value(self):
        merged = mean_curve(
            [CoverageCurve("a", [1, 2, 4]), CoverageCurve("b", [1, 2])],
            "m",
        )
        # The short curve holds its final count (2) at the third point.
        assert len(merged.values) == 3
        assert merged.values == [1, 2, 3]


class TestCampaignRunners:
    def test_coverage_campaign_repeats(self):
        curves = run_coverage_campaign(
            spec(coverage="lp", iterations=6, seed=5), repeats=2)
        assert len(curves) == 2
        assert all(len(curve.values) == 6 for curve in curves)
        assert all(curve.final() > 0 for curve in curves)

    def test_crashed_iteration_repeats_the_previous_point(self, monkeypatch):
        """A contained crash still yields one curve point per iteration:
        the crashed iteration repeats its predecessor's count instead of
        shifting every later Figure 2 point one iteration left."""
        from repro.coverage.lp import LpCoverage
        from repro.scenarios import resolve_scenario

        real_items = LpCoverage.items
        calls = []

        def items_raising_once(self, result):
            calls.append(None)
            if len(calls) == 5:
                raise ValueError("injected coverage-phase failure")
            return real_items(self, result)

        monkeypatch.setattr(LpCoverage, "items", items_raising_once)
        quick = resolve_scenario("spec-cpu-quickstart").override(iterations=12)
        [curve] = run_coverage_campaign(quick, repeats=1)
        assert len(curve.values) == quick.iterations
        assert curve.values[4] == curve.values[3]
        assert curve.values == sorted(curve.values)

    def test_code_arm_also_reports_lp(self):
        curves = run_coverage_campaign(
            spec(coverage="code", iterations=5, seed=5), repeats=1)
        assert curves[0].final() > 0  # observed LP coverage, not code items

    def test_detection_campaign(self):
        outcome = run_detection_campaign(
            spec(iterations=40, seed=3, monitor_dcache=True),
            kinds=["spectre_v1"],
        )
        assert outcome.detected("spectre_v1")
        assert outcome.first_detection["spectre_v1"] >= 1

    def test_detection_campaign_budget_exhaustion(self):
        outcome = run_detection_campaign(
            spec(iterations=3, seed=3, monitor_dcache=True), kinds=["mwait"],
        )
        assert not outcome.detected("mwait")

    def test_timed_campaign_respects_deadline(self):
        import time

        started = time.monotonic()
        outcome = run_scenario(spec(seed=5, monitor_dcache=True),
                               seconds=2.0)
        elapsed = time.monotonic() - started
        assert outcome.report.fuzz.iterations >= 1
        assert elapsed < 10.0  # overshoot bounded by one evaluation

    def test_timed_campaign_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            run_scenario(spec(), seconds=0)

    def test_timed_campaign_cannot_be_stored(self, tmp_path):
        # A timed shard is not reproducible from its seed, so its run
        # directory could never be resumed byte-identically.
        run_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="run_dir or seconds"):
            run_scenario(spec(), run_dir=run_dir, seconds=1.0)
        assert not run_dir.exists()


class TestRegistry:
    def test_every_experiment_is_registered(self):
        # E1-E9 reproduce paper artifacts (E9 the parallel
        # infrastructure); A1 quantifies the reproduction's ablations.
        assert [spec.identifier for spec in EXPERIMENTS] == [
            f"E{i}" for i in range(1, 10)
        ] + ["A1"]

    def test_scenario_columns_name_registered_scenarios(self):
        from repro.scenarios import scenario_names

        named = {name for spec in EXPERIMENTS for name in spec.scenarios}
        assert named <= set(scenario_names())

    def test_slow_flags_match_the_benchmark_markers(self):
        from pathlib import Path

        for spec in EXPERIMENTS:
            marked = "pytest.mark.slow" in Path(spec.benchmark).read_text()
            assert spec.slow == marked, spec.identifier

    def test_every_experiment_has_bench(self):
        import os

        for spec in EXPERIMENTS:
            assert os.path.exists(spec.benchmark), spec.benchmark

    def test_render(self):
        text = render_registry()
        assert "Table 2" in text
        assert "Figure 2" in text


class TestPlotting:
    def test_figure_contains_both_series(self):
        lp = CoverageCurve("lp", [10 * i for i in range(20)])
        code = CoverageCurve("code", [5 * i for i in range(20)])
        figure = render_coverage_figure(lp, code, total_pdlc=500)
        assert "Leakage Path (LP)" in figure
        assert "Traditional Code Coverage" in figure
        assert "Figure 2" in figure
