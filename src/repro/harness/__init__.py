"""Experiment harness: repeated campaigns, curves, and the registry
mapping every paper table/figure to its regenerating benchmark."""

from repro.harness.campaign import (
    CoverageCurve,
    align_curves,
    mean_curve,
    run_coverage_campaign,
    run_detection_campaign,
)
from repro.harness.experiments import EXPERIMENTS, ExperimentSpec
from repro.harness.parallel import (
    merge_campaign_results,
    merge_reports,
    shard_seed,
)
from repro.harness.plotting import render_coverage_figure

__all__ = [
    "CoverageCurve",
    "align_curves",
    "mean_curve",
    "run_coverage_campaign",
    "run_detection_campaign",
    "merge_campaign_results",
    "merge_reports",
    "shard_seed",
    "EXPERIMENTS",
    "ExperimentSpec",
    "render_coverage_figure",
]
