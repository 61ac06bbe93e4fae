"""Campaign runners for the paper's experiments.

Two experiment shapes of the evaluation need more than one merged
campaign report, so they keep their own work units: *coverage
campaigns* (Figure 2: covered-PDLC-versus-iteration curves, repeated
and averaged) and *detection campaigns* (Table 2 / detection-time:
iterations until a given vulnerability class is first reported).  Both
take a :class:`~repro.scenarios.spec.ScenarioSpec` for the campaign
knobs.  Sharded and time-budgeted campaigns (the paper's 24-hour runs,
scaled to seconds) are :func:`repro.scenarios.runner.run_scenario`
calls.

Both runners take ``jobs``: with ``jobs >= 2`` their independent units
of work (coverage repeats, detection kinds) fan out across worker
processes via :mod:`repro.harness.parallel`, and the results merge back
to exactly what the serial run produces — see the determinism contract
in that module's docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fuzz.fuzzer import FuzzObserver
from repro.harness.parallel import map_shards, shard_seed
from repro.scenarios.spec import ScenarioSpec


@dataclass
class CoverageCurve:
    """One campaign's covered-PDLC-per-iteration series."""

    label: str
    values: list[int] = field(default_factory=list)

    def as_points(self, stride: int = 1) -> list[tuple[float, float]]:
        return [
            (index + 1, value)
            for index, value in enumerate(self.values)
            if index % stride == 0 or index == len(self.values) - 1
        ]

    def final(self) -> int:
        return self.values[-1] if self.values else 0

    def iterations_to(self, target: int) -> int | None:
        for index, value in enumerate(self.values):
            if value >= target:
                return index + 1
        return None


def align_curves(curves: list[CoverageCurve]) -> list[list[int]]:
    """Pad every curve to the longest length with its final value.

    Cumulative coverage holds its last count once a campaign stops, so a
    run that ended early (deadline, stop predicate) is extended with its
    final value rather than silently truncating the others.
    """
    length = max((len(curve.values) for curve in curves), default=0)
    padded = []
    for curve in curves:
        tail = curve.values[-1] if curve.values else 0
        padded.append(
            curve.values + [tail] * (length - len(curve.values))
        )
    return padded


def mean_curve(curves: list[CoverageCurve], label: str) -> CoverageCurve:
    """Pointwise mean of the curves (the paper averages 3 runs).

    Unequal-length curves are aligned first (shorter curves hold their
    final coverage count), so an early-stopping repeat no longer drags
    the Figure 2 average down to the shortest run.
    """
    if not curves:
        raise ValueError("no curves to average")
    padded = align_curves(curves)
    length = len(padded[0])
    values = [
        sum(values[index] for values in padded) / len(curves)
        for index in range(length)
    ]
    return CoverageCurve(label=label, values=[int(v) for v in values])


def _coverage_repeat(unit: tuple[ScenarioSpec, int]) -> CoverageCurve:
    """One coverage-campaign repeat — the unit both the serial loop and
    the parallel shard workers execute, so their results are identical."""
    spec, repeat = unit
    specure = spec.override(seed=shard_seed(spec.seed, repeat)).build_specure()
    campaign = specure.build_campaign()
    curve = CoverageCurve(label=f"{spec.coverage}#{repeat}")
    # One point per iteration, read after the fuzz loop has finished
    # it: an iteration whose evaluation crashed repeats the last count.
    campaign.run(spec.iterations, observer=FuzzObserver(
        on_iteration=lambda index, new, total: curve.values.append(
            len(campaign.online.lp_covered))))
    return curve


def run_coverage_campaign(
    spec: ScenarioSpec,
    repeats: int = 3,
    jobs: int | None = None,
) -> list[CoverageCurve]:
    """Run ``repeats`` ``spec.iterations``-long campaigns of ``spec``.

    Both arms (``spec.coverage`` LP and code) report their progress in
    *covered PDLCs* — Figure 2's y-axis — regardless of which metric
    guided the fuzzer.  For the code-coverage arm this means the LP
    calculator runs as a passive observer on every iteration.

    Repeat ``k`` runs at :func:`~repro.harness.parallel.shard_seed`
    ``(spec.seed, k)``; with ``jobs >= 2`` the repeats run in parallel
    worker processes and the returned curves are byte-identical to a
    serial run.  A repeat records its own online phase's covered-PDLC
    count after every iteration, which a merged
    :class:`~repro.core.report.CampaignReport` does not carry, so
    repeats are not scenario shards.
    """
    units = [(spec, repeat) for repeat in range(repeats)]
    return map_shards(_coverage_repeat, units, jobs)


@dataclass
class DetectionOutcome:
    """First-detection iterations for each vulnerability kind."""

    tool: str
    iterations_budget: int
    first_detection: dict[str, int] = field(default_factory=dict)

    def detected(self, kind: str) -> bool:
        return kind in self.first_detection


def _detection_kind(unit: tuple[ScenarioSpec, str]) -> DetectionOutcome:
    """One single-kind detection campaign (picklable shard worker)."""
    spec, kind = unit
    return run_detection_campaign(spec, [kind])


def run_detection_campaign(
    spec: ScenarioSpec,
    kinds: list[str],
    jobs: int | None = None,
) -> DetectionOutcome:
    """Fuzz ``spec`` until every kind in ``kinds`` is found or its
    ``spec.iterations`` budget ends.

    With ``jobs >= 2`` (and more than one kind) each vulnerability kind
    gets its own worker process running the same seeded campaign, which
    stops as soon as *its* kind is found.  The fuzzing sequence is a
    pure function of the seed — the stop predicate only ends the loop —
    so each kind's first-detection iteration is identical to the serial
    all-kinds campaign's, while the slowest kind no longer serialises
    behind the others.  (These units share one seed, so they are not a
    scenario's shards.)
    """
    budget = spec.iterations
    if jobs is not None and jobs >= 2 and len(kinds) >= 2:
        units = [(spec, kind) for kind in kinds]
        merged = DetectionOutcome(tool="specure", iterations_budget=budget)
        for outcome in map_shards(_detection_kind, units, jobs):
            merged.first_detection.update(outcome.first_detection)
        return merged

    remaining = set(kinds)

    def stop(findings) -> bool:
        for finding in findings:
            remaining.discard(finding.kind)
        return not remaining

    report = spec.build_specure().campaign(budget, stop_when=stop)
    outcome = DetectionOutcome(tool="specure", iterations_budget=budget)
    for kind in kinds:
        iteration = report.first_detection_iteration(kind)
        if iteration is not None:
            outcome.first_detection[kind] = iteration + 1  # 1-based
    return outcome
