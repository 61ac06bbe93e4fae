"""Early-stop semantics: serial ``stop_when`` vs sharded ``stop_kind``.

The campaign's fuzzing sequence is a pure function of its seed; a stop
condition only decides where the timeline ends.  These tests pin that
contract: a serial campaign stopped by ``stop_when`` and a sharded
campaign stopped by ``stop_kind`` must stamp the same first-finding
iteration, and both must truncate the coverage curve and discovery log
at the stop point consistently.
"""

import pytest

from repro.core.specure import Specure, stop_on_kind
from repro.harness.parallel import shard_seed
from repro.scenarios import ScenarioSpec, run_scenario

KIND = "spectre_v2"
BUDGET = 60
SEED = 7


def spec(**fields) -> ScenarioSpec:
    return ScenarioSpec(name="early-stop", seed=SEED, monitor_dcache=True,
                        iterations=BUDGET, **fields)


def sharded(shards: int):
    """The ``stop_kind`` campaign over ``shards`` inline shards."""
    return run_scenario(
        spec(shards=shards, stop_kind=KIND, on_shard_failure="fail",
             max_shard_retries=0),
        jobs=1,
    ).report


@pytest.fixture(scope="module")
def serial_report():
    return Specure(spec()).campaign(BUDGET, stop_when=stop_on_kind(KIND))


class TestSerialEarlyStop:
    def test_stops_at_the_first_finding_of_the_kind(self, serial_report):
        finding = serial_report.fuzz.first_finding(KIND)
        assert finding is not None, "seeded campaign must find the kind"
        # The loop ends with the iteration that produced the finding.
        assert serial_report.fuzz.iterations == finding.iteration + 1

    def test_curve_and_log_truncate_at_the_stop(self, serial_report):
        fuzz = serial_report.fuzz
        assert len(fuzz.coverage_curve) == fuzz.iterations
        assert all(
            iteration < fuzz.iterations
            for iteration, _item in fuzz.discovery_log
        )
        # The curve's final value is exactly the distinct items logged.
        assert fuzz.final_coverage() == len(
            {item for _i, item in fuzz.discovery_log}
        )

    def test_stop_is_a_pure_truncation_of_the_full_run(self, serial_report):
        full = Specure(spec()).campaign(BUDGET)
        stopped = serial_report.fuzz
        assert stopped.coverage_curve == \
            full.fuzz.coverage_curve[: stopped.iterations]
        assert stopped.discovery_log == \
            full.fuzz.discovery_log[: len(stopped.discovery_log)]


class TestShardedEarlyStop:
    def test_one_shard_stop_kind_matches_serial_stop_when(self,
                                                          serial_report):
        one = sharded(1)
        assert one.fuzz.iterations == serial_report.fuzz.iterations
        assert one.first_detection_iteration(KIND) == \
            serial_report.first_detection_iteration(KIND)
        assert one.fuzz.coverage_curve == serial_report.fuzz.coverage_curve
        assert one.fuzz.discovery_log == serial_report.fuzz.discovery_log

    def test_multi_shard_stamps_match_per_shard_serial_runs(self):
        shards = 2
        merged = sharded(shards)
        serials = [
            Specure(spec().override(seed=shard_seed(SEED, shard))).campaign(
                BUDGET, stop_when=stop_on_kind(KIND)
            )
            for shard in range(shards)
        ]
        # Merged timeline: shard k's findings are re-stamped by the
        # total iterations of the shards before it.
        offsets = []
        total = 0
        for report in serials:
            offsets.append(total)
            total += report.fuzz.iterations
        assert merged.fuzz.iterations == total

        expected = [
            (offsets[shard] + finding.iteration, finding.kind)
            for shard, report in enumerate(serials)
            for finding in report.fuzz.findings
        ]
        assert [(f.iteration, f.kind) for f in merged.fuzz.findings] == \
            expected

        first_serial = min(
            offsets[shard] + report.fuzz.first_finding(KIND).iteration
            for shard, report in enumerate(serials)
            if report.fuzz.first_finding(KIND) is not None
        )
        assert merged.first_detection_iteration(KIND) == first_serial

    def test_multi_shard_curve_truncates_consistently(self):
        fuzz = sharded(2).fuzz
        assert len(fuzz.coverage_curve) == fuzz.iterations
        assert all(
            iteration < fuzz.iterations
            for iteration, _item in fuzz.discovery_log
        )
        assert fuzz.final_coverage() == len(
            {item for _i, item in fuzz.discovery_log}
        )
