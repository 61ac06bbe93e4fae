"""Tests for the sharded parallel campaign subsystem and its merges."""

import pytest

from repro.boom import BoomConfig, VulnConfig
from repro.core.online import OnlineStats
from repro.detection.mst import MisspeculationTable
from repro.detection.windows import DetectedWindow
from repro.fuzz.fuzzer import CampaignResult, FuzzFinding
from repro.fuzz.input import TestProgram
from repro.harness.campaign import (
    run_coverage_campaign,
    run_detection_campaign,
)
from repro.harness.parallel import (
    merge_campaign_results,
    merge_reports,
    run_sharded_campaign,
    shard_seed,
)


def window(tag, start, end, mispredicted=True):
    return DetectedWindow(
        tag=tag, start=start, end=end, pc=0x8000_0000 + 4 * tag,
        word=0x63, mispredicted=mispredicted,
    )


def mst_of(*windows):
    table = MisspeculationTable()
    table.add_windows(list(windows))
    return table


class TestMstMerge:
    def test_merge_concatenates_and_sorts(self):
        a = mst_of(window(1, 5, 9), window(2, 20, 25))
        b = mst_of(window(3, 1, 4))
        merged = a.merge(b)
        assert len(merged) == 3
        assert [w.start for w in merged.rows] == [1, 5, 20]

    def test_merge_is_order_independent(self):
        a = mst_of(window(1, 5, 9))
        b = mst_of(window(2, 3, 7), window(3, 5, 6))
        c = mst_of(window(4, 0, 2))
        assert a.merge(b, c).rows == c.merge(a, b).rows == b.merge(c, a).rows

    def test_merge_is_associative(self):
        a = mst_of(window(1, 5, 9))
        b = mst_of(window(2, 3, 7))
        c = mst_of(window(4, 0, 2))
        assert a.merge(b).merge(c).rows == a.merge(b, c).rows

    def test_merge_does_not_mutate_operands(self):
        a = mst_of(window(1, 5, 9))
        b = mst_of(window(2, 3, 7))
        a.merge(b)
        assert len(a) == 1 and len(b) == 1


class TestStatsMerge:
    def test_merge_sums_fields(self):
        a = OnlineStats(programs=2, cycles=100, instructions=50, windows=4,
                        mispredicted_windows=1, simulate_seconds=1.5,
                        analysis_seconds=0.5)
        b = OnlineStats(programs=3, cycles=200, instructions=70, windows=6,
                        mispredicted_windows=2, simulate_seconds=2.5,
                        analysis_seconds=1.0)
        merged = a.merge(b)
        assert merged.programs == 5
        assert merged.cycles == 300
        assert merged.instructions == 120
        assert merged.windows == 10
        assert merged.mispredicted_windows == 3
        assert merged.simulate_seconds == pytest.approx(4.0)
        assert merged.analysis_seconds == pytest.approx(1.5)

    def test_merge_commutative_and_associative(self):
        a = OnlineStats(programs=1, cycles=10)
        b = OnlineStats(programs=2, cycles=20)
        c = OnlineStats(programs=4, cycles=40)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b, c) == c.merge(b, a)

    def test_merge_does_not_mutate_operands(self):
        a = OnlineStats(programs=1)
        a.merge(OnlineStats(programs=9))
        assert a.programs == 1


def fuzz_result(iterations, discoveries, findings=()):
    """A synthetic shard result. ``discoveries``: [(iteration, item)]."""
    result = CampaignResult(iterations=iterations)
    result.discovery_log = list(discoveries)
    seen = 0
    position = 0
    for i in range(iterations):
        while position < len(discoveries) and discoveries[position][0] <= i:
            seen += 1
            position += 1
        result.coverage_curve.append(seen)
    program = TestProgram(words=[0x13])
    result.findings = [
        FuzzFinding(iteration=i, kind=kind, detail=None, program=program)
        for i, kind in findings
    ]
    result.corpus_size = len(discoveries)
    result.executed_programs = iterations
    return result


class TestCampaignResultMerge:
    def test_single_shard_is_identity_on_curve(self):
        shard = fuzz_result(4, [(0, "a"), (0, "b"), (2, "c")])
        merged = merge_campaign_results([shard])
        assert merged.coverage_curve == shard.coverage_curve == [2, 2, 3, 3]
        assert merged.iterations == 4

    def test_union_curve_deduplicates_across_shards(self):
        a = fuzz_result(3, [(0, "x"), (1, "y")])
        b = fuzz_result(3, [(0, "x"), (2, "z")])  # "x" rediscovered
        merged = merge_campaign_results([a, b])
        # Timeline: iters 0-2 from a (x, y), iters 3-5 from b (dup x, z).
        assert merged.iterations == 6
        assert merged.coverage_curve == [1, 2, 2, 2, 2, 3]

    def test_findings_get_stable_iteration_stamps(self):
        a = fuzz_result(5, [], findings=[(1, "spectre_v1")])
        b = fuzz_result(7, [], findings=[(2, "zenbleed")])
        merged = merge_campaign_results([a, b])
        assert [(f.iteration, f.kind) for f in merged.findings] == [
            (1, "spectre_v1"), (5 + 2, "zenbleed"),
        ]

    def test_merge_is_associative(self):
        a = fuzz_result(3, [(0, "x")], findings=[(0, "k")])
        b = fuzz_result(2, [(1, "y")])
        c = fuzz_result(4, [(0, "x"), (3, "z")], findings=[(3, "k")])
        whole = merge_campaign_results([a, b, c])
        staged = merge_campaign_results([merge_campaign_results([a, b]), c])
        assert whole.coverage_curve == staged.coverage_curve
        assert whole.iterations == staged.iterations
        assert [(f.iteration, f.kind) for f in whole.findings] == \
            [(f.iteration, f.kind) for f in staged.findings]

    def test_merge_curve_is_monotone(self):
        a = fuzz_result(4, [(1, "p"), (3, "q")])
        b = fuzz_result(4, [(0, "p"), (2, "r")])
        curve = merge_campaign_results([a, b]).coverage_curve
        assert all(x <= y for x, y in zip(curve, curve[1:]))

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_reports([])


class TestShardedCampaigns:
    @pytest.fixture(scope="class")
    def config(self):
        return BoomConfig.small(VulnConfig.all())

    def test_shard_zero_runs_at_the_base_seed(self):
        # One-shard campaigns must be indistinguishable from serial runs.
        assert shard_seed(5, 0) == 5
        assert shard_seed(0, 0) == 0

    def test_shard_seeds_are_deterministic_and_distinct(self):
        from repro.utils.rng import stable_hash

        seeds = [shard_seed(5, k) for k in range(8)]
        assert seeds == [shard_seed(5, k) for k in range(8)]  # stable
        assert len(set(seeds)) == len(seeds)
        assert seeds[1:] == [stable_hash((5, k)) for k in range(1, 8)]

    def test_shard_seeds_do_not_collide_across_nearby_base_seeds(self):
        # The old `base + 1000 * k` spacing aliased campaigns whose base
        # seeds differ by a multiple of 1000: seed 0 shard 1 replayed
        # seed 1000 shard 0.  The hash derivation must not.
        streams = {
            (base, k): shard_seed(base, k)
            for base in (0, 1000, 2000, 7)
            for k in range(4)
        }
        assert len(set(streams.values())) == len(streams)

    def test_sharded_coverage_identical_to_serial(self, config):
        serial = run_coverage_campaign(
            config, "lp", iterations=5, repeats=2, base_seed=7
        )
        sharded = run_coverage_campaign(
            config, "lp", iterations=5, repeats=2, base_seed=7, jobs=2
        )
        assert [(c.label, c.values) for c in serial] == \
            [(c.label, c.values) for c in sharded]

    def test_parallel_detection_matches_serial(self, config):
        serial = run_detection_campaign(
            config, ["spectre_v1"], iterations=12, seed=3
        )
        parallel = run_detection_campaign(
            config, ["spectre_v1", "zenbleed"], iterations=12, seed=3, jobs=2
        )
        assert parallel.first_detection.get("spectre_v1") == \
            serial.first_detection.get("spectre_v1")

    def test_sharded_campaign_merges_into_one_report(self, config):
        report = run_sharded_campaign(
            config, iterations_per_shard=4, shards=2, jobs=2, base_seed=11
        )
        assert report.fuzz.iterations == 8
        assert report.stats.programs == 8
        assert len(report.fuzz.coverage_curve) == 8
        curve = report.fuzz.coverage_curve
        assert all(x <= y for x, y in zip(curve, curve[1:]))
        # The merged report renders like any serial report.
        assert "Specure campaign report" in report.render()

    def test_sharded_campaign_inline_equals_processes(self, config):
        inline = run_sharded_campaign(
            config, iterations_per_shard=3, shards=2, jobs=1, base_seed=11
        )
        procs = run_sharded_campaign(
            config, iterations_per_shard=3, shards=2, jobs=2, base_seed=11
        )
        assert inline.fuzz.coverage_curve == procs.fuzz.coverage_curve
        # Timing fields are wall clock; every counter is deterministic.
        for field in ("programs", "cycles", "instructions", "windows",
                      "mispredicted_windows"):
            assert getattr(inline.stats, field) == \
                getattr(procs.stats, field)
        assert len(inline.mst) == len(procs.mst)
        assert [r.kind for r in inline.reports] == \
            [r.kind for r in procs.reports]

    def test_sharded_campaign_forwards_random_seed_count(self, config):
        from repro.core.specure import Specure

        specure = Specure(config, seed=11, random_seed_count=2)
        serial = specure.campaign(6)
        sharded = specure.sharded_campaign(6, shards=1, jobs=1)
        # One shard must be indistinguishable from the serial run, so a
        # non-default seed corpus has to reach the shard workers too.
        assert sharded.fuzz.coverage_curve == serial.fuzz.coverage_curve
        assert sharded.stats.cycles == serial.stats.cycles

    def test_shard_spec_rejects_bad_shard_count(self, config):
        with pytest.raises(ValueError):
            run_sharded_campaign(config, 3, shards=0)

    def test_shard_spec_is_picklable(self, config):
        import pickle

        from repro.core.specure import Specure
        from repro.scenarios.runner import ShardTask

        task = ShardTask.of(Specure(config, seed=9, random_seed_count=2),
                            1, iterations=3)
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.seed == shard_seed(9, 1)
        assert clone.knobs["random_seed_count"] == 2


#: One non-default value per Specure knob, with the companion knobs
#: that make it observable within ``_GUARD_ITERATIONS`` (the contract
#: knobs act only under a contract detector; the mutation knobs only
#: once the special seeds stop leading the corpus).
_KNOB_VALUES = {
    "coverage": ("code", {}),
    "monitor_dcache": (True, {}),
    "use_special_seeds": (False, {}),
    "random_seed_count": (1, {"use_special_seeds": False}),
    "splice_probability": (1.0, {"use_special_seeds": False}),
    "mutation_rounds": (1, {"use_special_seeds": False}),
    "detector": ("both", {}),
    "contract": ("ct-cond", {"detector": "contract"}),
    "inputs_per_class": (4, {"detector": "contract"}),
    "max_spec_window": (2, {"detector": "contract", "contract": "ct-cond"}),
    "instruction_categories": (("alu", "branch", "load"), {}),
    "static_prune": (True, {}),
}
_GUARD_ITERATIONS = 10


class TestKnobForwarding:
    """Every knob reaches the shard worker through the ShardTask."""

    @pytest.fixture(scope="class")
    def config(self):
        return BoomConfig.small(VulnConfig.all())

    def test_knob_list_is_the_constructor(self):
        import inspect

        from repro.core.specure import Specure
        from repro.scenarios.spec import ScenarioSpec

        params = set(inspect.signature(Specure).parameters)
        assert set(Specure.KNOBS) == \
            params - {"config", "seed", "core", "offline"}
        assert set(_KNOB_VALUES) == set(Specure.KNOBS)
        assert set(Specure.KNOBS) <= set(ScenarioSpec.__dataclass_fields__)

    @pytest.mark.parametrize("knob", sorted(_KNOB_VALUES))
    def test_one_shard_renders_the_serial_report(self, config, knob):
        from repro.core.specure import Specure

        value, companions = _KNOB_VALUES[knob]

        def render(report):
            return (report.render(include_timings=False),
                    report.fuzz.coverage_curve, report.stats.cycles)

        specure = Specure(config, seed=5, **companions, **{knob: value})
        serial = render(specure.campaign(_GUARD_ITERATIONS))
        sharded = render(specure.sharded_campaign(
            _GUARD_ITERATIONS, shards=1, jobs=1))
        default = render(
            Specure(config, seed=5, **companions).campaign(_GUARD_ITERATIONS))
        assert serial != default, f"{knob}={value!r} changes nothing here"
        assert sharded == serial
