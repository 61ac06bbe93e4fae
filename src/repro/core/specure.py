"""The Specure facade: offline phase + online phase + hardware fuzzer.

One object wires the full pipeline of the paper's Figure 1 and runs
campaigns.  Its configuration is a
:class:`~repro.scenarios.spec.ScenarioSpec`, the one campaign config
object:

    spec = ScenarioSpec(name="demo", seed=7)
    report = Specure(spec).campaign(iterations=500)
    print(report.render())

The spec's knobs map one-to-one onto the paper's experiments:
``coverage`` selects LP vs traditional code coverage (Figure 2),
``monitor_dcache`` adds the data cache to the monitored observables
(the Spectre experiments), ``use_special_seeds`` toggles the speculative
seed corpus (the with/without-seeds detection-time numbers), and
``splice_probability``/``mutation_rounds`` tune the mutation engine.
``detector`` selects the detection pathway — the IFT/PDLC detector
(``"ift"``), the model-based relational contract detector
(``"contract"``, configured by ``contract``/``inputs_per_class``/
``max_spec_window``; see :mod:`repro.contracts`), or ``"both"`` for
cross-validation.

A Specure runs one serial campaign.  Sharded, persisted, resumable and
wall-clock-budgeted campaigns of the same spec all go through
:func:`repro.scenarios.runner.run_scenario`, whose shard worker builds
each shard's Specure from the spec at the shard's seed.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.core.offline import OfflineArtifacts, run_offline
from repro.core.online import OnlinePhase
from repro.core.report import CampaignReport
from repro.fuzz.categories import validate_categories, words_in_categories
from repro.fuzz.fuzzer import CampaignResult, Fuzzer, FuzzFinding
from repro.fuzz.input import TestProgram
from repro.fuzz.mutations import MutationEngine
from repro.fuzz.seeds import random_seed
from repro.puts.base import build_put
from repro.utils.rng import DeterministicRng


class SpecureCampaign:
    """A configured, reusable campaign runner (one fuzzer instance)."""

    def __init__(self, online: OnlinePhase, fuzzer: Fuzzer,
                 offline: OfflineArtifacts):
        self.online = online
        self.fuzzer = fuzzer
        self.offline = offline

    def run(
        self,
        iterations: int,
        stop_when: Callable[[list[FuzzFinding]], bool] | None = None,
        observer=None,  # FuzzObserver (telemetry heartbeats, progress)
        *,
        checkpoint_every: int = 0,
        on_checkpoint=None,     # (next_iteration, CampaignResult) -> None
        start_iteration: int = 0,
        resume_result: CampaignResult | None = None,
    ) -> CampaignReport:
        fuzz_result: CampaignResult = self.fuzzer.run(
            iterations, stop_when=stop_when, observer=observer,
            checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
            start_iteration=start_iteration, resume_result=resume_result,
        )
        mode = self.online.detector_mode
        return CampaignReport(
            offline=self.offline,
            fuzz=fuzz_result,
            stats=self.online.stats,
            mst=self.online.mst,
            detectors=("ift", "contract") if mode == "both" else (mode,),
            static_prune=self.online.static_prune,
        )


class Specure:
    """Top-level entry point of the reproduction."""

    def __init__(self, spec, *, core=None,
                 offline: OfflineArtifacts | None = None):
        """Wire the pipeline ``spec`` (a :class:`ScenarioSpec`) describes.

        ``core`` and ``offline`` inject prebuilt shared statics.  Both
        are pure functions of the PUT configuration (the core's engine
        resets exactly between programs; the offline artifacts derive
        from the netlist alone), so a process that runs many campaigns
        against one design — a sharded campaign's parent and its forked
        workers (:mod:`repro.harness.parallel`) — builds them once and
        hands them to every Specure instead of re-elaborating the
        netlist and re-running the offline phase per campaign.  An
        injected core must have been built for ``spec.build_config()``.
        """
        config = spec.build_config()
        if core is not None and core.config != config:
            raise ValueError(
                "Specure(spec, core=...): the injected core was built "
                "for a different configuration"
            )
        self.spec = spec
        self.core = core if core is not None else build_put(config)
        self._offline: OfflineArtifacts | None = offline

    def offline(self) -> OfflineArtifacts:
        """Run (and cache) the offline phase for this PUT."""
        if self._offline is None:
            self._offline = run_offline(self.core.offline_model())
        return self._offline

    def build_online(self) -> OnlinePhase:
        """A fresh online pipeline wired with every configured knob.

        The single construction point the campaign builder, the finding
        minimizer, and replay all share, so detector configuration can
        never drift between the fuzzing loop and its re-checkers.
        """
        return OnlinePhase(self.core, self.offline(), self.spec)

    def build_campaign(self) -> SpecureCampaign:
        """Wire a fresh online phase + fuzzer (new RNG streams)."""
        spec = self.spec
        offline = self.offline()
        online = self.build_online()
        rng = DeterministicRng(spec.seed)
        # Canonical registry order, whatever order the spec lists.
        categories = validate_categories(spec.instruction_categories)
        seeds: list[TestProgram] = []
        if spec.use_special_seeds:
            special = self.core.special_seeds()
            if categories:
                # Scoped campaigns keep only seeds made entirely of
                # in-scope instructions; everything else would be
                # out-of-scope chaff the mutator can't touch anyway.
                special = [s for s in special
                           if words_in_categories(s.words, categories)]
            seeds.extend(special)
        for index in range(spec.random_seed_count):
            seeds.append(random_seed(rng.fork(0x5EED + index),
                                     categories=categories))
        fuzz_rng = rng.fork(0xF0)
        mutator = None
        if categories:
            # The scoped engine draws from the same forked stream the
            # fuzzer's default engine would, just with a scoped pool.
            mutator = MutationEngine(fuzz_rng.fork(0xA11),
                                    categories=categories)
        fuzzer = Fuzzer(
            online.evaluate,
            seeds=seeds,
            rng=fuzz_rng,
            mutator=mutator,
            splice_probability=spec.splice_probability,
            mutation_rounds=spec.mutation_rounds,
        )
        return SpecureCampaign(online, fuzzer, offline)

    def campaign(
        self,
        iterations: int,
        stop_when: Callable[[list[FuzzFinding]], bool] | None = None,
    ) -> CampaignReport:
        """Run one fuzzing campaign end to end."""
        return self.build_campaign().run(iterations, stop_when=stop_when)


#: The iteration cap of a campaign with a wall-clock budget: a
#: backstop, the deadline does the real work.
TIMED_ITERATION_CAP = 10_000_000


def stop_on_kind(
    kind: str | None, *, seconds: float | None = None,
) -> Callable[[list[FuzzFinding]], bool] | None:
    """The stop predicate of every campaign path: end at the first
    ``kind`` finding and, with ``seconds``, once that wall-clock budget
    has passed (checked between iterations; the clock starts at this
    call).  ``None`` when neither condition is set."""
    if kind is None and seconds is None:
        return None
    deadline = None if seconds is None else time.monotonic() + seconds

    def predicate(findings: list[FuzzFinding]) -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return kind is not None and any(finding.kind == kind
                                        for finding in findings)

    return predicate
