"""The Contract Detector: model-based relational leak detection.

The repository's second, IFG-free detection pathway (the "hybrid" in the
paper's title, taken one step further à la Revizor): instead of diffing
snapshots inside misspeculated windows, it checks the *contract*

    equal contract traces  ⇒  equal hardware traces

over boosted input classes.  For one fuzzer-generated program:

1. **Speculation filter.**  Compare the hardware-touched cache lines
   (:class:`~repro.contracts.hwtrace.HardwareTrace.lines`) with the
   lines the golden ISS touched architecturally.  Lines only the
   hardware saw are transient residue; a program with none cannot
   violate any clause here and is skipped — which keeps the per-
   iteration hot path close to plain simulation cost.
2. **Boosted input generation.**  Plant differing *secret* bytes at the
   transient-residue lines (addresses the architectural execution never
   reads) to build ``inputs_per_class - 1`` variant inputs.  When the
   hardware speculates past in-flight stores (``probe_stale_stores``),
   lines whose first architectural access was a *store* join the pool:
   their pre-store bytes are architecturally dead, but a store-bypassing
   load reads exactly those.  By construction the variants sit in the
   base input's contract class under execution-free clauses
   (``ct-seq``/``arch-seq``); under clauses with execution members
   (``ct-cond``, ``ct-ssb``, compositions, ...) the clause itself
   decides (a model-visible speculative access splits the class — that
   leak is contract-allowed).
3. **Relational check.**  Partition base + variants by contract trace;
   within each class, every member's hardware trace must equal the
   first member's.  The first divergence becomes a
   :class:`ContractViolation`.

Everything is a pure function of the program bytes (variant secrets are
``stable_hash``-derived), so findings replay and minimize exactly like
IFT findings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

from repro import telemetry
from repro.boom.core import CoreResult
from repro.contracts.clauses import (
    DEFAULT_SPEC_WINDOW,
    ContractError,
    ContractTrace,
    GoldenTraceMemo,
    canonicalize_clause,
    contract_kind,
    parse_clause,
)
from repro.contracts.hwtrace import HardwareTrace, HardwareTraceCollector
from repro.fuzz.input import TestProgram
from repro.utils.rng import stable_hash

#: Default class size (base input + derived variants), Revizor-style.
DEFAULT_INPUTS_PER_CLASS = 3

#: Transient-residue lines seeded with secrets per program (cost cap).
MAX_SECRET_LINES = 4


@dataclass(frozen=True)
class ContractViolation:
    """One contract violation: an input class the hardware tells apart.

    Shaped like :class:`~repro.detection.vulnerability.LeakReport` where
    it matters — a ``kind`` string and a ``render()`` — so findings flow
    through the fuzzer, the campaign report, the store, minimization,
    and replay unchanged.
    """

    kind: str                      # "contract_ct_seq" | ...
    clause: str                    # the observation clause violated
    input_class: int               # stable hash of the class's contract trace
    class_size: int                # members sharing that contract trace
    member_a: str                  # labels of the distinguishable pair
    member_b: str
    diverged_at: int               # index of the first differing observation
    observation_a: tuple | None    # the pair's observations there (None =
    observation_b: tuple | None    #   that member's trace already ended)
    secret_lines: tuple[int, ...]  # line bases the variants' secrets sat at

    def render(self) -> str:
        def show(obs: tuple | None) -> str:
            if obs is None:
                return "(trace ended)"
            kind, value = obs
            return f"{kind} 0x{value:X}"

        lines = [
            f"[{self.kind}] contract violation under {self.clause}: "
            f"input class 0x{self.input_class:08X} "
            f"({self.class_size} inputs, equal contract traces)",
            f"  hardware traces diverge at observation {self.diverged_at}: "
            f"{self.member_a} saw {show(self.observation_a)}, "
            f"{self.member_b} saw {show(self.observation_b)}",
        ]
        if self.secret_lines:
            planted = ", ".join(f"0x{line:X}" for line in self.secret_lines)
            lines.append(f"  secrets planted at transient lines: {planted}")
        return "\n".join(lines)


class ContractDetector:
    """Runs the relational check for one configured clause.

    ``run_hardware`` executes a program on the PUT and returns its
    :class:`~repro.boom.core.CoreResult` — normally the online phase's
    core's ``run`` bound to the phase's read set, so variant runs reuse
    the same simulation engine the fuzzing loop does and record at
    least the slots :class:`HardwareTraceCollector` reads.
    """

    def __init__(
        self,
        run_hardware: Callable[[TestProgram], CoreResult],
        collector: HardwareTraceCollector,
        clause: str = "ct-seq",
        inputs_per_class: int = DEFAULT_INPUTS_PER_CLASS,
        max_spec_window: int = DEFAULT_SPEC_WINDOW,
        base_address: int = 0x8000_0000,
        line_bytes: int = 16,
        memo: GoldenTraceMemo | None = None,
        protected_base: int = 0,
        protected_size: int = 0,
        probe_stale_stores: bool = False,
    ):
        """``protected_base``/``protected_size`` mirror the hardware's
        fault region into the golden model (zero size disables it);
        ``probe_stale_stores`` extends the secret-planting pool to
        write-before-read lines when the hardware bypasses stores."""
        if inputs_per_class < 2:
            raise ContractError("inputs_per_class must be >= 2")
        self.run_hardware = run_hardware
        self.collector = collector
        # parse_clause validates the name (and raises ContractError with
        # the full grammar for unknown clauses or members).
        self._execution = parse_clause(clause)[1]
        self.clause = canonicalize_clause(clause)
        self.kind = contract_kind(clause)
        self.inputs_per_class = inputs_per_class
        self.max_spec_window = max_spec_window
        self.base_address = base_address
        self.line_bytes = line_bytes
        self.protected_base = protected_base
        self.protected_size = protected_size
        self.probe_stale_stores = probe_stale_stores
        #: Cumulative extra hardware runs (variants) this detector made.
        self.variant_runs = 0
        #: Cumulative wall time of those runs (PUT simulation time).
        self.variant_seconds = 0.0
        #: Cumulative trace events examined by variant-run collection.
        self.events_examined = 0
        #: Golden-trace memo: every ISS contract-trace request routes
        #: through it, so repeated inputs (both-mode re-examination,
        #: minimization, replay, residue-class re-runs) never repeat an
        #: ISS execution.  Shareable across detectors; by default each
        #: detector owns one.
        self.memo = memo if memo is not None else GoldenTraceMemo()

    # -- internals ----------------------------------------------------------

    def _model_trace(self, program: TestProgram, clause: str | None = None,
                     probe_stale_stores: bool = False) -> ContractTrace:
        return self.memo.trace(
            program,
            clause=self.clause if clause is None else clause,
            base_address=self.base_address,
            line_bytes=self.line_bytes,
            max_spec_window=self.max_spec_window,
            protected_base=self.protected_base,
            protected_size=self.protected_size,
            probe_stale_stores=probe_stale_stores,
        )

    def _candidate_lines(self, hardware: HardwareTrace,
                         model: ContractTrace,
                         program: TestProgram) -> list[int]:
        """Transient-residue lines: hardware-touched, architecture-silent.

        Under ``probe_stale_stores`` the pool additionally holds
        hardware-touched lines whose first architectural access was a
        store: the plant there only changes the *pre-store* byte a
        bypassing load could read, never committed state.  The code
        region is excluded — planting bytes there would rewrite the
        program itself — and the pool is capped so a pathological run
        cannot make variant generation arbitrarily expensive.
        """
        code_start = self.base_address & ~(self.line_bytes - 1)
        code_end = self.base_address + 4 * len(program.words)
        pool = hardware.lines - model.accessed_lines
        if self.probe_stale_stores:
            pool = pool | (model.stale_store_lines & hardware.lines)
        candidates = sorted(
            line for line in pool
            if not code_start <= line < code_end
        )
        return candidates[:MAX_SECRET_LINES]

    def _variants(self, program: TestProgram,
                  lines: list[int]) -> list[TestProgram]:
        """Deterministic secret-planted copies of the base input."""
        seed = stable_hash(
            ("contract-secret", program.to_bytes(), program.data_seed)
        )
        variants = []
        for index in range(1, self.inputs_per_class):
            variant = program.copy()
            variant.label = f"{program.label}+secret{index}"
            for line in lines:
                variant.memory_overlay[line] = \
                    stable_hash((seed, index, line)) & 0xFF
            variants.append(variant)
        return variants

    @staticmethod
    def _first_divergence(a: HardwareTrace, b: HardwareTrace):
        for position, (obs_a, obs_b) in enumerate(
            zip(a.observations, b.observations)
        ):
            if obs_a != obs_b:
                return position, obs_a, obs_b
        if len(a.observations) != len(b.observations):
            position = min(len(a.observations), len(b.observations))
            obs_a = (a.observations[position]
                     if position < len(a.observations) else None)
            obs_b = (b.observations[position]
                     if position < len(b.observations) else None)
            return position, obs_a, obs_b
        return None

    def _run_hardware(self, program: TestProgram) -> CoreResult:
        """One extra hardware run, counted and timed."""
        started = perf_counter()
        result = self.run_hardware(program)
        self.variant_seconds += perf_counter() - started
        self.variant_runs += 1
        return result

    # -- public API ---------------------------------------------------------

    def detect(self, program: TestProgram,
               result: CoreResult | None = None) -> list[ContractViolation]:
        """Relationally test one program; returns its violations.

        ``result`` is the program's already-simulated run when the
        caller has one (the online phase always does) — passing it saves
        re-running the base input.
        """
        with telemetry.span("online/contract"):
            return self._detect(program, result)

    def _detect(self, program: TestProgram,
                result: CoreResult | None) -> list[ContractViolation]:
        if result is None:
            result = self._run_hardware(program)
        base_hw = self.collector.collect(result)
        speculative = bool(self._execution)
        if speculative:
            # The residue filter only needs architectural line
            # accounting, which is execution-clause-independent — run it
            # at ct-seq cost so residue-free programs (the common case
            # in a long campaign) never pay the wrong-path simulation of
            # the full clause trace.
            arch_view = self._model_trace(
                program, clause="ct-seq",
                probe_stale_stores=self.probe_stale_stores,
            )
            lines = self._candidate_lines(base_hw, arch_view, program)
            if not lines:
                return []
            base_model = self._model_trace(program)
        else:
            base_model = self._model_trace(
                program, probe_stale_stores=self.probe_stale_stores,
            )
            lines = self._candidate_lines(base_hw, base_model, program)
            if not lines:
                return []  # no transient residue: nothing to distinguish

        members: list[tuple[str, ContractTrace, HardwareTrace]] = [
            ("input-0", base_model, base_hw)
        ]
        for index, variant in enumerate(self._variants(program, lines), 1):
            variant_result = self._run_hardware(variant)
            variant_hw = self.collector.collect(variant_result)
            self.events_examined += variant_result.trace.events_examined
            if speculative:
                # Only clauses with execution members can observe the
                # planted secrets (through the simulated wrong paths),
                # so only they may split the class — the variant needs
                # its own model run.
                variant_model = self._model_trace(variant)
            else:
                # Execution-free clauses observe architectural execution
                # only, and secrets sit exclusively at lines whose
                # initial bytes committed state never depends on:
                # residue lines the architecture doesn't touch, or
                # stale-store lines it overwrites before any read.  The
                # variant's contract trace is the base trace by
                # construction.
                variant_model = base_model
            members.append((f"input-{index}", variant_model, variant_hw))

        classes: dict[tuple, tuple[ContractTrace, list]] = {}
        for label, model, hardware in members:
            _, inputs = classes.setdefault(model.observations, (model, []))
            inputs.append((label, hardware))

        violations = []
        for model, inputs in classes.values():
            if len(inputs) < 2:
                continue
            first_label, first_hw = inputs[0]
            for label, hardware in inputs[1:]:
                divergence = self._first_divergence(first_hw, hardware)
                if divergence is None:
                    continue
                position, obs_a, obs_b = divergence
                violations.append(ContractViolation(
                    kind=self.kind,
                    clause=self.clause,
                    input_class=model.key(),
                    class_size=len(inputs),
                    member_a=first_label,
                    member_b=label,
                    diverged_at=position,
                    observation_a=obs_a,
                    observation_b=obs_b,
                    secret_lines=tuple(lines),
                ))
                break  # one violation per class is plenty
        return violations
