"""The persistent campaign store: resumable, replayable run directories.

A campaign executed through :mod:`repro.scenarios.runner` persists its
artifacts under one run directory as it goes:

``scenario.json``
    The exact :class:`~repro.scenarios.spec.ScenarioSpec` that ran.
``meta.json``
    Schema version, campaign status (``running`` / ``interrupted`` /
    ``complete``), base seed and shard count.
``shards/shard-NNNN.json``
    One complete shard's campaign artifacts (fuzz result with discovery
    log and findings, online stats, MST rows) — written atomically when
    the shard finishes, so an interrupt never leaves a half shard that
    counts as done.
``findings.jsonl``
    One line per detector finding: the triggering program, its trimmed
    (minimized) form when available, the producing ``detector``
    pathway (``ift`` or ``contract``), and the full report — a
    root-caused leak report or a contract violation, tagged with the
    same discriminator — enough to re-confirm the finding later
    without re-fuzzing (``replay``).
``corpus.jsonl``
    The retained corpus entries of each shard (program + the coverage
    items it discovered on entry), for seeding follow-up campaigns.
``coverage.jsonl``
    One line per shard: its seed and covered-items-per-iteration curve.
``report.txt``
    The merged campaign report, rendered *without* wall-clock timings so
    an interrupted-then-resumed campaign is byte-identical to an
    uninterrupted one at the same seed.

Everything round-trips: :meth:`CampaignStore.load_shard_report` rebuilds
exactly the :class:`~repro.core.report.CampaignReport` the shard worker
produced (offline artifacts are recomputed from the spec — they are a
pure function of the configuration and are never stored).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from repro.contracts.detector import ContractViolation
from repro.core.online import OnlineStats
from repro.core.report import CampaignReport
from repro.detection.mst import MisspeculationTable
from repro.detection.vulnerability import LeakReport, RootCause
from repro.detection.windows import DetectedWindow
from repro.fuzz.crash import CrashReport
from repro.fuzz.fuzzer import CampaignResult, FuzzFinding
from repro.fuzz.input import TestProgram
from repro.scenarios.spec import ScenarioError, ScenarioSpec
from repro.utils import rundir

SCHEMA_VERSION = 1

STATUS_RUNNING = "running"
STATUS_INTERRUPTED = "interrupted"
STATUS_COMPLETE = "complete"
#: Complete, but with quarantined shards missing from the merge.
STATUS_DEGRADED = "degraded"


class StoreError(RuntimeError):
    """A run directory is missing, malformed, or would be clobbered."""


# ----------------------------------------------------------------------
# JSON codecs for the campaign artifact types
# ----------------------------------------------------------------------

def encode_item(item):
    """Coverage items are flat tuples of str/int; JSON turns tuples into
    arrays, so decoding maps arrays back to tuples (recursively)."""
    if isinstance(item, (list, tuple)):
        return [encode_item(part) for part in item]
    return item


def decode_item(item):
    if isinstance(item, list):
        return tuple(decode_item(part) for part in item)
    return item


def program_to_dict(program: TestProgram) -> dict:
    return {
        "words": list(program.words),
        "reg_init": list(program.reg_init),
        "data_seed": program.data_seed,
        "max_cycles": program.max_cycles,
        "label": program.label,
        "memory_overlay": {
            str(address): value
            for address, value in sorted(program.memory_overlay.items())
        },
    }


def program_from_dict(data: dict) -> TestProgram:
    return TestProgram(
        words=list(data["words"]),
        reg_init=list(data["reg_init"]),
        data_seed=data["data_seed"],
        max_cycles=data["max_cycles"],
        label=data["label"],
        memory_overlay={
            int(address): value
            for address, value in data["memory_overlay"].items()
        },
    )


def leak_report_to_dict(report: LeakReport) -> dict:
    return {
        "kind": report.kind,
        "window_start": report.window_start,
        "window_end": report.window_end,
        "window_pc": report.window_pc,
        "window_word": report.window_word,
        "leaked_signals": list(report.leaked_signals),
        "root_causes": [
            {"source": cause.source, "dest": cause.dest,
             "path": list(cause.path)}
            for cause in report.root_causes
        ],
    }


def leak_report_from_dict(data: dict) -> LeakReport:
    return LeakReport(
        kind=data["kind"],
        window_start=data["window_start"],
        window_end=data["window_end"],
        window_pc=data["window_pc"],
        window_word=data["window_word"],
        leaked_signals=tuple(data["leaked_signals"]),
        root_causes=tuple(
            RootCause(source=cause["source"], dest=cause["dest"],
                      path=tuple(cause["path"]))
            for cause in data["root_causes"]
        ),
    )


def contract_violation_to_dict(violation: ContractViolation) -> dict:
    return {
        "kind": violation.kind,
        "clause": violation.clause,
        "input_class": violation.input_class,
        "class_size": violation.class_size,
        "member_a": violation.member_a,
        "member_b": violation.member_b,
        "diverged_at": violation.diverged_at,
        "observation_a": encode_item(violation.observation_a),
        "observation_b": encode_item(violation.observation_b),
        "secret_lines": list(violation.secret_lines),
    }


def contract_violation_from_dict(data: dict) -> ContractViolation:
    return ContractViolation(
        kind=data["kind"],
        clause=data["clause"],
        input_class=data["input_class"],
        class_size=data["class_size"],
        member_a=data["member_a"],
        member_b=data["member_b"],
        diverged_at=data["diverged_at"],
        observation_a=decode_item(data["observation_a"]),
        observation_b=decode_item(data["observation_b"]),
        secret_lines=tuple(data["secret_lines"]),
    )


def crash_report_to_dict(report: CrashReport) -> dict:
    return {
        "kind": report.kind,
        "phase": report.phase,
        "exception": report.exception,
        "message": report.message,
    }


def crash_report_from_dict(data: dict) -> CrashReport:
    return CrashReport(
        kind=data["kind"],
        phase=data["phase"],
        exception=data["exception"],
        message=data["message"],
    )


def detector_of(detail) -> str:
    """Which detection pathway produced a finding detail / report."""
    if isinstance(detail, ContractViolation):
        return "contract"
    if isinstance(detail, CrashReport):
        return "crash"
    return "ift"


def report_to_dict(report) -> dict:
    """Serialise either pathway's report, tagged with its detector.

    The ``detector`` discriminator is what keeps a persisted campaign's
    finding kinds faithful on reload — without it every stored report
    would decode as an IFT :class:`LeakReport`.
    """
    if isinstance(report, ContractViolation):
        return {"detector": "contract", **contract_violation_to_dict(report)}
    if isinstance(report, CrashReport):
        return {"detector": "crash", **crash_report_to_dict(report)}
    return {"detector": "ift", **leak_report_to_dict(report)}


def report_from_dict(data: dict):
    """Decode a tagged report; untagged data is legacy IFT (schema 1
    stores written before the contract pathway existed)."""
    if data.get("detector") == "contract":
        return contract_violation_from_dict(data)
    if data.get("detector") == "crash":
        return crash_report_from_dict(data)
    payload = dict(data)
    payload.pop("detector", None)
    return leak_report_from_dict(payload)


#: Finding details the store can round-trip through JSON.
_SERIALIZABLE_DETAILS = (LeakReport, ContractViolation, CrashReport)


def _finding_to_dict(finding: FuzzFinding) -> dict:
    detail = finding.detail
    return {
        "iteration": finding.iteration,
        "kind": finding.kind,
        "detector": detector_of(detail),
        "program": program_to_dict(finding.program),
        "detail": (
            report_to_dict(detail)
            if isinstance(detail, _SERIALIZABLE_DETAILS) else None
        ),
    }


def _finding_from_dict(data: dict) -> FuzzFinding:
    detail = data.get("detail")
    return FuzzFinding(
        iteration=data["iteration"],
        kind=data["kind"],
        detail=None if detail is None else report_from_dict(detail),
        program=program_from_dict(data["program"]),
    )


def campaign_result_to_dict(result: CampaignResult) -> dict:
    return {
        "iterations": result.iterations,
        "corpus_size": result.corpus_size,
        "discovery_log": [
            [iteration, encode_item(item)]
            for iteration, item in result.discovery_log
        ],
        "findings": [_finding_to_dict(f) for f in result.findings],
    }


def campaign_result_from_dict(data: dict) -> CampaignResult:
    """The inverse of :func:`campaign_result_to_dict`.  Records written
    before the curve was derived also carry ``coverage_curve`` and
    ``executed_programs``; both are rebuilt, so they are ignored."""
    result = CampaignResult(iterations=data["iterations"])
    result.corpus_size = data["corpus_size"]
    result.discovery_log = [
        (iteration, decode_item(item))
        for iteration, item in data["discovery_log"]
    ]
    result.findings = [_finding_from_dict(f) for f in data["findings"]]
    return result


def online_stats_to_dict(stats: OnlineStats) -> dict:
    return dict(vars(stats))


def online_stats_from_dict(data: dict) -> OnlineStats:
    """The inverse of :func:`online_stats_to_dict`.  Keys that are not
    :class:`OnlineStats` fields are ignored (records written before
    ``contract_violations`` was derived from the findings carry it);
    missing fields take their defaults."""
    names = {f.name for f in fields(OnlineStats)}
    return OnlineStats(**{k: v for k, v in data.items() if k in names})


def window_to_dict(window: DetectedWindow) -> dict:
    return {
        "tag": window.tag, "start": window.start, "end": window.end,
        "pc": window.pc, "word": window.word,
        "mispredicted": window.mispredicted, "resolved": window.resolved,
    }


def shard_report_to_dict(shard: int, seed: int,
                         report: CampaignReport) -> dict:
    """Serialise one shard's report (offline artifacts excluded: they
    are recomputed from the scenario on load)."""
    return {
        "shard": shard,
        "seed": seed,
        "detectors": list(report.detectors),
        "static_prune": report.static_prune,
        "fuzz": campaign_result_to_dict(report.fuzz),
        "stats": online_stats_to_dict(report.stats),
        "mst": [window_to_dict(w) for w in report.mst.rows],
    }


def shard_report_from_dict(data: dict, offline) -> CampaignReport:
    """The inverse of :func:`shard_report_to_dict`.  Records written
    before the report list was derived from the findings also carry
    ``reports``; it is ignored."""
    return CampaignReport(
        offline=offline,
        fuzz=campaign_result_from_dict(data["fuzz"]),
        stats=online_stats_from_dict(data["stats"]),
        mst=MisspeculationTable(
            rows=[DetectedWindow(**w) for w in data["mst"]]
        ),
        # Stores written before the contract pathway carry no detector
        # list; they were IFT-only by construction.  Likewise stores
        # written before the static_prune knob never pruned.
        detectors=tuple(data.get("detectors", ("ift",))),
        static_prune=data.get("static_prune", False),
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class CampaignStore:
    """One campaign's run directory (create, append, resume, replay).

    The directory's layout and file primitives belong to
    :mod:`repro.utils.rundir`; the store owns the records in it.
    """

    def __init__(self, root: str | Path, spec: ScenarioSpec, meta: dict):
        self.root = Path(root)
        self.spec = spec
        self.meta = meta

    def telemetry_dir(self, create: bool = False) -> Path:
        """Where ``--telemetry`` artifacts live (per-shard JSONL logs,
        the campaign log, and the atomic summary — see
        :mod:`repro.telemetry.runstats`).  Shard logs merge by shard id
        exactly like the shard artifacts."""
        path = self.root / rundir.TELEMETRY_DIR
        if create:
            path.mkdir(parents=True, exist_ok=True)
        return path

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path, spec: ScenarioSpec) -> "CampaignStore":
        """Start a fresh campaign directory (refuses to clobber one)."""
        root = Path(root)
        if cls.is_store(root):
            raise StoreError(
                f"{root} already holds a campaign; resume it with "
                f"`python -m repro resume {root}` or pick another --out"
            )
        (root / rundir.SHARD_DIR).mkdir(parents=True, exist_ok=True)
        meta = {
            "schema": SCHEMA_VERSION,
            "status": STATUS_RUNNING,
            "scenario": spec.name,
            "base_seed": spec.seed,
            "shards": spec.shards,
        }
        store = cls(root, spec, meta)
        rundir.write_atomic(root / rundir.SCENARIO_FILE, spec.to_json())
        store._write_meta()
        return store

    @classmethod
    def open(cls, root: str | Path) -> "CampaignStore":
        """Open an existing campaign directory."""
        root = Path(root)
        scenario_path = root / rundir.SCENARIO_FILE
        if not scenario_path.exists():
            raise StoreError(
                f"{root} is not a campaign directory "
                f"(missing {rundir.SCENARIO_FILE})"
            )
        try:
            spec = ScenarioSpec.from_json(
                scenario_path.read_text(encoding="utf-8"),
                source=str(scenario_path),
            )
        except ScenarioError as error:
            raise StoreError(f"cannot load {scenario_path}: {error}") from None
        try:
            meta = rundir.read_json_object(root / rundir.META_FILE,
                                           StoreError)
        except FileNotFoundError:
            raise StoreError(
                f"{root} has a scenario but no {rundir.META_FILE} — the "
                f"campaign was interrupted during creation; delete the "
                f"directory and run the scenario again"
            ) from None
        if meta.get("schema") != SCHEMA_VERSION:
            raise StoreError(
                f"{root} uses store schema {meta.get('schema')!r}; this "
                f"build reads schema {SCHEMA_VERSION}"
            )
        return cls(root, spec, meta)

    @staticmethod
    def is_store(root: str | Path) -> bool:
        return (Path(root) / rundir.SCENARIO_FILE).exists()

    def _write_meta(self) -> None:
        rundir.write_atomic(
            self.root / rundir.META_FILE,
            json.dumps(self.meta, indent=2) + "\n",
        )

    @property
    def status(self) -> str:
        return self.meta["status"]

    def set_status(self, status: str) -> None:
        self.meta["status"] = status
        self._write_meta()

    # -- shard artifacts ----------------------------------------------------

    def _shard_path(self, shard: int) -> Path:
        return self.root / rundir.SHARD_DIR / rundir.shard_file(shard)

    def completed_shards(self) -> list[int]:
        """Indices of shards whose artifacts are fully persisted."""
        return sorted(
            rundir.shard_index(path)
            for path in rundir.shard_files(self.root / rundir.SHARD_DIR)
        )

    def record_shard(
        self,
        shard: int,
        seed: int,
        report: CampaignReport,
        corpus_entries: list[tuple[TestProgram, int]] = (),
        minimized: dict[int, TestProgram] | None = None,
    ) -> None:
        """Persist one finished shard: report, findings, corpus, curve.

        ``minimized`` maps a finding's index within ``report.fuzz.findings``
        to its trimmed program.  The shard file is written last and
        atomically — only then does the shard count as completed, so the
        append-only JSONL files may hold partial data for a crashed
        shard but ``completed_shards`` never lies.
        """
        minimized = minimized or {}
        with (self.root / rundir.FINDINGS_FILE).open("a") as stream:
            for index, finding in enumerate(report.fuzz.findings):
                record = {
                    "shard": shard,
                    "seed": seed,
                    "index": index,
                    "iteration": finding.iteration,
                    "kind": finding.kind,
                    "detector": detector_of(finding.detail),
                    "program": program_to_dict(finding.program),
                    "minimized": (
                        program_to_dict(minimized[index])
                        if index in minimized else None
                    ),
                    "report": (
                        report_to_dict(finding.detail)
                        if isinstance(finding.detail, _SERIALIZABLE_DETAILS)
                        else None
                    ),
                }
                stream.write(json.dumps(record) + "\n")
        with (self.root / rundir.CORPUS_FILE).open("a") as stream:
            for program, new_items in corpus_entries:
                stream.write(json.dumps({
                    "shard": shard,
                    "new_items": new_items,
                    "program": program_to_dict(program),
                }) + "\n")
        with (self.root / rundir.COVERAGE_FILE).open("a") as stream:
            stream.write(json.dumps({
                "shard": shard,
                "seed": seed,
                "curve": list(report.fuzz.coverage_curve),
            }) + "\n")
        rundir.write_atomic(
            self._shard_path(shard),
            json.dumps(shard_report_to_dict(shard, seed, report)) + "\n",
        )

    def load_shard_report(self, shard: int, offline) -> CampaignReport:
        """Rebuild a persisted shard's :class:`CampaignReport`."""
        path = self._shard_path(shard)
        if not path.exists():
            raise StoreError(f"shard {shard} has no artifacts in {self.root}")
        data = rundir.read_json_object(path, StoreError)
        try:
            return shard_report_from_dict(data, offline)
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(
                f"{path} is not a valid shard record "
                f"({type(error).__name__}: {error}); the store is corrupt"
            ) from None

    # -- findings / corpus readback -----------------------------------------

    def _read_jsonl(self, name: str) -> list[dict]:
        """Decode one append-only JSONL file.  A torn *final* line is
        crash debris (its shard never completed and resume re-runs it)
        and is dropped; corruption anywhere else raises StoreError."""
        return rundir.read_jsonl(self.root / name, StoreError)

    def findings(self) -> list[dict]:
        """All persisted finding records (decoded JSONL lines)."""
        return self._read_jsonl(rundir.FINDINGS_FILE)

    def corpus_entries(self) -> list[tuple[int, TestProgram, int]]:
        """All persisted corpus entries as (shard, program, new_items)."""
        return [
            (record["shard"], program_from_dict(record["program"]),
             record["new_items"])
            for record in self._read_jsonl(rundir.CORPUS_FILE)
        ]

    def coverage_curves(self) -> list[dict]:
        return self._read_jsonl(rundir.COVERAGE_FILE)

    def prune_incomplete(self) -> None:
        """Drop JSONL records of shards that never completed.

        The append-only files may hold partial data for a shard that was
        interrupted mid-run; a resume re-executes that shard from
        scratch, so its stale records are filtered out first to keep the
        findings/corpus/coverage files exactly one record set per shard.
        """
        completed = set(self.completed_shards())
        for name in (rundir.FINDINGS_FILE, rundir.CORPUS_FILE,
                     rundir.COVERAGE_FILE):
            if not (self.root / name).exists():
                continue
            kept = [r for r in self._read_jsonl(name)
                    if r["shard"] in completed]
            # Rewrite unconditionally: _read_jsonl already dropped any
            # torn trailing fragment, and leaving one in place would let
            # the re-run shard's first append concatenate onto it.
            rundir.write_atomic(
                self.root / name,
                "".join(json.dumps(r) + "\n" for r in kept),
            )

    # -- quarantine (retry-exhausted shards) --------------------------------

    def record_quarantine(self, shard: int, seed: int, attempts: int,
                          failure: str, error: str) -> None:
        """Append one retry-exhausted shard to ``quarantine.jsonl``.

        ``failure`` names the terminal failure mode (``exception`` /
        ``worker-died`` / ``timeout``); ``error`` is its one-line
        detail.  Quarantined shards are excluded from the merge — the
        campaign finishes in degraded mode and a later ``resume``
        re-runs exactly these shards.
        """
        with (self.root / rundir.QUARANTINE_FILE).open("a") as stream:
            stream.write(json.dumps({
                "type": "quarantine",
                "shard": shard,
                "seed": seed,
                "attempts": attempts,
                "failure": failure,
                "error": error,
            }) + "\n")

    def quarantined(self) -> list[dict]:
        """All quarantine records, in shard order."""
        records = self._read_jsonl(rundir.QUARANTINE_FILE)
        return sorted(records, key=lambda record: record["shard"])

    def reset_quarantine(self) -> None:
        """Drop the quarantine list (a resume re-runs those shards)."""
        path = self.root / rundir.QUARANTINE_FILE
        if path.exists():
            path.unlink()

    # -- mid-shard checkpoints ----------------------------------------------

    def checkpoint_dir(self, create: bool = False) -> Path:
        """Where the shard workers keep their mid-run checkpoints (see
        :mod:`repro.scenarios.checkpoint`)."""
        path = self.root / rundir.CHECKPOINT_DIR
        if create:
            path.mkdir(parents=True, exist_ok=True)
        return path

    def clear_checkpoint(self, shard: int) -> None:
        """Drop a completed shard's checkpoint (its artifacts supersede it)."""
        path = self.checkpoint_dir() / rundir.shard_file(shard)
        if path.exists():
            path.unlink()

    # -- final report -------------------------------------------------------

    def finalize(self, report_text: str, degraded: bool = False) -> None:
        """Write the merged report and mark the campaign complete
        (``degraded`` when quarantined shards are missing from it)."""
        rundir.write_atomic(self.root / rundir.REPORT_FILE, report_text)
        self.set_status(STATUS_DEGRADED if degraded else STATUS_COMPLETE)

    def report_text(self) -> str:
        path = self.root / rundir.REPORT_FILE
        if not path.exists():
            raise StoreError(f"{self.root} has no final report yet")
        return path.read_text(encoding="utf-8")
