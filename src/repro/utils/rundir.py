"""The run directory: its layout and the one way to write and read it.

A stored campaign (:mod:`repro.scenarios.store`), its mid-shard
checkpoints (:mod:`repro.scenarios.checkpoint`) and its telemetry
(:mod:`repro.telemetry`) share one directory, drawn as a tree in
``docs/scenarios.md`` (a docs test pins that tree to the names below).
This module is the only place that names its entries, writes a whole
file of it, or parses one back.  It sits at the bottom layer so both
``scenarios`` and ``telemetry`` use it without an upward import.

Callers serialize their own records (the store with ``json.dumps``,
telemetry with its compact ``dump_line``) and hand text in, so every
file keeps its exact bytes.  Readers take the exception class to raise
(``StoreError``, ``TelemetryError``, ...) so each layer keeps its own
error contract.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

SCENARIO_FILE = "scenario.json"
META_FILE = "meta.json"
SHARD_DIR = "shards"
FINDINGS_FILE = "findings.jsonl"
CORPUS_FILE = "corpus.jsonl"
COVERAGE_FILE = "coverage.jsonl"
QUARANTINE_FILE = "quarantine.jsonl"
CHECKPOINT_DIR = "checkpoints"
TELEMETRY_DIR = "telemetry"
#: Inside :data:`TELEMETRY_DIR`: the parent's log and the merged summary.
CAMPAIGN_LOG = "campaign.jsonl"
SUMMARY_FILE = "summary.json"
REPORT_FILE = "report.txt"


def shard_file(shard: int, suffix: str = ".json") -> str:
    """A shard's file name: ``.json`` for its artifacts and checkpoint
    (under :data:`SHARD_DIR` / :data:`CHECKPOINT_DIR`), ``.jsonl`` for
    its telemetry log (under :data:`TELEMETRY_DIR`)."""
    return f"shard-{shard:04d}{suffix}"


def shard_files(directory: str | Path, suffix: str = ".json") -> list[Path]:
    """Every :func:`shard_file` with ``suffix`` in ``directory``, sorted."""
    return sorted(Path(directory).glob("shard-*" + suffix))


def shard_index(path: str | Path) -> int:
    """The shard number a :func:`shard_file` name carries (ValueError if
    the name carries none)."""
    return int(Path(path).stem.partition("-")[2])


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with UTF-8 ``text`` via a sibling ``.tmp`` file
    and ``os.replace``, so a reader never sees a partial file."""
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_text(text, encoding="utf-8")
    os.replace(temporary, path)


def read_jsonl(path: str | Path, error: type[Exception]) -> list:
    """Decode a JSONL file, one value per non-blank line; ``[]`` if the
    file is absent.

    A process killed mid-append leaves a torn *last* line: that is crash
    debris and is dropped.  A bad line anywhere else is corruption and
    raises ``error`` naming the file and line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    lines = text.rstrip().splitlines()
    records = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise error(
                f"{path} line {index + 1} is not valid JSON; the file is "
                f"corrupt beyond a torn trailing write"
            ) from None
    return records


def read_json_object(path: str | Path, error: type[Exception]) -> dict:
    """Decode a JSON file that must hold one object.

    Invalid JSON (or text) and any top-level value other than an object
    raise ``error`` naming the file; a missing file raises
    :class:`FileNotFoundError`.
    """
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(value, dict):
        raise error(f"{path} holds a JSON {type(value).__name__}, "
                    f"not an object")
    return value
