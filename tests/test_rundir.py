"""The run-directory owner (``repro.utils.rundir``).

Pins its file primitives (atomic UTF-8 write, torn-tail JSONL reader,
JSON-object reader, shard naming) and that it stays the only owner:
no other module under ``src/repro`` calls ``os.replace``, spells the
``shard-NNNN`` pattern or a run-directory entry name.
"""

import re
from pathlib import Path

import pytest

from repro.utils import rundir

PACKAGE = Path(__file__).parent.parent / "src" / "repro"


class _Boom(RuntimeError):
    pass


def test_shard_names_round_trip(tmp_path):
    assert rundir.shard_file(7) == "shard-0007.json"
    assert rundir.shard_file(12, ".jsonl") == "shard-0012.jsonl"
    for shard in (3, 0, 11):
        (tmp_path / rundir.shard_file(shard)).write_text("{}")
    (tmp_path / rundir.shard_file(5, ".jsonl")).write_text("")
    (tmp_path / (rundir.shard_file(9) + ".tmp")).write_text("")
    found = rundir.shard_files(tmp_path)
    assert [rundir.shard_index(path) for path in found] == [0, 3, 11]
    with pytest.raises(ValueError):
        rundir.shard_index("summary.json")


def test_write_atomic_replaces_whole_file_as_utf8(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("old")
    rundir.write_atomic(path, "naïve — report\n")
    assert path.read_bytes() == "naïve — report\n".encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def test_read_jsonl_drops_only_a_torn_last_line(tmp_path):
    path = tmp_path / "log.jsonl"
    assert rundir.read_jsonl(path, _Boom) == []
    path.write_text('{"a": 1}\n\n{"b": 2}\n{"c": \n\n')
    assert rundir.read_jsonl(path, _Boom) == [{"a": 1}, {"b": 2}]
    path.write_text('{"a": 1}\n{"b": \n{"c": 3}\n')
    with pytest.raises(_Boom, match="line 2"):
        rundir.read_jsonl(path, _Boom)


@pytest.mark.parametrize("text, message", [
    ("[]", "holds a JSON list"),
    ('"meta"', "holds a JSON str"),
    ('{"status": ', "not valid JSON"),
])
def test_read_json_object_rejects_non_objects(tmp_path, text, message):
    path = tmp_path / "meta.json"
    path.write_text(text)
    with pytest.raises(_Boom, match=message) as excinfo:
        rundir.read_json_object(path, _Boom)
    assert "meta.json" in str(excinfo.value)
    with pytest.raises(FileNotFoundError):
        rundir.read_json_object(tmp_path / "absent.json", _Boom)


def test_rundir_is_the_only_owner():
    # File names only: "shards" and "telemetry" double as record keys
    # and bench variant names elsewhere.
    names = [value for name, value in vars(rundir).items()
             if name.isupper() and isinstance(value, str) and "." in value]
    assert len(names) == 9
    patterns = [r"\bos\.replace\(", r"shard-\{", r"shard-\*"]
    patterns += [rf"[\"']{re.escape(name)}[\"']" for name in names]
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "rundir.py":
            continue
        text = path.read_text(encoding="utf-8")
        offenders += [f"{path.relative_to(PACKAGE)}: {pattern}"
                      for pattern in patterns if re.search(pattern, text)]
    assert offenders == []
