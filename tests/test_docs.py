"""Documentation integrity: relative links resolve, CLI listing works.

This is what the CI ``docs`` job runs (plus ``python -m repro
list-scenarios`` as a subprocess, mirrored here so local runs catch the
same breakage).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "PAPER.md"]
    + list((REPO_ROOT / "docs").glob("*.md"))
)

#: Inline markdown links: [text](target)
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _relative_links(path: Path) -> list[str]:
    links = []
    for target in _LINK.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target)
    return links


def test_docs_tree_exists():
    names = {path.name for path in DOC_FILES}
    assert {"architecture.md", "paper_mapping.md", "scenarios.md",
            "README.md", "PAPER.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_relative_links_resolve(doc):
    broken = []
    for target in _relative_links(doc):
        resolved = (doc.parent / target.split("#")[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name} has broken relative links: {broken}"


def test_docs_reference_every_scenario():
    from repro.scenarios import scenario_names

    mapping = (REPO_ROOT / "docs" / "paper_mapping.md").read_text()
    registry_doc = mapping + (REPO_ROOT / "README.md").read_text()
    missing = [name for name in scenario_names()
               if name not in registry_doc]
    assert not missing, f"scenarios undocumented in docs: {missing}"


def test_list_scenarios_cli_runs_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "list-scenarios"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert "spectre-v1" in completed.stdout


def test_readme_bench_table_is_the_bench_list_output():
    from repro.perf import load_bench, render_bench_list

    listing = render_bench_list(load_bench(REPO_ROOT / "BENCH.json"))
    readme = (REPO_ROOT / "README.md").read_text()
    assert f"```text\n{listing}\n```" in readme, (
        "README's bench table is stale: paste the output of "
        "`python -m repro bench --list`")


def test_paper_mapping_table_is_the_experiment_registry():
    from repro.harness.experiments import render_markdown

    mapping = (REPO_ROOT / "docs" / "paper_mapping.md").read_text()
    assert f"\n{render_markdown()}\n\n" in mapping, (
        "docs/paper_mapping.md's experiment table is stale: paste the "
        "output of repro.harness.experiments.render_markdown()")


def test_run_directory_tree_names_every_layout_entry():
    """The tree in docs/scenarios.md shows every entry that
    ``repro.utils.rundir`` defines, shard files included."""
    from repro.utils import rundir

    text = (REPO_ROOT / "docs" / "scenarios.md").read_text(encoding="utf-8")
    tree = text.split("## The run directory", 1)[1].split("```")[1]
    entries = [value for name, value in vars(rundir).items()
               if name.isupper() and isinstance(value, str)]
    entries += [rundir.shard_file(0), rundir.shard_file(0, ".jsonl")]
    assert len(entries) == 14
    missing = [entry for entry in entries
               if not re.search(rf"[ /]{re.escape(entry)}/?(\s|$)", tree)]
    assert missing == []
