"""Tests for the AST-based determinism self-lint.

The linter guards the repo's reproducibility contract: campaigns must
be byte-identical across processes, so fuzzer/IFG code may not iterate
``set()`` objects (D001 — the pre-PR6 PDLC-id bug class) or draw from
the unseeded module-level ``random`` API (D002).
"""

from pathlib import Path

from tests.analysis_fixtures import (
    DETERMINISM_CLEAN,
    DETERMINISM_SET_ITERATION,
    DETERMINISM_UNSEEDED_RANDOM,
)
from repro.analysis.pylint_determinism import lint_paths, lint_source, main

SRC = str(Path(__file__).parent.parent / "src")


class TestSeededFixtures:
    def test_set_iteration_bug_is_flagged(self):
        # The pre-PR6 IFG-builder defect, verbatim: iterating a set of
        # expression identifiers made edge order hash-seed dependent.
        findings = lint_source(DETERMINISM_SET_ITERATION, "builder.py")
        assert [f.code for f in findings] == ["D001"]
        assert findings[0].line == 3
        assert "set" in findings[0].message

    def test_unseeded_random_is_flagged(self):
        findings = lint_source(DETERMINISM_UNSEEDED_RANDOM, "picker.py")
        assert [f.code for f in findings] == ["D002"]
        assert "random.choice" in findings[0].message

    def test_fix_idiom_lints_clean(self):
        # dict.fromkeys dedup + an explicitly seeded Random generator:
        # the shapes the fixes actually used.
        assert lint_source(DETERMINISM_CLEAN, "fixed.py") == []

    def test_render_is_grep_friendly(self):
        finding = lint_source(DETERMINISM_SET_ITERATION, "builder.py")[0]
        assert finding.render().startswith("builder.py:3: D001 ")


class TestOrderInsensitiveContexts:
    def test_sorted_set_is_allowed(self):
        assert lint_source("for x in sorted(set(items)):\n    use(x)\n") == []

    def test_aggregations_over_sets_are_allowed(self):
        for call in ("sum", "min", "max", "len", "any", "all"):
            assert lint_source(f"value = {call}(set(items))\n") == []

    def test_list_of_set_is_flagged(self):
        findings = lint_source("order = list(set(items))\n")
        assert [f.code for f in findings] == ["D001"]

    def test_set_comprehension_result_is_not_flagged(self):
        # Building a set is fine; iterating one is the defect.
        assert lint_source("keep = {normalise(x) for x in xs}\n") == []

    def test_seeded_random_constructor_is_allowed(self):
        assert lint_source("rng = random.Random(7)\n") == []


class TestSelfLint:
    def test_src_tree_is_determinism_clean(self):
        assert lint_paths([SRC]) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(DETERMINISM_CLEAN)
        assert main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text(DETERMINISM_SET_ITERATION)
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "D001" in out
